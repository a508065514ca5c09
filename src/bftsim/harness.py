"""Experiment runner: seeded batch execution, post-hoc verification, metrics.

Metrics files are newline-delimited JSON with a schema-versioned header line
followed by one record per run in ascending seed order; identical
configurations reproduce byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import weakref
from dataclasses import dataclass, field, fields, replace

from .adversary import SIMPLE_ADVERSARIES, STRATEGIES
from .agreement import (
    BlackboardProcess, BrachaProcess, DecisionRecord, _ProtocolProcess, check_agreement,
)
from .blackboard import FinalView
from .game import GAME_OPPONENTS, GameConfig, run_game, weight_loss
from .params import ConfigInvalid, ProtocolParams
from .sim import WorldState, run
from .stats import SimpleGameConfig, detect_pair, run_simplified_game

SCHEMA = "bftsim-metrics-1"

COINS = ("local", "blackboard")
INPUTS = ("mixed", "random", "unanimous+1", "unanimous-1")


@dataclass
class ExperimentConfig:
    mode: str = "bracha"
    n: int = 5
    f: int = 1
    eps: float = 0.5
    m: int = 0
    T: int = 0
    c: float = 4.0
    k_max: int = 0
    fairness_window: int = 0
    coin: str = "local"
    adversary: str = "honest-random"
    seeds: list = field(default_factory=lambda: [0])
    max_events: int = 2_000_000
    boards: int = 2
    epochs: int = 1
    inputs: str = "mixed"
    max_iterations: int = 12
    out: str | None = None
    trace: bool = False
    zero_bad_weights: bool = False
    record_series: bool = False
    simple_game = None  # the SimpleGameConfig, built here in simplified-game mode

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigInvalid(f"mode must be one of {sorted(MODES)}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigInvalid("at least one seed required")
        for name, value, known in (("coin", self.coin, COINS), ("inputs", self.inputs, INPUTS),
                                   ("adversary", self.adversary, MODES[self.mode][1])):
            if value not in known:
                raise ConfigInvalid(f"{self.mode} {name} must be one of {sorted(known)}, got {value!r}")
        if self.epochs < 1 or self.boards < 1:
            raise ConfigInvalid(f"need epochs >= 1 and boards >= 1, got {self.epochs} and {self.boards}")
        if self.mode == "simplified-game":  # f derives from n and eps; T defaults to 1000
            self.simple_game = SimpleGameConfig(n=self.n, T=self.T if self.T else 1000, eps=self.eps)
            self.f = self.simple_game.f
        weighted = (self.mode == "bracha" and self.coin == "blackboard") or self.mode == "game"
        if weighted and self.f > 0:
            self.params().require_quarter_resilience()

    def params(self) -> ProtocolParams:
        return ProtocolParams(**{p.name: getattr(self, p.name) for p in fields(ProtocolParams)})


def load_config_file(path) -> dict:
    """Plain key=value config; '#' starts a comment.  CLI flags override."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def coerce_config(cfg_kwargs: dict) -> dict:
    """String-typed config values (from files, flags and grids) to their
    field types; a value that does not parse raises ``ConfigInvalid``."""
    typed = {}
    fields = ExperimentConfig.__dataclass_fields__
    for key, value in cfg_kwargs.items():
        if key not in fields:
            raise ConfigInvalid(f"unknown config key {key!r}")
        parse = _PARSERS.get(fields[key].type)
        if parse is None or not isinstance(value, str):
            typed[key] = value
            continue
        try:
            typed[key] = parse(value)
        except (ValueError, KeyError):
            raise ConfigInvalid(f"config key {key!r}: cannot read {value!r} as {fields[key].type}") from None
    return typed


def parse_seed_spec(spec) -> list:
    """Seed list syntax: '5' | '1,2,9' | '0:50' (half-open range)."""
    if isinstance(spec, (list, tuple)):
        return [int(s) for s in spec]
    spec = str(spec)
    if ":" in spec:
        lo, hi = spec.split(":")
        return list(range(int(lo), int(hi)))
    return [int(s) for s in spec.split(",") if s]


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):  # nan and inf parse, but no run setting takes them
        raise ValueError(value)
    return x


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_PARSERS = {"list": parse_seed_spec, "int": int, "float": _finite, "bool": lambda v: _BOOLS[v.lower()]}


def make_config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(**coerce_config(kwargs))


# -- single-run drivers -----------------------------------------------------


def _run_mode(cfg, seed, world, done):
    """Run a built world under ``cfg.adversary`` until ``done(active,
    steady)`` holds, the world is quiescent or ``cfg.max_events`` have
    passed.  ``active`` are the handlers neither corrupted nor starved and
    ``steady`` those of them not slowed; with ``done=None`` the run goes on
    to quiescence or the budget.  Returns the strategy and the
    ``RunResult``."""
    strategy = STRATEGIES[cfg.adversary](seed)
    stop = None
    if done is not None:
        key = lists = None

        def stop(w):
            nonlocal key, lists
            # the lists are rebuilt only when the corruptions or the starved
            # or slowed set change: corruptions are never undone, so their
            # count tells, and strategies replace those sets instead of
            # changing them in place
            starved, slowed = strategy.starved, strategy.slowed
            if key != (len(w.corrupted), starved, slowed):
                key = (len(w.corrupted), starved, slowed)
                active = [h for h in w.handlers if h.pid not in w.corrupted and h.pid not in starved]
                lists = active, [h for h in active if h.pid not in slowed]
            return done(*lists)

    return strategy, run(world, strategy, stop, cfg.max_events)


def _record(cfg, seed, world, own, inputs=None, decisions=None):
    """A message-level run's record: its seed and mode, the mode's own
    fields ``own``, and its trace when ``cfg.trace`` asks for one."""
    rec = {"seed": seed, "mode": cfg.mode, **own}
    if cfg.trace:
        rec["trace"] = _trace_records(world, inputs, decisions)
    return rec


def _derive_inputs(cfg, seed, n):
    import random as _random

    if cfg.inputs == "unanimous+1":
        return [1] * n
    if cfg.inputs == "unanimous-1":
        return [-1] * n
    rng = _random.Random(f"{seed}/inputs")
    vals = [rng.choice((-1, 1)) for _ in range(n)]
    if cfg.inputs == "mixed" and len(set(vals)) == 1:
        vals[0] = -vals[0]
    return vals


def run_bracha_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    inputs = _derive_inputs(cfg, seed, params.n)
    handlers = [
        BrachaProcess(pid, params, seed, inputs[pid], coin=cfg.coin) for pid in range(params.n)
    ]
    world = WorldState(params, handlers, record_trace=cfg.trace)
    world_ref = weakref.ref(world)  # the world holds the handlers: no cycle back
    for h in handlers:
        h.clock = lambda: world_ref().clock

    max_iterations = cfg.max_iterations

    def done(active, _steady):
        # one pass: a handler past the iteration bound ends the run, else
        # every active handler must have decided
        decided = bool(active)
        for h in active:
            if h.iteration > max_iterations:
                return True
            if h.decided is None:
                decided = False
        return decided

    strategy, result = _run_mode(cfg, seed, world, done)
    starved = strategy.starved
    good = [pid for pid in range(params.n) if pid not in world.corrupted]
    decisions = {
        h.pid: DecisionRecord(h.pid, h.decided_iteration, h.decided, h.decided_ordinal)
        for h in handlers
        if h.decided is not None and h.pid not in world.corrupted
    }
    live = [pid for pid in good if pid not in starved]
    finished = bool(live) and all(pid in decisions for pid in live)
    found = check_agreement(dict(enumerate(inputs)), decisions, good)
    return _record(cfg, seed, world, {
        "decided": finished,
        "decide_iter_min": min((d.iteration for d in decisions.values()), default=-1),
        "decide_iter_max": max((d.iteration for d in decisions.values()), default=-1),
        "iterations": max((h.iteration for h in handlers), default=0),
        "events": result.events,
        "chain_depth": result.chain_depth,
        "stopped": result.stopped,
        "agreement_ok": not found["bracha-agreement"],
        "validity_ok": not found.get("bracha-validity"),
        "lag_ok": not found["decision-lag"],
        "violations": [v for vs in found.values() for v in vs],
        "corrupted": sorted(world.corrupted),
        "starved": sorted(starved),
    }, inputs, decisions)


def _trace_records(world, inputs=None, decisions=None):
    """A run as trace records: its events, then the inputs and decisions,
    every process's accepts and final bars, and the coin cells (rows 1..m)
    each at its first accept."""
    recs = [{"rec": "event", "ordinal": ordinal, "kind": kind, "src": a, "dst": b, "digest": digest}
            for ordinal, kind, a, b, digest in world.trace]
    for pid, v in enumerate(inputs or ()):
        recs.append({"rec": "input", "pid": pid, "value": v})
    for d in (decisions or {}).values():
        recs.append({"rec": "decide", "pid": d.pid, "iteration": d.iteration, "value": d.value,
                     "event_ordinal": d.event_ordinal})
    cells = {}
    for h in world.handlers:
        board = getattr(h, "board", None)
        for idx, (origin, seq, payload) in enumerate(h.rb.accepted_log):
            recs.append({"rec": "accept", "pid": h.pid, "origin": origin, "seq": seq,
                         "payload": repr(payload)})
            if board is not None and payload[0] == "write" and payload[2] >= 1:
                cells.setdefault((payload[1], payload[2], origin), (payload[3], idx))
        if board is not None:
            for t, bar in sorted(board.lastbar.items()):
                recs.append({"rec": "final", "pid": h.pid, "t": t, "lastbar": [list(p) for p in bar]})
    for (t, r, i), (v, idx) in sorted(cells.items()):
        recs.append({"rec": "cell", "t": t, "r": r, "i": i, "value": v, "accept_ordinal": idx})
    return recs


def check_views(views, f) -> dict:
    """Finalized-view checks over ``{pid: {t: FinalView}}``, the views of the
    processes that count: every view of board t has n-f full columns, and two
    finalizers' views of their common boards never hold two values for one
    cell and differ in at most f cells.  Violations by verdict name."""
    full, disagree = [], []
    finalized = [(pid, by_t) for pid, by_t in views.items() if by_t]
    for pid, by_t in finalized:
        for t, view in by_t.items():
            if len(view.full_columns(t)) < view.n - f:
                full.append(f"board {t}: finalizer {pid} sees fewer than n-f full columns")
    for a in range(len(finalized)):
        for b in range(a + 1, len(finalized)):
            pid_a, ba = finalized[a]
            pid_b, bb = finalized[b]
            t_common = min(max(ba), max(bb))
            va, vb = ba[t_common], bb[t_common]
            # only a cell one of the two stores holds can differ: visit those
            # within va's rows and columns, in the order of a scan over them all
            held = {(t, i, r) for t, r, i in (*va.cells, *vb.cells) if 0 <= i < va.n and 1 <= r <= va.m}
            diffs = 0
            for t, i, r in sorted(held):
                x, y = va.value(t, r, i), vb.value(t, r, i)
                if x != y:
                    if x is not None and y is not None:
                        disagree.append(f"cell ({t},{r},{i}): conflicting values at {pid_a}/{pid_b}")
                    diffs += 1
            if diffs > f:
                disagree.append(f"views {pid_a}/{pid_b} disagree in {diffs} cells (> f={f})")
    return {"full-columns": full, "view-disagreement": disagree}


def check_broadcast(accept_logs):
    """Reliable-broadcast agreement and FIFO order over ``{pid: [(origin,
    seq, payload)]}``, the accept logs of the processes that count.  Returns
    the violations by verdict name, and the pids that accepted each
    instance ``(origin, seq)``."""
    fifo, agreement = [], []
    by_instance = {}
    for pid, log in accept_logs.items():
        seen = {}
        for origin, seq, payload in log:
            by_instance.setdefault((origin, seq), {}).setdefault(repr(payload), set()).add(pid)
            prev = seen.get(origin, 0)
            if seq != prev + 1:
                fifo.append(f"fifo: process {pid} accepted {origin}:{seq} after {prev}")
            seen[origin] = seq
    accepted_by = {}
    for (origin, seq), payloads in by_instance.items():
        if len(payloads) > 1:
            agreement.append(f"agreement: ({origin},{seq}) accepted with {len(payloads)} payloads")
        accepted_by[origin, seq] = set().union(*payloads.values())
    return {"broadcast-agreement": agreement, "broadcast-fifo": fifo}, accepted_by


def run_blackboard_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    handlers = [
        BlackboardProcess(pid, params, seed, boards=cfg.boards) for pid in range(params.n)
    ]
    world = WorldState(params, handlers, record_trace=cfg.trace)

    def done(active, steady):
        pool = steady if len(steady) >= params.n - params.f else active
        return bool(pool) and all(h.finished for h in pool)

    result = _run_mode(cfg, seed, world, done)[1]
    good = [h for h in handlers if h.pid not in world.corrupted]
    found = check_views({h.pid: h.board.views for h in good}, params.f)
    return _record(cfg, seed, world, {
        "finalizers": sum(1 for h in handlers if h.board.done_t >= cfg.boards),
        "events": result.events,
        "chain_depth": result.chain_depth,
        "stopped": result.stopped,
        "violations": found["full-columns"] + found["view-disagreement"],
    })


class AcceptCollector(_ProtocolProcess):
    """Bare reliable-broadcast endpoint used by the broadcast fuzz: no gate,
    two payloads of its own."""

    def _begin(self):
        for k in (1, 2):
            self.rb.broadcast(("data", self.pid, k))


def run_broadcast_fuzz_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    handlers = [AcceptCollector(pid, params) for pid in range(params.n)]
    world = WorldState(params, handlers, record_trace=cfg.trace)
    strategy, result = _run_mode(cfg, seed, world, None)
    good = [h for h in handlers if h.pid not in world.corrupted]
    found, accepted_by = check_broadcast({h.pid: h.rb.accepted_log for h in good})
    # totality is liveness, judged over the processes the schedule runs, and
    # only in a run that has settled
    live = {h.pid for h in good} - strategy.starved
    total = result.stopped == "quiescent" and all(live <= pids for pids in accepted_by.values())
    return _record(cfg, seed, world, {
        "instances": len(accepted_by),
        "events": result.events,
        "stopped": result.stopped,
        "total": total,
        "equivocations": sum(len(h.rb.equivocations) for h in good),
        "violations": found["broadcast-fifo"] + found["broadcast-agreement"],
    })


def _rounded(weights) -> list:
    """Weights as a record holds them, to 12 places."""
    return [round(w, 12) for w in weights]


def _abs_mean(series) -> float:
    """The mean |x| of a series, to 6 places; 0 for an empty one."""
    return round(sum(abs(x) for x in series) / max(1, len(series)), 6)


def run_game_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    report = run_game(GameConfig(
        params=params,
        adversary=cfg.adversary,
        epochs=cfg.epochs,
        seed=seed,
        zero_bad_weights=cfg.zero_bad_weights,
        record_series=cfg.record_series,
    ))
    epochs = report.epochs
    bad = sorted(report.bad)
    good = [i for i in range(params.n) if i not in report.bad]
    final = epochs[-1].weights_out
    invariant_ok = all(ep.inv_ok for ep in epochs)
    rec = {
        "seed": seed,
        "mode": cfg.mode,
        "bad": bad,
        "epochs_used": len(epochs),
        "agreement": report.agreement_reached,
        "ended_at": list(report.ended_at) if report.ended_at else None,
        "invariant_ok": invariant_ok,
        "weights_final": _rounded(final),
        "bad_weight_final": round(sum((final[i] for i in bad), 0.0), 12),
        "good_weight_final": round(sum(final[i] for i in good), 12),
        "unanimous_frac": round(
            sum(ep.unanimous_iters for ep in epochs) / max(1, sum(ep.iters_played for ep in epochs)),
            6,
        ),
        "violations": [] if invariant_ok else ["invariant-3.3"],
    }
    if cfg.record_series:
        rec["weights_per_epoch"] = [_rounded(ep.weights_out) for ep in epochs]
        rec["sg_abs_mean"] = [_abs_mean(ep.sg_series) for ep in epochs]
        rec["sb_abs_mean"] = [_abs_mean(ep.sb_series) for ep in epochs]
        rec["dev_max"] = [round(float(max(ep.dev)), 6) for ep in epochs]
        rec["corr_max"] = [round(float(ep.corr.max()) if ep.corr.size else 0.0, 6) for ep in epochs]
    if cfg.trace:
        rec["trace"] = [
            {"rec": "weights", "epoch": ep.epoch, "weights": _rounded(ep.weights_out), "bad": bad,
             "eps": cfg.eps, "f": cfg.f}
            for ep in epochs
        ]
    return rec


def run_simplified_once(cfg: ExperimentConfig, seed: int) -> dict:
    sg = cfg.simple_game
    result = run_simplified_game(sg, SIMPLE_ADVERSARIES[cfg.adversary](), seed)
    pair = detect_pair(result.values) if sg.T >= 2 else None
    return {
        "seed": seed,
        "mode": cfg.mode,
        "n": sg.n,
        "f": sg.f,
        "rounds": sg.T,
        "survived": result.survived,
        "stopped_at": result.stopped_at,
        "pair": list(pair) if pair else None,
        "contains_bad": bool(pair) and bool(set(pair) & result.bad),
        "bad": sorted(result.bad),
        "violations": [],
    }


# every mode: its runner, and the catalog its ``adversary`` names one of
MODES = {
    "bracha": (run_bracha_once, STRATEGIES),
    "blackboard": (run_blackboard_once, STRATEGIES),
    "broadcast-fuzz": (run_broadcast_fuzz_once, STRATEGIES),
    "game": (run_game_once, GAME_OPPONENTS),
    "simplified-game": (run_simplified_once, SIMPLE_ADVERSARIES),
}


def run_experiment(cfg: ExperimentConfig):
    """One run per seed, deterministic; seeds may execute in a worker pool
    (BF_THREADS) and are merged back in ascending seed order."""
    runner = MODES[cfg.mode][0]
    seeds = sorted(cfg.seeds)
    try:
        threads = int(os.environ.get("BF_THREADS", "1") or "1")
    except ValueError:
        raise ConfigInvalid(f"BF_THREADS must be an integer, got {os.environ['BF_THREADS']!r}") from None
    if threads > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(runner, [cfg] * len(seeds), seeds))
    return [runner(cfg, seed) for seed in seeds]


def header_record(cfg: ExperimentConfig) -> dict:
    return {"schema": SCHEMA, "rec": "header", "mode": cfg.mode, "n": cfg.n, "f": cfg.f,
            "adversary": cfg.adversary, "seeds": sorted(cfg.seeds)}


def emit_metrics(records, path, header=None):
    """Write newline-delimited records with a stable field order."""
    lines = []
    if header is not None:
        lines.append(json.dumps(header, separators=(",", ":")))
    for rec in records:
        lines.append(json.dumps(rec, separators=(",", ":")))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def parse_metrics(path):
    header = None
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("rec") == "header":
                header = obj
            else:
                records.append(obj)
    return header, records


# -- trace verification -------------------------------------------------------


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""
    first_violation: int = -1
    seed: int | None = None  # the run whose trace it judges, in a metrics file


class TraceInvalid(ValueError):
    """``verify_trace`` was handed something that is not a trace record; the
    message names the first such record."""


def _is(*types):
    return lambda v: isinstance(v, types)


def _list_of(ok, size=None):
    return lambda v: isinstance(v, list) and size in (None, len(v)) and all(map(ok, v))


_INT, _STR, _NUM = _is(int), _is(str), _is(int, float)
# rec kind -> the fields its verdicts read, each with the test of its JSON value
_TRACE_FIELDS = {
    "event": {"ordinal": _INT, "kind": _STR, "src": _INT, "dst": _INT, "digest": _STR},
    "input": {"pid": _INT, "value": _INT},
    "decide": {"pid": _INT, "iteration": _INT, "value": _INT},
    "accept": {"pid": _INT, "origin": _INT, "seq": _INT, "payload": _STR},
    "final": {"pid": _INT, "t": _INT, "lastbar": _list_of(_list_of(_INT, 2))},
    "cell": {"t": _INT, "r": _INT, "i": _INT, "value": _INT},
    "weights": {"epoch": _INT, "weights": _list_of(_NUM), "bad": _list_of(_INT), "eps": _NUM, "f": _INT},
    # a run record or the header: the f a verdict falls back on
    None: {"f": _is(int, type(None))},
    "header": {"f": _is(int, type(None))},
}


def _check_records(records, where="record"):
    """Raise TraceInvalid at the first entry of ``records`` that is not a
    trace record: not a dict, a known ``rec`` kind with a field its verdicts
    cannot read, or a ``final`` record out of line with the others (a
    last-vector of another length, or a board other than its process's next)."""
    if not isinstance(records, list):
        raise TraceInvalid(f"{where}s are not a list: {records!r:.80}")
    n, next_t = None, {}
    for k, rec in enumerate(records, 1):
        if not isinstance(rec, dict) or not isinstance(rec.get("rec"), (str, type(None))):
            raise TraceInvalid(f"{where} {k} is not a trace record: {rec!r:.80}")
        tests = _TRACE_FIELDS.get(rec.get("rec"), {})
        bad = next((name for name, ok in tests.items() if not ok(rec.get(name))), None)
        if bad is None and rec.get("rec") == "final":
            n = len(rec["lastbar"]) if n is None else n
            if len(rec["lastbar"]) != n:
                bad = "lastbar"
            elif rec["t"] != next_t.get(rec["pid"], 1):
                bad = "t"
            next_t[rec["pid"]] = rec["t"] + 1
        if bad is not None:
            raise TraceInvalid(f"{where} {k} is not a trace record (field {bad!r}): {rec!r:.80}")


def verify_trace(records, f=None) -> list:
    """Verdicts on an exported trace: a bare bundle of trace records, or a
    metrics file whose run records carry one under ``trace`` (as ``run
    --trace --out`` writes), each verdict then labelled with its run's seed.
    ``f`` comes from the argument, else from the run record (a sweep tags it
    there), else from the header; a verdict that needs an unknown f is
    omitted.  Raises TraceInvalid, naming the record, for one that is not a
    trace record."""
    _check_records(records)
    for k, run in enumerate(records, 1):
        if "trace" in run:
            _check_records(run["trace"], f"record {k}, trace record")
    header = next((r for r in records if r.get("rec") == "header"), {})
    runs = [r for r in records if "trace" in r]
    if not runs:
        return _verify_bundle(records, header.get("f") if f is None else f)
    return [
        replace(v, seed=run.get("seed"))
        for run in runs
        for v in _verify_bundle(run["trace"], run.get("f", header.get("f")) if f is None else f)
    ]


def _named(found):
    return [Verdict(name, not v, detail=v[0] if v else "") for name, v in found.items()]


def _verify_bundle(records, f):
    """The checks only a trace allows (no forged delivery, the fault budget,
    the weight-loss invariant), then the runners' own checkers on the inputs
    rebuilt from the trace, over every process the trace does not show
    corrupted."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.get("rec"), []).append(r)
    events, accepts = by_kind.get("event", []), by_kind.get("accept", [])
    decides, finals = by_kind.get("decide", []), by_kind.get("final", [])
    corrupted = {ev["src"] for ev in events if ev["kind"] == "corrupt"}
    out = []

    if events:
        sends = {}
        forged = -1  # ordinal of the first delivery of a message never sent
        over_budget = -1  # ordinal of the first corruption beyond f
        corrupts = 0
        for ev in events:
            key = (ev["src"], ev["dst"], ev["digest"])
            if ev["kind"] == "send":
                sends[key] = sends.get(key, 0) + 1
            elif ev["kind"] == "deliver" and forged < 0:
                if sends.get(key, 0) <= 0:
                    forged = ev["ordinal"]
                else:
                    sends[key] -= 1
            elif ev["kind"] == "corrupt":
                corrupts += 1
                if f is not None and corrupts > f and over_budget < 0:
                    over_budget = ev["ordinal"]
        out.append(Verdict("no-forgery", forged < 0, first_violation=forged))
        if f is not None:
            out.append(Verdict("fault-budget", over_budget < 0,
                               detail=f"{corrupts} corruptions, f={f}", first_violation=over_budget))

    weight_recs = by_kind.get("weights", [])
    if weight_recs:
        ok = True
        first = -1
        for r in weight_recs:
            good_loss, bound = weight_loss(r["weights"], set(r["bad"]), float(r["eps"]), float(r["f"]))
            if good_loss > bound + 1e-9:  # trace weights are rounded to 12 places
                ok = False
                first = r["epoch"]
                break
        out.append(Verdict("weight-loss-invariant", ok, first_violation=first))

    if accepts:
        logs = {}
        for r in accepts:
            if r["pid"] not in corrupted:
                logs.setdefault(r["pid"], []).append((r["origin"], r["seq"], r["payload"]))
        out += _named(check_broadcast(logs)[0])

    if decides:
        inputs = {r["pid"]: r["value"] for r in by_kind.get("input", [])}
        good = sorted((inputs.keys() | {r["pid"] for r in decides}) - corrupted)
        decisions = {r["pid"]: DecisionRecord(r["pid"], r["iteration"], r["value"]) for r in decides}
        out += _named(check_agreement(inputs, decisions, good))

    if finals and f is not None:
        store = {(r["t"], r["r"], r["i"]): r["value"] for r in by_kind.get("cell", [])}
        m = max((r for _t, r, _i in store), default=0)
        views = {}
        for r in finals:
            if r["pid"] not in corrupted:
                bar = tuple(tuple(p) for p in r["lastbar"])
                views.setdefault(r["pid"], {})[r["t"]] = FinalView(r["t"], bar, store, len(bar), m)
        out += _named(check_views(views, f))
    return out
