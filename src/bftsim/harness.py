"""Experiment runner: seeded batch execution, post-hoc verification, metrics.

Metrics files are newline-delimited JSON with a schema-versioned header line
followed by one record per run in ascending seed order; identical
configurations reproduce byte-identical files.
"""
from __future__ import annotations

import json
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .adversary import make_strategy
from .agreement import BlackboardProcess, BrachaProcess, DecisionRecord, check_agreement
from .broadcast import RBNode
from .game import GAME_OPPONENTS, GameConfig, run_game, weight_loss
from .params import ConfigInvalid, ProtocolParams
from .sim import WorldState, run
from .stats import SimpleGameConfig, detect_pair, run_simplified_game
from . import adversary as _adversary

SCHEMA = "bftsim-metrics-1"

MODES = ("bracha", "blackboard", "broadcast-fuzz", "game", "simplified-game")
COINS = ("local", "blackboard")
INPUTS = ("mixed", "random", "unanimous+1", "unanimous-1")
STOP_FORMS = ("max-events", "epoch-limit", "boards")  # each as "form:K"

# The stop predicates rebuild their lists of live handlers only when the
# corruptions or a strategy's starved or slowed set change.  Corruptions are
# never undone, so their count tells, and strategies replace those sets
# instead of changing them in place.
_NO_PIDS = frozenset()


def adversary_catalog(mode):
    """The adversary catalog a mode draws its ``adversary`` name from."""
    if mode == "game":
        return GAME_OPPONENTS
    if mode == "simplified-game":
        return _adversary.SIMPLE_ADVERSARIES
    return _adversary.STRATEGIES


def parse_stop(stop):
    """``(form, K)`` for a ``form:K`` stop spec, or ``("decided-all", None)``."""
    stop = stop or "decided-all"
    if stop == "decided-all":
        return stop, None
    form, _, k = stop.partition(":")
    try:
        if form in STOP_FORMS:
            return form, int(k)
    except ValueError:
        pass
    raise ConfigInvalid(f"unknown stop condition {stop!r}; forms: decided-all, {':K, '.join(STOP_FORMS)}:K")


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
    adversary_args: dict = field(default_factory=dict)
    seeds: list = field(default_factory=lambda: [0])
    stop: str = "decided-all"
    max_events: int = 2_000_000
    boards: int = 2
    epochs: int = 1
    inputs: str = "mixed"
    max_iterations: int = 12
    out: str | None = None
    trace: bool = False
    zero_bad_weights: bool = False
    record_series: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigInvalid(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigInvalid("at least one seed required")
        for name, value, known in (("coin", self.coin, COINS), ("inputs", self.inputs, INPUTS),
                                   ("adversary", self.adversary, adversary_catalog(self.mode))):
            if value not in known:
                raise ConfigInvalid(f"{self.mode} {name} must be one of {sorted(known)}, got {value!r}")
        if self.epochs < 1 or self.boards < 1:
            raise ConfigInvalid(f"need epochs >= 1 and boards >= 1, got {self.epochs} and {self.boards}")
        parse_stop(self.stop)
        weighted = (self.mode == "bracha" and self.coin == "blackboard") or self.mode == "game"
        if weighted and self.f > 0 and 4 * self.f >= self.n:
            raise ConfigInvalid(f"weighted-coin runs need f < n/4 (n={self.n}, f={self.f})")

    def params(self) -> ProtocolParams:
        return ProtocolParams(
            n=self.n,
            f=self.f,
            eps=self.eps,
            m=self.m,
            T=self.T,
            c=self.c,
            k_max=self.k_max,
            fairness_window=self.fairness_window,
        )


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
    """String-typed config values (from files / CLI) to their field types."""
    typed = {}
    fields = ExperimentConfig.__dataclass_fields__
    for key, value in cfg_kwargs.items():
        if key not in fields:
            raise ConfigInvalid(f"unknown config key {key!r}")
        if not isinstance(value, str):
            typed[key] = value
            continue
        kind = fields[key].type
        if key == "seeds":
            typed[key] = parse_seed_spec(value)
        elif key == "adversary_args":
            typed[key] = dict(kv.split("=", 1) for kv in value.split(",") if kv)
        elif kind in ("int", int):
            typed[key] = int(value)
        elif kind in ("float", float):
            typed[key] = float(value)
        elif kind in ("bool", bool):
            typed[key] = value.lower() in ("1", "true", "yes")
        else:
            typed[key] = value
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


def make_config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(**coerce_config(kwargs))


# -- single-run drivers -----------------------------------------------------


def apply_stop_condition(cfg: ExperimentConfig):
    """Translate the declarative stop spec into run bounds.

    Forms: ``decided-all`` (default), ``max-events:N``, ``epoch-limit:K``
    (at most K epochs' worth of iterations), ``boards:K`` (blackboard mode).
    """
    form, k = parse_stop(cfg.stop)
    max_events, max_iterations, boards = cfg.max_events, cfg.max_iterations, cfg.boards
    if form == "max-events":
        max_events = k
    elif form == "epoch-limit":
        max_iterations = k * (cfg.T if cfg.T else cfg.params().T)
    elif form == "boards":
        boards = k
    return max_events, max_iterations, boards


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
    strategy = make_strategy(cfg.adversary, seed, **cfg.adversary_args)
    max_events, max_iterations, _ = apply_stop_condition(cfg)
    starved = _NO_PIDS
    key = active = None

    def stop(w):
        nonlocal starved, key, active
        starved = getattr(strategy, "starved", _NO_PIDS)
        if key != (len(w.corrupted), starved):  # see _NO_PIDS
            key = (len(w.corrupted), starved)
            active = [h for h in handlers if h.pid not in w.corrupted and h.pid not in starved]
        if active and all(h.decided is not None for h in active):
            return True
        return any(h.iteration > max_iterations for h in active)

    result = run(world, strategy, stop, max_events)
    good = [pid for pid in range(params.n) if pid not in world.corrupted and pid not in starved]
    decisions = {
        h.pid: DecisionRecord(h.pid, h.decided_iteration, h.decided, h.decided_ordinal)
        for h in handlers
        if h.decided is not None and h.pid in good
    }
    finished = bool(good) and all(pid in decisions for pid in good)
    verdict = check_agreement(inputs, decisions, good, finished=finished)
    rec = {
        "seed": seed,
        "mode": cfg.mode,
        "decided": finished,
        "decide_iter_min": min((d.iteration for d in decisions.values()), default=-1),
        "decide_iter_max": max((d.iteration for d in decisions.values()), default=-1),
        "iterations": max((h.iteration for h in handlers), default=0),
        "events": result.events,
        "chain_depth": result.chain_depth,
        "stopped": result.stopped,
        "agreement_ok": verdict.agreement_ok,
        "validity_ok": verdict.validity_ok,
        "lag_ok": verdict.lag_ok,
        "violations": [v for v in verdict.violations if not v.startswith("non-termination")],
        "corrupted": sorted(world.corrupted),
        "starved": sorted(starved),
    }
    if cfg.trace:
        rec["trace"] = _trace_records(world, handlers, inputs, decisions)
    return rec


def _trace_records(world, handlers, inputs=None, decisions=None):
    recs = []
    for ordinal, kind, a, b, digest in world.trace:
        recs.append({"rec": "event", "ordinal": ordinal, "kind": kind, "src": a, "dst": b, "digest": digest})
    if inputs is not None:
        for pid, v in enumerate(inputs):
            recs.append({"rec": "input", "pid": pid, "value": v})
    if decisions:
        for d in decisions.values():
            recs.append(
                {
                    "rec": "decide",
                    "pid": d.pid,
                    "iteration": d.iteration,
                    "value": d.value,
                    "event_ordinal": d.event_ordinal,
                }
            )
    for h in handlers:
        rb = getattr(h, "rb", None)
        if rb is None:
            continue
        for origin, seq, payload in rb.accepted_log:
            recs.append(
                {"rec": "accept", "pid": h.pid, "origin": origin, "seq": seq, "payload": repr(payload)}
            )
        board = getattr(h, "board", None)
        if board is not None:
            for t, bar in sorted(board.lastbar.items()):
                recs.append({"rec": "final", "pid": h.pid, "t": t, "lastbar": [list(p) for p in bar]})
    if handlers:
        board = getattr(handlers[0], "board", None)
        if board is not None:
            seen = {}
            for h in handlers:
                rb = getattr(h, "rb", None)
                if getattr(h, "board", None) is None or rb is None:
                    continue
                for idx, (origin, _seq, payload) in enumerate(rb.accepted_log):
                    if payload and payload[0] == "write":
                        _, t, r, v = payload
                        seen.setdefault((t, r, origin), (v, idx))
            for (t, r, i), (v, idx) in sorted(seen.items()):
                if r >= 1:
                    recs.append(
                        {
                            "rec": "cell",
                            "t": t,
                            "r": r,
                            "i": i,
                            "value": v if not isinstance(v, tuple) else repr(v),
                            "accept_ordinal": idx,
                        }
                    )
    return recs


def check_views(handlers, params, *, boards=None) -> list:
    """Pairwise finalized-view checks: bounded disagreement with one blank
    side, plus the full-column count per finalizer."""
    violations = []
    finalized = [(h.pid, h.board) for h in handlers if h.board.done_t >= 1]
    for pid, board in finalized:
        for t in range(1, board.done_t + 1):
            view = board.views[t]
            if len(view.full_columns(t)) < params.n - params.f:
                violations.append(f"board {t}: finalizer {pid} sees fewer than n-f full columns")
    for a in range(len(finalized)):
        for b in range(a + 1, len(finalized)):
            pid_a, ba = finalized[a]
            pid_b, bb = finalized[b]
            t_common = min(ba.done_t, bb.done_t)
            va, vb = ba.views[t_common], bb.views[t_common]
            diffs = 0
            for t in range(1, t_common + 1):
                for i in range(params.n):
                    for r in range(1, params.m + 1):
                        x, y = va.value(t, r, i), vb.value(t, r, i)
                        if x != y:
                            if x is not None and y is not None:
                                violations.append(
                                    f"cell ({t},{r},{i}): conflicting values at {pid_a}/{pid_b}"
                                )
                            diffs += 1
            if diffs > params.f:
                violations.append(
                    f"views {pid_a}/{pid_b} disagree in {diffs} cells (> f={params.f})"
                )
    return violations


def run_blackboard_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    max_events, _, boards = apply_stop_condition(cfg)
    handlers = [
        BlackboardProcess(pid, params, seed, boards=boards) for pid in range(params.n)
    ]
    world = WorldState(params, handlers, record_trace=cfg.trace)
    strategy = make_strategy(cfg.adversary, seed, **cfg.adversary_args)

    key = pool = None

    def stop(w):
        nonlocal key, pool
        starved = getattr(strategy, "starved", _NO_PIDS)
        slowed = getattr(strategy, "slowed", _NO_PIDS)
        if key != (len(w.corrupted), starved, slowed):  # see _NO_PIDS
            key = (len(w.corrupted), starved, slowed)
            active = [h for h in handlers if h.pid not in w.corrupted and h.pid not in starved]
            steady = [h for h in active if h.pid not in slowed]
            pool = steady if len(steady) >= params.n - params.f else active
        return bool(pool) and all(h.finished for h in pool)

    result = run(world, strategy, stop, max_events)
    violations = check_views(handlers, params)
    finalizers = sum(1 for h in handlers if h.board.done_t >= boards)
    rec = {
        "seed": seed,
        "mode": cfg.mode,
        "finalizers": finalizers,
        "events": result.events,
        "chain_depth": result.chain_depth,
        "stopped": result.stopped,
        "violations": violations,
    }
    if cfg.trace:
        rec["trace"] = _trace_records(world, handlers)
    return rec


class AcceptCollector:
    """Bare reliable-broadcast endpoint used by the broadcast fuzz."""

    def __init__(self, pid, params, payload_count=2):
        self.pid = pid
        self.n = params.n
        self.rb = RBNode(pid, params)
        self.payload_count = payload_count
        self.started_flag = False

    def on_start(self):
        self.started_flag = True
        for k in range(1, self.payload_count + 1):
            self.rb.broadcast(("data", self.pid, k))
        return self._flush()

    def on_compute(self, inbox):
        for src, msg in inbox:
            kind, origin, seq, payload = msg
            self.rb.handle(src, kind, origin, seq, payload)
        return self._flush()

    def _flush(self):
        self.rb.pump()
        out = []
        for w in self.rb.take_wire():
            for dst in range(self.n):
                if dst != self.pid:
                    out.append((dst, w))
        return out


def run_broadcast_fuzz_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    handlers = [AcceptCollector(pid, params) for pid in range(params.n)]
    args = dict(cfg.adversary_args)
    args.setdefault("target", seed % params.n)
    strategy = make_strategy(cfg.adversary, seed, **args)
    world = WorldState(params, handlers, record_trace=cfg.trace)
    result = run(world, strategy, None, cfg.max_events)
    good = [h for h in handlers if h.pid not in world.corrupted]
    violations = []
    by_instance = {}
    for h in good:
        seen = {}
        for origin, seq, payload in h.rb.accepted_log:
            by_instance.setdefault((origin, seq), {}).setdefault(repr(payload), set()).add(h.pid)
            prev = seen.get(origin, 0)
            if seq != prev + 1:
                violations.append(f"fifo: process {h.pid} accepted {origin}:{seq} after {prev}")
            seen[origin] = seq
    for (origin, seq), payloads in by_instance.items():
        if len(payloads) > 1:
            violations.append(f"agreement: ({origin},{seq}) accepted with {len(payloads)} payloads")
        accepted_by = set().union(*payloads.values())
        if result.stopped == "quiescent" and len(accepted_by) != len(good):
            violations.append(f"totality: ({origin},{seq}) accepted by {len(accepted_by)}/{len(good)}")
    return {
        "seed": seed,
        "mode": cfg.mode,
        "instances": len(by_instance),
        "events": result.events,
        "stopped": result.stopped,
        "equivocations": sum(len(h.rb.equivocations) for h in good),
        "violations": violations,
    }


def run_game_once(cfg: ExperimentConfig, seed: int) -> dict:
    params = cfg.params()
    gc = GameConfig(
        params=params,
        adversary=cfg.adversary,
        adversary_args=cfg.adversary_args,
        epochs=cfg.epochs,
        seed=seed,
        zero_bad_weights=cfg.zero_bad_weights,
        record_series=cfg.record_series,
    )
    report = run_game(gc)
    bad = sorted(report.bad)
    good = [i for i in range(params.n) if i not in report.bad]
    rec = {
        "seed": seed,
        "mode": cfg.mode,
        "bad": bad,
        "epochs_used": len(report.epochs),
        "agreement": report.agreement_reached,
        "ended_at": list(report.ended_at) if report.ended_at else None,
        "invariant_ok": all(ep.inv_ok for ep in report.epochs),
        "weights_final": [round(w, 12) for w in report.epochs[-1].weights_out],
        "bad_weight_final": round(sum(report.epochs[-1].weights_out[i] for i in bad), 12),
        "good_weight_final": round(sum(report.epochs[-1].weights_out[i] for i in good), 12),
        "unanimous_frac": round(
            sum(ep.unanimous_iters for ep in report.epochs)
            / max(1, sum(ep.iters_played for ep in report.epochs)),
            6,
        ),
        "violations": [] if all(ep.inv_ok for ep in report.epochs) else ["invariant-3.3"],
    }
    if cfg.record_series:
        rec["weights_per_epoch"] = [[round(w, 12) for w in ep.weights_out] for ep in report.epochs]
        rec["sg_abs_mean"] = [
            round(sum(abs(x) for x in ep.sg_series) / max(1, len(ep.sg_series)), 6)
            for ep in report.epochs
        ]
        rec["sb_abs_mean"] = [
            round(sum(abs(x) for x in ep.sb_series) / max(1, len(ep.sb_series)), 6)
            for ep in report.epochs
        ]
        rec["dev_max"] = [round(float(max(ep.dev)), 6) for ep in report.epochs]
        rec["corr_max"] = [
            round(float(ep.corr.max()) if ep.corr.size else 0.0, 6) for ep in report.epochs
        ]
    if cfg.trace:
        rec["trace"] = [
            {
                "rec": "weights",
                "epoch": ep.epoch,
                "weights": [round(w, 12) for w in ep.weights_out],
                "bad": bad,
                "eps": cfg.eps,
                "f": cfg.f,
            }
            for ep in report.epochs
        ]
    return rec


def run_simplified_once(cfg: ExperimentConfig, seed: int) -> dict:
    sg = SimpleGameConfig(n=cfg.n, T=cfg.T if cfg.T else 1000, eps=cfg.eps)
    adv_cls = _adversary.SIMPLE_ADVERSARIES[cfg.adversary]
    stop_on_loss = cfg.adversary_args.get("stop_on_loss", "false") == "true"
    result = run_simplified_game(sg, adv_cls(), seed, stop_on_loss=stop_on_loss)
    pair = detect_pair(result.values) if result.rounds_played >= 2 else None
    contains_bad = bool(pair) and bool(set(pair) & result.bad)
    return {
        "seed": seed,
        "mode": cfg.mode,
        "n": sg.n,
        "f": sg.f,
        "rounds": result.rounds_played,
        "survived": result.survived,
        "stopped_at": result.stopped_at,
        "pair": list(pair) if pair else None,
        "contains_bad": contains_bad,
        "bad": sorted(result.bad),
        "violations": [],
    }


_RUNNERS = {
    "bracha": run_bracha_once,
    "blackboard": run_blackboard_once,
    "broadcast-fuzz": run_broadcast_fuzz_once,
    "game": run_game_once,
    "simplified-game": run_simplified_once,
}


def _run_seed(cfg_dict, seed):
    cfg = ExperimentConfig(**cfg_dict)
    return _RUNNERS[cfg.mode](cfg, seed)


def run_experiment(cfg: ExperimentConfig):
    """One run per seed, deterministic; seeds may execute in a worker pool
    (BF_THREADS) and are merged back in ascending seed order."""
    seeds = sorted(cfg.seeds)
    threads = int(os.environ.get("BF_THREADS", "1") or "1")
    if threads > 1 and len(seeds) > 1:
        cfg_dict = asdict(cfg)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_seed, [cfg_dict] * len(seeds), seeds))
    else:
        runner = _RUNNERS[cfg.mode]
        records = [runner(cfg, seed) for seed in seeds]
    records.sort(key=lambda r: r["seed"])
    return records


def header_record(cfg: ExperimentConfig) -> dict:
    head = {"schema": SCHEMA, "rec": "header", "mode": cfg.mode, "n": cfg.n, "f": cfg.f}
    head["adversary"] = cfg.adversary
    head["seeds"] = list(sorted(cfg.seeds))
    return head


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


def verify_trace(records, f=None) -> list:
    """Run every invariant checkable from an exported trace bundle; returns a
    list of Verdicts (skipped invariants are omitted)."""
    header = next((r for r in records if r.get("rec") == "header"), None)
    if f is None and header is not None:
        f = header.get("f")
    events = [r for r in records if r.get("rec") == "event"]
    accepts = [r for r in records if r.get("rec") == "accept"]
    decides = [r for r in records if r.get("rec") == "decide"]
    inputs = {r["pid"]: r["value"] for r in records if r.get("rec") == "input"}
    cells = [r for r in records if r.get("rec") == "cell"]
    finals = [r for r in records if r.get("rec") == "final"]
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

    if accepts:
        payloads = {}
        fifo_ok = True
        seen = {}
        for r in accepts:
            payloads.setdefault((r["origin"], r["seq"]), set()).add(r["payload"])
            key = (r["pid"], r["origin"])
            if r["seq"] != seen.get(key, 0) + 1:
                fifo_ok = False
            seen[key] = r["seq"]
        agree_ok = all(len(v) == 1 for v in payloads.values())
        out.append(Verdict("broadcast-agreement", agree_ok))
        out.append(Verdict("broadcast-fifo", fifo_ok))

    if decides:
        values = {r["value"] for r in decides}
        out.append(Verdict("bracha-agreement", len(values) <= 1))
        if inputs and len(set(inputs.values())) == 1:
            want = next(iter(set(inputs.values())))
            out.append(Verdict("bracha-validity", values <= {want}))
        its = [r["iteration"] for r in decides]
        if its:
            out.append(Verdict("decision-lag", max(its) - min(its) <= 1))

    weight_recs = [r for r in records if r.get("rec") == "weights"]
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

    if cells and finals:
        store = {(r["t"], r["r"], r["i"]): r["value"] for r in cells}
        bars = {}
        for r in finals:
            bars.setdefault(r["pid"], {})[r["t"]] = [tuple(p) for p in r["lastbar"]]
        pids = sorted(bars)
        worst = 0
        for a in range(len(pids)):
            for b in range(a + 1, len(pids)):
                ta, tb = max(bars[pids[a]]), max(bars[pids[b]])
                t_common = min(ta, tb)
                va, vb = bars[pids[a]][t_common], bars[pids[b]][t_common]
                diffs = 0
                for (t, r, i), _v in store.items():
                    ina = (t, r) <= va[i]
                    inb = (t, r) <= vb[i]
                    if ina != inb:
                        diffs += 1
                worst = max(worst, diffs)
        ok = True if f is None else worst <= f
        out.append(Verdict("view-disagreement", ok, detail=f"max {worst} cells"))
    return out
