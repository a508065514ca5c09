import json
import os
import subprocess
import sys

import pytest

from bftsim.harness import (
    emit_metrics,
    header_record,
    load_config_file,
    make_config,
    parse_metrics,
    parse_seed_spec,
    run_experiment,
    verify_trace,
)
from bftsim.params import ConfigInvalid


def test_seed_spec_forms():
    assert parse_seed_spec("5") == [5]
    assert parse_seed_spec("1,2,9") == [1, 2, 9]
    assert parse_seed_spec("0:4") == [0, 1, 2, 3]
    assert parse_seed_spec([3, 4]) == [3, 4]


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        make_config(mode="nonsense")
    with pytest.raises(ConfigInvalid):
        make_config(mode="bracha", n=8, f=2, coin="blackboard")  # needs f < n/4
    with pytest.raises(ConfigInvalid):
        make_config(mode="bracha", unknown_key=1)
    cfg = make_config(mode="bracha", n="9", f="2", seeds="0:3", T="16", m="4")
    assert cfg.n == 9 and cfg.seeds == [0, 1, 2]


@pytest.mark.parametrize("bad", [
    dict(inputs="zzz"), dict(inputs="unanimous"), dict(coin="shared"), dict(stop="bogus"),
    dict(stop="boards:two"), dict(stop="max-events"), dict(adversary="nonsense"),
    dict(mode="game", adversary="fuzz"), dict(mode="simplified-game", f=0, adversary="colluding"),
    dict(mode="game", epochs=0), dict(mode="blackboard", boards=0),
], ids=repr)
def test_config_rejects_unknown_names_and_empty_runs(bad):
    # caught when the config is made, not as a KeyError or IndexError mid-run
    with pytest.raises(ConfigInvalid):
        make_config(**{"mode": "bracha", "n": 9, "f": 2, **bad})


def test_config_accepts_every_catalogued_name():
    from bftsim.harness import COINS, INPUTS, MODES, adversary_catalog

    for mode in MODES:
        for name in adversary_catalog(mode):
            make_config(mode=mode, n=9, f=2, adversary=name)
    for coin in COINS:
        for inputs in INPUTS:
            make_config(mode="bracha", n=9, f=2, coin=coin, inputs=inputs)
    for stop in ("decided-all", "max-events:10", "epoch-limit:2", "boards:3"):
        make_config(mode="bracha", stop=stop)


def test_config_file_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode=game\nn=9\nf=2\nT=64\nm=8\nseeds=0:2\nadversary=counteract\n# c\n")
    kwargs = load_config_file(path)
    kwargs["n"] = "9"
    cfg = make_config(**kwargs)
    assert cfg.mode == "game" and cfg.T == 64 and cfg.seeds == [0, 1]


def test_run_experiment_deterministic_metrics(tmp_path):
    cfg = make_config(mode="bracha", n=5, f=1, m=4, T=16, coin="local",
                      adversary="honest-random", seeds=[0, 1, 2], inputs="unanimous+1")
    paths = []
    for k in range(2):
        records = run_experiment(cfg)
        p = tmp_path / f"m{k}.ndjson"
        emit_metrics(records, p, header=header_record(cfg))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header, records = parse_metrics(paths[0])
    assert header["schema"] == "bftsim-metrics-1"
    assert [r["seed"] for r in records] == [0, 1, 2]
    assert all(not r["violations"] for r in records)


def test_metrics_roundtrip_exact(tmp_path):
    records = [{"seed": 0, "x": 0.1234567890123, "v": [1, -1], "s": "abc"}]
    p = tmp_path / "r.ndjson"
    emit_metrics(records, p)
    _, back = parse_metrics(p)
    assert back == records


def test_empty_run_list_header_only(tmp_path):
    p = tmp_path / "empty.ndjson"
    cfg = make_config(mode="game", n=9, f=2, T=16, m=4, seeds=[0])
    emit_metrics([], p, header=header_record(cfg))
    header, records = parse_metrics(p)
    assert header is not None and records == []


def test_worker_pool_matches_serial(tmp_path):
    cfg = make_config(mode="game", n=9, f=2, T=32, m=8, seeds=[0, 1, 2, 3],
                      adversary="counteract", epochs=2)
    serial = run_experiment(cfg)
    os.environ["BF_THREADS"] = "3"
    try:
        pooled = run_experiment(cfg)
    finally:
        del os.environ["BF_THREADS"]
    assert serial == pooled


def test_trace_bundle_verifies(tmp_path):
    cfg = make_config(mode="bracha", n=5, f=1, m=4, T=16, coin="blackboard",
                      adversary="honest-random", seeds=[4], inputs="mixed",
                      trace=True, max_iterations=8, max_events=3_000_000)
    rec = run_experiment(cfg)[0]
    assert rec["trace"]
    verdicts = verify_trace([{"rec": "header", "schema": "x", "f": 1}] + rec["trace"])
    names = {v.name for v in verdicts}
    assert {"no-forgery", "broadcast-agreement", "broadcast-fifo"} <= names
    assert all(v.ok for v in verdicts), [(v.name, v.detail) for v in verdicts]


def test_verify_trace_flags_injected_fault():
    records = [
        {"rec": "accept", "pid": 0, "origin": 2, "seq": 1, "payload": "a"},
        {"rec": "accept", "pid": 1, "origin": 2, "seq": 1, "payload": "b"},
    ]
    verdicts = verify_trace(records)
    agree = next(v for v in verdicts if v.name == "broadcast-agreement")
    assert not agree.ok


def test_verify_trace_fault_budget():
    records = [
        {"rec": "event", "ordinal": k, "kind": "corrupt", "src": k, "dst": -1, "digest": ""}
        for k in (3, 5, 8)
    ]
    budget = next(v for v in verify_trace(records, f=1) if v.name == "fault-budget")
    assert not budget.ok and budget.first_violation == 5
    budget = next(v for v in verify_trace(records, f=3) if v.name == "fault-budget")
    assert budget.ok and budget.first_violation == -1
    # with f unknown the budget cannot be judged, so the verdict is omitted
    assert "fault-budget" not in {v.name for v in verify_trace(records)}


def test_verify_trace_weight_loss_violation_detection():
    # hand-crafted decisions disagreeing -> bracha-agreement fails
    records = [
        {"rec": "decide", "pid": 0, "iteration": 1, "value": 1},
        {"rec": "decide", "pid": 1, "iteration": 1, "value": -1},
    ]
    verdicts = verify_trace(records)
    bra = next(v for v in verdicts if v.name == "bracha-agreement")
    assert not bra.ok


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bftsim.cli", *args],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def test_cli_run_and_exit_status(tmp_path):
    out = tmp_path / "metrics.ndjson"
    res = _cli(
        "run", "--mode", "bracha", "--n", "5", "--f", "1", "--m", "4", "--T", "16",
        "--coin", "local", "--adversary", "honest-random", "--seeds", "0:3",
        "--inputs", "unanimous+1", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert out.exists()
    header, records = parse_metrics(out)
    assert len(records) == 3


def test_cli_simplified_game():
    res = _cli(
        "simplified-game", "--n", "12", "--T", "400", "--eps", "1.0",
        "--adversary", "simple-colluding", "--seeds", "0:2",
    )
    assert res.returncode == 0, res.stderr
    lines = [json.loads(l) for l in res.stdout.strip().splitlines() if l.startswith("{")]
    assert len(lines) == 2
    assert all("contains_bad" in l for l in lines)


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.ndjson"
    res = _cli(
        "sweep", "--mode", "bracha", "--f", "1", "--m", "4", "--T", "16",
        "--coin", "local", "--seeds", "0:2", "--inputs", "unanimous+1",
        "--grid", "n=5,6", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    header, records = parse_metrics(out)
    assert len(records) == 4  # 2 n-values x 2 seeds
    assert {r["n"] for r in records} == {5, 6}
    assert out.read_text().splitlines()[0] == json.dumps(header, separators=(",", ":"))
    assert header == {"schema": "bftsim-metrics-1", "rec": "header", "mode": "bracha", "f": 1,
                      "adversary": "honest-random", "seeds": [0, 1], "grid": {"n": [5, 6]}}


def _fresh_stop(mode, params, handlers, w, strategy, max_iterations):
    """The stop predicates as a scan of every handler on every poll."""
    starved = getattr(strategy, "starved", frozenset())
    active = [h for h in handlers if h.pid not in w.corrupted and h.pid not in starved]
    if mode == "bracha":
        if active and all(h.decided is not None for h in active):
            return True
        return any(h.iteration > max_iterations for h in active)
    slowed = getattr(strategy, "slowed", frozenset())
    steady = [h for h in active if h.pid not in slowed]
    pool = steady if len(steady) >= params.n - params.f else active
    return bool(pool) and all(h.finished for h in pool)


@pytest.mark.parametrize("mode, adversary", [
    ("blackboard", "fuzz"), ("blackboard", "crash-stop"), ("bracha", "crash-stop"),
    ("bracha", "starve-subset"), ("bracha", "fuzz"),
])
def test_stop_predicate_matches_fresh_scan(monkeypatch, mode, adversary):
    # the predicates keep their handler lists between polls; every poll must
    # answer as a fresh scan would, across corruptions and the fuzz
    # strategy's changing slowed set
    import bftsim.harness as harness

    real_run = harness.run
    answers = []

    def run(world, strategy, stop, max_events):
        def polled(w):
            got = stop(w)
            answers.append((got, _fresh_stop(mode, w.params, w.handlers, w, strategy, 50)))
            return got

        return real_run(world, strategy, polled, max_events)

    monkeypatch.setattr(harness, "run", run)
    if mode == "bracha":
        cfg = make_config(mode="bracha", n=9, f=2, m=4, T=16, coin="local", adversary=adversary,
                          seeds=[3], inputs="mixed", max_iterations=50)
    else:
        cfg = make_config(mode="blackboard", n=8, f=2, m=8, T=16, boards=2, adversary=adversary,
                          seeds=[3])
    run_experiment(cfg)
    assert len(answers) > 20 and answers[-1][0]
    assert all(got == want for got, want in answers)


def test_cli_verify(tmp_path):
    trace = tmp_path / "trace.ndjson"
    cfg = make_config(mode="bracha", n=4, f=1, m=4, T=16, coin="local",
                      adversary="honest-random", seeds=[0], inputs="unanimous+1", trace=True)
    rec = run_experiment(cfg)[0]
    with open(trace, "w") as fh:
        for r in rec["trace"]:
            fh.write(json.dumps(r) + "\n")
    res = _cli("verify", str(trace), "--f", "1")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS no-forgery" in res.stdout


def test_golden_trace_digest():
    # frozen determinism anchor: the full exported trace of one seeded
    # blackboard-coin run, byte for byte
    import hashlib

    cfg = make_config(mode="bracha", n=5, f=1, m=4, T=16, coin="blackboard",
                      adversary="honest-random", seeds=[2], inputs="mixed",
                      trace=True, max_iterations=6, max_events=2_000_000)
    rec = run_experiment(cfg)[0]
    lines = "\n".join(json.dumps(r, separators=(",", ":")) for r in rec["trace"])
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "e9ccb4ca5625e64d378c49b76a2c2e8a43958f5dda3eb936ca99a92a2ca5aaa2"


def _trace_digest(cfg):
    import hashlib

    rec = run_experiment(cfg)[0]
    lines = "\n".join(json.dumps(r, separators=(",", ":")) for r in rec["trace"])
    return hashlib.sha256(lines.encode()).hexdigest()


def test_golden_trace_digest_fuzz_blackboard():
    # determinism anchor for the fuzz scheduler's rejection sampling and its
    # rotating starvation, over gated broadcast and board finalisation
    cfg = make_config(mode="blackboard", n=8, f=2, m=8, T=16, boards=2, adversary="fuzz",
                      seeds=[7], trace=True, max_events=3_000_000)
    assert _trace_digest(cfg) == "df15f5b759c05fc9ad70d407bddab4034df46a70e1dfd3416990b12ca36bda22"


def test_golden_trace_digest_crash_stop_bracha():
    # determinism anchor for scheduled corruptions (seed 7 crashes three
    # processes) under Bracha with the local coin
    cfg = make_config(mode="bracha", n=13, f=3, coin="local", adversary="crash-stop",
                      inputs="mixed", seeds=[7], trace=True)
    assert _trace_digest(cfg) == "3a391b64cec1736d246791b8fb1ec743d8bdb20c853e7f7ac3040884936a4ecb"


def test_stop_condition_forms():
    from bftsim.harness import apply_stop_condition

    cfg = make_config(mode="bracha", n=5, f=1, m=4, T=16, seeds=[0], stop="max-events:5000")
    assert apply_stop_condition(cfg)[0] == 5000
    cfg = make_config(mode="bracha", n=5, f=1, m=4, T=16, seeds=[0], stop="epoch-limit:2")
    assert apply_stop_condition(cfg)[1] == 32  # 2 epochs x T=16 iterations
    cfg = make_config(mode="blackboard", n=5, f=1, m=4, T=16, seeds=[0], stop="boards:3")
    assert apply_stop_condition(cfg)[2] == 3
    with pytest.raises(Exception):
        apply_stop_condition(make_config(mode="bracha", n=5, f=1, m=4, T=16, seeds=[0], stop="bogus"))


def test_verify_trace_weight_invariant_records():
    ok_rec = {"rec": "weights", "epoch": 1, "weights": [1.0, 0.5, 1.0, 0.4], "bad": [1, 3],
              "eps": 0.5, "f": 1}
    verdicts = verify_trace([ok_rec])
    v = next(v for v in verdicts if v.name == "weight-loss-invariant")
    assert v.ok
    bad_rec = {"rec": "weights", "epoch": 2, "weights": [0.2, 1.0, 0.3, 1.0], "bad": [1, 3],
               "eps": 0.5, "f": 1}
    verdicts = verify_trace([ok_rec, bad_rec])
    v = next(v for v in verdicts if v.name == "weight-loss-invariant")
    assert not v.ok and v.first_violation == 2


def test_game_trace_records_verify():
    cfg = make_config(mode="game", n=9, f=2, m=8, T=64, adversary="counteract",
                      epochs=3, seeds=[0], trace=True)
    rec = run_experiment(cfg)[0]
    assert rec["trace"]
    verdicts = verify_trace(rec["trace"])
    v = next(v for v in verdicts if v.name == "weight-loss-invariant")
    assert v.ok
