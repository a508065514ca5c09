import json
import os
import shlex
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
    dict(inputs="zzz"), dict(inputs="unanimous"), dict(coin="shared"), dict(adversary="nonsense"),
    dict(mode="game", adversary="fuzz"), dict(mode="simplified-game", f=0, adversary="colluding"),
    dict(mode="game", epochs=0), dict(mode="blackboard", boards=0),
    # no stop spec, well-formed or not: runs are bounded by their own fields
    dict(stop="decided-all"), dict(stop="bogus"), dict(stop="boards:two"), dict(stop="max-events"),
    # strategies take no options: their settings are fixed
    dict(adversary_args={"x": "1"}),
], ids=repr)
def test_config_rejects_unknown_names_and_empty_runs(bad):
    # caught when the config is made, not as a KeyError or IndexError mid-run
    with pytest.raises(ConfigInvalid):
        make_config(**{"mode": "bracha", "n": 9, "f": 2, **bad})


def test_config_accepts_every_catalogued_name():
    from bftsim.harness import COINS, INPUTS, MODES

    for mode, (_runner, catalog) in MODES.items():
        for name in catalog:
            make_config(mode=mode, n=9, f=2, adversary=name)
    for coin in COINS:
        for inputs in INPUTS:
            make_config(mode="bracha", n=9, f=2, coin=coin, inputs=inputs)


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


def _cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bftsim.cli", *args],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
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


def test_cli_bad_config_exits_2_without_traceback(tmp_path):
    # a bad config is a usage error, exit 2, not a safety violation (exit 1):
    # one line on stderr, whether it is found when a value is typed, when the
    # config is made or when a runner builds its parameters (n=1); a grid key
    # given twice, whose second values would replace the first, and a
    # BF_THREADS that is not a number are bad configs too
    files = []
    for k, text in enumerate(("stop=boards:3", "n=abc", "seeds=a:b", "trace=maybe", "eps=nan")):
        files.append(tmp_path / f"f{k}")
        files[-1].write_text(f"mode=bracha\n{text}\n")
    runs = [_cli("run", "--config", str(path)) for path in files]
    runs += [_cli(*args) for args in (
        ("run", "--mode", "bracha", "--n", "1", "--f", "0"), ("run", "--n", "abc"),
        ("run", "--mode", "simplified-game", "--adversary", "simple-counteract", "--n", "1"),
        ("run", "--mode", "simplified-game", "--adversary", "simple-counteract", "--T", "-1"),
        ("sweep", "--f", "1", "--seeds", "0", "--grid", "n=5", "--grid", "n=6"),
    )]
    runs.append(_cli("run", "--seeds", "0:2", env={**os.environ, "BF_THREADS": "abc"}))
    for res in runs:
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("bftsim: error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr and res.stdout == ""
    assert "'stop'" in runs[0].stderr
    assert "'n'" in runs[1].stderr and "'seeds'" in runs[2].stderr and "'trace'" in runs[3].stderr
    assert "'eps'" in runs[4].stderr
    assert "'n' given twice" in runs[-2].stderr and "BF_THREADS" in runs[-1].stderr


def test_cli_unreadable_input_exits_2_without_traceback(tmp_path):
    # a missing file, one that is not a metrics file, or JSON lines that are
    # not trace records are usage errors too
    runs = [_cli("verify", str(tmp_path / "missing.ndjson")),
            _cli("run", "--config", str(tmp_path / "missing.cfg")),
            _cli("verify", "README.md")]
    malformed = ('{"rec":"event","ordinal":1}', '{"rec":"accept","pid":0}', "[1,2]")
    for k, line in enumerate(malformed):
        path = tmp_path / f"malformed{k}.ndjson"
        path.write_text(line + "\n")
        runs.append(_cli("verify", str(path), "--f", "1"))
    for res in runs:
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("bftsim: error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr
    assert "missing.ndjson" in runs[0].stderr and "missing.cfg" in runs[1].stderr
    assert "README.md" in runs[2].stderr
    for k, res in enumerate(runs[3:]):
        assert f"malformed{k}.ndjson" in res.stderr


def test_verify_trace_names_the_first_record_that_is_not_one():
    # called directly, the verifier raises one typed error for the records
    # the CLI turns into exit status 2, and names the record
    from bftsim.harness import TraceInvalid

    ok = {"rec": "input", "pid": 0, "value": 1}
    cases = (([{"rec": "event", "ordinal": 1}], "record 1", "'kind'"),
             ([{"rec": "accept", "pid": 0}], "record 1", "'origin'"),
             ([[1, 2]], "record 1", "[1, 2]"),
             ([ok, ok, [1, 2]], "record 3", "[1, 2]"),
             ([{"seed": 0, "trace": [ok, "x"]}], "record 1, trace record 2", "'x'"))
    for records, where, what in cases:
        with pytest.raises(TraceInvalid, match="not a trace record") as err:
            verify_trace(records, f=1)
        assert isinstance(err.value, ValueError)
        assert str(err.value).startswith(where + " ") and what in str(err.value)


def test_game_record_weights_are_floats():
    # an empty bad set sums to 0.0, not to the int 0
    rec = run_experiment(make_config(mode="game", n=9, f=2, seeds=[0]))[0]
    assert rec["bad"] == [] and rec["good_weight_final"] == 9.0
    assert type(rec["bad_weight_final"]) is float and rec["bad_weight_final"] == 0.0
    assert '"bad_weight_final":0.0' in json.dumps(rec, separators=(",", ":"))


def test_cli_flags_mirror_config_fields():
    # one flag per config field, named after it, in every subcommand that
    # makes a config; --seed and --kmax stay as aliases
    import argparse
    from dataclasses import fields

    from bftsim.cli import _collect, _parser
    from bftsim.harness import ExperimentConfig

    parser = _parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    names = [f.name for f in fields(ExperimentConfig)]
    assert sorted(subs) == ["run", "sweep", "verify"]
    for command in ("run", "sweep"):
        flags = {a.dest: a.option_strings for a in subs[command]._actions if a.dest in names}
        assert sorted(flags) == sorted(names), command
        for name in names:
            assert flags[name][0] == "--" + name.replace("_", "-")
        assert flags["seeds"] == ["--seeds", "--seed"] and flags["k_max"] == ["--k-max", "--kmax"]
    cfg = make_config(**_collect(parser.parse_args(["run", "--kmax", "3", "--seed", "4"])))
    assert cfg.k_max == 3 and cfg.seeds == [4]
    cfg = make_config(**_collect(parser.parse_args(["run", "--mode", "game", "--record-series"])))
    assert cfg.record_series is True


def test_cli_simplified_game():
    res = _cli(
        "run", "--mode", "simplified-game", "--n", "12", "--T", "400", "--eps", "1.0",
        "--adversary", "simple-colluding", "--seeds", "0:2",
    )
    assert res.returncode == 0, res.stderr
    lines = [json.loads(l) for l in res.stdout.strip().splitlines() if l.startswith("{")]
    assert len(lines) == 2
    assert all("contains_bad" in l for l in lines)


def test_cli_simplified_game_header_f_is_the_derived_f(tmp_path):
    # f = floor(n / (3 + eps)), whatever --f says: the header and every
    # record name the same f
    out = tmp_path / "simple.ndjson"
    res = _cli("run", "--mode", "simplified-game", "--adversary", "simple-counteract", "--n", "20",
               "--f", "2", "--T", "50", "--seeds", "0:2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, records = parse_metrics(out)
    assert header["f"] == 5 and [r["f"] for r in records] == [5, 5]


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


def test_cli_sweep_refuses_a_grid_key_the_mode_derives():
    # simplified-game derives f from n and eps: a grid over f would run one
    # config once per value, each record tagged with the same derived f.  The
    # sweep is refused before any cell runs, even when its first cell (f=2,
    # the derived value) is sound: the script prints nothing
    runs = [_cli("sweep", "--mode", "simplified-game", "--adversary", "simple-colluding", "--n", "8",
                 "--T", "20", "--seeds", "0:1", "--grid", "f=1,2"),
            subprocess.run([sys.executable, "scripts/detection_experiment.py", "--n", "8", "--seeds", "0:1",
                            "--grid", "T=20", "--grid", "f=2,1"],
                           capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(
                               os.path.abspath(__file__))))]
    for res in runs:
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("bftsim: error: ") and res.stderr.count("\n") == 1
        assert "'f'" in res.stderr and res.stdout == ""
    # a grid value equal to the derived one runs
    res = _cli("sweep", "--mode", "simplified-game", "--adversary", "simple-colluding", "--n", "8",
               "--T", "20", "--seeds", "0:1", "--grid", "f=2")
    assert res.returncode == 0, res.stderr
    assert [json.loads(line)["f"] for line in res.stdout.splitlines()] == [2]


def test_cli_sweep_header_leaves_out_fields_the_cells_differ_in(tmp_path):
    # simplified-game derives f from n: the header names no f, and each
    # record names its own
    out = tmp_path / "sweep.ndjson"
    res = _cli("sweep", "--mode", "simplified-game", "--adversary", "simple-colluding", "--T", "20",
               "--seeds", "0", "--grid", "n=8,20", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, records = parse_metrics(out)
    assert "f" not in header and header["grid"] == {"n": [8, 20]}
    assert [(r["n"], r["f"]) for r in records] == [(8, 2), (20, 5)]


def _readme_commands():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("bftsim ")]


def test_readme_cli_commands_parse_and_make_their_configs():
    # every command README's CLI block shows parses, and makes its config,
    # or each of its sweep's, without running
    from bftsim.cli import _cells, _collect, _parse_grid, _parser

    commands = _readme_commands()
    assert {cmd[1] for cmd in commands} == {"run", "sweep", "verify"}
    for cmd in commands:
        args = _parser().parse_args(cmd[1:])
        if args.command == "run":
            make_config(**_collect(args))
        elif args.command == "sweep":
            assert _cells(_collect(args), _parse_grid(args.grid))[1], cmd


_FOOTPRINT = """
import sys
import bftsim.cli, bftsim.game, bftsim.harness
from bftsim.harness import make_config, run_experiment
for kwargs in (dict(mode="bracha", coin="local"), dict(mode="blackboard", m=4),
               dict(mode="broadcast-fuzz", adversary="fuzz")):
    run_experiment(make_config(n=4, f=1, seeds=[0], **kwargs))
print(sorted(m for m in ("numpy", "concurrent.futures.process", "hashlib") if m in sys.modules))
run_experiment(make_config(mode="bracha", coin="local", n=4, f=1, seeds=[0], trace=True))
print(sorted(m for m in ("numpy", "hashlib") if m in sys.modules))
run_experiment(make_config(mode="game", n=5, f=1, m=4, T=8, seeds=[0]))
print("numpy" in sys.modules)
"""


def test_message_level_runs_import_no_numpy():
    # numpy serves the statistics and the game engines only, the worker pool
    # only BF_THREADS > 1, and hashlib only traced runs: an untraced
    # message-level run loads none of them.  A traced run does load hashlib
    # and a game run numpy, so the first check is not vacuous
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "BF_THREADS": "1"}
    res = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True,
                         env=env, cwd=root, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "['hashlib']", "True"]


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


@pytest.mark.parametrize("name, seed, kwargs, want", [
    ("fuzz-blackboard", 7,
     dict(mode="blackboard", n=8, f=2, m=8, T=16, boards=2, adversary="fuzz", max_events=3_000_000),
     "ef3f68be71ecc7019d977d9c267ccc4893896534938aa4a344d943f07e54d912"),
    ("crash-stop-bracha", 7,
     dict(mode="bracha", n=13, f=3, coin="local", adversary="crash-stop", inputs="mixed"),
     "96078e431da284922068e8f9112b928c18e099b564d5b6cc58991edfcbcecb03"),
    # the two seeds below run past iteration 1, so a blackboard coin is flipped
    ("colluding-bracha-blackboard-coin", 7,
     dict(mode="bracha", n=5, f=1, m=4, T=16, coin="blackboard", adversary="colluding",
          inputs="mixed", max_iterations=6),
     "26c60429a33ce4490037a2e3ce3202a285f4feb23cd579ec0003186bb4793ab5"),
    ("counteract-bracha-blackboard-coin", 3,
     dict(mode="bracha", n=5, f=1, m=4, T=16, coin="blackboard", adversary="counteract",
          inputs="mixed", max_iterations=6),
     "8fd8b38957b1b135377874e7a5f0b9217e81e278c4b403754651472c8e718645"),
])
def test_golden_untraced_digest(name, seed, kwargs, want):
    # determinism anchor for runs without a trace: the record plus the final
    # state (cells, bars, accepted logs, decisions, clock, chain depth and
    # the strategy generator's state) of one run with trace off
    import hashlib

    from bftsim.sim import run
    from oracles import run_captured

    rec, state, _ = run_captured(make_config(seeds=[seed], **kwargs), seed, run)
    assert "trace" not in rec
    assert hashlib.sha256(repr((rec, state)).encode()).hexdigest() == want, name


# -- online and offline verdicts ----------------------------------------------

_TRACED_MODES = {
    "bracha-local": dict(mode="bracha", n=5, f=1, m=4, T=16, coin="local", inputs="mixed",
                         max_iterations=4),
    "bracha-blackboard": dict(mode="bracha", n=5, f=1, m=4, T=16, coin="blackboard",
                              inputs="mixed", max_iterations=3),
    "blackboard": dict(mode="blackboard", n=5, f=1, m=4, T=16, boards=2),
    "broadcast-fuzz": dict(mode="broadcast-fuzz", n=5, f=1),
    "game": dict(mode="game", n=9, f=2, m=8, T=32, epochs=2),
}

# the verdicts each mode's trace must give, besides what its strategy adds
_MODE_VERDICTS = {
    "bracha-local": {"no-forgery", "fault-budget", "broadcast-agreement", "broadcast-fifo"},
    "bracha-blackboard": {"no-forgery", "fault-budget", "broadcast-agreement", "broadcast-fifo"},
    "blackboard": {"no-forgery", "fault-budget", "broadcast-agreement", "broadcast-fifo",
                   "full-columns", "view-disagreement"},
    "broadcast-fuzz": {"no-forgery", "fault-budget", "broadcast-agreement", "broadcast-fifo"},
    "game": {"weight-loss-invariant"},
}


def _mode_strategies():
    from bftsim.harness import MODES

    for mode, kwargs in sorted(_TRACED_MODES.items()):
        for adversary in sorted(MODES[kwargs["mode"]][1]):
            yield mode, adversary


@pytest.mark.parametrize("mode, adversary", list(_mode_strategies()))
def test_online_and_offline_verdicts_agree(mode, adversary):
    # the runner's record and verify_trace on the record's trace judge with
    # the same checkers over the same processes, so they must agree
    cfg = make_config(adversary=adversary, seeds=[1, 2], trace=True, max_events=200_000,
                      **_TRACED_MODES[mode])
    records = run_experiment(cfg)
    verdicts = verify_trace([header_record(cfg)] + records)
    for rec in records:
        mine = [v for v in verdicts if v.seed == rec["seed"]]
        names = {v.name for v in mine}
        assert _MODE_VERDICTS[mode] <= names, (rec["seed"], names)
        if any(r["rec"] == "decide" for r in rec["trace"]):
            assert {"bracha-agreement", "decision-lag"} <= names
        assert (not rec["violations"]) == all(v.ok for v in mine), (rec, mine)


def test_broadcast_fuzz_totality_is_liveness_over_live_processes():
    # starve-subset never schedules its starved process, so it accepts
    # nothing; that is neither a safety violation nor a totality shortfall
    for seed in (1, 2, 3):
        rec = run_experiment(make_config(mode="broadcast-fuzz", n=5, f=1,
                                         adversary="starve-subset", seeds=[seed]))[0]
        assert rec["stopped"] == "quiescent" and rec["instances"] > 0
        assert rec["violations"] == [] and rec["total"] is True, rec
    res = _cli("run", "--mode", "broadcast-fuzz", "--n", "5", "--f", "1",
               "--adversary", "starve-subset", "--seeds", "1:4")
    assert res.returncode == 0 and "SAFETY VIOLATIONS" not in res.stderr, res.stderr
    # a run cut short has not shown totality, and that is no safety violation
    rec = run_experiment(make_config(mode="broadcast-fuzz", n=5, f=1, adversary="starve-subset",
                                     seeds=[1], max_events=50))[0]
    assert rec["stopped"] != "quiescent"
    assert rec["violations"] == [] and rec["total"] is False, rec


def test_broadcast_fuzz_under_fuzz_is_total():
    # the fuzz strategy refuses its blocked processes with probability below
    # 1: that delays them and never blocks them, so a run is quiescent only
    # once every live process has accepted every instance
    recs = run_experiment(make_config(mode="broadcast-fuzz", n=5, f=1, adversary="fuzz",
                                      seeds=[1, 2, 3, 4, 5, 6]))
    for rec in recs:
        assert rec["stopped"] == "quiescent" and rec["instances"] > 0
        assert rec["violations"] == [] and rec["total"] is True, rec


def _captured_run(monkeypatch, seed, **kwargs):
    """One traced run: its record and the world it leaves behind."""
    from bftsim import harness

    seen = {}
    real = harness.run

    def capture(world, strategy, stop=None, max_events=1_000_000):
        seen["world"] = world
        return real(world, strategy, stop, max_events)

    monkeypatch.setattr(harness, "run", capture)
    rec = run_experiment(make_config(seeds=[seed], trace=True, **kwargs))[0]
    good = [h for h in seen["world"].handlers if h.pid not in seen["world"].corrupted]
    return rec, good


def _failed(trace, f, name):
    verdicts = {v.name: v for v in verify_trace(trace, f=f)}
    return name in verdicts and not verdicts[name].ok


def test_injected_accept_faults_fail_both_checks(monkeypatch):
    from bftsim.harness import check_broadcast

    rec, good = _captured_run(monkeypatch, 1, mode="broadcast-fuzz", n=5, f=1)
    assert not rec["violations"] and not _failed(rec["trace"], 1, "broadcast-agreement")
    pid = good[0].pid
    logs = {h.pid: list(h.rb.accepted_log) for h in good}
    mine = [k for k, r in enumerate(rec["trace"]) if r["rec"] == "accept" and r["pid"] == pid]

    # one accept payload changed
    changed = {**logs, pid: [(*logs[pid][0][:2], ("forged",))] + logs[pid][1:]}
    assert check_broadcast(changed)[0]["broadcast-agreement"]
    trace = [dict(r) for r in rec["trace"]]
    trace[mine[0]]["payload"] = repr(("forged",))
    assert _failed(trace, 1, "broadcast-agreement")

    # two accepts of one pid swapped: seq 2 of an origin before its seq 1
    a = next(k for k, (o, s, _) in enumerate(logs[pid]) if s == 1)
    b = next(k for k, (o, s, _) in enumerate(logs[pid]) if s == 2 and o == logs[pid][a][0])
    swapped = list(logs[pid])
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert check_broadcast({**logs, pid: swapped})[0]["broadcast-fifo"]
    trace = list(rec["trace"])
    trace[mine[a]], trace[mine[b]] = trace[mine[b]], trace[mine[a]]
    assert _failed(trace, 1, "broadcast-fifo")


def test_injected_decision_faults_fail_both_checks(monkeypatch):
    from bftsim.agreement import DecisionRecord, check_agreement

    # seed 0: inputs -1,-1,-1,1,1, process 4 crashes, everyone else decides 1
    rec, good = _captured_run(monkeypatch, 0, mode="bracha", n=5, f=1, m=4, T=16, coin="local",
                              inputs="random", adversary="crash-stop")
    inputs = {h.pid: h.initial for h in good}
    decisions = {h.pid: DecisionRecord(h.pid, h.decided_iteration, h.decided) for h in good}
    pids = sorted(inputs)
    assert rec["corrupted"] == [4] and {d.value for d in decisions.values()} == {1}
    assert not any(check_agreement(inputs, decisions, pids).values())
    assert not rec["violations"] and all(v.ok for v in verify_trace(rec["trace"], f=1))

    # one decide value flipped
    flipped = dict(decisions)
    flipped[0] = DecisionRecord(0, decisions[0].iteration, -1)
    assert check_agreement(inputs, flipped, pids)["bracha-agreement"]
    trace = [dict(r, value=-1) if r["rec"] == "decide" and r["pid"] == 0 else r
             for r in rec["trace"]]
    assert _failed(trace, 1, "bracha-agreement")
    (agreement,) = [v for v in verify_trace(trace, f=1) if v.name == "bracha-agreement"]
    assert agreement.detail == "agreement: good processes decided different values"

    # good process 3's input flipped: the good inputs become unanimously -1
    assert check_agreement({**inputs, 3: -1}, decisions, pids)["bracha-validity"]
    trace = [dict(r, value=-1) if r["rec"] == "input" and r["pid"] == 3 else r
             for r in rec["trace"]]
    assert _failed(trace, 1, "bracha-validity")


def test_injected_view_fault_fails_both_checks(monkeypatch):
    from bftsim.blackboard import FinalView
    from bftsim.harness import check_views

    # the starved process never writes, so its column is blank in every view
    rec, good = _captured_run(monkeypatch, 1, mode="blackboard", n=5, f=1, m=4, T=16, boards=2,
                              adversary="starve-subset")
    views = {h.pid: dict(h.board.views) for h in good}
    blank = next(h.pid for h in good if not h.board.views)
    finalizers = [h for h in good if h.board.views]
    assert not rec["violations"] and len(finalizers) >= 4
    # lengthen the bar of the earliest finisher on its last board by f+1 cells
    h = min(finalizers, key=lambda h: h.board.done_t)
    t = h.board.done_t
    bar = list(h.board.lastbar[t])
    assert bar[blank] < (t, 1)
    bar[blank] = (t, 2)
    extra = {(t, r, blank): 1 for r in (1, 2)}
    views[h.pid][t] = FinalView(t, tuple(bar), {**h.board.cells, **extra}, 5, 4)
    assert check_views(views, 1)["view-disagreement"]
    trace = [dict(r, lastbar=[list(p) for p in bar]) if r["rec"] == "final"
             and (r["pid"], r["t"]) == (h.pid, t) else r for r in rec["trace"]]
    trace += [{"rec": "cell", "t": t, "r": r, "i": blank, "value": 1} for r in (1, 2)]
    assert _failed(trace, 1, "view-disagreement")


def test_verify_judges_validity_over_uncorrupted_inputs():
    # good inputs are all 1, corrupted process 3 had -1, and every good
    # process decides -1: validity is violated, whatever process 3's input
    records = [{"rec": "event", "ordinal": 1, "kind": "corrupt", "src": 3, "dst": -1, "digest": ""}]
    records += [{"rec": "input", "pid": pid, "value": 1 if pid < 3 else -1} for pid in range(4)]
    records += [{"rec": "decide", "pid": pid, "iteration": 1, "value": -1} for pid in range(3)]
    verdicts = {v.name: v for v in verify_trace(records, f=1)}
    assert not verdicts["bracha-validity"].ok
    assert verdicts["bracha-agreement"].ok and verdicts["decision-lag"].ok


def test_verify_omits_view_verdicts_when_f_is_unknown():
    # two finalizers whose bars differ in 3 cells: that is more than f=2, and
    # with f unknown it cannot be judged, so no view verdict is reported
    n, m = 7, 2
    cells = [{"rec": "cell", "t": 1, "r": r, "i": i, "value": 1}
             for i in range(n) for r in range(1, m + 1)]
    full = [[1, m]] * n
    short = full[:5] + [[1, 1], [1, 0]]
    finals = [{"rec": "final", "pid": 0, "t": 1, "lastbar": full},
              {"rec": "final", "pid": 1, "t": 1, "lastbar": short}]
    names = {v.name for v in verify_trace(cells + finals)}
    assert not names & {"view-disagreement", "full-columns"}
    verdicts = {v.name: v for v in verify_trace(cells + finals, f=2)}
    assert not verdicts["view-disagreement"].ok and verdicts["full-columns"].ok
    assert "disagree in 3 cells" in verdicts["view-disagreement"].detail


def test_verify_reads_only_the_cells_a_trace_holds():
    # one forged cell far past the board's rows makes every column short of
    # full; the view checks visit only the cells the trace holds, so the
    # verdict comes at once instead of after a scan of 10**20 rows
    import time

    n, m = 7, 2
    cells = [{"rec": "cell", "t": 1, "r": r, "i": i, "value": 1}
             for i in range(n) for r in range(1, m + 1)]
    finals = [{"rec": "final", "pid": pid, "t": 1, "lastbar": [[1, m]] * n} for pid in (0, 1)]
    assert all(v.ok for v in verify_trace(cells + finals, f=2))
    forged = {"rec": "cell", "t": 1, "r": 10**20, "i": 0, "value": 1}
    start = time.perf_counter()
    verdicts = {v.name: v for v in verify_trace(cells + finals + [forged], f=2)}
    assert time.perf_counter() - start < 1.0
    assert not verdicts["full-columns"].ok and verdicts["view-disagreement"].ok


def test_cli_verify_reads_run_trace_out_files(tmp_path):
    out = tmp_path / "run.ndjson"
    res = _cli("run", "--mode", "bracha", "--n", "4", "--f", "1", "--coin", "local",
               "--seeds", "3,5", "--inputs", "mixed", "--trace", "--out", str(out))
    assert res.returncode == 0, res.stderr
    res = _cli("verify", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS bracha-agreement seed=3" in res.stdout
    assert "PASS fault-budget seed=5" in res.stdout  # f from the header

    lines = out.read_text().splitlines()
    run = json.loads(lines[2])
    decide = next(r for r in run["trace"] if r["rec"] == "decide")
    decide["value"] = -decide["value"]
    lines[2] = json.dumps(run)
    flipped = tmp_path / "flipped.ndjson"
    flipped.write_text("\n".join(lines) + "\n")
    res = _cli("verify", str(flipped))
    assert res.returncode == 1
    assert "FAIL bracha-agreement seed=5" in res.stdout
    assert "FAIL bracha-agreement seed=3" not in res.stdout

    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    res = _cli("verify", str(empty))
    assert res.returncode != 0 and "no verdict" in res.stderr


def test_verify_takes_f_from_a_sweep_record():
    # a sweep over f tags each record with its f; the header has none
    cfg = make_config(mode="bracha", n=7, f=2, coin="local", adversary="crash-stop",
                      seeds=[1], inputs="mixed", trace=True)
    rec = dict(f=2, **run_experiment(cfg)[0])
    assert sum(r["rec"] == "event" and r["kind"] == "corrupt" for r in rec["trace"]) == 2
    header = {"schema": "bftsim-metrics-1", "rec": "header", "mode": "bracha", "grid": {"f": [1, 2]}}
    budget = [v for v in verify_trace([header, rec]) if v.name == "fault-budget"]
    assert [(v.ok, v.seed) for v in budget] == [(True, 1)]
    budget = [v for v in verify_trace([header, dict(rec, f=1)]) if v.name == "fault-budget"]
    assert [(v.ok, v.seed) for v in budget] == [(False, 1)]
