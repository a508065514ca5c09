#!/usr/bin/env python3
"""Seeded benchmark for bftsim: four workloads, end-to-end metrics and a
traced per-layer split.

    python3 perfbench/run.py --workload blackboard-fuzz --seed 0 --seconds 10 --trace 0

``--workload`` names one workload or ``all`` (each in turn, each in a
fresh interpreter of its own, whose results are merged).  ``--trace 0`` measures the end-to-end metrics untraced; ``--trace
1`` runs the same operations with every layer boundary traced and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the Python and numpy versions, the core count and the git SHA.  Both
are also written to perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 11  # this process plus ten fresh interpreters
# Named here rather than imported: importing workloads is part of the timed set-up.
WORKLOAD_NAMES = ("blackboard-fuzz", "bracha-crash", "game-colluding", "matching-random")

# Per-layer self-time metrics: metric -> the spans whose self times it sums.
# Self times are per round; counts are those of the first round, so for a
# fixed seed they repeat exactly.
LAYER_TIMES = {
    "sim.self_s": ("sim",),
    "adversary.self_s": ("adversary",),
    "broadcast.self_s": ("broadcast", "broadcast.ledger"),
    "broadcast.ledger_self_s": ("broadcast.ledger",),
    "blackboard.self_s": ("blackboard",),
    "agreement.self_s": ("agreement", "agreement.epoch_advance"),
    "agreement.epoch_advance_self_s": ("agreement.epoch_advance",),
    "game.self_s": ("game",),
    "params.derived_s": ("params",),
    "matching.self_s": (
        "matching.rising_tide", "matching.build_excess_graph", "matching.weight_update_local",
    ),
    "matching.rising_tide_s": ("matching.rising_tide",),
    "matching.build_excess_graph_s": ("matching.build_excess_graph",),
    "harness.self_s": ("harness", "harness.check"),
    "harness.check_s": ("harness.check",),
    "stats.self_s": ("stats",),
    "bench.self_s": ("bench",),
}
# The metrics whose self times partition the traced wall time.
PARTITION = (
    "sim.self_s", "adversary.self_s", "broadcast.self_s", "blackboard.self_s", "agreement.self_s",
    "game.self_s", "params.derived_s", "matching.self_s", "harness.self_s", "stats.self_s",
    "bench.self_s",
)
LAYER_COUNTS = (
    "sim.events", "sim.sends", "adversary.calls", "broadcast.wire_msgs", "broadcast.accepts",
    "broadcast.ledger_claims", "blackboard.gate_calls", "blackboard.boards_finalized",
    "agreement.iterations", "agreement.epoch_advance_calls", "game.iterations", "game.epochs",
    "params.derived_calls", "matching.rising_tide_calls", "matching.freeze_steps",
    "matching.edges_in", "matching.nonempty_graphs",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True, help="benchmark seed (>= 0); selects the inputs")
    ap.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def setup(name, seed):
    """Import the package and build the workload's inputs; returns
    (workload, capture, inputs, seconds taken)."""
    start = time.perf_counter()
    import workloads

    capture = workloads.WorldCapture()
    wl = workloads.WORKLOADS[name](capture)
    inputs = wl.inputs(seed)
    return wl, capture, inputs, time.perf_counter() - start


def rerun(args, *extra, **kwargs):
    """Run this script again in a fresh interpreter; returns its stdout lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, **kwargs)
    return done.stdout.strip().splitlines()


def setup_probe_seconds(args):
    """Set-up time of a fresh interpreter doing this run's imports and inputs."""
    return float(rerun(args, "--setup-probe", stderr=subprocess.PIPE, timeout=120)[-1])


def run_op(wl, inp, failures):
    """Run and check one operation.  Returns (wall time, work, counts), or
    None after appending ("raised" | "wrong", message) to ``failures``."""
    start = time.perf_counter()
    try:
        raw = wl.call(inp)
    except Exception:  # one failed operation must not end the run
        failures.append(("raised", f"{wl.name}: operation raised\n{traceback.format_exc()}"))
        return None
    elapsed = time.perf_counter() - start
    out, work, counts = wl.extract(inp, raw)
    problems = wl.check(out)
    if problems:
        failures.append(("wrong", f"{wl.name}: wrong output: {problems[:5]}"))
        return None
    return elapsed, work, counts


def measure(wl, inputs, seconds):
    """Untraced pass: whole rounds of the operations until ``seconds``.
    The metrics are None when no operation succeeded."""
    times, work, failures, attempted = [], 0, [], 0
    start = time.perf_counter()
    while True:
        for inp in inputs:
            attempted += 1
            got = run_op(wl, inp, failures)
            if got is not None:
                times.append(got[0])
                work += got[1]
        if time.perf_counter() - start >= seconds:
            break
    if not times:
        return attempted, failures, None
    busy = sum(times)
    metrics = {
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "work_per_s": (work / busy, "1/s"),
    }
    return attempted, failures, metrics


def measure_traced(wl, inputs, seconds, seed):
    """Traced pass of whole rounds until ``seconds``, then one untraced round
    of the same operations to measure the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer()
    failures, attempted, rounds = [], 0, 0
    counts, per_op = {}, []
    tracer.install()
    try:
        tracer.start()
        start = time.perf_counter()
        while True:
            for k, inp in enumerate(inputs):
                attempted += 1
                before = dict(tracer.self_s)
                op_start = time.perf_counter()
                got = run_op(wl, inp, failures)
                op_wall = time.perf_counter() - op_start
                if rounds == 0 and got is not None:
                    for key, value in got[2].items():
                        counts[key] = counts.get(key, 0) + value
                per_op.append({
                    "round": rounds, "op": k, "wall_s": op_wall,
                    "self_s": {n: v - before.get(n, 0.0) for n, v in tracer.self_s.items()
                               if v != before.get(n, 0.0)},
                })
            rounds += 1
            if rounds == 1:
                counts.update(tracer.calls)
                counts["adversary.calls"] = tracer.spans["adversary"]
            if time.perf_counter() - start >= seconds:
                break
        wall = tracer.stop()
    finally:
        tracer.restore()

    base_start = time.perf_counter()
    for inp in inputs:
        run_op(wl, inp, [])
    base_round = time.perf_counter() - base_start

    metrics = {}
    for name, spans in LAYER_TIMES.items():
        metrics[name] = (sum(tracer.self_s.get(s, 0.0) for s in spans) / rounds, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    events = counts.get("sim.events", 0)
    metrics["adversary.checks_per_event"] = (ratio(counts.get("adversary.checks", 0), events), "checks/event")
    metrics["broadcast.msgs_per_accept"] = (
        ratio(counts.get("broadcast.wire_msgs", 0), counts.get("broadcast.accepts", 0)), "msgs/accept")
    metrics["blackboard.gate_open_ratio"] = (
        ratio(counts.get("blackboard.gate_open", 0), counts.get("blackboard.gate_calls", 0)), "ratio")
    metrics["matching.us_per_matching"] = (
        ratio(1e6 * metrics["matching.rising_tide_s"][0], counts.get("matching.rising_tide_calls", 0)),
        "us")
    metrics["trace.wall_s"] = (wall / rounds, "s")
    metrics["trace.overhead_s"] = (wall / rounds - base_round, "s")

    parts = sum(metrics[name][0] for name in PARTITION)
    assert abs(parts - wall / rounds) <= 1e-6 * max(1.0, wall), (parts, wall / rounds)
    trace_file = OUT / f"trace-{wl.name}-s{seed}.json"
    write_json(trace_file, {"workload": wl.name, "seed": seed, "rounds": rounds, "ops": per_op})
    return attempted, failures, metrics


def ratio(num, den):
    return num / den if den else 0.0


def write_json(path, obj):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_info():
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "git_sha": git_sha(),
        "BF_THREADS": os.environ["BF_THREADS"],
    }


def as_json(metrics, prefix=""):
    return {prefix + k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}


def run_all(args):
    """Each workload in a fresh interpreter of its own, so that its set-up,
    heap and peak memory are its own; the metrics are merged under
    "<workload>." prefixes."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    work_unit = {}
    for name in WORKLOAD_NAMES:
        try:
            lines = rerun(argparse.Namespace(**{**vars(args), "workload": name}))
        except subprocess.CalledProcessError as exc:
            print(f"perfbench: {name} exited with status {exc.returncode}; no result", file=sys.stderr)
            return exc.returncode
        info, part = json.loads(lines[-2])["info"], json.loads(lines[-1])
        work_unit.update(info["work_unit"])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return report(args, work_unit, result)


def report(args, work_unit, result):
    info = env_info()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                work_unit=work_unit)
    write_json(OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json",
               {"info": info, "result": result})
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    os.environ["BF_THREADS"] = "1"  # the seed pool stays off: one process
    if args.workload == "all":
        return run_all(args)
    try:
        wl, capture, inputs, own_setup = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    with capture:
        if args.trace:
            attempted, failures, metrics = measure_traced(wl, inputs, args.seconds, args.seed)
        else:
            attempted, failures, metrics = measure(wl, inputs, args.seconds)
    for _kind, message in failures[:10]:
        print(message, file=sys.stderr)
    if metrics is None:
        print(f"perfbench: every {wl.name} operation failed; no result", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(
            [own_setup] + [setup_probe_seconds(args) for _ in range(SETUP_SAMPLES - 1)]), "s")
    result = {
        "correct": not any(kind == "wrong" for kind, _msg in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": as_json(metrics),
    }
    return report(args, {wl.name: wl.work_unit}, result)


if __name__ == "__main__":
    sys.exit(main())
