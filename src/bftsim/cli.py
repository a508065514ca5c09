"""Command-line experiment runner.

Subcommands: ``run`` (one configuration over a seed set), ``sweep`` (cross
product over grid values), ``verify`` (re-check an exported trace bundle),
``simplified-game`` (the unweighted detection game).  A plain key=value
config file may seed any subcommand; CLI flags override it.  BF_THREADS caps
the worker pool.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys

from .harness import (
    coerce_config,
    emit_metrics,
    header_record,
    load_config_file,
    make_config,
    run_experiment,
    verify_trace,
)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file; flags override")
    parser.add_argument("--n", type=int)
    parser.add_argument("--f", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--m", type=int)
    parser.add_argument("--T", type=int)
    parser.add_argument("--c", type=float)
    parser.add_argument("--kmax", type=int, dest="k_max")
    parser.add_argument("--fairness-window", type=int, dest="fairness_window")
    parser.add_argument("--seed", dest="seeds", help="single seed")
    parser.add_argument("--seeds", dest="seeds", help="'0:50' or '1,2,3'")
    parser.add_argument("--adversary")
    parser.add_argument(
        "--adversary-arg",
        action="append",
        default=[],
        metavar="K=V",
        help="repeatable adversary parameter",
    )
    parser.add_argument("--mode")
    parser.add_argument("--coin", choices=["local", "blackboard"])
    parser.add_argument("--stop")
    parser.add_argument("--inputs")
    parser.add_argument("--boards", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--max-events", type=int, dest="max_events")
    parser.add_argument("--max-iterations", type=int, dest="max_iterations")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true", default=None)
    parser.add_argument("--zero-bad-weights", action="store_true", default=None, dest="zero_bad_weights")


def _collect(args) -> dict:
    kwargs = {}
    if args.config:
        kwargs.update(load_config_file(args.config))
    for key in (
        "mode",
        "n",
        "f",
        "eps",
        "m",
        "T",
        "c",
        "k_max",
        "fairness_window",
        "coin",
        "adversary",
        "seeds",
        "stop",
        "inputs",
        "boards",
        "epochs",
        "max_events",
        "max_iterations",
        "out",
        "trace",
        "zero_bad_weights",
    ):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if args.adversary_arg:
        parsed = dict(kv.split("=", 1) for kv in args.adversary_arg)
        kwargs["adversary_args"] = parsed
    return kwargs


def _finish(records, out, header) -> int:
    if out:
        emit_metrics(records, out, header=header)
        print(f"wrote {len(records)} records to {out}")
    else:
        for rec in records:
            print(json.dumps(rec, separators=(",", ":")))
    bad = [r for r in records if r.get("violations")]
    if bad:
        print(f"SAFETY VIOLATIONS in {len(bad)}/{len(records)} runs", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    cfg = make_config(**_collect(args))
    return _finish(run_experiment(cfg), cfg.out, header_record(cfg))


def cmd_sweep(args) -> int:
    base = _collect(args)
    out = base.pop("out", None)
    grid = {}
    for spec in args.grid or []:
        key, _, values = spec.partition("=")
        grid[key] = [coerce_config({key: v})[key] for v in values.split(",")]  # typed as in the config
    keys = sorted(grid)
    header = None
    all_records = []
    for combo in itertools.product(*(grid[k] for k in keys)) if keys else [()]:
        cfg = make_config(**{**base, **dict(zip(keys, combo))})
        if header is None:
            # the base config, with the grid in place of the keys it varies
            header = {k: v for k, v in header_record(cfg).items() if k not in grid}
            header["grid"] = {k: grid[k] for k in keys}
        for rec in run_experiment(cfg):
            tagged = dict(zip(keys, combo))
            tagged.update(rec)
            all_records.append(tagged)
    return _finish(all_records, out, header)


def cmd_verify(args) -> int:
    records = []
    with open(args.trace_file) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    verdicts = verify_trace(records, f=args.f)
    failed = False
    for v in verdicts:
        status = "PASS" if v.ok else "FAIL"
        extra = f" ({v.detail})" if v.detail else ""
        first = f" first-violation={v.first_violation}" if v.first_violation >= 0 else ""
        print(f"{status} {v.name}{extra}{first}")
        failed = failed or not v.ok
    return 1 if failed else 0


def cmd_simplified(args) -> int:
    kwargs = _collect(args)
    kwargs["mode"] = "simplified-game"
    kwargs.setdefault("adversary", "simple-counteract")
    kwargs.setdefault("f", 0)
    cfg = make_config(**kwargs)
    return _finish(run_experiment(cfg), cfg.out, header_record(cfg))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bftsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross-product over --grid key=v1,v2")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", action="append", metavar="KEY=V1,V2", default=[])
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="verify an exported trace bundle")
    p_verify.add_argument("trace_file")
    p_verify.add_argument("--f", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_simple = sub.add_parser("simplified-game", help="unweighted detection game")
    _add_common(p_simple)
    p_simple.set_defaults(func=cmd_simplified)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
