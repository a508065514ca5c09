"""Command-line experiment runner.

Subcommands: ``run`` (one configuration over a seed set, in any mode:
``--mode simplified-game --adversary simple-counteract`` plays the unweighted
detection game), ``sweep`` (cross product over grid values) and ``verify``
(re-check the traces in a metrics file or a bare trace bundle);
``script_main`` is the entry point of the experiment scripts in ``scripts/``.
Every ``ExperimentConfig`` field is a flag of the same name (``--max-events``
for ``max_events``), plus ``--seed`` and ``--kmax`` as aliases.  A plain
key=value config file may seed any subcommand; flags override it.  Files,
flags and ``--grid`` values are typed and checked by the config alone.
BF_THREADS caps the worker pool.  Exit status: 1 for a safety violation or a
failed ``verify``, 2 for a bad config (BF_THREADS included), an unreadable or
malformed input file, or usage.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import fields

from .harness import (
    ExperimentConfig,
    TraceInvalid,
    coerce_config,
    emit_metrics,
    header_record,
    load_config_file,
    make_config,
    run_experiment,
    verify_trace,
)
from .params import ConfigInvalid


_ALIASES = {"seeds": ("--seed",), "k_max": ("--kmax",)}


def _add_common(parser: argparse.ArgumentParser):
    """One flag per config field, named after it; values stay strings for
    ``coerce_config``, the one typing path of files, flags and grids."""
    parser.add_argument("--config", help="key=value config file; flags override")
    for field in fields(ExperimentConfig):
        flags = ("--" + field.name.replace("_", "-"), *_ALIASES.get(field.name, ()))
        if field.type == "bool":
            parser.add_argument(*flags, dest=field.name, action="store_true", default=None)
        else:
            parser.add_argument(*flags, dest=field.name)


def _add_sweep(parser: argparse.ArgumentParser):
    _add_common(parser)
    parser.add_argument("--grid", action="append", metavar="KEY=V1,V2", default=[])


def _collect(args) -> dict:
    kwargs = load_config_file(args.config) if args.config else {}
    for field in fields(ExperimentConfig):
        if getattr(args, field.name) is not None:
            kwargs[field.name] = getattr(args, field.name)
    return kwargs


def _finish(records, out, header) -> int:
    if out:
        emit_metrics(records, out, header=header)
        print(f"wrote {len(records)} records to {out}")
    else:
        for rec in records:
            print(json.dumps(rec, separators=(",", ":")))
    return _safety(records)


def _safety(records) -> int:
    bad = [r for r in records if r.get("violations")]
    if bad:
        print(f"SAFETY VIOLATIONS in {len(bad)}/{len(records)} runs", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    cfg = make_config(**_collect(args))
    return _finish(run_experiment(cfg), cfg.out, header_record(cfg))


def _parse_grid(specs) -> dict:
    grid = {}
    for spec in specs:
        key, _, values = spec.partition("=")
        if key in grid:
            raise ConfigInvalid(f"grid key {key!r} given twice")
        grid[key] = [coerce_config({key: v})[key] for v in values.split(",")]  # typed as in the config
    return grid


def _cells(base: dict, grid: dict):
    """The cells of the cross product over ``grid``, keys in sorted order,
    and each cell's config, made from ``base``; a cell whose config holds
    another value for one of its grid keys raises ``ConfigInvalid``."""
    keys = sorted(grid)
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    configs = [make_config(**{**base, **cell}) for cell in cells]
    for cell, cfg in zip(cells, configs):
        for key, value in cell.items():
            got = getattr(cfg, key)
            if got != value:
                raise ConfigInvalid(f"grid key {key!r}: {cfg.mode} derives it as {got!r}, not {value!r}")
    return cells, configs


def sweep(base: dict, grid: dict, each_cell=None):
    """Run the config ``base`` at every cell of ``_cells(base, grid)``, all
    of them made before any runs.  Returns the header, the base config with
    the grid in place of the keys it varies and without a field that differs
    between cells (a derived f), and every run's record tagged with its
    cell's grid values.  ``each_cell(cell, cfg, records)`` sees each cell's
    grid values, config and records as the cell ends."""
    cells, configs = _cells(base, grid)
    heads = [header_record(cfg) for cfg in configs]
    header = {k: v for k, v in heads[0].items() if k not in grid and all(h[k] == v for h in heads)}
    header["grid"] = {k: grid[k] for k in sorted(grid)}
    records = []
    for cell, cfg in zip(cells, configs):
        runs = [{**cell, **rec} for rec in run_experiment(cfg)]
        if each_cell is not None:
            each_cell(cell, cfg, runs)
        records += runs
    return header, records


def cmd_sweep(args) -> int:
    base = _collect(args)
    out = base.pop("out", None)
    header, records = sweep(base, _parse_grid(args.grid))
    return _finish(records, out, header)


def script_main(doc, defaults, summarize, grid=(), argv=None) -> int:
    """An experiment script in ``scripts/``: the ``sweep`` flags over the
    script's ``defaults`` (config keys, ``mode`` among them) and its default
    ``grid`` (``KEY=V1,V2`` specs), whose keys a flag, the config file or
    ``--grid`` may take over.  Prints one JSON line per grid cell, its grid
    values then ``summarize(cfg, records)``; ``--out`` writes the sweep's
    metrics file.  Exit status as for ``bftsim sweep``."""
    shown = ", ".join(f"{k}={v}" for k, v in defaults.items())
    parser = argparse.ArgumentParser(
        description=f"{doc} Defaults: {shown}. Default grid: {' '.join(grid) or 'none'}.")
    _add_sweep(parser)
    args = parser.parse_args(argv)

    def body():
        given, asked = _collect(args), _parse_grid(args.grid)
        mode = {**given, **asked}.get("mode", defaults["mode"])
        if mode != defaults["mode"]:  # a script runs its own mode only
            raise ConfigInvalid(f"{parser.prog} runs mode {defaults['mode']!r}, not {mode!r}")
        base = {**defaults, **given}
        out = base.pop("out", None)
        cells = {**{k: v for k, v in _parse_grid(grid).items() if k not in given}, **asked}
        header, records = sweep(
            base, cells, lambda cell, cfg, runs: print(json.dumps({**cell, **summarize(cfg, runs)})))
        if out:
            emit_metrics(records, out, header=header)
        return _safety(records)

    return _guarded(body)


def cmd_verify(args) -> int:
    with open(args.trace_file) as fh:
        try:
            records = [json.loads(line) for line in fh if line.strip()]
        except ValueError as exc:  # not JSON, or not text
            raise ConfigInvalid(f"{args.trace_file} is not a metrics file: {exc}") from None
    f = None if args.f is None else coerce_config({"f": args.f})["f"]
    try:
        verdicts = verify_trace(records, f=f)
    except TraceInvalid as exc:  # JSON, but not trace records
        raise ConfigInvalid(f"{args.trace_file}: {exc}") from None
    for v in verdicts:
        status = "PASS" if v.ok else "FAIL"
        seed = f" seed={v.seed}" if v.seed is not None else ""
        extra = f" ({v.detail})" if v.detail else ""
        first = f" first-violation={v.first_violation}" if v.first_violation >= 0 else ""
        print(f"{status} {v.name}{seed}{extra}{first}")
    if not verdicts:
        print(f"no verdict: {args.trace_file} holds no trace records", file=sys.stderr)
        return 1
    return 0 if all(v.ok for v in verdicts) else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bftsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross-product over --grid key=v1,v2")
    _add_sweep(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-check the traces a run --trace --out file holds")
    p_verify.add_argument("trace_file")
    p_verify.add_argument("--f")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _guarded(body) -> int:
    try:
        return body()
    # a bad config, found before or during the run, or a file that cannot be read
    except (ConfigInvalid, OSError) as exc:
        print(f"bftsim: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return _guarded(lambda: args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
