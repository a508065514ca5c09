"""The experiment scripts in ``scripts/``: each runs at minimal arguments,
exits 0 and ends with one JSON summary line; each line summarizes the
``run_experiment`` records of its grid cell; and a script offers no option
that ``bftsim sweep`` lacks."""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bftsim.cli import script_main
from bftsim.harness import make_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _run(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV, cwd=ROOT,
                          timeout=300)


def _script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, args", [
    ("bracha_batch.py", ["--n", "5", "--f", "1", "--seeds", "0:2"]),
    ("detection_experiment.py", ["--n", "8", "--grid", "T=50", "--seeds", "0:2"]),
    ("weight_dynamics.py", ["--seeds", "0:2", "--epochs", "2"]),
])
def test_script_runs_and_ends_with_json(script, args):
    res = _run(str(ROOT / "scripts" / script), *args)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines and isinstance(json.loads(lines[-1]), dict), res.stdout


@pytest.mark.parametrize("script, args, cells", [
    ("bracha_batch.py", ["--n", "5", "--f", "1", "--seeds", "0:3", "--grid", "adversary=crash-stop,fuzz"],
     [{"adversary": "crash-stop"}, {"adversary": "fuzz"}]),
    # the default grid's adversaries stay, crossed with the given T values
    ("detection_experiment.py", ["--n", "8", "--seeds", "0:20", "--grid", "T=4,10"],
     [{"T": T, "adversary": a} for T in (4, 10) for a in ("simple-counteract", "simple-colluding")]),
    ("weight_dynamics.py", ["--seeds", "0:2", "--epochs", "2", "--grid", "c=1,4"],
     [{"c": 1.0}, {"c": 4.0}]),
])
def test_script_summary_matches_run_experiment(script, args, cells, capsys):
    module = _script(script)
    assert script_main(module.__doc__, module.DEFAULTS, module.summarize, getattr(module, "GRID", ()), args) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    given = dict(zip(args[0::2], args[1::2]))
    base = {**module.DEFAULTS, **{k[2:]: v for k, v in given.items() if k != "--grid"}}
    assert len(lines) == len(cells)
    for line, cell in zip(lines, cells):
        cfg = make_config(**{**base, **cell})
        assert line == {**cell, **module.summarize(cfg, run_experiment(cfg))}


def _options(help_text):
    """The option strings a ``--help`` text lists, read from its option
    lines only, not from its description."""
    opts = set()
    for line in help_text.splitlines():
        line = line.strip()
        if line.startswith("-"):
            opts.update(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", line.split("  ")[0]))
    return opts


def test_scripts_offer_only_sweep_options():
    sweep = _options(_run("-m", "bftsim.cli", "sweep", "--help").stdout)
    assert {"--grid", "--seeds", "--n", "--out"} <= sweep
    for script in SCRIPTS:
        res = _run(str(ROOT / "scripts" / script), "--help")
        assert res.returncode == 0, res.stderr
        offered = _options(res.stdout)
        assert "--grid" in offered, script
        assert offered <= sweep, (script, sorted(offered - sweep))


def test_script_refuses_another_mode():
    res = _run(str(ROOT / "scripts" / "bracha_batch.py"), "--mode", "game", "--seeds", "0:1")
    assert res.returncode == 2
    assert res.stderr.startswith("bftsim: error:") and "Traceback" not in res.stderr
