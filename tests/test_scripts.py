"""Smoke runs of the experiment scripts in ``scripts/``: each runs at minimal
arguments, exits 0 and ends with one JSON summary line."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("bracha_batch.py", ["--n", "5", "--f", "1", "--seeds", "0:2"]),
    ("detection_experiment.py", ["--n", "8", "--T", "50", "--seeds", "2"]),
    ("weight_dynamics.py", ["--seeds", "2", "--epochs", "2"]),
])
def test_script_runs_and_ends_with_json(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines and isinstance(json.loads(lines[-1]), dict), res.stdout
