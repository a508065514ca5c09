"""The tracer refuses to run with a layer boundary missing, and puts every
original back.  Run with: python3 -m pytest perfbench/test_tracer.py"""
from __future__ import annotations

import pytest

import workloads  # noqa: F401  (puts the checkout's src/ on the path)
from bftsim import broadcast, sim
from tracer import MissingHook, Tracer


def test_install_and_restore_put_originals_back():
    apply = sim.WorldState.__dict__["apply"]
    tracer = Tracer()
    tracer.install()
    assert sim.WorldState.__dict__["apply"] is not apply
    tracer.restore()
    assert sim.WorldState.__dict__["apply"] is apply


def test_missing_hook_is_fatal(monkeypatch):
    apply = sim.WorldState.__dict__["apply"]
    monkeypatch.delattr(broadcast.RBNode, "pump")
    with pytest.raises(MissingHook, match="RBNode.pump"):
        Tracer().install()
    assert sim.WorldState.__dict__["apply"] is apply
