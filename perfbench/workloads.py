"""The benchmark's four seeded workloads.

Each workload turns the benchmark seed into one round of operations, runs an
operation through the package's public entry points, and extracts from the
program's own objects the plain output that ``checks`` verifies.  The
package is imported from the ``src`` directory of the checkout this file
sits in, never from an installed copy.
"""
from __future__ import annotations

import math
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bftsim  # noqa: E402

if Path(bftsim.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"bftsim was imported from {bftsim.__file__}, not from {SRC}")

from bftsim import agreement, game, harness, matching  # noqa: E402
from bftsim.params import ProtocolParams  # noqa: E402

import checks  # noqa: E402

# Operation seeds of benchmark seed s are s * SEED_STRIDE + k, k < round size,
# so distinct benchmark seeds never share an operation.
SEED_STRIDE = 1000


class WorldCapture:
    """Keeps the WorldState each harness runner builds, so that the checks
    can read the final process states the runner's record leaves out."""

    def __init__(self):
        self.worlds = []
        self._real = None

    def __enter__(self):
        real = self._real = harness.WorldState

        def build(*args, **kwargs):
            world = real(*args, **kwargs)
            self.worlds.append(world)
            return world

        harness.WorldState = build
        return self

    def __exit__(self, *exc):
        harness.WorldState = self._real

    def take(self):
        world = self.worlds[-1]
        self.worlds.clear()
        return world


class BlackboardFuzz:
    """Acceptance criterion 03: iterated blackboard only, n=8, f=2, m=8, two
    boards, fuzz scheduler.  One operation is one seeded run."""

    name = "blackboard-fuzz"
    work_unit = "simulator events"
    round_size = 14

    def __init__(self, capture):
        self.capture = capture
        self.cfg = harness.make_config(
            mode="blackboard", n=8, f=2, m=8, T=16, boards=2, adversary="fuzz",
            max_events=3_000_000,
        )

    def inputs(self, seed):
        return [seed * SEED_STRIDE + k for k in range(self.round_size)]

    def call(self, op_seed):
        rec = harness.run_blackboard_once(self.cfg, op_seed)
        return rec, self.capture.take()

    def extract(self, op_seed, raw):
        rec, world = raw
        cfg = self.cfg
        out = {
            "n": cfg.n, "f": cfg.f, "m": cfg.m, "boards": cfg.boards,
            "stopped": rec["stopped"],
            "corrupted": set(world.corrupted),
            "finals": {h.pid: dict(h.board.lastbar) for h in world.handlers},
            "cells": {h.pid: h.board.cells for h in world.handlers},
        }
        counts = {"broadcast.accepts": sum(len(h.rb.accepted_log) for h in world.handlers)}
        return out, rec["events"], counts

    check = staticmethod(checks.check_blackboard)


class BrachaCrash:
    """Bracha agreement with the local coin, n=13, f=3, crash-stop, mixed
    inputs.  One operation is one seeded run."""

    name = "bracha-crash"
    work_unit = "simulator events"
    round_size = 320

    def __init__(self, capture):
        self.capture = capture
        self.cfg = harness.make_config(
            mode="bracha", n=13, f=3, coin="local", adversary="crash-stop", inputs="mixed",
        )

    def inputs(self, seed):
        return [seed * SEED_STRIDE + k for k in range(self.round_size)]

    def call(self, op_seed):
        rec = harness.run_bracha_once(self.cfg, op_seed)
        return rec, self.capture.take()

    def extract(self, op_seed, raw):
        rec, world = raw
        handlers = world.handlers
        out = {
            "n": self.cfg.n, "f": self.cfg.f,
            "inputs": [h.initial for h in handlers],
            "corrupted": set(world.corrupted),
            "starved": set(rec["starved"]),
            "decisions": {
                h.pid: (h.decided, h.decided_iteration) for h in handlers if h.decided is not None
            },
        }
        counts = {
            "broadcast.accepts": sum(len(h.rb.accepted_log) for h in handlers),
            "agreement.iterations": max(h.iteration for h in handlers),
        }
        return out, rec["events"], counts

    check = staticmethod(checks.check_bracha)


class GameColluding:
    """Epoch game engine, n=9, f=2, m=8, T=256, c=1, colluding opponent, 5
    epochs: a configuration in which blacklisting runs.  One operation is
    one seeded game."""

    name = "game-colluding"
    work_unit = "game iterations"
    round_size = 165

    def __init__(self, capture):
        self.params = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=1)

    def inputs(self, seed):
        return [
            game.GameConfig(
                params=self.params, adversary="colluding", epochs=5,
                seed=seed * SEED_STRIDE + k, record_series=False,
            )
            for k in range(self.round_size)
        ]

    def call(self, cfg):
        return game.run_game(cfg)

    def extract(self, cfg, report):
        p = self.params
        out = {
            "n": p.n, "f": p.f, "T": p.T, "eps": p.eps, "bad": set(report.bad),
            "epochs": [(ep.weights_out, ep.iters_played) for ep in report.epochs],
        }
        iterations = sum(ep.iters_played for ep in report.epochs)
        counts = {"game.iterations": iterations, "game.epochs": len(report.epochs)}
        return out, iterations, counts

    check = staticmethod(checks.check_game)


class ExcessGraphCapture:
    """Records every graph ``build_excess_graph`` returns to
    ``epoch_advance`` while it is active."""

    def __init__(self):
        self.graphs = []
        self._real = None

    def __enter__(self):
        real = self._real = agreement.build_excess_graph

        def build(*args, **kwargs):
            graph = real(*args, **kwargs)
            self.graphs.append(graph)
            return graph

        agreement.build_excess_graph = build
        return self

    def __exit__(self, *exc):
        agreement.build_excess_graph = self._real


def excess_graphs(params, seed):
    """The excess graphs, in call order, of one seeded colluding game as
    ``game-colluding`` plays it (5 epochs); four in five are empty."""
    cfg = game.GameConfig(params=params, adversary="colluding", epochs=5, seed=seed,
                          record_series=False)
    with ExcessGraphCapture() as capture:
        game.run_game(cfg)
    return capture.graphs


def random_graph(rng, n):
    """Stress graph on n vertices with the shapes the matching admits but the
    game's excess graphs lack: vertex capacities in [0, 1), an edge on each
    pair with probability 0.55 and a self-loop with probability 0.35, each
    infinite with probability 0.15 and otherwise in [0, 0.6)."""
    c_v = [rng.uniform(0, 1) for _ in range(n)]
    c_e = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < (0.35 if i == j else 0.55):
                c_e[(i, j)] = math.inf if rng.random() < 0.15 else rng.uniform(0, 0.6)
    return matching.CapacitatedGraph(n, c_v, c_e)


class MatchingRandom:
    """Exact rising tide alone at n=9, 20 and 40, on two kinds of graph: the
    excess graphs ``epoch_advance`` builds in one seeded colluding game at
    each size (c=1, so blacklisting runs), and seeded random stress graphs
    with self-loops and infinite edges.  One operation is one graph."""

    name = "matching-random"
    work_unit = "graph edges"
    sizes = ((9, 2), (20, 4), (40, 9))  # (n, f)
    random_per_size = 20

    def __init__(self, capture):
        self.params = [ProtocolParams(n=n, f=f, eps=0.5, m=8, T=256, c=1) for n, f in self.sizes]

    def inputs(self, seed):
        """Captured excess graphs first, in call order, then the random ones."""
        graphs = [g for k, p in enumerate(self.params)
                  for g in excess_graphs(p, seed * SEED_STRIDE + k)]
        rng = random.Random(f"perfbench/matching/{seed}")
        graphs += [random_graph(rng, p.n) for p in self.params for _ in range(self.random_per_size)]
        return graphs

    def call(self, g):
        return matching.rising_tide(g)

    def extract(self, g, raw):
        result, _deps = raw
        out = {"c_v": g.c_v, "c_e": g.c_e, "mu": result.mu}
        return out, sum(1 for cap in g.c_e.values() if cap > 0), {}

    check = staticmethod(checks.check_matching)


WORKLOADS = {w.name: w for w in (BlackboardFuzz, BrachaCrash, GameColluding, MatchingRandom)}
