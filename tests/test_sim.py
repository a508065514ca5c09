import copy

import pytest

from bftsim.params import ProtocolParams
from bftsim.sim import (
    COMPUTE,
    CORRUPT,
    DELIVER,
    AdversaryView,
    FairnessViolation,
    InapplicableEvent,
    WorldState,
    run,
)


class Echoer:
    """Toy handler: greets everyone once, then repeats back what it hears."""

    def __init__(self, pid, n, limit=2):
        self.pid = pid
        self.n = n
        self.limit = limit
        self.heard = []
        self.started_flag = False

    def on_start(self):
        self.started_flag = True
        return [(dst, ("hello", self.pid)) for dst in range(self.n) if dst != self.pid]

    def on_compute(self, inbox):
        out = []
        for src, msg in inbox:
            self.heard.append((src, msg))
            if msg[0] == "hello" and len(self.heard) <= self.limit:
                out.append((src, ("reply", self.pid)))
        return out


class Roller:
    """Handler that consumes seeded randomness once per compute."""

    def __init__(self, pid, rng):
        self.pid = pid
        self.rng = rng
        self.rolls = []
        self.started_flag = False

    def on_start(self):
        self.started_flag = True
        return []

    def on_compute(self, inbox):
        self.rolls.append(self.rng.choice((-1, 1)))
        return []


def _world(n=3, f=0, **kw):
    params = ProtocolParams(n=n, f=f, m=4, T=16, **kw)
    handlers = [Echoer(i, n) for i in range(n)]
    return WorldState(params, handlers, record_trace=True), handlers


def test_deliver_requires_nonempty_buffer():
    world, _ = _world()
    with pytest.raises(InapplicableEvent):
        world.apply((DELIVER, 0, 1))


def test_compute_with_empty_buffers_only_advances_clock():
    world, handlers = _world()
    world.apply((COMPUTE, 0))  # emits greetings, but consumed nothing
    assert world.clock == 1
    assert handlers[0].heard == []
    world.apply((COMPUTE, 0))
    assert handlers[0].heard == []
    assert world.clock == 2


def test_message_visible_exactly_once():
    world, handlers = _world()
    world.apply((COMPUTE, 0))  # 0 sends hello to 1 and 2
    world.apply((DELIVER, 0, 1))
    world.apply((COMPUTE, 1))
    assert handlers[1].heard == [(0, ("hello", 0))]
    world.apply((COMPUTE, 1))
    assert handlers[1].heard == [(0, ("hello", 0))]  # not redelivered


def test_corrupt_respects_budget():
    world, _ = _world(n=4, f=1)
    world.apply((CORRUPT, 2))
    assert world.corrupted == {2}
    with pytest.raises(InapplicableEvent):
        world.apply((CORRUPT, 3))


def test_no_forgery_in_trace():
    from bftsim.adversary import HonestRandom

    world, _ = _world()
    run(world, HonestRandom(seed=1), None, max_events=500)
    sends = {}
    for ordinal, kind, src, dst, digest in world.trace:
        if kind == "send":
            sends[(src, dst, digest)] = sends.get((src, dst, digest), 0) + 1
        elif kind == DELIVER:
            sends[(src, dst, digest)] -= 1
            assert sends[(src, dst, digest)] >= 0


def test_determinism_identical_traces():
    from bftsim.adversary import HonestRandom

    traces = []
    for _ in range(2):
        world, _ = _world()
        run(world, HonestRandom(seed=9), None, max_events=400)
        traces.append(tuple(world.trace))
    assert traces[0] == traces[1]


def test_snapshot_does_not_predetermine_future_flips():
    # two different continuations from one snapshot: the per-process streams
    # produce the same flip sequence regardless of scheduling
    import random

    params = ProtocolParams(n=2, f=0, m=4, T=16)
    handlers = [Roller(i, random.Random(f"7/proc/{i}")) for i in range(2)]
    world = WorldState(params, handlers)
    world.apply((COMPUTE, 0))
    fork_a = copy.deepcopy(world)
    fork_b = copy.deepcopy(world)
    for _ in range(3):
        fork_a.apply((COMPUTE, 0))
    fork_b.apply((COMPUTE, 1))  # interleave differently
    for _ in range(3):
        fork_b.apply((COMPUTE, 0))
    assert fork_a.handlers[0].rolls == fork_b.handlers[0].rolls[: len(fork_a.handlers[0].rolls)]


def test_snapshot_view_fields():
    world, _ = _world()
    view = AdversaryView(world)
    assert view.n == 3
    assert view.corrupted == frozenset()
    world.apply((COMPUTE, 0))
    assert view.out_queue(0, 1) == (("hello", 0),)


def test_fairness_violation_detected():
    class Starver:
        def setup(self, world):
            pass

        def on_corrupt(self, world, pid):
            pass

        def corrupted_compute(self, world, pid, inbox):
            return []

        def next_event(self, view):
            return (COMPUTE, 0)  # only ever schedules process 0

    params = ProtocolParams(n=3, f=0, m=4, T=16, fairness_window=25)
    handlers = [Echoer(i, 3) for i in range(3)]
    world = WorldState(params, handlers)
    world.apply((COMPUTE, 0))
    world.apply((DELIVER, 0, 1))  # now process 1 has pending work
    with pytest.raises(FairnessViolation):
        run(world, Starver(), None, max_events=100)


def test_chain_depth_grows_with_dependent_messages():
    world, _ = _world()
    world.apply((COMPUTE, 0))
    world.apply((DELIVER, 0, 1))
    world.apply((COMPUTE, 1))  # reply depends on hello
    world.apply((DELIVER, 1, 0))
    world.apply((COMPUTE, 0))
    assert world.chain_depth >= 3
