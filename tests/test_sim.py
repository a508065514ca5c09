import copy

import pytest

from bftsim.adversary import STRATEGIES
from bftsim.params import ProtocolParams
from bftsim.sim import (
    COMPUTE,
    CORRUPT,
    DELIVER,
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


@pytest.mark.parametrize("corruptions, error", [
    ([(0, 1), (3, 2), (5, 3)], "fault budget exhausted"),
    ([(0, 1), (4, 1)], "process 1 already corrupted"),
], ids=["f+1-pids", "repeated-pid"])
def test_loop_checks_strategy_corruptions(corruptions, error):
    # the loop corrupts from the strategy's list as data, and still refuses
    # a corruption past the fault budget or of a corrupted process
    from bftsim.adversary import Strategy

    class Corrupter(Strategy):
        def setup(self, world):
            super().setup(world)
            self.corruptions = list(corruptions)

    world, _ = _world(n=7, f=2)
    with pytest.raises(InapplicableEvent, match=error):
        run(world, Corrupter(seed=3), None, max_events=500)
    assert len(world.corrupted) == len(corruptions) - 1
    assert world.clock == corruptions[-1][0] + 1  # picked at the clock it was due


def test_no_forgery_in_trace():
    from bftsim.adversary import Strategy

    world, _ = _world()
    run(world, Strategy(seed=1), None, max_events=500)
    sends = {}
    for ordinal, kind, src, dst, digest in world.trace:
        if kind == "send":
            sends[(src, dst, digest)] = sends.get((src, dst, digest), 0) + 1
        elif kind == DELIVER:
            sends[(src, dst, digest)] -= 1
            assert sends[(src, dst, digest)] >= 0


def test_determinism_identical_traces():
    from bftsim.adversary import Strategy

    traces = []
    for _ in range(2):
        world, _ = _world()
        run(world, Strategy(seed=9), None, max_events=400)
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


def test_fairness_violation_detected():
    from bftsim.adversary import Strategy

    class Starver(Strategy):
        blocked = frozenset({1, 2})  # refused with probability 1: never scheduled

        def corrupted_compute(self, world, pid, inbox):
            return [(pid, ("noise", pid))]  # busy work that is no good process's progress

    params = ProtocolParams(n=4, f=1, m=4, T=16, fairness_window=25)
    handlers = [Echoer(i, 4) for i in range(4)]
    world = WorldState(params, handlers)
    world.apply((CORRUPT, 0))
    world.apply((COMPUTE, 3))
    world.apply((DELIVER, 3, 1))  # now process 1 has pending work
    with pytest.raises(FairnessViolation):
        run(world, Starver(), None, max_events=200)


def test_chain_depth_grows_with_dependent_messages():
    world, _ = _world()
    world.apply((COMPUTE, 0))
    world.apply((DELIVER, 0, 1))
    world.apply((COMPUTE, 1))  # reply depends on hello
    world.apply((DELIVER, 1, 0))
    world.apply((COMPUTE, 0))
    assert world.chain_depth >= 3


_LOOP_MODES = {
    "bracha-local": dict(mode="bracha", n=5, f=1, m=4, T=16, coin="local", inputs="mixed",
                         max_iterations=4),
    "bracha-blackboard": dict(mode="bracha", n=5, f=1, m=4, T=16, coin="blackboard",
                              inputs="mixed", max_iterations=3),
    "blackboard": dict(mode="blackboard", n=5, f=1, m=4, T=16, boards=2),
    "broadcast-fuzz": dict(mode="broadcast-fuzz", n=5, f=1),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", sorted(_LOOP_MODES))
@pytest.mark.parametrize("adversary", sorted(STRATEGIES))
def test_event_loop_matches_reference(adversary, mode, trace):
    # differential oracle: the loop in run picks and applies every event in
    # place; the reference picks each one in a next_event step and applies it
    # through WorldState.apply.  Records, traces, final states and the
    # strategy generator's state must be equal.
    from bftsim.harness import make_config
    from oracles import reference_run, run_captured

    for seed in (1, 2):
        cfg = make_config(adversary=adversary, seeds=[seed], trace=trace, max_events=60_000,
                          **_LOOP_MODES[mode])
        got = run_captured(cfg, seed, run)
        want = run_captured(cfg, seed, reference_run)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert bool(got[2]) == trace
