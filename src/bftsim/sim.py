"""Deterministic event-driven simulation of the asynchronous full-information model.

A world holds n process handlers and the 2n^2 message buffers between them.
An adversary strategy schedules compute / deliver / corrupt events; the world
applies them one at a time.  Runs are strictly single-threaded and
deterministic: equal (seed, config, strategy) gives bit-identical traces.
Distinct runs share nothing.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from .params import ProtocolParams

COMPUTE = "compute"
DELIVER = "deliver"
CORRUPT = "corrupt"


class InapplicableEvent(RuntimeError):
    """The strategy scheduled an event whose precondition does not hold."""


class FairnessViolation(RuntimeError):
    """The strategy starved every good process with pending work past the window."""


def msg_digest(msg) -> str:
    return hashlib.sha256(repr(msg).encode()).hexdigest()[:16]


class WorldState:
    """Processes, buffers, corruption set, clock and trace for one run."""

    def __init__(self, params: ProtocolParams, handlers, *, record_trace=False):
        if len(handlers) != params.n:
            raise ValueError("one handler per process required")
        n = params.n
        self.params = params
        self.handlers = list(handlers)
        self.out_bufs = [[deque() for _ in range(n)] for _ in range(n)]  # [src][dst]
        self.in_bufs = [[deque() for _ in range(n)] for _ in range(n)]  # [dst][src]
        self.corrupted = set()
        self.clock = 0
        self.record_trace = record_trace
        self.trace = []
        self.proc_depth = [0] * n  # causal chain depth per process
        self.chain_depth = 0
        # incremental indexes so strategies can pick events in O(1); kept up
        # to date inline by enqueue and apply
        self._out_list = []  # (src, dst) with nonempty out buffer
        self._out_pos = {}
        self._in_count = [0] * n
        self._in_list = []  # dst with pending inbound messages
        self._in_pos = {}
        self._good_pending = 0
        self._window = 0
        self.started = [False] * n
        self._unstarted_good = n

    # -- queries used by strategies ----------------------------------------

    def good(self, i) -> bool:
        return i not in self.corrupted

    def quiescent(self) -> bool:
        return not self._out_list and not self._in_list and all(self.started)

    # -- event application ---------------------------------------------------

    def enqueue(self, src, dst, msg, depth):
        buf = self.out_bufs[src][dst]
        if not buf:
            key = (src, dst)
            self._out_pos[key] = len(self._out_list)
            self._out_list.append(key)
        buf.append((msg, depth))
        if self.record_trace:
            self.trace.append((self.clock, "send", src, dst, msg_digest(msg)))

    def apply(self, event, strategy=None):
        kind = event[0]
        self.clock += 1
        ticking = self._good_pending > 0 or self._unstarted_good > 0
        progressed = False

        if kind == DELIVER:
            _, src, dst = event
            buf = self.out_bufs[src][dst]
            if not buf:
                raise InapplicableEvent(f"deliver({src},{dst}) on empty buffer")
            item = buf.popleft()
            if not buf:
                key = (src, dst)
                out_list = self._out_list
                pos = self._out_pos.pop(key)
                last = out_list.pop()
                if last != key:
                    out_list[pos] = last
                    self._out_pos[last] = pos
            self.in_bufs[dst][src].append(item)
            in_count = self._in_count
            if not in_count[dst]:
                self._in_pos[dst] = len(self._in_list)
                self._in_list.append(dst)
                if dst not in self.corrupted:
                    self._good_pending += 1
            in_count[dst] += 1
            if self.record_trace:
                self.trace.append((self.clock, DELIVER, src, dst, msg_digest(item[0])))
        elif kind == COMPUTE:
            _, pid = event
            inbox = []
            if self._in_count[pid]:
                depth = self.proc_depth[pid]
                for src, buf in enumerate(self.in_bufs[pid]):
                    while buf:
                        msg, d = buf.popleft()
                        if d > depth:
                            depth = d
                        inbox.append((src, msg))
                self._in_count[pid] = 0
                pos = self._in_pos.pop(pid)
                last = self._in_list.pop()
                if last != pid:
                    self._in_list[pos] = last
                    self._in_pos[last] = pos
                if pid not in self.corrupted:
                    self._good_pending -= 1
                self.proc_depth[pid] = depth
            first = not self.started[pid]
            self.started[pid] = True
            if first and pid not in self.corrupted:
                self._unstarted_good -= 1
            if pid in self.corrupted:
                outgoing = strategy.corrupted_compute(self, pid, inbox) if strategy else []
            else:
                handler = self.handlers[pid]
                if first:
                    outgoing = list(handler.on_start())
                    if inbox:
                        outgoing += handler.on_compute(inbox)
                else:
                    outgoing = handler.on_compute(inbox)
                if inbox or first:
                    progressed = True
            out_depth = self.proc_depth[pid] + 1
            if out_depth > self.chain_depth:
                self.chain_depth = out_depth
            enqueue = self.enqueue
            for dst, msg in outgoing:
                enqueue(pid, dst, msg, out_depth)
            if self.record_trace:
                self.trace.append((self.clock, COMPUTE, pid, -1, ""))
        elif kind == CORRUPT:
            _, pid = event
            if len(self.corrupted) >= self.params.f:
                raise InapplicableEvent("fault budget exhausted")
            if pid in self.corrupted:
                raise InapplicableEvent(f"process {pid} already corrupted")
            if self._in_count[pid] > 0:
                self._good_pending -= 1
            if not self.started[pid]:
                self._unstarted_good -= 1
            self.corrupted.add(pid)
            if strategy is not None:
                strategy.on_corrupt(self, pid)
            if self.record_trace:
                self.trace.append((self.clock, CORRUPT, pid, -1, ""))
        else:
            raise InapplicableEvent(f"unknown event kind {kind!r}")

        if progressed or not ticking:
            self._window = 0
        else:
            self._window += 1
            if self._window > self.params.fairness_window:
                raise FairnessViolation(
                    f"no good process with pending work computed in {self._window} events"
                )


class AdversaryView:
    """Full-information snapshot facade: every process state, all buffers,
    all past coin flips.  Future randomness stays inside per-process
    generators and is not exposed."""

    def __init__(self, world: WorldState):
        self._world = world

    @property
    def n(self):
        return self._world.params.n

    @property
    def params(self):
        return self._world.params

    @property
    def clock(self):
        return self._world.clock

    @property
    def corrupted(self):
        return frozenset(self._world.corrupted)

    def handler(self, pid):
        return self._world.handlers[pid]

    def out_queue(self, src, dst):
        return tuple(m for m, _ in self._world.out_bufs[src][dst])


@dataclass
class RunResult:
    events: int
    stopped: str  # "stop" | "quiescent" | "max-events"
    chain_depth: int
    trace: list = field(default_factory=list)


_STOP_STRIDE = 16


def run(world: WorldState, strategy, stop=None, max_events: int = 1_000_000) -> RunResult:
    """Drive the world with the strategy until the stop condition, quiescence,
    or the event budget.  Hitting the budget is reported, not fatal.

    The stop predicate is polled every ``_STOP_STRIDE`` events (stop conditions
    are persistent, so a short overshoot is harmless and saves the scan)."""
    strategy.setup(world)
    view = AdversaryView(world)
    next_event, apply = strategy.next_event, world.apply
    countdown = 1
    while True:
        countdown -= 1
        if countdown <= 0:
            if stop is not None and stop(world):
                return RunResult(world.clock, "stop", world.chain_depth, world.trace)
            countdown = _STOP_STRIDE
        if world.clock >= max_events:
            return RunResult(world.clock, "max-events", world.chain_depth, world.trace)
        event = next_event(view)
        if event is None:
            if stop is not None and stop(world):
                return RunResult(world.clock, "stop", world.chain_depth, world.trace)
            return RunResult(world.clock, "quiescent", world.chain_depth, world.trace)
        apply(event, strategy)
