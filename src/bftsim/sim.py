"""Deterministic event-driven simulation of the asynchronous full-information model.

A world holds n process handlers and the 2n^2 message buffers between them.
An adversary strategy schedules compute / deliver / corrupt events: ``run``
picks each one from the strategy's data and generator and applies it.  Runs
are strictly single-threaded and deterministic: equal (seed, config,
strategy) gives bit-identical traces.  Distinct runs share nothing.
"""
from __future__ import annotations

from collections import deque
from operator import itemgetter
from dataclasses import dataclass

from .params import ProtocolParams

COMPUTE = "compute"
DELIVER = "deliver"
CORRUPT = "corrupt"


class InapplicableEvent(RuntimeError):
    """The strategy scheduled an event whose precondition does not hold."""


class FairnessViolation(RuntimeError):
    """The strategy starved every good process with pending work past the window."""


_src_of = itemgetter(0)


def msg_digest(msg) -> str:
    import hashlib  # here, not at the top: only traced runs digest messages

    return hashlib.sha256(repr(msg).encode()).hexdigest()[:16]


def draw_index(getrandbits, size):
    """Uniform index below ``size`` drawn exactly as ``Random.choice`` draws
    it (CPython's ``_randbelow_with_getrandbits``): same values, same
    generator state afterwards, one Python frame instead of two."""
    k = size.bit_length()
    r = getrandbits(k)
    while r >= size:
        r = getrandbits(k)
    return r


class WorldState:
    """Processes, buffers, corruption set, clock and trace for one run."""

    def __init__(self, params: ProtocolParams, handlers, *, record_trace=False):
        if len(handlers) != params.n:
            raise ValueError("one handler per process required")
        n = params.n
        self.params = params
        self.handlers = list(handlers)
        # [src][dst]: ((src, msg), causal depth), the pair as the receiver gets it
        self.out_bufs = [[deque() for _ in range(n)] for _ in range(n)]
        # [dst]: delivered (src, msg) pairs in delivery order, not yet computed
        self.inboxes = [[] for _ in range(n)]
        self.corrupted = set()
        self.clock = 0
        self.record_trace = record_trace
        self.trace = []
        self.proc_depth = [0] * n  # causal chain depth per process
        self.chain_depth = 0
        # incremental indexes so events are picked in O(1); kept up to date
        # inline by enqueue, apply and run
        self._edges = [[(src, dst) for dst in range(n)] for src in range(n)]
        self._out_list = []  # (src, dst) with nonempty out buffer
        self._out_pos = [[0] * n for _ in range(n)]  # [src][dst] -> index in _out_list
        self._in_list = []  # dst with a nonempty inbox
        self._in_pos = [0] * n  # dst -> index in _in_list
        self._in_depth = [0] * n  # deepest message in each inbox
        self._good_pending = 0
        self._window = 0
        self.started = [False] * n
        self._unstarted_good = n
        # a handler's ``admits(msg)`` screens what corrupted processes send it
        self._admits = [getattr(h, "admits", None) for h in self.handlers]

    # -- event application ---------------------------------------------------

    def screen(self, outgoing):
        """A corrupted process's sends, less every message its receiver's
        handler does not admit: malformed traffic is dropped where it enters."""
        admits = self._admits
        return [(dst, msg) for dst, msg in outgoing if admits[dst] is None or admits[dst](msg)]

    def enqueue(self, src, dst, msg, depth):
        buf = self.out_bufs[src][dst]
        if not buf:
            self._out_pos[src][dst] = len(self._out_list)
            self._out_list.append(self._edges[src][dst])
        buf.append(((src, msg), depth))
        if self.record_trace:
            self.trace.append((self.clock, "send", src, dst, msg_digest(msg)))

    def apply(self, event, strategy=None):
        """Apply one event.  The reference for the loop in ``run``, which
        applies the same events in place."""
        kind = event[0]
        self.clock += 1
        ticking = self._good_pending > 0 or self._unstarted_good > 0
        progressed = False

        if kind == DELIVER:
            _, src, dst = event
            buf = self.out_bufs[src][dst]
            if not buf:
                raise InapplicableEvent(f"deliver({src},{dst}) on empty buffer")
            pair, depth = buf.popleft()
            if not buf:
                out_list = self._out_list
                pos = self._out_pos[src][dst]
                last = out_list.pop()
                if last != (src, dst):
                    out_list[pos] = last
                    self._out_pos[last[0]][last[1]] = pos
            inbox = self.inboxes[dst]
            if not inbox:
                self._in_pos[dst] = len(self._in_list)
                self._in_list.append(dst)
                if dst not in self.corrupted:
                    self._good_pending += 1
            inbox.append(pair)
            self._in_depth[dst] = max(self._in_depth[dst], depth)
            if self.record_trace:
                self.trace.append((self.clock, DELIVER, src, dst, msg_digest(pair[1])))
        elif kind == COMPUTE:
            _, pid = event
            inbox = self.inboxes[pid]
            self.inboxes[pid] = []
            if inbox:
                # sources in ascending order, each in its delivery order
                inbox.sort(key=_src_of)
                self.proc_depth[pid] = max(self.proc_depth[pid], self._in_depth[pid])
                self._in_depth[pid] = 0
                pos = self._in_pos[pid]
                last = self._in_list.pop()
                if last != pid:
                    self._in_list[pos] = last
                    self._in_pos[last] = pos
                if pid not in self.corrupted:
                    self._good_pending -= 1
            first = not self.started[pid]
            self.started[pid] = True
            if first and pid not in self.corrupted:
                self._unstarted_good -= 1
            if pid in self.corrupted:
                outgoing = self.screen(strategy.corrupted_compute(self, pid, inbox)) if strategy else []
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
            for dst, msg in outgoing:
                self.enqueue(pid, dst, msg, out_depth)
            if self.record_trace:
                self.trace.append((self.clock, COMPUTE, pid, -1, ""))
        elif kind == CORRUPT:
            _, pid = event
            if len(self.corrupted) >= self.params.f:
                raise InapplicableEvent("fault budget exhausted")
            if pid in self.corrupted:
                raise InapplicableEvent(f"process {pid} already corrupted")
            if self.inboxes[pid]:
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


@dataclass
class RunResult:
    events: int
    stopped: str  # "stop" | "quiescent" | "max-events"
    chain_depth: int


_STOP_STRIDE = 16
_UNSENT = object()


def _refused(x, blocked, p, random):
    """Does the strategy refuse a compute at, or a delivery to, process x?"""
    return x in blocked and (p >= 1.0 or random() < p)


def _resample(cands, edges, blocked, p, rng, tries):
    """Rejection-sample a candidate the strategy does not refuse: ``tries``
    uniform draws, then one draw among the candidates that pass when each is
    tested afresh in order; None when none passes.  ``edges`` says whether
    the candidates are (src, dst) deliveries or compute pids."""
    random, getrandbits = rng.random, rng.getrandbits
    for _ in range(tries):
        cand = cands[draw_index(getrandbits, len(cands))]
        if not _refused(cand[1] if edges else cand, blocked, p, random):
            return cand
    legal = [c for c in cands if not _refused(c[1] if edges else c, blocked, p, random)]
    return legal[draw_index(getrandbits, len(legal))] if legal else None


def run(world: WorldState, strategy, stop=None, max_events: int = 1_000_000) -> RunResult:
    """Drive the world with the strategy until the stop condition, quiescence,
    or the event budget.  Hitting the budget is reported, not fatal.

    The loop picks every event and applies it in place, as ``WorldState.apply``
    would.  The pick draws from ``strategy.rng``: before anything else a
    strategy's ``rotate`` hook when its countdown has run out.  Then, with
    no draw, it corrupts the head of ``strategy.corruptions`` once the clock
    has reached the head's clock; ``setup`` sets that list and the loop uses
    it up.  Otherwise, while some process has never computed, one refusal
    test per unstarted process (see ``Strategy.blocked``); one ``random()``
    roll; then a uniform draw among the candidates, retried on refusal up
    to six times before a draw among every candidate that passes.  A
    quarter of the rolls start an unstarted process, deliveries take the
    rolls below 0.7, computes the rest, and each falls back on the others
    when it has no candidate.  When every test refuses and no process is
    unstarted, a refusal probability below 1 only delays: one more uniform
    draw among the deliveries, or else among the computes; the world is
    quiescent only when nothing is left that may ever be picked.

    The stop predicate is polled every ``_STOP_STRIDE`` events (stop conditions
    are persistent, so a short overshoot is harmless and saves the scan)."""
    strategy.setup(world)
    params = world.params
    n, f, window_limit = params.n, params.f, params.fairness_window
    handlers, corrupted, started = world.handlers, world.corrupted, world.started
    out_bufs, out_list, out_pos, edges = world.out_bufs, world._out_list, world._out_pos, world._edges
    inboxes, in_list, in_pos, in_depth = world.inboxes, world._in_list, world._in_pos, world._in_depth
    proc_depth, record, trace = world.proc_depth, world.record_trace, world.trace
    rng = strategy.rng
    random, getrandbits = rng.random, rng.getrandbits
    corruptions = strategy.corruptions
    rotate, ttl = strategy.rotate, 0
    blocked = strategy.blocked
    p_compute, p_deliver = strategy.block_compute, strategy.block_deliver
    always_c, always_d = p_compute >= 1.0, p_deliver >= 1.0
    maybe_unstarted = True
    clock, chain_depth = world.clock, world.chain_depth
    good_pending, unstarted_good, window = world._good_pending, world._unstarted_good, world._window
    countdown = 1
    try:
        while True:
            countdown -= 1
            if countdown <= 0:
                if stop is not None:
                    world.clock = clock
                    if stop(world):
                        return RunResult(clock, "stop", chain_depth)
                countdown = _STOP_STRIDE
            if clock >= max_events:
                return RunResult(clock, "max-events", chain_depth)

            # -- pick --------------------------------------------------------
            if rotate is not None:
                if ttl <= 0:
                    ttl = rotate()
                    blocked = strategy.blocked
                ttl -= 1
            pid = edge = None
            corrupt = False
            if corruptions and clock >= corruptions[0][0]:
                pid, corrupt = corruptions.pop(0)[1], True
            else:
                unstarted = ()
                if maybe_unstarted:
                    unstarted = [
                        i for i in range(n)
                        if not started[i] and not _refused(i, blocked, p_compute, random)
                    ]
                    if not unstarted and all(started):
                        maybe_unstarted = False
                roll = random()
                if unstarted and (roll < 0.25 or not (out_list or in_list)):
                    pid = unstarted[draw_index(getrandbits, len(unstarted))]
                else:
                    if out_list and (roll < 0.7 or not in_list):
                        size = len(out_list)
                        k = size.bit_length()
                        r = getrandbits(k)
                        while r >= size:
                            r = getrandbits(k)
                        edge = out_list[r]
                        if edge[1] in blocked and (always_d or random() < p_deliver):
                            edge = _resample(out_list, True, blocked, p_deliver, rng, 5)
                    if edge is None:
                        if in_list:
                            size = len(in_list)
                            k = size.bit_length()
                            r = getrandbits(k)
                            while r >= size:
                                r = getrandbits(k)
                            pid = in_list[r]
                            if pid in blocked and (always_c or random() < p_compute):
                                pid = _resample(in_list, False, blocked, p_compute, rng, 5)
                        if pid is None:
                            if out_list:
                                edge = _resample(out_list, True, blocked, p_deliver, rng, 6)
                            if edge is None:
                                if unstarted:
                                    pid = unstarted[draw_index(getrandbits, len(unstarted))]
                                elif out_list and not always_d:
                                    # every test refused, but a refusal below 1
                                    # only delays: the world is not quiescent
                                    edge = out_list[draw_index(getrandbits, len(out_list))]
                                elif in_list and not always_c:
                                    pid = in_list[draw_index(getrandbits, len(in_list))]
                                else:
                                    world.clock = clock
                                    if stop is not None and stop(world):
                                        return RunResult(clock, "stop", chain_depth)
                                    return RunResult(clock, "quiescent", chain_depth)

            # -- apply -------------------------------------------------------
            ticking = good_pending or unstarted_good
            progressed = False
            clock += 1
            if edge is not None:
                src, dst = edge
                buf = out_bufs[src][dst]
                pair, depth = buf.popleft()
                if not buf:
                    pos = out_pos[src][dst]
                    last = out_list.pop()
                    if last is not edge:
                        out_list[pos] = last
                        out_pos[last[0]][last[1]] = pos
                inbox = inboxes[dst]
                if not inbox:
                    in_pos[dst] = len(in_list)
                    in_list.append(dst)
                    if dst not in corrupted:
                        good_pending += 1
                inbox.append(pair)
                if depth > in_depth[dst]:
                    in_depth[dst] = depth
                if record:
                    trace.append((clock, DELIVER, src, dst, msg_digest(pair[1])))
            elif corrupt:
                world.clock = clock
                if len(corrupted) >= f:
                    raise InapplicableEvent("fault budget exhausted")
                if pid in corrupted:
                    raise InapplicableEvent(f"process {pid} already corrupted")
                if inboxes[pid]:
                    good_pending -= 1
                if not started[pid]:
                    unstarted_good -= 1
                corrupted.add(pid)
                strategy.on_corrupt(world, pid)
                if record:
                    trace.append((clock, CORRUPT, pid, -1, ""))
            else:
                world.clock = clock
                bad = pid in corrupted
                inbox = inboxes[pid]
                if inbox:
                    inboxes[pid] = []
                    if len(inbox) > 1:
                        inbox.sort(key=_src_of)  # sources ascending, each in delivery order
                    if in_depth[pid] > proc_depth[pid]:
                        proc_depth[pid] = in_depth[pid]
                    in_depth[pid] = 0
                    pos = in_pos[pid]
                    last = in_list.pop()
                    if last != pid:
                        in_list[pos] = last
                        in_pos[last] = pos
                    if not bad:
                        good_pending -= 1
                else:
                    inbox = []
                first = not started[pid]
                if first:
                    started[pid] = True
                    if not bad:
                        unstarted_good -= 1
                if bad:
                    outgoing = world.screen(strategy.corrupted_compute(world, pid, inbox))
                else:
                    handler = handlers[pid]
                    if first:
                        outgoing = list(handler.on_start())
                        if inbox:
                            outgoing += handler.on_compute(inbox)
                    else:
                        outgoing = handler.on_compute(inbox)
                    progressed = True  # the loop computes only at a first start or with mail
                out_depth = proc_depth[pid] + 1
                if out_depth > chain_depth:
                    chain_depth = out_depth
                row, pos_row, edge_row = out_bufs[pid], out_pos[pid], edges[pid]
                sent = _UNSENT
                for dst, msg in outgoing:
                    if msg is not sent:  # one item per message, however many receivers
                        sent, item = msg, ((pid, msg), out_depth)
                    buf = row[dst]
                    if not buf:
                        pos_row[dst] = len(out_list)
                        out_list.append(edge_row[dst])
                    buf.append(item)
                    if record:
                        trace.append((clock, "send", pid, dst, msg_digest(msg)))
                if record:
                    trace.append((clock, COMPUTE, pid, -1, ""))

            if progressed or not ticking:
                window = 0
            else:
                window += 1
                if window > window_limit:
                    raise FairnessViolation(
                        f"no good process with pending work computed in {window} events"
                    )
    finally:
        world.clock, world.chain_depth = clock, chain_depth
        world._good_pending, world._unstarted_good, world._window = good_pending, unstarted_good, window
