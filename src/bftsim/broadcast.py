"""FIFO reliable broadcast (init/echo/ready) and the validation ledger.

Each process runs one RBNode.  Incoming wire messages are counted by distinct
sender per payload digest; echo fires on the first trigger among {init from
the origin, strictly more than (n+f)/2 matching echoes, >= f+1 matching
readies}, ready on {strictly more than (n+f)/2 echoes or >= f+1 readies}, and
acceptance on >= 2f+1 readies.  A process counts its own echo/ready the
moment it sends them.

Two gates delay reactions to a message: the FIFO gate (sequence l of an
origin is processed only after l-1 was accepted) and an optional
participation gate supplied by the layer above (the blackboard
prerequisites).  Gated messages are buffered and replayed when the local
state advances.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

INIT, ECHO, READY = 0, 1, 2
_CLOSED = object()  # equal to no payload: no gate has opened yet
_NOBODY = frozenset()


class FifoViolation(RuntimeError):
    """A process tried to initiate sequence l+1 before locally accepting l."""


@dataclass
class EquivocationRecord:
    origin: int
    seq: int
    sender: int
    kind: int
    payloads: tuple


class RBInstance:
    """State for one (origin, seq) broadcast at one process.

    ``tally`` holds four entries per distinct payload, in arrival order: the
    payload, then a mask of its senders for each message kind (INIT, ECHO,
    READY), bit i for process i.  A mask is its distinct-sender count, and a
    sender's bit under another payload of the same kind is an equivocation.
    The process sets its own bit in the ECHO and READY masks when it sends
    them.  Ints in one list leave each instance two objects for the garbage
    collector to track, where per-payload sets and lists left it six.
    """

    __slots__ = (
        "origin",
        "seq",
        "tally",
        "init_idx",
        "sent_echo",
        "sent_ready",
        "accepted",
        "pending",
        "banned",
        "opened",
    )

    def __init__(self, origin, seq):
        self.origin = origin
        self.seq = seq
        self.tally = []
        self.init_idx = None  # tally index of the payload the origin's INIT carried
        self.sent_echo = False
        self.sent_ready = False
        self.accepted = None
        # pending and banned stay shared empty immutables until first used:
        # most instances never need them
        self.pending = ()  # gated (src, kind, payload); a list once one arrives
        self.banned = _NOBODY  # equivocating senders; a set once one is found
        self.opened = _CLOSED  # a payload whose participation gate has opened


class RBNode:
    """Per-process reliable-broadcast engine with FIFO and participation gating.

    ``instances`` holds only the open instances: ``pump`` frees each one as
    it accepts it, so a process's state grows with what is in flight, not
    with its message history.

    ``gate(origin, seq, payload)`` must be pure and monotone: once it opens
    for a payload of an instance it stays open for that payload, because the
    local state it reads only grows.  Each instance therefore consults the
    gate until it opens for a payload and then lets later messages carrying
    an equal payload through without asking again.
    """

    def __init__(self, pid, params, *, gate=None, on_accept=None):
        self.pid = pid
        self.n = params.n
        self.f = params.f
        self.echo_quorum = (params.n + params.f) // 2 + 1  # strictly more than (n+f)/2
        self.ready_support = params.f + 1
        self.accept_quorum = 2 * params.f + 1
        self.gate = gate
        self.on_accept = on_accept
        self.instances = {}
        self.next_seq = [1] * params.n
        self.future = {}
        self.outbox = deque()
        self.own_inflight = False
        self.my_next = 1
        self.out_wire = []  # (kind, origin, seq, payload) to broadcast to all others
        self.accept_queue = deque()
        self.accepted_log = []  # (origin, seq, payload) in local accept order
        self.equivocations = []
        self._gated = []  # instance keys with pending gated messages

    # -- sending -------------------------------------------------------------

    def broadcast(self, payload):
        """Queue the next own broadcast; sequences are serialized on local
        acceptance of the previous one (the FIFO discipline)."""
        self.outbox.append(payload)
        self._pump_own()

    def initiate(self, payload):
        """Start the broadcast of the next own sequence immediately.

        Raises FifoViolation if the previous own broadcast is not locally
        accepted yet; ``broadcast`` queues instead of raising.
        """
        if self.own_inflight:
            raise FifoViolation(f"process {self.pid}: sequence {self.my_next - 1} still open")
        seq = self.my_next
        self.my_next += 1
        self.own_inflight = True
        self.out_wire.append((INIT, self.pid, seq, payload))
        self.handle(self.pid, INIT, self.pid, seq, payload)

    def _pump_own(self):
        if not self.own_inflight and self.outbox:
            self.initiate(self.outbox.popleft())

    # -- receiving -----------------------------------------------------------

    def handle(self, src, kind, origin, seq, payload):
        """Take one wire message: the FIFO gate, the participation gate, then
        the distinct-sender count and the triggers it fires."""
        expect = self.next_seq[origin]
        if seq != expect:
            if seq > expect:
                self.future.setdefault((origin, seq), []).append((src, kind, payload))
            return
        key = (origin, seq)
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = RBInstance(origin, seq)
        opened = inst.opened
        if self.gate is not None and payload is not opened and payload != opened:
            if not self.gate(origin, seq, payload):
                if not inst.pending:
                    self._gated.append(key)
                    inst.pending = []
                inst.pending.append((src, kind, payload))
                return
            inst.opened = payload
        if src in inst.banned:
            return

        tally = inst.tally
        size = len(tally)
        idx = 0
        while idx < size and tally[idx] is not payload and tally[idx] != payload:
            idx += 4
        if idx == size:
            tally += (payload, 0, 0, 0)
        bit = 1 << src
        slot = idx + 1 + kind
        mask = tally[slot]
        if mask & bit:
            return  # duplicate, idempotent
        if len(tally) > 4:  # several payloads: did this sender send this kind for another?
            for other in range(1 + kind, len(tally), 4):
                if tally[other] & bit:
                    self.equivocations.append(
                        EquivocationRecord(origin, seq, src, kind, (tally[other - 1 - kind], payload))
                    )
                    inst.banned = inst.banned | {src}
                    return
        tally[slot] = mask | bit
        if kind == INIT:
            if src != origin:
                return
            inst.init_idx = idx

        # Only payload idx's counts changed since the instance was last at a
        # fixpoint, so one pass over its triggers, in the order echo, ready,
        # accept, reaches the fixpoint again: each trigger only adds to the
        # counts the later ones read, and any condition that fires ready also
        # fires echo.
        echo, ready = tally[idx + 1 + ECHO], tally[idx + 1 + READY]
        if not inst.sent_echo and (
            inst.init_idx == idx
            or echo.bit_count() >= self.echo_quorum
            or ready.bit_count() >= self.ready_support
        ):
            inst.sent_echo = True
            echo |= 1 << self.pid
            tally[idx + 1 + ECHO] = echo
            self.out_wire.append((ECHO, origin, seq, tally[idx]))
        if not inst.sent_ready and (
            echo.bit_count() >= self.echo_quorum or ready.bit_count() >= self.ready_support
        ):
            inst.sent_ready = True
            ready |= 1 << self.pid
            tally[idx + 1 + READY] = ready
            self.out_wire.append((READY, origin, seq, tally[idx]))
        if inst.accepted is None and ready.bit_count() >= self.accept_quorum:
            inst.accepted = tally[idx]
            self.accept_queue.append((origin, seq, inst.accepted))

    # A replayed gated message re-enters handle under this name: it is no new
    # wire message, so whatever wraps handle to count wire messages (the
    # perfbench tracer) does not count it again.
    _replay = handle

    def admits(self, msg) -> bool:
        """Can ``handle`` take ``msg``: a 4-tuple (kind, origin, seq, payload)
        with kind INIT, ECHO or READY, an int origin below n and an int seq
        of at least 1?  The world drops what corrupted processes send that
        fails this, so malformed traffic never reaches a good process."""
        if type(msg) is not tuple or len(msg) != 4:
            return False
        kind, origin, seq, _ = msg
        return (
            type(kind) is int and INIT <= kind <= READY
            and type(origin) is int and 0 <= origin < self.n
            and type(seq) is int and seq >= 1
        )

    def _retry_gated(self):
        progressed = False
        still = []
        for key in self._gated:
            inst = self.instances.get(key)
            if inst is None:
                continue  # accepted and freed; late reactions are moot
            remaining = []
            for src, kind, payload in inst.pending:
                if payload == inst.opened or self.gate(inst.origin, inst.seq, payload):
                    inst.opened = payload
                    self._replay(src, kind, inst.origin, inst.seq, payload)
                    progressed = True
                else:
                    remaining.append((src, kind, payload))
            inst.pending = remaining
            if remaining:
                still.append(key)
        self._gated = still
        return progressed

    def pump(self):
        """Drain accepts and retry gated messages to a fixpoint.  The upper
        layer's on_accept may update gate state and queue new broadcasts."""
        while True:
            progressed = False
            while self.accept_queue:
                origin, seq, payload = self.accept_queue.popleft()
                self.accepted_log.append((origin, seq, payload))
                self.next_seq[origin] = seq + 1
                # the FIFO gate now stops every message for this instance
                # before handle reads it, so its state is dead
                del self.instances[origin, seq]
                if origin == self.pid:
                    self.own_inflight = False
                    self._pump_own()
                if self.on_accept is not None:
                    self.on_accept(origin, seq, payload)
                nxt = (origin, seq + 1)
                for src, kind, payload2 in self.future.pop(nxt, ()):
                    self.handle(src, kind, origin, seq + 1, payload2)
                progressed = True
            if self._gated and self._retry_gated():
                progressed = True
            if not progressed:
                return

    def has_work(self) -> bool:
        """Would ``pump`` do anything: is an accept queued or a message
        gated?  If not, the fixpoint the last pump reached still holds."""
        return bool(self.accept_queue or self._gated)

    def take_wire(self):
        out = self.out_wire
        self.out_wire = []
        return out


class ValidationLedger:
    """Chained state validation: claim (q, r, value) is validated once q's
    round r-1 claim is validated and the justification predicate accepts the
    transition given the validated round r-1 pool.

    ``justify(round, value, prev_value, counts, total)`` decides whether some
    >= n-f subset of the validated previous-round pool drives the transition;
    predicates must be monotone in the pool.
    """

    def __init__(self, n, f, justify):
        self.n = n
        self.f = f
        self.justify = justify
        self.claims = {}  # (q, r) -> value (first claim wins)
        self.validated = {}  # r -> {q: value}, in validation order
        self.counts = {}  # r -> {value: count of validated}
        self.pending = {}  # r -> set of q with unvalidated claims

    def validated_count(self, r) -> int:
        return len(self.validated.get(r, ()))

    def validated_values(self, r) -> dict:
        """``{q: value}`` of round r's validated claims, in validation order."""
        return dict(self.validated.get(r, ()))

    def add_claim(self, q, r, value):
        """Record q's round-r claim and cascade validations.  Returns the list
        of newly validated (q, r, value) triples."""
        if (q, r) in self.claims:
            return []  # duplicates ignored; RB already bans equivocators
        self.claims[(q, r)] = value
        self.pending.setdefault(r, set()).add(q)
        return self._cascade(r)

    def _try_validate(self, q, r):
        value = self.claims[(q, r)]
        prev_pool = self.validated.get(r - 1, {})
        prev_value = None
        if r > 1:
            prev_value = prev_pool.get(q)
            if prev_value is None:
                return False
        counts = self.counts.get(r - 1, {})
        if not self.justify(r, value, prev_value, counts, len(prev_pool)):
            return False
        self.validated.setdefault(r, {})[q] = value
        c = self.counts.setdefault(r, {})
        c[value] = c.get(value, 0) + 1
        return True

    def _cascade(self, start_round):
        newly = []
        frontier = [start_round]
        while frontier:
            r = frontier.pop()
            waiting = self.pending.get(r)
            if not waiting:
                continue
            advanced = []
            for q in list(waiting):
                if self._try_validate(q, r):
                    advanced.append(q)
                    newly.append((q, r, self.claims[(q, r)]))
            if advanced:
                for q in advanced:
                    waiting.discard(q)
                frontier.extend((r, r + 1))
        return newly

