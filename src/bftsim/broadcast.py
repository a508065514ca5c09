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
_KIND_NAMES = {INIT: "init", ECHO: "echo", READY: "ready"}
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


def encode_wire(kind: int, origin: int, seq: int, payload) -> bytes:
    """Wire serialization: 1-byte kind tag + origin + seq + length-prefixed body."""
    body = repr(payload).encode()
    return (
        bytes([kind])
        + origin.to_bytes(2, "big")
        + seq.to_bytes(4, "big")
        + len(body).to_bytes(4, "big")
        + body
    )


class RBInstance:
    """State for one (origin, seq) broadcast at one process."""

    __slots__ = (
        "origin",
        "seq",
        "payloads",
        "echo",
        "ready",
        "init_idx",
        "sent_echo",
        "sent_ready",
        "accepted",
        "pending",
        "seen",
        "banned",
        "opened",
    )

    def __init__(self, origin, seq):
        self.origin = origin
        self.seq = seq
        self.payloads = []
        self.echo = []
        self.ready = []
        self.init_idx = None
        self.sent_echo = False
        self.sent_ready = False
        self.accepted = None
        # pending and banned stay shared empty immutables until first used:
        # most instances never need them, and every container an instance
        # allocates is one more object for the garbage collector to track
        self.pending = ()  # gated (src, kind, payload); a list once one arrives
        self.seen = {}  # (sender, kind) -> payload index
        self.banned = _NOBODY  # equivocating senders; a set once one is found
        self.opened = _CLOSED  # a payload whose participation gate has opened

    def _index(self, payload):
        for k, p in enumerate(self.payloads):
            if p == payload:
                return k
        self.payloads.append(payload)
        self.echo.append(set())
        self.ready.append(set())
        return len(self.payloads) - 1

    def process(self, src, kind, payload, node):
        """Count one message and fire any triggers.  Returns the payload if
        this message caused acceptance."""
        if src in self.banned:
            return None
        idx = self._index(payload)
        key = (src, kind)
        key = node.seen_keys.setdefault(key, key)  # one shared key tuple per (sender, kind)
        prev = self.seen.get(key)
        if prev is None:
            self.seen[key] = idx
        elif prev != idx:
            node.equivocations.append(
                EquivocationRecord(
                    self.origin, self.seq, src, kind, (self.payloads[prev], payload)
                )
            )
            self.banned = self.banned | {src}
            return None
        else:
            return None  # duplicate, idempotent

        echo = self.echo[idx]
        ready = self.ready[idx]
        if kind == INIT:
            if src != self.origin:
                return None
            self.init_idx = idx
        elif kind == ECHO:
            echo.add(src)
        elif kind == READY:
            ready.add(src)

        # Only payload idx's counts changed since the instance was last at a
        # fixpoint, so one pass over its triggers, in the order echo, ready,
        # accept, reaches the fixpoint again: each trigger only adds to the
        # counts the later ones read, and any condition that fires ready also
        # fires echo.
        if not self.sent_echo and (
            self.init_idx == idx
            or len(echo) >= node.echo_quorum
            or len(ready) >= node.ready_support
        ):
            self.sent_echo = True
            echo.add(node.pid)
            node.emit(ECHO, self.origin, self.seq, self.payloads[idx])
        if not self.sent_ready and (
            len(echo) >= node.echo_quorum or len(ready) >= node.ready_support
        ):
            self.sent_ready = True
            ready.add(node.pid)
            node.emit(READY, self.origin, self.seq, self.payloads[idx])
        if self.accepted is None and len(ready) >= node.accept_quorum:
            self.accepted = self.payloads[idx]
            return self.accepted
        return None


def rb_handle(inst: RBInstance, msg, node):
    """Feed one (src, kind, payload) message to an instance; returns the
    accepted payload if acceptance fired."""
    src, kind, payload = msg
    return inst.process(src, kind, payload, node)


class RBNode:
    """Per-process reliable-broadcast engine with FIFO and participation gating.

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
        # one shared (sender, kind) tuple per key of every RBInstance.seen; a
        # fresh key per message left ~10 tuples per instance for the garbage
        # collector to track
        self.seen_keys = {}
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

    def emit(self, kind, origin, seq, payload):
        self.out_wire.append((kind, origin, seq, payload))

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
        self.emit(INIT, self.pid, seq, payload)
        self.handle(self.pid, INIT, self.pid, seq, payload)

    def _pump_own(self):
        if not self.own_inflight and self.outbox:
            self.initiate(self.outbox.popleft())

    # -- receiving -----------------------------------------------------------

    def handle(self, src, kind, origin, seq, payload):
        expect = self.next_seq[origin]
        if seq < expect:
            return
        if seq > expect:
            self.future.setdefault((origin, seq), []).append((src, kind, payload))
            return
        key = (origin, seq)
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = RBInstance(origin, seq)
        if self.gate is not None and payload != inst.opened:
            if not self.gate(origin, seq, payload):
                if not inst.pending:
                    self._gated.append(key)
                    inst.pending = []
                inst.pending.append((src, kind, payload))
                return
            inst.opened = payload
        accepted = inst.process(src, kind, payload, self)
        if accepted is not None:
            self.accept_queue.append((origin, seq, accepted))

    def _retry_gated(self):
        progressed = False
        still = []
        for key in self._gated:
            inst = self.instances.get(key)
            if inst is None:
                continue
            if self.next_seq[inst.origin] > inst.seq:
                inst.pending = ()  # already accepted; late reactions are moot
                continue
            remaining = []
            for src, kind, payload in inst.pending:
                if payload == inst.opened or self.gate(inst.origin, inst.seq, payload):
                    inst.opened = payload
                    accepted = inst.process(src, kind, payload, self)
                    progressed = True
                    if accepted is not None:
                        self.accept_queue.append((inst.origin, inst.seq, accepted))
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

    def take_wire(self):
        out = self.out_wire
        self.out_wire = []
        return out

    def accepted_payload(self, origin, seq):
        inst = self.instances.get((origin, seq))
        return None if inst is None else inst.accepted

    def has_accepted(self, origin, seq) -> bool:
        return self.next_seq[origin] > seq


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
        self.validated = {}  # (q, r) -> value
        self.counts = {}  # r -> {value: count of validated}
        self.totals = {}  # r -> count of validated
        self.pending = {}  # r -> set of q with unvalidated claims
        self.witness = {}  # (q, r) -> (prev-round counts, total) at validation time

    def validated_count(self, r) -> int:
        return self.totals.get(r, 0)

    def validated_values(self, r):
        return {q: v for (q, rr), v in self.validated.items() if rr == r}

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
        prev_value = None
        if r > 1:
            prev_value = self.validated.get((q, r - 1))
            if prev_value is None:
                return False
        counts = self.counts.get(r - 1, {})
        total = self.totals.get(r - 1, 0)
        if not self.justify(r, value, prev_value, counts, total):
            return False
        self.validated[(q, r)] = value
        self.witness[(q, r)] = (dict(counts), total)
        c = self.counts.setdefault(r, {})
        c[value] = c.get(value, 0) + 1
        self.totals[r] = self.totals.get(r, 0) + 1
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


def validate(ledger: ValidationLedger, q, r, value) -> bool:
    """Spec-shaped entry point: record the claim (idempotent) and report
    whether it is validated.  Unvalidated claims are re-checked automatically
    as later claims arrive."""
    ledger.add_claim(q, r, value)
    return (q, r) in ledger.validated
