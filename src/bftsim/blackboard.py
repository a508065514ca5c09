"""Iterated blackboard: column-wise coin writes over reliable broadcast with
retroactive corrections and per-process finalized views.

Board t is an (m+1) x n matrix; rows 1..m hold coin values, row 0 carries the
writer's finalized last-vector for boards 1..t-1 (or a dummy at t=1) so that
any later finalizer can reconstruct the writer's whole view of history.

The upon-clauses fire on every accept, in the written order (completeness
check, own next write, record+ack, finalize), each body at most once per
instance.  Participation prerequisites are enforced by gating reliable
broadcast reactions until the local state catches up.
"""
from __future__ import annotations

from dataclasses import dataclass

from .params import ProtocolParams, clamp_coin_sum

NEVER = (0, -1)  # "never wrote" position, below every real (t, r)
DUMMY = ("dummy",)  # row-0 payload for t = 1

WRITE, ACK, LAST, VOTE = "write", "ack", "last", "vote"

# tag -> (arity, end of the int fields): VOTE (it, ph, value), WRITE (t, r,
# value), ACK (t, r, q), LAST (t, vector)
_SHAPES = {VOTE: (4, 3), WRITE: (4, 3), ACK: (4, 4), LAST: (3, 2)}


def well_formed(payload, n) -> bool:
    """A known tag, its arity, ints in the integer fields, and a tuple of n
    (int, int) positions as a LAST vector or a row-0 write after board 1:
    the shape every protocol payload must have before any handler unpacks it."""
    if type(payload) is not tuple or not payload or type(payload[0]) is not str:
        return False
    shape = _SHAPES.get(payload[0])
    if shape is None or len(payload) != shape[0]:
        return False
    for x in payload[1:shape[1]]:
        if type(x) is not int:
            return False
    if payload[0] == LAST:
        vec = payload[2]
    elif payload[0] == WRITE and payload[2] == 0 and payload[1] > 1:
        vec = payload[3]
    else:
        return True
    return type(vec) is tuple and len(vec) == n and all(
        type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int for p in vec
    )


def lex_max(vectors):
    """Pointwise lexicographic maximum of last-vectors."""
    out = list(vectors[0])
    for vec in vectors[1:]:
        for i, pos in enumerate(vec):
            if pos > out[i]:
                out[i] = pos
    return tuple(out)


@dataclass(frozen=True)
class FinalView:
    """Immutable view of the history through blackboard t.

    ``cells`` is the owner's (growing) accepted-cell store; every cell at or
    below ``lastbar`` was present when the view froze, so reads through the
    view are stable.  Row 0 is stripped from reads but kept reachable for
    history reconstruction.
    """

    t: int
    lastbar: tuple
    cells: dict
    n: int
    m: int

    def value(self, t_prime, r, i):
        """Cell value, or None for blank; r must lie in [1, m]."""
        if not (1 <= r <= self.m) or not (1 <= t_prime <= self.t):
            return None
        if (t_prime, r) > self.lastbar[i]:
            return None
        return self.cells.get((t_prime, r, i))

    def column_values(self, t_prime, i):
        out = []
        bound = self.lastbar[i]
        for r in range(1, self.m + 1):
            if (t_prime, r) > bound:
                break
            v = self.cells.get((t_prime, r, i))
            if v is None:
                break
            out.append(v)
        return out

    def column_sum(self, t_prime, i, params) -> float:
        """Clamped sum of column i of board t_prime; 0.0 for a blank column."""
        return clamp_coin_sum(float(sum(self.column_values(t_prime, i))), params.x_max)

    def full_columns(self, t_prime):
        return [i for i in range(self.n) if self.lastbar[i] >= (t_prime, self.m)]


class BlackboardNode:
    """Per-process iterated-blackboard engine, driven by accepted broadcasts."""

    def __init__(self, pid, params: ProtocolParams, value_source, send, on_final=None):
        self.pid = pid
        self.params = params
        self.n = params.n
        self.need = params.n - params.f
        self.m = params.m
        self.value_source = value_source  # (t, r) -> coin value in {-1, +1}
        self.send = send  # queue one reliable broadcast payload
        self.on_final = on_final
        self.cells = {}
        self.last = [NEVER] * self.n
        self.complete = set()
        self.ack_senders = {}  # (t, r, q) -> mask of ACK senders, bit i for process i
        self.full_cols = {}  # t -> columns with need acks on row m
        self._col_counted = set()  # (t, q)
        self._line3_done = set()  # (t, r) thresholds consumed for own writes
        self.my_row = {}  # t -> highest row I broadcast
        self.lastvec_pool = {}  # t -> {q: vector}
        self.lastbar = {}
        self.views = {}
        self.current_t = 0
        self.done_t = 0

    # -- algorithm steps ------------------------------------------------------

    def start_board(self, t):
        if t != self.current_t + 1:
            raise AssertionError(f"board {t} started out of order (at {self.current_t})")
        self.current_t = t
        zeta = self.lastbar[t - 1] if t > 1 else DUMMY
        self.my_row[t] = 0
        self.send((WRITE, t, 0, zeta))
        self._check_finalize(t)

    def on_accept(self, origin, payload):
        tag = payload[0]
        if tag == WRITE:
            _, t, r, value = payload
            cell = (t, r, origin)
            if cell in self.cells:
                return  # duplicate accept, idempotent
            if self.last[origin] >= (t, r):
                raise AssertionError("write accepted out of FIFO order")
            self.cells[cell] = value
            self.last[origin] = (t, r)
            if t not in self.complete:
                self.send((ACK, t, r, origin))
        elif tag == ACK:
            _, t, r, q = payload
            key = (t, r, q)
            senders = self.ack_senders.get(key, 0) | 1 << origin
            self.ack_senders[key] = senders
            acks = senders.bit_count()
            if r == self.m and acks >= self.need and (t, q) not in self._col_counted:
                self._col_counted.add((t, q))
                self.full_cols[t] = self.full_cols.get(t, 0) + 1
                self._check_complete(t)
            if (
                q == self.pid
                and self.my_row.get(t) == r
                and (t, r) not in self._line3_done
                and acks >= self.need
            ):
                self._line3_done.add((t, r))
                if t not in self.complete and r < self.m:
                    self.my_row[t] = r + 1
                    self.send((WRITE, t, r + 1, self.value_source(t, r + 1)))
        elif tag == LAST:
            _, t, vec = payload
            pool = self.lastvec_pool.setdefault(t, {})
            if origin not in pool:
                pool[origin] = vec
                self._check_finalize(t)

    def _check_complete(self, t):
        if t in self.complete:
            return
        if self.full_cols.get(t, 0) >= self.need:
            self.complete.add(t)
            self.send((LAST, t, tuple(self.last)))

    def _check_finalize(self, t):
        if t != self.current_t or t in self.lastbar:
            return
        pool = self.lastvec_pool.get(t, {})
        if len(pool) < self.need:
            return
        self.finalize(t, list(pool.values()))

    def finalize(self, t, received):
        bar = lex_max(received)
        self.lastbar[t] = bar
        view = FinalView(t, bar, self.cells, self.n, self.m)
        self.views[t] = view
        self.done_t = t
        if self.on_final is not None:
            self.on_final(t, view)
        return view

    # -- participation prerequisites ------------------------------------------

    def gate(self, origin, payload) -> bool:
        """May this process participate in (echo/count/accept) the broadcast
        of ``payload``?  Malformed byzantine payloads never open the gate."""
        if not well_formed(payload, self.n):
            return False
        tag = payload[0]
        if tag == VOTE:
            return True
        if tag == WRITE:
            _, t, r, value = payload
            if r == 0:
                if t == 1:
                    return True
                pool = self.lastvec_pool.get(t - 1)
                if not pool:
                    return False
                below = [vec for vec in pool.values() if all(vec[i] <= value[i] for i in range(self.n))]
                if len(below) < self.need:
                    return False
                return lex_max(below) == value
            if r > self.m or type(value) is not int or value not in (1, -1):
                return False  # a coin write fills a row 1..m with +-1
            return self.ack_senders.get((t, r - 1, origin), 0).bit_count() >= self.need
        if tag == ACK:
            _, t, r, q = payload
            return (t, r, q) in self.cells
        _, t, vec = payload  # LAST
        for i, pos in enumerate(vec):
            if pos != NEVER and (pos[0], pos[1], i) not in self.cells:
                return False
        return True
