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


def well_formed(payload) -> bool:
    """A known tag, its arity, and ints in the integer fields: the shape
    every protocol payload must have before any handler unpacks it."""
    try:
        arity, end = _SHAPES[payload[0]]
    except (TypeError, IndexError, KeyError):
        return False
    if type(payload) is not tuple or len(payload) != arity:
        return False
    for x in payload[1:end]:
        if type(x) is not int:
            return False
    return True


class WriterAbsent(KeyError):
    """Reconstruction asked for a process that never wrote to the board."""


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

    def row0_payload(self, t_prime, q):
        return self.cells.get((t_prime, 0, q))


def history_of_writer(view: FinalView, q: int, t: int) -> FinalView:
    """Reconstruct q's finalized history through board t-1 from the
    last-vector q disclosed in its row-0 write to board t."""
    payload = view.row0_payload(t, q)
    if payload is None:
        raise WriterAbsent(f"process {q} never wrote to board {t}")
    if t == 1:
        raise WriterAbsent("board 1 row-0 writes carry no history")
    lastbar = tuple(tuple(p) for p in payload)
    return FinalView(t - 1, lastbar, view.cells, view.n, view.m)


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
        self.ack_senders = {}
        self.full_cols = {}  # t -> columns with need acks on row m
        self._col_counted = set()  # (t, q)
        self._line3_done = set()  # (t, r) thresholds consumed for own writes
        self.my_row = {}  # t -> highest row I broadcast
        self.lastvec_pool = {}  # t -> {q: vector}
        self.last_frozen = {}  # t -> my frozen last vector
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
            senders = self.ack_senders.get(key)
            if senders is None:
                senders = self.ack_senders[key] = set()
            senders.add(origin)
            if r == self.m and len(senders) >= self.need and (t, q) not in self._col_counted:
                self._col_counted.add((t, q))
                self.full_cols[t] = self.full_cols.get(t, 0) + 1
                self._check_complete(t)
            if (
                q == self.pid
                and self.my_row.get(t) == r
                and (t, r) not in self._line3_done
                and len(senders) >= self.need
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
            frozen = tuple(self.last)
            self.last_frozen[t] = frozen
            self.send((LAST, t, frozen))

    def _check_finalize(self, t):
        if t != self.current_t or t in self.lastbar:
            return
        pool = self.lastvec_pool.get(t, {})
        if len(pool) < self.need:
            return
        self.finalize(t, list(pool.values()))

    def finalize(self, t, received):
        bar = lex_max([tuple(tuple(p) for p in vec) for vec in received])
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
        if not well_formed(payload):
            return False
        try:
            tag = payload[0]
            if tag == VOTE:
                return True
            if tag == WRITE:
                _, t, r, value = payload
                if r == 0:
                    if t == 1:
                        return True
                    pool = self.lastvec_pool.get(t - 1)
                    if not pool or len(value) != self.n:
                        return False
                    zeta = tuple(tuple(p) for p in value)
                    below = [
                        vec
                        for vec in pool.values()
                        if all(tuple(vec[i]) <= zeta[i] for i in range(self.n))
                    ]
                    if len(below) < self.need:
                        return False
                    return lex_max([tuple(tuple(p) for p in v) for v in below]) == zeta
                if type(value) is not int or value not in (1, -1):
                    return False  # a coin write carries +-1
                senders = self.ack_senders.get((t, r - 1, origin))
                return senders is not None and len(senders) >= self.need
            if tag == ACK:
                _, t, r, q = payload
                return (t, r, q) in self.cells
            if tag == LAST:
                _, t, vec = payload
                if len(vec) != self.n:
                    return False
                for i, pos in enumerate(vec):
                    pos = tuple(pos)
                    if pos == NEVER:
                        continue
                    if (pos[0], pos[1], i) not in self.cells:
                        return False
                return True
        except (TypeError, IndexError, KeyError):
            return False
        return False
