"""Bracha agreement over the weighted-blackboard coin, plus the epoch machinery.

Every process runs a three-phase vote loop; blackboard t serves exactly the
t-th coin flip, and every process (including those that already adopted or
decided a value) writes to every blackboard so completion is never starved.
Votes, writes, acks and last-vectors all travel in one FIFO reliable-broadcast
stream per process.

Weight bookkeeping is reconstructive: a process never gossips weights, it
recomputes any participant's weight trajectory from the last-vectors that
participant disclosed in its row-0 writes at epoch boundaries.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass

from .blackboard import ACK, LAST, VOTE, WRITE, BlackboardNode, FinalView
from .broadcast import RBNode, ValidationLedger
from .matching import build_excess_graph, rising_tide, weight_update_local
from .params import ProtocolParams, sgn
from .stats import compute_stats


class ConflictingDec(RuntimeError):
    """Two opposite decision candidates validated in one phase-3 pool; the
    validation mechanism is supposed to make this impossible."""


def _is_dec(value) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and value[0] == "dec"


def vote_round(iteration: int, phase: int) -> int:
    return 3 * (iteration - 1) + phase


def make_bracha_justify(n: int, f: int):
    """Justification predicates: does some >= n-f subset of the validated
    previous-round pool drive the claimed transition?"""
    need = n - f
    maj = n // 2  # strict majority means count >= maj + 1

    def justify(r, value, prev_value, counts, total):
        phase = (r - 1) % 3 + 1
        if phase == 1:
            if value not in (1, -1):
                return False
            if r == 1:
                return True
            if total < need:
                return False
            if prev_value is not None and _is_dec(prev_value):
                return value == prev_value[1]
            dec_total = sum(c for v, c in counts.items() if _is_dec(v))
            if counts.get(("dec", value), 0) >= 1:
                return True
            return total - dec_total >= need  # a dec-free quorum exists: coin vote
        if phase == 2:
            if value not in (1, -1):
                return False
            a, b = counts.get(1, 0), counts.get(-1, 0)
            if a + b < need:
                return False
            lo, hi = max(0, need - b), min(a, need)
            if lo > hi:
                return False
            return 2 * hi >= need if value == 1 else 2 * lo < need
        if _is_dec(value):
            return value[1] in (1, -1) and counts.get(value[1], 0) >= maj + 1
        if value not in (1, -1) or prev_value != value:
            return False
        a, b = counts.get(1, 0), counts.get(-1, 0)
        return min(a, maj) + min(b, maj) >= need

    return justify


def coin_flip(view: FinalView, weights, params: ProtocolParams) -> int:
    """Shared coin: sign of the weighted sum of clamped column sums, sgn(0)=+1.
    Processes that wrote nothing contribute nothing regardless of weight."""
    total = 0.0
    for i in range(params.n):
        total += weights[i] * view.column_sum(view.t, i, params)
    return sgn(total)


class WeightBook:
    """Reconstructs weight trajectories from row-0 disclosures.

    After epoch k (k >= 1), process q's local weight vector is a pure function
    of the last-vector q disclosed in its row-0 write to board k*T + 1; the
    consensus weight of q is its own entry, floored to 0 at w_min.  Epochs
    restart with unit weights every k_max + 1 epochs (the restart rule).
    """

    def __init__(self, params: ProtocolParams, board: BlackboardNode):
        self.params = params
        self.board = board
        self._viewer_cache = {}

    def epoch_of_board(self, t: int) -> int:
        return (t - 1) // self.params.T  # index of the weight vector in force

    def weight_of(self, i: int, k: int) -> float:
        """Consensus weight of process i after epoch k (used during epoch k+1)."""
        p = self.params
        if k % (p.k_max + 1) == 0:
            return 1.0
        vec = self.board.cells.get((k * p.T + 1, 0, i))  # n positions: the gate admits no other
        if vec is None:
            return self.weight_of(i, k - 1)  # undisclosed: weight uncertain, column is blank anyway
        w = self.viewer_weights(vec, k)[i]
        return w if w > p.w_min else 0.0

    def viewer_weights(self, lastbar: tuple, k: int):
        """The local weight vector after epoch k computed by a viewer whose
        frozen view of history is bounded by ``lastbar``."""
        key = (lastbar, k)
        cached = self._viewer_cache.get(key)
        if cached is not None:
            return cached
        p = self.params
        prev = [self.weight_of(i, k - 1) for i in range(p.n)]
        view = FinalView(k * p.T, lastbar, self.board.cells, p.n, p.m)
        xs = [[view.column_sum(t, i, p) for i in range(p.n)]
              for t in range((k - 1) * p.T + 1, k * p.T + 1)]
        dev, corr = compute_stats(xs, prev)
        out, _, _ = epoch_advance(prev, dev, corr, p)
        self._viewer_cache[key] = out
        return out


def epoch_advance(weights, dev, corr, params: ProtocolParams):
    """One weight update: excess graph -> rising tide -> local deduction.
    Returns (new_local_weights, matching, dependency_graph)."""
    graph = build_excess_graph(weights, dev, corr, params)
    matching, deps = rising_tide(graph)
    return weight_update_local(weights, matching), matching, deps


def _weak(method):
    """``method`` as a callback that does not keep its object alive.  The RB
    and blackboard nodes call back into the process that owns them; with
    strong callbacks every finished world would be cyclic garbage that only
    the garbage collector frees, many runs later."""
    func, ref = method.__func__, weakref.ref(method.__self__)
    return lambda *args: func(ref(), *args)


class _ProtocolProcess:
    """Shared plumbing: one RB node, the start and compute steps, wire
    fan-out.  A subclass queues its first broadcasts in ``_begin`` and its
    next ones in ``_advance``, which says whether it queued any."""

    def __init__(self, pid, params: ProtocolParams, gate=None, on_accept=None):
        self.pid = pid
        self.params = params
        self.n = params.n
        self._others = [dst for dst in range(params.n) if dst != pid]  # fan-out order
        self.rb = RBNode(pid, params, gate=gate, on_accept=on_accept)
        self.admits = self.rb.admits  # the wire format the world screens corrupted sends with
        self.started_flag = False

    def _advance(self) -> bool:
        return False

    def _begin(self):
        pass

    def on_start(self):
        self.started_flag = True
        self._begin()
        return self._flush()

    def on_compute(self, inbox):
        rb = self.rb
        handle = rb.handle
        for src, (kind, origin, seq, payload) in inbox:
            handle(src, kind, origin, seq, payload)
        if rb.has_work():
            return self._flush()
        # only accepts change what _advance reads, so it would still say no
        return self._fan_out()

    def _flush(self):
        while True:
            self.rb.pump()
            if not self._advance():
                break
        return self._fan_out()

    def _fan_out(self):
        if not self.rb.out_wire:
            return ()
        others = self._others
        return [(dst, w) for w in self.rb.take_wire() for dst in others]


class _BoardProcess(_ProtocolProcess):
    """A process with a blackboard node behind its RB gate."""

    def __init__(self, pid, params: ProtocolParams, seed):
        super().__init__(pid, params, gate=_weak(self._gate), on_accept=_weak(self._on_accept))
        self.rng = random.Random(f"{seed}/proc/{pid}")
        self.coin_source = None  # a fair coin from self.rng; a corrupting strategy sets it
        self.board = BlackboardNode(
            pid, params, _weak(self._coin_value), self.rb.broadcast,
            on_final=_weak(self._board_final),
        )
        self._final_ready = []
        self.write_log = {}  # (t, r) -> generated coin value, visible to the adversary

    def _coin_value(self, t, r):
        v = self.rng.choice((-1, 1)) if self.coin_source is None else self.coin_source(t, r)
        self.write_log[(t, r)] = v
        return v

    def _gate(self, origin, seq, payload):
        return self.board.gate(origin, payload)

    def _on_accept(self, origin, seq, payload):
        if payload[0] in (WRITE, ACK, LAST):
            self.board.on_accept(origin, payload)

    def _board_final(self, t, view):
        self._final_ready.append(t)


class BlackboardProcess(_BoardProcess):
    """Runs the iterated blackboard for a fixed number of boards (no votes)."""

    def __init__(self, pid, params, seed, boards: int):
        super().__init__(pid, params, seed)
        self.boards = boards

    @property
    def finished(self) -> bool:
        return self.board.done_t >= self.boards

    def _begin(self):
        self.board.start_board(1)

    def _advance(self):
        if self._final_ready:
            self._final_ready.clear()
            if self.board.current_t < self.boards:
                self.board.start_board(self.board.current_t + 1)
                return True
        return False


@dataclass
class DecisionRecord:
    pid: int
    iteration: int
    value: int
    event_ordinal: int = -1


class BrachaProcess(_BoardProcess):
    """Three-phase validated agreement; the coin is either the shared
    blackboard coin or a private fair coin (baseline mode)."""

    def __init__(self, pid, params, seed, initial, coin="blackboard"):
        super().__init__(pid, params, seed)
        if initial not in (1, -1):
            raise ValueError("initial value must be +1 or -1")
        self.initial = initial
        self.v = initial
        self.coin_mode = coin
        self.iteration = 1
        self.phase = 1
        self.decided = None
        self.decided_iteration = None
        self.decided_ordinal = -1
        self.clock = lambda: -1  # bound to the world clock by the harness
        self.x_last = 0
        self.waiting_board = False
        self.ledger = ValidationLedger(params.n, params.f, make_bracha_justify(params.n, params.f))
        self.weights = WeightBook(params, self.board)
        self.coin_log = []  # (t, coin) for post-hoc checks

    def _begin(self):
        self.rb.broadcast((VOTE, 1, 1, self.v))

    def _on_accept(self, origin, seq, payload):
        if payload[0] == VOTE:
            _, it, ph, value = payload
            if isinstance(value, list):
                value = tuple(value)
            if 1 <= ph <= 3 and it >= 1:
                self.ledger.add_claim(origin, vote_round(it, ph), value)
        else:
            super()._on_accept(origin, seq, payload)

    def _advance(self):
        if self.waiting_board:
            t = self.iteration
            if self.board.done_t >= t:
                view = self.board.views[t]
                k = self.weights.epoch_of_board(t)
                w = [self.weights.weight_of(i, k) for i in range(self.n)]
                coin = coin_flip(view, w, self.params)
                self.coin_log.append((t, coin))
                if self.x_last == 0:
                    self.v = coin
                self.waiting_board = False
                self.iteration += 1
                self.phase = 1
                self.rb.broadcast((VOTE, self.iteration, 1, self.v))
                return True
            return False

        r = vote_round(self.iteration, self.phase)
        if self.ledger.validated_count(r) < self.params.n - self.params.f:
            return False
        pool = self.ledger.validated_values(r)
        if self.phase == 1:
            self.v = sgn(sum(pool.values()))
            self.phase = 2
            self.rb.broadcast((VOTE, self.iteration, 2, self.v))
            return True
        if self.phase == 2:
            counts = {}
            for value in pool.values():
                counts[value] = counts.get(value, 0) + 1
            for value, cnt in counts.items():
                if cnt > self.params.n / 2:
                    self.v = ("dec", value)
                    break
            self.phase = 3
            self.rb.broadcast((VOTE, self.iteration, 3, self.v))
            return True
        # phase 3
        decs = {value[1] for value in pool.values() if _is_dec(value)}
        if len(decs) > 1:
            raise ConflictingDec(f"validated decision candidates {decs} at process {self.pid}")
        self.x_last = sum(1 for value in pool.values() if _is_dec(value))
        if self.x_last >= 1:
            v_star = next(iter(decs))
            self.v = v_star
            if self.x_last >= self.params.f + 1 and self.decided is None:
                self.decided = v_star
                self.decided_iteration = self.iteration
                self.decided_ordinal = self.clock()
        elif _is_dec(self.v):
            self.v = self.v[1]
        if self.coin_mode == "blackboard":
            self.waiting_board = True
            self.board.start_board(self.iteration)
            return True
        if self.x_last == 0:
            self.v = self.rng.choice((-1, 1))
        self.iteration += 1
        self.phase = 1
        self.rb.broadcast((VOTE, self.iteration, 1, self.v))
        return True


def check_agreement(inputs, decisions, good_pids) -> dict:
    """Safety verdicts over the good processes: Agreement, Validity, and the
    one-iteration decision lag.  Liveness is the caller's to judge.

    ``inputs`` maps pid -> input value and ``decisions`` maps pid ->
    DecisionRecord for processes that decided.  Violations by verdict name;
    ``bracha-validity`` is present only when every good process's input is
    known and all are equal.
    """
    good_decs = [decisions[p] for p in good_pids if p in decisions]
    values = {d.value for d in good_decs}
    found = {"bracha-agreement": []}
    if len(values) > 1:
        found["bracha-agreement"].append("agreement: good processes decided different values")
    good_inputs = {inputs.get(p) for p in good_pids}
    if len(good_inputs) == 1 and None not in good_inputs:
        found["bracha-validity"] = []
        if not values <= good_inputs:
            (want,) = good_inputs
            found["bracha-validity"].append(f"validity: unanimous input {want} but decided {values}")
    found["decision-lag"] = []
    if good_decs:
        its = [d.iteration for d in good_decs]
        if max(its) - min(its) > 1:
            found["decision-lag"].append(f"decision lag {max(its) - min(its)} > 1")
    return found
