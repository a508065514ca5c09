"""Epoch-level weighted coin-flipping game engine.

This plays the blackboard coin game directly — column sums, clamping, bounded
view disagreement, weight updates — without message-level simulation, so
statistical experiments (gap-lemma compliance, weight dynamics, endgame
agreement rates) run at desk scale.  The message-level stack exercises the
same operations at small scale; this engine exercises their statistics.

Adversary powers modeled per the asynchronous game: the direction sigma(t) is
committed before the round's coins are flipped; the scheduler may leave up to
f columns partial (at least n-f must fill); corrupted writers choose their
column values after seeing all good flips; and each viewer's column sums may
miss the final write of the (at most f) unforced columns, both at coin time
and in the frozen views used for end-of-epoch statistics.

An epoch is played one of two ways, chosen by the opponent's class.  The
counteract opponent reads the good sum of every iteration, so its epochs run
iteration by iteration; the others never read the good flips, so their
epochs are drawn whole, several at once.  Both yield the epoch's clipped
column sums, and one statistics pass, the frozen views and the weight update
close every epoch.

numpy is imported inside the functions that use it: every message-level run
imports this module (through ``harness``) and never plays a game, so it
never loads numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .adversary import random_bad_set
from .agreement import epoch_advance
from .matching import reconcile_weights
from .params import ConfigInvalid, ProtocolParams, clamp_coin_sum, sgn


_FLIP_BLOCK = 1024  # flips drawn per refill: 512 PCG64 words per process


def _flip_bits(words):
    """The 0/1 flips ``Generator.integers(0, 2)`` reads from PCG64 ``words``, as
    int8: each 32-bit half's top bit, low half first, as Lemire's draw never
    rejects at 2."""
    import numpy as np

    return (np.asarray(words, dtype="<u8").view("<u4") >> 31).astype(np.int8)


class FlipStream:
    """One process's fair +-1 flips, kept as 0/1 bits read from its PCG64
    words a block at a time; ``length`` flips sum to ``2 * ones - length``.

    ``take(length)`` returns ``(raw, last)`` for the next ``length`` flips:
    their sum and the last one; ``length`` must be positive.  It and
    ``take_columns`` equal ``flips = rng.integers(0, 2, size=length) * 2 - 1``
    then ``(flips.sum(), flips[-1])``, for any split of the flips into calls
    (``tests/test_game.py`` pins this).  The generator must be a PCG64 with
    no buffered 32-bit half and belong to the stream alone, as ``run_game``'s
    fresh, private process generators do: flips drawn past the last one
    taken are never seen.
    """

    __slots__ = ("_draw", "_bits", "_cum", "_pos")

    def __init__(self, rng):
        import numpy as np

        self._draw = rng.bit_generator.random_raw
        self._bits = np.zeros(0, dtype=np.int8)  # drawn flips; _bits[_pos:] are untaken
        self._cum = None  # prefix sums of _bits, built when ``take`` first reads them
        self._pos = 0

    def _untaken(self, need):  # the untaken flips, and at least a fresh block if short of ``need``
        bits = self._bits[self._pos:]
        if need > len(bits):
            import numpy as np

            words = self._draw((max(_FLIP_BLOCK, need - len(bits)) + 1) // 2)
            bits = np.concatenate((bits, _flip_bits(words)))
        return bits

    def take(self, length):
        start = self._pos
        end = start + length
        cum = self._cum
        if cum is None or end >= len(cum):
            bits = self._bits = self._untaken(length)
            cum = self._cum = list(accumulate(bits.tolist(), initial=0))
            start, end = 0, length
        self._pos = end
        return 2 * (cum[end] - cum[start]) - length, 2 * (cum[end] - cum[end - 1]) - 1

    @staticmethod
    def take_columns(streams, rows, length):
        """``rows`` calls of ``take(length)`` on each of ``streams`` at once:
        the column sums and last flips as two ``(len(streams), rows)`` arrays.
        Each short stream draws its own words, so no two streams' words are
        held at once."""
        import numpy as np

        need = rows * length
        cols = []
        for s in streams:
            bits = s._untaken(need)
            s._bits, s._cum, s._pos = bits[need:], None, 0
            cols.append(bits[:need])
        cols = np.array(cols).reshape(len(streams), rows, length)
        # fewer than 128 flips sum exactly in int8, and einsum casts slowly
        ones = np.einsum("srk->sr", cols if length < 128 else cols.astype(np.int64))
        sums = np.multiply(ones, 2, dtype=np.int64)
        sums -= length
        return sums, 2 * cols[:, :, -1] - 1


class GameOpponent:
    """Game-level adversary: no corruption, fair play.

    An opponent that is not ``forcing`` never reads the good flips and never
    leaves a good column partial, so no iteration depends on another and
    ``run_game`` plays each of its epochs whole, from ``epoch_moves``.
    """

    name = "honest-random"
    forcing = False

    def pick_bad(self, n, f, rng):
        return frozenset()

    def epoch_moves(self, T, m, rng):
        """sigma(t) for t = 1..T, and the column every corrupted process
        writes in each iteration as (raw sums, last flips) arrays, or None
        when they write nothing."""
        return rng.integers(0, 2, size=T) * 2 - 1, None


class CrashGame(GameOpponent):
    """f processes are corrupted at the start and never write anything."""

    name = "crash-stop"
    pick_bad = staticmethod(random_bad_set)


class CounteractGame(GameOpponent):
    """Corrupts f immediately; starves the f heaviest good columns (leaving a
    few stray flips to hide later) and offsets the observed good sum so some
    good view still shows sigma.  It reads the good sum of each iteration, so
    it is played iteration by iteration."""

    name = "counteract"
    forcing = True
    pick_bad = staticmethod(random_bad_set)

    def direction(self, t, rng) -> int:
        return int(rng.integers(0, 2)) * 2 - 1

    def plan_lengths(self, t, weights, good, bad, m, rng):
        """Column lengths for this iteration: {pid: length}; omitted = full."""
        heaviest = sorted(good, key=lambda i: (-weights[i], i))[: len(bad)]
        return {i: int(rng.integers(1, max(2, m))) for i in heaviest}

    def bad_columns(self, t, sigma, weights, good_weighted_sum, hide_gain, bad, m, x_max, rng):
        """Raw sums and last flips for corrupted columns: {pid: (raw, last)}.

        The deficit is what the good sum and the hide slack leave short of
        sigma.  In pid order, while some deficit is left, a column of
        positive weight w pushes toward sigma: its target is
        ``take = min(cap, deficit / w)``, the deficit shrinks by ``w * take``,
        and it writes ``take`` rounded up to the parity of m, capped at m.
        Every other column pads with +-(m % 2), alternately: a full column of
        odd length cannot sum to 0.
        """
        cap = min(float(m), x_max)
        remaining = -sigma * good_weighted_sum - hide_gain
        cols = {}
        for idx, i in enumerate(sorted(bad)):
            w = weights[i]
            if remaining > 0 and w > 0:
                take = min(cap, remaining / w)
                remaining -= w * take
                raw = math.ceil(take)
                raw = min(raw + (raw - m) % 2, m) * sigma
            else:
                raw = m % 2 if idx % 2 == 0 else -(m % 2)
            cols[i] = (raw, 1 if raw >= 0 else -1)
        return cols


class ColludingGame(GameOpponent):
    """Corrupted players copy one leader's honest-looking flips exactly."""

    name = "colluding"
    pick_bad = staticmethod(random_bad_set)

    def epoch_moves(self, T, m, rng):
        # iteration by iteration: one draw for sigma(t), then the leader's m
        # flips; every integers(0, 2) value takes one 32-bit draw, so one call
        # yields the values of the 2T calls that order makes, and int32 holds
        # the int64 values in half the memory
        import numpy as np

        draws = rng.integers(0, 2, size=(T, 1 + m), dtype=np.int32)
        leader = draws[:, 1:]  # einsum sums its short rows faster than sum(axis=1)
        return draws[:, 0] * 2 - 1, (np.einsum("tk->t", leader) * 2 - m, leader[:, -1] * 2 - 1)


GAME_OPPONENTS = {
    cls.name: cls for cls in (GameOpponent, CrashGame, CounteractGame, ColludingGame)
}


@dataclass
class GameConfig:
    params: ProtocolParams
    adversary: str = "honest-random"
    epochs: int = 1
    seed: int = 0
    stop_on_natural_end: bool = True
    zero_bad_weights: bool = False
    record_series: bool = True


@dataclass
class EpochReport:
    epoch: int
    weights_in: list
    weights_out: list
    bad: frozenset
    iters_played: int
    natural_end_at: int | None
    unanimous_iters: int
    dev: np.ndarray
    corr: np.ndarray
    sg_series: list
    sb_series: list
    sigma_series: list
    inv_lhs: float = 0.0
    inv_rhs: float = 0.0
    inv_ok: bool = True


@dataclass
class GameReport:
    seed: int
    bad: frozenset
    epochs: list
    ended_at: tuple | None  # (epoch, iteration) of the natural end, if any

    @property
    def agreement_reached(self) -> bool:
        return self.ended_at is not None


def weight_loss(weights, bad, eps, f):
    """The two sides of invariant 3.3, good loss <= bad loss + eps^2 f / 8:
    returns (good loss, bad loss + eps^2 f / 8).  Callers add the tolerance
    their weights need."""
    good_loss = sum(1.0 - w for i, w in enumerate(weights) if i not in bad)
    bad_loss = sum(1.0 - w for i, w in enumerate(weights) if i in bad)
    return good_loss, bad_loss + eps**2 * f / 8.0


def run_game(cfg: GameConfig) -> GameReport:
    import numpy as np

    p = cfg.params
    if p.f > 0:
        p.require_quarter_resilience()
    opp_cls = GAME_OPPONENTS.get(cfg.adversary)
    if opp_cls is None:
        raise ConfigInvalid(f"unknown game adversary {cfg.adversary!r}; have {sorted(GAME_OPPONENTS)}")
    if cfg.epochs < 1:
        raise ConfigInvalid(f"need epochs >= 1, got {cfg.epochs}")
    opp = opp_cls()

    adv_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xAD)))
    bad = opp.pick_bad(p.n, p.f, adv_rng)
    good = [i for i in range(p.n) if i not in bad]
    # only good processes flip, and only a forcing opponent leaves a column to hide
    streams = {i: FlipStream(np.random.default_rng(np.random.SeedSequence((cfg.seed, 7, i))))
               for i in good}
    view_rng = draws = None
    if opp.forcing:
        view_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x51DE)))
    else:
        draws = _whole_epoch_draws(p, opp, bad, good, streams, adv_rng, cfg.epochs)
    weights = initial = [0.0 if cfg.zero_bad_weights and i in bad else 1.0 for i in range(p.n)]

    reports = []
    ended = None
    for k in range(1, cfg.epochs + 1):
        w = np.asarray(weights, dtype=float)
        if draws is None:
            play = _play_iterations(cfg, p, opp, w, bad, good, streams, adv_rng)
        else:  # no partial good column: every iteration is unanimous, none hideable
            play = (*next(draws), [], None, p.T)
        rep = _close_epoch(cfg, opp, k, weights, w, bad, good, play, view_rng)
        reports.append(rep)
        if rep.natural_end_at is not None and cfg.stop_on_natural_end:
            ended = (k, rep.natural_end_at)
            break
        # undecided after the endgame epoch: restart with unit weights
        weights = initial if k % (p.k_max + 1) == 0 else rep.weights_out
    return GameReport(cfg.seed, bad, reports, ended)


# elements of the (rows, n, n) outer products formed at once: 64 KiB, under
# glibc's 128 KiB mmap threshold (at 1 << 15 a batched colluding game faulted
# in about 80 fresh pages)
_CORR_CHUNK = 1 << 13
_FLIP_BUDGET = 1 << 15  # flips per process one draw of whole epochs stays within, past the first


def _whole_epoch_draws(p, opp, bad, good, streams, adv_rng, epochs):
    """Yields each epoch's draws for a non-forcing opponent: sigma(t), the
    clipped column sums, the last raw sums and the last flips.  It draws as
    many whole epochs at once as fit ``_FLIP_BUDGET`` flips per process, and
    at least one, with the values of one draw per epoch: ``take_columns``
    gives equal flips for any split, and each ``integers(0, 2)`` value of
    ``epoch_moves`` takes one 32-bit draw."""
    import numpy as np

    n, m, T = p.n, p.m, p.T
    per_draw = max(1, _FLIP_BUDGET // (T * m))
    for done in range(0, epochs, per_draw):
        count = min(per_draw, epochs - done)
        sigma, bad_col = opp.epoch_moves(T * count, m, adv_rng)
        sums, lasts = FlipStream.take_columns([streams[i] for i in good], T * count, m)
        x = np.zeros((T * count, n))  # the column sums, clipped below
        x[:, good] = sums.T
        last_raw, lam = np.zeros((2, count, n), dtype=np.int64)
        last_raw[:, good], lam[:, good] = sums[:, T - 1::T].T, lasts[:, T - 1::T].T
        if bad_col is not None:
            bad_raw, bad_lasts = bad_col
            for i in bad:
                x[:, i], last_raw[:, i], lam[:, i] = bad_raw, bad_raw[T - 1::T], bad_lasts[T - 1::T]
        x.clip(-p.x_max, p.x_max, out=x)
        del sums, lasts  # only what the epochs read outlives the draw
        for e in range(count):
            yield sigma[e * T:(e + 1) * T], x[e * T:(e + 1) * T], last_raw[e], lam[e]


def _play_iterations(cfg, p, opp, w, bad, good, streams, adv_rng):
    """Plays an epoch of a forcing opponent one iteration at a time: its
    moves read the good sum and plan partial columns.  Returns what
    ``_whole_epoch_draws`` yields, with one row of clipped column sums per
    iteration played, then the hideable columns, the natural end and the
    number of unanimous iterations."""
    import numpy as np

    n, m, T, f, x_max = p.n, p.m, p.T, p.f, p.x_max
    good_ix = np.array(good)
    bad_order = sorted(bad)
    sigmas, xs = [], []
    natural_end_at, unanimous = None, 0

    for t in range(1, T + 1):
        sigma = opp.direction(t, adv_rng)
        lengths = opp.plan_lengths(t, w, good, bad_order, m, adv_rng)
        raw, lam = [0] * n, [0] * n
        for i in good:
            length = lengths.get(i, m)
            if length > 0:
                raw[i], lam[i] = streams[i].take(length)
        x = np.array(raw).clip(-x_max, x_max)
        sg = float((w * x)[good_ix].sum())
        # hideable frontier: good partial columns (the scheduler leaves their
        # last write unforced); at most f columns total
        hideable = [i for i in good if 0 < lengths.get(i, m) < m][:f]
        deltas = {}
        for i in hideable:
            x_alt = clamp_coin_sum(float(raw[i] - lam[i]), x_max)
            deltas[i] = w[i] * (x_alt - x[i])
        gain = sum(d for d in deltas.values() if sigma * d > 0) * sigma

        bad_cols = opp.bad_columns(t, sigma, w, sg, gain, bad, m, x_max, adv_rng)
        for i, (braw, blast) in bad_cols.items():
            raw[i], lam[i] = braw, blast
            x[i] = clamp_coin_sum(float(braw), x_max)
        sigmas.append(sigma)
        xs.append(x)

        total = float((w * x).sum())
        smax = total + sum(d for d in deltas.values() if d > 0)
        smin = total + sum(d for d in deltas.values() if d < 0)
        if sgn(smax) == sgn(smin):
            unanimous += 1
        if natural_end_at is None and sigma * total + abs(gain) < 0:
            natural_end_at = t
            if cfg.stop_on_natural_end:
                break

    return sigmas, np.array(xs), raw, lam, hideable, natural_end_at, unanimous


def _epoch_stats(x, w, good, bad, record_series):
    """dev, corr with a zero diagonal, the good and bad weighted sums of each
    iteration (empty unless ``record_series``) and the last row of ``w * x``
    as a list, from the clipped column sums ``x``, one row per iteration.
    Bit for bit the loop ``dev += wx**2; corr += np.outer(wx, wx)`` from
    zeros: numpy reduces axis 0 from 0.0 one row after another, so a -0.0
    product sums to 0.0, and each chunk of corr adds on to the last.  A row
    sum of a 2-D array is not the 1-D pairwise sum, so sg is summed row by
    row, and sb adds the bad columns in the order of ``sum(wx[i] for i in bad)``."""
    import numpy as np

    rows, n = x.shape
    wx = w * x
    dev = (wx**2).sum(axis=0)
    corr = np.zeros((n, n))
    step = max(1, _CORR_CHUNK // (n * n))
    for s in range(0, rows, step):
        chunk = wx[s:s + step]
        outer = chunk[:, :, None] * chunk[:, None, :]
        outer[0] += corr
        corr = outer.sum(axis=0)
    np.fill_diagonal(corr, 0.0)
    sg_series, sb_series = [], []
    if record_series:
        sg_series = [float(row.sum()) for row in wx[:, good]]
        sb = np.zeros(rows)
        for i in bad:
            sb = sb + wx[:, i]
        sb_series = sb.tolist()
    return dev, corr, sg_series, sb_series, wx[-1].tolist()


def _close_epoch(cfg, opp, k, weights_in, w, bad, good, play, view_rng):
    """The end of an epoch, for both ways of playing it: its statistics, each
    viewer's frozen view, its epoch_advance, the consensus weights and the
    invariant.  ``play`` is what ``_play_iterations`` returns."""
    import numpy as np

    p = cfg.params
    n, f = p.n, p.f
    sigma, x, raw, lam, hideable, natural_end_at, unanimous = play
    dev, corr, sg_series, sb_series, final_wx = _epoch_stats(x, w, good, bad, cfg.record_series)

    # frozen views: each viewer may miss the final write of the unforced
    # columns; corrupted viewers choose self-servingly.  Lists, read once
    w_list, dev_list, corr_list = w.tolist(), dev.tolist(), corr.tolist()
    locals_ = {}
    for pid in range(n):
        if pid in bad and opp.name == "crash-stop":
            continue  # crashed processes never disclose a view
        if pid in bad:
            candidates = [frozenset()]
            if lam[pid]:
                candidates.append(frozenset({pid}))
        else:
            chosen = [i for i in hideable if view_rng.integers(0, 2)]
            candidates = [frozenset(chosen[:f])]
        best = None
        for hidden in candidates:
            dv, cv = _adjusted_stats(dev_list, corr_list, final_wx, raw, lam, w_list, hidden, p)
            new_w, _, _ = epoch_advance(w_list, dv, cv, p)
            if best is None or new_w[pid] > best[0][pid]:
                best = (new_w, hidden)
        locals_[pid] = best[0]

    cons, _ = reconcile_weights(locals_, w, p)
    lhs, rhs = weight_loss(cons, bad, p.eps, p.f)
    return EpochReport(
        epoch=k, weights_in=list(weights_in), weights_out=cons, bad=bad, iters_played=len(x),
        natural_end_at=natural_end_at, unanimous_iters=unanimous, dev=dev, corr=corr,
        sg_series=sg_series, sb_series=sb_series,
        sigma_series=np.asarray(sigma).tolist() if cfg.record_series else [],
        inv_lhs=lhs, inv_rhs=rhs, inv_ok=lhs <= rhs + 1e-12)


def _adjusted_stats(dev, corr, final_wx, last_raw, last_lam, w, hidden, p):
    """Viewer statistics: true accumulations with the final row re-read through
    the viewer's (possibly lagging) view, as new lists, or ``dev`` and ``corr``
    themselves if nothing is hidden.  Entries off the hidden columns are bit-exact."""
    if not hidden:
        return dev, corr
    dv = list(dev)
    cv = [list(row) for row in corr]
    n = len(final_wx)
    adj_wx = list(final_wx)
    for i in hidden:
        x_alt = clamp_coin_sum(float(last_raw[i] - last_lam[i]), p.x_max)
        adj_wx[i] = w[i] * x_alt
        dv[i] += adj_wx[i] ** 2 - final_wx[i] ** 2
    pairs = {(min(i, j), max(i, j)) for i in hidden for j in range(n) if j != i}
    for i, j in pairs:
        delta = adj_wx[i] * adj_wx[j] - final_wx[i] * final_wx[j]
        cv[i][j] += delta
        cv[j][i] += delta
    return dv, cv
