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
epochs run whole, as array operations, with the same values bit for bit.
Both end in the same frozen views and weight update.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .adversary import counteract_bad_values
from .agreement import epoch_advance
from .matching import reconcile_weights
from .params import ProtocolParams, clamp_coin_sum, sgn


def achievable_column_sum(target: float, m: int, sigma: int):
    """Round a real target to a full-column sum: an integer of parity m within
    [-m, m].  Pushes in the sigma direction never undershoot (ceil); padding
    targets keep their sign.  Returns (raw, last_flip)."""
    if sigma * target > 0:
        raw = int(np.ceil(abs(target)))
        if (raw - m) % 2:
            raw += 1
        raw = min(raw, m) * sigma
    else:
        raw = int(round(target))
        if (raw - m) % 2:
            raw += 1 if raw <= 0 else -1
        raw = max(-m, min(m, raw))
    last = 1 if raw >= 0 else -1
    return raw, last


_FLIP_BLOCK = 1024  # flips drawn per refill: about 8 kB of list per process


class FlipStream:
    """One process's fair +-1 flips, drawn from its generator a block at a
    time and read back as column sums.

    ``take(length)`` returns ``(raw, last)`` for the next ``length`` flips:
    their sum and the last one; ``length`` must be positive.  This equals
    ``flips = rng.integers(0, 2, size=length) * 2 - 1`` followed by
    ``(flips.sum(), flips[-1])``, because on PCG64 every
    ``integers(0, 2, ...)`` value takes exactly one buffered 32-bit draw, so
    any split of the draws into calls yields the same sequence
    (``tests/test_game.py::test_flip_stream_matches_per_call_draws`` pins
    this).  The block drawn past the last flip a run takes is never seen:
    the generator must belong to the stream alone, which ``run_game``
    guarantees by keeping the process generators private.
    """

    __slots__ = ("_rng", "_cum", "_pos")

    def __init__(self, rng):
        self._rng = rng
        self._cum = [0]  # prefix sums of the drawn flips; only differences are read
        self._pos = 0  # flips of the block already taken

    def take(self, length):
        start = self._pos
        end = start + length
        cum = self._cum
        if end >= len(cum):  # refill: the untaken flips, then a fresh block
            fresh = self._rng.integers(0, 2, size=max(_FLIP_BLOCK, length)) * 2 - 1
            cum = self._cum = cum[start:-1] + list(accumulate(fresh.tolist(), initial=cum[-1]))
            start, end = 0, length
        self._pos = end
        return cum[end] - cum[start], cum[end] - cum[end - 1]

    def take_block(self, rows, length):
        """``rows`` calls of ``take(length)`` in one: the column sums and the
        last flips, as two arrays of ``rows`` values.  A refill draws what the
        block lacks, or a whole block if that is more."""
        need = rows * length
        flips = np.diff(self._cum[self._pos:])  # the untaken flips
        if need > len(flips):
            fresh = self._rng.integers(0, 2, size=max(_FLIP_BLOCK, need - len(flips))) * 2 - 1
            flips = np.concatenate((flips, fresh))
        cols = flips[:need].reshape(rows, length)
        self._cum = list(accumulate(flips[need:].tolist(), initial=0))
        self._pos = 0
        return cols.sum(axis=1), cols[:, -1]


class GameOpponent:
    """Game-level adversary: no corruption, fair play.

    An opponent that is not ``forcing`` never reads the good flips and never
    leaves a good column partial, so no iteration depends on another and
    ``run_game`` plays each of its epochs whole, from ``epoch_moves``.
    """

    name = "honest-random"
    forcing = False

    def __init__(self, **opts):
        self.opts = opts

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

    def pick_bad(self, n, f, rng):
        return frozenset(int(i) for i in rng.choice(n, size=f, replace=False))


class CounteractGame(GameOpponent):
    """Corrupts f immediately; starves the f heaviest good columns (leaving a
    few stray flips to hide later) and offsets the observed good sum so some
    good view still shows sigma.  It reads the good sum of each iteration, so
    it is played iteration by iteration."""

    name = "counteract"
    forcing = True

    def pick_bad(self, n, f, rng):
        return frozenset(int(i) for i in rng.choice(n, size=f, replace=False))

    def direction(self, t, rng) -> int:
        return int(rng.integers(0, 2)) * 2 - 1

    def plan_lengths(self, t, weights, good, bad, m, rng):
        """Column lengths for this iteration: {pid: length}; omitted = full."""
        heaviest = sorted(good, key=lambda i: (-weights[i], i))[: len(bad)]
        return {i: int(rng.integers(1, max(2, m))) for i in heaviest}

    def bad_columns(self, t, sigma, weights, good_weighted_sum, hide_gain, bad, m, x_max, rng):
        """Raw sums and last flips for corrupted columns: {pid: (raw, last)}."""
        order = sorted(bad)
        targets = counteract_bad_values(
            sigma, good_weighted_sum, [weights[i] for i in order], x_max, m, slack=hide_gain
        )
        return {i: achievable_column_sum(tgt, m, sigma) for i, tgt in zip(order, targets)}


class ColludingGame(GameOpponent):
    """Corrupted players copy one leader's honest-looking flips exactly."""

    name = "colluding"

    def pick_bad(self, n, f, rng):
        return frozenset(int(i) for i in rng.choice(n, size=f, replace=False))

    def epoch_moves(self, T, m, rng):
        # iteration by iteration: one draw for sigma(t), then the leader's m
        # flips; every integers(0, 2) value takes one 32-bit draw, so one call
        # yields the values of the 2T calls that order makes
        draws = rng.integers(0, 2, size=T * (1 + m)).reshape(T, 1 + m) * 2 - 1
        leader = draws[:, 1:]
        return draws[:, 0], (leader.sum(axis=1), leader[:, -1])


GAME_OPPONENTS = {
    cls.name: cls for cls in (GameOpponent, CrashGame, CounteractGame, ColludingGame)
}


@dataclass
class GameConfig:
    params: ProtocolParams
    adversary: str = "honest-random"
    adversary_args: dict = field(default_factory=dict)
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
    p = cfg.params
    if p.f > 0:
        p.require_quarter_resilience()
    opp_cls = GAME_OPPONENTS.get(cfg.adversary)
    if opp_cls is None:
        raise KeyError(f"unknown game adversary {cfg.adversary!r}; have {sorted(GAME_OPPONENTS)}")
    opp = opp_cls(**cfg.adversary_args)
    play = _play_iterations if opp.forcing else _play_whole_epoch

    streams = [FlipStream(np.random.default_rng(np.random.SeedSequence((cfg.seed, 7, i))))
               for i in range(p.n)]
    adv_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xAD)))
    view_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x51DE)))

    bad = opp.pick_bad(p.n, p.f, adv_rng)
    good = [i for i in range(p.n) if i not in bad]
    weights = initial = [0.0 if cfg.zero_bad_weights and i in bad else 1.0 for i in range(p.n)]

    reports = []
    ended = None
    for k in range(1, cfg.epochs + 1):
        w = np.asarray(weights, dtype=float)
        played = play(cfg, p, opp, w, bad, good, streams, adv_rng)
        rep = _close_epoch(p, opp, k, weights, w, bad, played, view_rng)
        reports.append(rep)
        if rep.natural_end_at is not None and cfg.stop_on_natural_end:
            ended = (k, rep.natural_end_at)
            break
        # undecided after the endgame epoch: restart with unit weights
        weights = initial if k % (p.k_max + 1) == 0 else rep.weights_out
    return GameReport(cfg.seed, bad, reports, ended)


class _Played(NamedTuple):
    """One epoch's play, before the end-of-epoch views."""

    iters_played: int
    natural_end_at: int | None
    unanimous_iters: int
    dev: np.ndarray
    corr: np.ndarray  # diagonal not yet zeroed
    sg_series: list
    sb_series: list
    sigma_series: list
    raw: list | np.ndarray  # the last iteration's column sums,
    lam: list | np.ndarray  # its last flips,
    hideable: list  # and the good partial columns a view may miss


_CORR_CHUNK = 1 << 15  # elements of the (rows, n, n) outer products formed at once


def _play_whole_epoch(cfg, p, opp, w, bad, good, streams, adv_rng):
    """Plays an epoch of a non-forcing opponent as array operations, with the
    values of the iteration loop bit for bit.  Numpy reduces along axis 0 one
    row after another, so dev and corr stay sequential sums over t; a row sum
    of a 2-D array is not the 1-D pairwise sum, so sg is summed row by row."""
    n, m, T, x_max = p.n, p.m, p.T, p.x_max
    sigma, bad_col = opp.epoch_moves(T, m, adv_rng)
    raw = np.zeros((T, n), dtype=np.int64)
    lam = np.zeros(n, dtype=np.int64)
    for i in good:
        raw[:, i], lasts = streams[i].take_block(T, m)
        lam[i] = lasts[-1]
    if bad_col is not None:
        for i in bad:
            raw[:, i], lam[i] = bad_col[0], bad_col[1][-1]
    wx = w * raw.clip(-x_max, x_max)
    dev = (wx**2).sum(axis=0)
    corr = np.zeros((n, n))
    step = max(1, _CORR_CHUNK // (n * n))
    for s in range(0, T, step):
        rows = wx[s:s + step]
        outer = rows[:, :, None] * rows[:, None, :]
        outer[0] += corr
        corr = outer.sum(axis=0)
    sg_series, sb_series, sigma_series = [], [], []
    if cfg.record_series:
        sg_series = [float(row.sum()) for row in wx[:, good]]
        sb = np.zeros(T)
        for i in bad:  # the loop's order: sum(wx[i] for i in bad)
            sb = sb + wx[:, i]
        sb_series = sb.tolist()
        sigma_series = sigma.tolist()
    # no partial good column: every iteration is unanimous, none hideable
    return _Played(T, None, T, dev, corr, sg_series, sb_series, sigma_series, raw[-1], lam, [])


def _play_iterations(cfg, p, opp, w, bad, good, streams, adv_rng):
    """Plays an epoch of a forcing opponent one iteration at a time: its
    moves read the good sum and plan partial columns."""
    n, m, T, f, x_max = p.n, p.m, p.T, p.f, p.x_max
    good_ix = np.array(good)
    bad_order = sorted(bad)
    dev = np.zeros(n)
    corr = np.zeros((n, n))
    sg_series = []
    sb_series = []
    sigma_series = []
    natural_end_at = None
    unanimous = 0
    iters = 0

    for t in range(1, T + 1):
        iters = t
        sigma = opp.direction(t, adv_rng)
        lengths = opp.plan_lengths(t, w, good, bad_order, m, adv_rng)
        raw = [0] * n
        lam = [0] * n
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
            raw[i] = braw
            lam[i] = blast
            x[i] = clamp_coin_sum(float(braw), x_max)
        wx = w * x
        sb = float(sum(wx[i] for i in bad))
        total = float(wx.sum())

        dev += wx**2
        corr += np.outer(wx, wx)
        if cfg.record_series:
            sg_series.append(sg)
            sb_series.append(sb)
            sigma_series.append(sigma)

        smax = total + sum(d for d in deltas.values() if d > 0)
        smin = total + sum(d for d in deltas.values() if d < 0)
        if sgn(smax) == sgn(smin):
            unanimous += 1
        if natural_end_at is None and sigma * total + abs(gain) < 0:
            natural_end_at = t
            if cfg.stop_on_natural_end:
                break

    return _Played(iters, natural_end_at, unanimous, dev, corr, sg_series, sb_series,
                   sigma_series, raw, lam, hideable)


def _close_epoch(p, opp, k, weights_in, w, bad, played, view_rng):
    """The end of an epoch, for both ways of playing it: each viewer's frozen
    view, its epoch_advance, the consensus weights and the invariant."""
    n, f, x_max = p.n, p.f, p.x_max
    dev, corr = played.dev, played.corr
    raw, lam, hideable = played.raw, played.lam, played.hideable
    np.fill_diagonal(corr, 0.0)

    # frozen views: each viewer may miss the final write of the unforced
    # columns; corrupted viewers choose self-servingly
    final_wx = w * np.array(raw).clip(-x_max, x_max)
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
            dv, cv = _adjusted_stats(dev, corr, final_wx, raw, lam, w, hidden, p)
            new_w, _, _ = epoch_advance(list(w), dv, cv, p)
            if best is None or new_w[pid] > best[0][pid]:
                best = (new_w, hidden)
        locals_[pid] = best[0]

    cons, _ = reconcile_weights(locals_, w, p)
    lhs, rhs = weight_loss(cons, bad, p.eps, p.f)
    return EpochReport(
        epoch=k,
        weights_in=list(weights_in),
        weights_out=cons,
        bad=bad,
        iters_played=played.iters_played,
        natural_end_at=played.natural_end_at,
        unanimous_iters=played.unanimous_iters,
        dev=dev,
        corr=corr,
        sg_series=played.sg_series,
        sb_series=played.sb_series,
        sigma_series=played.sigma_series,
        inv_lhs=lhs,
        inv_rhs=rhs,
        inv_ok=lhs <= rhs + 1e-12,
    )


def _adjusted_stats(dev, corr, final_wx, last_raw, last_lam, w, hidden, p):
    """Viewer statistics: true accumulations with the final iteration's row
    re-read through the viewer's (possibly lagging) view.  Entries not
    involving a hidden column are untouched (bit-exact)."""
    dv = dev.copy()
    cv = corr.copy()
    if not hidden:
        return dv, cv
    n = len(final_wx)
    adj_wx = final_wx.copy()
    for i in hidden:
        x_alt = clamp_coin_sum(float(last_raw[i] - last_lam[i]), p.x_max)
        adj_wx[i] = w[i] * x_alt
        dv[i] += adj_wx[i] ** 2 - final_wx[i] ** 2
    pairs = {(min(i, j), max(i, j)) for i in hidden for j in range(n) if j != i}
    for i, j in pairs:
        delta = adj_wx[i] * adj_wx[j] - final_wx[i] * final_wx[j]
        cv[i, j] += delta
        cv[j, i] += delta
    return dv, cv
