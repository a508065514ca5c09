"""Deviation/correlation statistics and the simplified-game detector.

All statistics are pure functions over frozen views or plain arrays, so they
can be evaluated concurrently across epochs and runs.  Accumulation uses
compensated summation (math.fsum) to keep the cross-view disagreement
analysis, not numeric error, the dominant discrepancy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import sgn


def compute_stats(xs, weights):
    """dev(i) = sum_t (w_i X_i(t))^2 and corr(i,j) = sum_t w_i w_j X_i(t) X_j(t).

    ``xs`` is a T-by-n array-like of already-clamped column sums as seen by
    one viewer.  Weights are fixed for the whole epoch.  Returns ``(dev,
    corr)``: a list of n sums and an n-by-n symmetric matrix with a zero
    diagonal.
    """
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a T x n array of column sums")
    n = arr.shape[1]
    w = np.asarray(weights, dtype=float)
    dev = [math.fsum((w[i] * arr[:, i]) ** 2) for i in range(n)]
    corr = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            corr[i, j] = corr[j, i] = math.fsum(w[i] * w[j] * arr[:, i] * arr[:, j])
    return dev, corr


@dataclass(frozen=True)
class SimpleGameConfig:
    """Unweighted coin-flipping game: f = floor(n / (3 + eps)) bad players."""

    n: int
    T: int
    eps: float = 1.0

    def __post_init__(self):
        if self.n < 2 or self.T < 1:
            raise ValueError("need n >= 2 and T >= 1")
        if self.f * 3 >= self.n:
            raise ValueError("simplified game requires f < n/3")

    @property
    def f(self) -> int:
        return math.floor(self.n / (3 + self.eps) + 1e-9)


@dataclass
class SimpleGameResult:
    values: np.ndarray  # rounds_played x n, entries in {-1, +1}
    directions: np.ndarray
    bad: frozenset
    stopped_at: int | None  # first round (1-based) the outcome defied sigma, if any
    rounds_played: int

    @property
    def survived(self) -> bool:
        return self.stopped_at is None


def run_simplified_game(
    cfg: SimpleGameConfig, adversary, seed: int, *, stop_on_loss: bool = True
) -> SimpleGameResult:
    """Play up to T rounds: good players flip fair coins, the adversary sees them
    and fills in the bad players' values, and the game continues while the
    outcome sgn(sum) matches the adversary's direction.

    With ``stop_on_loss=False`` all T rounds are recorded regardless and
    ``stopped_at`` reports where the game would have ended; detection tests
    condition on a full record.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC01F)))
    adv_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xADF)))
    n, f, T = cfg.n, cfg.f, cfg.T
    bad = adversary.pick_bad(n, f, adv_rng)
    good = [i for i in range(n) if i not in bad]
    good_flips = rng.integers(0, 2, size=(T, len(good))) * 2 - 1

    values = np.zeros((T, n), dtype=np.int64)
    directions = np.zeros(T, dtype=np.int64)
    stopped_at = None
    played = 0
    for t in range(T):
        sigma = adversary.direction(t, adv_rng)
        row = np.zeros(n, dtype=np.int64)
        row[good] = good_flips[t]
        bad_vals = adversary.bad_values(t, sigma, row, bad, adv_rng)
        for i, v in bad_vals.items():
            row[i] = v
        values[t] = row
        directions[t] = sigma
        played = t + 1
        if sgn(int(row.sum())) != sigma and stopped_at is None:
            stopped_at = t + 1
            if stop_on_loss:
                break
    return SimpleGameResult(values[:played], directions[:played], bad, stopped_at, played)


def detect_pair(values) -> tuple[int, int]:
    """The unordered pair (i, j), i != j, maximizing <X_i, X_j>, ties broken
    by smallest (i, j) lexicographically."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("need a rounds x n matrix with n >= 2")
    gram = arr.T @ arr
    n = gram.shape[0]
    best = None
    best_val = None
    for i in range(n):
        for j in range(i + 1, n):
            v = gram[i, j]
            if best_val is None or v > best_val:
                best_val = v
                best = (i, j)
    return best

