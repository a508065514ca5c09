"""Deviation/correlation statistics and the simplified-game detector.

All statistics are pure functions over frozen views or plain arrays, so they
can be evaluated concurrently across epochs and runs.  Accumulation uses
compensated summation (math.fsum) to keep the cross-view disagreement
analysis, not numeric error, the dominant discrepancy.  numpy is imported
inside the functions that use it, so that importing this module, as every
message-level run does through ``agreement``, does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .adversary import random_bad_set
from .params import ConfigInvalid


def compute_stats(xs, weights):
    """dev(i) = sum_t (w_i X_i(t))^2 and corr(i,j) = sum_t w_i w_j X_i(t) X_j(t).

    ``xs`` is a T-by-n array-like of already-clamped column sums as seen by
    one viewer.  Weights are fixed for the whole epoch.  Returns ``(dev,
    corr)``: a list of n sums and an n-by-n symmetric matrix with a zero
    diagonal.
    """
    import numpy as np

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
        if self.n < 2 or self.T < 1 or self.eps <= 0:
            raise ConfigInvalid(f"simplified game needs n >= 2, T >= 1 and eps > 0, got n={self.n} "
                                f"T={self.T} eps={self.eps}")
        if self.f * 3 >= self.n:
            raise ConfigInvalid(f"simplified game requires f < n/3, got n={self.n} f={self.f}")

    @property
    def f(self) -> int:
        return math.floor(self.n / (3 + self.eps) + 1e-9)


@dataclass
class SimpleGameResult:
    values: np.ndarray  # T x n, entries in {-1, +1}
    directions: np.ndarray
    bad: frozenset
    stopped_at: int | None  # first round (1-based) the outcome defied sigma, if any

    @property
    def survived(self) -> bool:
        return self.stopped_at is None


def run_simplified_game(cfg: SimpleGameConfig, adversary, seed: int) -> SimpleGameResult:
    """Play T rounds: good players flip fair coins, the adversary sees them
    and fills in the bad players' values, all rounds in one ``moves`` call
    (its contract is stated above ``adversary.SIMPLE_ADVERSARIES``).  The
    game would continue while the outcome sgn(sum) matches the adversary's
    direction; all T rounds are recorded regardless, as detection conditions
    on a full record, and ``stopped_at`` reports where the game would have
    ended.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC01F)))
    adv_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xADF)))
    n, f, T = cfg.n, cfg.f, cfg.T
    bad = random_bad_set(n, f, adv_rng)
    good = [i for i in range(n) if i not in bad]
    good_flips = rng.integers(0, 2, size=(T, len(good))) * 2 - 1
    directions, bad_values = adversary.moves(good_flips.sum(axis=1), bad, adv_rng)
    values = np.empty((T, n), dtype=np.int64)
    values[:, good] = good_flips
    values[:, sorted(bad)] = bad_values
    # sgn(0) = +1
    defied = np.flatnonzero(np.where(values.sum(axis=1) >= 0, 1, -1) != directions)
    stopped_at = int(defied[0]) + 1 if defied.size else None
    return SimpleGameResult(values, directions, bad, stopped_at)


def detect_pair(values) -> tuple[int, int]:
    """The unordered pair (i, j), i != j, maximizing <X_i, X_j>, ties broken
    by smallest (i, j) lexicographically."""
    import numpy as np

    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("need a rounds x n matrix with n >= 2")
    gram = arr.T @ arr
    # row-major upper triangle: the first maximum is the smallest pair
    rows, cols = np.triu_indices(gram.shape[0], 1)
    k = int(np.argmax(gram[rows, cols]))
    return int(rows[k]), int(cols[k])
