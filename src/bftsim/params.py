"""Protocol parameters and their derived quantities.

Everything downstream (thresholds, clamps, weight floors, epoch budgets) is a
pure function of the fields here, so a frozen instance pins an entire run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def sgn(x) -> int:
    """Sign convention used throughout: sgn(0) = +1."""
    return 1 if x >= 0 else -1


class ConfigInvalid(ValueError):
    """Raised for parameter combinations the protocol cannot run with."""


@dataclass(frozen=True)
class ProtocolParams:
    """Run-wide constants.

    ``m`` (blackboard rows), ``T`` (iterations per epoch), ``k_max`` (epoch
    budget) and ``fairness_window`` default from ``n`` and ``eps`` when left
    at 0.  Desk-scale experiments override them far below the asymptotic
    defaults; the defaults keep the honest regime expressible.
    """

    n: int
    f: int
    eps: float = 0.5
    m: int = 0
    T: int = 0
    c: float = 4.0
    k_max: int = 0
    fairness_window: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigInvalid(f"need at least 2 processes, got n={self.n}")
        if self.f < 0:
            raise ConfigInvalid(f"fault budget must be >= 0, got f={self.f}")
        if 3 * self.f >= self.n:
            raise ConfigInvalid(f"broadcast layer needs f < n/3, got n={self.n} f={self.f}")
        if self.eps <= 0:
            raise ConfigInvalid(f"resilience slack must be positive, got eps={self.eps}")
        if self.c <= 0:
            raise ConfigInvalid(f"concentration constant must be positive, got c={self.c}")
        if self.m == 0:
            object.__setattr__(self, "m", max(8, 4 * math.ceil(self.n / self.eps**2)))
        if self.T == 0:
            object.__setattr__(
                self, "T", max(16, math.ceil(self.n**2 * math.log(self.n) ** 3 / self.eps**2))
            )
        if self.k_max == 0:
            object.__setattr__(self, "k_max", max(1, math.ceil(2.5 * self.f)))
        if self.fairness_window == 0:
            object.__setattr__(self, "fairness_window", 10 * self.n**2)
        if self.m < 1 or self.T < 1:
            raise ConfigInvalid("m and T must be >= 1")
        # derived quantities, computed once: the game reads them every
        # iteration.  They live outside the fields, so equality, hash and
        # repr are the fields' alone, and replace() recomputes them.
        ln_n = math.log(self.n)
        spread = math.sqrt(self.T * (self.c * ln_n) ** 3)
        object.__setattr__(self, "_ln_n", ln_n)
        object.__setattr__(self, "_alpha_T", self.m * (self.T + spread))
        object.__setattr__(self, "_beta_T", self.m * spread)
        object.__setattr__(self, "_x_max", math.sqrt(self.c * self.m * ln_n))
        object.__setattr__(self, "_w_min", math.sqrt(self.n * ln_n) / self.T)

    def require_quarter_resilience(self):
        """Real-game runs need f < n/4; blackboard-only suites may use f < n/3."""
        if 4 * self.f >= self.n:
            raise ConfigInvalid(f"weighted coin game needs f < n/4, got n={self.n} f={self.f}")

    @property
    def ln_n(self) -> float:
        return self._ln_n

    @property
    def alpha_T(self) -> float:
        """Per-player deviation threshold: m(T + sqrt(T (c ln n)^3))."""
        return self._alpha_T

    @property
    def beta_T(self) -> float:
        """Pairwise correlation threshold: m sqrt(T (c ln n)^3)."""
        return self._beta_T

    @property
    def x_max(self) -> float:
        """Deterministic clamp on column sums: sqrt(c m ln n)."""
        return self._x_max

    @property
    def w_min(self) -> float:
        """Weight floor: entries at or below this round down to zero."""
        return self._w_min


def clamp_coin_sum(x: float, x_max: float) -> float:
    """Map a column sum outside [-x_max, x_max] to the nearest endpoint."""
    if x > x_max:
        return x_max
    if x < -x_max:
        return -x_max
    return x
