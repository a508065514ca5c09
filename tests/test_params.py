import math
from dataclasses import replace

import pytest

from bftsim.params import ConfigInvalid, ProtocolParams, clamp_coin_sum, sgn


def test_sgn_convention():
    assert sgn(0) == 1
    assert sgn(3.5) == 1
    assert sgn(-0.001) == -1


def test_threshold_formulas_unit_case():
    # with c*ln n = 1: alpha = m(T + sqrt(T)), beta = m*sqrt(T)
    p = ProtocolParams(n=math.e.__ceil__(), f=0, m=4, T=16, c=1 / math.log(3))
    assert p.n == 3
    assert p.alpha_T == pytest.approx(4 * (16 + 4))
    assert p.beta_T == pytest.approx(16)


def test_alpha_is_mT_plus_beta():
    p = ProtocolParams(n=8, f=2, m=8, T=256, c=4)
    assert p.alpha_T == pytest.approx(p.m * p.T + p.beta_T)
    assert p.beta_T < p.alpha_T


def test_alpha_monotone_in_T():
    values = [ProtocolParams(n=8, f=2, m=8, T=t, c=4).alpha_T for t in (16, 64, 256, 1024)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_derived_quantities():
    p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=4)
    assert p.x_max == pytest.approx(math.sqrt(4 * 8 * math.log(9)))
    assert p.w_min == pytest.approx(math.sqrt(9 * math.log(9)) / 256)
    assert p.k_max == 5  # ceil(2.5 * 2)


def test_defaults_overridable_and_floor():
    p = ProtocolParams(n=5, f=1)
    assert p.m >= 8 and p.T >= 16
    assert p.fairness_window == 10 * 25
    q = replace(p, m=4, T=32)
    assert (q.m, q.T) == (4, 32)


def test_validation_rejects_bad_configs():
    with pytest.raises(ConfigInvalid):
        ProtocolParams(n=3, f=1)  # needs f < n/3
    with pytest.raises(ConfigInvalid):
        ProtocolParams(n=8, f=-1)
    with pytest.raises(ConfigInvalid):
        ProtocolParams(n=8, f=2, eps=0)
    ProtocolParams(n=7, f=2).require_quarter_resilience is not None
    with pytest.raises(ConfigInvalid):
        ProtocolParams(n=7, f=2).require_quarter_resilience()


def test_clamp_maps_to_nearest_endpoint():
    assert clamp_coin_sum(3.0, 8.0) == 3.0
    assert clamp_coin_sum(13.0, 8.0) == 8.0
    assert clamp_coin_sum(-9.0, 8.0) == -8.0


def test_derived_values_follow_overrides_and_stay_out_of_identity():
    p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=1)
    q = replace(p, T=1024)
    # recomputed, with the formula the docstring states
    assert q.alpha_T == q.m * (q.T + math.sqrt(q.T * (q.c * math.log(q.n)) ** 3))
    assert q.alpha_T > p.alpha_T and q.w_min < p.w_min
    assert replace(q, T=256).alpha_T == p.alpha_T
    # equality, hash and repr see the fields alone
    twin = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=1)
    assert twin == p and hash(twin) == hash(p) and twin != q
    assert repr(p) == (
        "ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=1, k_max=5, fairness_window=810)"
    )
    # the tracer wraps the derived values as properties
    for name in ("ln_n", "x_max", "alpha_T", "beta_T", "w_min"):
        assert isinstance(ProtocolParams.__dict__[name], property)
