from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim.matching import (
    INF,
    CapacitatedGraph,
    NegativeCapacity,
    VertexSetMismatch,
    build_excess_graph,
    reconcile_weights,
    rising_tide,
    weight_update_local,
)
from bftsim.params import ProtocolParams

from oracles import (
    check_feasible,
    check_maximal,
    euler_matching,
    is_dag,
    lipschitz_defect,
    random_graph,
    reference_rising_tide,
    reference_weight_update_local,
)


def test_triangle_unit_capacities():
    g = CapacitatedGraph(3, [1.0, 1.0, 1.0], {(0, 1): INF, (1, 2): INF, (0, 2): INF})
    m, _ = rising_tide(g)
    assert all(v == Fraction(1, 2) for v in m.mu.values())
    assert m.saturations() == [1, 1, 1]


def test_path_saturates_middle_vertex():
    g = CapacitatedGraph(3, [1.0, 0.5, 1.0], {(0, 1): INF, (1, 2): INF})
    m, deps = rising_tide(g)
    assert m.value(0, 1) == Fraction(1, 4)
    assert m.value(1, 2) == Fraction(1, 4)
    assert m.saturations() == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    assert deps.edges == {(0, 1), (2, 1)}  # both freezes blamed on the middle vertex


def test_self_loop_counts_once():
    g = CapacitatedGraph(1, [1.0], {(0, 0): INF})
    m, _ = rising_tide(g)
    assert m.value(0, 0) == 1
    assert m.saturations() == [1]


def test_zero_edge_capacities_give_empty_matching():
    g = CapacitatedGraph(3, [1.0, 1.0, 1.0], {(0, 1): 0.0, (1, 2): 0.0})
    m, _ = rising_tide(g)
    assert all(v == 0 for v in m.mu.values())


def test_negative_capacity_rejected():
    with pytest.raises(NegativeCapacity):
        CapacitatedGraph(2, [1.0, -0.1], {})
    with pytest.raises(NegativeCapacity):
        CapacitatedGraph(2, [1.0, 1.0], {(0, 1): -1.0})


def test_matches_euler_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    graphs = []
    for _ in range(40):
        c_v, c_e = random_graph(rng, n_max=6, cap_scale=0.2)
        graphs.append((c_v, c_e))
    n_max = max(len(c_v) for c_v, _ in graphs)
    padded = [(c_v + [0.0] * (n_max - len(c_v)), c_e) for c_v, c_e in graphs]
    oracle = euler_matching(padded, step=1e-6)
    for (c_v, c_e), dense in zip(graphs, oracle):
        g = CapacitatedGraph(len(c_v), c_v, c_e)
        m, _ = rising_tide(g)
        for (i, j), cap in c_e.items():
            assert float(m.value(i, j)) == pytest.approx(dense[i, j], abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_feasible_and_maximal_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    c_v, c_e = random_graph(rng)
    g = CapacitatedGraph(len(c_v), c_v, c_e)
    m, _ = rising_tide(g)
    mf = type(m)(m.n, {e: float(v) for e, v in m.mu.items()}, m.steps)
    assert check_feasible(g, mf)
    assert check_maximal(g, mf)


def test_dependency_properties_on_tie_free_graphs():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        c_v, c_e = random_graph(rng, n_max=6, p_inf=0.1)
        if not c_e:
            continue
        g = CapacitatedGraph(len(c_v), c_v, c_e)
        m, deps = rising_tide(g)
        # tie-free: no step saturates two or more vertices
        if any(len(s.saturated_vertices) > 1 for s in m.steps):
            continue
        checked += 1
        assert is_dag(deps)
        # equal in-values: all dependency edges into a vertex carry equal mu
        for v in range(g.n):
            vals = {m.value(u, v) for (u, vv) in deps.edges if vv == v}
            assert len(vals) <= 1
        # monotone along directed walks (paths of length 2 suffice transitively)
        for (u, v) in deps.edges:
            for (v2, w) in deps.edges:
                if v2 == v:
                    assert m.value(u, v) >= m.value(v2, w)
        # freeze-order monotonicity across steps with distinct levels
        levels = [s.level for s in m.steps]
        assert levels == sorted(levels)
    assert checked > 50


def test_lipschitz_identical_graphs():
    g = CapacitatedGraph(3, [1.0, 0.5, 1.0], {(0, 1): INF, (1, 2): INF})
    lhs, bound = lipschitz_defect(g, g)
    assert lhs == 0 and bound == 0


def test_lipschitz_isolated_vertex_reduction():
    g = CapacitatedGraph(3, [1.0, 1.0, 0.7], {(0, 1): 0.2})
    h = CapacitatedGraph(3, [1.0, 1.0, 0.5], {(0, 1): 0.2})
    lhs, bound = lipschitz_defect(g, h)
    assert float(lhs) == pytest.approx(0.2)
    assert lhs == bound  # the whole budget shows up as residual movement


def test_lipschitz_vertex_set_mismatch():
    g = CapacitatedGraph(2, [1.0, 1.0], {})
    h = CapacitatedGraph(3, [1.0, 1.0, 1.0], {})
    with pytest.raises(VertexSetMismatch):
        lipschitz_defect(g, h)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_lipschitz_bound_random_perturbations(seed):
    rng = np.random.default_rng(seed)
    c_v, c_e = random_graph(rng, n_max=6, p_inf=0.0)
    g = CapacitatedGraph(len(c_v), c_v, c_e)
    c_v2 = [max(0.0, v + rng.uniform(-0.1, 0.1)) for v in c_v]
    c_e2 = {e: max(0.0, c + rng.uniform(-0.1, 0.1)) for e, c in c_e.items()}
    h = CapacitatedGraph(len(c_v2), c_v2, c_e2)
    lhs, bound = lipschitz_defect(g, h)
    assert lhs <= bound + Fraction(1, 10**9)


def test_excess_graph_within_thresholds_is_empty():
    p = ProtocolParams(n=4, f=1, m=4, T=16, c=4)
    w = [1.0, 0.8, 0.5, 1.0]
    dev = [0.0] * 4
    corr = np.zeros((4, 4))
    g = build_excess_graph(w, dev, corr, p)
    assert g.c_e == {}
    assert g.c_v == w


def test_excess_graph_exact_unit_capacity():
    p = ProtocolParams(n=4, f=1, m=4, T=16, c=4)
    w = [1.0] * 4
    dev = [0.0] * 4
    dev[2] = p.alpha_T + p.eps * p.f * p.alpha_T / 16  # excess of eps*f*alpha/16
    g = build_excess_graph(w, dev, np.zeros((4, 4)), p)
    assert g.edge_cap(2, 2) == pytest.approx(1.0)


def test_excess_graph_negative_excess_clamped_to_zero():
    p = ProtocolParams(n=3, f=0, m=4, T=16)
    corr = np.zeros((3, 3))
    corr[0, 1] = corr[1, 0] = -5.0
    g = build_excess_graph([1.0] * 3, [0.0] * 3, corr, p)
    assert g.edge_cap(0, 1) == 0


def test_weight_update_deductions():
    g = CapacitatedGraph(3, [1.0, 0.5, 1.0], {(0, 1): INF, (1, 2): INF})
    m, _ = rising_tide(g)
    out = weight_update_local([1.0, 0.5, 1.0], m)
    assert out[0] == pytest.approx(0.75)
    assert out[1] == pytest.approx(0.0)  # saturated vertex goes to zero
    assert out[2] == pytest.approx(0.75)


def test_weight_update_zero_matching_is_identity():
    g = CapacitatedGraph(2, [0.9, 0.4], {})
    m, _ = rising_tide(g)
    assert weight_update_local([0.9, 0.4], m) == [0.9, 0.4]


# -- the raise and the update against their pre-change references ----------------


def _hexes(values):
    return [float(v).hex() for v in values]


def _update_matches_reference(c_v, c_e):
    """rising_tide and weight_update_local against the references on one
    graph, with c_v (also the weights) as plain floats and as numpy scalars.
    Returns the updated weights."""
    out = []
    for caps in (list(c_v), list(np.array(c_v, dtype=float))):
        g = CapacitatedGraph(len(caps), caps, dict(c_e))
        got, got_deps = rising_tide(g)
        want, want_deps = reference_rising_tide(g)
        assert list(got.mu.items()) == list(want.mu.items())
        assert all(type(v) is Fraction for v in got.mu.values())
        assert got.steps == want.steps
        assert got_deps.edges == want_deps.edges
        new = weight_update_local(caps, got)
        assert all(type(x) is float for x in new)
        assert _hexes(new) == _hexes(reference_weight_update_local(caps, want))
        out.append(_hexes(new))
    assert out[0] == out[1]  # numpy scalars in, the same bits out
    return out[0]


def test_rising_tide_matches_reference_on_random_graphs():
    # self-loops, infinite edges and ties (a quarter of the graphs share
    # one capacity value across every finite edge)
    rng = np.random.default_rng(8021)
    nonempty = 0
    for k in range(300):
        c_v, c_e = random_graph(rng, n_max=9)
        if k % 4 == 0:
            c_e = {e: cap if cap is INF else 0.25 for e, cap in c_e.items()}
        nonempty += any(cap > 0 for cap in c_e.values())
        _update_matches_reference(c_v, c_e)
    assert nonempty > 250


def test_rising_tide_matches_reference_on_edgeless_graphs():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 9):
        c_v = [float(x) for x in rng.uniform(0, 1, size=n)]
        assert _update_matches_reference(c_v, {}) == _hexes(c_v)
        zero_caps = {(0, 0): 0.0, (0, n - 1): 0.0}  # present but never raised
        assert _update_matches_reference(c_v, zero_caps) == _hexes(c_v)
        m, deps = rising_tide(CapacitatedGraph(n, c_v, zero_caps))
        assert m.mu == {e: 0 for e in zero_caps} and m.steps == [] and deps.edges == set()


def test_rising_tide_matches_reference_with_isolated_vertices():
    # edges among the first vertices only; the rest are never touched, and
    # an untouched vertex's capacity is never read
    rng = np.random.default_rng(12)
    for _ in range(100):
        c_v, c_e = random_graph(rng, n_max=6)
        extra = [float(x) for x in rng.uniform(0, 1, size=int(rng.integers(1, 4)))]
        c_v = extra[:1] + c_v + extra[1:]  # isolated vertex 0 and trailing ones
        shifted = {(i + 1, j + 1): cap for (i, j), cap in c_e.items()}
        new = _update_matches_reference(c_v, shifted)
        assert new[0] == c_v[0].hex()
        assert new[len(new) - (len(extra) - 1):] == _hexes(extra[1:])


def test_reconcile_weights_floor_and_self_entry():
    p = ProtocolParams(n=3, f=0, m=4, T=16)
    local = {
        0: [p.w_min, 0.5, 0.5],  # exactly w_min floors to 0 (strict >)
        1: [0.9, 1.0, 0.9],
        2: [0.9, 0.9, 0.8],
    }
    w, unresolved = reconcile_weights(local, [1.0, 1.0, 1.0], p)
    assert w == [0.0, 1.0, 0.8]
    assert unresolved == frozenset()


def test_reconcile_missing_self_view_reported():
    p = ProtocolParams(n=3, f=0, m=4, T=16)
    w, unresolved = reconcile_weights({0: [0.7, 1, 1]}, [1.0, 0.6, 1.0], p)
    assert unresolved == frozenset({1, 2})
    assert w == [0.7, 0.6, 1.0]


# -- the raise at the benchmark's scale --------------------------------------


def _raise_matches_reference(g):
    got, got_deps = rising_tide(g)
    want, want_deps = reference_rising_tide(g)
    assert list(got.mu.items()) == list(want.mu.items())
    assert got.steps == want.steps
    assert got_deps.edges == want_deps.edges
    return got


def _stress_graph(rng, n):
    """The benchmark's stress shape: vertex capacities in [0, 1), an edge on
    each pair with probability 0.55 and a self-loop with probability 0.35,
    each infinite with probability 0.15 and otherwise in [0, 0.6)."""
    c_v = [rng.uniform(0, 1) for _ in range(n)]
    c_e = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < (0.35 if i == j else 0.55):
                c_e[(i, j)] = INF if rng.random() < 0.15 else rng.uniform(0, 0.6)
    return CapacitatedGraph(n, c_v, c_e)


@pytest.mark.parametrize("n", [20, 40])
def test_rising_tide_matches_reference_on_stress_graphs(n):
    import random

    rng = random.Random(f"stress/{n}")
    steps = 0
    for _ in range(6):
        steps += len(_raise_matches_reference(_stress_graph(rng, n)).steps)
    assert steps > 6 * n // 2  # many freeze steps, not one big tie


@pytest.mark.parametrize("n, f", [(9, 2), (20, 4), (40, 9)])
def test_rising_tide_matches_reference_on_game_excess_graphs(monkeypatch, n, f):
    # the f-clique graphs a seeded colluding game hands to epoch_advance
    from bftsim import agreement
    from bftsim.game import GameConfig, run_game

    graphs = []
    real = agreement.build_excess_graph

    def capture(*args):
        graphs.append(real(*args))
        return graphs[-1]

    monkeypatch.setattr(agreement, "build_excess_graph", capture)
    params = ProtocolParams(n=n, f=f, eps=0.5, m=8, T=256, c=1)
    run_game(GameConfig(params=params, adversary="colluding", epochs=5, seed=3,
                        record_series=False))
    cliques = [g for g in graphs if any(cap > 0 for cap in g.c_e.values())]
    assert cliques and all(len(g.c_e) == f * (f - 1) // 2 for g in cliques)
    for g in graphs:
        _raise_matches_reference(g)


def test_rising_tide_matches_reference_with_tied_caps_and_infinite_vertices():
    import random

    rng = random.Random("ties")
    for k in range(40):
        g = _stress_graph(rng, 12 if k % 2 else 20)
        tie = rng.choice([0.0625, 0.25, 0.5])  # every finite edge cap equal
        tied = {e: cap if cap is INF else tie for e, cap in g.c_e.items()}
        _raise_matches_reference(CapacitatedGraph(g.n, g.c_v, tied))
        # half the vertices saturate at the tie level too, unless an incident
        # edge froze first: one step freezes by cap and by vertex at once
        deg = [0] * g.n
        for i, j in tied:
            deg[i] += 1
            deg[j] += j != i
        c_v = [tie * d if rng.random() < 0.5 else cap for d, cap in zip(deg, g.c_v)]
        _raise_matches_reference(CapacitatedGraph(g.n, c_v, tied))
        # a third of the vertices unbounded; every other constraint finite
        c_v = [INF if rng.random() < 0.33 else cap for cap in g.c_v]
        finite = {e: tie if cap is INF else cap for e, cap in g.c_e.items()}
        _raise_matches_reference(CapacitatedGraph(g.n, c_v, finite))


# -- the raise against its reference on every capacity type ------------------


# small values shared across types, so that caps and levels of different
# types tie; Fraction(1, 10) and 0.1 do not
_TIES = (0, 1, 3, 0.1, 0.25, 0.5, Fraction(1, 10), Fraction(1, 3))


def _caps(huge):
    """A finite capacity of a type the raise reads: float, int, Fraction,
    numpy float or numpy int, subnormal ones included, and up to the largest
    float (ints beyond it) when ``huge``, else below 1e300."""
    top = 1.7976931348623157e308 if huge else 1e300
    return st.one_of(
        st.tuples(st.sampled_from(_TIES), st.sampled_from([float, int, Fraction, np.float64, np.int64]))
        .map(lambda t: t[1](t[0])),
        st.floats(min_value=0.0, max_value=top),
        st.floats(min_value=0.0, max_value=top).map(np.float64),
        st.sampled_from([5e-324, 2.2250738585072014e-308, top]),
        st.integers(0, 10**400 if huge else 10**300),
        st.integers(0, 2**63 - 1).map(np.int64),
        st.fractions(min_value=0, max_value=int(top), max_denominator=10**12),
    )


@st.composite
def _mixed_graphs(draw):
    """Up to 6 vertices and edges and self-loops in a drawn order, with zero
    and infinite caps: unbounded vertices next to caps up to the largest
    float, and numpy ints next to floats and big ints."""
    n, huge = draw(st.integers(1, 6)), draw(st.booleans())
    cap = st.one_of(*[_caps(huge)] * 5, st.just(INF))
    c_v = draw(st.lists(cap, min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    return CapacitatedGraph(n, c_v, {e: draw(cap) for e in chosen})


@settings(max_examples=300, deadline=None)
@given(_mixed_graphs())
def test_rising_tide_matches_reference_on_mixed_capacity_types(g):
    try:
        want, want_deps = reference_rising_tide(g)
    except AssertionError as exc:
        assert "no progress" in str(exc)
        with pytest.raises(AssertionError, match="no progress"):
            rising_tide(g)
        return
    got, got_deps = rising_tide(g)
    assert list(got.mu.items()) == list(want.mu.items())
    assert got.steps == want.steps
    assert got_deps.edges == want_deps.edges
    assert all(type(v) is Fraction for v in got.mu.values())
    assert all(type(step.level) is Fraction for step in got.steps)


def test_numpy_integer_capacities_read_as_ints():
    # numpy ints have no as_integer_ratio; the raise reads them as plain
    # ints, so their products cannot overflow 64 bits
    big = 2**62
    c_v, c_e = [3, big, 2, 1], {(0, 1): 2, (0, 2): INF, (1, 1): big - 1, (2, 3): 1}
    want, want_deps = rising_tide(CapacitatedGraph(4, c_v, c_e))
    got, got_deps = rising_tide(CapacitatedGraph(
        4, [np.int64(x) for x in c_v],
        {e: x if x is INF else np.int64(x) for e, x in c_e.items()}))
    assert list(got.mu.items()) == list(want.mu.items())
    assert got.steps == want.steps and got_deps.edges == want_deps.edges
    assert all(type(v) is Fraction and type(v.numerator) is int for v in got.mu.values())


@pytest.mark.parametrize("raise_", [rising_tide, reference_rising_tide])
def test_unbounded_raise_refused(raise_):
    # only unbounded vertices and infinite edges are live: nothing can
    # saturate, and both raises refuse instead of looping forever
    for g in (CapacitatedGraph(2, [INF, INF], {(0, 1): INF}),
              CapacitatedGraph(3, [INF, 1.0, INF], {(0, 2): INF, (1, 1): 0.0})):
        with pytest.raises(AssertionError, match="no progress"):
            raise_(g)
