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
    check_feasible,
    check_maximal,
    dump_graph,
    lipschitz_defect,
    parse_graph,
    reconcile_weights,
    rising_tide,
    weight_update_local,
)
from bftsim.params import ProtocolParams

from oracles import euler_matching, random_graph


def test_triangle_unit_capacities():
    g = CapacitatedGraph(3, [1.0, 1.0, 1.0], {(0, 1): INF, (1, 2): INF, (0, 2): INF})
    m, _ = rising_tide(g)
    assert all(v == Fraction(1, 2) for v in m.mu.values())
    assert all(m.saturation(i) == 1 for i in range(3))


def test_path_saturates_middle_vertex():
    g = CapacitatedGraph(3, [1.0, 0.5, 1.0], {(0, 1): INF, (1, 2): INF})
    m, deps = rising_tide(g)
    assert m.value(0, 1) == Fraction(1, 4)
    assert m.value(1, 2) == Fraction(1, 4)
    assert m.saturation(1) == Fraction(1, 2)
    assert deps.edges == {(0, 1), (2, 1)}  # both freezes blamed on the middle vertex


def test_self_loop_counts_once():
    g = CapacitatedGraph(1, [1.0], {(0, 0): INF})
    m, _ = rising_tide(g)
    assert m.value(0, 0) == 1


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
        assert deps.is_dag()
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


def test_fixture_roundtrip():
    g = CapacitatedGraph(3, [1.0, 0.25, 0.0], {(0, 1): 0.5, (1, 1): INF})
    text = dump_graph(g)
    g2 = parse_graph(text)
    assert g2.n == g.n and g2.c_v == g.c_v and g2.c_e == g.c_e
    assert "inf" in text
