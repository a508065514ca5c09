"""Capacitated graphs, the lockstep-raise maximal fractional matching, and weight updates.

The matching routine raises all active edge values in lockstep.  An edge
freezes the moment it or one of its endpoints saturates, so within one step
every active edge carries the same value (the current tide level).  Ties are
not perturbed away: everything that saturates in a step freezes in that step,
and the dependency graph records every induced direction.

Self-loops count once against their vertex capacity.

Arithmetic is exact (``fractions.Fraction``), so saturation is tested with
no tolerance.  Infinite edge capacities use ``math.inf`` and never enter the
step-size minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

INF = math.inf


class NegativeCapacity(ValueError):
    """Malformed input: a capacity is negative."""


class VertexSetMismatch(ValueError):
    """Comparing or combining graphs over different vertex sets."""


def _canon(i, j):
    return (i, j) if i <= j else (j, i)


@dataclass
class CapacitatedGraph:
    """Undirected graph on vertices 0..n-1 with vertex and edge capacities.

    ``c_e`` maps canonical pairs (i, j) with i <= j to capacities; absent
    pairs have capacity 0.  Self-loops (i, i) are allowed.
    """

    n: int
    c_v: list
    c_e: dict

    def __post_init__(self):
        if len(self.c_v) != self.n:
            raise VertexSetMismatch(f"{len(self.c_v)} vertex capacities for n={self.n}")
        for i, cap in enumerate(self.c_v):
            if cap < 0:
                raise NegativeCapacity(f"c_v({i}) = {cap}")
        for (i, j), cap in self.c_e.items():
            if not (0 <= i <= j < self.n):
                raise VertexSetMismatch(f"edge ({i},{j}) outside vertex range")
            if cap < 0:
                raise NegativeCapacity(f"c_e({i},{j}) = {cap}")

    def edge_cap(self, i, j):
        return self.c_e.get(_canon(i, j), 0)


@dataclass
class FreezeStep:
    """One round of the raise: the tide level reached and what froze there."""

    step: int
    level: object
    frozen_edges: tuple
    saturated_vertices: tuple
    saturated_edges: tuple


@dataclass
class FractionalMatching:
    n: int
    mu: dict
    steps: list = field(default_factory=list)

    def value(self, i, j):
        return self.mu.get(_canon(i, j), 0)

    def saturation(self, i):
        """Sum of incident edge values, counting a self-loop once."""
        total = 0
        for (a, b), v in self.mu.items():
            if a == i or b == i:
                total += v
        return total

    def iter_edges(self):
        return self.mu.items()


@dataclass
class DependencyGraph:
    """Directed record of freezes: u -> v when edge (u, v) froze while v was saturated."""

    n: int
    edges: set

    def is_dag(self) -> bool:
        adj = {i: [] for i in range(self.n)}
        indeg = {i: 0 for i in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            indeg[v] += 1
        queue = [i for i in range(self.n) if indeg[i] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for v in adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        return seen == self.n


def _to_exact(x):
    if x is INF:
        return INF
    return Fraction(x)


def rising_tide(g: CapacitatedGraph):
    """Raise all positive-capacity edges in lockstep, freezing at saturation.

    Returns ``(FractionalMatching, DependencyGraph)``.  Terminates in at most
    |E| rounds; the result is a maximal feasible fractional matching.
    """
    zero = Fraction(0)
    c_v = [_to_exact(x) for x in g.c_v]
    caps = {}
    for e, cap in g.c_e.items():
        caps[e] = _to_exact(cap)

    active = [e for e, cap in caps.items() if cap > 0]
    mu = {e: zero for e in caps}
    deg = [0] * g.n
    base = [zero] * g.n  # frozen incident mass per vertex
    for i, j in active:
        deg[i] += 1
        if j != i:
            deg[j] += 1

    level = zero
    steps = []
    dep_edges = set()
    step_no = 0
    while active:
        delta = None
        for i, j in active:
            cap = caps[(i, j)]
            if cap is not INF:
                cand = cap - level
                if delta is None or cand < delta:
                    delta = cand
        for i in range(g.n):
            if deg[i]:
                cand = (c_v[i] - base[i] - deg[i] * level) / deg[i]
                if delta is None or cand < delta:
                    delta = cand
        if delta is None:  # every constraint infinite; cannot happen with finite c_v
            raise AssertionError("unbounded raise")
        if delta < zero:
            delta = zero
        level = level + delta

        sat_v = set()
        for i in range(g.n):
            if deg[i] and c_v[i] - (base[i] + deg[i] * level) <= zero:
                sat_v.add(i)
        sat_e = set()
        for e in active:
            cap = caps[e]
            if cap is not INF and cap - level <= zero:
                sat_e.add(e)

        frozen = []
        still = []
        for e in active:
            i, j = e
            if e in sat_e or i in sat_v or j in sat_v:
                frozen.append(e)
            else:
                still.append(e)
        if not frozen:
            # the constraint that set delta saturates exactly: cannot happen
            raise AssertionError("no progress in rising tide step")
        for e in frozen:
            i, j = e
            mu[e] = level
            deg[i] -= 1
            base[i] += level
            if j != i:
                deg[j] -= 1
                base[j] += level
            if i in sat_v and i != j:
                dep_edges.add((j, i))
            if j in sat_v and i != j:
                dep_edges.add((i, j))
        active = still
        steps.append(
            FreezeStep(step_no, level, tuple(frozen), tuple(sorted(sat_v)), tuple(sorted(sat_e)))
        )
        step_no += 1

    return FractionalMatching(g.n, mu, steps), DependencyGraph(g.n, dep_edges)


def check_feasible(g: CapacitatedGraph, matching: FractionalMatching, tol=1e-9) -> bool:
    for e, v in matching.iter_edges():
        if v < -tol or v > g.c_e.get(e, 0) + tol:
            return False
    for i in range(g.n):
        if matching.saturation(i) > g.c_v[i] + tol:
            return False
    return True


def check_maximal(g: CapacitatedGraph, matching: FractionalMatching, tol=1e-9) -> bool:
    """No edge with residual edge capacity may have both endpoints unsaturated."""
    sat = [matching.saturation(i) >= g.c_v[i] - tol for i in range(g.n)]
    for e, cap in g.c_e.items():
        i, j = e
        if matching.value(i, j) < cap - tol and not sat[i] and not sat[j]:
            return False
    return True


def build_excess_graph(weights, dev, corr, params) -> CapacitatedGraph:
    """Excess graph for one epoch: vertex capacities are current weights,
    self-loops carry deviation excess, edges carry doubled correlation excess.

    ``corr`` is a symmetric n-by-n matrix (anything indexable as corr[i][j]);
    only its upper triangle is read.
    """
    n = params.n
    if params.f == 0:
        return CapacitatedGraph(n, list(weights), {})
    alpha_T, beta_T = params.alpha_T, params.beta_T
    coeff = 16.0 / (params.eps * params.f * alpha_T)
    c_e = {}
    for i in range(n):
        excess = max(0.0, dev[i] - weights[i] ** 2 * alpha_T)
        if excess > 0:
            c_e[(i, i)] = min(coeff * excess, weights[i])
    rows = corr.tolist() if hasattr(corr, "tolist") else corr  # numpy: read once
    for i in range(n):
        row, wi = rows[i], weights[i]
        for j in range(i + 1, n):
            wj = weights[j]
            excess = max(0.0, row[j] - wi * wj * beta_T)
            if excess > 0:
                cap = min(coeff * 2.0 * excess, wi, wj)
                if cap > 0:
                    c_e[(i, j)] = cap
    return CapacitatedGraph(n, list(weights), c_e)


def weight_update_local(weights, matching: FractionalMatching):
    """Dock every vertex by its saturation level; results stay in [0, 1]."""
    out = []
    for i, w in enumerate(weights):
        nw = w - matching.saturation(i)
        nw = float(nw)
        if nw < 0:
            nw = 0.0  # float dust only; feasibility bounds saturation by w
        out.append(nw)
    return out


def reconcile_weights(local_vectors, prev_weights, params):
    """Consensus weights: entry i is taken from i's own vector, floored at w_min.

    ``local_vectors`` maps process id -> full weight vector as that process
    computed it.  Processes without a self view keep their previous weight and
    are reported in the unresolved set (they are excluded from participation
    until they disclose a view).
    """
    w_min = params.w_min
    out = list(prev_weights)
    unresolved = set()
    for i in range(params.n):
        if i in local_vectors:
            wi = local_vectors[i][i]
            out[i] = wi if wi > w_min else 0.0
        else:
            unresolved.add(i)
    return out, frozenset(unresolved)


def lipschitz_defect(g: CapacitatedGraph, h: CapacitatedGraph):
    """Residual-weight movement between two inputs versus the eta_V + 2 eta_E budget.

    Returns ``(lhs, bound)`` where ``lhs`` is the total difference of
    post-matching residual vertex capacities and ``bound = eta_V + 2 eta_E``.
    """
    if g.n != h.n:
        raise VertexSetMismatch(f"n={g.n} vs n={h.n}")
    mg, _ = rising_tide(g)
    mh, _ = rising_tide(h)
    lhs = 0
    for i in range(g.n):
        rg = _to_exact(g.c_v[i]) - mg.saturation(i)
        rh = _to_exact(h.c_v[i]) - mh.saturation(i)
        lhs += abs(rg - rh)
    eta_v = sum(abs(_to_exact(g.c_v[i]) - _to_exact(h.c_v[i])) for i in range(g.n))
    eta_e = 0
    for e in set(g.c_e) | set(h.c_e):
        a, b = g.c_e.get(e, 0), h.c_e.get(e, 0)
        if a is INF and b is INF:
            continue
        eta_e += abs(_to_exact(a) - _to_exact(b))
    return lhs, eta_v + 2 * eta_e


def dump_graph(g: CapacitatedGraph) -> str:
    lines = [str(g.n)]
    for i, cap in enumerate(g.c_v):
        lines.append(f"V {i} {'inf' if cap is INF else cap}")
    for (i, j), cap in sorted(g.c_e.items()):
        lines.append(f"E {i} {j} {'inf' if cap is INF else cap}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> CapacitatedGraph:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n = int(lines[0])
    c_v = [0.0] * n
    c_e = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "V":
            c_v[int(parts[1])] = INF if parts[2] == "inf" else float(parts[2])
        elif parts[0] == "E":
            i, j = int(parts[1]), int(parts[2])
            c_e[_canon(i, j)] = INF if parts[3] == "inf" else float(parts[3])
        else:
            raise ValueError(f"bad fixture line: {ln!r}")
    return CapacitatedGraph(n, c_v, c_e)

