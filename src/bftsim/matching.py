"""Capacitated graphs, the lockstep-raise maximal fractional matching, and weight updates.

The matching routine raises all active edge values in lockstep.  An edge
freezes the moment it or one of its endpoints saturates, so within one step
every active edge carries the same value (the current tide level).  Ties are
not perturbed away: everything that saturates in a step freezes in that step,
and the dependency graph records every induced direction.

Self-loops count once against their vertex capacity.

The raise is exact, with no tolerance, on integer ratios: it reads each
capacity it needs once as a reduced pair ``(num, den)`` with
``as_integer_ratio()``, keeps the level and each live vertex's residual
capacity and saturation level as such pairs, and compares them by
cross-multiplication.  A ``Fraction`` is made once per step, for that
step's level, and is the value of every edge that freezes in the step, so
the matching's values and ``FreezeStep.level`` are ``Fraction``s.  Infinite
capacities use ``math.inf`` and never enter the step-size minimum.  Only the
capacities the raise reads are made exact: those of positive-capacity edges
and of the vertices they touch.  A graph without such an edge (most excess
graphs after the first epoch) returns before any of it.

A step costs the live vertices plus what freezes in it, not every live edge.
Each live vertex keeps the level at which it saturates, its residual
capacity over its degree, recomputed only when a freeze changes either; the
finite edge caps are sorted once and walked in order.  Still exact: "the vertex is
saturated at this level" and "its saturation level is at most this level"
are the same rational inequality, so the steps are those of raising every
live edge by the same delta.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

INF = math.inf
_ZERO = Fraction(0)


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

    def saturations(self):
        """Every vertex's sum of incident edge values, counting a self-loop
        once, in one pass over ``mu`` in its order."""
        sat = [0] * self.n
        for (a, b), v in self.mu.items():
            sat[a] += v
            if b != a:
                sat[b] += v
        return sat


@dataclass
class DependencyGraph:
    """Directed record of freezes: u -> v when edge (u, v) froze while v was saturated."""

    n: int
    edges: set


def _ratio(x):
    """``x`` as a reduced integer pair ``(num, den)`` with ``den > 0``;
    ``INF`` stays ``INF``."""
    if x is INF:
        return INF
    try:
        return x.as_integer_ratio()
    except AttributeError:  # numpy integers have none; as a plain int, no overflow
        return operator.index(x), 1


def _div(num, den, k):
    """The reduced ratio num/den divided by the positive int k, reduced."""
    d = gcd(num, k)
    return num // d, den * (k // d)


def rising_tide(g: CapacitatedGraph):
    """Raise all positive-capacity edges in lockstep, freezing at saturation.

    Returns ``(FractionalMatching, DependencyGraph)``.  Terminates in at most
    |E| rounds; the result is a maximal feasible fractional matching.
    """
    mu = dict.fromkeys(g.c_e, _ZERO)
    active = [e for e, cap in g.c_e.items() if cap > 0]
    if not active:
        return FractionalMatching(g.n, mu, []), DependencyGraph(g.n, set())
    caps = [_ratio(g.c_e[e]) for e in active]
    deg = [0] * g.n
    incident = [[] for _ in range(g.n)]  # edge indices into active, in c_e order
    for k, (i, j) in enumerate(active):
        deg[i] += 1
        incident[i].append(k)
        if j != i:
            deg[j] += 1
            incident[j].append(k)
    live = [i for i in range(g.n) if deg[i]]  # no other vertex is ever read
    rem = [None] * g.n  # c_v less the frozen incident mass, of a live vertex
    sat_level = [None] * g.n  # the level at which a live vertex saturates: rem / deg
    for i in live:
        rem[i] = cap = _ratio(g.c_v[i])
        sat_level[i] = cap if cap is INF else _div(*cap, deg[i])
    # finite caps in increasing order, exactly: a float (numpy's too) sorts
    # by itself, any other cap by its Fraction, and floats and Fractions
    # compare exactly (numpy compares a float with a big int inexactly)
    def cap_key(k):
        cap = g.c_e[active[k]]
        return cap if isinstance(cap, float) else Fraction(*caps[k])

    by_cap = sorted((k for k in range(len(active)) if caps[k] is not INF), key=cap_key)
    done = [False] * len(active)
    next_cap = 0  # by_cap[:next_cap] are frozen

    ln, ld = 0, 1  # the level
    steps = []
    dep_edges = set()
    step_no = 0
    while live:
        # level + max(0, delta) of the plain raise is max(level, the smallest
        # live edge cap or vertex saturation level), exactly
        while next_cap < len(by_cap) and done[by_cap[next_cap]]:
            next_cap += 1
        low = caps[by_cap[next_cap]] if next_cap < len(by_cap) else None
        for i in live:
            s = sat_level[i]
            if s is not INF and (low is None or s[0] * low[1] < low[0] * s[1]):
                low = s
        if low is None:  # only infinite vertices bound the raise: nothing ever saturates
            raise AssertionError("no progress in rising tide step")
        if low[0] * ld > ln * low[1]:
            ln, ld = low
        level = Fraction(ln, ld)

        sat_e = []
        frozen = []
        while next_cap < len(by_cap):
            k = by_cap[next_cap]
            if not done[k]:
                num, den = caps[k]
                if num * ld > ln * den:
                    break
                done[k] = True
                sat_e.append(active[k])
                frozen.append(k)
            next_cap += 1
        sat_v = [i for i in live
                 if (s := sat_level[i]) is not INF and s[0] * ld <= ln * s[1]]
        for i in sat_v:
            for k in incident[i]:
                if not done[k]:
                    done[k] = True
                    frozen.append(k)
        frozen.sort()  # c_e order

        saturated = set(sat_v)
        hit = {}  # vertex -> edges frozen at it in this step
        for k in frozen:
            e = active[k]
            i, j = e
            mu[e] = level
            deg[i] -= 1
            hit[i] = hit.get(i, 0) + 1
            if j != i:
                deg[j] -= 1
                hit[j] = hit.get(j, 0) + 1
                if i in saturated:
                    dep_edges.add((j, i))
                if j in saturated:
                    dep_edges.add((i, j))
        for i, m in hit.items():
            if deg[i] and rem[i] is not INF:
                # rem - m * level, then / deg, each reduced
                num, den = rem[i]
                num, den = num * ld - m * ln * den, den * ld
                d = gcd(num, den)
                rem[i] = num, den = num // d, den // d
                sat_level[i] = _div(num, den, deg[i])
        live = [i for i in live if deg[i]]
        # from a list: tuple() of a generator over-allocates, then shrinks, and
        # the shrunk tuples made the process's memory grow call after call
        frozen_edges = tuple([active[k] for k in frozen])
        steps.append(FreezeStep(step_no, level, frozen_edges, tuple(sat_v), tuple(sorted(sat_e))))
        step_no += 1

    return FractionalMatching(g.n, mu, steps), DependencyGraph(g.n, dep_edges)


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
    # numpy: read once, as plain floats
    dev = dev.tolist() if hasattr(dev, "tolist") else dev
    corr = corr.tolist() if hasattr(corr, "tolist") else corr
    for i in range(n):
        excess = dev[i] - weights[i] ** 2 * alpha_T
        if excess > 0:
            c_e[(i, i)] = min(coeff * excess, weights[i])
    for i in range(n):
        row, wi = corr[i], weights[i]
        for j in range(i + 1, n):
            wj = weights[j]
            excess = row[j] - wi * wj * beta_T
            if excess > 0:
                cap = min(coeff * 2.0 * excess, wi, wj)
                if cap > 0:
                    c_e[(i, j)] = cap
    return CapacitatedGraph(n, list(weights), c_e)


def weight_update_local(weights, matching: FractionalMatching):
    """Dock every vertex by its saturation level; results stay in [0, 1]."""
    out = []
    for w, s in zip(weights, matching.saturations()):
        nw = float(w - s)
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

