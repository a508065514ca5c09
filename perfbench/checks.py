"""Output checks of the benchmark's own.

Each check takes a plain-data output extracted from one operation and returns
a list of violation strings (empty when the output is correct).  The checks
recompute every property from raw program state or from the method's
definition; none calls the program's own checkers (``check_views``,
``check_agreement``, ``check_feasible``, ``check_maximal``) and none compares
against stored output.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Tolerance for the float weight arithmetic of the game engine.
_FLOAT_SLACK = 1e-9


def check_blackboard(out) -> list:
    """Iterated-blackboard run.

    ``out`` holds n, f, m, boards, stopped, corrupted, and per process its
    finalized last-vectors (``finals``: pid -> {t: lastbar}) and its accepted
    cell store (``cells``: pid -> {(t, r, i): value}).
    """
    n, f, m, boards = out["n"], out["f"], out["m"], out["boards"]
    bad = []
    if out["stopped"] != "stop":
        bad.append(f"run ended by {out['stopped']!r}, not by its stop condition")
    good = [p for p in range(n) if p not in out["corrupted"]]
    complete = [p for p in good if len(out["finals"][p]) >= boards]
    if len(complete) < n - f:
        bad.append(f"{len(complete)} processes finalized all {boards} boards (< n-f = {n - f})")
    finalizers = [p for p in good if out["finals"][p]]
    for p in finalizers:
        cells = out["cells"][p]
        for t, bar in out["finals"][p].items():
            full = sum(
                1
                for i in range(n)
                if tuple(bar[i]) >= (t, m) and all((t, r, i) in cells for r in range(1, m + 1))
            )
            if full < n - f:
                bad.append(f"process {p} board {t}: {full} full columns (< n-f = {n - f})")
    for x in range(len(finalizers)):
        for y in range(x + 1, len(finalizers)):
            a, b = finalizers[x], finalizers[y]
            t_common = min(max(out["finals"][a]), max(out["finals"][b]))
            bar_a, bar_b = out["finals"][a][t_common], out["finals"][b][t_common]
            cells_a, cells_b = out["cells"][a], out["cells"][b]
            diffs = 0
            for t in range(1, t_common + 1):
                for r in range(1, m + 1):
                    for i in range(n):
                        va = cells_a.get((t, r, i)) if (t, r) <= tuple(bar_a[i]) else None
                        vb = cells_b.get((t, r, i)) if (t, r) <= tuple(bar_b[i]) else None
                        if va != vb:
                            diffs += 1
                            if va is not None and vb is not None:
                                bad.append(f"cell ({t},{r},{i}): {va!r} at {a} but {vb!r} at {b}")
            if diffs > f:
                bad.append(f"views of {a} and {b} differ in {diffs} cells (> f = {f})")
    return bad


def check_bracha(out) -> list:
    """Bracha agreement run.

    ``out`` holds n, f, inputs (per pid), corrupted, starved and
    ``decisions``: pid -> (value, iteration) for every process that decided.
    """
    n, f = out["n"], out["f"]
    bad = []
    if len(out["corrupted"]) > f:
        bad.append(f"{len(out['corrupted'])} corruptions (> f = {f})")
    good = [p for p in range(n) if p not in out["corrupted"] and p not in out["starved"]]
    decs = {p: out["decisions"][p] for p in good if p in out["decisions"]}
    missing = [p for p in good if p not in decs]
    if missing:
        bad.append(f"good processes {missing} did not decide")
    values = {v for v, _ in decs.values()}
    if len(values) > 1:
        bad.append(f"good processes decided different values {sorted(values)}")
    good_inputs = {out["inputs"][p] for p in good}
    if len(good_inputs) == 1 and values and values != good_inputs:
        bad.append(f"unanimous input {good_inputs} but decided {sorted(values)}")
    its = [it for _, it in decs.values()]
    if its and max(its) - min(its) > 1:
        bad.append(f"decision iterations span {min(its)}..{max(its)} (lag > 1)")
    return bad


def check_game(out) -> list:
    """Epoch game run.

    ``out`` holds n, f, T, eps, bad (the corrupted set) and ``epochs``: a list
    of (weights_out, iterations played) per epoch.
    """
    n, f, T, eps = out["n"], out["f"], out["T"], out["eps"]
    w_min = math.sqrt(n * math.log(n)) / T
    slack = eps**2 * f / 8.0
    bad = []
    for k, (weights, iters) in enumerate(out["epochs"], start=1):
        if len(weights) != n:
            bad.append(f"epoch {k}: {len(weights)} weights for n = {n}")
            continue
        for i, w in enumerate(weights):
            if not 0.0 <= w <= 1.0:
                bad.append(f"epoch {k}: weight {i} = {w} outside [0, 1]")
            elif 0.0 < w <= w_min:
                bad.append(f"epoch {k}: weight {i} = {w} at or below w_min = {w_min} but not 0")
        good_loss = sum(1.0 - w for i, w in enumerate(weights) if i not in out["bad"])
        bad_loss = sum(1.0 - w for i, w in enumerate(weights) if i in out["bad"])
        if good_loss > bad_loss + slack + _FLOAT_SLACK:
            bad.append(f"epoch {k}: good loss {good_loss} > bad loss {bad_loss} + {slack}")
        if not 1 <= iters <= T:
            bad.append(f"epoch {k}: {iters} iterations played (T = {T})")
    return bad


def check_matching(out) -> list:
    """Fractional matching on one capacitated graph, in exact arithmetic.

    ``out`` holds c_v (vertex capacities), c_e ({(i, j): capacity}, i <= j,
    ``math.inf`` allowed) and mu ({(i, j): value}).  A self-loop counts once
    against its vertex.
    """
    c_v = [Fraction(x) for x in out["c_v"]]
    c_e = out["c_e"]
    mu = out["mu"]
    n = len(c_v)
    bad = []
    extra = sorted(set(mu) - set(c_e))
    if extra:
        bad.append(f"values on edges not in the graph: {extra[:3]}")
    load = [Fraction(0)] * n
    val = {}
    for e, cap in c_e.items():
        v = Fraction(mu.get(e, 0))
        val[e] = v
        if v < 0 or (cap != math.inf and v > Fraction(cap)):
            bad.append(f"edge {e}: value {v} outside [0, {cap}]")
        i, j = e
        load[i] += v
        if j != i:
            load[j] += v
    for i in range(n):
        if load[i] > c_v[i]:
            bad.append(f"vertex {i}: load {load[i]} > capacity {c_v[i]}")
    saturated = [load[i] >= c_v[i] for i in range(n)]
    for e, cap in c_e.items():
        i, j = e
        if cap == 0:
            continue
        residual = cap == math.inf or val[e] < Fraction(cap)
        if residual and not saturated[i] and not saturated[j]:
            bad.append(f"edge {e}: room left and neither endpoint saturated (not maximal)")
    return bad
