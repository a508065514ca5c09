"""Independent oracles and checkers used by the test suite.

The oracles deliberately avoid the library's own algorithms: the matching
oracle is a fine-step forward-Euler simulation of the continuous lockstep
raise, and the validation oracle enumerates subsets brute-force.  The
checkers judge the library's outputs against their definitions: matching
feasibility and maximality, the dependency graph's acyclicity, the
Lipschitz budget of the raise, and a writer's history rebuilt from its
row-0 disclosure.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bftsim.adversary import random_bad_set
from bftsim.blackboard import FinalView
from bftsim.matching import VertexSetMismatch, rising_tide

INF = math.inf


def euler_matching(graphs, step=1e-6, max_level=None):
    """Forward-Euler lockstep raise on a batch of graphs with equal vertex
    count.  ``graphs`` is a list of (c_v list, c_e dict) pairs; returns a list
    of dense (n, n) matrices of edge values (symmetric, diagonal = self-loop).
    """
    n = len(graphs[0][0])
    b = len(graphs)
    cv = np.zeros((b, n))
    ce = np.zeros((b, n, n))
    present = np.zeros((b, n, n), dtype=bool)
    for k, (c_v, c_e) in enumerate(graphs):
        cv[k] = c_v
        for (i, j), cap in c_e.items():
            val = 1e18 if cap is INF else cap
            ce[k, i, j] = val
            ce[k, j, i] = val
            present[k, i, j] = present[k, j, i] = cap > 0
    mu = np.zeros((b, n, n))
    active = present.copy()
    finite_caps = [c for _, c_e in graphs for c in c_e.values() if c is not INF]
    top = max([c for c_v, _ in graphs for c in c_v] + finite_caps + [0.0])
    limit = int(math.ceil((max_level if max_level is not None else top) / step)) + 2
    out = np.zeros((b, n, n))
    rows = np.arange(b)  # the graphs still in the batch, by their place in ``graphs``
    for _ in range(limit):
        running = active.any(axis=(1, 2))
        if not running.all():
            # a finished graph's increment is all zero, so stepping it would
            # change nothing: take it out of the batch
            out[rows[~running]] = mu[~running]
            rows, mu, ce, cv, active = (x[running] for x in (rows, mu, ce, cv, active))
            if not rows.size:
                break
        inc = step * active
        mu += np.triu(inc) + np.triu(inc, 1).transpose(0, 2, 1)
        np.minimum(mu, ce, out=mu)
        level = mu.sum(axis=2)  # self-loop counted once: diagonal appears once per row
        sat_v = level >= cv - 1e-12
        sat_e = mu >= ce - 1e-12
        kill = sat_e | sat_v[:, :, None] | sat_v[:, None, :]
        active &= ~kill
    out[rows] = mu
    return [out[k] for k in range(b)]


def brute_force_maximal_check(c_v, c_e, mu, tol=1e-7):
    """A matching is maximal iff no positive-residual edge has two unsaturated
    endpoints (checked straight from the definition)."""
    n = len(c_v)
    sat = []
    for i in range(n):
        s = 0.0
        for (a, bb), v in mu.items():
            if a == i or bb == i:
                s += v
        sat.append(s >= c_v[i] - tol)
    for (i, j), cap in c_e.items():
        if mu.get((i, j), 0.0) < cap - tol and not sat[i] and not sat[j]:
            return False
    return True


def check_feasible(g, matching, tol=1e-9) -> bool:
    for e, v in matching.mu.items():
        if v < -tol or v > g.c_e.get(e, 0) + tol:
            return False
    return not any(s > cap + tol for s, cap in zip(matching.saturations(), g.c_v))


def check_maximal(g, matching, tol=1e-9) -> bool:
    """No edge with residual edge capacity may have both endpoints unsaturated."""
    sat = [s >= cap - tol for s, cap in zip(matching.saturations(), g.c_v)]
    for e, cap in g.c_e.items():
        i, j = e
        if matching.value(i, j) < cap - tol and not sat[i] and not sat[j]:
            return False
    return True


def is_dag(deps) -> bool:
    """Whether a ``DependencyGraph`` has no directed cycle (Kahn's algorithm)."""
    adj = {i: [] for i in range(deps.n)}
    indeg = {i: 0 for i in range(deps.n)}
    for u, v in deps.edges:
        adj[u].append(v)
        indeg[v] += 1
    queue = [i for i in range(deps.n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == deps.n


def _to_exact(x):
    if x is INF:
        return INF
    return Fraction(x)


def lipschitz_defect(g, h):
    """Residual-weight movement between two inputs versus the eta_V + 2 eta_E budget.

    Returns ``(lhs, bound)`` where ``lhs`` is the total difference of
    post-matching residual vertex capacities and ``bound = eta_V + 2 eta_E``.
    """
    if g.n != h.n:
        raise VertexSetMismatch(f"n={g.n} vs n={h.n}")
    mg, _ = rising_tide(g)
    mh, _ = rising_tide(h)
    lhs = 0
    for cg, sg, ch, sh in zip(g.c_v, mg.saturations(), h.c_v, mh.saturations()):
        lhs += abs((_to_exact(cg) - sg) - (_to_exact(ch) - sh))
    eta_v = sum(abs(_to_exact(g.c_v[i]) - _to_exact(h.c_v[i])) for i in range(g.n))
    eta_e = 0
    for e in set(g.c_e) | set(h.c_e):
        a, b = g.c_e.get(e, 0), h.c_e.get(e, 0)
        if a is INF and b is INF:
            continue
        eta_e += abs(_to_exact(a) - _to_exact(b))
    return lhs, eta_v + 2 * eta_e


class WriterAbsent(KeyError):
    """Reconstruction asked for a process that never wrote to the board."""


def history_of_writer(view, q, t):
    """Reconstruct q's finalized history through board t-1 from the
    last-vector q disclosed in its row-0 write to board t."""
    payload = view.cells.get((t, 0, q))
    if payload is None:
        raise WriterAbsent(f"process {q} never wrote to board {t}")
    if t == 1:
        raise WriterAbsent("board 1 row-0 writes carry no history")
    lastbar = tuple(tuple(p) for p in payload)
    return FinalView(t - 1, lastbar, view.cells, view.n, view.m)


def sgn_subset_reachable(values, size, target_sign):
    """Brute force: does some subset of exactly ``size`` values have
    sgn(sum) == target_sign (sgn(0) = +1)?"""
    for combo in itertools.combinations(values, size):
        s = sum(combo)
        sign = 1 if s >= 0 else -1
        if sign == target_sign:
            return True
    return False


def no_majority_subset_reachable(values, size, majority_cap):
    """Brute force: does some subset of exactly ``size`` values have no value
    occurring more than ``majority_cap`` times?"""
    for combo in itertools.combinations(values, size):
        counts = {}
        for v in combo:
            counts[v] = counts.get(v, 0) + 1
        if all(c <= majority_cap for c in counts.values()):
            return True
    return False


def random_graph(rng, n_max=8, cap_scale=1.0, p_edge=0.55, p_self=0.35, p_inf=0.15):
    """Random capacitated graph fixture with self-loops and infinite edges."""
    n = int(rng.integers(2, n_max + 1))
    c_v = [float(rng.uniform(0, cap_scale)) for _ in range(n)]
    c_e = {}
    for i in range(n):
        for j in range(i, n):
            p = p_self if i == j else p_edge
            if rng.random() < p:
                if rng.random() < p_inf:
                    c_e[(i, j)] = INF
                else:
                    c_e[(i, j)] = float(rng.uniform(0, cap_scale * 0.6))
    return c_v, c_e


def reference_epoch(opponent, p, w, bad, good, flip_rngs, adv_rng, record_series):
    """The epoch game's iteration loop for an opponent that never reads the
    good flips (honest-random, crash-stop, colluding): the reference for
    ``game._whole_epoch_draws`` and ``game._epoch_stats``.  Every good
    process draws its column with one ``integers`` call per iteration on its
    own generator in ``flip_rngs``; the opponent draws sigma(t), then the
    colluding leader's column, on ``adv_rng``.  Returns a dict: ``play``,
    the epoch as ``game._close_epoch`` takes it, the last iteration's
    ``raw`` and ``lam``, and the loop's own ``dev``, ``corr`` (zero
    diagonal) and series."""
    n, m, T, x_max = p.n, p.m, p.T, p.x_max
    good_ix = np.array(good)
    dev = np.zeros(n)
    corr = np.zeros((n, n))
    sigmas, xs = [], []
    sg_series, sb_series, sigma_series = [], [], []
    for _t in range(T):
        sigma = int(adv_rng.integers(0, 2)) * 2 - 1
        raw = [0] * n
        lam = [0] * n
        for i in good:
            flips = flip_rngs[i].integers(0, 2, size=m) * 2 - 1
            raw[i], lam[i] = int(flips.sum()), int(flips[-1])
        x = np.array(raw).clip(-x_max, x_max)
        sg = float((w * x)[good_ix].sum())
        if opponent == "colluding":
            flips = adv_rng.integers(0, 2, size=m) * 2 - 1
            for i in bad:
                raw[i], lam[i] = int(flips.sum()), int(flips[-1])
                x[i] = min(max(float(raw[i]), -x_max), x_max)
        wx = w * x
        dev += wx**2
        corr += np.outer(wx, wx)
        sigmas.append(sigma)
        xs.append(x)
        if record_series:
            sg_series.append(sg)
            sb_series.append(float(sum(wx[i] for i in bad)))
            sigma_series.append(sigma)
    np.fill_diagonal(corr, 0.0)
    # every column is full, so no view can miss a write: no hideable column,
    # every iteration unanimous and no natural end
    return dict(play=(sigmas, np.array(xs), raw, lam, [], None, T), raw=raw, lam=lam,
                dev=dev, corr=corr, sg_series=sg_series, sb_series=sb_series,
                sigma_series=sigma_series)


def reference_simplified_game(cfg, opponent, seed):
    """The simplified game one round at a time: the reference for
    ``stats.run_simplified_game`` and its opponents' ``moves``.  Each round
    the opponent named ``opponent`` commits a direction (+1 for
    simple-honest, else one ``integers`` draw), then sets the bad values
    after seeing the round's good flips, visiting ``bad`` in the order the
    frozenset iterates; simple-honest draws each value there.  Returns
    (values, directions, bad, stopped_at)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC01F)))
    adv_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xADF)))
    n, f, T = cfg.n, cfg.f, cfg.T
    bad = random_bad_set(n, f, adv_rng)
    good = [i for i in range(n) if i not in bad]
    good_flips = rng.integers(0, 2, size=(T, len(good))) * 2 - 1
    values = np.zeros((T, n), dtype=np.int64)
    directions = np.zeros(T, dtype=np.int64)
    stopped_at = None
    for t in range(T):
        sigma = 1 if opponent == "simple-honest" else int(adv_rng.integers(0, 2)) * 2 - 1
        row = np.zeros(n, dtype=np.int64)
        row[good] = good_flips[t]
        if opponent == "simple-honest":
            bad_vals = {i: int(adv_rng.integers(0, 2)) * 2 - 1 for i in bad}
        elif opponent == "simple-colluding":
            bad_vals = {i: sigma for i in bad}
        else:
            bad_vals = {}
            good_sum = int(row.sum())
            # sgn(0) = +1: sigma=+1 needs S >= 0, sigma=-1 needs S <= -1
            need = -sigma * good_sum + (1 if sigma == -1 else 0)
            target = max(need, f % 2)
            if (target - f) % 2:
                target += 1
            target = min(target, f)
            pushers = (target + f) // 2
            for idx, i in enumerate(sorted(bad)):
                bad_vals[i] = sigma if (idx + t % f) % f < pushers else -sigma
        for i, v in bad_vals.items():
            row[i] = v
        values[t] = row
        directions[t] = sigma
        if (1 if row.sum() >= 0 else -1) != sigma and stopped_at is None:
            stopped_at = t + 1
    return values, directions, bad, stopped_at


def reference_detect_pair(values):
    """The pair (i, j), i < j, of largest column inner product, the first
    in a scan over i, then j: the reference for ``stats.detect_pair``."""
    gram = np.asarray(values).T @ np.asarray(values)
    best, best_val = None, None
    for i in range(gram.shape[0]):
        for j in range(i + 1, gram.shape[0]):
            if best_val is None or gram[i, j] > best_val:
                best, best_val = (i, j), gram[i, j]
    return best


def final_state(world, strategy):
    """What a message-level run leaves behind, in comparable form: the
    clock, the chain depth, the corruptions, the strategy generator's state
    and, per process, its board cells and bars, its accepted log and its
    decision."""
    procs = []
    for h in world.handlers:
        rb, board = getattr(h, "rb", None), getattr(h, "board", None)
        procs.append((
            sorted(board.cells.items()) if board is not None else None,
            sorted(board.lastbar.items()) if board is not None else None,
            list(rb.accepted_log) if rb is not None else None,
            getattr(h, "decided", None), getattr(h, "decided_iteration", None),
            getattr(h, "decided_ordinal", None),
        ))
    return (world.clock, world.chain_depth, sorted(world.corrupted),
            strategy.rng.getstate(), procs)


def run_captured(cfg, seed, driver):
    """Run one seed of a message-level config with ``driver`` standing in for
    ``sim.run``.  Returns the run's record, its ``final_state`` and the
    world's event trace."""
    from bftsim import harness

    seen = {}

    def capture(world, strategy, stop=None, max_events=1_000_000):
        seen["world"], seen["strategy"] = world, strategy
        return driver(world, strategy, stop, max_events)

    real = harness.run
    harness.run = capture
    try:
        rec = harness.MODES[cfg.mode][0](cfg, seed)
    finally:
        harness.run = real
    world = seen["world"]
    return rec, final_state(world, seen["strategy"]), world.trace


def reference_run(world, strategy, stop=None, max_events=1_000_000):
    """``sim.run`` one event at a time: a ``next_event`` step that picks each
    event from the strategy's data, and ``WorldState.apply`` to apply it.
    The reference for the event loop, which does both in place.

    The pick: the ``rotate`` hook when its countdown has run out; the head
    of ``strategy.corruptions`` once the clock has reached its clock; the
    unstarted processes the strategy does not
    refuse (while some process has never computed); one roll; then
    deliveries below 0.7, computes above, starts of unstarted processes
    below 0.25 or when nothing else is pending, each falling back on the
    others.  A candidate is drawn uniformly, redrawn on refusal up to six
    times, then drawn among every candidate that passes.  When all are
    refused and every process has started, a refusal probability below 1
    gives one more uniform draw among the deliveries, or else the computes."""
    from bftsim.sim import _STOP_STRIDE, COMPUTE, CORRUPT, DELIVER, RunResult

    strategy.setup(world)
    rng = strategy.rng
    n = world.params.n
    ttl = 0
    maybe_unstarted = True

    def allowed(pid, p):
        if pid not in strategy.blocked:
            return True
        return p < 1.0 and rng.random() >= p

    def pick(cands, p, dst):
        for _ in range(6):
            cand = rng.choice(cands)
            if allowed(dst(cand), p):
                return cand
        legal = [c for c in cands if allowed(dst(c), p)]
        return rng.choice(legal) if legal else None

    def next_event():
        nonlocal ttl, maybe_unstarted
        if strategy.rotate is not None:
            if ttl <= 0:
                ttl = strategy.rotate()
            ttl -= 1
        corruptions = strategy.corruptions
        if corruptions and world.clock >= corruptions[0][0]:
            return (CORRUPT, corruptions.pop(0)[1])
        unstarted = ()
        if maybe_unstarted:
            unstarted = [i for i in range(n)
                         if not world.started[i] and allowed(i, strategy.block_compute)]
            if not unstarted and all(world.started):
                maybe_unstarted = False
        outs, ins = world._out_list, world._in_list
        roll = rng.random()
        if unstarted and (roll < 0.25 or not (outs or ins)):
            return (COMPUTE, rng.choice(unstarted))
        if outs and (roll < 0.7 or not ins):
            e = pick(outs, strategy.block_deliver, lambda e: e[1])
            if e is not None:
                return (DELIVER, e[0], e[1])
        if ins:
            i = pick(ins, strategy.block_compute, lambda i: i)
            if i is not None:
                return (COMPUTE, i)
        if outs:
            e = pick(outs, strategy.block_deliver, lambda e: e[1])
            if e is not None:
                return (DELIVER, e[0], e[1])
        if unstarted:
            return (COMPUTE, rng.choice(unstarted))
        if outs and strategy.block_deliver < 1.0:  # refused, but only delayed
            e = rng.choice(outs)
            return (DELIVER, e[0], e[1])
        if ins and strategy.block_compute < 1.0:
            return (COMPUTE, rng.choice(ins))
        return None

    countdown = 1
    while True:
        countdown -= 1
        if countdown <= 0:
            if stop is not None and stop(world):
                return RunResult(world.clock, "stop", world.chain_depth)
            countdown = _STOP_STRIDE
        if world.clock >= max_events:
            return RunResult(world.clock, "max-events", world.chain_depth)
        event = next_event()
        if event is None:
            if stop is not None and stop(world):
                return RunResult(world.clock, "stop", world.chain_depth)
            return RunResult(world.clock, "quiescent", world.chain_depth)
        world.apply(event, strategy)


def reference_rising_tide(g):
    """``matching.rising_tide`` as it was before the edgeless early return:
    every vertex and edge capacity made exact up front, every vertex scanned
    in every step.  The reference the faster raise must match bit for bit.
    An unbounded vertex never saturates, so it bounds no step and is never
    subtracted from; integers of any type become plain ``int``
    numerators."""
    import numbers
    from fractions import Fraction

    from bftsim.matching import DependencyGraph, FractionalMatching, FreezeStep

    def exact(x):
        if x is INF:
            return INF
        return Fraction(int(x)) if isinstance(x, numbers.Integral) else Fraction(x)

    zero = Fraction(0)
    c_v = [exact(x) for x in g.c_v]
    caps = {e: exact(cap) for e, cap in g.c_e.items()}

    active = [e for e, cap in caps.items() if cap > 0]
    mu = {e: zero for e in caps}
    deg = [0] * g.n
    base = [zero] * g.n
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
            if deg[i] and c_v[i] is not INF:
                cand = (c_v[i] - base[i] - deg[i] * level) / deg[i]
                if delta is None or cand < delta:
                    delta = cand
        if delta is None:  # only infinite constraints are live: nothing ever saturates
            raise AssertionError("no progress in rising tide step")
        if delta < zero:
            delta = zero
        level = level + delta

        sat_v = set()
        for i in range(g.n):
            if deg[i] and c_v[i] is not INF and c_v[i] - (base[i] + deg[i] * level) <= zero:
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


def reference_weight_update_local(weights, matching):
    """``matching.weight_update_local`` as it was before the one-pass
    saturation: one scan of the matching per vertex."""
    out = []
    for i, w in enumerate(weights):
        saturation = 0  # the vertex's incident values, a self-loop once
        for (a, b), v in matching.mu.items():
            if a == i or b == i:
                saturation += v
        nw = float(w - saturation)
        if nw < 0:
            nw = 0.0
        out.append(nw)
    return out


def counteract_bad_values(sigma, good_sum, bad_weights, x_max, m, slack=0.0):
    """The counteract game's column-sum targets for corrupted writers, as
    they were computed before ``CounteractGame.bad_columns`` folded them
    into one pass: pad to (near) zero when the good sum already has sign
    sigma, else push toward sigma until the weighted bad sum covers the
    deficit, saturating at the per-column cap.  With
    ``achievable_column_sum`` the reference the merged policy must match."""
    cap = min(float(m), x_max)
    deficit = -sigma * good_sum - slack
    targets = []
    if deficit <= 0:
        pad = 1.0 if m % 2 else 0.0  # full columns of odd length cannot sum to 0
        for idx in range(len(bad_weights)):
            targets.append(pad if idx % 2 == 0 else -pad)
        return targets
    remaining = deficit
    for idx, w in enumerate(bad_weights):
        if remaining > 0 and w > 0:
            take = min(cap, remaining / w)
            targets.append(sigma * take)
            remaining -= w * take
        else:
            pad = 1.0 if m % 2 else 0.0
            targets.append(pad if idx % 2 == 0 else -pad)
    return targets


def achievable_column_sum(target, m, sigma):
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
