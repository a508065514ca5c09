"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte-Carlo thresholds
were calibrated once with the independent oracles and then frozen here; every
run is seeded, so each criterion is deterministic end to end.
"""
import time

import numpy as np
import pytest

from bftsim.game import GameConfig, run_game
from bftsim.harness import (
    emit_metrics,
    header_record,
    make_config,
    run_blackboard_once,
    run_broadcast_fuzz_once,
    run_experiment,
)
from bftsim.matching import CapacitatedGraph, rising_tide
from bftsim.params import ProtocolParams
from bftsim.stats import SimpleGameConfig, detect_pair, run_simplified_game
from bftsim.adversary import SimpleColluding

from oracles import (
    check_feasible, check_maximal, euler_matching, is_dag, lipschitz_defect, random_graph,
)


def _report(name, ok, detail=""):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_broadcast_safety_fuzz():
    """n=4, f=1, 1000 adversarial schedules with an equivocating sender:
    zero conflicting accepts, FIFO everywhere, under a minute."""
    t0 = time.time()
    cfg = make_config(mode="broadcast-fuzz", n=4, f=1, m=4, T=16,
                      adversary="equivocator", seeds=[0])
    bad_runs, not_total = [], []
    for seed in range(1000):
        rec = run_broadcast_fuzz_once(cfg, seed)
        if rec["violations"]:
            bad_runs.append((seed, rec["violations"]))
        if rec["total"] is not True:
            not_total.append(seed)
    elapsed = time.time() - t0
    ok = not bad_runs and not not_total and elapsed < 60
    _report(
        "criterion-01 broadcast-safety",
        ok,
        f"violations {len(bad_runs)}/1000, not total {len(not_total)}/1000, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_bracha_safety_validity():
    """n in {5,9,13}, f=floor((n-1)/4), three adversaries, 200 seeds each:
    zero Agreement/Validity violations, decision lag <= 1, under 5 minutes."""
    t0 = time.time()
    total = 0
    violations = []
    undecided = 0
    for n in (5, 9, 13):
        f = (n - 1) // 4
        for adversary in ("honest-random", "crash-stop", "starve-subset"):
            for inputs, lo, hi in (("mixed", 0, 100), ("unanimous+1", 100, 150),
                                   ("unanimous-1", 150, 200)):
                cfg = make_config(
                    mode="bracha", n=n, f=f, m=4, T=16, coin="local",
                    adversary=adversary, inputs=inputs,
                    seeds=list(range(lo, hi)), max_iterations=14,
                )
                for rec in run_experiment(cfg):
                    total += 1
                    if rec["violations"]:
                        violations.append((n, adversary, rec["seed"], rec["violations"]))
                    if rec["decided"] and rec["decide_iter_max"] - rec["decide_iter_min"] > 1:
                        violations.append((n, adversary, rec["seed"], "lag"))
                    undecided += not rec["decided"]
    elapsed = time.time() - t0
    ok = not violations and elapsed < 300
    _report(
        "criterion-02 bracha-safety",
        ok,
        f"{total} runs, violations {len(violations)}, undecided {undecided}, "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_03_view_checks():
    """n=8, f=2, m=8, 300 fuzzed schedules: pairwise finalized views disagree
    on <= f cells with one blank side, complete boards have >= n-f full
    columns.  Zero violations."""
    t0 = time.time()
    cfg = make_config(mode="blackboard", n=8, f=2, m=8, T=16, boards=2,
                      adversary="fuzz", seeds=[0], max_events=3_000_000)
    bad_runs = []
    for seed in range(300):
        rec = run_blackboard_once(cfg, seed)
        if rec["violations"]:
            bad_runs.append((seed, rec["violations"]))
        if rec["finalizers"] < cfg.n - cfg.f:
            bad_runs.append((seed, "too few finalizers"))
    elapsed = time.time() - t0
    _report(
        "criterion-03 view-checks",
        not bad_runs,
        f"violations {len(bad_runs)}/300, {elapsed:.0f}s",
    )


def test_criterion_04_gap_lemma_good_side():
    """All-good runs, n=8, m=8, T=256, c=4, 100 epochs: dev/corr budgets
    respected in >= 99% of (player, epoch) and (pair, epoch) samples."""
    t0 = time.time()
    p = ProtocolParams(n=8, f=0, eps=0.5, m=8, T=256, c=4)
    dev_bad = dev_total = 0
    corr_bad = corr_total = 0
    iu = np.triu_indices(p.n, 1)
    for block in range(10):
        cfg = GameConfig(params=p, adversary="honest-random", epochs=10, seed=block,
                         stop_on_natural_end=False, record_series=False)
        report = run_game(cfg)
        for ep in report.epochs:
            dev_total += p.n
            dev_bad += int((np.asarray(ep.dev) > p.alpha_T).sum())
            tri = ep.corr[iu]
            corr_total += tri.size
            corr_bad += int((tri > p.beta_T).sum())
    elapsed = time.time() - t0
    dev_rate = dev_bad / dev_total
    corr_rate = corr_bad / corr_total
    ok = dev_rate <= 0.01 and corr_rate <= 0.01
    _report(
        "criterion-04 gap-lemma",
        ok,
        f"dev failures {dev_bad}/{dev_total}, corr failures {corr_bad}/{corr_total}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_05_simplified_game_detection():
    """n=20, eps=1 (f=5), T=4000, colluding-counteract, 200 seeds: the maximal
    inner-product pair contains a bad player.  Calibrated rate froze at 100%;
    asserted at >= 97% (frozen - 3%), above the spec floor of 95%."""
    t0 = time.time()
    cfg = SimpleGameConfig(n=20, T=4000, eps=1.0)
    assert cfg.f == 5
    hits = 0
    for seed in range(200):
        res = run_simplified_game(cfg, SimpleColluding(), seed)
        pair = detect_pair(res.values)
        hits += bool(set(pair) & res.bad)
    elapsed = time.time() - t0
    rate = hits / 200
    ok = rate >= 0.97 and elapsed < 120
    _report(
        "criterion-05 detection",
        ok,
        f"detection {hits}/200 = {rate:.3f} (>= 0.97), {elapsed:.0f}s (< 120s)",
    )


def test_criterion_06_rising_tide_correctness():
    """10^4 random capacitated graphs (n <= 8, self-loops, inf edges):
    feasibility + maximality everywhere, fine-step oracle equivalence within
    1e-4 per edge, dependency-graph properties clean on tie-free inputs."""
    t0 = time.time()
    rng = np.random.default_rng(60_601)
    feas_bad = max_bad = dep_bad = 0
    tie_free = 0
    for _ in range(10_000):
        c_v, c_e = random_graph(rng, n_max=8)
        g = CapacitatedGraph(len(c_v), c_v, c_e)
        m, deps = rising_tide(g)
        mf = type(m)(m.n, {e: float(v) for e, v in m.mu.items()}, m.steps)
        if not check_feasible(g, mf):
            feas_bad += 1
        if not check_maximal(g, mf):
            max_bad += 1
        if all(len(s.saturated_vertices) <= 1 for s in m.steps):
            tie_free += 1
            if not is_dag(deps):
                dep_bad += 1
            for v in range(g.n):
                vals = {m.value(u, vv) for (u, vv) in deps.edges if vv == v}
                if len(vals) > 1:
                    dep_bad += 1
            for (u, v) in deps.edges:
                for (v2, w) in deps.edges:
                    if v2 == v and m.value(u, v) < m.value(v2, w):
                        dep_bad += 1
    # independent fine-step oracle on a 250-graph batch
    rng2 = np.random.default_rng(60_602)
    graphs = [random_graph(rng2, n_max=8, cap_scale=0.25) for _ in range(250)]
    padded = [(c_v + [0.0] * (8 - len(c_v)), c_e) for c_v, c_e in graphs]
    oracle = euler_matching(padded, step=1e-6)
    worst = 0.0
    for (c_v, c_e), dense in zip(graphs, oracle):
        g = CapacitatedGraph(len(c_v), c_v, c_e)
        m, _ = rising_tide(g)
        for (i, j) in c_e:
            worst = max(worst, abs(float(m.value(i, j)) - dense[i, j]))
    elapsed = time.time() - t0
    ok = feas_bad == 0 and max_bad == 0 and dep_bad == 0 and worst <= 1e-4
    _report(
        "criterion-06 rising-tide",
        ok,
        f"feas {feas_bad}, maximal {max_bad}, dep {dep_bad} (tie-free {tie_free}/10000), "
        f"oracle worst dev {worst:.2e} (<= 1e-4), {elapsed:.0f}s",
    )


def test_criterion_07_lipschitz_bound():
    """500 random perturbed pairs (G, H), n <= 8: residual-weight movement is
    within eta_V + 2*eta_E + 1e-9 every time (exact arithmetic)."""
    t0 = time.time()
    rng = np.random.default_rng(70_700)
    failures = 0
    for _ in range(500):
        c_v, c_e = random_graph(rng, n_max=8, p_inf=0.0)
        g = CapacitatedGraph(len(c_v), c_v, c_e)
        c_v2 = [max(0.0, v + rng.uniform(-0.15, 0.15)) for v in c_v]
        c_e2 = {e: max(0.0, c + rng.uniform(-0.15, 0.15)) for e, c in c_e.items()}
        if rng.random() < 0.3 and c_e2:
            c_e2.pop(next(iter(c_e2)))
        h = CapacitatedGraph(len(c_v2), c_v2, c_e2)
        lhs, bound = lipschitz_defect(g, h)
        if not lhs <= bound + 1e-9:
            failures += 1
    elapsed = time.time() - t0
    _report(
        "criterion-07 lipschitz",
        failures == 0,
        f"failures {failures}/500, {elapsed:.0f}s",
    )


def test_criterion_08_weight_dynamics():
    """n=9, f=2, counteract, m=8, T=256, c=4, 50 seeds: the weight-loss
    invariant holds at every epoch boundary, bad cumulative loss covers good
    cumulative loss, and >= 80% of seeds reach agreement or shrink the bad
    weight within 5 epochs (threshold frozen after calibration at 50/50)."""
    t0 = time.time()
    p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=4)
    slack = p.eps**2 * p.f / 8.0
    inv_bad = cum_bad = 0
    progressed = 0
    for seed in range(50):
        cfg = GameConfig(params=p, adversary="counteract", epochs=5, seed=seed)
        rep = run_game(cfg)
        if not all(ep.inv_ok for ep in rep.epochs):
            inv_bad += 1
        final = rep.epochs[-1].weights_out
        good_loss = sum(1 - w for i, w in enumerate(final) if i not in rep.bad)
        bad_loss = sum(1 - w for i, w in enumerate(final) if i in rep.bad)
        if good_loss > bad_loss + slack + 1e-12:
            cum_bad += 1
        shrank = sum(final[i] for i in rep.bad) < len(rep.bad) - 1e-12
        if rep.agreement_reached or shrank:
            progressed += 1
    elapsed = time.time() - t0
    ok = inv_bad == 0 and cum_bad == 0 and progressed >= 40
    _report(
        "criterion-08 weight-dynamics",
        ok,
        f"invariant violations {inv_bad}/50, cumulative violations {cum_bad}/50, "
        f"progress {progressed}/50 (>= 40), {elapsed:.0f}s",
    )


def test_criterion_09_zero_weight_endgame():
    """All bad weights forced to 0, counteract scheduling only: good coin
    outputs unanimous in >= 25% of 2000 iterations."""
    t0 = time.time()
    p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=2000, c=4)
    cfg = GameConfig(params=p, adversary="counteract", epochs=1, seed=90,
                     zero_bad_weights=True, stop_on_natural_end=False)
    rep = run_game(cfg)
    ep = rep.epochs[0]
    frac = ep.unanimous_iters / ep.iters_played
    elapsed = time.time() - t0
    ok = ep.iters_played == 2000 and frac >= 0.25
    _report(
        "criterion-09 endgame",
        ok,
        f"unanimous {ep.unanimous_iters}/2000 = {frac:.3f} (>= 0.25), {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    """Every suite's configuration re-run with identical seeds produces a
    byte-identical metrics file.  Runs are independent per seed, so the heavy
    suites are re-run on a seed prefix."""
    t0 = time.time()
    configs = [
        make_config(mode="broadcast-fuzz", n=4, f=1, m=4, T=16,
                    adversary="equivocator", seeds=list(range(40))),
        make_config(mode="bracha", n=9, f=2, m=4, T=16, coin="local",
                    adversary="crash-stop", inputs="mixed", seeds=list(range(25)),
                    max_iterations=14),
        make_config(mode="blackboard", n=8, f=2, m=8, T=16, boards=2,
                    adversary="fuzz", seeds=list(range(6)), max_events=3_000_000),
        make_config(mode="game", n=9, f=2, m=8, T=256, c=4,
                    adversary="counteract", epochs=5, seeds=list(range(10))),
        make_config(mode="simplified-game", n=20, f=0, T=4000, eps=1.0,
                    adversary="simple-colluding", seeds=list(range(20))),
    ]
    mismatches = []
    for idx, cfg in enumerate(configs):
        blobs = []
        for attempt in range(2):
            path = tmp_path / f"{cfg.mode}-{attempt}.ndjson"
            emit_metrics(run_experiment(cfg), path, header=header_record(cfg))
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(cfg.mode)
    elapsed = time.time() - t0
    _report(
        "criterion-10 determinism",
        not mismatches,
        f"modes {[c.mode for c in configs]}, mismatches {mismatches}, {elapsed:.0f}s",
    )
