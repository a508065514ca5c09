import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim.agreement import (
    BrachaProcess,
    DecisionRecord,
    WeightBook,
    check_agreement,
    coin_flip,
    epoch_advance,
    make_bracha_justify,
    vote_round,
)
from bftsim.adversary import STRATEGIES
from bftsim.blackboard import FinalView
from bftsim.harness import ExperimentConfig, run_bracha_once
from bftsim.params import ProtocolParams
from bftsim.sim import WorldState, run

from oracles import no_majority_subset_reachable


# -- justification predicates vs brute force ---------------------------------


def _brute_phase1(pool_values, value, prev_value, need):
    if value not in (1, -1):
        return False
    if prev_value is not None and isinstance(prev_value, tuple):
        return value == prev_value[1] and len(pool_values) >= need
    for combo in itertools.combinations(pool_values, need):
        decs = {v[1] for v in combo if isinstance(v, tuple)}
        if not decs and value in (1, -1):
            return True
        if len(decs) == 1 and value in decs:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, ("dec", 1), ("dec", -1)]), min_size=0, max_size=7),
    st.sampled_from([1, -1]),
    st.sampled_from([None, 1, -1, ("dec", 1), ("dec", -1)]),
)
def test_phase1_justification_matches_brute_force(pool, value, prev):
    n, f = 9, 2
    need = n - f
    # pools with both decision values cannot arise (validation soundness)
    if {("dec", 1), ("dec", -1)} <= set(pool):
        return
    justify = make_bracha_justify(n, f)
    counts = {}
    for v in pool:
        counts[v] = counts.get(v, 0) + 1
    got = justify(vote_round(2, 1), value, prev, counts, len(pool))
    if prev is None:
        want = False  # chain requirement: unvalidated predecessor
        got_chain = justify(vote_round(2, 1), value, prev, counts, len(pool))
        # the ledger enforces the chain before calling justify; predicate
        # itself treats None as "plain" - emulate the ledger by skipping
        return
    want = _brute_phase1(pool, value, prev, need)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1]), min_size=0, max_size=8),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
)
def test_phase3_plain_justification_matches_brute_force(pool, value, prev):
    n, f = 8, 2
    need = n - f
    justify = make_bracha_justify(n, f)
    counts = {1: pool.count(1), -1: pool.count(-1)}
    got = justify(vote_round(1, 3), value, prev, counts, len(pool))
    want = (
        prev == value
        and len(pool) >= need
        and no_majority_subset_reachable(pool, need, n // 2)
    )
    assert got == want


def test_dec_justification_needs_strict_majority():
    n, f = 9, 2
    justify = make_bracha_justify(n, f)
    counts = {1: 4, -1: 3}
    assert not justify(vote_round(1, 3), ("dec", 1), 1, counts, 7)  # 4 <= 9/2
    counts = {1: 5, -1: 2}
    assert justify(vote_round(1, 3), ("dec", 1), 1, counts, 7)
    assert not justify(vote_round(1, 3), ("dec", -1), -1, counts, 7)


def test_phase1_base_case_any_sign():
    justify = make_bracha_justify(5, 1)
    assert justify(1, 1, None, {}, 0)
    assert justify(1, -1, None, {}, 0)
    assert not justify(1, ("dec", 1), None, {}, 0)


# -- coin flip ----------------------------------------------------------------


def _view_with_columns(cols, m=4):
    n = len(cols)
    cells = {}
    lastbar = []
    for i, vals in enumerate(cols):
        for r, v in enumerate(vals, start=1):
            cells[(1, r, i)] = v
        lastbar.append((1, len(vals)) if vals else (0, -1))
    return FinalView(t=1, lastbar=tuple(lastbar), cells=cells, n=n, m=m)


def test_coin_flip_single_weight():
    p = ProtocolParams(n=2, f=0, m=4, T=16)
    view = _view_with_columns([[-1, -1, -1], [1, 1]])
    assert coin_flip(view, [1.0, 0.0], p) == -1


def test_coin_flip_zero_sum_is_plus_one():
    p = ProtocolParams(n=2, f=0, m=4, T=16)
    view = _view_with_columns([[1, 1], [-1, -1]])
    assert coin_flip(view, [1.0, 1.0], p) == 1


def test_coin_flip_clamps_columns():
    p = ProtocolParams(n=2, f=0, m=4, T=16, c=0.01)  # tiny x_max
    view = _view_with_columns([[1, 1, 1, 1], [-1]])
    assert p.x_max < 1
    # clamped column sums: +x_max and -x_max, total 0 -> +1
    assert coin_flip(view, [1.0, 1.0], p) == 1


# -- whole-protocol runs (local coin) ------------------------------------------


def _bracha_cfg(**kw):
    base = dict(mode="bracha", n=5, f=1, m=4, T=16, coin="local", adversary="honest-random",
                inputs="unanimous+1", max_events=600_000)
    base.update(kw)
    base.setdefault("seeds", [0])
    return ExperimentConfig(**base)


def test_unanimous_inputs_decide_first_iteration():
    cfg = _bracha_cfg()
    for seed in range(10):
        rec = run_bracha_once(cfg, seed)
        assert rec["decided"], rec
        assert rec["decide_iter_max"] == 1
        assert rec["violations"] == []


def test_validity_minus_one():
    cfg = _bracha_cfg(inputs="unanimous-1")
    rec = run_bracha_once(cfg, 3)
    assert rec["decided"] and rec["violations"] == []


def test_mixed_inputs_agreement_and_lag():
    cfg = _bracha_cfg(inputs="mixed", max_iterations=24)
    decided = 0
    for seed in range(15):
        rec = run_bracha_once(cfg, seed)
        assert rec["violations"] == [], rec
        decided += rec["decided"]
    assert decided >= 12  # local fair coins decide fast at n=5


def test_crash_stop_runs_decide():
    cfg = _bracha_cfg(adversary="crash-stop", inputs="mixed", n=9, f=2, max_iterations=24)
    for seed in range(5):
        rec = run_bracha_once(cfg, seed)
        assert rec["violations"] == []


def test_starve_subset_runs_decide():
    cfg = _bracha_cfg(adversary="starve-subset", inputs="unanimous+1", n=8, f=2)
    for seed in range(5):
        rec = run_bracha_once(cfg, seed)
        assert rec["decided"], rec
        assert rec["violations"] == []


# -- whole-protocol runs (blackboard coin, tiny scale) -------------------------


def test_blackboard_coin_agreement_end_to_end():
    cfg = _bracha_cfg(coin="blackboard", n=5, f=1, m=2, T=4, inputs="mixed",
                      max_iterations=10, max_events=3_000_000)
    for seed in range(3):
        rec = run_bracha_once(cfg, seed)
        assert rec["violations"] == [], rec
        assert rec["decided"], rec


def test_blackboard_coin_splits_only_when_sum_is_small():
    # good processes' coin outputs for one board may differ only if the true
    # weighted sum lies within the f-band of view disagreement
    from bftsim.params import clamp_coin_sum

    flips = 0
    for seed in range(6):
        params = ProtocolParams(n=4, f=1, m=2, T=8)
        handlers = [
            BrachaProcess(pid, params, seed, 1 if pid % 2 else -1, coin="blackboard")
            for pid in range(4)
        ]
        world = WorldState(params, handlers)
        strategy = STRATEGIES["fuzz"](seed)

        def stop(w):
            active = [h for h in handlers if h.pid not in w.corrupted]
            return all(h.decided is not None for h in active) or any(
                h.iteration > 6 for h in active
            )

        run(world, strategy, stop, 3_000_000)
        cells = {}
        for h in handlers:
            cells.update(h.board.cells)
        coins = {}
        for h in handlers:
            for t, c in h.coin_log:
                coins.setdefault(t, set()).add(c)
        for t, vals in coins.items():
            if t > params.T:
                continue  # weights stay 1 only through epoch 1
            flips += 1
            if len(vals) > 1:
                total = 0.0
                for i in range(4):
                    col = [cells.get((t, r, i)) for r in range(1, params.m + 1)]
                    col = [v for v in col if v is not None]
                    total += clamp_coin_sum(float(sum(col)), params.x_max)
                assert abs(total) <= params.f, f"split coin with |S|={total} at board {t}"
    assert flips > 0


def test_weightbook_consensus_identical_across_processes():
    params = ProtocolParams(n=4, f=0, m=2, T=4, k_max=2)
    assert params.w_min < 1.0  # T must be large enough for the floor to be meaningful
    handlers = [BrachaProcess(pid, params, 5, -1 if pid == 0 else 1, coin="blackboard")
                for pid in range(4)]
    world = WorldState(params, handlers)
    strategy = STRATEGIES["honest-random"](5)

    def stop(w):
        return all(h.board.done_t >= params.T + 1 for h in handlers)  # into epoch 2

    run(world, strategy, stop, 4_000_000)
    rows = []
    for h in handlers:
        if h.board.done_t >= params.T + 1:
            rows.append([h.weights.weight_of(i, 1) for i in range(4)])
    assert len(rows) >= 2
    assert all(r == rows[0] for r in rows)
    assert rows[0] == [1.0] * 4  # honest epoch: no weight loss


def _synthetic_board(seed, n=9, m=8, T=16, epochs=3, f=2):
    """Seeded cells for boards 1..epochs*T+1: f colluding columns that copy
    one biased leader on most boards, good columns of fair flips (some
    partial), and row-0 disclosures at each epoch boundary that lag or are
    missing; a malformed one is missing too, as the gate keeps it off the
    board.  Returns (cells, bad, disclosed bars, coin-time bars)."""
    import random

    rng = random.Random(f"weight-path/{seed}")
    bad = sorted(rng.sample(range(n), f))
    bias, copy = rng.uniform(0.5, 0.9), rng.uniform(0.85, 1.0)
    cells, length = {}, {}
    last_t = epochs * T + 1
    for t in range(1, last_t + 1):
        lead = [1 if rng.random() < bias else -1 for _ in range(m)]
        for i in range(n):
            if i in bad and rng.random() < copy:
                col, size = lead, m
            elif i in bad:
                col, size = [rng.choice((-1, 1)) for _ in range(m)], m
            else:
                col = [rng.choice((-1, 1)) for _ in range(m)]
                size = m if rng.random() < 0.8 else rng.randint(0, m - 1)
            for r in range(1, size + 1):
                cells[(t, r, i)] = col[r - 1]
            length[(t, i)] = size

    def bar(t):
        out = []
        for j in range(n):
            size, roll = length[(t, j)], rng.random()
            if roll < 0.1 and t > 1:
                out.append((t - 1, m))  # the whole board t is missed
            elif roll < 0.3 and size > 0:
                out.append((t, size - 1))  # the final write is missed
            else:
                out.append((t, size))
        return tuple(out)

    disclosed = {}
    for k in range(1, epochs + 1):
        t = k * T + 1
        for q in range(n):
            roll = rng.random()
            if roll < 0.15:
                continue  # q never disclosed at this boundary
            if roll < 0.2:
                continue  # q's disclosure was malformed: the gate kept it off the board
            vec = bar(t - 1)
            disclosed[(k, q)] = vec
            cells[(t, 0, q)] = vec
    coin_bars = {t: bar(t) for t in range(1, last_t + 1)}
    return cells, bad, disclosed, coin_bars


def _weight_path_record(seed):
    from bftsim.blackboard import BlackboardNode

    p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=16, c=1)
    cells, bad, disclosed, coin_bars = _synthetic_board(seed, p.n, p.m, p.T)
    node = BlackboardNode(0, p, lambda t, r: 1, lambda payload: None)
    node.cells = cells
    book = WeightBook(p, node)
    weights = [[book.weight_of(i, k) for i in range(p.n)] for k in range(4)]
    viewers = [(k, q, book.viewer_weights(vec, k)) for (k, q), vec in sorted(disclosed.items())]
    coins = []
    for t, lastbar in coin_bars.items():
        view = FinalView(t, lastbar, cells, p.n, p.m)
        k = book.epoch_of_board(t)
        coins.append(coin_flip(view, [book.weight_of(i, k) for i in range(p.n)], p))
    return bad, weights, viewers, coins


# computed before the column-sum, correlation-matrix and consensus-weight merges
WEIGHT_PATH_DIGEST = "55dce60e96fcc56e6cf7201b180af11ede5f53cd527d87a4fd9a3894c7f66826"


def test_golden_weight_path_digest():
    """Pins the reconstructive weight path with f > 0: WeightBook.weight_of
    for k = 0..3, viewer_weights on every disclosed bar and coin_flip over
    lagging views, on seeded synthetic boards (n=9, f=2, m=8, T=16, c=1)."""
    import hashlib

    records = [_weight_path_record(seed) for seed in range(24)]
    lowered = sum(any(w < 1.0 for w in rec[1][-1]) for rec in records)
    assert lowered >= 18, lowered  # the colluders lose weight in most seeds
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == WEIGHT_PATH_DIGEST


# -- verdicts -------------------------------------------------------------------


def test_check_agreement_flags_divergence():
    decisions = {0: DecisionRecord(0, 1, 1), 1: DecisionRecord(1, 1, -1)}
    v = check_agreement({0: 1, 1: 1}, decisions, [0, 1])
    assert "agreement: good processes decided different values" in v["bracha-agreement"]


def test_check_agreement_validity():
    decisions = {0: DecisionRecord(0, 1, -1), 1: DecisionRecord(1, 1, -1)}
    v = check_agreement({0: 1, 1: 1}, decisions, [0, 1])
    assert not v["bracha-agreement"] and v["bracha-validity"]


def test_check_agreement_lag():
    decisions = {0: DecisionRecord(0, 1, 1), 1: DecisionRecord(1, 3, 1)}
    v = check_agreement({0: 1, 1: -1}, decisions, [0, 1])
    assert v["decision-lag"]


def test_check_agreement_lag_with_undecided_process():
    # the lag is checked across the good processes that decided, even when
    # another good process has not decided yet
    decisions = {0: DecisionRecord(0, 1, 1), 1: DecisionRecord(1, 4, 1)}
    v = check_agreement({0: 1, 1: -1, 2: 1}, decisions, [0, 1, 2])
    assert "decision lag 3 > 1" in v["decision-lag"]


def test_check_agreement_judges_safety_only():
    # no decision yet is no safety violation: liveness is the runner's to judge
    v = check_agreement({0: 1, 1: -1}, {}, [0, 1])
    # mixed inputs: validity does not apply, so it has no verdict
    assert v == {"bracha-agreement": [], "decision-lag": []}
    assert check_agreement({0: 1, 1: 1}, {}, [0, 1])["bracha-validity"] == []


def test_bracha_record_reports_non_termination_without_a_violation():
    # the runner says an undecided run did not finish, and files no violation
    cfg = _bracha_cfg(n=4, f=1, adversary="honest-random", inputs="mixed", max_events=200)
    rec = run_bracha_once(cfg, 0)
    assert rec["stopped"] == "max-events" and not rec["decided"]
    assert rec["violations"] == [] and rec["validity_ok"] is True


def test_epoch_advance_identity_under_thresholds():
    p = ProtocolParams(n=4, f=1, m=4, T=16, c=4)
    w = [1.0, 0.9, 1.0, 0.2]
    new, matching, deps = epoch_advance(w, [0.0] * 4, np.zeros((4, 4)), p)
    assert new == w
    assert not matching.mu


def test_thousand_fuzzed_schedules_safety():
    # module invariant: no agreement/validity violation under 10^3 fuzzed
    # schedules (smallest viable configuration to keep this fast)
    cfg = _bracha_cfg(n=4, f=1, adversary="fuzz", inputs="mixed", max_iterations=16)
    bad = []
    decided = 0
    for seed in range(1000):
        rec = run_bracha_once(cfg, seed)
        if rec["violations"]:
            bad.append((seed, rec["violations"]))
        decided += rec["decided"]
    assert bad == []
    assert decided >= 990  # fuzzed scheduling may stall a few runs past the cap
