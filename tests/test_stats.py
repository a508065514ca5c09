import numpy as np
import pytest

from bftsim.adversary import SIMPLE_ADVERSARIES, SimpleColluding, SimpleCounteract, SimpleHonest
from bftsim.stats import (
    SimpleGameConfig,
    compute_stats,
    detect_pair,
    run_simplified_game,
)


def test_stats_zero_inputs():
    dev, corr = compute_stats([[0, 0, 0]] * 4, [1.0, 1.0, 1.0])
    assert dev == [0, 0, 0]
    assert corr.shape == (3, 3) and not corr.any()


def test_stats_single_round_formula():
    # T=1, w=0.5 each, X = (2, -2): dev = (1, 1), corr(0,1) = 0.25 * (2 * -2) = -1
    dev, corr = compute_stats([[2, -2]], [0.5, 0.5])
    assert dev == [1.0, 1.0]
    assert corr[0, 1] == -1.0


def test_stats_zero_weights_kill_everything():
    xs = np.arange(24).reshape(8, 3) - 11
    dev, corr = compute_stats(xs, [0.0, 0.0, 0.0])
    assert dev == [0, 0, 0]
    assert not corr.any()


def test_corr_is_symmetric_accessor():
    # corr is a symmetric matrix; the diagonal, which dev carries, is zero
    dev, corr = compute_stats([[1, -1, 1], [1, 1, -1]], [1, 1, 1])
    assert (corr == corr.T).all()
    assert corr[2, 1] == corr[1, 2] == -2.0
    assert not corr.diagonal().any() and dev == [2.0, 2.0, 2.0]


def test_simple_game_config_fault_budget():
    cfg = SimpleGameConfig(n=20, T=100, eps=1.0)
    assert cfg.f == 5  # floor(20 / 4)
    assert 3 * cfg.f < cfg.n


def test_all_good_game_mean_stop_near_two():
    # with no bad players the continue probability is 1/2 per round:
    # E[rounds played to first loss] = 2 exactly; Monte Carlo band [1.8, 2.2].
    # Every game records all T rounds, and T = 64 caps the mean at
    # 2 (1 - 2^-64), well inside the band
    cfg = SimpleGameConfig(n=9, T=64, eps=1.0)
    total = 0
    runs = 10_000
    for seed in range(runs):
        res = run_simplified_game(cfg, SimpleHonest(), seed)
        total += res.stopped_at or cfg.T
    mean = total / runs
    assert 1.8 <= mean <= 2.2


def test_continue_rule_marks_every_surviving_round():
    cfg = SimpleGameConfig(n=16, T=200, eps=0.2)
    assert cfg.f == 5
    res = run_simplified_game(cfg, SimpleColluding(), seed=3)
    # every round before the stop satisfied sgn(sum) == sigma
    values = res.values
    assert len(values) == cfg.T
    for t in range(res.stopped_at - 1 if res.stopped_at else cfg.T):
        s = int(values[t].sum())
        sig = res.directions[t]
        assert (1 if s >= 0 else -1) == sig


def test_sgn_zero_continues_only_on_plus():
    cfg = SimpleGameConfig(n=4, T=8, eps=1.0)  # f = 0: sums can hit 0
    for seed in range(200):
        res = run_simplified_game(cfg, SimpleHonest(), seed)
        for t in range(res.stopped_at or cfg.T):  # up to the stop
            s = int(res.values[t].sum())
            continued = res.stopped_at is None or t + 1 < res.stopped_at
            if s == 0:
                assert continued == (res.directions[t] == 1)


# (n, T, eps, seeds): unsorted-iterating bad sets at n=9 and n=12, f=0 at
# n=4, the smallest game, eps < 1, and the criterion-05 shape
_REFERENCE_SHAPES = [
    (9, 40, 1.0, range(20)),
    (12, 40, 1.0, range(20)),
    (4, 30, 1.0, range(10)),
    (2, 1, 1.0, range(10)),
    (30, 50, 0.5, range(10)),
    (20, 4000, 1.0, range(3)),
]


@pytest.mark.parametrize("opponent", sorted(SIMPLE_ADVERSARIES))
def test_simplified_game_matches_reference_loop(opponent):
    from oracles import reference_simplified_game

    unsorted = 0
    for n, T, eps, seeds in _REFERENCE_SHAPES:
        cfg = SimpleGameConfig(n=n, T=T, eps=eps)
        for seed in seeds:
            res = run_simplified_game(cfg, SIMPLE_ADVERSARIES[opponent](), seed)
            values, directions, bad, stopped_at = reference_simplified_game(cfg, opponent, seed)
            assert res.values.dtype == values.dtype and (res.values == values).all()
            assert (res.directions == directions).all()
            assert res.bad == bad and res.stopped_at == stopped_at
            unsorted += list(bad) != sorted(bad)
    assert unsorted >= 10  # the column order of the bad values is exercised


def test_detect_pair_matches_pair_loop():
    from oracles import reference_detect_pair

    rng = np.random.default_rng(26)
    for T in (1, 2, 3):
        for n in range(2, 31):
            for _ in range(5):
                values = rng.integers(0, 2, size=(T, n)) * 2 - 1
                assert detect_pair(values) == reference_detect_pair(values)


def test_detect_pair_identical_sequences():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 2, size=50) * 2 - 1
    other = rng.integers(0, 2, size=(50, 3)) * 2 - 1
    values = np.column_stack([base, other[:, 0], base, other[:, 1], other[:, 2]])
    assert detect_pair(values) == (0, 2)


def test_detect_pair_two_players():
    values = np.array([[1, -1], [1, 1], [-1, -1]])
    assert detect_pair(values) == (0, 1)


def test_detect_pair_tie_break_lexicographic():
    values = np.array([[1, 1, 1, 1]])  # all pairs have inner product 1
    assert detect_pair(values) == (0, 1)


def test_detect_pair_permutation_equivariance():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 2, size=(200, 6)) * 2 - 1
    values[:, 4] = values[:, 1]  # plant a correlated pair
    i, j = detect_pair(values)
    assert {i, j} == {1, 4}
    perm = [3, 0, 5, 2, 4, 1]
    shuffled = values[:, perm]
    i2, j2 = detect_pair(shuffled)
    assert {perm[i2], perm[j2]} == {1, 4}


def test_counteract_detection_monte_carlo():
    # desk-scale version of the detection experiment; the acceptance suite
    # runs the full-size calibration
    cfg = SimpleGameConfig(n=12, T=1500, eps=1.0)
    hits = 0
    runs = 40
    for seed in range(runs):
        res = run_simplified_game(cfg, SimpleCounteract(), seed)
        pair = detect_pair(res.values)
        hits += bool(set(pair) & res.bad)
    assert hits / runs >= 0.9

