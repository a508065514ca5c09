import numpy as np

from bftsim.adversary import SimpleColluding, SimpleCounteract, SimpleHonest
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
    # E[rounds played to first loss] = 2 exactly; Monte Carlo band [1.8, 2.2]
    cfg = SimpleGameConfig(n=9, T=64, eps=1.0)
    total = 0
    runs = 10_000
    for seed in range(runs):
        res = run_simplified_game(cfg, SimpleHonest(), seed)
        total += res.rounds_played if res.stopped_at else cfg.T
    mean = total / runs
    assert 1.8 <= mean <= 2.2


def test_continue_rule_marks_every_surviving_round():
    cfg = SimpleGameConfig(n=16, T=200, eps=0.2)
    assert cfg.f == 5
    res = run_simplified_game(cfg, SimpleColluding(), seed=3)
    # every round before the stop satisfied sgn(sum) == sigma
    values = res.values
    for t in range(res.rounds_played - (0 if res.survived else 1)):
        s = int(values[t].sum())
        sig = res.directions[t]
        assert (1 if s >= 0 else -1) == sig


def test_sgn_zero_continues_only_on_plus():
    cfg = SimpleGameConfig(n=4, T=8, eps=1.0)  # f = 0: sums can hit 0
    for seed in range(200):
        res = run_simplified_game(cfg, SimpleHonest(), seed)
        for t in range(res.rounds_played):
            s = int(res.values[t].sum())
            continued = res.stopped_at is None or t + 1 < res.stopped_at
            if s == 0:
                assert continued == (res.directions[t] == 1)


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
        res = run_simplified_game(cfg, SimpleCounteract(), seed, stop_on_loss=False)
        pair = detect_pair(res.values)
        hits += bool(set(pair) & res.bad)
    assert hits / runs >= 0.9

