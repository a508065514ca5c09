import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim.adversary import Counteract
from bftsim.game import (
    CounteractGame,
    GameConfig,
    run_game,
)
from bftsim.params import ConfigInvalid, ProtocolParams, sgn


def _params(**kw):
    base = dict(n=9, f=2, eps=0.5, m=8, T=64, c=4)
    base.update(kw)
    return ProtocolParams(**base)


# -- counteract value assignment ------------------------------------------------


def _bad_raws(sigma, good_sum, weights, x_max, m, slack=0.0):
    """The raw sums the counteract game writes for corrupted pids 0..f-1."""
    cols = CounteractGame().bad_columns(1, sigma, np.array(weights), good_sum, slack,
                                        frozenset(range(len(weights))), m, x_max, None)
    return [cols[i][0] for i in range(len(weights))]


def test_counteract_pads_to_zero_when_good_sum_agrees():
    # sigma = +1 and the good sum already positive: bad writes sum to ~0
    assert sum(_bad_raws(1, good_sum=5.0, weights=[1.0, 1.0], x_max=8.0, m=8)) == 0


def test_counteract_covers_deficit():
    # sigma=+1, weighted good sum -10, f=2: bad weighted sum >= 8 (slack f=2)
    assert sum(_bad_raws(1, -10.0, [1.0, 1.0], x_max=8.0, m=8, slack=2.0)) >= 8.0


def test_counteract_saturates_at_capacity():
    assert _bad_raws(1, -100.0, [1.0, 1.0], x_max=8.0, m=8) == [8, 8]  # best effort at the cap


def test_achievable_column_sum_parity_and_cap():
    # every column the counteract game writes is a full-column sum: an
    # integer of parity m within [-m, m]; a pushing column, whose target is
    # the deficit up to the cap, never undershoots it
    opp = CounteractGame()
    for m in (4, 5, 8):
        for deficit in (-11.0, -3.2, -0.4, 0.0, 0.7, 2.0, 2.5, 9.9):
            for sigma in (1, -1):
                for x_max in (2.5, 9.0):
                    cols = opp.bad_columns(1, sigma, np.ones(1), -sigma * deficit, 0.0,
                                           frozenset({0}), m, x_max, None)
                    raw, last = cols[0]
                    assert abs(raw) <= m
                    assert (raw - m) % 2 == 0
                    assert last in (1, -1)
                    target = min(float(m), x_max, deficit)
                    if target > 0:
                        assert sigma * raw >= min(target, m - 1)  # never undershoots


_weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-9, 1.0))  # no subnormal weights


@settings(max_examples=300, deadline=None)
@given(sigma=st.sampled_from((1, -1)), m=st.integers(1, 12), x_scale=st.floats(0.05, 2.0),
       weights=st.lists(_weight, min_size=1, max_size=8), data=st.data(),
       slack=st.one_of(st.just(0.0), st.floats(0.0, 30.0)), good_sum=st.floats(-40.0, 40.0))
def test_counteract_columns_match_reference(sigma, m, x_scale, weights, data, slack, good_sum):
    # differential oracle: the game's one pass over the corrupted columns
    # writes what the reference's two steps write (real targets, then each
    # rounded to a full-column sum), for x_max below and above m, zero and
    # fractional weights and any hide slack
    from oracles import achievable_column_sum, counteract_bad_values

    bad = data.draw(st.frozensets(st.integers(0, len(weights) - 1)))
    w = np.array(weights)  # np.float64 entries, as the game's weight vector
    x_max = m * x_scale
    got = CounteractGame().bad_columns(1, sigma, w, good_sum, slack, bad, m, x_max, None)
    order = sorted(bad)
    targets = counteract_bad_values(sigma, good_sum, [w[i] for i in order], x_max, m, slack=slack)
    want = {i: achievable_column_sum(tgt, m, sigma) for i, tgt in zip(order, targets)}
    assert got == want
    assert all(type(raw) is int for raw, _ in got.values())


# -- engine behavior -------------------------------------------------------------


def test_honest_game_keeps_unit_weights():
    cfg = GameConfig(params=_params(n=8, f=0, T=64), adversary="honest-random", epochs=3, seed=1)
    report = run_game(cfg)
    assert len(report.epochs) == 3
    for ep in report.epochs:
        assert ep.weights_out == [1.0] * 8
        assert ep.inv_ok


def test_honest_game_gap_lemma_thresholds_hold():
    p = _params(n=8, f=0, T=256)
    cfg = GameConfig(params=p, adversary="honest-random", epochs=5, seed=2)
    report = run_game(cfg)
    for ep in report.epochs:
        for i in range(p.n):
            assert ep.dev[i] <= p.alpha_T
        tri = ep.corr[np.triu_indices(p.n, 1)]
        assert (tri <= p.beta_T).all()


def test_determinism_same_seed_same_report():
    cfg = GameConfig(params=_params(), adversary="counteract", epochs=2, seed=7)
    a = run_game(cfg)
    b = run_game(cfg)
    assert a.bad == b.bad
    assert a.ended_at == b.ended_at
    for ea, eb in zip(a.epochs, b.epochs):
        assert ea.weights_out == eb.weights_out
        assert ea.sg_series == eb.sg_series
        assert ea.sb_series == eb.sb_series


def test_counteract_respects_budget_and_invariant():
    cfg = GameConfig(params=_params(T=128), adversary="counteract", epochs=4, seed=3,
                     stop_on_natural_end=False)
    report = run_game(cfg)
    assert len(report.bad) == 2
    for ep in report.epochs:
        assert ep.inv_ok, (ep.inv_lhs, ep.inv_rhs)
        # weights are non-increasing per process across the epoch boundary
        for win, wout in zip(ep.weights_in, ep.weights_out):
            assert wout <= win + 1e-12


def test_counteract_forces_or_ends():
    # in every iteration the adversary either keeps some good view at sigma or
    # the game ends naturally in that iteration
    p = _params(T=128)
    cfg = GameConfig(params=p, adversary="counteract", epochs=1, seed=11,
                     stop_on_natural_end=True, record_series=True)
    report = run_game(cfg)
    ep = report.epochs[0]
    end = ep.natural_end_at
    for t, (sg, sb, sig) in enumerate(
        zip(ep.sg_series, ep.sb_series, ep.sigma_series), start=1
    ):
        if end is not None and t >= end:
            break
        # survived: total can be pushed to sigma within the f view slack
        assert sgn(sg + sb) == sig or abs(sg + sb) <= p.f + p.x_max


def test_zero_weight_endgame_unanimity():
    p = _params(n=9, f=2, T=500)
    cfg = GameConfig(params=p, adversary="counteract", epochs=1, seed=13,
                     zero_bad_weights=True, stop_on_natural_end=False)
    report = run_game(cfg)
    ep = report.epochs[0]
    assert ep.iters_played == 500
    assert ep.unanimous_iters / ep.iters_played >= 0.25


def test_colluding_game_builds_pairwise_correlation():
    # the detection gap needs T > (c ln n)^3; T = 2048 opens it at n=9, c=4,
    # and the colluding pair's identical columns then cross the budget
    p = _params(n=9, f=2, T=2048)
    assert p.m * p.T > p.beta_T
    cfg = GameConfig(params=p, adversary="colluding", epochs=1, seed=17,
                     stop_on_natural_end=False)
    report = run_game(cfg)
    ep = report.epochs[0]
    bad = sorted(report.bad)
    assert ep.corr[bad[0], bad[1]] >= p.beta_T
    tri = ep.corr[np.triu_indices(p.n, 1)]
    assert ep.corr[bad[0], bad[1]] == tri.max()  # the colluders are the top pair
    # the bad-pair edge capacity exceeds both vertex capacities, so the raise
    # saturates both colluders: total bad weight drops by 2
    drop = sum(1.0 - ep.weights_out[i] for i in bad)
    assert drop == pytest.approx(2.0)
    assert all(ep.weights_out[i] == 1.0 for i in range(p.n) if i not in report.bad)


def test_crash_game_weights_stay_without_disclosure():
    p = _params(n=9, f=2, T=64)
    cfg = GameConfig(params=p, adversary="crash-stop", epochs=2, seed=19)
    report = run_game(cfg)
    for ep in report.epochs:
        assert ep.inv_ok
        for i in report.bad:
            assert ep.weights_out[i] == 1.0  # silent: weight stays uncertain/carried


def test_direction_follows_dec_candidate():
    class FakeHandler:
        def __init__(self, v):
            self.v = v

    class FakeWorld:
        handlers = [FakeHandler(("dec", 1)), FakeHandler(1)]

    strat = Counteract(seed=0)
    strat.world = FakeWorld()
    strat._sigma = {}
    assert strat.direction(3) == -1
    strat2 = Counteract(seed=0)

    class PlainWorld:
        handlers = [FakeHandler(1), FakeHandler(-1)]

    strat2.world = PlainWorld()
    strat2._sigma = {}
    assert strat2.direction(3) == 1  # stated default


def test_viewer_stats_differ_boundedly():
    # frozen-view statistics differ from truth only on the hidden columns,
    # each by at most 2 * x_max in dev
    from bftsim.game import _adjusted_stats
    from bftsim.params import clamp_coin_sum

    p = _params(n=6, f=1, m=8, T=4)
    rngmat = np.random.default_rng(3)
    dev = rngmat.uniform(0, 50, size=6)
    corr = rngmat.uniform(-5, 5, size=(6, 6))
    corr = (corr + corr.T) / 2
    np.fill_diagonal(corr, 0.0)
    w = np.ones(6)
    last_raw = np.array([3, -5, 8, 0, 1, -2])
    last_lam = np.array([1, -1, 1, 0, 1, -1])
    final_wx = w * np.array([clamp_coin_sum(float(v), p.x_max) for v in last_raw])
    dv, cv = _adjusted_stats(dev, corr, final_wx, last_raw, last_lam, w, {2}, p)
    diffs = [i for i in range(6) if dv[i] != dev[i]]
    assert diffs == [2]
    assert abs(dv[2] - dev[2]) <= 2 * p.x_max + 1e-9
    # corr adjustments touch only pairs involving the hidden column
    changed = {(i, j) for i in range(6) for j in range(6) if cv[i][j] != corr[i, j]}
    assert changed and all(2 in pair for pair in changed)


def test_restart_rule_resets_weights():
    # k_max = 1: epoch 1 updates, epoch 2 is the endgame, epoch 3 restarts at 1
    p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=2048, c=4, k_max=1)
    cfg = GameConfig(params=p, adversary="colluding", epochs=3, seed=17,
                     stop_on_natural_end=False)
    rep = run_game(cfg)
    bad = sorted(rep.bad)
    assert rep.epochs[0].weights_out[bad[0]] == 0.0  # docked in epoch 1
    assert rep.epochs[2].weights_in == [1.0] * 9  # restart after the endgame epoch


# -- block-drawn flips -----------------------------------------------------------


def test_flip_stream_matches_per_call_draws():
    # the stream's block draws split the generator's output differently from
    # one integers() call per column; the values must not depend on the split
    from bftsim.game import _FLIP_BLOCK, FlipStream

    pick = np.random.default_rng(2024)
    lengths = [1, 3, 20, 7, 1] + [int(v) for v in pick.integers(0, 21, size=400)]
    lengths += [_FLIP_BLOCK + 1, 1, 2 * _FLIP_BLOCK + 3, 5]  # longer than a block
    assert sum(lengths) > 4 * _FLIP_BLOCK and 0 in lengths
    stream = FlipStream(np.random.default_rng(np.random.SeedSequence((11, 7, 3))))
    twin = np.random.default_rng(np.random.SeedSequence((11, 7, 3)))
    for length in lengths:
        flips = twin.integers(0, 2, size=length) * 2 - 1
        if length == 0:
            continue  # an empty draw takes nothing; the game skips the column
        assert stream.take(length) == (int(flips.sum()), int(flips[-1]))


def test_flip_stream_blocks_match_per_call_draws():
    # column takes on several streams at once, interleaved with single takes
    # of odd and unequal lengths, read the same flips as one integers() call
    # per column on twin generators, leftovers included
    from bftsim.game import _FLIP_BLOCK, FlipStream

    pick = np.random.default_rng(2025)
    seeds = [np.random.SeedSequence((12, 7, i)) for i in range(5)]
    streams = [FlipStream(np.random.default_rng(s)) for s in seeds]
    twins = [np.random.default_rng(s) for s in seeds]
    shapes = [(1, 1), (3, 1), (130, 7), (1, _FLIP_BLOCK + 5), (64, 8), (300, 7), (2, 3)]
    shapes += [(int(r), int(c)) for r, c in pick.integers(1, 40, size=(60, 2))]
    for k, (rows, length) in enumerate(shapes):
        if k % 3 == 2:  # each stream takes its own odd number of flips
            for stream, twin in zip(streams, twins):
                for _ in range(rows):
                    size = 2 * int(pick.integers(0, 5)) + 1
                    flips = twin.integers(0, 2, size=size) * 2 - 1
                    assert stream.take(size) == (int(flips.sum()), int(flips[-1]))
            continue
        want = [[twin.integers(0, 2, size=length) * 2 - 1 for _ in range(rows)] for twin in twins]
        sums, lasts = FlipStream.take_columns(streams, rows, length)
        assert sums.shape == lasts.shape == (len(streams), rows)
        assert sums.tolist() == [[int(flips.sum()) for flips in cols] for cols in want]
        assert lasts.tolist() == [[int(flips[-1]) for flips in cols] for cols in want]
        # stream 2 runs one flip ahead of the others into the next shape
        ahead, last = FlipStream.take_columns(streams[2:3], 1, 1)
        flip = int(twins[2].integers(0, 2)) * 2 - 1
        assert ahead.tolist() == last.tolist() == [[flip]]


def test_flip_bits_are_the_bounded_integer_draws():
    # the flip mapping itself, over 100 seeded streams: the top bit of each
    # 32-bit half of the raw PCG64 words, low half first, is what numpy's
    # integers(0, 2) returns.  Should numpy change its bounded-integer method,
    # this fails before any golden digest does
    from bftsim.game import FlipStream

    sizes = (1, 2, 3, 1023, 2048)
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7, 0)))
        stream = FlipStream(np.random.default_rng(np.random.SeedSequence((seed, 7, 0))))
        for size in sizes:
            want = rng.integers(0, 2, size=size) * 2 - 1
            got, _ = FlipStream.take_columns([stream], size, 1)
            assert got[0].tolist() == want.tolist()


def _hexes(values):
    return [float(v).hex() for v in values]


def _game_generators(seed, n):
    """Twins of the flip, opponent and view generators ``run_game`` seeds."""
    return ([np.random.default_rng(np.random.SeedSequence((seed, 7, i))) for i in range(n)],
            np.random.default_rng(np.random.SeedSequence((seed, 0xAD))),
            np.random.default_rng(np.random.SeedSequence((seed, 0x51DE))))


# (n, f, T): T * m below, across and above the 1,024-flip block, so epochs
# start on flips left over from the one before; the last two give an odd
# T * m at m = 7, so a column straddles two words and refills fall mid-epoch
REFERENCE_SHAPES = [(9, 2, 100), (13, 3, 130), (20, 4, 300), (41, 10, 24),
                    (9, 2, 101), (20, 4, 147)]


@pytest.mark.parametrize("opponent", ["honest-random", "crash-stop", "colluding"])
def test_whole_epoch_play_matches_reference_loop(opponent):
    # the array play of a whole epoch against the iteration loop it replaces,
    # bit for bit: one seeded three-epoch game per case below
    import itertools

    from bftsim.game import (
        GAME_OPPONENTS, FlipStream, _close_epoch, _epoch_stats, _whole_epoch_draws,
    )
    from oracles import reference_epoch

    cases = itertools.product(REFERENCE_SHAPES, (7, 8), (1, 4), (True, False), (True, False))
    for k, ((n, f, T), m, c, record, zero_bad) in enumerate(cases):
        seed = 95000 + k
        p = ProtocolParams(n=n, f=f, eps=0.5, m=m, T=T, c=c)
        assert p.k_max >= 3  # three epochs, no restart
        cfg = GameConfig(params=p, adversary=opponent, epochs=3, seed=seed,
                         stop_on_natural_end=False, zero_bad_weights=zero_bad,
                         record_series=record)
        report = run_game(cfg)

        opp = GAME_OPPONENTS[opponent]()
        flip_rngs, adv_rng, view_rng = _game_generators(seed, n)
        block_rngs, block_adv_rng, _ = _game_generators(seed, n)
        streams = [FlipStream(rng) for rng in block_rngs]
        bad = opp.pick_bad(n, f, adv_rng)
        assert opp.pick_bad(n, f, block_adv_rng) == bad == report.bad
        good = [i for i in range(n) if i not in bad]
        weights = [0.0 if zero_bad and i in bad else 1.0 for i in range(n)]
        draws = _whole_epoch_draws(p, opp, bad, good, streams, block_adv_rng, 3)
        assert len(report.epochs) == 3
        for ep in report.epochs:
            w = np.asarray(weights, dtype=float)
            want = reference_epoch(opponent, p, w, bad, good, flip_rngs, adv_rng, record)
            sigma, x, raw, lam = next(draws)
            dev, corr, sg_series, sb_series, _ = _epoch_stats(x, w, good, bad, record)
            assert np.asarray(raw).tobytes() == np.array(want["raw"], dtype=np.int64).tobytes()
            assert np.asarray(lam).tobytes() == np.array(want["lam"], dtype=np.int64).tobytes()
            assert dev.tobytes() == want["dev"].tobytes()
            assert corr.tobytes() == want["corr"].tobytes()
            rep = _close_epoch(cfg, opp, ep.epoch, weights, w, bad, good, want["play"], view_rng)
            assert ep.dev.tobytes() == rep.dev.tobytes() == want["dev"].tobytes()
            assert ep.corr.tobytes() == rep.corr.tobytes() == want["corr"].tobytes()
            assert (_hexes(ep.sg_series) == _hexes(rep.sg_series) == _hexes(sg_series)
                    == _hexes(want["sg_series"]))
            assert (_hexes(ep.sb_series) == _hexes(rep.sb_series) == _hexes(sb_series)
                    == _hexes(want["sb_series"]))
            assert (ep.sigma_series == rep.sigma_series == (sigma.tolist() if record else [])
                    == want["sigma_series"])
            assert len(ep.sigma_series) == (T if record else 0)
            assert _hexes(ep.weights_out) == _hexes(rep.weights_out)
            assert (ep.iters_played, ep.unanimous_iters, ep.natural_end_at) == (T, T, None)
            weights = rep.weights_out


def _take_columns_rows(monkeypatch):
    """The row count of every later ``FlipStream.take_columns`` call, in order."""
    from bftsim import game

    rows = []
    real = game.FlipStream.take_columns

    def spy(streams, r, length):
        rows.append(r)
        return real(streams, r, length)

    monkeypatch.setattr(game.FlipStream, "take_columns", staticmethod(spy))
    return rows


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("opponent", ["honest-random", "crash-stop", "colluding"])
def test_batched_epochs_match_reference_loop_across_draws_and_a_restart(monkeypatch, opponent, record):
    # n=5, f=1, so k_max = 3; T * m is odd and just under a third of the flip
    # budget, so the game draws epochs 1-3, 4-6 and 7 at once, and the weights
    # restart after epoch 4, inside the second draw.  At c = 0.1 the views
    # dock good and bad weights every epoch, so the restart changes what epoch
    # 5 plays.  Every epoch equals the reference loop, one integers() call per
    # column and per move, plus the epoch close, bit for bit
    from bftsim import game
    from bftsim.game import GAME_OPPONENTS, _close_epoch
    from oracles import reference_epoch

    n, f, m, seed = 5, 1, 7, 96001
    T = game._FLIP_BUDGET // (3 * m) - 1
    p = ProtocolParams(n=n, f=f, eps=0.5, m=m, T=T, c=0.1)
    assert p.k_max == 3 and game._FLIP_BUDGET // (T * m) == 3 and T * m % 2 == 1
    cfg = GameConfig(params=p, adversary=opponent, epochs=7, seed=seed,
                     stop_on_natural_end=False, record_series=record)
    rows = _take_columns_rows(monkeypatch)
    report = run_game(cfg)
    assert rows == [3 * T, 3 * T, T]

    opp = GAME_OPPONENTS[opponent]()
    flip_rngs, adv_rng, view_rng = _game_generators(seed, n)
    bad = opp.pick_bad(n, f, adv_rng)
    assert bad == report.bad
    good = [i for i in range(n) if i not in bad]
    initial = weights = [1.0] * n
    assert len(report.epochs) == 7
    for ep in report.epochs:
        w = np.asarray(weights, dtype=float)
        want = reference_epoch(opponent, p, w, bad, good, flip_rngs, adv_rng, record)
        rep = _close_epoch(cfg, opp, ep.epoch, weights, w, bad, good, want["play"], view_rng)
        assert _hexes(ep.weights_in) == _hexes(rep.weights_in)
        assert ep.dev.tobytes() == rep.dev.tobytes() == want["dev"].tobytes()
        assert ep.corr.tobytes() == rep.corr.tobytes() == want["corr"].tobytes()
        assert _hexes(ep.sg_series) == _hexes(rep.sg_series) == _hexes(want["sg_series"])
        assert _hexes(ep.sb_series) == _hexes(rep.sb_series) == _hexes(want["sb_series"])
        assert ep.sigma_series == rep.sigma_series == want["sigma_series"]
        assert len(ep.sigma_series) == (T if record else 0)
        assert _hexes(ep.weights_out) == _hexes(rep.weights_out)
        assert _hexes([ep.inv_lhs, ep.inv_rhs]) == _hexes([rep.inv_lhs, rep.inv_rhs])
        assert (ep.iters_played, ep.unanimous_iters, ep.natural_end_at) == (T, T, None)
        weights = initial if ep.epoch % (p.k_max + 1) == 0 else rep.weights_out
    assert report.epochs[4].weights_in == initial != report.epochs[3].weights_out


# (m, T, epochs): one epoch far inside, at half, just under and at the flip
# budget, and above it; the 40-epoch game ends on a short draw
BUDGET_SHAPES = [(8, 256, 5), (8, 256, 40), (8, 2048, 5), (7, 1559, 7), (7, 4681, 3),
                 (8, 4096, 3), (9, 5000, 2)]


@pytest.mark.parametrize("m, T, epochs", BUDGET_SHAPES)
def test_whole_epochs_are_drawn_within_the_flip_budget(monkeypatch, m, T, epochs):
    # every draw is of whole epochs and at least one; a draw of more than one
    # epoch stays within the budget of flips per process, each draw but the
    # last holds as many epochs as fit, and the game draws no epoch it does
    # not play
    from bftsim import game

    rows = _take_columns_rows(monkeypatch)
    cfg = GameConfig(params=ProtocolParams(n=5, f=1, eps=0.5, m=m, T=T, c=4),
                     adversary="colluding", epochs=epochs, seed=1, stop_on_natural_end=False,
                     record_series=False)
    assert len(run_game(cfg).epochs) == epochs
    assert sum(rows) == epochs * T
    fit = max(1, game._FLIP_BUDGET // (T * m))
    assert rows[:-1] == [fit * T] * (len(rows) - 1)
    for r in rows:
        assert r % T == 0 and r >= T
        assert r == T or r * m <= game._FLIP_BUDGET


def _loop_stats(x, w, good, bad):
    """The statistics as the counteract iteration loop accumulated them, one
    row of ``x`` at a time from zeros.  The good entries of a row do not
    change when the bad columns are written, so sg reads the whole row."""
    n = x.shape[1]
    good_ix = np.array(good)
    dev, corr = np.zeros(n), np.zeros((n, n))
    sg_series, sb_series = [], []
    for row in x:
        sg_series.append(float((w * row)[good_ix].sum()))
        wx = w * row
        sb_series.append(float(sum(wx[i] for i in bad)))
        dev += wx**2
        corr += np.outer(wx, wx)
    np.fill_diagonal(corr, 0.0)
    return dev, corr, sg_series, sb_series, wx.tolist()


@pytest.mark.parametrize("n", range(2, 42))
def test_epoch_stats_match_the_iteration_loop(n):
    # the one statistics pass against the per-iteration loop it replaced for
    # counteract, bit for bit, on seeded clipped column sums: a one-row epoch
    # (a natural end at t = 1), one corr chunk exactly, row counts off a
    # multiple of the chunk, and the benchmark's T.  Column 0 has weight 0
    # and only negative sums and column 1 only positive ones, so their
    # products are -0.0, which the loop's zeros turn into 0.0
    from bftsim.game import _CORR_CHUNK, _epoch_stats

    rng = np.random.default_rng(97000 + n)
    step = max(1, _CORR_CHUNK // (n * n))
    x_max = 5.5
    bad = frozenset(int(i) for i in rng.choice(np.arange(1, n), size=(n - 1) // 4, replace=False))
    good = [i for i in range(n) if i not in bad]
    for rows in (1, step, step + 1, 2 * step + 3, 256):
        x = rng.integers(-8, 9, size=(rows, n)).astype(float).clip(-x_max, x_max)
        x[:, 0] = -rng.integers(1, 9, size=rows)
        x[:, 1] = rng.integers(1, 9, size=rows)
        w = rng.uniform(0.0, 1.0, size=n)
        w[0] = 0.0
        w[rng.random(n) < 0.2] = 0.0
        assert np.signbit(w * x).any() and ((w * x) == 0).any()
        want = _loop_stats(x, w, good, bad)
        for record in (True, False):
            dev, corr, sg_series, sb_series, last = _epoch_stats(x, w, good, bad, record)
            assert dev.tobytes() == want[0].tobytes(), (rows, record)
            assert corr.tobytes() == want[1].tobytes(), (rows, record)
            assert _hexes(sg_series) == (_hexes(want[2]) if record else [])
            assert _hexes(sb_series) == (_hexes(want[3]) if record else [])
            assert _hexes(last) == _hexes(want[4])


_HEAP_GAMES = """
import resource
from bftsim.game import GameConfig, run_game
from bftsim.params import ProtocolParams

p = ProtocolParams(n=9, f=2, eps=0.5, m=8, T=256, c=1)
def play(seed):
    run_game(GameConfig(params=p, adversary="colluding", epochs=5, seed=seed,
                        record_series=False))
for seed in range(20):
    play(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(20, 120):
    play(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


def test_colluding_games_fault_in_no_fresh_heap_pages():
    # benchmark-shaped colluding games after a warm-up, in a fresh
    # interpreter: a per-game temporary that lets glibc trim the top of the
    # heap makes every later game fault its pages back in (about 90 minor
    # faults a game with _CORR_CHUNK = 1 << 15, against none at 1 << 13)
    import os
    import subprocess
    import sys

    pytest.importorskip("resource")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    res = subprocess.run([sys.executable, "-c", _HEAP_GAMES], capture_output=True, text=True,
                         env=env, cwd=root, timeout=300)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 10


# (opponent, params, epochs, seed): each opponent's frozen views; the c=1
# colluding game is the benchmark's shape, and its colluders lose weight
FROZEN_VIEW_GAMES = [
    ("honest-random", dict(n=9, f=2, m=8, T=64, c=4), 2, 91001),
    ("crash-stop", dict(n=13, f=3, m=7, T=48, c=4), 2, 91002),
    ("counteract", dict(n=9, f=2, m=7, T=96, c=4), 3, 91003),
    ("colluding", dict(n=9, f=2, m=8, T=256, c=1), 5, 91004),
]


@pytest.mark.parametrize("opponent, params, epochs, seed", FROZEN_VIEW_GAMES)
def test_epoch_advance_same_bits_from_numpy_and_float_weights(
        monkeypatch, opponent, params, epochs, seed):
    # every frozen view a seeded game hands to epoch_advance, replayed with
    # the weights as numpy scalars (list(w)) and as floats (w.tolist()), and
    # against the pre-change raise and update
    from bftsim import game
    from bftsim.agreement import epoch_advance
    from bftsim.matching import build_excess_graph
    from oracles import reference_rising_tide, reference_weight_update_local

    views = []
    real = game.epoch_advance

    def capture(weights, dev, corr, p):
        views.append((np.array(weights, dtype=float), dev.copy(), corr.copy(), p))
        return real(weights, dev, corr, p)

    monkeypatch.setattr(game, "epoch_advance", capture)
    cfg = GameConfig(params=ProtocolParams(eps=0.5, **params), adversary=opponent,
                     epochs=epochs, seed=seed, stop_on_natural_end=False)
    report = run_game(cfg)
    assert len(views) >= epochs * (params["n"] - params["f"])
    for w, dev, corr, p in views:
        runs = []
        for weights in (list(w), w.tolist()):
            new, m, deps = epoch_advance(weights, dev.copy(), corr.copy(), p)
            runs.append((_hexes(new), list(m.mu.items()), m.steps, deps.edges))
        assert runs[0] == runs[1]
        ref_m, ref_deps = reference_rising_tide(build_excess_graph(list(w), dev, corr, p))
        ref_new = reference_weight_update_local(list(w), ref_m)
        assert runs[1] == (_hexes(ref_new), list(ref_m.mu.items()), ref_m.steps, ref_deps.edges)
    if opponent == "colluding":
        assert min(min(ep.weights_out) for ep in report.epochs) < 1.0


def test_unknown_game_adversary_is_config_invalid():
    with pytest.raises(ConfigInvalid, match="unknown game adversary"):
        run_game(GameConfig(params=_params(), adversary="no-such-opponent"))


@pytest.mark.parametrize("epochs", [0, -1])
def test_game_without_epochs_is_config_invalid(epochs):
    with pytest.raises(ConfigInvalid, match="epochs"):
        run_game(GameConfig(params=_params(), epochs=epochs))


# -- golden digests --------------------------------------------------------------


def _game_digest(report) -> str:
    """sha256 of a whole GameReport; every float enters by its exact bits, so
    the digest is blind to float vs numpy scalar types but not to any value."""
    import hashlib

    def nums(vals):
        return [float(v).hex() for v in vals]

    parts = [sorted(report.bad), report.ended_at]
    for ep in report.epochs:
        parts.append([
            ep.epoch, sorted(ep.bad), nums(ep.weights_in), nums(ep.weights_out),
            ep.iters_played, ep.natural_end_at, ep.unanimous_iters,
            nums(ep.sg_series), nums(ep.sb_series), [int(s) for s in ep.sigma_series],
            nums([ep.inv_lhs, ep.inv_rhs]), bool(ep.inv_ok),
            ep.dev.dtype.str, ep.dev.tobytes().hex(), ep.corr.dtype.str, ep.corr.tobytes().hex(),
        ])
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# (adversary, params, epochs, seed, stop_on_natural_end, zero_bad_weights),
# seeds no benchmark operation uses; the colluding n=9 game draws 6,912 flips
# per good process, and the counteract games leave columns of every length
GOLDEN_GAMES = {
    "honest": ("honest-random", dict(n=9, f=2, m=8, T=64, c=4), 2, 90001, True, False),
    "crash-odd-m": ("crash-stop", dict(n=13, f=3, m=7, T=48, c=4), 2, 90002, True, False),
    "counteract-odd-m": ("counteract", dict(n=9, f=2, m=7, T=96, c=4), 3, 90003, False, False),
    "counteract-stop": ("counteract", dict(n=9, f=2, m=8, T=128, c=4), 3, 90004, True, False),
    "counteract-zero-bad": ("counteract", dict(n=13, f=3, m=9, T=64, c=4), 2, 90005, False, True),
    "colluding-m9": ("colluding", dict(n=9, f=2, m=9, T=256, c=1), 3, 90006, True, False),
    "colluding-n20": ("colluding", dict(n=20, f=4, m=8, T=64, c=1), 2, 90007, False, False),
}

GOLDEN_DIGESTS = {  # computed before the block-drawn flip stream
    "colluding-m9": "221ae519adfbbb163e61537baf676c73de4e35a405498d7a19d8a074006b74a3",
    "colluding-n20": "72d9c1a9343d25a3741fb17e3afffff3ff5e3373897bb6e1de78b7c5ef946d5b",
    "counteract-odd-m": "fd6ac6ed15f994002b40f2f2068a80bb9cf2b04c6bfda7d137b9d94bd7ec404f",
    "counteract-stop": "c5ed06ceb143213d06ace0df58a8c4b7594ab9339c6822822727d7b38a6d6885",
    "counteract-zero-bad": "3821c3caf829c8cb78bb8a26d206f6a56bd97a71bdf550a0f35e7b48a967504f",
    "crash-odd-m": "9e5b8472939772927c47ddaea9fd99e8f9e8e03087210934efe7f762f070e0a4",
    "honest": "d4cc37dda22df6570c3bc23b97630eb101b6201d019f29bda993c0574920933f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GAMES))
def test_golden_game_digest(name):
    # frozen determinism anchor: the whole report of a seeded game, bit for bit
    adversary, params, epochs, seed, stop, zero_bad = GOLDEN_GAMES[name]
    cfg = GameConfig(params=ProtocolParams(eps=0.5, **params), adversary=adversary,
                     epochs=epochs, seed=seed, stop_on_natural_end=stop,
                     zero_bad_weights=zero_bad)
    assert _game_digest(run_game(cfg)) == GOLDEN_DIGESTS[name]
