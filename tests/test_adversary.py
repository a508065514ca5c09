import math

import pytest

from bftsim.adversary import STRATEGIES, SIMPLE_ADVERSARIES, Strategy, make_strategy
from bftsim.broadcast import INIT
from bftsim.game import GameConfig, run_game
from bftsim.harness import make_config, run_bracha_once, run_experiment
from bftsim.params import ProtocolParams, sgn


def test_draw_index_matches_random_choice():
    import random

    from bftsim.adversary import draw_index

    ours, ref = random.Random(2024), random.Random(2024)
    for size in range(1, 301):
        seq = range(size)
        for _ in range(50):
            assert draw_index(ours.getrandbits, size) == ref.choice(seq)
    assert ours.getstate() == ref.getstate()


def test_registry_contents():
    assert {"honest-random", "crash-stop", "starve-subset", "counteract",
            "colluding", "fuzz", "equivocator"} <= set(STRATEGIES)
    assert {"simple-honest", "simple-counteract", "simple-colluding"} <= set(SIMPLE_ADVERSARIES)
    with pytest.raises(KeyError):
        make_strategy("nonsense")


def test_strategies_respect_fault_budget():
    for adversary in ("crash-stop", "counteract", "colluding"):
        cfg = make_config(mode="bracha", n=9, f=2, m=4, T=16, coin="local",
                          adversary=adversary, seeds=[0], inputs="unanimous+1")
        rec = run_bracha_once(cfg, 0)
        assert len(rec["corrupted"]) <= 2
        assert rec["violations"] == []


def test_counteract_effectiveness_at_scale():
    # with unit weights the counteracting adversary forces nearly every coin
    # outcome to sigma once f*m >= 2*sqrt(m*n)
    p = ProtocolParams(n=13, f=3, eps=1 / 3, m=8, T=400, c=4)
    assert p.f * p.m >= 2 * math.sqrt(p.m * p.n)
    cfg = GameConfig(params=p, adversary="counteract", epochs=1, seed=5,
                     stop_on_natural_end=False, record_series=True)
    rep = run_game(cfg)
    ep = rep.epochs[0]
    forced = 0
    for sg, sb, sig in zip(ep.sg_series, ep.sb_series, ep.sigma_series):
        forced += sgn(sg + sb) == sig or abs(sg + sb) <= p.f
    assert forced / ep.iters_played >= 0.9


def test_colluding_copies_leader_exactly():
    strat = make_strategy("colluding", seed=4)

    class W:
        class params:
            n = 9
            f = 2

    strat.rng.sample = lambda population, k: [1, 5]  # fix the bad set
    strat.setup(W())
    vals = [strat.bad_value(None, pid, 1, r) for pid in (1, 5) for r in range(1, 5)]
    assert vals[:4] == vals[4:]  # identical flips for both colluders


def test_starve_subset_fixed_and_bounded():
    cfg = make_config(mode="bracha", n=8, f=2, m=4, T=16, coin="local",
                      adversary="starve-subset", seeds=[0], inputs="unanimous+1")
    rec = run_bracha_once(cfg, 0)
    assert len(rec["starved"]) <= 2
    assert rec["corrupted"] == []  # starvation is scheduling-only
    assert rec["decided"]


def test_direction_commitment_independent_of_other_randomness():
    # sigma(t) is a function of the adversary stream alone: replaying with
    # different unrelated randomness interleaved yields the same directions
    import numpy as np
    from bftsim.game import CounteractGame

    opp = CounteractGame()
    rng1 = np.random.default_rng(np.random.SeedSequence((9, 0xAD)))
    sigmas1 = [opp.direction(t, rng1) for t in range(1, 60)]
    rng2 = np.random.default_rng(np.random.SeedSequence((9, 0xAD)))
    noise = np.random.default_rng(123)
    sigmas2 = []
    for t in range(1, 60):
        sigmas2.append(opp.direction(t, rng2))
        noise.integers(0, 2, size=int(noise.integers(1, 50)))
    assert sigmas1 == sigmas2


@pytest.mark.parametrize("adversary", ["counteract", "colluding"])
def test_corrupting_run_is_freed_without_the_collector(adversary):
    # the coin source handed to corrupted processes holds the strategy and
    # the world weakly, so a finished run leaves no cyclic garbage
    import gc

    cfg = make_config(mode="bracha", n=13, f=3, coin="local", adversary=adversary,
                      seeds=[7], inputs="mixed")
    gc.collect()
    rec = run_bracha_once(cfg, 7)
    assert len(rec["corrupted"]) == 3
    assert gc.collect() == 0


class _JunkSender(Strategy):
    """Corrupts process 0 before anything runs; it opens one reliable
    broadcast of the payload in ``opts["payload"]`` and then stays silent."""

    name = "junk-sender"

    def setup(self, world):
        super().setup(world)
        self._to_corrupt = [0]
        self._sent = False

    def _corruption_due(self, view):
        return self._to_corrupt.pop() if self._to_corrupt else None

    def corrupted_compute(self, world, pid, inbox):
        if self._sent:
            return []
        self._sent = True
        wire = (INIT, pid, 1, self.opts["payload"])
        return [(dst, wire) for dst in range(world.params.n) if dst != pid]


_JUNK_MODES = {
    "bracha-local": dict(mode="bracha", coin="local", m=4, T=16),
    "bracha-blackboard": dict(mode="bracha", coin="blackboard", m=2, T=4, max_iterations=10),
    "blackboard": dict(mode="blackboard", m=2, T=4, boards=2),
}


@pytest.mark.parametrize("mode", sorted(_JUNK_MODES))
@pytest.mark.parametrize("payload", [
    ("write", 1), ("ack",), ("last", 1), ("vote", 1), ("vote", "a", "b", 1),
    ("write", "1", 0, ("dummy",)), ("ack", 1, 1, None), ["vote", 1, 1, 1], (), 7,
], ids=repr)
def test_malformed_payload_does_not_crash_a_run(monkeypatch, mode, payload):
    # a corrupted sender may broadcast anything; the good processes reject
    # what has the wrong tag, arity or field types, and still finish safely
    monkeypatch.setitem(STRATEGIES, _JunkSender.name, _JunkSender)
    cfg = make_config(n=5, f=1, adversary=_JunkSender.name, adversary_args={"payload": payload},
                      inputs="mixed", seeds=[3], **_JUNK_MODES[mode])
    rec = run_experiment(cfg)[0]
    assert rec["violations"] == []
    if cfg.mode == "bracha":
        assert rec["corrupted"] == [0] and rec["decided"]
    else:
        assert rec["finalizers"] >= cfg.n - cfg.f
