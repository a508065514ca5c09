"""Pluggable adversaries: full-information scheduling strategies for the
event simulator, plus the simplified-game and epoch-game opponents.

Every strategy is a deterministic function of (seed, world): it sees every
process state and buffer, but not the processes' future randomness.
Replaying a run with the same seed and configuration reproduces the schedule
bit for bit.
"""
from __future__ import annotations

import random
import weakref

from .broadcast import INIT, ECHO, READY


class Strategy:
    """Base scheduling strategy: uniform-ish fair interleaving, no corruption.

    ``sim.run`` picks every event itself and reads a strategy's scheduling
    restrictions as data.  It refuses a compute at a process in ``blocked``
    with probability ``block_compute``, and a delivery to one with
    probability ``block_deliver``; each refusal test draws one
    ``rng.random()``, except at probability 1.0, which refuses without a
    draw.  A subclass that defines ``rotate`` has it called before the first
    event and again each time the number of events it returned has passed;
    it may replace ``blocked``.  A subclass that corrupts sets
    ``corruptions`` in ``setup`` to a list of ``(clock, pid)`` in the order
    they happen; once ``world.clock`` has reached the head's clock, the
    loop pops the head and corrupts its pid as the next event, with no
    draw.  The loop uses the list up.  ``starved`` are the processes the
    schedule never runs and ``slowed`` those it runs only under refusal; a
    subclass replaces these sets, never changes them in place.
    """

    name = "honest-random"
    blocked = starved = slowed = frozenset()
    block_compute = block_deliver = 1.0
    rotate = None
    corruptions = ()

    def __init__(self, seed=0):
        self.seed = seed
        self.rng = random.Random(f"{seed}/adv/{self.name}")
        self.world = None

    def setup(self, world):
        self.world = world

    def on_corrupt(self, world, pid):
        pass

    def corrupted_compute(self, world, pid, inbox):
        return []


class FuzzSchedule(Strategy):
    """Random adversarial orderings: biased event choice plus rotating
    temporary starvation of up to f processes."""

    name = "fuzz"
    block_compute, block_deliver = 0.95, 0.9

    @property
    def slowed(self):
        return self.blocked

    def rotate(self):
        params = self.world.params
        count = self.rng.randint(0, params.f)
        self.blocked = frozenset(self.rng.sample(range(params.n), count))
        return self.rng.randint(50, 400)


class CrashStop(Strategy):
    """Corrupts f processes at seeded clocks in [0, horizon]; they go silent."""

    name = "crash-stop"
    horizon = 400

    def setup(self, world):
        super().setup(world)
        f = world.params.f
        pids = self.rng.sample(range(world.params.n), f)
        self.corruptions = sorted(
            (self.rng.randint(0, self.horizon), pid) for pid in pids
        )


class StarveSubset(Strategy):
    """Never schedules a fixed set of f good processes; corrupts no one."""

    name = "starve-subset"

    @property
    def starved(self):
        return self.blocked

    def setup(self, world):
        super().setup(world)
        self.blocked = frozenset(self.rng.sample(range(world.params.n), world.params.f))


class _ProtocolCompliantCorruption(Strategy):
    """Corrupts f processes immediately; they keep running the protocol but the
    adversary supplies their coin values."""

    def setup(self, world):
        super().setup(world)
        self.bad = sorted(self.rng.sample(range(world.params.n), world.params.f))
        self.corruptions = [(0, pid) for pid in self.bad]

    def on_corrupt(self, world, pid):
        handler = world.handlers[pid]
        if hasattr(handler, "coin_source"):
            # weak, as agreement._weak: the world holds the handler, and a
            # strong closure would make every finished run cyclic garbage
            strategy, world_ref = weakref.ref(self), weakref.ref(world)
            handler.coin_source = lambda t, r: strategy().bad_value(world_ref(), pid, t, r)

    def corrupted_compute(self, world, pid, inbox):
        # protocol-compliant byzantine: the handler keeps running, values rigged
        handler = world.handlers[pid]
        out = []
        if not getattr(handler, "started_flag", True):
            out += handler.on_start()
        out += handler.on_compute(inbox)
        return out


class Counteract(_ProtocolCompliantCorruption):
    """Forces coin outcomes toward the adversarial direction by choosing bad
    blackboard writes that offset the observed good sum."""

    name = "counteract"

    def setup(self, world):
        super().setup(world)
        self._sigma = {}
        self._pad = {}

    def direction(self, t) -> int:
        got = self._sigma.get(t)
        if got is None:
            got = 1
            if self.world is not None:
                for h in self.world.handlers:
                    v = getattr(h, "v", None)
                    if isinstance(v, tuple) and len(v) == 2 and v[0] == "dec":
                        got = -v[1]
                        break
            self._sigma[t] = got
        return got

    def bad_value(self, world, pid, t, r):
        sigma = self.direction(t)
        # every coin written to board t so far, good and bad
        total = sum(v for h in world.handlers for (tt, _r), v in h.write_log.items() if tt == t)
        if sigma * total < 0:
            return sigma
        pad = self._pad.get(t, 1)
        self._pad[t] = -pad
        return pad


class Colluding(_ProtocolCompliantCorruption):
    """Bad players copy one leader's coin flips, maximizing pairwise correlation."""

    name = "colluding"

    def setup(self, world):
        super().setup(world)
        self._leader_vals = {}

    def bad_value(self, world, pid, t, r):
        key = (t, r)
        if key not in self._leader_vals:
            self._leader_vals[key] = self.rng.choice((-1, 1))
        return self._leader_vals[key]


class Equivocator(Strategy):
    """Broadcast-layer fault injector: one corrupted sender, process seed mod
    n, mounts conflicting broadcasts for ``seqs`` sequence numbers plus
    random echo/ready noise."""

    name = "equivocator"
    seqs = 3
    sent = False

    def setup(self, world):
        super().setup(world)
        self.target = self.seed % world.params.n
        self.corruptions = [(0, self.target)]

    def corrupted_compute(self, world, pid, inbox):
        if self.sent or pid != self.target:
            return []
        self.sent = True
        n = world.params.n
        out = []
        others = [i for i in range(n) if i != pid]
        for seq in range(1, self.seqs + 1):
            pay_a = ("payload", seq, "A")
            pay_b = ("payload", seq, "B")
            split = self.rng.randint(1, len(others) - 1)
            shuffled = list(others)
            self.rng.shuffle(shuffled)
            for dst in shuffled[:split]:
                out.append((dst, (INIT, pid, seq, pay_a)))
            for dst in shuffled[split:]:
                out.append((dst, (INIT, pid, seq, pay_b)))
            # forged support for both payloads
            for dst in others:
                if self.rng.random() < 0.6:
                    out.append((dst, (ECHO, pid, seq, pay_a if self.rng.random() < 0.5 else pay_b)))
                if self.rng.random() < 0.4:
                    out.append((dst, (READY, pid, seq, pay_a if self.rng.random() < 0.5 else pay_b)))
        return out


STRATEGIES = {
    cls.name: cls
    for cls in (
        Strategy,
        FuzzSchedule,
        CrashStop,
        StarveSubset,
        Counteract,
        Colluding,
        Equivocator,
    )
}


# -- simplified-game opponents ---------------------------------------------


def random_bad_set(n, f, rng):
    """The corrupted set of a game, simplified or epoch: f distinct
    processes drawn uniformly by a numpy generator."""
    return frozenset(int(i) for i in rng.choice(n, size=f, replace=False))


class SimpleHonest:
    """No bad players at all (the f slots flip fair coins)."""

    name = "simple-honest"

    def moves(self, good_sums, bad, rng):
        import numpy as np

        # one draw per round and bad player, in the order ``bad`` iterates,
        # which is not always sorted order
        flips = rng.integers(0, 2, size=(len(good_sums), len(bad))) * 2 - 1
        return np.ones(len(good_sums), dtype=np.int64), flips[:, np.argsort(list(bad))]


class SimpleCounteract:
    """Minimal-offset counteracting: pad to zero-ish when the good sum already
    points the right way, otherwise push just past the deficit, rotating which
    bad players push."""

    name = "simple-counteract"

    def moves(self, good_sums, bad, rng):
        import numpy as np

        T, f = len(good_sums), len(bad)
        sigma = rng.integers(0, 2, size=T) * 2 - 1
        if not f:
            return sigma, np.zeros((T, 0), dtype=np.int64)
        # sgn(0) = +1: sigma=+1 needs S >= 0, sigma=-1 needs S <= -1
        need = -sigma * good_sums + (sigma == -1)
        target = np.maximum(need, f % 2)  # smallest achievable |sum| has the parity of f
        target += (target - f) % 2
        target = np.minimum(target, f)  # best effort beyond capacity
        pushers = (target + f) // 2
        role = (np.arange(f) + np.arange(T)[:, None]) % f
        return sigma, np.where(role < pushers[:, None], sigma[:, None], -sigma[:, None])


class SimpleColluding:
    """Colluding-counteract: every bad player copies the leader, and the leader
    always plays the adversarial direction (maximal joint push)."""

    name = "simple-colluding"

    def moves(self, good_sums, bad, rng):
        import numpy as np

        sigma = rng.integers(0, 2, size=len(good_sums)) * 2 - 1
        return sigma, np.broadcast_to(sigma[:, None], (len(sigma), len(bad)))


# A simplified-game opponent has a ``name`` and one method, ``moves(good_sums,
# bad, rng)``.  It sees the T rounds' good sums and the bad set, and returns
# the directions of all T rounds (each +1 or -1) and the bad values as a
# (T, f) array whose columns follow ``sorted(bad)``.  ``rng`` is the
# adversary's generator, just past the draw of ``bad``.
SIMPLE_ADVERSARIES = {
    cls.name: cls
    for cls in (SimpleHonest, SimpleCounteract, SimpleColluding)
}
