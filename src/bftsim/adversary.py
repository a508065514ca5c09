"""Pluggable adversaries: full-information scheduling strategies for the
event simulator, plus the simplified-game and epoch-game opponents.

Every strategy is a deterministic function of (seed, view); replaying a run
with the same seed and configuration reproduces the schedule bit for bit.
"""
from __future__ import annotations

import random
import weakref

from .broadcast import INIT, ECHO, READY
from .sim import COMPUTE, CORRUPT, DELIVER


def counteract_bad_values(sigma, good_sum, bad_weights, x_max, m, slack=0.0):
    """Column-sum targets for corrupted writers.

    When the observed weighted good sum already has sign sigma the targets pad
    to (near) zero; otherwise they push toward sigma until the weighted bad
    sum covers the deficit, saturating at the per-column cap when the deficit
    is out of reach.
    """
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


def draw_index(getrandbits, size):
    """Uniform index below ``size`` drawn exactly as ``Random.choice`` draws
    it (CPython's ``_randbelow_with_getrandbits``): same values, same
    generator state afterwards, one Python frame instead of two."""
    k = size.bit_length()
    r = getrandbits(k)
    while r >= size:
        r = getrandbits(k)
    return r


class Strategy:
    """Base scheduling strategy: uniform-ish fair interleaving, no corruption.

    Subclasses restricting the schedule set ``restricted`` and override the
    ``_allowed_*`` predicates; event choice then rejection-samples with a
    filtered fallback, keeping the unrestricted path allocation-free.
    Subclasses that corrupt override ``_corruption_due``; it is consulted
    before every event only for them.
    """

    name = "honest-random"
    restricted = False

    def __init__(self, seed=0, **opts):
        self.seed = seed
        self.opts = opts
        self.rng = random.Random(f"{seed}/adv/{self.name}")
        self.world = None
        self._maybe_unstarted = True
        self._corrupts = type(self)._corruption_due is not Strategy._corruption_due

    def setup(self, world):
        self.world = world
        self._maybe_unstarted = True

    def on_corrupt(self, world, pid):
        pass

    def corrupted_compute(self, world, pid, inbox):
        return []

    # scheduling -----------------------------------------------------------

    def _allowed_compute(self, view, pid) -> bool:
        return True

    def _allowed_deliver(self, view, src, dst) -> bool:
        return True

    def _corruption_due(self, view):
        return None

    def _pick_deliver(self, view, outs):
        getrandbits = self.rng.getrandbits
        if not self.restricted:
            return outs[draw_index(getrandbits, len(outs))]
        allowed = self._allowed_deliver
        for _ in range(6):
            cand = outs[draw_index(getrandbits, len(outs))]
            if allowed(view, cand[0], cand[1]):
                return cand
        legal = [e for e in outs if allowed(view, e[0], e[1])]
        return legal[draw_index(getrandbits, len(legal))] if legal else None

    def _pick_compute(self, view, ins):
        getrandbits = self.rng.getrandbits
        if not self.restricted:
            return ins[draw_index(getrandbits, len(ins))]
        allowed = self._allowed_compute
        for _ in range(6):
            cand = ins[draw_index(getrandbits, len(ins))]
            if allowed(view, cand):
                return cand
        legal = [i for i in ins if allowed(view, i)]
        return legal[draw_index(getrandbits, len(legal))] if legal else None

    def next_event(self, view):
        if self._corrupts:
            pid = self._corruption_due(view)
            if pid is not None:
                return (CORRUPT, pid)
        world = self.world
        unstarted = ()
        if self._maybe_unstarted:
            unstarted = [
                i
                for i in range(world.params.n)
                if not world.started[i] and self._allowed_compute(view, i)
            ]
            if not unstarted and all(world.started):
                self._maybe_unstarted = False
        outs = world._out_list
        ins = world._in_list
        roll = self.rng.random()
        if unstarted and (roll < 0.25 or not (outs or ins)):
            return (COMPUTE, self.rng.choice(unstarted))
        if outs and (roll < 0.7 or not ins):
            e = self._pick_deliver(view, outs)
            if e is not None:
                return (DELIVER, e[0], e[1])
        if ins:
            i = self._pick_compute(view, ins)
            if i is not None:
                return (COMPUTE, i)
        if outs:
            e = self._pick_deliver(view, outs)
            if e is not None:
                return (DELIVER, e[0], e[1])
        if unstarted:
            return (COMPUTE, self.rng.choice(unstarted))
        return None


class HonestRandom(Strategy):
    name = "honest-random"


class FuzzSchedule(Strategy):
    """Random adversarial orderings: biased event choice plus rotating
    temporary starvation of up to f processes."""

    name = "fuzz"
    restricted = True

    def __init__(self, seed=0, **opts):
        super().__init__(seed, **opts)
        self.slowed = frozenset()
        self._ttl = 0

    def next_event(self, view):
        if self._ttl <= 0:
            params = self.world.params
            count = self.rng.randint(0, params.f)
            self.slowed = frozenset(self.rng.sample(range(params.n), count))
            self._ttl = self.rng.randint(50, 400)
        self._ttl -= 1
        return Strategy.next_event(self, view)

    def _allowed_compute(self, view, pid):
        if pid in self.slowed and self.rng.random() < 0.95:
            return False
        return True

    def _allowed_deliver(self, view, src, dst):
        if dst in self.slowed and self.rng.random() < 0.9:
            return False
        return True


class CrashStop(Strategy):
    """Corrupts up to f processes at seeded times; crashed processes go silent."""

    name = "crash-stop"

    def setup(self, world):
        super().setup(world)
        f = world.params.f
        pids = self.rng.sample(range(world.params.n), f)
        horizon = int(self.opts.get("crash_horizon", 400))
        self.schedule = sorted(
            (self.rng.randint(0, horizon), pid) for pid in pids
        )

    def _corruption_due(self, view):
        if self.schedule and view.clock >= self.schedule[0][0]:
            return self.schedule.pop(0)[1]
        return None

    def corrupted_compute(self, world, pid, inbox):
        return []  # drop everything: a crashed process


class StarveSubset(Strategy):
    """Never schedules a fixed set of up to f good processes; corrupts no one."""

    name = "starve-subset"
    restricted = True

    def setup(self, world):
        super().setup(world)
        count = int(self.opts.get("count", world.params.f))
        self.starved = frozenset(self.rng.sample(range(world.params.n), count))

    def _allowed_compute(self, view, pid):
        return pid not in self.starved

    def _allowed_deliver(self, view, src, dst):
        return dst not in self.starved


class _ProtocolCompliantCorruption(Strategy):
    """Corrupts f processes immediately; they keep running the protocol but the
    adversary supplies their coin values."""

    def setup(self, world):
        super().setup(world)
        self.bad = sorted(self.rng.sample(range(world.params.n), world.params.f))
        self._to_corrupt = list(self.bad)

    def _corruption_due(self, view):
        if self._to_corrupt:
            return self._to_corrupt.pop(0)
        return None

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

    def bad_value(self, world, pid, t, r):
        return self.rng.choice((-1, 1))


class Counteract(_ProtocolCompliantCorruption):
    """Forces coin outcomes toward the adversarial direction by choosing bad
    blackboard writes that offset the observed good sum."""

    name = "counteract"

    def setup(self, world):
        super().setup(world)
        self._sigma = {}
        self._pad = {}

    def direction(self, t, view=None) -> int:
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

    def _observed_good_sum(self, t):
        total = 0
        for j in range(self.world.params.n):
            if j in self.bad:
                continue
            handler = self.world.handlers[j]
            log = getattr(handler, "write_log", None)
            if log:
                for (tt, _r), v in log.items():
                    if tt == t:
                        total += v
        return total

    def bad_value(self, world, pid, t, r):
        sigma = self.direction(t)
        total = self._observed_good_sum(t) + self._bad_written(t)
        if sigma * total < 0:
            return sigma
        pad = self._pad.get(t, 1)
        self._pad[t] = -pad
        return pad

    def _bad_written(self, t):
        total = 0
        for j in self.bad:
            log = getattr(self.world.handlers[j], "write_log", None)
            if log:
                for (tt, _r), v in log.items():
                    if tt == t:
                        total += v
        return total


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
    """Broadcast-layer fault injector: one corrupted sender mounts conflicting
    broadcasts for the same sequence numbers plus random echo/ready noise."""

    name = "equivocator"

    def __init__(self, seed=0, **opts):
        super().__init__(seed, **opts)
        self.sent = False
        self.seqs = int(opts.get("seqs", 3))

    def setup(self, world):
        super().setup(world)
        self.target = int(self.opts.get("target", 0))
        self._to_corrupt = [self.target]

    def _corruption_due(self, view):
        if self._to_corrupt:
            return self._to_corrupt.pop(0)
        return None

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
        HonestRandom,
        FuzzSchedule,
        CrashStop,
        StarveSubset,
        Counteract,
        Colluding,
        Equivocator,
    )
}


def make_strategy(name, seed=0, **opts) -> Strategy:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown adversary {name!r}; have {sorted(STRATEGIES)}") from None
    return cls(seed, **opts)


# -- simplified-game opponents ---------------------------------------------


class SimpleGameAdversary:
    """Opponent interface for the unweighted game: pick the bad set, commit a
    direction each round, then fill in bad values after seeing good flips."""

    name = "simple-base"

    def pick_bad(self, n, f, rng):
        ids = rng.choice(n, size=f, replace=False)
        return frozenset(int(i) for i in ids)

    def direction(self, t, rng) -> int:
        return 1

    def bad_values(self, t, sigma, row, bad, rng):
        return {i: 1 if (t + i) % 2 == 0 else -1 for i in bad}


class SimpleHonest(SimpleGameAdversary):
    """No bad players at all (the f slots flip fair coins)."""

    name = "simple-honest"

    def bad_values(self, t, sigma, row, bad, rng):
        return {i: int(rng.integers(0, 2)) * 2 - 1 for i in bad}


class SimpleCounteract(SimpleGameAdversary):
    """Minimal-offset counteracting: pad to zero-ish when the good sum already
    points the right way, otherwise push just past the deficit, rotating which
    bad players push."""

    name = "simple-counteract"

    def direction(self, t, rng) -> int:
        return int(rng.integers(0, 2)) * 2 - 1

    def bad_values(self, t, sigma, row, bad, rng):
        bad_list = sorted(bad)
        f = len(bad_list)
        if not f:
            return {}
        good_sum = int(row.sum())
        # sgn(0) = +1: sigma=+1 needs S >= 0, sigma=-1 needs S <= -1
        need = -sigma * good_sum + (1 if sigma == -1 else 0)
        target = max(need, f % 2)  # smallest achievable |sum| has the parity of f
        if (target - f) % 2:
            target += 1
        target = min(target, f)  # best effort beyond capacity
        pushers = (target + f) // 2
        rot = t % f
        out = {}
        for idx, i in enumerate(bad_list):
            role = (idx + rot) % f
            out[i] = sigma if role < pushers else -sigma
        return out


class SimpleColluding(SimpleGameAdversary):
    """Colluding-counteract: every bad player copies the leader, and the leader
    always plays the adversarial direction (maximal joint push)."""

    name = "simple-colluding"

    def direction(self, t, rng) -> int:
        return int(rng.integers(0, 2)) * 2 - 1

    def bad_values(self, t, sigma, row, bad, rng):
        return {i: sigma for i in bad}


SIMPLE_ADVERSARIES = {
    cls.name: cls
    for cls in (SimpleHonest, SimpleCounteract, SimpleColluding, SimpleGameAdversary)
}
