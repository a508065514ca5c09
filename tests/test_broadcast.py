import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim.broadcast import (
    ECHO,
    INIT,
    READY,
    FifoViolation,
    RBInstance,
    RBNode,
    ValidationLedger,
)
from bftsim.harness import run_broadcast_fuzz_once, ExperimentConfig
from bftsim.params import ProtocolParams

from oracles import sgn_subset_reachable


def _node(pid=0, n=4, f=1, **kw):
    params = ProtocolParams(n=n, f=f, m=4, T=16)
    return RBNode(pid, params, **kw)


def test_thresholds_n4_f1():
    node = _node()
    assert node.echo_quorum == 3  # strictly more than (4+1)/2
    assert node.ready_support == 2
    assert node.accept_quorum == 3  # 2f+1 distinct ready senders


def test_accept_fires_at_exactly_2f_plus_1_readies():
    node = _node()
    inst = RBInstance(origin=1, seq=1)
    assert inst.process(1, READY, "m", node) is None
    assert len(inst.ready[0]) == 1  # below f+1: no reaction yet
    # a second ready reaches f+1 = 2, the node sends its own ready, and the
    # self-count makes 2f+1 = 3 distinct senders: accept fires
    assert inst.process(2, READY, "m", node) == "m"
    assert inst.ready[0] == {0, 1, 2}
    assert inst.accepted == "m"


def test_duplicate_messages_idempotent():
    node = _node()
    inst = RBInstance(origin=1, seq=1)
    inst.process(2, ECHO, "m", node)
    inst.process(2, ECHO, "m", node)
    assert len(inst.echo[0]) == 1


def test_equivocating_sender_banned_and_recorded():
    node = _node()
    inst = RBInstance(origin=1, seq=1)
    inst.process(2, ECHO, "a", node)
    inst.process(2, ECHO, "b", node)
    assert len(node.equivocations) == 1
    assert 2 in inst.banned
    inst.process(2, READY, "a", node)  # ignored thereafter
    assert not inst.ready[0]


def test_init_only_counts_from_origin():
    node = _node()
    inst = RBInstance(origin=1, seq=1)
    inst.process(3, INIT, "m", node)
    assert inst.init_idx is None
    inst.process(1, INIT, "m", node)
    assert inst.init_idx == 0
    assert inst.sent_echo  # init from origin triggers echo


def test_own_broadcast_self_counts_and_serializes():
    node = _node(pid=0)
    node.broadcast(("payload", 1))
    node.broadcast(("payload", 2))
    # second broadcast queued until the first is locally accepted
    assert node.my_next == 2
    wire = node.take_wire()
    kinds = [w[0] for w in wire]
    assert kinds[0] == INIT and ECHO in kinds  # echoed own init immediately
    with pytest.raises(FifoViolation):
        node.initiate(("payload", 99))


def _full_rb_round(nodes, wire_batches):
    """Deliver every wire message to every other node until quiescence."""
    pending = list(wire_batches)
    while pending:
        batch = pending.pop()
        for src, msg in batch:
            for node in nodes:
                if node.pid != src:
                    node.handle(src, *msg)
                    node.pump()
        for node in nodes:
            out = node.take_wire()
            if out:
                pending.append([(node.pid, m) for m in out])


def test_good_origin_all_accept():
    params = ProtocolParams(n=4, f=1, m=4, T=16)
    nodes = [RBNode(i, params) for i in range(4)]
    nodes[2].broadcast(("v", 7))
    _full_rb_round(nodes, [[(2, m) for m in nodes[2].take_wire()]])
    for node in nodes:
        assert node.accepted_log == [(2, 1, ("v", 7))]


def test_fifo_gate_defers_future_sequences():
    params = ProtocolParams(n=4, f=1, m=4, T=16)
    nodes = [RBNode(i, params) for i in range(4)]
    sender = nodes[0]
    sender.broadcast(("m", 1))
    first = [(0, m) for m in sender.take_wire()]
    # craft seq-2 messages before anyone saw seq 1
    for node in nodes[1:]:
        node.handle(0, INIT, 0, 2, ("m", 2))
        node.pump()
        assert node.accepted_log == []
        assert not node.take_wire()  # no reaction to the future message
    _full_rb_round(nodes, [first])
    for node in nodes[1:]:
        assert node.accepted_log[:1] == [(0, 1, ("m", 1))]


def test_participation_gate_delays_reactions():
    params = ProtocolParams(n=4, f=1, m=4, T=16)
    open_flags = {i: False for i in range(4)}
    nodes = []
    for i in range(4):
        nodes.append(
            RBNode(i, params, gate=lambda o, s, p, i=i: open_flags[i])
        )
    open_flags[1] = True
    nodes[1].broadcast(("w", 1))
    batch = [(1, m) for m in nodes[1].take_wire()]
    for src, msg in batch:
        for node in nodes:
            if node.pid != src:
                node.handle(src, *msg)
                node.pump()
    assert all(not n.take_wire() for n in nodes if n.pid != 1)
    for i in range(4):
        open_flags[i] = True
    for node in nodes:
        node._retry_gated()
        node.pump()
    wires = [(n.pid, n.take_wire()) for n in nodes]
    assert any(out for _pid, out in wires)  # echoes flow once the gate opens


def test_open_gate_consulted_once_per_payload():
    params = ProtocolParams(n=4, f=1, m=4, T=16)
    calls = []
    nodes = [
        RBNode(i, params, gate=lambda o, s, p, i=i: calls.append((i, o, s, p)) or True)
        for i in range(4)
    ]
    nodes[1].broadcast(("w", 1))
    _full_rb_round(nodes, [[(1, m) for m in nodes[1].take_wire()]])
    assert all(node.accepted_log == [(1, 1, ("w", 1))] for node in nodes)
    # every node saw an init, echoes and readies, but asked the gate once
    assert sorted(calls) == [(i, 1, 1, ("w", 1)) for i in range(4)]


def test_gate_still_consulted_for_other_payloads():
    node = _node(pid=0, gate=lambda o, s, p: p == "a")
    node.handle(2, ECHO, 1, 1, "a")
    node.handle(3, ECHO, 1, 1, "b")
    inst = node.instances[(1, 1)]
    assert inst.opened == "a"
    assert inst.pending == [(3, ECHO, "b")]  # the open "a" gate does not admit "b"


def test_criterion1_style_fuzz_small():
    cfg = ExperimentConfig(mode="broadcast-fuzz", n=4, f=1, m=4, T=16, adversary="equivocator", seeds=[0])
    for seed in range(30):
        rec = run_broadcast_fuzz_once(cfg, seed)
        assert rec["violations"] == []


# -- validation ledger --------------------------------------------------------


def _sign_justify(n, f):
    """Round r value must be the sign of some (n - f)-subset of the validated
    previous-round values (the Bracha phase-1 -> phase-2 shape)."""
    need = n - f

    def justify(r, value, prev_value, counts, total):
        if r == 1:
            return value in (1, -1)
        a, b = counts.get(1, 0), counts.get(-1, 0)
        if a + b < need:
            return False
        lo, hi = max(0, need - b), min(a, need)
        if lo > hi:
            return False
        return 2 * hi >= need if value == 1 else 2 * lo < need

    return justify


def test_validate_base_case_and_pending():
    ledger = ValidationLedger(4, 1, _sign_justify(4, 1))
    ledger.add_claim(0, 1, 1)
    assert (0, 1) in ledger.validated
    ledger.add_claim(0, 2, 1)
    assert (0, 2) not in ledger.validated  # needs 3 validated round-1 votes
    ledger.add_claim(1, 1, 1)
    assert (0, 2) not in ledger.validated
    ledger.add_claim(2, 1, -1)
    # cascade: the pending round-2 claim re-checks once round 1 fills in
    assert (0, 2) in ledger.validated


def test_validate_rejects_unjustifiable_sign():
    ledger = ValidationLedger(4, 1, _sign_justify(4, 1))
    for q in range(4):
        ledger.add_claim(q, 1, 1)
    ledger.add_claim(3, 2, -1)
    assert (3, 2) not in ledger.validated  # all-ones pool cannot justify -1
    ledger.add_claim(2, 2, 1)
    assert (2, 2) in ledger.validated


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1]), min_size=3, max_size=7),
    st.sampled_from([1, -1]),
)
def test_sign_justification_matches_brute_force(pool, value):
    n = len(pool) + 1
    f = (n - 1) // 3
    need = n - f
    if need > len(pool):
        return
    justify = _sign_justify(n, f)
    counts = {1: pool.count(1), -1: pool.count(-1)}
    got = justify(2, value, 1, counts, len(pool))
    want = sgn_subset_reachable(pool, need, value)
    assert got == want


def test_validation_witness_replay():
    # every validated transition has a justifying subset that replays through
    # the transition function (here: sgn of the subset sum)
    ledger = ValidationLedger(4, 1, _sign_justify(4, 1))
    for q, v in enumerate([1, 1, -1, 1]):
        ledger.add_claim(q, 1, v)
    ledger.add_claim(0, 2, 1)
    assert (0, 2) in ledger.validated
    pool = [v for (q, r), v in ledger.validated.items() if r == 1]
    assert sgn_subset_reachable(pool, 3, 1)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_single_node_arbitrary_interleavings(seed):
    """Feed one node a random shuffle of all wire messages for two instances
    of one origin with one equivocating echo source: at most one payload
    accepted per instance, FIFO respected, duplicates harmless."""
    import random as _random

    rng = _random.Random(seed)
    params = ProtocolParams(n=4, f=1, m=4, T=16)
    node = RBNode(0, params)
    msgs = []
    for seq, payload in ((1, ("m", 1)), (2, ("m", 2))):
        msgs.append((1, INIT, 1, seq, payload))
        for s in (1, 2, 3):
            msgs.append((s, ECHO, 1, seq, payload))
            msgs.append((s, READY, 1, seq, payload))
    # an equivocating echo/ready source for instance 1
    msgs.append((2, ECHO, 1, 1, ("evil", 1)))
    msgs.append((2, READY, 1, 1, ("evil", 1)))
    # duplicates of a subset
    msgs += [m for m in msgs if rng.random() < 0.4]
    rng.shuffle(msgs)
    for src, kind, origin, seq, payload in msgs:
        node.handle(src, kind, origin, seq, payload)
        node.pump()
    seen = {}
    for origin, seq, payload in node.accepted_log:
        assert seq == seen.get(origin, 0) + 1  # FIFO, contiguous
        seen[origin] = seq
    by_inst = {}
    for origin, seq, payload in node.accepted_log:
        by_inst.setdefault((origin, seq), set()).add(payload)
    assert all(len(v) == 1 for v in by_inst.values())
