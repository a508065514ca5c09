import pytest

from bftsim.adversary import make_strategy
from bftsim.agreement import BlackboardProcess
from bftsim.blackboard import DUMMY, NEVER, FinalView, history_of_writer, lex_max, WriterAbsent
from bftsim.harness import check_views
from bftsim.params import ProtocolParams
from bftsim.sim import WorldState, run


def test_lex_max_pointwise():
    a = ((1, 3), (2, 0))
    b = ((2, 1), (1, 5))
    assert lex_max([a, b]) == ((2, 1), (2, 0))


def test_lex_max_identical_vectors():
    a = ((1, 2), (1, 1), (0, -1))
    assert lex_max([a, a, a]) == a


def _finished_world(n=4, f=1, m=2, boards=2, seed=0, adversary="honest-random", max_events=400_000, **adv):
    params = ProtocolParams(n=n, f=f, m=m, T=16)
    handlers = [BlackboardProcess(pid, params, seed, boards=boards) for pid in range(n)]
    world = WorldState(params, handlers)
    strategy = make_strategy(adversary, seed, **adv)

    def stop(w):
        starved = getattr(strategy, "starved", frozenset())
        active = [h for h in handlers if h.pid not in w.corrupted and h.pid not in starved]
        return bool(active) and all(h.finished for h in active)

    result = run(world, strategy, stop, max_events)
    return params, handlers, world, result


def test_honest_run_everyone_finalizes():
    params, handlers, world, result = _finished_world()
    assert result.stopped == "stop"
    for h in handlers:
        assert h.board.done_t >= 2
        for t in (1, 2):
            view = h.board.views[t]
            assert len(view.full_columns(t)) >= params.n - params.f


def test_views_agree_in_honest_runs():
    params, handlers, _, _ = _finished_world(seed=1)
    assert check_views(handlers, params) == []


def test_column_prefix_property():
    params, handlers, _, _ = _finished_world(seed=2)
    for h in handlers:
        for (t, r, i) in h.board.cells:
            if r >= 2:
                assert (t, r - 1, i) in h.board.cells


def test_row0_carries_dummy_then_lastbar():
    params, handlers, _, _ = _finished_world(seed=3)
    h = handlers[0]
    assert h.board.cells[(1, 0, 1)] == DUMMY
    payload = h.board.cells[(2, 0, 1)]
    assert payload == handlers[1].board.lastbar[1]  # the writer's own frozen vector


def test_history_reconstruction_matches_writer_view():
    params, handlers, _, _ = _finished_world(seed=4)
    viewer = handlers[0].board.views[2]
    for q in range(params.n):
        try:
            rec = history_of_writer(viewer, q, 2)
        except WriterAbsent:
            continue
        own = handlers[q].board.views[1]
        for i in range(params.n):
            for r in range(1, params.m + 1):
                assert rec.value(1, r, i) == own.value(1, r, i)


def test_writer_absent():
    view = FinalView(t=2, lastbar=((2, 1), (1, 0)), cells={}, n=2, m=2)
    with pytest.raises(WriterAbsent):
        history_of_writer(view, 0, 2)


def test_completeness_is_monotone_and_frozen_views_stable():
    params, handlers, _, _ = _finished_world(seed=5)
    h = handlers[2]
    # finalized views never change: re-reading yields identical cells
    snap = [
        [h.board.views[1].value(1, r, i) for r in range(1, params.m + 1)]
        for i in range(params.n)
    ]
    again = [
        [h.board.views[1].value(1, r, i) for r in range(1, params.m + 1)]
        for i in range(params.n)
    ]
    assert snap == again


def test_fuzzed_schedules_bounded_disagreement():
    for seed in range(25):
        params, handlers, _, result = _finished_world(
            n=4, f=1, m=3, boards=2, seed=seed, adversary="fuzz", max_events=600_000
        )
        violations = check_views(handlers, params)
        assert violations == [], f"seed {seed}: {violations}"


def test_crash_stop_still_completes_boards():
    # f crashed processes leave partial columns; the rest finalize anyway
    params, handlers, world, result = _finished_world(
        n=4, f=1, m=2, boards=2, seed=7, adversary="crash-stop", crash_horizon=60
    )
    live = [h for h in handlers if h.pid not in world.corrupted]
    assert all(h.board.done_t >= 2 for h in live)
    assert check_views(live, params) == []


def test_gate_rejects_malformed_payloads():
    params = ProtocolParams(n=4, f=1, m=2, T=16)
    h = BlackboardProcess(0, params, seed=0, boards=1)
    assert not h.board.gate(1, ("write", 2, 0, "nonsense"))
    assert not h.board.gate(1, ("last", 1, [(0,)]))
    assert not h.board.gate(1, ("ack", 1, 1, 2))  # cell not accepted yet
    assert h.board.gate(1, ("write", 1, 0, DUMMY))
    assert h.board.gate(1, ("vote", 1, 1, 1))
    for s in range(3):
        h.board.on_accept(s, ("ack", 1, 0, 1))  # n-f acks for process 1's row-0 write
    assert h.board.gate(1, ("write", 1, 1, -1))
    assert not h.board.gate(1, ("write", 1, 1, "x"))  # coin writes carry +-1 only
    assert not h.board.gate(1, ("write", 1, 1, 2))


def test_never_sentinel_orders_below_real_positions():
    assert NEVER < (1, 0) < (1, 1) < (2, 0)


def _scripted_node(n=4, f=1, m=2, pid=0):
    from bftsim.blackboard import BlackboardNode

    params = ProtocolParams(n=n, f=f, m=m, T=16)
    sent = []
    node = BlackboardNode(pid, params, lambda t, r: 1, sent.append)
    return params, node, sent


def test_no_ack_after_complete():
    params, node, sent = _scripted_node()
    node.start_board(1)
    # drive board 1 to completeness: every column full with n-f acks on row m
    for q in range(4):
        for r in range(0, params.m + 1):
            if (1, r, q) not in node.cells:
                node.on_accept(q, ("write", 1, r, 1 if r else DUMMY))
            for s in range(3):
                node.on_accept(s, ("ack", 1, r, q))
    assert 1 in node.complete
    sent.clear()
    node.on_accept(3, ("write", 2, 0, tuple(node.last)))  # wrong vector shape is fine here
    node.on_accept(2, ("write", 1, params.m, 2))  # late accept for a complete board
    acks = [p for p in sent if p[0] == "ack" and p[1] == 1]
    assert acks == []  # recorded, but no ack once complete


def test_no_write_past_row_m():
    params, node, sent = _scripted_node()
    node.start_board(1)
    # feed acks for our own writes row by row
    for r in range(0, params.m + 1):
        if r > 0:
            node.on_accept(0, ("write", 1, r, 1))
        for s in range(3):
            node.on_accept(s, ("ack", 1, r, 0))
    writes = [p for p in sent if p[0] == "write"]
    assert max(p[2] for p in writes) == params.m  # never attempts row m+1


def test_write_suppressed_once_complete():
    params, node, sent = _scripted_node()
    node.start_board(1)
    # complete the board before our own acks arrive
    for q in range(1, 4):
        for r in range(0, params.m + 1):
            node.on_accept(q, ("write", 1, r, 1 if r else DUMMY))
            for s in range(1, 4):
                node.on_accept(s, ("ack", 1, r, q))
    assert 1 in node.complete
    sent.clear()
    for s in range(4):
        node.on_accept(s, ("ack", 1, 0, 0))  # acks for our row-0 write arrive late
    assert [p for p in sent if p[0] == "write"] == []  # line-3 guard: complete


def _record_open_gates(monkeypatch):
    from bftsim.blackboard import BlackboardNode

    opened = set()
    real = BlackboardNode.gate

    def gate(node, origin, payload):
        ok = real(node, origin, payload)
        if ok:
            opened.add((node, origin, payload))
        return ok

    monkeypatch.setattr(BlackboardNode, "gate", gate)
    return opened, real


@pytest.mark.parametrize("cfg", [
    dict(mode="blackboard", n=5, f=1, m=4, T=16, boards=3, adversary="fuzz", seeds=[3]),
    # seed 1 needs the blackboard coin: it decides in iteration 2
    dict(mode="bracha", n=9, f=2, m=4, T=2, coin="blackboard", adversary="fuzz",
         inputs="mixed", seeds=[1], max_iterations=6),
])
def test_gate_is_monotone(monkeypatch, cfg):
    # reliable broadcast consults the gate once per payload and instance;
    # that is exact only if a gate that opened stays open
    from bftsim.harness import make_config, run_experiment

    opened, real = _record_open_gates(monkeypatch)
    rec = run_experiment(make_config(**cfg))[0]
    assert rec["violations"] == []
    tags = {payload[0] for _node, _origin, payload in opened}
    assert {"write", "ack", "last"} <= tags
    still_open = [real(node, origin, payload) for node, origin, payload in opened]
    assert all(still_open)
