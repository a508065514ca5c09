"""Each output check accepts a real operation's output and rejects hand-broken
copies of it.  Run with: python3 -m pytest perfbench/test_checks.py"""
from __future__ import annotations

import copy
import math

import pytest

import checks
import workloads
from bftsim.matching import CapacitatedGraph


def first_output(cls):
    with workloads.WorldCapture() as capture:
        wl = cls(capture)
        inp = wl.inputs(0)[0]
        out, _work, _counts = wl.extract(inp, wl.call(inp))
    return out


@pytest.fixture(scope="module")
def board_out():
    return first_output(workloads.BlackboardFuzz)


@pytest.fixture(scope="module")
def bracha_out():
    return first_output(workloads.BrachaCrash)


@pytest.fixture(scope="module")
def game_out():
    return first_output(workloads.GameColluding)


@pytest.fixture(scope="module")
def matching_out():
    with workloads.WorldCapture() as capture:
        wl = workloads.MatchingRandom(capture)
        g = wl.inputs(0)[-1]
        out, _work, _counts = wl.extract(g, wl.call(g))
    return out


def broken(out, edit):
    out = copy.deepcopy(out)
    edit(out)
    return out


def rejects(check, out, phrase):
    problems = check(out)
    assert any(phrase in p for p in problems), problems


# -- blackboard-fuzz ----------------------------------------------------------


def test_blackboard_accepts_real_output(board_out):
    assert checks.check_blackboard(board_out) == []


def test_blackboard_rejects_budget_stop(board_out):
    out = broken(board_out, lambda o: o.update(stopped="max-events"))
    rejects(checks.check_blackboard, out, "not by its stop condition")


def test_blackboard_rejects_too_few_finalizers(board_out):
    def drop(o):
        for p in range(o["f"] + 1):
            o["finals"][p] = {}
    rejects(checks.check_blackboard, broken(board_out, drop), "finalized all")


def _cells_in_view(o, p):
    """Coin cells (rows >= 1) inside process p's last finalized view."""
    bar = o["finals"][p][max(o["finals"][p])]
    return [c for c in sorted(o["cells"][p]) if c[1] >= 1 and (c[0], c[1]) <= tuple(bar[c[2]])]


def test_blackboard_rejects_conflicting_cell(board_out):
    def flip(o):
        cell = _cells_in_view(o, 0)[0]
        o["cells"][0][cell] = -o["cells"][0][cell]
    rejects(checks.check_blackboard, broken(board_out, flip), "but")


def test_blackboard_rejects_views_differing_in_more_than_f_cells(board_out):
    def blank(o):
        for cell in _cells_in_view(o, 0)[: o["f"] + 1]:
            del o["cells"][0][cell]
    rejects(checks.check_blackboard, broken(board_out, blank), "differ in")


def test_blackboard_rejects_board_with_few_full_columns(board_out):
    def shrink(o):
        f = o["f"]
        o["finals"][0][1] = ((0, -1),) * (f + 1) + tuple(o["finals"][0][1][f + 1:])
    rejects(checks.check_blackboard, broken(board_out, shrink), "full columns")


# -- bracha-crash -------------------------------------------------------------


def _good(o):
    return [p for p in range(o["n"]) if p not in o["corrupted"] and p not in o["starved"]]


def test_bracha_accepts_real_output(bracha_out):
    assert checks.check_bracha(bracha_out) == []


def test_bracha_rejects_undecided_good_process(bracha_out):
    out = broken(bracha_out, lambda o: o["decisions"].pop(_good(o)[0]))
    rejects(checks.check_bracha, out, "did not decide")


def test_bracha_rejects_disagreement(bracha_out):
    def flip(o):
        p = _good(o)[0]
        value, it = o["decisions"][p]
        o["decisions"][p] = (-value, it)
    rejects(checks.check_bracha, broken(bracha_out, flip), "different values")


def test_bracha_rejects_invalid_decision_on_unanimous_inputs(bracha_out):
    def unanimous(o):
        value = next(iter(o["decisions"].values()))[0]
        o["inputs"] = [-value] * o["n"]
    rejects(checks.check_bracha, broken(bracha_out, unanimous), "unanimous input")


def test_bracha_rejects_decision_lag(bracha_out):
    def lag(o):
        p = _good(o)[0]
        value, it = o["decisions"][p]
        o["decisions"][p] = (value, it + 2)
    rejects(checks.check_bracha, broken(bracha_out, lag), "lag > 1")


def test_bracha_rejects_corruptions_beyond_f(bracha_out):
    out = broken(bracha_out, lambda o: o.update(corrupted=set(range(o["f"] + 1))))
    rejects(checks.check_bracha, out, "corruptions")


# -- game-colluding -----------------------------------------------------------


def _edit_weights(o, k, edit):
    weights, iters = o["epochs"][k]
    weights = list(weights)
    edit(weights)
    o["epochs"][k] = (weights, iters)


def test_game_accepts_real_output(game_out):
    assert len(game_out["epochs"]) == 5
    assert checks.check_game(game_out) == []


def test_game_rejects_weight_above_one(game_out):
    def edit(o):
        _edit_weights(o, 0, lambda w: w.__setitem__(0, 1.5))
    rejects(checks.check_game, broken(game_out, edit), "outside [0, 1]")


def test_game_rejects_weight_at_floor_not_zeroed(game_out):
    w_min = math.sqrt(game_out["n"] * math.log(game_out["n"])) / game_out["T"]

    def edit(o):
        bad = min(o["bad"])
        _edit_weights(o, 2, lambda w: w.__setitem__(bad, w_min))
    rejects(checks.check_game, broken(game_out, edit), "at or below w_min")


def test_game_rejects_good_loss_beyond_bad_loss(game_out):
    def edit(o):
        good = [i for i in range(o["n"]) if i not in o["bad"]]
        _edit_weights(o, 4, lambda w: [w.__setitem__(i, 0.5) for i in good])
    rejects(checks.check_game, broken(game_out, edit), "good loss")


def test_game_rejects_more_than_T_iterations(game_out):
    def edit(o):
        weights, _ = o["epochs"][1]
        o["epochs"][1] = (weights, o["T"] + 1)
    rejects(checks.check_game, broken(game_out, edit), "iterations played")


# -- matching-random ----------------------------------------------------------


def test_matching_accepts_real_output(matching_out):
    assert any(c == math.inf for c in matching_out["c_e"].values())
    assert any(i == j for i, j in matching_out["c_e"])
    assert checks.check_matching(matching_out) == []


def test_matching_rejects_edge_over_capacity(matching_out):
    def edit(o):
        e = next(e for e, c in o["c_e"].items() if 0 < c < math.inf)
        o["mu"][e] = o["mu"][e] + (o["c_e"][e] - o["mu"][e]) * 2 + 1
    rejects(checks.check_matching, broken(matching_out, edit), "outside [0,")


def test_matching_rejects_overloaded_vertex(matching_out):
    def edit(o):
        e = next(e for e, c in o["c_e"].items() if c == math.inf)
        o["mu"][e] += o["c_v"][e[0]] + 1
    rejects(checks.check_matching, broken(matching_out, edit), "load")


def test_matching_rejects_non_maximal(matching_out):
    def edit(o):
        for e in o["mu"]:
            o["mu"][e] = 0
    rejects(checks.check_matching, broken(matching_out, edit), "not maximal")


def test_matching_counts_self_loop_once():
    g = CapacitatedGraph(1, [1.0], {(0, 0): math.inf})
    assert checks.check_matching({"c_v": g.c_v, "c_e": g.c_e, "mu": {(0, 0): 1}}) == []
    rejects(checks.check_matching, {"c_v": g.c_v, "c_e": g.c_e, "mu": {(0, 0): 0.5}}, "not maximal")
    rejects(checks.check_matching, {"c_v": g.c_v, "c_e": g.c_e, "mu": {(0, 0): 2}}, "load")


def test_matching_checks_captured_excess_graph():
    wl = workloads.MatchingRandom(None)
    g = next(g for g in workloads.excess_graphs(wl.params[0], 0) if g.c_e)
    out, _work, _counts = wl.extract(g, wl.call(g))
    assert checks.check_matching(out) == []
    rejects(checks.check_matching, broken(out, lambda o: o["mu"].clear()), "not maximal")
