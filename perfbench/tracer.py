"""Layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each layer (module
attributes, methods and properties) with span recorders and counters; the
package's source is not touched, and ``restore`` puts every original back.

A span opens when control enters a layer from another layer; a call into
the layer it is already in is folded into the open span, so recursion and
same-layer helpers cost one span.  Each span's self time (its duration
minus its child spans) is added to its layer when it closes, so the spans
are kept in memory as per-layer totals; a single blackboard-fuzz operation
crosses layer boundaries about 600,000 times, too many to keep one record
each.  The root span, "bench", is the benchmark's own loop: extraction,
checks and bookkeeping.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

from bftsim import adversary, agreement, blackboard, broadcast, game, harness, matching, params, sim, stats

ROOT_LAYER = "bench"


class MissingHook(LookupError):
    """A layer boundary the tracer wraps is no longer in the package."""


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.spans = Counter()  # span name -> spans opened
        self.calls = Counter()  # counter label -> calls or summed quantity
        self.stack = [[ROOT_LAYER, 0.0]]  # open spans: [name, time of closed children]
        self.missing = []
        self._undo = []
        self._root_start = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer, label, fn, on_return=None):
        clock = time.perf_counter
        stack, self_s, spans, calls = self.stack, self.self_s, self.spans, self.calls

        def traced(*args, **kwargs):
            calls[label] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    stack[-1][1] += elapsed
                    spans[layer] += 1
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _counted(self, label, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def span(self, owner, attr, layer, label=None, on_return=None):
        """Trace ``owner.attr`` (a module function or a method) as ``layer``."""
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        fn = owner.__dict__[attr]
        self._set(owner, attr, self._wrap(layer, label or f"{layer}.{attr}", fn, on_return))

    def span_property(self, cls, attr, layer, label):
        if not isinstance(cls.__dict__.get(attr), property):
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        prop = cls.__dict__[attr]
        self._set(cls, attr, property(self._wrap(layer, label, prop.fget)))

    def count(self, owner, attr, label):
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._set(owner, attr, self._counted(label, owner.__dict__[attr]))

    # -- the layers ----------------------------------------------------------

    def install(self):
        """Wrap every layer boundary.  A hook whose target is gone raises
        MissingHook: its time would land unseen in the calling layer."""
        self.span(sim.WorldState, "apply", "sim", "sim.events")
        self.count(sim.WorldState, "enqueue", "sim.sends")
        for owner in (sim, harness):
            self.span(owner, "run", "sim")

        strategies = {adversary.Strategy, *adversary.STRATEGIES.values()}
        for cls in sorted(strategies, key=lambda c: c.__name__):
            if "next_event" in cls.__dict__:
                self.span(cls, "next_event", "adversary")
            for pred in ("_allowed_compute", "_allowed_deliver"):
                if pred in cls.__dict__:
                    self.count(cls, pred, "adversary.checks")

        self.span(broadcast.RBNode, "handle", "broadcast", "broadcast.wire_msgs")
        self.span(broadcast.RBNode, "pump", "broadcast")
        self.span(broadcast.ValidationLedger, "add_claim", "broadcast.ledger", "broadcast.ledger_claims")

        def gate_result(_args, opened):
            if opened:
                self.calls["blackboard.gate_open"] += 1

        self.span(blackboard.BlackboardNode, "gate", "blackboard", "blackboard.gate_calls", gate_result)
        self.span(blackboard.BlackboardNode, "on_accept", "blackboard")
        self.span(blackboard.BlackboardNode, "start_board", "blackboard")
        self.span(blackboard.BlackboardNode, "finalize", "blackboard", "blackboard.boards_finalized")

        self.span(agreement._ProtocolProcess, "on_start", "agreement")
        self.span(agreement._ProtocolProcess, "on_compute", "agreement")
        self.span(agreement, "coin_flip", "agreement")
        for owner in (agreement, game):
            self.span(owner, "epoch_advance", "agreement.epoch_advance", "agreement.epoch_advance_calls")

        self.span(game, "run_game", "game")

        for name in ("ln_n", "x_max", "alpha_T", "beta_T", "w_min"):
            self.span_property(params.ProtocolParams, name, "params", "params.derived_calls")

        def matching_result(args, result):
            graph, (found, _deps) = args[0], result
            edges = sum(1 for cap in graph.c_e.values() if cap > 0)
            self.calls["matching.edges_in"] += edges
            self.calls["matching.nonempty_graphs"] += edges > 0
            self.calls["matching.freeze_steps"] += len(found.steps)

        for owner in (matching, agreement):
            self.span(owner, "rising_tide", "matching.rising_tide", "matching.rising_tide_calls",
                      matching_result)
            self.span(owner, "build_excess_graph", "matching.build_excess_graph")
            self.span(owner, "weight_update_local", "matching.weight_update_local")

        for runner in ("run_bracha_once", "run_blackboard_once", "run_broadcast_fuzz_once",
                       "run_game_once", "run_simplified_once"):
            self.span(harness, runner, "harness")
        self.span(harness, "check_views", "harness.check")
        for owner in (harness, agreement):
            self.span(owner, "check_agreement", "harness.check")

        self.span(agreement, "compute_stats", "stats")
        self.span(stats, "compute_stats", "stats")
        for owner in (harness, stats):
            self.span(owner, "run_simplified_game", "stats")
            self.span(owner, "detect_pair", "stats")
        if self.missing:
            self.restore()
            raise MissingHook(f"no such hook: {', '.join(self.missing)}")

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- the root span -------------------------------------------------------

    def start(self):
        self._root_start = time.perf_counter()

    def stop(self):
        """Close the root span; returns the traced wall time."""
        wall = time.perf_counter() - self._root_start
        self.self_s[ROOT_LAYER] += wall - self.stack[0][1]
        self.stack[0][1] = 0.0
        return wall
