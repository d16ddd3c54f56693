"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed at the names the callers look up (module globals and
class attributes) and removed afterwards, so the program itself is unchanged.
A span records name, start, end and parent in flat arrays; functions too small
to time get a call counter instead.  Wrappers only observe: they draw no
randomness and pass arguments and results through untouched, so traced
reports are byte-identical to untraced ones.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import probe_kit.cli
import probe_kit.engine
import probe_kit.harness
import probe_kit.polytope
import probe_kit.relaxation
from probe_kit.instances import ProbingInstance
from probe_kit.matroids import Matroid
from probe_kit.objectives import Objective

# (span name, owner, attribute looked up by the caller)
SPANS = [
    ("cli.main", probe_kit.cli, "main"),
    ("instances.load", ProbingInstance, "load"),
    ("harness.run_experiment", probe_kit.cli, "run_experiment"),
    ("harness.mc_policy_value", probe_kit.harness, "mc_policy_value"),
    ("engine.init_state", probe_kit.harness, "init_state"),
    ("engine.draw_choices", probe_kit.harness, "draw_choices"),
    ("engine.apply_step", probe_kit.harness, "apply_step"),
    ("engine.potential", probe_kit.engine, "potential"),
    ("polytope.decompose_masks", probe_kit.engine, "decompose_masks"),
    ("polytope.lp_fallback", probe_kit.polytope, "_decompose_lp"),
    ("polytope.support_update_masks", probe_kit.engine, "support_update_masks"),
    ("relaxation.solve_relaxation", probe_kit.harness, "solve_relaxation"),
    ("relaxation.solve_lp", probe_kit.relaxation, "solve_lp"),
    ("relaxation.polytope_rows", probe_kit.relaxation, "_polytope_rows"),
    ("relaxation.feasible", probe_kit.relaxation, "relaxation_feasible"),
    ("objectives.multilinear", probe_kit.engine, "multilinear_value_from_table"),
    ("objectives.multilinear", probe_kit.relaxation, "multilinear_value_from_table"),
    ("objectives.value_table", Objective, "value_table"),
    ("oracle.optimal_adaptive_value", probe_kit.harness, "optimal_adaptive_value"),
]

COUNTERS = [
    ("matroids.max_independent_subset", Matroid, "max_independent_subset"),
    ("matroids.contract", Matroid, "contract"),
    ("matroids.indep_mask", Matroid, "indep_mask"),
]

# metric name -> (unit, better); the order is the order they are printed in
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "instances.load.s": ("s", "lower"),
    "harness.run_experiment.s": ("s", "lower"),
    "harness.mc_policy_value.s": ("s", "lower"),
    "harness.trials": ("count", "higher"),
    "engine.init_state.calls": ("count", "lower"),
    "engine.init_state.s": ("s", "lower"),
    "engine.draw_choices.s": ("s", "lower"),
    "engine.apply_step.calls": ("count", "lower"),
    "engine.apply_step.s": ("s", "lower"),
    "engine.apply_step.self_s": ("s", "lower"),
    "engine.apply_step.repeat_share": ("ratio", "higher"),
    "engine.potential.calls": ("count", "lower"),
    "engine.potential.s": ("s", "lower"),
    "polytope.decompose_masks.calls": ("count", "lower"),
    "polytope.decompose_masks.s": ("s", "lower"),
    "polytope.lp_fallback.calls": ("count", "lower"),
    "polytope.support_update_masks.calls": ("count", "lower"),
    "polytope.support_update_masks.s": ("s", "lower"),
    "matroids.max_independent_subset.calls": ("count", "lower"),
    "matroids.contract.calls": ("count", "lower"),
    "matroids.indep_mask.calls": ("count", "lower"),
    "relaxation.solve_relaxation.s": ("s", "lower"),
    "relaxation.solve_lp.calls": ("count", "lower"),
    "relaxation.solve_lp.s": ("s", "lower"),
    "relaxation.polytope_rows.s": ("s", "lower"),
    "relaxation.lp_rows": ("count", "lower"),
    "relaxation.lp_bytes": ("B", "lower"),
    "relaxation.feasible.calls": ("count", "lower"),
    "objectives.multilinear.calls": ("count", "lower"),
    "objectives.value_table.s": ("s", "lower"),
    "objectives.s": ("s", "lower"),
    "oracle.optimal_adaptive_value.s": ("s", "lower"),
}

COUNT_METRICS = [k for k, (unit, _) in LAYER_METRICS.items() if unit != "s"]


class Tracer:
    """Spans and counters for one traced pass over a pool."""

    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = []
        self.counts = defaultdict(int)
        self.lp_rows = 0
        self.lp_bytes = 0
        self.seen_steps = set()
        self._patches = []

    def _span(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self.stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, fn):
        """Extra bookkeeping for the layers whose metrics need arguments or results."""
        if name == "cli.main":
            seen = self.seen_steps

            def per_experiment(*args, **kwargs):
                seen.clear()  # transitions repeat only within one instance
                return fn(*args, **kwargs)

            return per_experiment
        if name == "engine.apply_step":
            seen, counts = self.seen_steps, self.counts

            def apply_step(state, choices):
                key = (state.q_mask, state.s_mask, tuple(state.x), choices)
                if key in seen:
                    counts["engine.apply_step.repeats"] += 1
                else:
                    seen.add(key)
                return fn(state, choices)

            return apply_step
        if name == "harness.mc_policy_value":

            def mc_policy_value(inst, x0, trials, *args, **kwargs):
                self.counts["harness.trials"] += trials
                return fn(inst, x0, trials, *args, **kwargs)

            return mc_policy_value
        if name == "relaxation.polytope_rows":

            def polytope_rows(inst):
                a_ub, b_ub = fn(inst)
                self.lp_rows += a_ub.shape[0]
                self.lp_bytes += a_ub.shape[0] * inst.n * 8
                return a_ub, b_ub

            return polytope_rows
        return fn

    def _patch(self, owner, attr, wrap):
        raw = owner.__dict__[attr]
        fn = getattr(owner, attr)
        new = wrap(fn)
        setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        self._patches.append((owner, attr, raw))

    def install(self):
        for name, owner, attr in SPANS:
            self._patch(owner, attr, lambda fn, n=name: self._span(n, self._observe(n, fn)))
        for name, owner, attr in COUNTERS:
            self._patch(owner, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def layer_metrics(self) -> dict:
        """Per-layer totals: time per span name, self time, exact counts."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.start)
        # a child's index is always above its parent's, so walking backwards
        # finishes every span's children before the span itself
        for i in range(len(self.start) - 1, -1, -1):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
            name = self.names[self.name_of[i]]
            total[name] += d
            own[name] += d - child[i]
            calls[name] += 1
        apply_calls = calls["engine.apply_step"]
        return {
            "cli.self_s": own["cli.main"],
            "instances.load.s": total["instances.load"],
            "harness.run_experiment.s": total["harness.run_experiment"],
            "harness.mc_policy_value.s": total["harness.mc_policy_value"],
            "harness.trials": self.counts["harness.trials"],
            "engine.init_state.calls": calls["engine.init_state"],
            "engine.init_state.s": total["engine.init_state"],
            "engine.draw_choices.s": total["engine.draw_choices"],
            "engine.apply_step.calls": apply_calls,
            "engine.apply_step.s": total["engine.apply_step"],
            "engine.apply_step.self_s": own["engine.apply_step"],
            "engine.apply_step.repeat_share": (
                self.counts["engine.apply_step.repeats"] / apply_calls if apply_calls else 0.0
            ),
            "engine.potential.calls": calls["engine.potential"],
            "engine.potential.s": total["engine.potential"],
            "polytope.decompose_masks.calls": calls["polytope.decompose_masks"],
            "polytope.decompose_masks.s": total["polytope.decompose_masks"],
            "polytope.lp_fallback.calls": calls["polytope.lp_fallback"],
            "polytope.support_update_masks.calls": calls["polytope.support_update_masks"],
            "polytope.support_update_masks.s": total["polytope.support_update_masks"],
            "matroids.max_independent_subset.calls": self.counts["matroids.max_independent_subset"],
            "matroids.contract.calls": self.counts["matroids.contract"],
            "matroids.indep_mask.calls": self.counts["matroids.indep_mask"],
            "relaxation.solve_relaxation.s": total["relaxation.solve_relaxation"],
            "relaxation.solve_lp.calls": calls["relaxation.solve_lp"],
            "relaxation.solve_lp.s": total["relaxation.solve_lp"],
            "relaxation.polytope_rows.s": total["relaxation.polytope_rows"],
            "relaxation.lp_rows": self.lp_rows,
            "relaxation.lp_bytes": self.lp_bytes,
            "relaxation.feasible.calls": calls["relaxation.feasible"],
            "objectives.multilinear.calls": calls["objectives.multilinear"],
            "objectives.value_table.s": total["objectives.value_table"],
            "objectives.s": total["objectives.multilinear"] + total["objectives.value_table"],
            "oracle.optimal_adaptive_value.s": total["oracle.optimal_adaptive_value"],
        }
