"""Exact brute-force references: optimal adaptive policy value by dynamic
programming over (probed, successes) bitmask pairs, and exact expectation of
explicit decision trees.  Ground truth for every ratio check.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import CapabilityError
from .instances import ProbingInstance

DP_CAP = 12

# A policy tree is either None (stop) or (element, success_subtree, failure_subtree).
PolicyTree = Optional[Tuple[int, "PolicyTree", "PolicyTree"]]


def _probe_candidates(inst: ProbingInstance, q_mask: int, s_mask: int):
    for e in range(inst.n):
        ebit = 1 << e
        if q_mask & ebit:
            continue
        # an active element must be taken, so e is probeable only if taking it
        # would keep the success set inner-feasible
        if not all(m.indep_mask(q_mask | ebit) for m in inst.outer):
            continue
        if not all(m.indep_mask(s_mask | ebit) for m in inst.inner):
            continue
        yield e


class _AdaptiveDP:
    """Memoized optimal adaptive value over (probed, successes) bitmask states.

    Plain methods rather than a self-referencing closure, so the memo is freed
    by reference counting as soon as the caller drops the object.
    """

    def __init__(self, inst: ProbingInstance):
        if inst.n > DP_CAP:
            raise CapabilityError(f"adaptive DP limited to {DP_CAP} elements")
        self.inst = inst
        self.value_table = inst.objective.value_table()
        self.memo = {}

    def value(self, q_mask: int, s_mask: int) -> float:
        key = (q_mask, s_mask)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        best = self.value_table[s_mask]
        for e in _probe_candidates(self.inst, q_mask, s_mask):
            v = self.probe_value(q_mask, s_mask, e)
            if v > best:
                best = v
        self.memo[key] = best
        return best

    def probe_value(self, q_mask: int, s_mask: int, e: int) -> float:
        """Expected value of probing e now and acting optimally afterwards."""
        ebit = 1 << e
        pe = self.inst.p[e]
        return pe * self.value(q_mask | ebit, s_mask | ebit) + (1.0 - pe) * self.value(
            q_mask | ebit, s_mask
        )

    def policy_tree(self, q_mask: int, s_mask: int) -> PolicyTree:
        target = self.value(q_mask, s_mask)
        if target <= self.value_table[s_mask] + 1e-12:
            return None
        for e in _probe_candidates(self.inst, q_mask, s_mask):
            if self.probe_value(q_mask, s_mask, e) >= target - 1e-12:
                ebit = 1 << e
                return (
                    e,
                    self.policy_tree(q_mask | ebit, s_mask | ebit),
                    self.policy_tree(q_mask | ebit, s_mask),
                )
        raise AssertionError("DP bookkeeping inconsistent")


def optimal_adaptive_value(inst: ProbingInstance) -> float:
    """E[OPT]: value of the best adaptive probing policy (may stop early)."""
    return _AdaptiveDP(inst).value(0, 0)


def optimal_policy_tree(inst: ProbingInstance) -> PolicyTree:
    """Recover one optimal decision tree from the DP (stop on ties)."""
    return _AdaptiveDP(inst).policy_tree(0, 0)


def policy_value_exact(inst: ProbingInstance, tree: PolicyTree) -> float:
    """Exact expectation of an explicit decision tree by branch enumeration."""
    value_table = inst.objective.value_table()

    def walk(node: PolicyTree, q_mask: int, s_mask: int, depth: int) -> float:
        if node is None:
            return value_table[s_mask]
        if depth > inst.n:
            raise ValueError("tree deeper than the ground set")
        e, on_success, on_failure = node
        ebit = 1 << e
        if q_mask & ebit:
            raise ValueError(f"element {e} probed twice")
        if not all(m.indep_mask(q_mask | ebit) for m in inst.outer):
            raise ValueError(f"probing {e} violates an outer constraint")
        if not all(m.indep_mask(s_mask | ebit) for m in inst.inner):
            raise ValueError(f"probing {e} violates an inner constraint")
        pe = inst.p[e]
        total = 0.0
        if pe > 0.0:
            total += pe * walk(on_success, q_mask | ebit, s_mask | ebit, depth + 1)
        if pe < 1.0:
            total += (1.0 - pe) * walk(on_failure, q_mask | ebit, s_mask, depth + 1)
        return total

    return walk(tree, 0, 0, 0)
