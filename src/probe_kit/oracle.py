"""Exact brute-force reference: the optimal adaptive policy value by dynamic
programming over (probed, successes) bitmask pairs.  Ground truth for every
ratio check.
"""

from __future__ import annotations

from .errors import CapabilityError
from .instances import ProbingInstance

DP_CAP = 12


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


def optimal_adaptive_value(inst: ProbingInstance) -> float:
    """E[OPT]: value of the best adaptive probing policy (may stop early)."""
    return _AdaptiveDP(inst).value(0, 0)
