"""Exact brute-force reference: the optimal adaptive policy value by dynamic
programming over (probed, successes) bitmask pairs.  Ground truth for every
ratio check.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .instances import ProbingInstance

DP_CAP = 12


class _AdaptiveDP:
    """Memoized optimal adaptive value over (probed, successes) bitmask states.

    Plain methods rather than a self-referencing closure, so the memo is freed
    by reference counting as soon as the caller drops the object.
    """

    def __init__(self, inst: ProbingInstance):
        if inst.n > DP_CAP:
            raise CapabilityError(f"adaptive DP limited to {DP_CAP} elements")
        self.inst = inst
        self.value_table = inst.objective.value_table().tolist()  # the recursion reads floats
        # e is probeable at (q, s) when q + e is outer-independent and, since an
        # active element must be taken, s + e inner-independent: the bits of
        # outer_ext[q] & inner_ext[s], each the AND of its matroids' extension masks
        full = np.full(1 << inst.n, (1 << inst.n) - 1, dtype=np.int64)
        self.outer_ext, self.inner_ext = (
            np.bitwise_and.reduce([full] + [m.extension_masks() for m in ms]).tolist()
            for ms in (inst.outer, inst.inner)
        )
        self.memo = {}

    def value(self, q_mask: int, s_mask: int) -> float:
        key = (q_mask, s_mask)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        best = self.value_table[s_mask]
        cand = self.outer_ext[q_mask] & self.inner_ext[s_mask]
        while cand:  # matroids.bits, inlined in the DP's hot loop
            low = cand & -cand
            cand ^= low
            v = self.probe_value(q_mask, s_mask, low.bit_length() - 1)
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
