"""Exact brute-force reference: the optimal adaptive policy value by dynamic
programming over (probed, successes) bitmask pairs, one numpy sweep per
layer of probed-set size.  Ground truth for every ratio check.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .instances import ProbingInstance

DP_CAP = 12


def optimal_adaptive_value(inst: ProbingInstance) -> float:
    """E[OPT]: value of the best adaptive probing policy (may stop early).

    A state (q, s) is keyed q << n | s.  The forward pass builds each layer's
    reachable keys, sorted, from the one below: the layer of |q| = L + 1 is
    the deduplicated children of the probes at layer L.  The backward pass
    rebuilds each layer's probes and, for every probe of e, finds its two
    children in the layer above by `searchsorted` and takes
    v = p_e V(q + e, s + e) + (1 - p_e) V(q + e, s); a state keeps f(s)
    unless some v is strictly greater.  This is the arithmetic of the
    memoized recursion, so the value is the same float.  Only the sorted
    keys are kept across layers.
    """
    n = inst.n
    if n > DP_CAP:
        raise CapabilityError(f"adaptive DP limited to {DP_CAP} elements")
    low = (1 << n) - 1
    # e is probeable at (q, s) when q + e is outer-independent and, since an
    # active element must be taken, s + e inner-independent: the bits of
    # outer_ext[q] & inner_ext[s], each the AND of its matroids' extension masks
    full = np.full(1 << n, low, dtype=np.int64)
    outer_ext, inner_ext = (
        np.bitwise_and.reduce([full] + [m.extension_masks() for m in ms])
        for ms in (inst.outer, inst.inner)
    )
    elements = np.arange(n)
    p = np.asarray(inst.p, dtype=float)
    table = inst.objective.value_table()

    def probes(keys):
        """(state index, e, success key, failure key) of every probe from the
        sorted layer `keys`, by e and then by state.  e is in neither q nor
        s, so each e's child keys are its states' keys plus a constant: one
        ascending run per e."""
        cand = outer_ext[keys >> n] & inner_ext[keys & low]
        idx = [np.flatnonzero(cand & 1 << e) for e in range(n)]
        e = np.repeat(elements, list(map(len, idx)))
        idx = np.concatenate(idx)
        miss = keys[idx] | np.left_shift(1 << n, e)
        return idx, e, miss | np.left_shift(1, e), miss

    layers = [np.zeros(1, dtype=np.int64)]
    while True:
        _, _, hit, miss = probes(layers[-1])
        if not hit.size:
            break
        # a stable sort merges the ascending runs; then drop repeats
        keys = np.sort(np.concatenate((hit, miss)), kind="stable")
        layers.append(keys[np.append(True, keys[1:] != keys[:-1])])
    above = values = None
    for keys in reversed(layers):
        best = table[keys & low]
        idx, e, hit, miss = probes(keys)
        if idx.size:
            pe = p[e]
            v = pe * values[np.searchsorted(above, hit)] + (1.0 - pe) * values[
                np.searchsorted(above, miss)
            ]
            top = np.full(keys.size, -np.inf)
            np.maximum.at(top, idx, v)  # f >= 0, so no v is -0.0 and max is exact
            best = np.where(top > best, top, best)
        above, values = keys, best
    return float(values[0])
