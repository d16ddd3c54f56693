"""Matroid-polytope membership, convex decomposition into independent sets,
the exchange-guided support update applied after each probe, and the trim
that turns the updated decomposition into one of the new point.

A fractional point is a length-n sequence of reals in [0,1] (coordinates of
contracted elements must be 0).  A decomposition is a list of
(weight, bitmask) terms with weights summing to 1.  Membership and peeling
enumerate subsets of the support, which is the intended exact mode at desk
scale.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvariantViolation
from .matroids import _TABLE_CAP, Matroid, bits, mask_of

EPS = 1e-9
MAX_PEEL_FACTOR = 6  # peel iterations allowed per support element before LP fallback

MaskTerms = List[Tuple[float, int]]


def _support_mask(x: Sequence[float], eps: float = EPS) -> int:
    m = 0
    for i, v in enumerate(x):
        if v > eps:
            m |= 1 << i
    return m


def in_polytope(m: Matroid, x: Sequence[float], tol: float = EPS) -> bool:
    """True iff x lies in P(m): x >= 0 and x(A) <= rank(A) for all A.

    It suffices to check subsets of the support; any violated constraint
    restricted to the support is at least as violated.
    """
    n = m.ground_size
    if len(x) != n:
        raise ValueError(f"point has dimension {len(x)}, matroid ground size {n}")
    cmask = mask_of(m.contracted)
    support = 0
    for i, v in enumerate(x):
        if v < -tol:
            return False
        if v > tol:
            if cmask >> i & 1:
                return False
            support |= 1 << i
    return _max_violation(m, x, support) <= tol


def _max_violation(m: Matroid, x: Sequence[float], support: int) -> float:
    worst = 0.0
    sub = support
    while sub:
        total = 0.0
        for i in bits(sub):
            total += x[i]
        v = total - m.rank_mask(sub)
        if v > worst:
            worst = v
        sub = (sub - 1) & support
    return worst


def implied_vector_masks(terms: MaskTerms, n: int) -> List[float]:
    x = [0.0] * n
    for w, mask in terms:
        while mask:
            low = mask & -mask
            x[low.bit_length() - 1] += w
            mask ^= low
    return x


def _merge_terms(terms: MaskTerms) -> MaskTerms:
    """Sum the weights of equal sets.

    A set of total weight <= EPS gives its weight to the empty set, which is
    independent in every matroid, so the weights keep their sum.
    """
    acc = {}
    for w, mask in terms:
        acc[mask] = acc.get(mask, 0.0) + w
    empty = acc.pop(0, 0.0)
    out = []
    for mask, w in acc.items():
        if w > EPS:
            out.append((w, mask))
        else:
            empty += w
    if empty > 0.0:
        out.append((empty, 0))
    return out or [(1.0, 0)]


def _caratheodory_reduce(terms: MaskTerms, n: int) -> MaskTerms:
    """Shrink a convex combination to at most n+1 terms without moving x.

    Repeatedly finds an affine dependency among the (indicator, 1) vectors and
    shifts weight along it until one term vanishes.
    """
    terms = _merge_terms(terms)
    while len(terms) > n + 1:
        a = np.zeros((n + 1, len(terms)))
        for j, (_, mask) in enumerate(terms):
            for i in bits(mask):
                a[i, j] = 1.0
            a[n, j] = 1.0
        _, _, vt = np.linalg.svd(a)
        gamma = vt[-1]
        if np.max(np.abs(gamma)) < 1e-12:
            break
        if np.max(gamma) <= 1e-15:
            gamma = -gamma
        ratios = [
            (terms[j][0] / gamma[j], j) for j in range(len(terms)) if gamma[j] > 1e-15
        ]
        t, _ = min(ratios)
        new_terms = []
        for j, (w, mask) in enumerate(terms):
            w2 = w - t * gamma[j]
            if w2 > EPS:
                new_terms.append((w2, mask))
        if len(new_terms) >= len(terms):
            break
        terms = new_terms
    total = sum(w for w, _ in terms)
    return [(w / total, mask) for w, mask in terms]


def decompose_masks(m: Matroid, x: Sequence[float]) -> MaskTerms:
    """Peel x in P(m) into a convex combination of independent-set indicators.

    Iteratively removes weight on a greedy maximum independent set inside the
    current support, taking the largest step that keeps the rescaled residual
    in the polytope.  Certification (round-trip within 1e-9) is the caller's
    contract; on a stalled peel we fall back to an exact LP over all
    independent subsets of the support.
    """
    n = m.ground_size
    residual = [min(max(float(v), 0.0), 1.0) for v in x]
    for i, v in enumerate(residual):
        if v <= EPS:
            residual[i] = 0.0
    w_rem = 1.0
    terms: MaskTerms = []
    support = _support_mask(residual)
    max_iters = MAX_PEEL_FACTOR * max(1, support.bit_count())
    # local binds for the submask-enumeration hot loop
    tbl = m._tbl
    cmask = m._cmask
    csize = m._csize
    rank_mask = m.rank_mask
    for _ in range(max_iters):
        if not support:
            break
        order = sorted(bits(support), key=lambda i: (-residual[i], i))
        bmask = m.max_independent_subset(order)
        beta = min(w_rem, min(residual[i] for i in bits(bmask)))
        sub = support
        while sub:
            if tbl is not None:
                ra = tbl[sub | cmask] - csize
            else:
                ra = rank_mask(sub)
            inter = (sub & bmask).bit_count()
            if ra > inter:
                xa = 0.0
                rest = sub
                while rest:
                    low = rest & -rest
                    xa += residual[low.bit_length() - 1]
                    rest ^= low
                cap = (w_rem * ra - xa) / (ra - inter)
                if cap < beta:
                    beta = cap
            sub = (sub - 1) & support
        if beta <= 1e-12:
            return _decompose_lp(m, x)
        terms.append((beta, bmask))
        w_rem -= beta
        for i in bits(bmask):
            residual[i] -= beta
            if residual[i] <= EPS:
                residual[i] = 0.0
                support &= ~(1 << i)
        if w_rem <= EPS:
            break
    if support:
        return _decompose_lp(m, x)
    if w_rem > 0.0:
        terms.append((w_rem, 0))
    terms = _merge_terms(terms)
    if len(terms) > n + 1:
        terms = _caratheodory_reduce(terms, n)
    # certify the round trip; fall back to the exact LP if peeling drifted
    implied = implied_vector_masks(terms, n)
    if any(abs(implied[i] - min(max(float(x[i]), 0.0), 1.0)) > EPS for i in range(n)):
        return _decompose_lp(m, x)
    return terms


def _decompose_lp(m: Matroid, x: Sequence[float]) -> MaskTerms:
    """Exact fallback: feasibility LP over all independent subsets of supp(x)."""
    from scipy.optimize import linprog

    n = m.ground_size
    support = _support_mask(x)
    if support.bit_count() > _TABLE_CAP:
        raise InvariantViolation(
            f"LP decomposition fallback limited to {_TABLE_CAP} support elements"
        )
    columns = [0]
    sub = support
    while sub:
        if m.indep_mask(sub):
            columns.append(sub)
        sub = (sub - 1) & support
    a_eq = np.zeros((n + 1, len(columns)))
    for j, mask in enumerate(columns):
        for i in bits(mask):
            a_eq[i, j] = 1.0
        a_eq[n, j] = 1.0
    b_eq = np.array([min(max(float(v), 0.0), 1.0) for v in x] + [1.0])
    res = linprog(
        c=np.zeros(len(columns)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, 1)] * len(columns),
        method="highs",
    )
    if not res.success:
        raise ValueError("point is not in the matroid polytope")
    terms = [(float(w), mask) for w, mask in zip(res.x, columns) if w > EPS]
    terms = _merge_terms(terms)
    if len(terms) > n + 1:
        terms = _caratheodory_reduce(terms, n)
    return terms


# ---------------------------------------------------------------------------
# Guided support update
# ---------------------------------------------------------------------------


def support_update_masks(
    m: Matroid, terms: MaskTerms, probed: int, guide_index: int
) -> MaskTerms:
    """Apply the exchange-guided substitution after probing `probed`.

    `m` is the matroid *before* contraction by `probed`; the guide term must
    contain the probed element.  Terms containing the probed element just drop
    it; every other term B_b is replaced by B_b - phi(probed) when the
    exchange map from the guide sends probed to a real element, and kept
    otherwise.  All resulting sets are independent in m/probed.
    """
    from .matroids import _exchange_mapping_masks

    pbit = 1 << probed
    guide_mask = terms[guide_index][1]
    if not guide_mask & pbit:
        raise ValueError("guide term does not contain the probed element")
    out: MaskTerms = []
    for w, bmask in terms:
        if bmask & pbit:
            out.append((w, bmask & ~pbit))
        else:
            if m.indep_mask(bmask | pbit):
                # cheap path: B + probed independent means phi(probed) is bot
                out.append((w, bmask))
                continue
            mapping = _exchange_mapping_masks(m, guide_mask, bmask)
            f = mapping[probed]
            if f is None or f == probed:
                out.append((w, bmask))
            else:
                out.append((w, bmask & ~(1 << f)))
    return out


def trim_masks(
    terms: MaskTerms, implied: Sequence[float], target: Sequence[float]
) -> MaskTerms:
    """Shrink the sets of `terms` until their implied vector is `target`.

    `implied` is the implied vector of `terms` and must dominate `target`
    coordinate-wise.  For each coordinate i with excess d = implied_i -
    target_i, element i is removed from the terms that contain it, in term
    order, until d is used up; at most one term per element is split in two,
    and a target of 0 drops i from every term.  An excess of at most EPS is
    left, and a term that would keep at most EPS of its weight loses i whole,
    so no split makes a term of weight <= EPS and each coordinate lands
    within EPS of its target.  Sets only shrink, so every term stays
    independent in any matroid it was independent in; at most n+1 terms are
    kept.
    """
    n = len(target)
    terms = list(terms)
    for i in range(n):
        ibit = 1 << i
        if target[i] <= 0.0:
            if implied[i] > 0.0:
                terms = [(w, mask & ~ibit) for w, mask in terms]
            continue
        d = implied[i] - target[i]
        if d <= EPS:
            continue
        for j, (w, mask) in enumerate(terms):
            if not mask & ibit:
                continue
            if w - d <= EPS:
                terms[j] = (w, mask & ~ibit)
                d -= w
                if d <= EPS:
                    break
            else:
                terms[j] = (w - d, mask)
                terms.append((d, mask & ~ibit))
                break
    terms = _merge_terms(terms)
    if len(terms) > n + 1:
        terms = _caratheodory_reduce(terms, n)
    return terms
