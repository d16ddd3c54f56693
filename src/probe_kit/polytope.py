"""Matroid-polytope membership, convex decomposition into independent sets,
the exchange-guided support update applied after each probe, and the trim
that turns the updated decomposition into one of the new point.

A fractional point is a length-n sequence of reals in [0,1].  A
decomposition is a list of (weight, bitmask) terms with weights summing to
1.  Membership and each step of the peel scan every subset of the support,
the intended exact mode at desk scale, in one subset-sum pass
(`_subset_sums`: every submask with its x(A), one numpy doubling per
element); every matroid has a rank table (its ground set is at most
GROUND_CAP elements), so the ranks of the submasks are one gather.  A
contracted matroid is no different here: its contracted elements
are loops of its table, so their rank rows force x to vanish on them.  The
support update reads a policy state's contraction as a mask (`contracted`)
against the instance's matroid, so no contracted copy is built per step.
One exact fit, nonnegative least squares over given sets (`_fit`), is both
the peel's fallback and the cut of a decomposition to at most n+1 sets.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import le, sub
from typing import List, Sequence, Tuple

import numpy as np

from .matroids import GROUND_CAP, Matroid, _exchange_mapping_masks, _popcounts, bits

EPS = 1e-9
MAX_PEEL_FACTOR = 6  # peel iterations allowed per support element before LP fallback

MaskTerms = List[Tuple[float, int]]

_BIT_VALUES = [float(1 << i) for i in range(GROUND_CAP)]  # 2^i, the masks as a sum row


def _support_mask(x: Sequence[float], eps: float = EPS) -> int:
    m = 0
    for i, v in enumerate(x):
        if v > eps:
            m |= 1 << i
    return m


def in_polytope(m: Matroid, x: Sequence[float], tol: float = EPS) -> bool:
    """True iff x lies in P(m): x >= 0 and x(A) <= rank(A) for all A.

    It suffices to check subsets of the support; any violated constraint
    restricted to the support is at least as violated.  A NaN or infinite
    coordinate is outside.  A loop e, a contracted element among them, has
    the row x_e <= 0.
    """
    n = m.ground_size
    if len(x) != n:
        raise ValueError(f"point has dimension {len(x)}, matroid ground size {n}")
    support = 0
    for i, v in enumerate(x):
        if v < -tol or not math.isfinite(v):
            return False
        if v > tol:
            support |= 1 << i
    return _max_violation(m, x, support) <= tol


def _subset_sums(support: int, *vectors: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Every submask A of `support`, with v(A) for each of `vectors` (row j
    of the sums is vectors[j](A)): one doubling per element of the support in
    ascending order, so v(A) adds A's coordinates in ascending order to 0.0,
    as a loop over bits(A) would.  The masks ride along as one more row, the
    sum of 2^i over A, which float64 holds exactly, so a doubling is one
    numpy add for every row."""
    top = support.bit_length()
    rows = np.array([v[:top] for v in vectors] + [_BIT_VALUES[:top]], dtype=float)
    sums = np.zeros((len(rows), 1 << support.bit_count()))
    half = 1
    for i in bits(support):
        np.add(sums[:, :half], rows[:, i, None], out=sums[:, half : 2 * half])
        half *= 2
    return sums[-1].astype(np.int64), sums[:-1]


def _max_violation(m: Matroid, x: Sequence[float], support: int) -> float:
    """The largest x(A) - r(A) over the submasks A of the support; the empty
    set makes it at least 0."""
    masks, (sums,) = _subset_sums(support, x)
    return float((sums - m.rank_array()[masks]).max())


def within(a: Sequence[float], b: Sequence[float], tol: float) -> bool:
    """True iff |a_i - b_i| <= tol for every i.

    Every difference is compared with <=, so a NaN fails; `max` of the
    differences would skip a NaN anywhere but first.
    """
    return all(map(le, map(abs, map(sub, a, b)), repeat(tol)))


def implied_vector_masks(terms: MaskTerms, n: int) -> List[float]:
    x = [0.0] * n
    for w, mask in terms:
        while mask:
            low = mask & -mask
            x[low.bit_length() - 1] += w
            mask ^= low
    return x


def _merge_terms(terms: MaskTerms, n: int) -> MaskTerms:
    """Sum the weights of equal sets, then cut them to at most n+1 sets.

    A set of total weight <= EPS gives its weight to the empty set, which is
    independent in every matroid, so the weights keep their sum.  More than
    n+1 sets are refit by `_fit` to their own implied vector.
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
    if len(out) > n + 1:
        return _fit([mask for _, mask in out], implied_vector_masks(out, n))
    return out or [(1.0, 0)]


def nnls(*args, **kwargs):
    """`scipy.optimize.nnls`, imported at the first call: importing
    scipy.optimize is most of the start-up cost of `import probe_kit`."""
    import scipy.optimize

    return scipy.optimize.nnls(*args, **kwargs)


def _fit(masks: Sequence[int], x: Sequence[float]) -> MaskTerms:
    """A convex combination of the sets `masks` whose implied vector is x:
    nonnegative least squares on their (indicator, 1) columns, then one
    least-squares refinement on the columns it keeps.

    Raises ValueError when none is within EPS of x.  Lawson-Hanson keeps its
    columns linearly independent, so at most n+1 distinct sets are kept.
    """
    cols = np.asarray(masks, dtype=np.int64)
    a = np.vstack(((cols >> np.arange(len(x))[:, None]) & 1, np.ones(len(cols))))
    b = np.append(x, 1.0)
    w, residual = nnls(a, b)
    if residual > EPS:
        raise ValueError("point is not in the matroid polytope")
    keep = np.flatnonzero(w > 1e-12)  # larger than NNLS round-off
    w = np.linalg.lstsq(a[:, keep], b, rcond=None)[0]
    return [(float(v), masks[j]) for v, j in zip(w, keep)]


def _step_cap(
    m: Matroid, residual: Sequence[float], support: int, bmask: int, w_rem: float
) -> float:
    """The peel's step on the independent set B = bmask: the largest beta up
    to w_rem and to residual[i] for i in B such that, for every A within the
    support with r(A) > |A & B|, x(A) - beta |A & B| <= (w_rem - beta) r(A),
    i.e. beta <= (w_rem r(A) - x(A)) / (r(A) - |A & B|), x the residual."""
    beta = min(w_rem, min(residual[i] for i in bits(bmask)))
    # |A & B| is B's indicator summed over A, exact in float64
    indicator = [bmask >> i & 1 for i in range(len(residual))]
    masks, (xa, inter) = _subset_sums(support, residual, indicator)
    ra = m.rank_array()[masks]
    capped = ra > inter
    ra = ra[capped]
    caps = (w_rem * ra - xa[capped]) / (ra - inter[capped])
    return float(np.minimum.reduce(caps, initial=beta))


def decompose_masks(m: Matroid, x: Sequence[float]) -> MaskTerms:
    """Peel x in P(m) into a convex combination of independent-set indicators.

    Iteratively removes weight on a greedy maximum independent set inside the
    current support, taking the largest step that keeps the rescaled residual
    in the polytope.  Certification (round-trip within 1e-9) is the caller's
    contract; on a stalled peel we fall back to an exact nonnegative
    least-squares fit over all independent subsets of the support.  Raises
    ValueError on a NaN or infinite coordinate.
    """
    if not all(map(math.isfinite, x)):
        raise ValueError("point has a non-finite coordinate")
    n = m.ground_size
    target = [min(max(float(v), 0.0), 1.0) for v in x]
    residual = [v if v > EPS else 0.0 for v in target]
    w_rem = 1.0
    terms: MaskTerms = []
    support = _support_mask(residual)
    max_iters = MAX_PEEL_FACTOR * max(1, support.bit_count())
    for _ in range(max_iters):
        if not support:
            break
        order = sorted(bits(support), key=lambda i: (-residual[i], i))
        bmask = m.max_independent_subset(order)
        beta = _step_cap(m, residual, support, bmask, w_rem)
        if beta <= 1e-12:
            return _decompose_lp(m, target)
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
        return _decompose_lp(m, target)
    if w_rem > 0.0:
        terms.append((w_rem, 0))
    terms = _merge_terms(terms, n)
    # certify the round trip; fall back to the exact fit if peeling drifted
    if not within(implied_vector_masks(terms, n), target, EPS):
        return _decompose_lp(m, target)
    return terms


def _decompose_lp(m: Matroid, x: Sequence[float]) -> MaskTerms:
    """Exact fallback: `_fit` of x, the point `decompose_masks` clamped into
    [0, 1], over all independent subsets of supp(x); raises its ValueError.

    The columns are the empty set, then the independent nonempty submasks in
    descending order: `_subset_sums` lists the submasks ascending, and the
    popcount of each is that of its index."""
    support = _support_mask(x)
    masks = _subset_sums(support)[0][:0:-1]
    indep = m.rank_array()[masks] == _popcounts(support.bit_count())[:0:-1]
    return _fit([0] + masks[indep].tolist(), x)


# ---------------------------------------------------------------------------
# Guided support update
# ---------------------------------------------------------------------------


def support_update_masks(
    m: Matroid, terms: MaskTerms, probed: int, guide_index: int, contracted: int
) -> MaskTerms:
    """Apply the exchange-guided substitution after probing `probed`.

    The matroid before contraction by `probed` is m/C, for the mask
    `contracted` = C of elements already contracted (the state's `q_mask` or
    `s_mask`); the terms avoid C, and the guide term must contain the probed
    element.  Terms containing the probed element just drop it; every other
    term B_b is replaced by B_b - phi(probed) when the exchange map from the
    guide sends probed to a real element, and kept otherwise.  C is ORed into
    every independence test and into both sets of the exchange map, where its
    elements map to themselves, so this equals the update on m/C.  All
    resulting sets are independent in m/(C + probed).
    """
    pbit = 1 << probed
    guide_mask = terms[guide_index][1]
    if not guide_mask & pbit:
        raise ValueError("guide term does not contain the probed element")
    out: MaskTerms = []
    for w, bmask in terms:
        if bmask & pbit:
            out.append((w, bmask & ~pbit))
        else:
            if m.indep_mask(bmask | pbit | contracted):
                # cheap path: B + probed independent means phi(probed) is bot
                out.append((w, bmask))
                continue
            mapping = _exchange_mapping_masks(m, guide_mask | contracted, bmask | contracted)
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
    union = 0
    for _, mask in terms:
        union |= mask
    zero = 0  # the coordinates a target of 0 drops from every term
    excess = []  # the coordinates with an excess above EPS
    rest = union
    while rest:
        ibit = rest & -rest
        rest ^= ibit
        i = ibit.bit_length() - 1
        if target[i] <= 0.0:
            if implied[i] > 0.0:
                zero |= ibit
        elif implied[i] - target[i] > EPS:
            excess.append(i)
    terms = [(w, mask & ~zero) for w, mask in terms] if zero else list(terms)
    for i in excess:
        ibit = 1 << i
        d = implied[i] - target[i]
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
    return _merge_terms(terms, n)
