"""Per-matroid drift of one policy step: the coordinate losses that one
matroid's guided support update causes, for each (probed element, guide)
that `engine.outcomes` can choose.

The expected losses over one step are bounded by (1/Sigma)(1-x_i) p_i x_i for
an outer matroid and (1/Sigma)(1-p_i x_i) p_i x_i for an inner one; the full
step's are bounded by (k_out+k_in)/Sigma * p_i x_i. The acceptance checks
take these expectations exactly, weighting each outcome by its probability.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional, Tuple

from .engine import PolicyState
from .polytope import implied_vector_masks, support_update_masks

Losses = Callable[[int, Optional[int]], Tuple[float, ...]]


def update_losses(state: PolicyState, j: int, inner: bool = False) -> Losses:
    """(e, guide) -> the losses p_i (x_i - x'_i) that matroid j's support
    update causes when e is probed with that guide, computed once per pair.

    Outer terms decompose x, so their losses are scaled by p_i; inner terms
    decompose p*x, so theirs are already in p_i x_i units. A guide of None
    (an inner matroid of an inactive or degenerate probe) loses nothing. The
    probed element's own zeroing belongs to the probe, not to the update, so
    its coordinate is reported as 0.
    """
    n = state.inst.n
    if inner:
        m, terms, scale = state.inner_m[j], state.inner_terms[j], [1.0] * n
    else:
        m, terms, scale = state.outer_m[j], state.outer_terms[j], state.inst.p
    before = implied_vector_masks(terms, n)

    @cache
    def losses(e: int, guide: Optional[int]) -> Tuple[float, ...]:
        if guide is None:
            return (0.0,) * n
        after = implied_vector_masks(support_update_masks(m, terms, e, guide), n)
        out = [scale[i] * (before[i] - after[i]) for i in range(n)]
        out[e] = 0.0
        return tuple(out)

    return losses
