"""Statistical drift harness: exact enumeration of the one-step outcome
distribution of the rounding policy (and of a single matroid's support
update), plus multinomial sampling utilities for the empirical-mean checks.

The per-update expected coordinate decreases are bounded by
(1/Sigma)(1-x_i) p_i x_i for an outer matroid and (1/Sigma)(1-p_i x_i) p_i x_i
for an inner matroid; the full-step aggregate is bounded by
(k_out+k_in)/Sigma * p_i x_i.  These are what the acceptance harness samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .engine import PolicyState, StepChoices, apply_step
from .matroids import Matroid, bits
from .polytope import MaskTerms, implied_vector_masks, support_update_masks


@dataclass
class StepAtom:
    prob: float
    deltas: Tuple[float, ...]
    gain: float = 0.0
    z_after: float = 0.0
    element: int = -1  # probed element for full-step atoms, -1 otherwise


def _update_deltas(
    m: Matroid,
    terms: MaskTerms,
    scale: Sequence[float],
    e: int,
    guide: int,
    n: int,
) -> Tuple[float, ...]:
    """Coordinate losses p_i (x_i - x'_i) caused by one guided support update.

    The probed element's own zeroing is accounted to the probing step, not to
    the matroid update, so its coordinate is reported as 0.
    """
    before = implied_vector_masks(terms, n)
    after = implied_vector_masks(support_update_masks(m, terms, e, guide), n)
    out = [scale[i] * (before[i] - after[i]) for i in range(n)]
    out[e] = 0.0
    return tuple(out)


def update_atoms(
    m: Matroid,
    terms: MaskTerms,
    x: Sequence[float],
    p: Sequence[float],
    inner: bool = False,
) -> List[StepAtom]:
    """Outcome atoms of one matroid's update step.

    The element e is probed with probability x_e/Sigma.  An outer matroid's
    terms decompose x: the guide term a (containing e) is chosen with
    probability beta_a/x_e, so the pair has probability beta_a/Sigma, and the
    losses are scaled by p_i.  An inner matroid's terms decompose p*x and
    update only when the probe succeeds: the pair probability is
    (x_e/Sigma) * p_e * beta_a/(p_e x_e) = beta_a/Sigma again, the losses are
    already in p_i x_i units, and failed probes join the zero-loss atom.
    """
    n = len(x)
    sigma = sum(x)
    scale = [1.0] * n if inner else p
    atoms = []
    for a, (w, mask) in enumerate(terms):
        for e in bits(mask):
            if x[e] <= 0.0 or (inner and p[e] <= 0.0):
                continue
            atoms.append(
                StepAtom(prob=w / sigma, deltas=_update_deltas(m, terms, scale, e, a, n))
            )
    rest = 1.0 - sum(atom.prob for atom in atoms)
    if rest > 1e-12:
        atoms.append(StepAtom(prob=rest, deltas=tuple([0.0] * n)))
    return atoms


def step_outcome_atoms(state: PolicyState) -> List[StepAtom]:
    """Exact distribution of one full policy step from a fixed state.

    Enumerates (element, probe outcome, guide combination) and applies the
    same deterministic step core as the Monte Carlo runner, yielding the
    coordinate losses delta_i = p_i(x_i - x'_i), the objective gain, and the
    post-step potential for each atom.
    """
    inst = state.inst
    n = inst.n
    sigma = state.sigma
    f_before = state.objective_value()
    atoms: List[StepAtom] = []
    for e in range(n):
        if state.x[e] <= 0.0:
            continue
        pe_sel = state.x[e] / sigma
        # the guides draw_choices can return, each with its probability
        outer_tables, inner_tables = state.guide_tables(e)
        outer_options = [
            [(a, terms[a][0] / state.x[e]) for a in table[0]] if table else []
            for terms, table in zip(state.outer_terms, outer_tables)
        ]
        pex = inst.p[e] * state.x[e]
        inner_options = [
            [(a, terms[a][0] / pex) for a in table[0]] if table else [(None, 1.0)]
            for terms, table in zip(state.inner_terms, inner_tables)
        ]
        for outer_combo in itertools.product(*outer_options):
            guide_prob = pe_sel
            for _, q in outer_combo:
                guide_prob *= q
            outer_guides = tuple(a for a, _ in outer_combo)
            branches = [(False, (1.0 - inst.p[e]), [(None, 1.0)] * len(inst.inner))]
            if inst.p[e] > 0.0:
                branches.append((True, inst.p[e], None))
            for active, p_branch, fixed_inner in branches:
                inner_iter = (
                    [tuple(fixed_inner)]
                    if fixed_inner is not None
                    else itertools.product(*inner_options)
                )
                for inner_combo in inner_iter:
                    prob = guide_prob * p_branch
                    for _, q in inner_combo:
                        prob *= q
                    if prob <= 1e-15:
                        continue
                    choices = StepChoices(
                        element=e,
                        active=active,
                        outer_guides=outer_guides,
                        inner_guides=tuple(a for a, _ in inner_combo),
                    )
                    new_state = apply_step(state, choices)
                    deltas = tuple(
                        inst.p[i] * (state.x[i] - new_state.x[i]) for i in range(n)
                    )
                    atoms.append(
                        StepAtom(
                            prob=prob,
                            deltas=deltas,
                            gain=new_state.objective_value() - f_before,
                            z_after=new_state.z,
                            element=e,
                        )
                    )
    return atoms


def exact_mean(atoms: List[StepAtom], values: Sequence[Sequence[float]]) -> np.ndarray:
    probs = np.array([a.prob for a in atoms])
    vals = np.asarray(values, dtype=float)
    return probs @ vals


def sample_atom_means(
    atoms: List[StepAtom],
    values: Sequence[Sequence[float]],
    n_samples: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical mean and stderr of vector-valued outcomes over n_samples draws.

    Sampling is a single multinomial over the atom distribution; the returned
    statistics are exactly those of n_samples iid draws.
    """
    probs = np.array([a.prob for a in atoms], dtype=float)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    vals = np.asarray(values, dtype=float)
    counts = rng.multinomial(n_samples, probs).astype(float)
    mean = counts @ vals / n_samples
    centered = vals - mean
    var = (counts @ (centered * centered)) / max(1, n_samples - 1)
    stderr = np.sqrt(var / n_samples)
    return mean, stderr
