"""The step core of the iterative randomized rounding policy: probe
selection, probe resolution, per-matroid guided support updates, contraction,
and master-vector reconciliation, plus the state, step-record and trace types.

The sampled choices of one step are isolated in `StepChoices`, so the same
deterministic core (`apply_step`) serves both the policy walk in `harness`
and the exact single-step outcome enumeration used by the drift harness.
Every draw reads the cumulative tables a state caches on first use
(`element_table`, `guide_tables`), so a state the walk meets again draws
without rebuilding them.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantViolation
from .instances import ProbingInstance
from .matroids import Matroid, bits
from .objectives import multilinear_value_from_table
from .polytope import (
    MaskTerms,
    decompose_masks,
    implied_vector_masks,
    support_update_masks,
    trim_masks,
)

SIGMA_EPS = 1e-9
COORD_EPS = 1e-9

# keys in draw order, with the running sum of their weights after each key
DrawTable = Tuple[Tuple[int, ...], Tuple[float, ...]]


class StepChoices(NamedTuple):
    element: int
    active: bool
    outer_guides: Tuple[int, ...]
    inner_guides: Tuple[Optional[int], ...]


@dataclass
class PolicyState:
    inst: ProbingInstance
    x: List[float]
    q_mask: int
    s_mask: int
    outer_m: List[Matroid]
    inner_m: List[Matroid]
    outer_terms: List[MaskTerms]
    inner_terms: List[MaskTerms]
    sigma: float
    # successor per drawn StepChoices, filled by `harness.walk`
    children: Dict[StepChoices, "PolicyState"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _guides: Dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def z(self) -> float:
        """The potential, computed on first access (the Monte Carlo loop never reads it)."""
        return potential(self)

    @property
    def key(self) -> tuple:
        """The state's value; states with equal keys draw and step alike."""
        return (
            self.q_mask,
            self.s_mask,
            tuple(self.x),
            tuple(map(tuple, self.outer_terms)),
            tuple(map(tuple, self.inner_terms)),
        )

    @cached_property
    def element_table(self) -> DrawTable:
        """The elements with x_e > 0 and the running sums of x over them."""
        return _draw_table((i, v) for i, v in enumerate(self.x) if v > 0.0)

    def guide_tables(self, e: int) -> tuple:
        """(outer, inner): per matroid, the draw table of the terms containing
        e by weight, or None where they weigh at most 1e-15."""
        tables = self._guides.get(e)
        if tables is None:
            tables = self._guides[e] = (
                tuple(_guide_table(terms, e) for terms in self.outer_terms),
                tuple(_guide_table(terms, e) for terms in self.inner_terms),
            )
        return tables

    @property
    def probed(self) -> frozenset:
        return frozenset(bits(self.q_mask))

    @property
    def successes(self) -> frozenset:
        return frozenset(bits(self.s_mask))

    def objective_value(self) -> float:
        return self.inst.objective.value_mask(self.s_mask)


@dataclass
class StepRecord:
    element: int
    selection_probability: float
    active: bool
    outer_guides: Tuple[int, ...]
    inner_guides: Tuple[Optional[int], ...]
    deltas: List[float]
    z_before: float
    z_after: float
    f_before: float
    f_after: float

    def to_json(self) -> dict:
        return {
            "element": self.element,
            "selection_probability": self.selection_probability,
            "active": self.active,
            "outer_guides": list(self.outer_guides),
            "inner_guides": [g for g in self.inner_guides],
            "deltas": self.deltas,
            "z_before": self.z_before,
            "z_after": self.z_after,
            "f_before": self.f_before,
            "f_after": self.f_after,
        }


@dataclass
class Trace:
    steps: List[StepRecord] = field(default_factory=list)
    final_successes: frozenset = frozenset()
    final_probed: frozenset = frozenset()
    final_value: float = 0.0

    def __len__(self):
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "final_successes": sorted(self.final_successes),
            "final_probed": sorted(self.final_probed),
            "final_value": self.final_value,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def potential(state: PolicyState) -> float:
    """z: the residual fractional value coupled to future gains.

    Linear objective: sum p_e w_e x_e.  Submodular: F(1_S + p*x) - F(1_S),
    exact multilinear mode.
    """
    inst = state.inst
    if inst.objective.is_linear:
        w = inst.objective.weights
        return sum(inst.p[i] * w[i] * state.x[i] for i in bits_of_support(state.x))
    table = inst.objective.value_table()
    y = [0.0] * inst.n
    for i in bits(state.s_mask):
        y[i] = 1.0
    for i, v in enumerate(state.x):
        if v > 0.0:
            y[i] = inst.p[i] * v
    return multilinear_value_from_table(table, y) - table[state.s_mask]


def bits_of_support(x: Sequence[float]):
    for i, v in enumerate(x):
        if v > 0.0:
            yield i


def init_state(inst: ProbingInstance, x0: Sequence[float]) -> PolicyState:
    x = [float(v) for v in x0]
    if len(x) != inst.n:
        raise ValueError("dimension mismatch")
    for i, v in enumerate(x):
        if v <= COORD_EPS:
            x[i] = 0.0
    px = [inst.p[i] * x[i] for i in range(inst.n)]
    return PolicyState(
        inst=inst,
        x=x,
        q_mask=0,
        s_mask=0,
        outer_m=list(inst.outer),
        inner_m=list(inst.inner),
        outer_terms=[decompose_masks(m, x) for m in inst.outer],
        inner_terms=[decompose_masks(m, px) for m in inst.inner],
        sigma=sum(x),
    )


def _draw_table(weighted: Iterable[Tuple[int, float]]) -> DrawTable:
    keys = []
    sums = []
    acc = 0.0
    for key, w in weighted:
        acc += w
        keys.append(key)
        sums.append(acc)
    return tuple(keys), tuple(sums)


def _guide_table(terms: MaskTerms, e: int) -> Optional[DrawTable]:
    ebit = 1 << e
    table = _draw_table((idx, w) for idx, (w, mask) in enumerate(terms) if mask & ebit)
    return table if table[1] and table[1][-1] > 1e-15 else None


def _pick(table: DrawTable, r: float) -> int:
    """The first key whose running sum exceeds r."""
    keys, sums = table
    k = bisect_right(sums, r)
    return keys[k] if k < len(keys) else keys[-1]  # accumulated rounding at the tail


def select_element(state: PolicyState, rng: random.Random) -> Optional[int]:
    """Sample an element with probability x_e / Sigma; None signals termination."""
    if state.sigma <= SIGMA_EPS:
        return None
    return _pick(state.element_table, rng.random() * state.sigma)


def _sample_guide(table: Optional[DrawTable], rng: random.Random) -> Optional[int]:
    """Index of a term containing the probed element, drawn by weight."""
    if table is None:
        return None
    return _pick(table, rng.random() * table[1][-1])


def draw_choices(state: PolicyState, rng: random.Random) -> Optional[StepChoices]:
    """Fixed draw order: element, probe outcome, outer guides, inner guides."""
    e = select_element(state, rng)
    if e is None:
        return None
    active = rng.random() < state.inst.p[e]
    outer_tables, inner_tables = state.guide_tables(e)
    outer_guides = tuple([_sample_guide(t, rng) for t in outer_tables])
    if None in outer_guides:
        raise InvariantViolation("no outer support term contains the probed element")
    if active:
        inner_guides = tuple([_sample_guide(t, rng) for t in inner_tables])
    else:
        inner_guides = (None,) * len(inner_tables)
    return StepChoices(e, active, outer_guides, inner_guides)


def apply_step(state: PolicyState, choices: StepChoices) -> PolicyState:
    """Deterministic step core given all sampled choices.

    Performs the guided support update for every matroid from the pre-step
    decomposition snapshot, contracts, reconciles the master vector as the
    coordinate-wise minimum of the per-matroid implied vectors, and trims each
    updated decomposition (the inner ones of an inactive probe included) to
    the new master point, so every step keeps an exact decomposition without
    peeling again.
    """
    inst = state.inst
    n = inst.n
    e = choices.element
    ebit = 1 << e
    p = inst.p
    if state.x[e] <= 0.0:
        raise ValueError("probed element has zero fractional value")

    new_outer_m = []
    outer_terms = []
    for j, m in enumerate(state.outer_m):
        outer_terms.append(
            support_update_masks(m, state.outer_terms[j], e, choices.outer_guides[j])
        )
        new_outer_m.append(m.contract(e))
    outer_implied = [implied_vector_masks(t, n) for t in outer_terms]

    new_inner_m = list(state.inner_m)
    inner_terms = state.inner_terms
    s_mask = state.s_mask
    if choices.active:
        s_mask |= ebit
        inner_terms = []
        for j, m in enumerate(state.inner_m):
            g = choices.inner_guides[j]
            if g is None:
                # degenerate support (p_e x_e below tolerance): drop e directly
                inner_terms.append([(w, mask & ~ebit) for w, mask in state.inner_terms[j]])
            else:
                inner_terms.append(support_update_masks(m, state.inner_terms[j], e, g))
            new_inner_m[j] = m.contract(e)
    inner_implied = [implied_vector_masks(t, n) for t in inner_terms]

    new_x = list(state.x)
    new_x[e] = 0.0
    for i in range(n):
        v = new_x[i]
        if v <= 0.0:
            continue
        for vec in outer_implied:
            if vec[i] < v:
                v = vec[i]
        if choices.active:
            for vec in inner_implied:
                bound = vec[i] / p[i] if p[i] > 0.0 else v
                if bound < v:
                    v = bound
        new_x[i] = 0.0 if v <= COORD_EPS else v
    new_px = [p[i] * new_x[i] for i in range(n)]

    new_state = PolicyState(
        inst=inst,
        x=new_x,
        q_mask=state.q_mask | ebit,
        s_mask=s_mask,
        outer_m=new_outer_m,
        inner_m=new_inner_m,
        outer_terms=[trim_masks(t, v, new_x) for t, v in zip(outer_terms, outer_implied)],
        inner_terms=[trim_masks(t, v, new_px) for t, v in zip(inner_terms, inner_implied)],
        sigma=sum(new_x),
    )
    _assert_state_feasible(new_state)
    return new_state


def _assert_state_feasible(state: PolicyState):
    """Hard post-step invariants; raising here indicates an engine bug."""
    inst = state.inst
    if state.s_mask & ~state.q_mask:
        raise InvariantViolation("success set not contained in probed set")
    for m in inst.outer:
        if not m.indep_mask(state.q_mask):
            raise InvariantViolation("probed set dependent in an outer matroid")
    for m in inst.inner:
        if not m.indep_mask(state.s_mask):
            raise InvariantViolation("success set dependent in an inner matroid")
    if any(state.x[i] != 0.0 for i in bits(state.q_mask)):
        raise InvariantViolation("probed coordinate not zeroed")
    # decomposition round trips certify polytope membership of x and p*x;
    # verify the certificates match the master vector
    for terms, vec in (
        (state.outer_terms, state.x),
        (state.inner_terms, [inst.p[i] * state.x[i] for i in range(inst.n)]),
    ):
        for t in terms:
            implied = implied_vector_masks(t, inst.n)
            if any(abs(implied[i] - vec[i]) > 1e-7 for i in range(inst.n)):
                raise InvariantViolation("decomposition does not match master vector")
