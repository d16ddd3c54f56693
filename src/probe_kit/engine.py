"""The iterative randomized rounding policy: probe selection, probe
resolution, per-matroid guided support updates, contraction, and master-vector
reconciliation, with bit-for-bit replayable traces.

The sampled choices of one step are isolated in `StepChoices`, so the same
deterministic core (`apply_step`) serves both the Monte Carlo runner and the
exact single-step outcome enumeration used by the drift harness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

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

    @cached_property
    def z(self) -> float:
        """The potential, computed on first access (the Monte Carlo loop never reads it)."""
        return potential(self)

    @property
    def probed(self) -> frozenset:
        return frozenset(bits(self.q_mask))

    @property
    def successes(self) -> frozenset:
        return frozenset(bits(self.s_mask))

    def objective_value(self) -> float:
        return self.inst.objective.value_mask(self.s_mask)


@dataclass(frozen=True)
class StepChoices:
    element: int
    active: bool
    outer_guides: Tuple[int, ...]
    inner_guides: Tuple[Optional[int], ...]


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


def select_element(state: PolicyState, rng: random.Random) -> Optional[int]:
    """Sample an element with probability x_e / Sigma; None signals termination."""
    if state.sigma <= SIGMA_EPS:
        return None
    r = rng.random() * state.sigma
    acc = 0.0
    last = None
    for i, v in enumerate(state.x):
        if v > 0.0:
            acc += v
            last = i
            if r < acc:
                return i
    return last  # guards against accumulated rounding at the tail


def _sample_guide(terms: MaskTerms, e: int, rng: random.Random) -> Optional[int]:
    """Index of a term containing e, drawn proportionally to its weight."""
    ebit = 1 << e
    total = 0.0
    for w, mask in terms:
        if mask & ebit:
            total += w
    if total <= 1e-15:
        return None
    r = rng.random() * total
    acc = 0.0
    last = None
    for idx, (w, mask) in enumerate(terms):
        if mask & ebit:
            acc += w
            last = idx
            if r < acc:
                return idx
    return last


def draw_choices(state: PolicyState, rng: random.Random) -> Optional[StepChoices]:
    """Fixed draw order: element, probe outcome, outer guides, inner guides."""
    e = select_element(state, rng)
    if e is None:
        return None
    active = rng.random() < state.inst.p[e]
    outer_guides = tuple(_sample_guide(terms, e, rng) for terms in state.outer_terms)
    if any(g is None for g in outer_guides):
        raise InvariantViolation("no outer support term contains the probed element")
    if active:
        inner_guides = tuple(
            _sample_guide(terms, e, rng) for terms in state.inner_terms
        )
    else:
        inner_guides = tuple(None for _ in state.inner_terms)
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


def step(state: PolicyState, rng: random.Random):
    """One sampled policy step; returns (new_state, record) or None at the end."""
    choices = draw_choices(state, rng)
    if choices is None:
        return None
    f_before = state.objective_value()
    z_before = state.z
    sel_prob = state.x[choices.element] / state.sigma
    new_state = apply_step(state, choices)
    deltas = [
        state.inst.p[i] * (state.x[i] - new_state.x[i]) for i in range(state.inst.n)
    ]
    record = StepRecord(
        element=choices.element,
        selection_probability=sel_prob,
        active=choices.active,
        outer_guides=choices.outer_guides,
        inner_guides=choices.inner_guides,
        deltas=deltas,
        z_before=z_before,
        z_after=new_state.z,
        f_before=f_before,
        f_after=new_state.objective_value(),
    )
    return new_state, record


def run_policy(
    inst: ProbingInstance, x0: Sequence[float], rng: random.Random
) -> Trace:
    """Run the policy to termination (Sigma below tolerance) recording a trace."""
    state = init_state(inst, x0)
    trace = Trace()
    while True:
        out = step(state, rng)
        if out is None:
            break
        state, record = out
        trace.steps.append(record)
        if len(trace.steps) > inst.n:
            raise InvariantViolation("more steps than ground elements")
    trace.final_successes = state.successes
    trace.final_probed = state.probed
    trace.final_value = state.objective_value()
    return trace


def simulate_value(
    inst: ProbingInstance, x0: Sequence[float], rng: random.Random
) -> float:
    """f(S) of one policy run; same sampling path as run_policy, no trace."""
    state = init_state(inst, x0)
    for _ in range(inst.n + 1):
        choices = draw_choices(state, rng)
        if choices is None:
            return state.objective_value()
        state = apply_step(state, choices)
    raise InvariantViolation("more steps than ground elements")
