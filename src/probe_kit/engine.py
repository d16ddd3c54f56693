"""The step core of the iterative randomized rounding policy: probe
selection, probe resolution, per-matroid guided support updates and
master-vector reconciliation, plus the state, step-record and trace types.

A state holds no matroids of its own. Probing e contracts it in every outer
matroid and, when e is active, in every inner one, so at a state outer
matroid j is `inst.outer[j]` contracted by `q_mask` and inner matroid j is
`inst.inner[j]` contracted by `s_mask`; `support_updates` passes those masks
to `support_update_masks` instead of building contracted copies.

A step is its draw tuple, (e, active, outer guides..., inner guides...),
the one `draw_choices` returns; an inactive probe draws no inner guide. The
walk in `harness` hashes it as the key of a state's successor, and the same
deterministic core takes it both there (`apply_step`) and in the exact
one-step expectations of the drift checks (`support_updates`, the only code
that applies the guided support update). Every draw reads the cumulative
tables a state caches on first use (`element_table`, `guide_tables`), so a
state the walk meets again draws without rebuilding them. `outcomes`
enumerates the same tables: each tuple `draw_choices` can return, with the
probability that its draws give it.

`apply_step` only computes a successor. `intern` is the one place that
certifies one: it stores a state by its value (`PolicyState.key`) and runs
the hard invariants of `_assert_state_feasible` on every state new to the
store, so each distinct state is certified once, however often steps reach
it. A caller that steps without a store certifies through `intern` with a
fresh one.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvariantViolation
from .instances import ProbingInstance
from .matroids import bits
from .objectives import multilinear_value_from_table
from .polytope import (
    MaskTerms,
    decompose_masks,
    implied_vector_masks,
    support_update_masks,
    trim_masks,
    within,
)

COORD_EPS = 1e-9

# keys in draw order, with the running sum of their weights after each key
DrawTable = Tuple[Tuple[int, ...], Tuple[float, ...]]


@dataclass
class PolicyState:
    inst: ProbingInstance
    x: List[float]
    q_mask: int
    s_mask: int
    outer_terms: List[MaskTerms]
    inner_terms: List[MaskTerms]
    # successor per `draw_choices` tuple, filled by `harness.walk`
    children: Dict[tuple, "PolicyState"] = field(
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

    @property
    def sigma(self) -> float:
        """Sigma = sum of x, the element table's total (0.0 at termination)."""
        sums = self.element_table[1]
        return sums[-1] if sums else 0.0

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

    @cached_property
    def objective_value(self) -> float:
        """f(S) of the success set, computed on first access: an interned
        terminal state reads it once for all the trials that end in it."""
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
    """z = F(1_S + p*x) - f(S): the residual fractional value coupled to
    future gains, for S the successes and F the exact multilinear extension.

    For a linear objective this is sum p_e w_e x_e; at the root it is the
    relaxation value F(p*x0) (the LP value, for a linear objective).
    """
    inst = state.inst
    p, x, s_mask = inst.p, state.x, state.s_mask
    y = [1.0 if s_mask >> i & 1 else p[i] * x[i] for i in range(inst.n)]
    table = inst.objective.value_table()
    return multilinear_value_from_table(table, y) - float(table[s_mask])


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
        outer_terms=[decompose_masks(m, x) for m in inst.outer],
        inner_terms=[decompose_masks(m, px) for m in inst.inner],
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
    keys = []
    sums = []
    acc = 0.0
    for idx, (w, mask) in enumerate(terms):
        if mask & ebit:
            acc += w
            keys.append(idx)
            sums.append(acc)
    return (tuple(keys), tuple(sums)) if sums and acc > 1e-15 else None


def select_element(state: PolicyState, rng: random.Random) -> Optional[int]:
    """Sample an element with probability x_e / Sigma; None signals termination.

    The walk ends when x has no positive coordinate left; every positive
    coordinate exceeds COORD_EPS, since steps zero the smaller ones."""
    keys, sums = state.element_table
    if not keys:
        return None
    k = bisect_right(sums, rng.random() * sums[-1])
    return keys[k] if k < len(keys) else keys[-1]  # accumulated rounding at the tail


def draw_choices(state: PolicyState, rng: random.Random) -> Optional[tuple]:
    """One step's draws as a flat tuple (e, active, outer guides...,
    inner guides...), or None at termination; an inactive probe draws no
    inner guide, and an inner matroid whose terms holding e weigh nothing
    gives the guide None. This tuple is the step: `apply_step` takes it.

    Fixed draw order: element, probe outcome, outer guides, inner guides.
    Like the element, each guide is the first key of its table whose running
    sum exceeds a uniform draw scaled to the table total."""
    e = select_element(state, rng)
    if e is None:
        return None
    draw = rng.random
    active = draw() < state.inst.p[e]
    outer_tables, inner_tables = state.guide_tables(e)
    key = [e, active]
    for table in outer_tables:
        if table is None:
            raise InvariantViolation("no outer support term contains the probed element")
        keys, sums = table
        k = bisect_right(sums, draw() * sums[-1])
        key.append(keys[k] if k < len(keys) else keys[-1])
    if active:
        for table in inner_tables:
            if table is None:
                key.append(None)
                continue
            keys, sums = table
            k = bisect_right(sums, draw() * sums[-1])
            key.append(keys[k] if k < len(keys) else keys[-1])
    return tuple(key)


def _shares(table: Optional[DrawTable]) -> List[Tuple[Optional[int], float]]:
    """Each key of a draw table with its probability, the key's running-sum
    increment over the table total; a missing table is the key None."""
    if table is None:
        return [(None, 1.0)]
    keys, sums = table
    return [(k, (acc - prev) / sums[-1]) for k, acc, prev in zip(keys, sums, (0.0,) + sums[:-1])]


def outcomes(state: PolicyState) -> Iterator[Tuple[float, tuple]]:
    """Every draw tuple `draw_choices` can return from `state`, with its
    probability; a terminal state has none.

    The element, the outer guides and, for an active probe, the inner guides
    are read from the tables `draw_choices` bisects, and the probe is active
    with probability p_e.
    """
    if not state.element_table[0]:
        return
    p = state.inst.p
    for e, share in _shares(state.element_table):
        outer_tables, inner_tables = state.guide_tables(e)
        if None in outer_tables:
            raise InvariantViolation("no outer support term contains the probed element")
        outer = list(itertools.product(*map(_shares, outer_tables)))
        for active, prob in ((False, 1.0 - p[e]), (True, p[e])):
            if prob <= 0.0:
                continue
            inner = itertools.product(*map(_shares, inner_tables)) if active else [()]
            for og, ig in itertools.product(outer, inner):
                q = share * prob
                for _, r in og + ig:
                    q *= r
                yield q, (e, active) + tuple(a for a, _ in og + ig)


def support_updates(
    state: PolicyState, draw: tuple
) -> Tuple[List[MaskTerms], List[MaskTerms]]:
    """(outer, inner): each matroid's decomposition after the guided support
    update for the step `draw`, before trimming. An inactive probe leaves the
    inner decompositions as they are; an inner guide of None (p_e x_e below
    tolerance) drops e from that matroid's terms directly.

    A draw of the wrong length for its probe outcome, or one that probes an
    element with x_e = 0, raises `InvariantViolation`: only an engine bug
    makes one."""
    inst = state.inst
    e, active = draw[0], draw[1]
    k = 2 + len(inst.outer)
    if len(draw) != k + (len(inst.inner) if active else 0):
        raise InvariantViolation("draw does not hold one guide per matroid")
    if state.x[e] <= 0.0:
        raise InvariantViolation("probed element has zero fractional value")
    outer = [
        support_update_masks(m, terms, e, g, state.q_mask)
        for m, terms, g in zip(inst.outer, state.outer_terms, draw[2:k])
    ]
    if not active:
        return outer, state.inner_terms
    ebit = 1 << e
    inner = [
        [(w, mask & ~ebit) for w, mask in terms]
        if g is None
        else support_update_masks(m, terms, e, g, state.s_mask)
        for m, terms, g in zip(inst.inner, state.inner_terms, draw[k:])
    ]
    return outer, inner


def apply_step(state: PolicyState, draw: tuple) -> PolicyState:
    """Deterministic step core given the step's draw tuple.

    Takes every matroid's guided support update from `support_updates`,
    reconciles the master vector as the coordinate-wise minimum of the
    per-matroid implied vectors, and trims each updated decomposition (the
    inner ones of an inactive probe included) to the new master point, so
    every step keeps an exact decomposition without peeling again. Probing e
    adds it to `q_mask`, and to `s_mask` when active, which contracts it in
    the matroids the next step reads. The successor is not certified here:
    `intern` certifies it when a store first takes it.
    """
    inst = state.inst
    n = inst.n
    e, active = draw[0], draw[1]
    ebit = 1 << e
    p = inst.p

    outer_terms, inner_terms = support_updates(state, draw)
    outer_implied = [implied_vector_masks(t, n) for t in outer_terms]
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
        if active:
            for vec in inner_implied:
                bound = vec[i] / p[i] if p[i] > 0.0 else v
                if bound < v:
                    v = bound
        new_x[i] = 0.0 if v <= COORD_EPS else v
    new_px = [p[i] * new_x[i] for i in range(n)]

    return PolicyState(
        inst=inst,
        x=new_x,
        q_mask=state.q_mask | ebit,
        s_mask=(state.s_mask | ebit) if active else state.s_mask,
        outer_terms=[trim_masks(t, v, new_x) for t, v in zip(outer_terms, outer_implied)],
        inner_terms=[trim_masks(t, v, new_px) for t, v in zip(inner_terms, inner_implied)],
    )


def intern(store: dict, state: PolicyState) -> PolicyState:
    """The state `store` holds under `state.key`. A state new to the store is
    certified by `_assert_state_feasible` and stored first, so each state a
    store holds was certified exactly once; an equal duplicate is dropped
    unchecked, since every input of the certificate is in the key or fixed
    by the instance."""
    key = state.key
    stored = store.get(key)
    if stored is None:
        _assert_state_feasible(state)
        stored = store[key] = state
    return stored


def _assert_state_feasible(state: PolicyState):
    """Hard invariants of a state a step reached; raising here indicates an
    engine bug."""
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
    # every decomposition must imply its master vector: x for the outer
    # matroids, p*x for the inner ones.  That certifies polytope membership
    # only if each term B is independent in the state's contraction by C
    # (B & C = 0 and B | C independent).  That is not checked here, on every
    # new state; the tests check it (TestTrimmedDecompositions) on every step
    # of their trim cases
    for terms, vec in (
        (state.outer_terms, state.x),
        (state.inner_terms, [inst.p[i] * state.x[i] for i in range(inst.n)]),
    ):
        for t in terms:
            if not within(implied_vector_masks(t, inst.n), vec, 1e-7):
                raise InvariantViolation("decomposition does not match master vector")
