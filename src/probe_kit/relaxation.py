"""Relaxations of the probing problem over intersected matroid polytopes:
an LP over each matroid's dependent-flat rank rows for linear objectives,
and discretized continuous greedy over the same rows for submodular ones.

Both solve LPs with one small primal simplex (`solve_lp`, Bland's rule, in
numpy).  Continuous greedy keeps the last vertex's active constraints: the
vertex stays while its multipliers for the new gradient are nonnegative, and
otherwise the simplex pivots on from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .instances import ProbingInstance
from .matroids import bits
from .objectives import multilinear_value_from_table, product_weights
from .polytope import in_polytope

FEAS_TOL = 1e-7
SHRINK = 1.0 - 1e-9  # pull solver output strictly inside the polytope
DUAL_TOL = 1e-12  # multipliers above -DUAL_TOL * max(1, |c|) count as nonnegative
PIVOT_TOL = 1e-9  # a constraint blocks a pivot only above this rate
SLACK_TOL = 1e-12  # slack under which a constraint counts as tight in the ratio test
PIVOT_CAP = 1000  # pivots before a solve fails; random LPs up to n = 12 took at most 83


@dataclass
class LinearProgram:
    """max c.x subject to A_ub x <= b_ub, x in [0,1]^n (dense rows, b_ub >= 0)."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def n(self) -> int:
        return len(self.c)


class LpSolution(NamedTuple):
    """An optimal vertex, its value, and the n constraints active at it, as
    indices into `_constraints`' stacked system."""

    x: np.ndarray
    value: float
    active: np.ndarray


@dataclass
class RelaxedSolution:
    x0: np.ndarray
    objective_value: float
    mode: str  # "lp" or "continuous_greedy"
    steps: int = 0
    trajectory_values: List[float] = field(default_factory=list)


def _constraints(a_ub: np.ndarray, b_ub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every constraint of the LP as one system g x <= h: the rows of A_ub,
    then x_i <= 1, then -x_i <= 0, the order Bland's rule ranks them in."""
    n = a_ub.shape[1]
    eye = np.eye(n)
    return np.vstack((a_ub, eye, -eye)), np.concatenate((b_ub, np.ones(n), np.zeros(n)))


def _dual_tol(c: np.ndarray) -> float:
    return DUAL_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))


def _vertex(a_ub: np.ndarray, b_ub: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The vertex where the `active` constraints hold with equality: the
    coordinates at a box facet exactly, the rest from the active rows."""
    m, n = a_ub.shape
    x = np.zeros(n)
    rows = active[active < m]
    ones = active[(active >= m) & (active < m + n)] - m
    x[ones] = 1.0
    free = np.ones(n, dtype=bool)
    free[(active[active >= m] - m) % n] = False  # m + i and m + n + i both fix x_i
    if rows.size:
        a = a_ub[rows]
        x[free] = np.linalg.solve(a[:, free], b_ub[rows] - a[:, ones].sum(axis=1))
    return np.clip(x, 0.0, 1.0)


def solve_lp(lp: LinearProgram, active: Optional[np.ndarray] = None) -> LpSolution:
    """Maximize the LP by the primal simplex over its vertices.

    Every LP here has b_ub >= 0, so x = 0, where the n lower bounds are
    active, is a vertex to start from; `active` names another vertex's
    active constraints to start from instead.  A pivot drops the active
    constraint of lowest index whose multiplier is negative, moves along
    the edge that keeps the others tight, and activates the blocking
    constraint of lowest index: Bland's rule, so a degenerate vertex cannot
    make it cycle.  The vertex returned is the solution of its active
    system, clipped to the box.  Raises RuntimeError after PIVOT_CAP pivots.
    """
    n = lp.n
    a_ub = np.asarray(lp.a_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(lp.b_ub, dtype=float)
    if np.any(b_ub < 0.0):
        raise ValueError("solve_lp needs b_ub >= 0, so that x = 0 is feasible")
    c = np.asarray(lp.c, dtype=float)
    g, h = _constraints(a_ub, b_ub)
    active = np.arange(len(h) - n, len(h)) if active is None else np.array(active)
    tol = _dual_tol(c)
    for pivots in range(PIVOT_CAP + 1):
        inv = np.linalg.inv(g[active])
        duals = c @ inv  # g[active].T @ duals = c
        improving = np.flatnonzero(duals < -tol)
        if not improving.size:
            x = _vertex(a_ub, b_ub, active)
            return LpSolution(x, float(c @ x), active)
        if pivots == PIVOT_CAP:
            break
        leave = improving[np.argmin(active[improving])]
        d = -inv[:, leave]  # off constraint active[leave], along the others
        x = inv @ h[active]
        rate = g @ d
        rate[active] = 0.0
        blocking = np.flatnonzero(rate > PIVOT_TOL)
        if not blocking.size:
            break
        slack = h[blocking] - g[blocking] @ x
        slack[slack < SLACK_TOL] = 0.0
        active[leave] = blocking[np.argmin(slack / rate[blocking])]  # the first of ties
    raise RuntimeError(f"LP solve failed: no optimal vertex after {pivots} pivots")


def _polytope_rows(inst: ProbingInstance) -> Tuple[np.ndarray, np.ndarray]:
    """Rank rows of every matroid, only for the masks it lists as needed.

    Each matroid contributes one row per mask from `polytope_row_masks`: its
    dependent flats, or for a partition one per dependent part.  Outer
    matroids constrain x directly; inner matroids constrain p * x.  The rows
    omitted are implied by these and 0 <= x <= 1, so the feasible region is
    the intersection of the full rank-constraint polytopes.
    """
    n = inst.n
    ones = np.ones(n)
    p = np.asarray(inst.p, dtype=float)
    rows = []
    rhs = []
    for matroids, scale in ((inst.outer, ones), (inst.inner, p)):
        for m in matroids:
            for mask in m.polytope_row_masks():
                members = list(bits(mask))
                row = np.zeros(n)
                row[members] = scale[members]
                rows.append(row)
                rhs.append(float(m.rank_mask(mask)))
    return np.array(rows).reshape(len(rows), n), np.array(rhs)


def build_probing_lp(inst: ProbingInstance) -> LinearProgram:
    """The linear relaxation: maximize sum p_e w_e x_e over the joint polytope."""
    if not inst.objective.is_linear:
        raise ValueError("build_probing_lp requires a linear objective")
    a_ub, b_ub = _polytope_rows(inst)
    table = inst.objective.value_table()  # w_e = f({e})
    c = np.array([inst.p[e] * table[1 << e] for e in range(inst.n)])
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub)


def _repair_point(inst: ProbingInstance, x: np.ndarray) -> np.ndarray:
    """Clamp and shrink a solver output until it is strictly feasible."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * SHRINK
    x[x < 1e-12] = 0.0
    for _ in range(40):
        if relaxation_feasible(inst, x, tol=1e-12):
            return x
        x = x * (1.0 - 1e-7)
    raise RuntimeError("could not repair relaxation point into the polytope")


def relaxation_feasible(inst: ProbingInstance, x: Sequence[float], tol: float = FEAS_TOL) -> bool:
    px = [inst.p[i] * x[i] for i in range(inst.n)]
    return all(in_polytope(m, x, tol) for m in inst.outer) and all(
        in_polytope(m, px, tol) for m in inst.inner
    )


def solve_relaxation_lp(inst: ProbingInstance) -> RelaxedSolution:
    lp = build_probing_lp(inst)
    x0 = _repair_point(inst, solve_lp(lp).x)
    return RelaxedSolution(
        x0=x0, objective_value=float(lp.c @ x0), mode="lp", steps=1
    )


def _gradient_matrix(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """J[e, R] = p_e * (table[R | e] - table[R - e]) for every e and mask R.

    For product weights w of p * y over all 2^n masks, J @ w is p_e * dF/dy_e
    for every e: the masks R - e and R + e share one difference, and their
    two weights sum to Pr[R - e] with e summed out.  J holds n * 2^n
    floats, 80 KB at n = 10 and 8.4 MB at GROUND_CAP = 16.
    """
    masks = np.arange(len(table))
    bit = 1 << np.arange(len(p))[:, None]
    return p[:, None] * (table[masks | bit] - table[masks & ~bit])


def _greedy_vertex(
    omega: np.ndarray, vertex: Optional[LpSolution], a_ub: np.ndarray, b_ub: np.ndarray
) -> LpSolution:
    """A vertex maximizing omega.x over the polytope: the previous vertex
    while its multipliers for omega, one n x n solve, stay nonnegative;
    otherwise a solve that pivots on from its active constraints."""
    if vertex is None:
        return solve_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub))
    g, _ = _constraints(a_ub, b_ub)
    if np.all(np.linalg.solve(g[vertex.active].T, omega) >= -_dual_tol(omega)):
        return vertex
    return solve_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub), vertex.active)


def continuous_greedy(inst: ProbingInstance, steps: int = 200) -> RelaxedSolution:
    """Discretized ascent of F(p * y) over the joint polytope.

    Each iteration finds a vertex maximizing the current multilinear gradient
    direction and moves y a 1/steps fraction towards it; the final y is an
    average of feasible points, hence feasible.  With w the product weights
    of p * y over all masks, the scaled gradient p_e dF/dy_e is one matrix
    product J @ w, with J from `_gradient_matrix` built once per run, and
    each step's value F(p * y) is w @ f, the formula of
    `multilinear_value_from_table`, read off the same weights.  The LP is
    solved again only when the previous vertex stops being optimal for the
    new gradient, which happens only a few times over a run, and that
    solve pivots on from the previous vertex.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = inst.n
    a_ub, b_ub = _polytope_rows(inst)
    p = np.asarray(inst.p, dtype=float)
    flat = inst.objective.value_table()
    grad = _gradient_matrix(flat, p)
    y = np.zeros(n)
    weights = product_weights(p * y)
    vertex = None
    values = []
    for _ in range(steps):
        vertex = _greedy_vertex(grad @ weights, vertex, a_ub, b_ub)
        y = y + vertex.x / steps
        weights = product_weights(p * y)
        values.append(float(weights @ flat))
    x0 = _repair_point(inst, np.clip(y, 0.0, 1.0))
    final_value = multilinear_value_from_table(flat, p * x0)
    return RelaxedSolution(
        x0=x0,
        objective_value=final_value,
        mode="continuous_greedy",
        steps=steps,
        trajectory_values=values,
    )


def solve_relaxation(inst: ProbingInstance, cg_steps: int = 200) -> RelaxedSolution:
    if inst.objective.is_linear:
        return solve_relaxation_lp(inst)
    return continuous_greedy(inst, steps=cg_steps)
