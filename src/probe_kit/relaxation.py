"""Relaxations of the probing problem over intersected matroid polytopes:
an LP over each matroid's dependent-flat rank rows for linear objectives,
and discretized continuous greedy over the same rows for submodular ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, nnls

from .instances import ProbingInstance
from .matroids import bits
from .objectives import multilinear_value_from_table
from .polytope import in_polytope

FEAS_TOL = 1e-7
SHRINK = 1.0 - 1e-9  # pull solver output strictly inside the polytope
TIGHT_TOL = 1e-9  # slack under which a constraint counts as tight at a vertex


@dataclass
class LinearProgram:
    """max c.x subject to A_ub x <= b_ub, x in [0,1]^n (dense rows)."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def n(self) -> int:
        return len(self.c)


@dataclass
class RelaxedSolution:
    x0: np.ndarray
    objective_value: float
    mode: str  # "lp" or "continuous_greedy"
    steps: int = 0
    trajectory_values: List[float] = field(default_factory=list)


def solve_lp(lp: LinearProgram) -> Tuple[np.ndarray, float]:
    """Maximize the LP; raises on infeasibility (cannot occur for x=0-feasible programs)."""
    res = linprog(
        c=-lp.c,
        A_ub=lp.a_ub if lp.a_ub.size else None,
        b_ub=lp.b_ub if lp.b_ub.size else None,
        bounds=[(0.0, 1.0)] * lp.n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    return np.clip(res.x, 0.0, 1.0), float(-res.fun)


def _polytope_rows(inst: ProbingInstance) -> Tuple[np.ndarray, np.ndarray]:
    """Rank rows of every matroid, only for the masks it lists as needed.

    Each matroid contributes one row per mask from `polytope_row_masks`: its
    dependent flats, or one per dependent part or uniform budget.  Outer
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
    x, _ = solve_lp(lp)
    x0 = _repair_point(inst, x)
    return RelaxedSolution(
        x0=x0, objective_value=float(lp.c @ x0), mode="lp", steps=1
    )


def _product_weights(q: np.ndarray) -> np.ndarray:
    """Pr[R] for every mask R when each i joins R independently with probability q_i.

    Built by n doublings; index R of the flat result is the mask R.
    """
    w = np.ones(1)
    for qi in q:
        w = np.concatenate((w * (1.0 - qi), w * qi))
    return w


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


def _tight_normals(v: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """The normals, as columns, of the constraints tight at v: rank rows, and
    the box facets v_i = 1 and v_i = 0."""
    eye = np.eye(len(v))
    return np.vstack(
        (
            a_ub[a_ub @ v >= b_ub - TIGHT_TOL],
            eye[v >= 1.0 - TIGHT_TOL],
            -eye[v <= TIGHT_TOL],
        )
    ).T


def _vertex_still_optimal(normals: np.ndarray, omega: np.ndarray) -> bool:
    """KKT certificate: omega is a nonnegative combination of the tight normals."""
    if not normals.shape[1]:  # scipy's nnls aborts the process on a matrix without columns
        return False
    _, residual = nnls(normals, omega)
    return residual <= 1e-9 * max(1.0, float(np.linalg.norm(omega)))


def _greedy_vertex(omega: np.ndarray, vertex, a_ub: np.ndarray, b_ub: np.ndarray):
    """A vertex maximizing omega.x over the polytope, as (v, tight normals):
    the previous pair while v stays optimal, otherwise a fresh LP solve, whose
    normals are built once here."""
    if vertex is not None and _vertex_still_optimal(vertex[1], omega):
        return vertex
    x, _ = solve_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub))
    return x, _tight_normals(x, a_ub, b_ub)


def continuous_greedy(inst: ProbingInstance, steps: int = 200) -> RelaxedSolution:
    """Discretized ascent of F(p * y) over the joint polytope.

    Each iteration finds a vertex maximizing the current multilinear gradient
    direction and moves y a 1/steps fraction towards it; the final y is an
    average of feasible points, hence feasible.  With w the product weights
    of p * y over all masks, the scaled gradient p_e dF/dy_e is one matrix
    product J @ w, with J from `_gradient_matrix` built once per run.  The
    LP is solved again only when the previous vertex stops being optimal for
    the new gradient, which happens only a few times over a run; the
    certificate's tight normals are built once per solved vertex.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = inst.n
    table = inst.objective.value_table()
    a_ub, b_ub = _polytope_rows(inst)
    p = np.asarray(inst.p, dtype=float)
    flat = np.asarray(table, dtype=float)
    grad = _gradient_matrix(flat, p)
    y = np.zeros(n)
    weights = _product_weights(p * y)
    vertex = None
    values = []
    for _ in range(steps):
        vertex = _greedy_vertex(grad @ weights, vertex, a_ub, b_ub)
        y = y + vertex[0] / steps
        weights = _product_weights(p * y)
        values.append(float(weights @ flat))
    x0 = _repair_point(inst, np.clip(y, 0.0, 1.0))
    final_value = multilinear_value_from_table(table, p * x0)
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
