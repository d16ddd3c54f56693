"""Shared helpers and test-only oracles for the test suite."""

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

import probe_kit.engine
from probe_kit.errors import CapabilityError, InvariantViolation
from probe_kit.instances import ProbingInstance, gen_random
from probe_kit.matroids import Matroid, _exchange_mapping_masks, bits, mask_of, set_of
from probe_kit.objectives import MultilinearValue, Objective, multilinear_exact
from probe_kit.oracle import _AdaptiveDP, _probe_candidates
from probe_kit.relaxation import LinearProgram, _polytope_rows, build_probing_lp, solve_lp
from probe_kit.seeding import spawn_rng

FPLUS_CAP = 10  # 2^n LP columns limit


def random_instance(seed, n=None, k_in=None, k_out=None, objective="linear"):
    """Seeded oracle-checkable instance with bounded constraint counts."""
    rng = spawn_rng(seed, "test-instance")
    if n is None:
        n = rng.randint(4, 8)
    if k_in is None:
        k_in = rng.randint(0, 2)
    if k_out is None:
        k_out = rng.randint(1, 2)
    return gen_random(n, k_in, k_out, objective, rng)


def partial_derivative(f, y, e):
    """dF/dy_e at y, exact: F(y with y_e=1) - F(y with y_e=0)."""
    if not 0 <= e < f.n:
        raise ValueError("element outside ground set")
    hi = list(y)
    lo = list(y)
    hi[e], lo[e] = 1.0, 0.0
    return multilinear_exact(f, hi).value - multilinear_exact(f, lo).value


# ---------------------------------------------------------------------------
# The policy's draws as plain loops, the references for the cached tables
# ---------------------------------------------------------------------------


def select_element_loop(state, rng: random.Random) -> Optional[int]:
    """An element with probability x_e / Sigma by a linear scan; None at the end."""
    if state.sigma <= 1e-9:
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
    return last


def sample_guide_loop(terms, e: int, rng: random.Random) -> Optional[int]:
    """Index of a term containing e, drawn by weight with a linear scan."""
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


def draw_choices_loop(state, rng: random.Random):
    """(element, active, outer guides, inner guides) in the policy's draw order."""
    e = select_element_loop(state, rng)
    if e is None:
        return None
    active = rng.random() < state.inst.p[e]
    outer = tuple(sample_guide_loop(t, e, rng) for t in state.outer_terms)
    if active:
        inner = tuple(sample_guide_loop(t, e, rng) for t in state.inner_terms)
    else:
        inner = tuple(None for _ in state.inner_terms)
    return e, active, outer, inner


def simulate_value(inst: ProbingInstance, x0, rng: random.Random) -> float:
    """f(S) of one policy run with no transition graph: every step calls
    `apply_step` afresh, looked up on `probe_kit.engine` so a test can count it."""
    engine = probe_kit.engine
    state = engine.init_state(inst, x0)
    for _ in range(inst.n + 1):
        choices = engine.draw_choices(state, rng)
        if choices is None:
            return state.objective_value()
        state = engine.apply_step(state, choices)
    raise InvariantViolation("more steps than ground elements")


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

# A policy tree is either None (stop) or (element, success_subtree, failure_subtree).
PolicyTree = Optional[Tuple[int, "PolicyTree", "PolicyTree"]]


def optimal_policy_tree(inst: ProbingInstance) -> PolicyTree:
    """Recover one optimal decision tree from the adaptive DP (stop on ties)."""
    dp = _AdaptiveDP(inst)

    def tree(q_mask: int, s_mask: int) -> PolicyTree:
        target = dp.value(q_mask, s_mask)
        if target <= dp.value_table[s_mask] + 1e-12:
            return None
        for e in _probe_candidates(inst, q_mask, s_mask):
            if dp.probe_value(q_mask, s_mask, e) >= target - 1e-12:
                ebit = 1 << e
                return (e, tree(q_mask | ebit, s_mask | ebit), tree(q_mask | ebit, s_mask))
        raise AssertionError("DP bookkeeping inconsistent")

    return tree(0, 0)


def policy_value_exact(inst: ProbingInstance, tree: PolicyTree) -> float:
    """Exact expectation of an explicit decision tree by branch enumeration."""
    value_table = inst.objective.value_table()

    def walk(node: PolicyTree, q_mask: int, s_mask: int, depth: int) -> float:
        if node is None:
            return value_table[s_mask]
        if depth > inst.n:
            raise ValueError("tree deeper than the ground set")
        e, on_success, on_failure = node
        ebit = 1 << e
        if q_mask & ebit:
            raise ValueError(f"element {e} probed twice")
        if not all(m.indep_mask(q_mask | ebit) for m in inst.outer):
            raise ValueError(f"probing {e} violates an outer constraint")
        if not all(m.indep_mask(s_mask | ebit) for m in inst.inner):
            raise ValueError(f"probing {e} violates an inner constraint")
        pe = inst.p[e]
        total = 0.0
        if pe > 0.0:
            total += pe * walk(on_success, q_mask | ebit, s_mask | ebit, depth + 1)
        if pe < 1.0:
            total += (1.0 - pe) * walk(on_failure, q_mask | ebit, s_mask, depth + 1)
        return total

    return walk(tree, 0, 0, 0)


def f_plus_bruteforce(f: Objective, y) -> float:
    """Best expected value over distributions with marginals dominated by y.

    Solved as an LP over weights alpha_A for every A subset of E:
    max sum alpha_A f(A) with sum alpha <= 1, alpha >= 0, and for each j
    sum over A containing j of alpha_A <= y_j.
    """
    if f.n > FPLUS_CAP:
        raise CapabilityError(f"f+ brute force limited to {FPLUS_CAP} elements")
    if len(y) != f.n:
        raise ValueError("dimension mismatch")
    n = f.n
    ncols = 1 << n
    table = f.value_table()
    a_ub = np.zeros((n + 1, ncols))
    for mask in range(ncols):
        for i in bits(mask):
            a_ub[i, mask] = 1.0
        a_ub[n, mask] = 1.0
    b_ub = np.array([min(max(float(v), 0.0), 1.0) for v in y] + [1.0])
    res = linprog(
        c=-np.asarray(table),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None)] * ncols,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"f+ LP failed: {res.message}")
    return float(-res.fun)


def enumerate_basic_solutions(lp: LinearProgram, tol: float = 1e-9):
    """Brute-force vertex scan of a tiny LP, the independence oracle for solve_lp.

    Enumerates basic solutions from all choices of n tight constraints (rows
    or box facets) and yields the feasible ones.
    """
    n = lp.n
    rows = [(lp.a_ub[i], lp.b_ub[i]) for i in range(len(lp.b_ub))]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, 1.0))
        rows.append((-e, 0.0))
    for combo in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.any(x < -tol) or np.any(x > 1 + tol):
            continue
        if lp.a_ub.size and np.any(lp.a_ub @ x > lp.b_ub + tol):
            continue
        yield np.clip(x, 0.0, 1.0)


def lp_optimum(inst: ProbingInstance) -> float:
    """Exact optimum of the linear relaxation (unrepaired; oracle comparisons)."""
    _, value = solve_lp(build_probing_lp(inst))
    return value


def max_f_plus_over_polytope(inst: ProbingInstance) -> float:
    """Exact max of f+(p * x) over the relaxation polytope, as one joint LP.

    Variables are the distribution weights alpha_A (2^n columns) plus x; the
    marginal constraints tie sum_{A ni j} alpha_A <= p_j x_j.  Brute-force
    oracle for dominance and continuous-greedy bound checks.
    """
    if inst.n > 10:
        raise CapabilityError("f+ polytope maximization limited to 10 elements")
    n = inst.n
    ncols = 1 << n
    table = inst.objective.value_table()
    rows_x, rhs_x = _polytope_rows(inst)
    nvar = ncols + n  # alpha block then x block
    rows = []
    rhs = []
    # sum alpha <= 1
    row = np.zeros(nvar)
    row[:ncols] = 1.0
    rows.append(row)
    rhs.append(1.0)
    # marginals: sum_{A ni j} alpha_A - p_j x_j <= 0
    for j in range(n):
        row = np.zeros(nvar)
        for mask in range(ncols):
            if mask >> j & 1:
                row[mask] = 1.0
        row[ncols + j] = -inst.p[j]
        rows.append(row)
        rhs.append(0.0)
    # polytope rows on x
    for r, b in zip(rows_x, rhs_x):
        row = np.zeros(nvar)
        row[ncols:] = r
        rows.append(row)
        rhs.append(b)
    c = np.zeros(nvar)
    c[:ncols] = -np.asarray(table)
    res = linprog(
        c=c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, None)] * ncols + [(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"f+ polytope LP failed: {res.message}")
    return float(-res.fun)


def multilinear_sample(
    f: Objective, y: Sequence[float], n_samples: int, rng: random.Random
) -> MultilinearValue:
    """Monte Carlo estimate of F(y) with independent inclusion sampling."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(y) != f.n:
        raise ValueError("dimension mismatch")
    total = 0.0
    total_sq = 0.0
    for _ in range(n_samples):
        mask = 0
        for i, v in enumerate(y):
            if v >= 1.0 or (v > 0.0 and rng.random() < v):
                mask |= 1 << i
        val = f.value_mask(mask)
        total += val
        total_sq += val * val
    mean = total / n_samples
    if n_samples == 1:
        return MultilinearValue(mean, 0.0)
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return MultilinearValue(mean, math.sqrt(var / n_samples))


# ---------------------------------------------------------------------------
# Set-based exchange maps over the policy's mask construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeMap:
    """Assignment phi: A -> B + {bot} certifying single-element swaps.

    Properties (checked by `exchange_map_violations`):
      1. phi(e) = e for e in A & B;
      2. no element of B is the image of two elements of A;
      3. for e in A - B: phi(e) = bot implies B + e independent, otherwise
         B - phi(e) + e independent.
    """

    source: frozenset
    target: frozenset
    mapping: dict = field(hash=False)

    def __getitem__(self, e: int):
        return self.mapping[e]


def exchange_map(m: Matroid, a: Iterable[int], b: Iterable[int]) -> ExchangeMap:
    amask, bmask = mask_of(a), mask_of(b)
    if not m.indep_mask(amask):
        raise ValueError("source set is not independent")
    if not m.indep_mask(bmask):
        raise ValueError("target set is not independent")
    mapping = _exchange_mapping_masks(m, amask, bmask)
    return ExchangeMap(set_of(amask), set_of(bmask), mapping)


def exchange_map_violations(m: Matroid, em: ExchangeMap) -> list:
    """Direct check of the three exchange-map properties via the oracle."""
    a, b = em.source, em.target
    problems = []
    for e in a & b:
        if em.mapping.get(e) != e:
            problems.append(f"common element {e} not fixed")
    images = [f for f in em.mapping.values() if f is not None]
    dup = {f for f in images if images.count(f) > 1}
    if dup:
        problems.append(f"non-injective images {sorted(dup)}")
    bmask = mask_of(b)
    for e in a - b:
        f = em.mapping.get(e, "missing")
        if f == "missing":
            problems.append(f"element {e} unassigned")
        elif f is None:
            if not m.indep_mask(bmask | (1 << e)):
                problems.append(f"phi({e})=bot but B+{e} dependent")
        else:
            if f not in b:
                problems.append(f"phi({e})={f} outside B")
            elif not m.indep_mask((bmask ^ (1 << f)) | (1 << e)):
                problems.append(f"B-{f}+{e} dependent")
    return problems
