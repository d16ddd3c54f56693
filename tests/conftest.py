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
from probe_kit.objectives import Objective
from probe_kit.polytope import EPS
from probe_kit.relaxation import (
    LinearProgram,
    _polytope_rows,
    build_probing_lp,
    solve_relaxation,
)
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


def certified_step(state, draw):
    """The successor `apply_step` computes for the `draw_choices` tuple
    `draw`, certified as `intern` certifies every state new to a store: the
    step of a caller that keeps no transition graph. Both are looked up on
    `probe_kit.engine`, so a test can count them."""
    engine = probe_kit.engine
    return engine.intern({}, engine.apply_step(state, draw))


def mid_run_states(count, seed_base):
    """Policy states reached in 0-2 steps from solved relaxations of small
    random instances, keeping those with Sigma > 1e-6."""
    engine = probe_kit.engine
    states = []
    i = 0
    while len(states) < count:
        rng = spawn_rng(seed_base, "state", i)
        i += 1
        inst = gen_random(
            rng.randint(3, 5),
            rng.randint(0, 2),
            rng.randint(1, 2),
            rng.choice(["linear", "coverage"]),
            rng,
        )
        sol = solve_relaxation(inst, cg_steps=60)
        state = engine.init_state(inst, sol.x0)
        for _ in range(rng.randint(0, 2)):
            draw = engine.draw_choices(state, rng)
            if draw is None:
                break
            state = certified_step(state, draw)
        if state.sigma > 1e-6:
            states.append(state)
    return states


def multilinear(f, y: Sequence[float]) -> float:
    """F(y), exact, for an Objective or its value table `f`: the sum of
    Pr_y[R] f(R) over the 2^k sets R that agree with y's integral
    coordinates, for the k fractional ones. The loop reference for the
    product-weight dot of `multilinear_value_from_table`."""
    table = f.value_table() if isinstance(f, Objective) else f
    if len(table) != 1 << len(y):
        raise ValueError("dimension mismatch")
    base = 0
    frac = []
    for i, v in enumerate(y):
        if not -1e-12 <= v <= 1 + 1e-12:
            raise ValueError("multilinear argument must lie in the unit cube")
        if v >= 1.0:
            base |= 1 << i
        elif v > 0.0:
            frac.append((i, float(v)))
    total = 0.0
    for sub in range(1 << len(frac)):
        mask = base
        prob = 1.0
        for j, (i, v) in enumerate(frac):
            if sub >> j & 1:
                mask |= 1 << i
                prob *= v
            else:
                prob *= 1.0 - v
        total += prob * table[mask]
    return total


def partial_derivative(f, y, e):
    """dF/dy_e at y, exact: F(y with y_e=1) - F(y with y_e=0)."""
    if not 0 <= e < f.n:
        raise ValueError("element outside ground set")
    hi = list(y)
    lo = list(y)
    hi[e], lo[e] = 1.0, 0.0
    return multilinear(f, hi) - multilinear(f, lo)


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
    """(element, active, outer guides..., inner guides...) in the policy's
    draw order; an inactive probe draws no inner guide."""
    e = select_element_loop(state, rng)
    if e is None:
        return None
    active = rng.random() < state.inst.p[e]
    outer = tuple(sample_guide_loop(t, e, rng) for t in state.outer_terms)
    if not active:
        return (e, active) + outer
    return (e, active) + outer + tuple(sample_guide_loop(t, e, rng) for t in state.inner_terms)


def simulate_value(inst: ProbingInstance, x0, rng: random.Random) -> float:
    """f(S) of one policy run with no transition graph: every step calls
    `apply_step` afresh and certifies its successor (`certified_step`)."""
    engine = probe_kit.engine
    state = engine.init_state(inst, x0)
    for _ in range(inst.n + 1):
        draw = engine.draw_choices(state, rng)
        if draw is None:
            return state.objective_value
        state = certified_step(state, draw)
    raise InvariantViolation("more steps than ground elements")


# ---------------------------------------------------------------------------
# Per-mask rank formulas, the references for the matroid constructors' tables
# ---------------------------------------------------------------------------


def uniform_rank_loop(n: int, k: int) -> list:
    return [min(mask.bit_count(), k) for mask in range(1 << n)]


def partition_rank_loop(n: int, parts, capacities) -> list:
    """Free elements (in no part) count fully, each part up to its capacity."""
    part_masks = [mask_of(p) for p in parts]
    free = ((1 << n) - 1) & ~mask_of(itertools.chain.from_iterable(parts))
    table = []
    for mask in range(1 << n):
        r = (mask & free).bit_count()
        for pm, cap in zip(part_masks, capacities):
            r += min((mask & pm).bit_count(), cap)
        table.append(r)
    return table


def downward_closure(independent_sets) -> set:
    masks = {mask_of(s) for s in independent_sets}
    stack = list(masks)
    while stack:
        m = stack.pop()
        for b in bits(m):
            sub = m & ~(1 << b)
            if sub not in masks:
                masks.add(sub)
                stack.append(sub)
    return masks


def explicit_rank_scan(n: int, independent_sets) -> list:
    """Rank of every mask A as the largest |I| over the members I of the
    downward-closed family that lie inside A, by a scan of the family."""
    family = downward_closure(independent_sets)
    table = []
    for mask in range(1 << n):
        best = 0
        for m in family:
            if m & ~mask == 0:
                best = max(best, m.bit_count())
        table.append(best)
    return table


def forest_rank_loop(edges) -> list:
    """Rank of every edge set, |touched vertices| - |components|, by a fresh
    union-find per mask."""

    def find(parent, v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    table = []
    for mask in range(1 << len(edges)):
        parent = {}
        r = 0
        for i in bits(mask):
            u, v = edges[i]
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        table.append(r)
    return table


# ---------------------------------------------------------------------------
# Per-mask objective formulas over the JSON form, the references for the
# objective constructors' value tables
# ---------------------------------------------------------------------------


def objective_value_loop(spec: dict) -> list:
    """f(S) for every mask S by the kind's formula, one Python `sum` per mask."""
    kind = spec["kind"]
    if kind == "linear":
        w = spec["weights"]
        return [sum(w[i] for i in bits(mask)) for mask in range(1 << len(w))]
    if kind == "coverage":
        cover_masks = [mask_of(c) for c in spec["covers"]]
        table = []
        for mask in range(1 << len(cover_masks)):
            covered = 0
            for i in bits(mask):
                covered |= cover_masks[i]
            table.append(sum(spec["item_weights"][j] for j in bits(covered)))
        return table
    # weighted matroid rank: the greedy by decreasing weight, ties by index
    m = Matroid.from_json(spec["matroid"])
    w = spec["weights"]
    order = sorted(range(len(w)), key=lambda i: (-w[i], i))
    table = []
    for mask in range(1 << len(w)):
        best = m.max_independent_subset(i for i in order if mask >> i & 1)
        table.append(sum(w[i] for i in bits(best)))
    return table


# ---------------------------------------------------------------------------
# Exhaustive structure checks over pairs of sets, the references for the
# local table checks of matroid_axiom_violations and
# objective_structure_violations
# ---------------------------------------------------------------------------


def matroid_axiom_violations_loop(m: Matroid) -> list:
    """The empty set, downward closure and the exchange axiom on the
    effective ground set, by walking pairs of independent sets."""
    gmask = mask_of(m.ground)
    indep = [0]
    is_indep = {0: True}
    problems = []
    if not m.indep_mask(0):
        problems.append("empty set not independent")
    for mask in range(1, 1 << m.ground_size):
        if mask & ~gmask:
            continue
        ok = m.indep_mask(mask)
        is_indep[mask] = ok
        if ok:
            indep.append(mask)
            for b in bits(mask):
                if not is_indep.get(mask & ~(1 << b), True):
                    problems.append(f"downward closure fails at {sorted(bits(mask))}")
                    break
    for m1 in indep:
        c1 = m1.bit_count()
        for m2 in indep:
            if m2.bit_count() <= c1:
                continue
            if not any(is_indep[m1 | (1 << e)] for e in bits(m2 & ~m1)):
                problems.append(
                    f"exchange axiom fails for {sorted(bits(m1))}, {sorted(bits(m2))}"
                )
    return problems


def objective_structure_violations_loop(f: Objective) -> list:
    """Normalization, monotonicity, and submodularity on every pair of masks."""
    table = f.value_table()
    problems = []
    if abs(table[0]) > 1e-12:
        problems.append("f(empty) != 0")
    full = (1 << f.n) - 1
    for mask in range(1 << f.n):
        for i in bits(full & ~mask):
            if table[mask | (1 << i)] < table[mask] - 1e-12:
                problems.append(f"monotonicity fails adding {i} to {mask:b}")
    for s in range(1 << f.n):
        for t in range(s + 1, 1 << f.n):
            if table[s | t] + table[s & t] > table[s] + table[t] + 1e-9:
                problems.append(f"submodularity fails at masks {s:b}, {t:b}")
    return problems


# ---------------------------------------------------------------------------
# Lattice and submask walks, the references for `matroids._dependent_flats`
# and the columns of `polytope._decompose_lp`
# ---------------------------------------------------------------------------


def dependent_flats_loop(m: Matroid) -> list:
    """Masks F with r(F) < |F| and r(F + e) > r(F) for every e not in F,
    ascending, by a walk over the lattice."""
    n = m.ground_size
    full = (1 << n) - 1
    flats = []
    for f in range(1, 1 << n):
        r = m.rank_mask(f)
        if r < f.bit_count() and all(m.rank_mask(f | 1 << e) > r for e in bits(full & ~f)):
            flats.append(f)
    return flats


def decompose_lp_columns_loop(m: Matroid, x: Sequence[float]) -> list:
    """The empty set, then the independent nonempty submasks of supp(x) in
    descending order, by a walk over the submasks."""
    support = 0
    for i, v in enumerate(x):
        if v > EPS:
            support |= 1 << i
    columns = [0]
    sub = support
    while sub:
        if m.indep_mask(sub):
            columns.append(sub)
        sub = (sub - 1) & support
    return columns


# ---------------------------------------------------------------------------
# Subset scans of a support as submask loops, the references for
# `polytope._subset_sums` and its readers
# ---------------------------------------------------------------------------


def in_polytope_loop(m: Matroid, x: Sequence[float], tol: float) -> bool:
    """`polytope.in_polytope` with its violation found by `max_violation_loop`."""
    support = 0
    for i, v in enumerate(x):
        if v < -tol or not math.isfinite(v):
            return False
        if v > tol:
            support |= 1 << i
    return max_violation_loop(m, x, support) <= tol


def max_violation_loop(m: Matroid, x: Sequence[float], support: int) -> float:
    """max(0, max over submasks A of `support` of x(A) - r(A)), x(A) summed
    over A's elements in ascending order."""
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


def step_cap_loop(m: Matroid, residual, support: int, bmask: int, w_rem: float) -> float:
    """`polytope._step_cap` by a loop over the submasks of the support."""
    beta = min(w_rem, min(residual[i] for i in bits(bmask)))
    sub = support
    while sub:
        ra = m.rank_mask(sub)
        inter = (sub & bmask).bit_count()
        if ra > inter:
            xa = 0.0
            for i in bits(sub):
                xa += residual[i]
            cap = (w_rem * ra - xa) / (ra - inter)
            if cap < beta:
                beta = cap
        sub = (sub - 1) & support
    return beta


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

# A policy tree is either None (stop) or (element, success_subtree, failure_subtree).
PolicyTree = Optional[Tuple[int, "PolicyTree", "PolicyTree"]]


def _probe_candidates(inst: ProbingInstance, q_mask: int, s_mask: int):
    for e in range(inst.n):
        ebit = 1 << e
        if q_mask & ebit:
            continue
        # an active element must be taken, so e is probeable only if taking it
        # would keep the success set inner-feasible
        if not all(m.indep_mask(q_mask | ebit) for m in inst.outer):
            continue
        if not all(m.indep_mask(s_mask | ebit) for m in inst.inner):
            continue
        yield e


class AdaptiveRecursion:
    """E[OPT] by the memoized recursion over (probed, successes) bitmask
    pairs, with independence calls per state: the exact reference of
    `optimal_adaptive_value`'s layered sweep.  Candidates in ascending
    order, v = p_e V(q+e, s+e) + (1 - p_e) V(q+e, s), and f(s) kept unless
    some v is strictly greater, so both give the same float."""

    def __init__(self, inst: ProbingInstance):
        self.inst = inst
        self.value_table = inst.objective.value_table().tolist()
        self.memo = {}

    def value(self, q_mask: int, s_mask: int) -> float:
        key = (q_mask, s_mask)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        best = self.value_table[s_mask]
        for e in _probe_candidates(self.inst, q_mask, s_mask):
            v = self.probe_value(q_mask, s_mask, e)
            if v > best:
                best = v
        self.memo[key] = best
        return best

    def probe_value(self, q_mask: int, s_mask: int, e: int) -> float:
        """Expected value of probing e now and acting optimally afterwards."""
        ebit = 1 << e
        pe = self.inst.p[e]
        return pe * self.value(q_mask | ebit, s_mask | ebit) + (1.0 - pe) * self.value(
            q_mask | ebit, s_mask
        )


def reference_adaptive_value(inst: ProbingInstance) -> float:
    return AdaptiveRecursion(inst).value(0, 0)


def optimal_policy_tree(inst: ProbingInstance) -> PolicyTree:
    """Recover one optimal decision tree from the adaptive recursion (stop on ties)."""
    dp = AdaptiveRecursion(inst)

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


def highs_lp(lp: LinearProgram) -> Tuple[np.ndarray, float]:
    """HiGHS's optimal vertex and value of the LP, the reference for solve_lp."""
    res = linprog(
        c=-lp.c,
        A_ub=lp.a_ub if lp.a_ub.size else None,
        b_ub=lp.b_ub if lp.b_ub.size else None,
        bounds=[(0.0, 1.0)] * lp.n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"HiGHS LP failed: {res.message}")
    return res.x, float(-res.fun)


def lp_optimum(inst: ProbingInstance) -> float:
    """HiGHS's optimum of the linear relaxation (unrepaired; oracle comparisons)."""
    return highs_lp(build_probing_lp(inst))[1]


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


@dataclass(frozen=True)
class MultilinearValue:
    """A sampled estimate of F(y) and its standard error."""

    value: float
    stderr: float


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
