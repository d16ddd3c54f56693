"""LP solving, the probing relaxation, and continuous greedy."""

import random

import numpy as np
import pytest

import probe_kit.relaxation
from probe_kit.errors import CapabilityError
from probe_kit.instances import ProbingInstance, gen_bipartite_matching, gen_random
from probe_kit.matroids import (
    bits,
    explicit_matroid,
    free_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from probe_kit.objectives import (
    coverage_objective,
    linear_objective,
    multilinear_value_from_table,
    product_weights,
)
from probe_kit.oracle import optimal_adaptive_value
from probe_kit.relaxation import (
    LinearProgram,
    _constraints,
    _gradient_matrix,
    _polytope_rows,
    _repair_point,
    build_probing_lp,
    continuous_greedy,
    relaxation_feasible,
    solve_lp,
    solve_relaxation,
)
from probe_kit.seeding import spawn_rng
from conftest import (
    enumerate_basic_solutions,
    highs_lp,
    lp_optimum,
    max_f_plus_over_polytope,
    multilinear,
    partial_derivative,
    random_instance,
)


class TestSolveLp:
    def test_box_only(self):
        lp = LinearProgram(
            c=np.array([1.0, 1.0]), a_ub=np.zeros((0, 2)), b_ub=np.zeros(0)
        )
        x, val, _ = solve_lp(lp)
        assert val == pytest.approx(2.0)
        assert np.allclose(x, [1.0, 1.0])

    def test_single_budget_row(self):
        lp = LinearProgram(
            c=np.array([1.0, 1.0]), a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0])
        )
        _, val, _ = solve_lp(lp)
        assert val == pytest.approx(1.0)

    def test_agreement_with_vertex_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            n = 3
            rows = rng.randint(1, 4)
            lp = LinearProgram(
                c=np.array([rng.uniform(-1, 2) for _ in range(n)]),
                a_ub=np.array([[rng.uniform(0, 1) for _ in range(n)] for _ in range(rows)]),
                b_ub=np.array([rng.uniform(0.5, 2.0) for _ in range(rows)]),
            )
            _, val, _ = solve_lp(lp)
            best = max(float(lp.c @ v) for v in enumerate_basic_solutions(lp))
            assert val == pytest.approx(best, abs=1e-7)


def _kind_matroid(kind, n, rng):
    """A random matroid of the given kind on n elements, none of them a loop
    but the contracted ones."""
    if kind == "uniform":
        return uniform_matroid(n, rng.randint(1, n))
    if kind == "partition":
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(4, n - 1))))
        parts = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        return partition_matroid(n, parts, [rng.randint(1, len(p)) for p in parts])
    if kind == "graphic":
        vertices = rng.randint(3, 7)
        return graphic_matroid(vertices, [tuple(rng.sample(range(vertices), 2)) for _ in range(n)])
    if kind == "explicit":  # the independent sets of a rank <= 3 partition matroid, listed
        m = _kind_matroid("partition", n, rng)
        small = [mask for mask in range(1 << n) if m.indep_mask(mask) and mask.bit_count() <= 3]
        return explicit_matroid(n, [list(bits(mask)) for mask in small])
    m = _kind_matroid(rng.choice(["uniform", "partition", "graphic"]), n, rng)
    for e in rng.sample(range(n), rng.randint(1, 2)):
        if m.indep_mask(1 << e):
            m = m.contract(e)
    return m


KINDS = ["uniform", "partition", "graphic", "explicit", "contracted"]


def _kind_lps(kind, n):
    """Relaxation LPs over random matroids of one kind on n elements: the
    linear instance's own objective, and one of mixed signs."""
    rng = random.Random(f"{kind}-{n}")
    inst = ProbingInstance(
        n=n,
        p=[round(rng.uniform(0.1, 1.0), 4) for _ in range(n)],
        objective=linear_objective([round(rng.uniform(0.2, 2.0), 4) for _ in range(n)]),
        inner=[_kind_matroid(kind, n, rng) for _ in range(rng.randint(0, 1))],
        outer=[_kind_matroid(kind, n, rng) for _ in range(rng.randint(1, 2))],
    )
    a_ub, b_ub = _polytope_rows(inst)
    c = np.array([rng.uniform(-0.5, 2.0) for _ in range(n)])
    return [build_probing_lp(inst), LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub)]


def _assert_matches_highs(lp, sol):
    """solve_lp's optimum is HiGHS's within 1e-9 relative, at a feasible x."""
    x, value, active = sol
    _, ref = highs_lp(lp)
    assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
    assert value == float(lp.c @ x)
    assert np.all((x >= 0.0) & (x <= 1.0))
    if lp.a_ub.size:
        assert np.max(lp.a_ub @ x - lp.b_ub) <= 1e-9
    assert len(active) == lp.n


def _dantzig_cycles(lp, pivots=40):
    """The same active-set pivots as solve_lp, but the most negative
    multiplier leaves: True when an active set repeats before an optimum."""
    g, h = _constraints(lp.a_ub, lp.b_ub)
    active = np.arange(len(h) - lp.n, len(h))
    seen = set()
    for _ in range(pivots):
        inv = np.linalg.inv(g[active])
        duals = lp.c @ inv
        if np.all(duals >= -1e-12):
            return False
        leave = int(np.argmin(duals))
        d = -inv[:, leave]
        rate = g @ d
        rate[active] = 0.0
        blocking = np.flatnonzero(rate > 1e-9)
        slack = np.maximum(h[blocking] - g[blocking] @ (inv @ h[active]), 0.0)
        step = slack / rate[blocking]
        active[leave] = blocking[np.argmin(step)]
        key = frozenset(active.tolist())
        if key in seen:
            return True
        seen.add(key)
    return False


class TestSimplexAgainstHighs:
    """The numpy simplex against HiGHS, the reference in conftest.py."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_matroid_kind(self, kind):
        for n in range(3, 17):
            for lp in _kind_lps(kind, n):
                _assert_matches_highs(lp, solve_lp(lp))

    def test_continuous_greedy_vertex_lps(self):
        rng = spawn_rng(27, "cg-vertex-lps")
        for i in range(30):
            inst = gen_random(rng.randint(3, 12), i % 3, 1 + i % 2, "coverage", rng)
            a_ub, b_ub = _polytope_rows(inst)
            p = np.asarray(inst.p)
            grad = _gradient_matrix(np.asarray(inst.objective.value_table()), p)
            previous = None
            for _ in range(4):
                omega = grad @ product_weights(p * np.array([rng.random() for _ in p]))
                lp = LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub)
                sol = solve_lp(lp)
                _assert_matches_highs(lp, sol)
                if previous is not None:  # pivoting on from another vertex
                    _assert_matches_highs(lp, solve_lp(lp, previous.active))
                previous = sol

    def test_beale_terminates_under_blands_rule(self):
        # Beale's example, max -(-3/4 x1 + 20 x2 - 1/2 x3 + 6 x4), cut by the
        # box: x = 0 is degenerate in both rows, and the most negative
        # multiplier's rule pivots around a cycle of six active sets there
        lp = LinearProgram(
            c=np.array([0.75, -20.0, 0.5, -6.0]),
            a_ub=np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0]]),
            b_ub=np.zeros(2),
        )
        assert _dantzig_cycles(lp)
        sol = solve_lp(lp)
        _assert_matches_highs(lp, sol)
        assert sol.x.tolist() == [1.0, 0.0, 1.0, 0.0] and sol.value == 1.25

    def test_empty_rows_and_zero_objective(self):
        for n in (1, 4):
            for a_ub, b_ub in ((np.zeros((0, n)), np.zeros(0)), (np.ones((1, n)), np.ones(1))):
                x, value, active = solve_lp(LinearProgram(c=np.zeros(n), a_ub=a_ub, b_ub=b_ub))
                assert x.tolist() == [0.0] * n and value == 0.0
                lp = LinearProgram(c=np.arange(n) - 1.5, a_ub=a_ub, b_ub=b_ub)
                _assert_matches_highs(lp, solve_lp(lp))

    def test_needs_x_zero_feasible(self):
        lp = LinearProgram(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.array([-1.0]))
        with pytest.raises(ValueError, match="b_ub >= 0"):
            solve_lp(lp)

    def test_pivot_cap(self, monkeypatch):
        lp = LinearProgram(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1))
        monkeypatch.setattr(probe_kit.relaxation, "PIVOT_CAP", 0)
        with pytest.raises(RuntimeError, match="LP solve failed"):
            solve_lp(lp)
        monkeypatch.setattr(probe_kit.relaxation, "PIVOT_CAP", 1)  # one pivot to (1, 0)
        assert solve_lp(lp).x.tolist() == [1.0, 0.0]


class TestProbingLp:
    def test_single_element(self):
        inst = ProbingInstance(
            n=1,
            p=[0.5],
            objective=linear_objective([1.0]),
            inner=[],
            outer=[uniform_matroid(1, 1)],
        )
        assert lp_optimum(inst) == pytest.approx(0.5)

    def test_zero_probability_element_contributes_nothing(self):
        inst = ProbingInstance(
            n=2,
            p=[0.0, 1.0],
            objective=linear_objective([10.0, 1.0]),
            inner=[],
            outer=[free_matroid(2)],
        )
        assert lp_optimum(inst) == pytest.approx(1.0)

    def test_inner_constraint_scales_by_probability(self):
        # inner rank 1 caps p.x at 1, so x can exceed what x-space rank allows
        inst = ProbingInstance(
            n=2,
            p=[0.5, 0.5],
            objective=linear_objective([1.0, 1.0]),
            inner=[uniform_matroid(2, 1)],
            outer=[free_matroid(2)],
        )
        assert lp_optimum(inst) == pytest.approx(1.0)  # x=(1,1), p.x=(0.5,0.5)

    def test_requires_linear_objective(self):
        inst = random_instance(0, n=4, objective="coverage")
        with pytest.raises(ValueError):
            build_probing_lp(inst)

    def test_size_cap(self):
        # a 17-element instance fails where it is built, before any LP rows
        with pytest.raises(CapabilityError, match="ground set of 17 elements"):
            ProbingInstance(
                n=17,
                p=[0.5] * 17,
                objective=linear_objective([1.0] * 17),
                inner=[],
                outer=[uniform_matroid(17, 3)],
            )

    def test_lp_dominates_adaptive_optimum(self):
        for seed in range(15):
            inst = random_instance(seed, n=random.Random(seed).randint(3, 6))
            assert lp_optimum(inst) >= optimal_adaptive_value(inst) - 1e-6

    def test_solved_point_is_feasible(self):
        for seed in range(10):
            inst = random_instance(100 + seed)
            sol = solve_relaxation(inst)
            assert relaxation_feasible(inst, sol.x0)


def _all_subset_rows(inst):
    """Reference: one rank row per nonempty subset per matroid (2^n - 1 each)."""
    n = inst.n
    rows = []
    rhs = []
    for mask in range(1, 1 << n):
        members = list(bits(mask))
        for m in inst.outer:
            row = np.zeros(n)
            row[members] = 1.0
            rows.append(row)
            rhs.append(float(m.rank_mask(mask)))
        for m in inst.inner:
            row = np.zeros(n)
            for i in members:
                row[i] = inst.p[i]
            rows.append(row)
            rhs.append(float(m.rank_mask(mask)))
    return np.array(rows), np.array(rhs)


def _row_test_instances():
    insts = []
    for k_in in range(3):
        for k_out in (1, 2):
            for seed in range(4):
                objective = "linear" if seed % 2 == 0 else "coverage"
                insts.append(
                    random_instance(
                        500 + 10 * seed + 3 * k_in + k_out,
                        k_in=k_in,
                        k_out=k_out,
                        objective=objective,
                    )
                )
    rng = random.Random(11)
    for n_left, n_right in ((3, 3), (4, 3)):
        insts.append(
            gen_bipartite_matching(n_left, n_right, [2] * n_left, [1] * n_right, 0.9, rng)
        )
    return insts


class TestPolytopeRows:
    """The compact rows cut out the same polytope as the all-subsets rows."""

    def test_instances_cover_every_matroid_kind(self):
        kinds = {m.kind_name for inst in _row_test_instances() for m in inst.outer + inst.inner}
        assert kinds == {"uniform", "partition", "graphic", "explicit"}

    def test_lp_optimum_matches_all_subset_rows(self):
        rng = np.random.default_rng(3)
        for inst in _row_test_instances():
            a_ub, b_ub = _polytope_rows(inst)
            ref_a, ref_b = _all_subset_rows(inst)
            assert len(b_ub) < len(ref_b)
            objectives = [rng.uniform(0.0, 2.0, inst.n) for _ in range(3)]
            if inst.objective.is_linear:
                objectives.append(build_probing_lp(inst).c)
            for c in objectives:
                x, val, _ = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub))
                _, ref_val, _ = solve_lp(LinearProgram(c=c, a_ub=ref_a, b_ub=ref_b))
                assert abs(val - ref_val) <= 1e-9
                assert np.max(ref_a @ x - ref_b) <= 1e-9

    def test_solved_relaxation_is_feasible(self):
        for inst in _row_test_instances():
            assert relaxation_feasible(inst, solve_relaxation(inst, cg_steps=10).x0)

    def test_free_matroid_gives_empty_rows(self):
        inst = ProbingInstance(
            n=3,
            p=[0.5, 0.5, 0.5],
            objective=linear_objective([1.0, 2.0, 3.0]),
            inner=[free_matroid(3)],
            outer=[free_matroid(3)],
        )
        a_ub, b_ub = _polytope_rows(inst)
        assert a_ub.shape == (0, 3) and b_ub.shape == (0,)
        x, val, _ = solve_lp(LinearProgram(c=np.ones(3), a_ub=a_ub, b_ub=b_ub))
        assert val == pytest.approx(3.0)
        assert np.allclose(x, 1.0)


class TestContinuousGreedy:
    def test_single_deterministic_element(self):
        inst = ProbingInstance(
            n=1,
            p=[1.0],
            objective=linear_objective([1.0]),
            inner=[],
            outer=[uniform_matroid(1, 1)],
        )
        sol = continuous_greedy(inst, steps=50)
        assert sol.x0[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_linear_objective_tracks_lp(self):
        # linear functions are submodular, so greedy must land within the
        # discretization budget of the LP optimum
        for seed in range(8):
            inst = random_instance(200 + seed, n=random.Random(seed).randint(3, 5))
            opt = lp_optimum(inst)
            sol = continuous_greedy(inst, steps=200)
            assert sol.objective_value >= opt * 0.98 - 1e-9

    def test_trajectory_monotone_nondecreasing(self):
        inst = random_instance(7, n=4, objective="coverage")
        sol = continuous_greedy(inst, steps=40)
        vals = sol.trajectory_values
        assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))

    def test_mode_dispatch(self):
        lin = random_instance(1, n=4, objective="linear")
        sub = random_instance(1, n=4, objective="coverage")
        assert solve_relaxation(lin).mode == "lp"
        assert solve_relaxation(sub).mode == "continuous_greedy"


def _reference_continuous_greedy(inst, steps):
    """Reference: per-coordinate enumerated gradients and an LP solve every step."""
    n = inst.n
    table = inst.objective.value_table()
    a_ub, b_ub = _polytope_rows(inst)
    p = np.asarray(inst.p, dtype=float)
    y = np.zeros(n)
    for _ in range(steps):
        py = p * y
        omega = np.empty(n)
        for e in range(n):
            hi = py.copy()
            lo = py.copy()
            hi[e], lo[e] = 1.0, 0.0
            omega[e] = p[e] * (multilinear(table, hi) - multilinear(table, lo))
        y = y + solve_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub)).x / steps
    x0 = _repair_point(inst, np.clip(y, 0.0, 1.0))
    return x0, multilinear(table, p * x0)


def _submodular_instances(count, seed_base):
    return [
        random_instance(
            seed_base + i,
            k_in=i % 3,
            k_out=1 + (i // 3) % 2,
            objective=("coverage", "weighted_matroid_rank")[i % 2],
        )
        for i in range(count)
    ]


def _counting_solves(monkeypatch):
    calls = [0]
    solve = probe_kit.relaxation.solve_lp

    def counting(lp, active=None):
        calls[0] += 1
        return solve(lp, active)

    monkeypatch.setattr(probe_kit.relaxation, "solve_lp", counting)
    return calls


class TestVectorizedContinuousGreedy:
    """One gradient per step from the product weights, and an LP solve only
    when the previous vertex stops being optimal."""

    @pytest.mark.parametrize("objective", ["coverage", "weighted_matroid_rank"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_gradient_matches_partial_derivative(self, objective, n):
        rng = spawn_rng(n, "gradient", objective)
        inst = gen_random(n, 0, 1, objective, rng)
        f = inst.objective
        table = np.asarray(f.value_table())
        for _ in range(4):
            y = np.array([rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)])
            for p in (np.asarray(inst.p), np.ones(n)):
                q = p * y
                omega = _gradient_matrix(table, p) @ product_weights(q)
                for e in range(n):
                    assert abs(omega[e] - p[e] * partial_derivative(f, q, e)) <= 1e-12

    def test_product_weights_and_trajectory_value(self):
        # the product-weight dot, which both F and the trajectory read,
        # against the loop over the fractional coordinates' subsets
        inst = random_instance(31, n=6, objective="coverage")
        q = np.array([0.0, 0.3, 1.0, 0.7, 0.5, 0.2])
        weights = product_weights(q)
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        table = inst.objective.value_table()
        cases = [(table, q)]
        rng = spawn_rng(31, "product-weights")
        for _ in range(60):
            n = rng.randint(0, 10)
            scale = rng.choice([1.0, 1e3])
            table = [rng.uniform(-scale, scale) for _ in range(1 << n)]
            cases.append((table, np.array([rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)])))
        for table, q in cases:
            exact = multilinear(table, q)
            tol = 1e-12 * max(1.0, max(map(abs, table)))
            assert abs(product_weights(q) @ np.asarray(table) - exact) <= tol
            assert abs(multilinear_value_from_table(table, q) - exact) <= tol

    def test_matches_solve_every_step_loop(self):
        for inst in _submodular_instances(20, 700):
            x0, value = _reference_continuous_greedy(inst, steps=100)
            sol = continuous_greedy(inst, steps=100)
            assert np.max(np.abs(sol.x0 - x0)) <= 1e-12
            assert abs(sol.objective_value - value) <= 1e-12

    def test_every_step_reaches_the_lp_optimum(self, monkeypatch):
        picked = []
        greedy_vertex = probe_kit.relaxation._greedy_vertex

        def recording(omega, v, a_ub, b_ub):
            vertex = greedy_vertex(omega, v, a_ub, b_ub)
            picked.append((omega, vertex.x, a_ub, b_ub))
            return vertex

        monkeypatch.setattr(probe_kit.relaxation, "_greedy_vertex", recording)
        for inst in _submodular_instances(6, 800):
            picked.clear()
            continuous_greedy(inst, steps=100)
            assert len(picked) == 100
            for omega, vertex, a_ub, b_ub in picked:
                _, opt = highs_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub))
                assert omega @ vertex >= opt - 1e-9 * (1.0 + abs(opt))
                assert np.all(a_ub @ vertex <= b_ub + 1e-9)
                assert np.all((vertex >= 0.0) & (vertex <= 1.0))

    def test_fewer_solves_than_steps(self, monkeypatch):
        inst = gen_random(10, 1, 1, "coverage", spawn_rng(3, "cg-solves"))
        calls = _counting_solves(monkeypatch)
        continuous_greedy(inst, steps=200)
        assert 1 <= calls[0] < 200

    def test_resolves_pivot_on_from_the_previous_vertex(self, monkeypatch):
        # the first solve starts at x = 0; every later one from the active
        # constraints of the vertex that stopped being optimal
        starts = []
        solve = probe_kit.relaxation.solve_lp

        def recording(lp, active=None):
            sol = solve(lp, active)
            starts.append((None if active is None else active.tolist(), sol.active.tolist()))
            return sol

        monkeypatch.setattr(probe_kit.relaxation, "solve_lp", recording)
        insts = _submodular_instances(6, 800)
        insts.append(gen_random(10, 1, 1, "coverage", spawn_rng(3, "cg-solves")))
        for inst in insts:
            starts.clear()
            continuous_greedy(inst, steps=200)
            assert 1 <= len(starts) < 200
            assert starts[0][0] is None
            for (_, before), (start, _) in zip(starts, starts[1:]):
                assert start == before

    def test_single_step(self, monkeypatch):
        calls = _counting_solves(monkeypatch)
        for inst in _submodular_instances(4, 900):
            calls[0] = 0
            x0, value = _reference_continuous_greedy(inst, steps=1)
            sol = continuous_greedy(inst, steps=1)
            assert calls[0] == 1
            assert np.max(np.abs(sol.x0 - x0)) <= 1e-12
            assert abs(sol.objective_value - value) <= 1e-12
            assert len(sol.trajectory_values) == 1

    def test_polytope_without_rows(self, monkeypatch):
        inst = ProbingInstance(
            n=3,
            p=[0.5, 0.8, 1.0],
            objective=coverage_objective([[0], [0, 1], [2]], [1.0, 2.0, 0.5]),
            inner=[free_matroid(3)],
            outer=[free_matroid(3)],
        )
        assert _polytope_rows(inst)[0].shape == (0, 3)
        calls = _counting_solves(monkeypatch)
        sol = continuous_greedy(inst, steps=50)
        assert calls[0] == 1  # the all-ones vertex stays optimal
        x0, value = _reference_continuous_greedy(inst, steps=50)
        assert np.max(np.abs(sol.x0 - x0)) <= 1e-12
        assert abs(sol.objective_value - value) <= 1e-12


class TestFPlusOverPolytope:
    def test_dominates_lp_value_for_linear(self):
        # for a linear objective f+ equals the expectation, so both programs
        # have the same optimum
        for seed in range(5):
            inst = random_instance(300 + seed, n=4, objective="linear")
            assert max_f_plus_over_polytope(inst) == pytest.approx(
                lp_optimum(inst), abs=1e-6
            )

    def test_dominates_adaptive_optimum_submodular(self):
        for seed in range(5):
            inst = random_instance(400 + seed, n=4, objective="coverage")
            assert max_f_plus_over_polytope(inst) >= optimal_adaptive_value(inst) - 1e-6
