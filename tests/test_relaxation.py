"""LP solving, the probing relaxation, and continuous greedy."""

import random

import numpy as np
import pytest

import probe_kit.relaxation
from probe_kit.errors import CapabilityError
from probe_kit.instances import ProbingInstance, gen_bipartite_matching, gen_random
from probe_kit.matroids import bits, free_matroid, uniform_matroid
from probe_kit.objectives import (
    coverage_objective,
    linear_objective,
    multilinear_value_from_table,
    product_weights,
)
from probe_kit.oracle import optimal_adaptive_value
from probe_kit.relaxation import (
    LinearProgram,
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
        x, val = solve_lp(lp)
        assert val == pytest.approx(2.0)
        assert np.allclose(x, [1.0, 1.0])

    def test_single_budget_row(self):
        lp = LinearProgram(
            c=np.array([1.0, 1.0]), a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0])
        )
        _, val = solve_lp(lp)
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
            _, val = solve_lp(lp)
            best = max(float(lp.c @ v) for v in enumerate_basic_solutions(lp))
            assert val == pytest.approx(best, abs=1e-7)


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
                x, val = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub))
                _, ref_val = solve_lp(LinearProgram(c=c, a_ub=ref_a, b_ub=ref_b))
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
        x, val = solve_lp(LinearProgram(c=np.ones(3), a_ub=a_ub, b_ub=b_ub))
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
        v, _ = solve_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub))
        y = y + v / steps
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

    def counting(lp):
        calls[0] += 1
        return solve(lp)

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
            picked.append((omega, vertex[0], a_ub, b_ub))
            return vertex

        monkeypatch.setattr(probe_kit.relaxation, "_greedy_vertex", recording)
        for inst in _submodular_instances(6, 800):
            picked.clear()
            continuous_greedy(inst, steps=100)
            assert len(picked) == 100
            for omega, vertex, a_ub, b_ub in picked:
                _, opt = solve_lp(LinearProgram(c=omega, a_ub=a_ub, b_ub=b_ub))
                assert omega @ vertex >= opt - 1e-9 * (1.0 + abs(opt))
                assert np.all(a_ub @ vertex <= b_ub + 1e-9)
                assert np.all((vertex >= 0.0) & (vertex <= 1.0))

    def test_fewer_solves_than_steps(self, monkeypatch):
        inst = gen_random(10, 1, 1, "coverage", spawn_rng(3, "cg-solves"))
        calls = _counting_solves(monkeypatch)
        continuous_greedy(inst, steps=200)
        assert 1 <= calls[0] < 200

    def test_tight_normals_built_once_per_solve(self, monkeypatch):
        built = [0]
        tight_normals = probe_kit.relaxation._tight_normals

        def counting(v, a_ub, b_ub):
            built[0] += 1
            return tight_normals(v, a_ub, b_ub)

        monkeypatch.setattr(probe_kit.relaxation, "_tight_normals", counting)
        calls = _counting_solves(monkeypatch)
        insts = _submodular_instances(6, 800)
        insts.append(gen_random(10, 1, 1, "coverage", spawn_rng(3, "cg-solves")))
        for inst in insts:
            built[0] = calls[0] = 0
            continuous_greedy(inst, steps=200)
            assert 1 <= built[0] <= calls[0] < 200

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
