"""The rounding policy engine: selection, stepping, traces, invariants."""

import math
import random

import pytest

import probe_kit.engine
import probe_kit.polytope
from probe_kit.engine import (
    apply_step,
    draw_choices,
    init_state,
    potential,
    select_element,
)
from probe_kit.harness import run_policy
from probe_kit.instances import ProbingInstance, gen_bipartite_matching
from probe_kit.polytope import implied_vector_masks
from probe_kit.matroids import free_matroid, uniform_matroid
from probe_kit.objectives import LinearObjective, multilinear_exact
from probe_kit.relaxation import solve_relaxation
from probe_kit.seeding import spawn_rng
from conftest import draw_choices_loop, random_instance, simulate_value


def _single_element_instance(p=1.0, w=1.0):
    return ProbingInstance(
        n=1,
        p=[p],
        objective=LinearObjective([w]),
        inner=[],
        outer=[uniform_matroid(1, 1)],
    )


class TestSelection:
    def test_single_positive_coordinate(self):
        inst = random_instance(0, n=4)
        state = init_state(inst, [0.0, 0.7, 0.0, 0.0])
        for seed in range(5):
            assert select_element(state, random.Random(seed)) == 1

    def test_frequencies_match_weights(self):
        inst = ProbingInstance(
            n=2,
            p=[0.5, 0.5],
            objective=LinearObjective([1.0, 1.0]),
            inner=[],
            outer=[free_matroid(2)],
        )
        state = init_state(inst, [0.5, 0.5])
        rng = random.Random(42)
        draws = 100_000
        hits = sum(select_element(state, rng) == 0 for _ in range(draws))
        sigma = math.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) <= 4 * sigma

    def test_zeroed_coordinates_never_selected(self):
        inst = random_instance(1, n=4)
        state = init_state(inst, [0.0, 0.4, 0.0, 0.3])
        rng = random.Random(0)
        for _ in range(200):
            assert select_element(state, rng) in (1, 3)

    def test_exhausted_state_terminates(self):
        inst = random_instance(2, n=3)
        state = init_state(inst, [0.0, 0.0, 0.0])
        assert select_element(state, random.Random(0)) is None


    def test_table_draws_match_the_loop_reference(self):
        """Same choices, and the RNG left at the same point, on every state."""
        states = 0
        for seed in range(24):
            inst = random_instance(900 + seed, objective="coverage" if seed % 2 else "linear")
            x0 = solve_relaxation(inst, cg_steps=20).x0
            for trial in range(10):
                rng = spawn_rng(seed, "tables", trial)
                state = init_state(inst, x0)
                while True:
                    ref = random.Random()
                    ref.setstate(rng.getstate())
                    choices = draw_choices(state, rng)
                    expected = draw_choices_loop(state, ref)
                    assert (None if choices is None else tuple(choices)) == expected
                    assert rng.random() == ref.random()
                    states += 1
                    if choices is None:
                        break
                    state = apply_step(state, choices)
        assert states > 700


class TestStep:
    def test_certain_element_taken_in_one_step(self):
        inst = _single_element_instance(p=1.0)
        state = init_state(inst, [1.0])
        choices = draw_choices(state, random.Random(0))
        assert choices is not None and choices.active
        state = apply_step(state, choices)
        assert state.successes == frozenset({0})
        assert state.x == [0.0]
        assert draw_choices(state, random.Random(0)) is None

    def test_impossible_element_never_succeeds(self):
        inst = _single_element_instance(p=0.0)
        trace = run_policy(inst, [1.0], random.Random(0))
        assert len(trace) == 1
        assert not trace.steps[0].active
        assert trace.final_successes == frozenset()
        assert trace.final_probed == frozenset({0})

    def test_full_run_feasibility(self):
        for seed in range(40):
            inst = random_instance(500 + seed)
            sol = solve_relaxation(inst, cg_steps=40)
            trace = run_policy(inst, sol.x0, spawn_rng(seed, "feas"))
            for m in inst.inner:
                assert m.is_independent(trace.final_successes)
            for m in inst.outer:
                assert m.is_independent(trace.final_probed)


class TestRunPolicy:
    def test_zero_vector_runs_zero_steps(self):
        inst = random_instance(3, n=4)
        trace = run_policy(inst, [0.0] * 4, random.Random(0))
        assert len(trace) == 0
        assert trace.final_value == 0.0

    def test_step_count_bounded_by_ground_size(self):
        for seed in range(20):
            inst = random_instance(600 + seed)
            sol = solve_relaxation(inst, cg_steps=40)
            trace = run_policy(inst, sol.x0, spawn_rng(seed, "tau"))
            assert len(trace) <= inst.n

    def test_trace_determinism(self):
        inst = random_instance(4)
        sol = solve_relaxation(inst, cg_steps=40)
        t1 = run_policy(inst, sol.x0, spawn_rng(9, "det"))
        t2 = run_policy(inst, sol.x0, spawn_rng(9, "det"))
        assert t1.dumps() == t2.dumps()
        t3 = run_policy(inst, sol.x0, spawn_rng(10, "det"))
        # different stream: almost surely a different trace on a real instance
        assert len(t1.dumps()) > 2

    def test_simulate_value_matches_traced_run(self):
        inst = random_instance(5)
        sol = solve_relaxation(inst, cg_steps=40)
        for seed in range(10):
            v1 = simulate_value(inst, sol.x0, spawn_rng(seed, "sim"))
            t = run_policy(inst, sol.x0, spawn_rng(seed, "sim"))
            assert v1 == t.final_value

    def test_trace_json_shape(self):
        inst = random_instance(6, n=4)
        sol = solve_relaxation(inst, cg_steps=40)
        doc = run_policy(inst, sol.x0, spawn_rng(0, "json")).to_json()
        assert set(doc) == {"steps", "final_successes", "final_probed", "final_value"}
        for s in doc["steps"]:
            assert 0 <= s["element"] < inst.n
            assert 0.0 < s["selection_probability"] <= 1.0


class TestPotential:
    def test_terminal_state_zero(self):
        inst = random_instance(7, n=4)
        state = init_state(inst, [0.0] * 4)
        assert potential(state) == 0.0

    def test_initial_linear_matches_lp_objective(self):
        inst = random_instance(8, n=4, objective="linear")
        sol = solve_relaxation(inst)
        state = init_state(inst, sol.x0)
        assert potential(state) == pytest.approx(sol.objective_value, abs=1e-9)

    def test_initial_submodular_matches_multilinear(self):
        inst = random_instance(9, n=4, objective="coverage")
        sol = solve_relaxation(inst, cg_steps=60)
        state = init_state(inst, sol.x0)
        px = [inst.p[i] * sol.x0[i] for i in range(inst.n)]
        assert potential(state) == pytest.approx(
            multilinear_exact(inst.objective, px).value, abs=1e-9
        )

    def test_potential_is_computed_on_first_access_only(self, monkeypatch):
        inst = random_instance(11, objective="coverage")
        x0 = solve_relaxation(inst, cg_steps=30).x0
        calls = []

        def counting(state):
            calls.append(state)
            return potential(state)

        monkeypatch.setattr(probe_kit.engine, "potential", counting)
        simulate_value(inst, x0, spawn_rng(0, "lazy"))
        assert calls == []
        state = init_state(inst, x0)
        assert state.z == potential(state)
        assert state.z == potential(state)
        assert len(calls) == 1

    def test_potential_nonincreasing_in_expectation_linear(self):
        # not a per-path guarantee; check the recorded z never goes negative
        inst = random_instance(10, objective="linear")
        sol = solve_relaxation(inst)
        trace = run_policy(inst, sol.x0, spawn_rng(0, "z"))
        for s in trace.steps:
            assert s.z_after >= -1e-9


def _trim_cases():
    for seed in range(12):
        inst = random_instance(700 + seed, objective="coverage" if seed % 3 == 0 else "linear")
        yield inst, solve_relaxation(inst, cg_steps=30).x0
    for seed in range(2):
        rng = spawn_rng(seed, "trim-matching")
        inst = gen_bipartite_matching(3, 3, [2] * 3, [1] * 3, 0.9, rng)
        yield inst, solve_relaxation(inst).x0


def _assert_exact_decompositions(state):
    inst = state.inst
    px = [inst.p[i] * state.x[i] for i in range(inst.n)]
    for matroids, decompositions, vec in (
        (state.outer_m, state.outer_terms, state.x),
        (state.inner_m, state.inner_terms, px),
    ):
        for m, terms in zip(matroids, decompositions):
            assert all(m.indep_mask(mask) for _, mask in terms)
            assert all(w > 0.0 for w, _ in terms)
            assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-12
            implied = implied_vector_masks(terms, inst.n)
            assert max(abs(a - b) for a, b in zip(implied, vec)) <= 1e-9
            assert len(terms) <= inst.n + 1


class TestTrimmedDecompositions:
    def test_every_step_keeps_exact_decompositions(self):
        steps = 0
        for case, (inst, x0) in enumerate(_trim_cases()):
            for trial in range(15):
                rng = spawn_rng(case, "trim", trial)
                state = init_state(inst, x0)
                while (choices := draw_choices(state, rng)) is not None:
                    state = apply_step(state, choices)
                    _assert_exact_decompositions(state)
                    steps += 1
        assert steps > 300

    def test_apply_step_never_decomposes(self, monkeypatch):
        calls = []
        for module in (probe_kit.engine, probe_kit.polytope):
            decompose_masks = module.decompose_masks

            def counting(m, x, decompose_masks=decompose_masks):
                calls.append(m)
                return decompose_masks(m, x)

            monkeypatch.setattr(module, "decompose_masks", counting)
        for case, (inst, x0) in enumerate(_trim_cases()):
            state = init_state(inst, x0)
            assert len(calls) == len(inst.outer) + len(inst.inner)
            calls.clear()
            rng = spawn_rng(case, "no-peel")
            while (choices := draw_choices(state, rng)) is not None:
                state = apply_step(state, choices)
            assert state.q_mask  # at least one step was taken
            assert calls == []
