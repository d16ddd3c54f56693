"""The rounding policy engine: selection, stepping, traces, invariants."""

import math
import random

import pytest

import probe_kit.engine
import probe_kit.polytope
from probe_kit.engine import (
    COORD_EPS,
    apply_step,
    draw_choices,
    init_state,
    outcomes,
    potential,
    select_element,
    support_updates,
)
from probe_kit.errors import InvariantViolation
from probe_kit.harness import run_policy
from probe_kit.instances import ProbingInstance, gen_bipartite_matching
from probe_kit.polytope import implied_vector_masks
from probe_kit.matroids import free_matroid, uniform_matroid
from probe_kit.objectives import linear_objective
from probe_kit.relaxation import solve_relaxation
from probe_kit.seeding import spawn_rng
from conftest import (
    certified_step,
    draw_choices_loop,
    mid_run_states,
    multilinear,
    random_instance,
    simulate_value,
)


def _single_element_instance(p=1.0, w=1.0, k_in=0):
    return ProbingInstance(
        n=1,
        p=[p],
        objective=linear_objective([w]),
        inner=[uniform_matroid(1, 1)] * k_in,
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
            objective=linear_objective([1.0, 1.0]),
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
        """Same draws, and the RNG left at the same point, on every state."""
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
                    draw = draw_choices(state, rng)
                    assert draw == draw_choices_loop(state, ref)
                    assert rng.random() == ref.random()
                    states += 1
                    if draw is None:
                        break
                    state = certified_step(state, draw)
        assert states > 700


class TestStep:
    def test_certain_element_taken_in_one_step(self):
        inst = _single_element_instance(p=1.0)
        state = init_state(inst, [1.0])
        draw = draw_choices(state, random.Random(0))
        assert draw == (0, True, 0)  # element 0, active, outer guide term 0
        state = certified_step(state, draw)
        assert state.successes == frozenset({0})
        assert state.x == [0.0]
        assert draw_choices(state, random.Random(0)) is None

    def test_impossible_element_never_succeeds(self):
        inst = _single_element_instance(p=0.0, k_in=2)
        trace = run_policy(inst, [1.0], random.Random(0))
        assert len(trace) == 1
        assert not trace.steps[0].active
        # an inactive probe draws no inner guide; its record has one None each
        assert trace.steps[0].inner_guides == (None,) * inst.k_in
        assert trace.to_json()["steps"][0]["inner_guides"] == [None, None]
        assert '"inner_guides": [null, null]' in trace.dumps()
        assert trace.final_successes == frozenset()
        assert trace.final_probed == frozenset({0})

    def test_bad_draw_is_an_invariant_violation(self):
        """A draw with a guide missing or extra for its probe outcome is
        refused, never truncated to the matroids it reaches, and so is one
        that probes an element with x_e = 0."""
        inst = random_instance(5, n=7, k_in=1, k_out=2)
        state = init_state(inst, solve_relaxation(inst).x0)
        e = state.element_table[0][0]
        zero = state.x.index(0.0)  # the relaxation vertex leaves a coordinate at 0
        outer, inner = state.guide_tables(e)
        guides = tuple(table[0][0] for table in outer)
        inner_guide = inner[0][0][0] if inner[0] is not None else None
        shape = "one guide per matroid"
        for draw, message in (
            ((e, False) + guides[:1], shape),
            ((e, False) + guides + (inner_guide,), shape),  # an inactive probe has none
            ((e, True) + guides, shape),
            ((e, True) + guides[:1] + (inner_guide,), shape),
            ((zero, False) + guides, "zero fractional value"),
        ):
            for step in (support_updates, apply_step):
                with pytest.raises(InvariantViolation, match=message):
                    step(state, draw)
        # well-formed draws of both outcomes step
        support_updates(state, (e, False) + guides)
        support_updates(state, (e, True) + guides + (inner_guide,))

    def test_non_finite_x0_rejected(self):
        inst = random_instance(3, n=4)
        for x0 in ([math.nan] * 4, [0.2, math.nan, 0.1, 0.0]):
            with pytest.raises(ValueError, match="non-finite coordinate"):
                init_state(inst, x0)

    def test_nan_term_weight_is_an_invariant_violation(self):
        inst = ProbingInstance(
            n=2,
            p=[0.5, 0.5],
            objective=linear_objective([1.0, 1.0]),
            inner=[],
            outer=[uniform_matroid(2, 1)],
        )
        state = init_state(inst, [0.5, 0.5])
        assert sorted(state.outer_terms[0]) == [(0.5, 0b01), (0.5, 0b10)]
        # only coordinate 1 of the implied vector is NaN, so a `max` of the
        # differences would read 0
        state.outer_terms[0] = [(0.5, 0b01), (math.nan, 0b10)]
        with pytest.raises(InvariantViolation, match="does not match master vector"):
            probe_kit.engine._assert_state_feasible(state)

    def test_full_run_feasibility(self):
        for seed in range(40):
            inst = random_instance(500 + seed)
            sol = solve_relaxation(inst, cg_steps=40)
            trace = run_policy(inst, sol.x0, spawn_rng(seed, "feas"))
            for m in inst.inner:
                assert m.is_independent(trace.final_successes)
            for m in inst.outer:
                assert m.is_independent(trace.final_probed)


class TestOutcomes:
    def test_every_draw_is_an_outcome(self):
        for si, state in enumerate(mid_run_states(20, 505)):
            keys = {draw for _, draw in outcomes(state)}
            rng = spawn_rng(si, "outcomes")
            for _ in range(2000):
                assert draw_choices(state, rng) in keys

    def test_probabilities_follow_the_term_weights(self):
        # x_e/Sigma, times p_e or 1-p_e, times w_a / sum of w_b over the
        # terms b holding e, for each matroid's guide a
        for state in mid_run_states(20, 505):
            p = state.inst.p
            total = 0.0
            k = 2 + state.inst.k_out
            for prob, draw in outcomes(state):
                e, active, outer, inner = draw[0], draw[1], draw[2:k], draw[k:]
                assert inner == () or active  # an inactive probe draws no inner guide
                expected = state.x[e] / state.sigma * (p[e] if active else 1.0 - p[e])
                guided = list(zip(state.outer_terms, outer))
                if active:
                    guided += [(t, a) for t, a in zip(state.inner_terms, inner) if a is not None]
                for terms, a in guided:
                    expected *= terms[a][0] / sum(w for w, mask in terms if mask >> e & 1)
                assert abs(prob - expected) <= 1e-12
                total += prob
            assert abs(total - 1.0) <= 1e-12

    def test_terminal_state_has_no_outcomes(self):
        state = init_state(random_instance(2, n=3), [0.0, 0.0, 0.0])
        assert list(outcomes(state)) == []


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
            multilinear(inst.objective, px), abs=1e-9
        )

    def test_root_potential_is_the_relaxation_value(self):
        # z(root) = F(p * x0), bit for bit, when init_state zeroes no coordinate
        checked = 0
        for seed in range(40):
            objective = ("coverage", "weighted_matroid_rank")[seed % 2]
            inst = random_instance(600 + seed, objective=objective)
            sol = solve_relaxation(inst, cg_steps=30)
            if any(0.0 < v <= COORD_EPS for v in sol.x0):
                continue
            assert potential(init_state(inst, sol.x0)) == sol.objective_value
            checked += 1
        assert checked >= 30

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
    # as wide as a matching-wide slot: 4x4, patience 2, |E| >= 12
    rng = spawn_rng(0, "trim-matching-wide")
    inst = gen_bipartite_matching(4, 4, [2] * 4, [2] * 4, 0.9, rng)
    assert inst.n >= 12
    yield inst, solve_relaxation(inst).x0


def _assert_exact_decompositions(state):
    inst = state.inst
    px = [inst.p[i] * state.x[i] for i in range(inst.n)]
    for matroids, contracted, decompositions, vec in (
        (inst.outer, state.q_mask, state.outer_terms, state.x),
        (inst.inner, state.s_mask, state.inner_terms, px),
    ):
        for m, terms in zip(matroids, decompositions):
            # each term is independent in m contracted by the state's mask
            assert all(not mask & contracted for _, mask in terms)
            assert all(m.indep_mask(mask | contracted) for _, mask in terms)
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
                while (draw := draw_choices(state, rng)) is not None:
                    state = certified_step(state, draw)
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
            while (draw := draw_choices(state, rng)) is not None:
                state = certified_step(state, draw)
            assert state.q_mask  # at least one step was taken
            assert calls == []
