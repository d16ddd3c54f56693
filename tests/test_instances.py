"""Instance generators, serialization, and structural verification."""

import random

import pytest

from probe_kit.instances import (
    ProbingInstance,
    gen_bipartite_matching,
    gen_posted_pricing,
    gen_random,
    verify_instance,
)
from probe_kit.matroids import matroid_axiom_violations, uniform_matroid
from probe_kit.objectives import LinearObjective
from probe_kit.oracle import optimal_adaptive_value
from probe_kit.relaxation import solve_relaxation
from probe_kit.harness import run_policy
from probe_kit.seeding import spawn_rng


class TestBipartiteMatching:
    def test_full_patience_makes_outer_vacuous(self):
        rng = random.Random(0)
        inst = gen_bipartite_matching(3, 3, [9] * 3, [9] * 3, 0.8, rng)
        full = set(range(inst.n))
        for m in inst.outer:
            assert m.is_independent(full)

    def test_single_edge_graph_value(self):
        rng = random.Random(1)
        inst = gen_bipartite_matching(1, 1, [1], [1], 1.0, rng)
        assert inst.n == 1
        inst2 = ProbingInstance(
            n=1,
            p=[0.5],
            objective=LinearObjective([1.0]),
            inner=inst.inner,
            outer=inst.outer,
        )
        assert optimal_adaptive_value(inst2) == pytest.approx(0.5)

    def test_runs_yield_matchings(self):
        rng = random.Random(2)
        inst = gen_bipartite_matching(3, 3, [2] * 3, [2] * 3, 0.5, rng)
        if inst.n > 8:
            inst = gen_bipartite_matching(2, 2, [2] * 2, [2] * 2, 0.9, random.Random(5))
        sol = solve_relaxation(inst)
        edges = [tuple(e) for e in inst.metadata["edges"]]
        for seed in range(30):
            trace = run_policy(inst, sol.x0, spawn_rng(seed, "match"))
            chosen = [edges[i] for i in trace.final_successes]
            lefts = [u for u, _ in chosen]
            rights = [v for _, v in chosen]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)

    def test_patience_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_bipartite_matching(2, 2, [0, 1], [1, 1], 0.5, random.Random(0))


class TestPostedPricing:
    def test_tail_probabilities(self):
        # one agent, valuation uniform on {0,1}, prices {0,1}:
        # P[v >= 0] = 1, P[v >= 1] = 0.5
        inst = gen_posted_pricing(1, 1, uniform_matroid(1, 1), [[0.5, 0.5]])
        universe = [tuple(u) for u in inst.metadata["universe"]]
        p_by_offer = dict(zip(universe, inst.p))
        assert p_by_offer[(0, 0)] == pytest.approx(1.0)
        assert p_by_offer[(0, 1)] == pytest.approx(0.5)

    def test_one_offer_per_agent(self):
        inst = gen_posted_pricing(
            2, 1, uniform_matroid(2, 2), [[0.5, 0.5], [0.2, 0.8]]
        )
        universe = [tuple(u) for u in inst.metadata["universe"]]
        both_offers_to_agent0 = {
            j for j, (i, _) in enumerate(universe) if i == 0
        }
        for m in inst.outer:
            assert not m.is_independent(both_offers_to_agent0)

    def test_target_ratio_single_uniform_matroid(self):
        from probe_kit.harness import theoretical_ratio

        inst = gen_posted_pricing(2, 1, uniform_matroid(2, 1), [[0.5, 0.5]] * 2)
        assert inst.k_in == 1 and inst.k_out == 1
        assert theoretical_ratio(inst) == pytest.approx(0.5)

    def test_lifted_inner_respects_feasibility(self):
        inst = gen_posted_pricing(2, 1, uniform_matroid(2, 1), [[0.5, 0.5]] * 2)
        universe = [tuple(u) for u in inst.metadata["universe"]]
        offer_a = universe.index((0, 1))
        offer_b = universe.index((1, 1))
        assert not inst.inner[0].is_independent({offer_a, offer_b})
        assert inst.inner[0].is_independent({offer_a})

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError):
            gen_posted_pricing(1, 1, uniform_matroid(1, 1), [[0.5, 0.2]])


class TestGenRandom:
    def test_outer_required(self):
        with pytest.raises(ValueError):
            gen_random(4, 1, 0, "linear", random.Random(0))

    def test_no_inner_allowed(self):
        inst = gen_random(4, 0, 1, "linear", random.Random(0))
        assert inst.k_in == 0

    def test_generated_matroids_pass_axiom_checks(self):
        for seed in range(10):
            inst = gen_random(5, 2, 2, "linear", random.Random(seed))
            for m in inst.inner + inst.outer:
                assert matroid_axiom_violations(m) == []

    def test_seed_reproducibility(self):
        a = gen_random(5, 1, 1, "coverage", random.Random(77))
        b = gen_random(5, 1, 1, "coverage", random.Random(77))
        assert a.to_json() == b.to_json()

    def test_verify_generated_instances(self):
        for seed in range(5):
            inst = gen_random(5, 1, 1, "weighted_matroid_rank", random.Random(seed))
            assert verify_instance(inst) == []


class TestSerialization:
    def test_round_trip(self, tmp_path):
        inst = gen_random(5, 1, 2, "coverage", random.Random(0))
        path = tmp_path / "inst.json"
        inst.save(path)
        loaded = ProbingInstance.load(path)
        assert loaded.to_json() == inst.to_json()
        for mask in range(1 << inst.n):
            assert loaded.objective.value_mask(mask) == inst.objective.value_mask(mask)

    def test_schema_rejects_missing_outer(self):
        inst = gen_random(4, 1, 1, "linear", random.Random(0))
        doc = inst.to_json()
        doc["outer"] = []
        with pytest.raises(ValueError):
            ProbingInstance.from_json(doc)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ProbingInstance(
                n=1,
                p=[1.5],
                objective=LinearObjective([1.0]),
                inner=[],
                outer=[uniform_matroid(1, 1)],
            )
