"""Exact adaptive-policy oracles: DP value and policy-tree evaluation."""

import itertools
import random

import pytest

from probe_kit.errors import CapabilityError
from probe_kit.instances import ProbingInstance, gen_bipartite_matching
from probe_kit.matroids import free_matroid, partition_matroid, uniform_matroid
from probe_kit.objectives import linear_objective
from probe_kit.oracle import optimal_adaptive_value
from probe_kit.seeding import spawn_rng
from conftest import (
    optimal_policy_tree,
    policy_value_exact,
    random_instance,
    reference_adaptive_value,
)


def _linear_instance(p, w, inner, outer):
    n = len(p)
    return ProbingInstance(
        n=n, p=list(p), objective=linear_objective(list(w)), inner=inner, outer=outer
    )


class TestAdaptiveValue:
    def test_single_element(self):
        inst = _linear_instance([0.5], [2.0], [], [uniform_matroid(1, 1)])
        assert optimal_adaptive_value(inst) == pytest.approx(1.0)

    def test_contracted_outer_element_is_never_probed(self):
        # U(3,2)/0 is the partition [[0], [1, 2]] with capacities [0, 1]: the
        # contracted element is a loop, so only one of 1 and 2 can be probed
        contracted = _linear_instance(
            [0.5] * 3, [3.0, 1.0, 1.0], [], [uniform_matroid(3, 2).contract(0)]
        )
        twin = _linear_instance(
            [0.5] * 3, [3.0, 1.0, 1.0], [], [partition_matroid(3, [[0], [1, 2]], [0, 1])]
        )
        assert optimal_adaptive_value(contracted) == optimal_adaptive_value(twin) == 0.5

    def test_probe_until_first_success(self):
        # inner rank 1 stops after a success; probing both when the first
        # fails gives 1 - 0.25
        inst = _linear_instance(
            [0.5, 0.5], [1.0, 1.0], [uniform_matroid(2, 1)], [free_matroid(2)]
        )
        assert optimal_adaptive_value(inst) == pytest.approx(0.75)

    def test_deterministic_instance_reduces_to_best_common_set(self):
        for seed in range(8):
            rng = random.Random(seed)
            inst = random_instance(700 + seed, n=rng.randint(3, 5))
            det = ProbingInstance(
                n=inst.n,
                p=[1.0] * inst.n,
                objective=inst.objective,
                inner=inst.inner,
                outer=inst.outer,
            )
            best = 0.0
            for r in range(inst.n + 1):
                for combo in itertools.combinations(range(inst.n), r):
                    s = set(combo)
                    if all(m.is_independent(s) for m in inst.inner) and all(
                        m.is_independent(s) for m in inst.outer
                    ):
                        best = max(best, inst.objective.value(s))
            assert optimal_adaptive_value(det) == pytest.approx(best)

    def test_probing_commitment_limits_value(self):
        # with p=1 everywhere and inner rank 1, only one element may ever be
        # probed, so the oracle takes the single best weight
        inst = _linear_instance(
            [1.0, 1.0], [1.0, 3.0], [uniform_matroid(2, 1)], [free_matroid(2)]
        )
        assert optimal_adaptive_value(inst) == pytest.approx(3.0)

    def test_size_cap(self):
        inst = _linear_instance(
            [0.5] * 13, [1.0] * 13, [], [uniform_matroid(13, 2)]
        )
        with pytest.raises(CapabilityError):
            optimal_adaptive_value(inst)


class TestMatchesReference:
    """The extension-mask DP gives the per-state independence-call DP's value
    exactly: same candidates, same order, same arithmetic."""

    @pytest.mark.parametrize("objective", ["linear", "coverage"])
    def test_random_instances(self, objective):
        for seed in range(32):
            rng = random.Random(seed)
            inst = random_instance(
                900 + seed, n=rng.randint(3, 8), k_in=rng.randint(0, 2),
                k_out=rng.randint(1, 2), objective=objective,
            )
            assert optimal_adaptive_value(inst) == reference_adaptive_value(inst)

    def test_twelve_edge_matching(self):
        rng = spawn_rng(5, "oracle-test")
        inst = gen_bipartite_matching(4, 4, [2] * 4, [2] * 4, 0.75, rng)
        assert inst.n == 12
        assert optimal_adaptive_value(inst) == reference_adaptive_value(inst)


class TestPolicyTree:
    def test_empty_tree_value(self):
        inst = _linear_instance([0.5], [1.0], [], [uniform_matroid(1, 1)])
        assert policy_value_exact(inst, None) == 0.0

    def test_single_probe_tree(self):
        inst = _linear_instance([0.3], [1.0], [], [uniform_matroid(1, 1)])
        tree = (0, None, None)
        assert policy_value_exact(inst, tree) == pytest.approx(0.3)

    def test_recovered_tree_matches_dp_value(self):
        for seed in range(10):
            inst = random_instance(800 + seed, n=random.Random(seed).randint(3, 5))
            tree = optimal_policy_tree(inst)
            assert policy_value_exact(inst, tree) == pytest.approx(
                optimal_adaptive_value(inst), abs=1e-12
            )

    def test_submodular_objective_supported(self):
        inst = random_instance(12, n=4, objective="coverage")
        tree = optimal_policy_tree(inst)
        assert policy_value_exact(inst, tree) == pytest.approx(
            optimal_adaptive_value(inst), abs=1e-12
        )
