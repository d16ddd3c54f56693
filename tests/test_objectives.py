"""Objectives, multilinear extension, derivatives, and the f+ relaxation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probe_kit.errors import CapabilityError
from probe_kit.matroids import uniform_matroid
from probe_kit.objectives import (
    CoverageObjective,
    LinearObjective,
    Objective,
    WeightedRankObjective,
    multilinear_exact,
    objective_structure_violations,
)
from conftest import f_plus_bruteforce, multilinear_sample, partial_derivative


class TestSetValues:
    def test_linear_sum(self):
        f = LinearObjective([1.0, 2.0])
        assert f.value({0, 1}) == 3.0

    def test_coverage_union(self):
        # both elements cover the same unit-weight item
        f = CoverageObjective([[0], [0]], [1.0])
        assert f.value({0, 1}) == 1.0
        assert f.value({0}) == 1.0

    def test_empty_set_is_zero(self):
        objectives = [
            LinearObjective([1.0, 2.0]),
            CoverageObjective([[0], [1]], [1.0, 3.0]),
            WeightedRankObjective(uniform_matroid(2, 1), [1.0, 2.0]),
        ]
        for f in objectives:
            assert f.value(set()) == 0.0

    def test_weighted_rank_takes_best_basis(self):
        f = WeightedRankObjective(uniform_matroid(3, 1), [1.0, 5.0, 2.0])
        assert f.value({0, 1, 2}) == 5.0

    def test_structure_checks_pass(self):
        for f in (
            LinearObjective([0.5, 1.5, 1.0]),
            CoverageObjective([[0], [0, 1], [1]], [1.0, 2.0]),
            WeightedRankObjective(uniform_matroid(3, 2), [1.0, 2.0, 3.0]),
        ):
            assert objective_structure_violations(f) == []

    def test_serialization_round_trip(self):
        for f in (
            LinearObjective([0.5, 1.5]),
            CoverageObjective([[0], [1]], [1.0, 2.0]),
            WeightedRankObjective(uniform_matroid(2, 1), [1.0, 2.0]),
        ):
            g = Objective.from_json(f.to_json())
            for mask in range(1 << f.n):
                assert g.value_mask(mask) == f.value_mask(mask)


class TestMultilinearExact:
    def test_extension_property_on_indicators(self):
        f = CoverageObjective([[0], [0, 1], [1]], [1.0, 2.0])
        for mask in range(1 << f.n):
            y = [1.0 if mask >> i & 1 else 0.0 for i in range(f.n)]
            assert multilinear_exact(f, y).value == pytest.approx(f.value_mask(mask), abs=1e-12)

    def test_linear_is_expectation(self):
        f = LinearObjective([1.0, 2.0])
        assert multilinear_exact(f, [0.5, 0.5]).value == pytest.approx(1.5)

    def test_coverage_of_shared_item(self):
        # f(S) = min(|S|, 1): F(0.5, 0.5) = 0.25*0 + 0.5*1 + 0.25*1
        f = CoverageObjective([[0], [0]], [1.0])
        assert multilinear_exact(f, [0.5, 0.5]).value == pytest.approx(0.75)

    def test_above_ground_cap_rejected(self):
        f = LinearObjective([1.0] * 17)
        with pytest.raises(CapabilityError, match="ground set of 17 elements"):
            multilinear_exact(f, [0.5] * 17)
        with pytest.raises(CapabilityError, match="ground set of 17 elements"):
            f.value_table()

    def test_argument_outside_cube_rejected(self):
        f = LinearObjective([1.0])
        with pytest.raises(ValueError):
            multilinear_exact(f, [1.5])


class TestMultilinearSample:
    def test_indicator_is_deterministic(self):
        f = CoverageObjective([[0], [1]], [1.0, 2.0])
        for seed in range(3):
            got = multilinear_sample(f, [1.0, 0.0], 50, random.Random(seed))
            assert got.value == f.value({0})
            assert got.stderr == 0.0

    def test_zero_point(self):
        f = LinearObjective([1.0, 1.0])
        assert multilinear_sample(f, [0.0, 0.0], 10, random.Random(0)).value == 0.0

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_agreement_with_exact(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = CoverageObjective(
            [[rng.randrange(3)] for _ in range(n)], [rng.uniform(0.5, 2.0) for _ in range(3)]
        )
        y = [rng.random() for _ in range(n)]
        exact = multilinear_exact(f, y).value
        got = multilinear_sample(f, y, 4000, rng)
        slack = 4 * got.stderr + 1e-9
        assert abs(got.value - exact) <= slack


class TestPartialDerivative:
    def test_linear_gradient_is_weight(self):
        f = LinearObjective([1.0, 3.0])
        for y in ([0.0, 0.0], [0.5, 0.2], [1.0, 1.0]):
            assert partial_derivative(f, y, 1) == pytest.approx(3.0)

    def test_marginal_at_indicator(self):
        f = CoverageObjective([[0], [0], [1]], [1.0, 2.0])
        y = [1.0, 0.0, 0.0]
        assert partial_derivative(f, y, 1) == pytest.approx(f.value({0, 1}) - f.value({0}))

    def test_finite_difference_exact_by_multilinearity(self):
        f = CoverageObjective([[0], [0, 1]], [1.0, 2.0])
        y = [0.3, 0.4]
        for h in (0.1, 0.5):
            hi = [y[0], y[1] + h]
            fd = (multilinear_exact(f, hi).value - multilinear_exact(f, y).value) / h
            assert fd == pytest.approx(partial_derivative(f, y, 1), abs=1e-12)


class TestFPlus:
    def test_indicator_point(self):
        f = CoverageObjective([[0], [0]], [1.0])
        assert f_plus_bruteforce(f, [1.0, 1.0]) == pytest.approx(f.value({0, 1}))

    def test_zero_point(self):
        f = LinearObjective([1.0, 2.0])
        assert f_plus_bruteforce(f, [0.0, 0.0]) == pytest.approx(0.0)

    def test_dominates_multilinear(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 4)
            f = CoverageObjective(
                [[rng.randrange(2)] for _ in range(n)], [rng.uniform(0.5, 2.0) for _ in range(2)]
            )
            y = [rng.random() for _ in range(n)]
            assert f_plus_bruteforce(f, y) >= multilinear_exact(f, y).value - 1e-9

    def test_linear_objective_collapses_to_expectation(self):
        f = LinearObjective([1.0, 2.0])
        y = [0.3, 0.6]
        assert f_plus_bruteforce(f, y) == pytest.approx(0.3 + 1.2)

    def test_size_cap(self):
        f = LinearObjective([1.0] * 11)
        with pytest.raises(CapabilityError):
            f_plus_bruteforce(f, [0.5] * 11)
