"""Objectives, multilinear extension, derivatives, and the f+ relaxation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probe_kit.errors import CapabilityError
from probe_kit.matroids import (
    explicit_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from probe_kit.objectives import (
    Objective,
    coverage_objective,
    linear_objective,
    multilinear_value_from_table,
    objective_structure_violations,
    weighted_rank_objective,
)
from conftest import (
    f_plus_bruteforce,
    multilinear,
    multilinear_sample,
    objective_structure_violations_loop,
    objective_value_loop,
    partial_derivative,
)


class TestSetValues:
    def test_linear_sum(self):
        f = linear_objective([1.0, 2.0])
        assert f.value({0, 1}) == 3.0

    def test_coverage_union(self):
        # both elements cover the same unit-weight item
        f = coverage_objective([[0], [0]], [1.0])
        assert f.value({0, 1}) == 1.0
        assert f.value({0}) == 1.0

    def test_empty_set_is_zero(self):
        objectives = [
            linear_objective([1.0, 2.0]),
            coverage_objective([[0], [1]], [1.0, 3.0]),
            weighted_rank_objective(uniform_matroid(2, 1), [1.0, 2.0]),
        ]
        for f in objectives:
            assert f.value(set()) == 0.0

    def test_weighted_rank_takes_best_basis(self):
        f = weighted_rank_objective(uniform_matroid(3, 1), [1.0, 5.0, 2.0])
        assert f.value({0, 1, 2}) == 5.0

    def test_structure_checks_pass(self):
        for f in (
            linear_objective([0.5, 1.5, 1.0]),
            coverage_objective([[0], [0, 1], [1]], [1.0, 2.0]),
            weighted_rank_objective(uniform_matroid(3, 2), [1.0, 2.0, 3.0]),
        ):
            assert objective_structure_violations(f) == []

    def test_table_check_agrees_with_the_pair_walk(self):
        # all three kinds, the weighted rank ones also over non-matroid
        # families, and 40% of the tables moved at a few masks by 1e-3 to 0.5
        # of their largest value, so that no case sits at the tolerance
        rng = random.Random(23)
        verdicts = []
        for i in range(150):
            n = rng.randint(1, 8)
            kind = i % 3
            if kind == 0:
                f = linear_objective([rng.uniform(0.0, 2.0) for _ in range(n)])
            elif kind == 1:
                covers = [rng.sample(range(n + 2), rng.randint(1, 3)) for _ in range(n)]
                f = coverage_objective(covers, [rng.uniform(0.1, 2.0) for _ in range(n + 2)])
            else:
                sets = [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(3)]
                f = weighted_rank_objective(
                    explicit_matroid(n, sets + [[]]), [rng.uniform(0.1, 2.0) for _ in range(n)]
                )
            if rng.random() < 0.4:
                table = list(f.value_table())
                scale = max(1.0, max(table))
                for mask in rng.sample(range(1 << n), rng.randint(1, min(3, 1 << n))):
                    table[mask] += rng.choice([-1, 1]) * rng.uniform(1e-3, 0.5) * scale
                f = Objective(f.to_json(), table)
            ok = not objective_structure_violations_loop(f)
            assert ok == (not objective_structure_violations(f)), (f.to_json(), f.value_table())
            verdicts.append(ok)
        assert 30 <= sum(verdicts) <= 120

    def test_tolerance_is_tight_at_unit_scale(self):
        # a pair off by 1e-10 passed the old fixed 1e-9 on pairs of sets
        table = list(linear_objective([0.5, 0.25, 0.25]).value_table())
        table[0b111] += 1e-10
        problems = objective_structure_violations(Objective({"kind": "linear"}, table))
        assert problems and all(p.startswith("submodularity fails") for p in problems)

    def test_serialization_round_trip(self):
        for f in (
            linear_objective([0.5, 1.5]),
            coverage_objective([[0], [1]], [1.0, 2.0]),
            weighted_rank_objective(uniform_matroid(2, 1), [1.0, 2.0]),
        ):
            g = Objective.from_json(f.to_json())
            for mask in range(1 << f.n):
                assert g.value_mask(mask) == f.value_mask(mask)


def _random_weights(rng, n):
    # a few digits, so sums round; drawn from few values, so the greedy meets ties
    return [
        round(rng.choice([0.0, 0.3, 1.1, rng.uniform(0.0, 2.0)]), rng.randint(1, 6))
        for _ in range(n)
    ]


def _random_matroid(rng, n):
    kind = rng.choice(["uniform", "partition", "graphic", "explicit"])
    if kind == "uniform":
        m = uniform_matroid(n, rng.randint(0, n))
    elif kind == "partition":
        parts = [list(range(0, n, 2)), list(range(1, n, 2))]
        m = partition_matroid(n, parts, [rng.randint(0, 3), rng.randint(0, 3)])
    elif kind == "graphic":  # self-loops and parallel edges included
        nv = rng.randint(1, 5)
        m = graphic_matroid(nv, [(rng.randrange(nv), rng.randrange(nv)) for _ in range(n)])
    else:
        sets = [[e for e in range(n) if rng.random() < 0.4] for _ in range(rng.randint(0, 6))]
        m = explicit_matroid(n, [[]] + sets)
    free = [e for e in range(n) if m.indep_mask(1 << e)]
    if free and rng.random() < 0.3:
        m = m.contract(rng.choice(free))
    return m


def _random_objective(rng, n, kind):
    if kind == "linear":
        return linear_objective(_random_weights(rng, n))
    if kind == "coverage":
        n_items = rng.randint(1, n + 2)
        covers = [rng.sample(range(n_items), rng.randint(0, min(3, n_items))) for _ in range(n)]
        return coverage_objective(covers, _random_weights(rng, n_items))
    return weighted_rank_objective(_random_matroid(rng, n), _random_weights(rng, n))


KINDS = ["linear", "coverage", "weighted_matroid_rank"]


class TestValueTable:
    """Each constructor's table against the per-kind formulas in conftest, bit for bit."""

    @staticmethod
    def _assert_table(f):
        table = f.value_table()
        assert len(table) == 1 << f.n
        assert table.dtype == np.float64 and not table.flags.writeable
        expected = objective_value_loop(f.to_json())
        assert [v.hex() for v in table] == [float(v).hex() for v in expected]

    @pytest.mark.parametrize("kind", KINDS)
    def test_random(self, kind):
        rng = random.Random(f"value-table-{kind}")
        for n in list(range(13)) * 3:
            f = _random_objective(rng, n, kind)
            self._assert_table(f)
            assert np.array_equal(Objective.from_json(f.to_json()).value_table(), f.value_table())

    def test_weighted_rank_over_contracted_matroid(self):
        m = graphic_matroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (0, 1)]).contract(0)
        f = weighted_rank_objective(m, [1.0, 2.5, 2.5, 0.7, 3.0, 1.9])
        assert f.to_json()["matroid"]["contracted"] == [0]
        self._assert_table(f)

    def test_contracted_element_has_no_weight(self):
        # U(2,1)/0 has rank 0, so neither element adds weight
        m = uniform_matroid(2, 1).contract(0)
        assert weighted_rank_objective(m, [5.0, 1.0]).value_table().tolist() == [0.0] * 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_at_cap(self, kind):
        self._assert_table(_random_objective(random.Random(f"cap-{kind}"), 16, kind))


def _F(f, y):
    return multilinear_value_from_table(f.value_table(), y)


class TestMultilinearExact:
    def test_extension_property_on_indicators(self):
        f = coverage_objective([[0], [0, 1], [1]], [1.0, 2.0])
        for mask in range(1 << f.n):
            y = [1.0 if mask >> i & 1 else 0.0 for i in range(f.n)]
            assert _F(f, y) == pytest.approx(f.value_mask(mask), abs=1e-12)

    def test_linear_is_expectation(self):
        f = linear_objective([1.0, 2.0])
        assert _F(f, [0.5, 0.5]) == pytest.approx(1.5)

    def test_coverage_of_shared_item(self):
        # f(S) = min(|S|, 1): F(0.5, 0.5) = 0.25*0 + 0.5*1 + 0.25*1
        f = coverage_objective([[0], [0]], [1.0])
        assert _F(f, [0.5, 0.5]) == pytest.approx(0.75)

    def test_above_ground_cap_rejected(self):
        # no objective above the ground cap is built, so none lacks a table
        with pytest.raises(CapabilityError, match="ground set of 17 elements"):
            linear_objective([1.0] * 17)

    def test_argument_outside_cube_rejected(self):
        f = linear_objective([1.0])
        for y in ([1.5], [-1e-9], [float("nan")]):
            with pytest.raises(ValueError, match="unit cube"):
                _F(f, y)

    def test_cube_tolerance_is_clipped(self):
        f = linear_objective([2.0])
        assert _F(f, [1 + 1e-13]) == 2.0
        assert _F(f, [-1e-13]) == 0.0

    @pytest.mark.parametrize("y", [[0.5], [0.5, 0.5, 0.5], []])
    def test_length_mismatch_rejected(self, y):
        f = linear_objective([1.0, 2.0])
        with pytest.raises(ValueError, match="dimension"):
            _F(f, y)


class TestMultilinearSample:
    def test_indicator_is_deterministic(self):
        f = coverage_objective([[0], [1]], [1.0, 2.0])
        for seed in range(3):
            got = multilinear_sample(f, [1.0, 0.0], 50, random.Random(seed))
            assert got.value == f.value({0})
            assert got.stderr == 0.0

    def test_zero_point(self):
        f = linear_objective([1.0, 1.0])
        assert multilinear_sample(f, [0.0, 0.0], 10, random.Random(0)).value == 0.0

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_agreement_with_exact(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        f = coverage_objective(
            [[rng.randrange(3)] for _ in range(n)], [rng.uniform(0.5, 2.0) for _ in range(3)]
        )
        y = [rng.random() for _ in range(n)]
        exact = multilinear(f, y)
        got = multilinear_sample(f, y, 4000, rng)
        slack = 4 * got.stderr + 1e-9
        assert abs(got.value - exact) <= slack


class TestPartialDerivative:
    def test_linear_gradient_is_weight(self):
        f = linear_objective([1.0, 3.0])
        for y in ([0.0, 0.0], [0.5, 0.2], [1.0, 1.0]):
            assert partial_derivative(f, y, 1) == pytest.approx(3.0)

    def test_marginal_at_indicator(self):
        f = coverage_objective([[0], [0], [1]], [1.0, 2.0])
        y = [1.0, 0.0, 0.0]
        assert partial_derivative(f, y, 1) == pytest.approx(f.value({0, 1}) - f.value({0}))

    def test_finite_difference_exact_by_multilinearity(self):
        f = coverage_objective([[0], [0, 1]], [1.0, 2.0])
        y = [0.3, 0.4]
        for h in (0.1, 0.5):
            hi = [y[0], y[1] + h]
            fd = (_F(f, hi) - _F(f, y)) / h
            assert fd == pytest.approx(partial_derivative(f, y, 1), abs=1e-12)


class TestFPlus:
    def test_indicator_point(self):
        f = coverage_objective([[0], [0]], [1.0])
        assert f_plus_bruteforce(f, [1.0, 1.0]) == pytest.approx(f.value({0, 1}))

    def test_zero_point(self):
        f = linear_objective([1.0, 2.0])
        assert f_plus_bruteforce(f, [0.0, 0.0]) == pytest.approx(0.0)

    def test_dominates_multilinear(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 4)
            f = coverage_objective(
                [[rng.randrange(2)] for _ in range(n)], [rng.uniform(0.5, 2.0) for _ in range(2)]
            )
            y = [rng.random() for _ in range(n)]
            assert f_plus_bruteforce(f, y) >= multilinear(f, y) - 1e-9

    def test_linear_objective_collapses_to_expectation(self):
        f = linear_objective([1.0, 2.0])
        y = [0.3, 0.6]
        assert f_plus_bruteforce(f, y) == pytest.approx(0.3 + 1.2)

    def test_size_cap(self):
        f = linear_objective([1.0] * 11)
        with pytest.raises(CapabilityError):
            f_plus_bruteforce(f, [0.5] * 11)
