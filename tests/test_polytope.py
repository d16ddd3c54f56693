"""Polytope membership, convex decomposition, and guided support updates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probe_kit.matroids import (
    free_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from probe_kit.errors import InvariantViolation
from probe_kit.polytope import (
    _decompose_lp,
    decompose_masks,
    implied_vector_masks,
    in_polytope,
    support_update_masks,
)


class TestMembership:
    def test_uniform_budget_boundary(self):
        m = uniform_matroid(2, 1)
        assert in_polytope(m, [0.5, 0.5])
        assert not in_polytope(m, [0.6, 0.6])

    def test_zero_vector_always_inside(self):
        for m in (uniform_matroid(3, 1), free_matroid(2), partition_matroid(2, [[0], [1]], [1, 1])):
            assert in_polytope(m, [0.0] * m.ground_size)

    def test_negative_coordinate_rejected(self):
        assert not in_polytope(free_matroid(2), [-0.1, 0.5])

    def test_contracted_coordinate_must_be_zero(self):
        m = uniform_matroid(3, 2).contract(0)
        assert not in_polytope(m, [0.5, 0.2, 0.0])
        assert in_polytope(m, [0.0, 0.9, 0.1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            in_polytope(uniform_matroid(3, 1), [0.5, 0.5])


class TestDecompose:
    def test_split_point_on_rank_one(self):
        m = uniform_matroid(2, 1)
        terms = decompose_masks(m, [0.5, 0.5])
        assert {mask: w for w, mask in terms} == {0b01: 0.5, 0b10: 0.5}

    def test_integral_point_single_term(self):
        m = free_matroid(2)
        assert decompose_masks(m, [1.0, 1.0]) == [(1.0, 0b11)]

    def test_uniform_half_vector_round_trip(self):
        m = uniform_matroid(4, 2)
        x = [0.5, 0.5, 0.5, 0.5]
        terms = decompose_masks(m, x)
        rt = implied_vector_masks(terms, 4)
        assert max(abs(rt[i] - x[i]) for i in range(4)) <= 1e-9
        for _, mask in terms:
            assert m.indep_mask(mask)
        assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-9

    def test_point_outside_rejected(self):
        # the peel cannot finish, and the exact LP fallback finds no combination
        with pytest.raises(ValueError):
            decompose_masks(uniform_matroid(2, 1), [0.7, 0.7])

    def test_term_count_caratheodory_bound(self):
        rng = random.Random(11)
        m = partition_matroid(6, [[0, 1, 2], [3, 4, 5]], [2, 1])
        x = _random_point(m, rng)
        assert len(decompose_masks(m, x)) <= m.ground_size + 1

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_lp_fallback_wide_support(self, n):
        # the peel's exact fallback must cover supports as wide as the LP
        rng = random.Random(n)
        parts, caps = [list(range(0, n, 2)), list(range(1, n, 2))], [3, 2]
        m = partition_matroid(n, parts, caps)
        x = [0.0] * n
        for part, cap in zip(parts, caps):
            for i in part:
                x[i] = cap / len(part) * rng.uniform(0.5, 0.99)
        terms = _decompose_lp(m, x)
        rt = implied_vector_masks(terms, n)
        assert max(abs(rt[i] - x[i]) for i in range(n)) <= 1e-9
        assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-9
        assert all(m.indep_mask(mask) for _, mask in terms)

    def test_lp_fallback_rejects_support_above_cap(self):
        with pytest.raises(InvariantViolation):
            _decompose_lp(free_matroid(17), [0.5] * 17)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000))
    def test_round_trip_random_points(self, seed):
        rng = random.Random(seed)
        m = _random_matroid(rng)
        x = _random_point(m, rng)
        terms = decompose_masks(m, x)
        rt = implied_vector_masks(terms, m.ground_size)
        assert max(abs(rt[i] - x[i]) for i in range(m.ground_size)) <= 1e-9
        for _, mask in terms:
            assert m.indep_mask(mask)


class TestSupportUpdate:
    def test_rank_one_collapse(self):
        # probing a in U_{1,2} forces the other term {b} to empty:
        # phi(a)=b since {b}+a is dependent
        m = uniform_matroid(2, 1)
        terms = [(0.5, 0b01), (0.5, 0b10)]
        out = support_update_masks(m, terms, 0, 0)
        implied = implied_vector_masks(out, 2)
        assert implied == [0.0, 0.0]
        mc = m.contract(0)
        for _, mask in out:
            assert mc.indep_mask(mask)

    def test_terms_containing_probed_just_drop_it(self):
        m = uniform_matroid(3, 2)
        terms = [(0.6, 0b011), (0.4, 0b101)]
        out = support_update_masks(m, terms, 0, 0)
        assert out[0] == (0.6, 0b010)
        assert out[1] == (0.4, 0b100)

    def test_free_matroid_other_terms_untouched(self):
        m = free_matroid(3)
        terms = [(0.5, 0b001), (0.3, 0b010), (0.2, 0b110)]
        out = support_update_masks(m, terms, 0, 0)
        assert out[1] == (0.3, 0b010)
        assert out[2] == (0.2, 0b110)

    def test_guide_must_contain_probed(self):
        m = uniform_matroid(2, 1)
        terms = [(0.5, 0b01), (0.5, 0b10)]
        with pytest.raises(ValueError):
            support_update_masks(m, terms, 0, 1)

    def test_rank_one_update_of_a_decomposition_is_independent_after_contraction(self):
        m = uniform_matroid(2, 1)
        terms = decompose_masks(m, [0.5, 0.5])
        guide = next(i for i, (_, mask) in enumerate(terms) if mask & 0b01)
        out = support_update_masks(m, terms, 0, guide)
        mc = m.contract(0)
        assert mc.contracted == frozenset({0})
        assert all(mc.indep_mask(mask) for _, mask in out)
        assert implied_vector_masks(out, 2) == [0.0, 0.0]

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000))
    def test_random_updates_keep_terms_independent(self, seed):
        rng = random.Random(seed)
        m = _random_matroid(rng)
        x = _random_point(m, rng)
        terms = decompose_masks(m, x)
        candidates = [i for i, v in enumerate(x) if v > 1e-9]
        if not candidates:
            return
        e = rng.choice(candidates)
        guides = [i for i, (_, mask) in enumerate(terms) if mask >> e & 1]
        if not guides:
            return
        out = support_update_masks(m, terms, e, rng.choice(guides))
        mc = m.contract(e)
        implied = implied_vector_masks(out, m.ground_size)
        for _, mask in out:
            assert mc.indep_mask(mask)
        # coordinates never increase and the probed one reaches zero
        assert implied[e] <= 1e-12
        for i in range(m.ground_size):
            assert implied[i] <= x[i] + 1e-9


class TestImpliedVector:
    def test_single_full_term(self):
        assert implied_vector_masks([(1.0, 0b11)], 2) == [1.0, 1.0]

    def test_split_terms(self):
        assert implied_vector_masks([(0.5, 0b01), (0.5, 0b10)], 2) == [0.5, 0.5]

    def test_empty_terms_zero_vector(self):
        assert implied_vector_masks([(1.0, 0)], 3) == [0.0, 0.0, 0.0]


def _random_matroid(rng):
    kind = rng.choice(["uniform", "partition", "graphic", "free"])
    if kind == "uniform":
        n = rng.randint(2, 6)
        return uniform_matroid(n, rng.randint(1, n))
    if kind == "partition":
        n = rng.randint(2, 6)
        elems = list(range(n))
        rng.shuffle(elems)
        cut = rng.randint(1, n - 1)
        return partition_matroid(
            n, [sorted(elems[:cut]), sorted(elems[cut:])], [rng.randint(1, 2), rng.randint(1, 2)]
        )
    if kind == "graphic":
        nv = rng.randint(3, 4)
        edges = [tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(3, 6))]
        return graphic_matroid(nv, edges)
    return free_matroid(rng.randint(2, 6))


def _random_point(m, rng):
    """Random point of P(m): convex combination of independent sets plus shrink."""
    n = m.ground_size
    x = [0.0] * n
    w_left = 1.0
    for _ in range(rng.randint(1, 4)):
        order = list(range(n))
        rng.shuffle(order)
        b = m.max_independent_subset(order) & rng.getrandbits(n)
        w = rng.uniform(0, w_left)
        w_left -= w
        for i in range(n):
            if b >> i & 1:
                x[i] += w
    return [v * 0.999 for v in x]
