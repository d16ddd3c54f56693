"""Polytope membership, convex decomposition, and guided support updates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probe_kit.polytope
from probe_kit.matroids import (
    bits,
    free_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from probe_kit.errors import CapabilityError
from probe_kit.instances import ProbingInstance
from probe_kit.instances import _random_matroid as _random_instance_matroid
from probe_kit.objectives import linear_objective
from probe_kit.polytope import (
    EPS,
    _decompose_lp,
    _fit,
    _max_violation,
    _subset_sums,
    decompose_masks,
    implied_vector_masks,
    in_polytope,
    support_update_masks,
    trim_masks,
    within,
)
from probe_kit.relaxation import relaxation_feasible
from conftest import (
    decompose_lp_columns_loop,
    in_polytope_loop,
    max_violation_loop,
    step_cap_loop,
)

NAN = float("nan")
INF = float("inf")


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

    @pytest.mark.parametrize(
        "x",
        [[NAN] * 3, [0.2, NAN, 0.1], [0.2, INF, 0.1]],
        ids=["all-nan", "one-nan", "inf"],
    )
    def test_non_finite_coordinate_rejected(self, x):
        assert not in_polytope(free_matroid(3), x)
        inst = ProbingInstance(
            n=3, p=[0.5] * 3, objective=linear_objective([1.0] * 3), inner=[],
            outer=[free_matroid(3)],
        )
        assert not relaxation_feasible(inst, x)


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

    @pytest.mark.parametrize(
        "x",
        [[NAN] * 5, [0.2, NAN, 0.1, 0.0, 0.3], [0.2, INF, 0.1, 0.0, 0.3]],
        ids=["all-nan", "one-nan", "inf"],
    )
    def test_non_finite_point_rejected(self, x):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            decompose_masks(uniform_matroid(5, 2), x)

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

    def test_support_above_ground_cap_rejected(self):
        # the exact fallback never sees such a support: the matroid is not built
        with pytest.raises(CapabilityError, match="ground set of 17 elements"):
            free_matroid(17)

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


class TestCutToNPlusOne:
    """More than n+1 merged sets are refit, by `_fit`, to at most n+1 of them."""

    @pytest.fixture()
    def fits(self, monkeypatch):
        calls = []

        def recording(masks, x):
            terms = _fit(masks, x)
            calls.append((masks, x, terms))
            return terms

        monkeypatch.setattr(probe_kit.polytope, "_fit", recording)
        return calls

    @staticmethod
    def _assert_cut(fits, n):
        """The one fit was a cut, and its terms are a convex combination of
        at most n+1 of the merged sets with their implied vector."""
        ((masks, merged, terms),) = fits
        assert len(masks) > n + 1
        assert len(terms) <= n + 1
        assert {mask for _, mask in terms} <= set(masks)
        assert all(w >= 0.0 for w, _ in terms)
        assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-12
        assert within(implied_vector_masks(terms, n), merged, 1e-12)
        return terms

    def test_decompose(self, fits):
        # the peel takes 7 sets of U(5, 3) for this point
        m = uniform_matroid(5, 3)
        x = [0.44, 0.76, 0.83, 0.76, 0.18]
        terms = decompose_masks(m, x)
        assert self._assert_cut(fits, 5) == terms
        assert all(m.indep_mask(mask) for _, mask in terms)
        assert within(implied_vector_masks(terms, 5), x, EPS)

    @pytest.mark.parametrize("seed", range(3))
    def test_trim(self, fits, seed):
        rng = random.Random(seed)
        n = 6
        masks = rng.sample(range(1, 1 << n), 20)
        raw = [rng.random() for _ in masks]
        terms = [(w / sum(raw), mask) for w, mask in zip(raw, masks)]
        implied = implied_vector_masks(terms, n)
        target = [v * rng.choice([0.0, 0.5, 0.9, 1.0]) for v in implied]
        trimmed = trim_masks(terms, implied, target)
        assert self._assert_cut(fits, n) == trimmed
        assert all(any(mask & ~orig == 0 for orig in masks) for _, mask in trimmed)
        assert within(implied_vector_masks(trimmed, n), target, EPS + 1e-12)


class TestSubsetScans:
    """`_subset_sums` gives every submask of the support with the loop's
    x(A), so membership, the peel's step and the exact fallback's columns
    equal their submask loops in `tests/conftest.py` with ==."""

    TOLS = (0.0, 1e-12, 1e-9)

    @staticmethod
    def _matroid(rng, n):
        m = _random_instance_matroid(n, rng)
        if rng.random() < 0.3:
            e = rng.randrange(n)
            if m.indep_mask(1 << e):
                m = m.contract(e)
        return m

    @staticmethod
    def _dense_point(m, rng, scale=0.999):
        """A random convex combination of 1-6 bases of m, times `scale`."""
        n = m.ground_size
        weights = [rng.random() for _ in range(rng.randint(1, 6))]
        x = [0.0] * n
        for w in weights:
            order = list(range(n))
            rng.shuffle(order)
            b = m.max_independent_subset(order)
            for i in bits(b):
                x[i] += scale * w / sum(weights)
        return x

    @classmethod
    def _points(cls, m, rng):
        """Random points of P(m), sparse and dense, one pushed out by up to
        10%, dyadic points with x(A) = r(A) on some A, and copies with
        coordinates within +-tol of 0, on a contracted element too."""
        n = m.ground_size
        yield _random_point(m, rng)
        x = cls._dense_point(m, rng)
        yield x
        yield [v * rng.uniform(1.0, 1.1) for v in x]
        order = list(range(n))
        rng.shuffle(order)
        b = m.max_independent_subset(order)
        yield [0.5 * (b >> i & 1) + 0.25 * (i == order[0]) for i in range(n)]
        yield [float(b >> i & 1) for i in range(n)]
        for tol in cls.TOLS[1:]:
            near = list(x)
            for i in rng.sample(range(n), rng.randint(1, n)):
                near[i] = tol * rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
            yield near

    def test_subset_sums_enumerate_every_submask(self):
        x = [0.1, 0.2, 0.3, 0.7, 1e-17]
        for support in (0, 0b1, 0b10110, 0b11111):
            masks, (sums, counts) = _subset_sums(support, x, [1, 0, 1, 1, 0])
            assert sorted(masks.tolist()) == [a for a in range(32) if a & ~support == 0]
            for a, total, count in zip(masks.tolist(), sums.tolist(), counts.tolist()):
                expected = 0.0
                for i in range(5):
                    if a >> i & 1:
                        expected += x[i]
                assert total == expected
                assert count == (a & 0b01101).bit_count()

    def test_membership_matches_loop(self):
        rng = random.Random(2301)
        for _ in range(300):
            m = self._matroid(rng, rng.randint(1, 12))
            for x in self._points(m, rng):
                for tol in self.TOLS:
                    assert in_polytope(m, x, tol) == in_polytope_loop(m, x, tol)
                support = sum(1 << i for i, v in enumerate(x) if v > 0.0)
                assert _max_violation(m, x, support) == max_violation_loop(m, x, support)

    def test_contracted_and_boundary_cases(self):
        m = uniform_matroid(4, 2).contract(1)  # rank 1 on {0, 2, 3}, 1 a loop
        for x in (
            [0.5, 0.0, 0.5, 0.0],  # x(A) = r(A)
            [0.5, 1e-12, 0.5, 0.0],  # a contracted element within tol 1e-12 of 0
            [0.5, -1e-9, 0.25, 0.25],
            [0.5, 2e-12, 0.5, 0.0],
            [0.25, 0.0, 0.25, 0.5 + 1e-12],
        ):
            for tol in self.TOLS:
                assert in_polytope(m, x, tol) == in_polytope_loop(m, x, tol), (x, tol)

    @staticmethod
    def _peel_pair(m, x):
        """decompose_masks(m, x) and the same peel with the loop step."""
        terms = decompose_masks(m, x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probe_kit.polytope, "_step_cap", step_cap_loop)
            return terms, decompose_masks(m, x)

    def test_peel_matches_loop(self):
        rng = random.Random(2302)
        for _ in range(300):
            m = self._matroid(rng, rng.randint(1, 12))
            if rng.random() < 0.3:
                x = _random_point(m, rng)
            else:  # on the boundary of P(m) at scale 1, where more caps bind
                x = self._dense_point(m, rng, rng.choice([0.999, 1.0]))
            terms, reference = self._peel_pair(m, x)
            assert terms == reference

    def test_wide_uniform_half(self):
        m = uniform_matroid(16, 8)
        x = [0.5] * 16
        assert in_polytope(m, x, 0.0) and in_polytope_loop(m, x, 0.0)
        assert _max_violation(m, x, 0xFFFF) == max_violation_loop(m, x, 0xFFFF) == 0.0
        terms, reference = self._peel_pair(m, x)
        assert terms == reference
        assert within(implied_vector_masks(terms, 16), x, EPS)
        assert _decompose_lp(m, x) == _fit(decompose_lp_columns_loop(m, x), x)

    def test_fallback_columns_match_loop(self):
        rng = random.Random(2401)
        for _ in range(150):
            m = self._matroid(rng, rng.randint(1, 9))
            x = _random_point(m, rng) if rng.random() < 0.5 else self._dense_point(m, rng)
            columns = decompose_lp_columns_loop(m, x)
            seen = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    probe_kit.polytope, "_fit", lambda masks, y: seen.append(masks) or _fit(masks, y)
                )
                terms = _decompose_lp(m, x)
            assert seen == [columns]
            assert terms == _fit(columns, x)


class TestSupportUpdate:
    def test_rank_one_collapse(self):
        # probing a in U_{1,2} forces the other term {b} to empty:
        # phi(a)=b since {b}+a is dependent
        m = uniform_matroid(2, 1)
        terms = [(0.5, 0b01), (0.5, 0b10)]
        out = support_update_masks(m, terms, 0, 0, 0)
        implied = implied_vector_masks(out, 2)
        assert implied == [0.0, 0.0]
        mc = m.contract(0)
        for _, mask in out:
            assert mc.indep_mask(mask)

    def test_terms_containing_probed_just_drop_it(self):
        m = uniform_matroid(3, 2)
        terms = [(0.6, 0b011), (0.4, 0b101)]
        out = support_update_masks(m, terms, 0, 0, 0)
        assert out[0] == (0.6, 0b010)
        assert out[1] == (0.4, 0b100)

    def test_free_matroid_other_terms_untouched(self):
        m = free_matroid(3)
        terms = [(0.5, 0b001), (0.3, 0b010), (0.2, 0b110)]
        out = support_update_masks(m, terms, 0, 0, 0)
        assert out[1] == (0.3, 0b010)
        assert out[2] == (0.2, 0b110)

    def test_guide_must_contain_probed(self):
        m = uniform_matroid(2, 1)
        terms = [(0.5, 0b01), (0.5, 0b10)]
        with pytest.raises(ValueError):
            support_update_masks(m, terms, 0, 1, 0)

    def test_rank_one_update_of_a_decomposition_is_independent_after_contraction(self):
        m = uniform_matroid(2, 1)
        terms = decompose_masks(m, [0.5, 0.5])
        guide = next(i for i, (_, mask) in enumerate(terms) if mask & 0b01)
        out = support_update_masks(m, terms, 0, guide, 0)
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
        out = support_update_masks(m, terms, e, rng.choice(guides), 0)
        mc = m.contract(e)
        implied = implied_vector_masks(out, m.ground_size)
        for _, mask in out:
            assert mc.indep_mask(mask)
        # coordinates never increase and the probed one reaches zero
        assert implied[e] <= 1e-12
        for i in range(m.ground_size):
            assert implied[i] <= x[i] + 1e-9

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000))
    def test_contraction_mask_equals_contracted_view(self, seed):
        # a contraction set C passed as a mask updates as on m/C, whose rank
        # table `contract` built on its own, not a view over m's table
        rng = random.Random(seed)
        m = _random_matroid(rng)
        view, contracted = m, 0
        for c in rng.sample(range(m.ground_size), rng.randint(0, m.ground_size - 1)):
            if view.indep_mask(1 << c):
                view, contracted = view.contract(c), contracted | 1 << c
        x = _random_point(view, rng)
        terms = decompose_masks(view, x)
        candidates = [i for i, v in enumerate(x) if v > 1e-9]
        if not candidates:
            return
        e = rng.choice(candidates)
        guides = [i for i, (_, mask) in enumerate(terms) if mask >> e & 1]
        if not guides:
            return
        g = rng.choice(guides)
        assert support_update_masks(m, terms, e, g, contracted) == support_update_masks(
            view, terms, e, g, 0
        )


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
