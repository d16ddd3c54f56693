"""Matroid oracles: membership, rank, contraction, exchange maps, axioms."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probe_kit.cli import main
from probe_kit.errors import CapabilityError
from probe_kit.instances import ProbingInstance, _random_matroid
from probe_kit.matroids import (
    GROUND_CAP,
    Matroid,
    _build_exchange_mapping,
    _exchange_mapping_masks,
    bits,
    explicit_matroid,
    free_matroid,
    graphic_matroid,
    mask_of,
    matroid_axiom_violations,
    partition_matroid,
    set_of,
    uniform_matroid,
    _dependent_flats,
)

from conftest import (
    ExchangeMap,
    dependent_flats_loop,
    downward_closure,
    exchange_map,
    exchange_map_violations,
    explicit_rank_scan,
    forest_rank_loop,
    matroid_axiom_violations_loop,
    partition_rank_loop,
    uniform_rank_loop,
)

# elements are named a=0, b=1, c=2, d=3 in comments below


class TestMembership:
    def test_uniform_within_budget(self):
        m = uniform_matroid(3, 2)
        assert m.is_independent({0, 1})

    def test_graphic_triangle_cycle_dependent(self):
        # triangle on 3 vertices; the three edges form a cycle
        m = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        assert not m.is_independent({0, 1, 2})
        assert m.is_independent({0, 1})

    def test_partition_one_per_part(self):
        m = partition_matroid(3, [[0, 1], [2]], [1, 1])
        assert m.is_independent({0, 2})
        assert not m.is_independent({0, 1})


class TestRank:
    def test_uniform_rank_min(self):
        m = uniform_matroid(4, 2)
        assert m.rank({0, 1, 2}) == 2

    def test_empty_rank_zero(self):
        for m in (uniform_matroid(4, 2), free_matroid(3), partition_matroid(2, [[0], [1]], [1, 1])):
            assert m.rank(set()) == 0

    def test_explicit_rank_read_from_list(self):
        m = explicit_matroid(2, [[], [0], [1]])
        assert m.rank({0, 1}) == 1

    def test_rank_of_ground_equals_full_rank(self):
        m = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert m.full_rank() == 3  # spanning tree of 4 vertices


class TestContraction:
    def test_uniform_contraction_budget_consumed(self):
        m = uniform_matroid(4, 2).contract(0)
        assert m.is_independent({1})
        assert not m.is_independent({1, 2})

    def test_partition_contraction_part_capacity_consumed(self):
        m = partition_matroid(3, [[0, 1], [2]], [1, 1]).contract(0)
        assert not m.is_independent({1})
        assert m.is_independent({2})

    def test_contraction_commutes(self):
        matroids = [
            uniform_matroid(5, 3),
            partition_matroid(5, [[0, 1, 2], [3, 4]], [2, 1]),
            graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ]
        for m in matroids:
            for e in range(m.ground_size):
                for f in range(m.ground_size):
                    if e == f or not m.is_independent({e, f}):
                        continue
                    a = m.contract(e).contract(f)
                    b = m.contract(f).contract(e)
                    for mask in range(1 << m.ground_size):
                        if mask & ((1 << e) | (1 << f)):
                            continue
                        assert a.indep_mask(mask) == b.indep_mask(mask)
        # random matroids and independent sets C, contracted in two random
        # orders: m/C's table is m's shifted by C in either order, m's own
        # table is untouched, and the JSON form round-trips
        rng = random.Random(20)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = _random_matroid(n, rng)
            before = m.rank_array().tolist()
            cmask = m.max_independent_subset(rng.sample(range(n), rng.randint(0, n)))
            c = list(bits(cmask))
            contracted = []
            for order in (rng.sample(c, len(c)), rng.sample(c, len(c))):
                mc = m
                for e in order:
                    mc = mc.contract(e)
                contracted.append(mc)
            a, b = contracted
            table = m.rank_array().tolist()
            assert a.rank_array().tolist() == [table[s | cmask] - len(c) for s in range(1 << n)]
            assert table == before
            assert a.rank_array().tolist() == b.rank_array().tolist()
            assert a.contracted == set_of(cmask)
            assert a.to_json() == b.to_json()
            loaded = Matroid.from_json(a.to_json())
            assert loaded.rank_array().tolist() == a.rank_array().tolist()
            assert loaded.to_json() == a.to_json()

    def test_contracting_loop_rejected(self):
        m = explicit_matroid(2, [[], [0]])
        with pytest.raises(ValueError):
            m.contract(1)

    def test_contracted_element_is_a_loop(self):
        m = uniform_matroid(4, 2).contract(0)
        assert m.rank_mask(0b0001) == 0
        assert not m.indep_mask(0b0001)
        assert not m.indep_mask(0b0011)
        assert m.indep_mask(0b0010)
        assert m.extension_masks()[0] == 0b1110

    def test_greedy_skips_contracted_elements(self):
        matroids = [
            uniform_matroid(4, 3).contract(1),
            partition_matroid(5, [[0, 1], [2, 3, 4]], [1, 2]).contract(2).contract(4),
            graphic_matroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]).contract(0),
        ]
        for m in matroids:
            cmask = mask_of(m.contracted)
            for order in itertools.permutations(range(m.ground_size)):
                assert not m.max_independent_subset(order) & cmask

    def test_contracted_rank_shift(self):
        m = uniform_matroid(4, 2)
        mc = m.contract(0)
        # rank in M/e is r(S + e) - 1
        assert mc.rank({1, 2, 3}) == 1


class TestExchangeMap:
    def test_uniform_overlapping_pair(self):
        # A={a,b}, B={b,c} in U_{2,4}: phi(b)=b forced; phi(a) must land on c
        # since B+a has size 3 (dependent) and b is already taken.
        m = uniform_matroid(4, 2)
        em = exchange_map(m, {0, 1}, {1, 2})
        assert em[1] == 1
        assert em[0] == 2
        assert exchange_map_violations(m, em) == []

    def test_uniform_small_source(self):
        # A={a}, B={b,c}: bot is invalid (B+a dependent), so phi(a) in B.
        m = uniform_matroid(4, 2)
        em = exchange_map(m, {0}, {1, 2})
        assert em[0] in {1, 2}
        assert exchange_map_violations(m, em) == []

    def test_partition_forced_assignment(self):
        # parts {a,b}|{c,d} caps (1,1), A={a,c}, B={b,d}: swaps must stay in
        # the same part, so phi(a)=b and phi(c)=d is the only valid choice.
        m = partition_matroid(4, [[0, 1], [2, 3]], [1, 1])
        em = exchange_map(m, {0, 2}, {1, 3})
        assert em[0] == 1
        assert em[2] == 3
        assert exchange_map_violations(m, em) == []

    def test_dependent_input_rejected(self):
        m = uniform_matroid(3, 1)
        with pytest.raises(ValueError):
            exchange_map(m, {0, 1}, {2})

    def test_violation_checker_catches_bad_map(self):
        m = uniform_matroid(4, 2)
        bad = ExchangeMap(frozenset({0, 1}), frozenset({1, 2}), {0: None, 1: 1})
        problems = exchange_map_violations(m, bad)
        assert any("bot" in p for p in problems)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10_000))
    def test_random_pairs_pass_property_check(self, seed):
        rng = random.Random(seed)
        m = _random_small_matroid(rng)
        n = m.ground_size
        a = m.max_independent_subset(rng.sample(range(n), n))
        b = m.max_independent_subset(rng.sample(range(n), n))
        # random independent subsets of two random bases
        amask = a & rng.getrandbits(n)
        em = exchange_map(m, _bits(amask), _bits(b))
        assert exchange_map_violations(m, em) == []

    def test_memoized_map_equals_a_fresh_one(self):
        rng = random.Random(8)
        for _ in range(40):
            m = _random_small_matroid(rng)
            n = m.ground_size
            a = m.max_independent_subset(rng.sample(range(n), n)) & rng.getrandbits(n)
            b = m.max_independent_subset(rng.sample(range(n), n))
            memoized = _exchange_mapping_masks(m, a, b)
            assert _exchange_mapping_masks(m, a, b) is memoized
            assert memoized == _build_exchange_mapping(m, a, b)
            assert m._exchange_memo == {(a, b): memoized}
            e = next(e for e in range(n) if m.indep_mask(1 << e))
            assert m.contract(e)._exchange_memo == {}


class TestAxioms:
    def test_constructors_pass_axiom_checks(self):
        for m in (
            uniform_matroid(5, 2),
            partition_matroid(5, [[0, 1], [2, 3]], [1, 2]),  # element 4 free
            graphic_matroid(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
            explicit_matroid(3, [[], [0], [1], [2], [0, 2], [1, 2]]),
            free_matroid(4),
            uniform_matroid(GROUND_CAP, 8),
        ):
            assert matroid_axiom_violations(m) == []

    def test_sloppy_explicit_input_closed_downward(self):
        m = explicit_matroid(2, [[], [0, 1]])
        assert m.is_independent({0})
        assert m.is_independent({1})
        assert matroid_axiom_violations(m) == []

    def test_explicit_requires_empty_set(self):
        with pytest.raises(ValueError):
            explicit_matroid(2, [[0, 1]])

    def test_axiom_checker_flags_exchange_failure(self):
        # downward-closed family that is not a matroid: bases {a} and {b,c}
        # differ in size, violating the exchange axiom; at the cap the other
        # 13 elements are loops
        for n in (3, GROUND_CAP):
            assert matroid_axiom_violations(explicit_matroid(n, [[], [0], [1, 2]])) == [
                "exchange axiom fails: adding 1 raises the rank of [0, 2] more than that of [0]"
            ]

    def test_table_check_agrees_with_the_pair_walk(self):
        # random downward closures of a few sets, matroids or not, and
        # contractions of random matroids
        rng = random.Random(17)
        verdicts = []
        for _ in range(300):
            n = rng.randint(1, 7)
            k = min(3, n)
            sets = [rng.sample(range(n), rng.randint(0, k)) for _ in range(rng.randint(1, 4))]
            m = explicit_matroid(n, sets + [[]])
            is_matroid = not matroid_axiom_violations_loop(m)
            assert is_matroid == (not matroid_axiom_violations(m)), sets
            verdicts.append(is_matroid)
        assert 30 <= sum(verdicts) <= 270
        for _ in range(150):
            n = rng.randint(2, 8)
            m = _random_matroid(n, rng)
            for e in rng.sample(range(n), rng.randint(1, n)):
                if m.indep_mask(1 << e):
                    m = m.contract(e)
            assert matroid_axiom_violations_loop(m) == []
            assert matroid_axiom_violations(m) == [], m


class TestRankTable:
    """Each constructor's table against the per-mask rank formulas in conftest."""

    @staticmethod
    def _assert_table(m, expected):
        # one table: the stored read-only int64 array, which rank_array returns
        table = m.rank_array()
        assert table is m._tbl and m.rank_array() is table
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == expected
        # the per-mask oracles read it as Python ints and bools
        ranks = [m.rank_mask(s) for s in range(len(expected))]
        indep = [m.indep_mask(s) for s in range(len(expected))]
        assert ranks == expected and {type(r) for r in ranks} == {int}
        assert indep == [r == s.bit_count() for s, r in enumerate(expected)]
        assert {type(i) for i in indep} == {bool}
        assert type(m.full_rank()) is int and m.full_rank() == expected[-1]

    @pytest.mark.parametrize(
        "n, parts, caps",
        [
            (5, [[0, 1], [2, 3]], [0, 1]),  # capacity 0, free element 4
            (4, [[0], [1, 2, 3]], [1, 5]),  # capacities >= |part|
            (6, [], []),  # every element free
            (7, [[0, 1, 2], [3, 4], [5]], [1, 1, 1]),
            (0, [], []),
        ],
    )
    def test_partition(self, n, parts, caps):
        self._assert_table(partition_matroid(n, parts, caps), partition_rank_loop(n, parts, caps))

    @pytest.mark.parametrize("n, k", [(4, 0), (4, 2), (4, 4), (3, 7), (0, 0), (0, 2)])
    def test_uniform(self, n, k):
        self._assert_table(uniform_matroid(n, k), uniform_rank_loop(n, k))

    @pytest.mark.parametrize(
        "n, sets",
        [
            (3, [[], [0], [1], [2], [0, 1]]),
            (2, [[], [0, 1]]),  # not downward-closed: {0} and {1} are implied
            (4, [[], [0, 1, 2], [1, 3], [3, 1]]),  # sloppy, with a repeated set
            (0, [[]]),
        ],
    )
    def test_explicit(self, n, sets):
        m = explicit_matroid(n, sets)
        self._assert_table(m, explicit_rank_scan(n, sets))
        closure = sorted(downward_closure(sets))
        assert m.to_json()["independent_sets"] == [_bits(c) for c in closure]

    def test_explicit_posted_pricing_at_cap(self, tmp_path, capsys):
        path = tmp_path / "pricing.json"
        argv = ["generate", "--kind", "posted-pricing", "--size", "4", "--price-levels", "3"]
        assert main(argv + ["--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        m = ProbingInstance.load(path).inner[0]
        assert m.kind_name == "explicit" and m.ground_size == 16
        self._assert_table(m, explicit_rank_scan(16, m.to_json()["independent_sets"]))

    @pytest.mark.parametrize(
        "n_vertices, edges",
        [
            (3, [(0, 1), (1, 2), (2, 0)]),
            (4, [(0, 1), (1, 1), (0, 1), (2, 3), (3, 2), (1, 2)]),  # a self-loop, parallel edges
            (9, [(0, 5), (7, 8)]),  # untouched vertices
            (1, []),
        ],
    )
    def test_graphic(self, n_vertices, edges):
        self._assert_table(graphic_matroid(n_vertices, edges), forest_rank_loop(edges))

    def test_graphic_random(self):
        rng = random.Random(13)
        for _ in range(300):
            nv = rng.randint(1, 7)
            edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 10))]
            self._assert_table(graphic_matroid(nv, edges), forest_rank_loop(edges))

    def test_graphic_at_cap(self):
        rng = random.Random(17)
        edges = [(rng.randrange(9), rng.randrange(9)) for _ in range(GROUND_CAP)]
        self._assert_table(graphic_matroid(9, edges), forest_rank_loop(edges))

    @pytest.mark.parametrize("element", [-1, 4, 99])
    def test_partition_element_outside_ground_set_rejected(self, element):
        with pytest.raises(ValueError, match="outside the ground set"):
            partition_matroid(4, [[0, element]], [1])

    def test_negative_partition_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacities must be >= 0"):
            partition_matroid(4, [[0, 1], [2, 3]], [1, -1])

    def test_random_kinds(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(0, 9)
            elems = list(range(n))
            rng.shuffle(elems)
            parts = []
            while elems and rng.random() < 0.8:
                size = rng.randint(1, len(elems))
                parts.append(elems[:size])
                elems = elems[size:]
            caps = [rng.randint(0, len(p) + 1) for p in parts]
            self._assert_table(
                partition_matroid(n, parts, caps), partition_rank_loop(n, parts, caps)
            )
            k = rng.randint(0, n + 1)
            self._assert_table(uniform_matroid(n, k), uniform_rank_loop(n, k))
            # random families, closed downward or not
            sets = [[]] + [
                [e for e in range(n) if rng.random() < 0.5] for _ in range(rng.randint(0, 8))
            ]
            self._assert_table(explicit_matroid(n, sets), explicit_rank_scan(n, sets))


class TestExtensionMasks:
    """The extension table against brute-force `indep_mask(A | 1 << e)`."""

    @pytest.mark.parametrize(
        "m",
        [
            uniform_matroid(5, 2),
            uniform_matroid(4, 0),
            partition_matroid(6, [[0, 1, 2], [3, 4]], [1, 2]),  # element 5 free
            graphic_matroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 1)]),  # loop 5
            explicit_matroid(4, [[], [0, 1], [0, 2], [1, 3], [2, 3]]),
            graphic_matroid(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]).contract(0),
            partition_matroid(5, [[0, 1], [2, 3, 4]], [1, 2]).contract(2).contract(4),
            free_matroid(0),
        ],
        ids=repr,
    )
    def test_matches_indep_mask(self, m):
        n = m.ground_size
        ext = m.extension_masks()
        assert len(ext) == 1 << n
        for a in range(1 << n):
            expected = mask_of(e for e in range(n) if not a >> e & 1 and m.indep_mask(a | 1 << e))
            assert int(ext[a]) == expected, (a, int(ext[a]), expected)

    def test_above_table_cap_rejected(self):
        # no matroid above the ground cap is built, so none lacks a table
        with pytest.raises(CapabilityError, match="ground set of 17 elements"):
            uniform_matroid(17, 2)


class TestGroundCap:
    """Every kind checks its size against GROUND_CAP before any 2^n work."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "uniform", "n": 17, "k": 2},
            {"kind": "partition", "n": 17, "parts": [[0, 1]], "capacities": [1]},
            {"kind": "graphic", "n_vertices": 2, "edges": [[0, 1]] * 17},
            {"kind": "explicit", "n": 17, "independent_sets": [[], [0]]},
        ],
        ids=lambda d: d["kind"],
    )
    def test_above_cap_rejected(self, doc):
        with pytest.raises(CapabilityError) as info:
            Matroid.from_json(doc)
        assert str(info.value) == "ground set of 17 elements exceeds the cap of 16"

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "uniform", "n": 10**12, "k": 1},
            {"kind": "partition", "n": 10**12, "parts": [[0]], "capacities": [1]},
            {"kind": "explicit", "n": 10**12, "independent_sets": [[], [0]]},
        ],
        ids=lambda d: d["kind"],
    )
    def test_huge_n_rejected_before_allocation(self, doc):
        with pytest.raises(CapabilityError, match=f"ground set of {10**12} elements"):
            Matroid.from_json(doc)

    def test_at_cap_has_a_table(self):
        m = uniform_matroid(GROUND_CAP, 3)
        assert m.rank_mask((1 << GROUND_CAP) - 1) == 3
        assert m.contract(0).full_rank() == 2


class TestSerialization:
    def test_round_trip_all_kinds(self):
        matroids = [
            uniform_matroid(4, 2),
            partition_matroid(4, [[0, 1], [2, 3]], [1, 1]),
            graphic_matroid(3, [(0, 1), (1, 2), (2, 0)]),
            explicit_matroid(2, [[], [0], [1]]),
        ]
        for m in matroids:
            m2 = Matroid.from_json(m.to_json())
            for mask in range(1 << m.ground_size):
                assert m.indep_mask(mask) == m2.indep_mask(mask)

    @pytest.mark.parametrize(
        "m, expected",
        [
            (uniform_matroid(4, 2), {"kind": "uniform", "n": 4, "k": 2}),
            (
                partition_matroid(5, [[3, 1], (0, 2)], [1, 2]),
                {"kind": "partition", "n": 5, "parts": [[1, 3], [0, 2]], "capacities": [1, 2]},
            ),
            (
                graphic_matroid(3, [(0, 1), [1, 2], (2, 0)]),
                {"kind": "graphic", "n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
            ),
            (
                # closed downward and listed in mask order
                explicit_matroid(3, [[2, 0], [], [1]]),
                {"kind": "explicit", "n": 3, "independent_sets": [[], [0], [1], [2], [0, 2]]},
            ),
            (
                partition_matroid(4, [[0, 1], [2, 3]], [1, 1]).contract(3).contract(0),
                {
                    "kind": "partition",
                    "n": 4,
                    "parts": [[0, 1], [2, 3]],
                    "capacities": [1, 1],
                    "contracted": [0, 3],
                },
            ),
        ],
        ids=["uniform", "partition", "graphic", "explicit", "contracted"],
    )
    def test_json_form(self, m, expected):
        assert m.to_json() == expected
        assert Matroid.from_json(expected).to_json() == expected

    def test_round_trip_preserves_contraction(self):
        m = uniform_matroid(4, 2).contract(1)
        m2 = Matroid.from_json(m.to_json())
        assert m2.contracted == frozenset({1})
        assert not m2.is_independent({0, 2})


class TestPolytopeRowMasks:
    """Per-kind LP row masks against the generic closure enumeration."""

    @staticmethod
    def _flats(m):
        return dependent_flats_loop(m)

    def _assert_rows_imply_flats(self, m):
        # each flat's row must be a sum of disjoint listed rows plus unit bounds
        rows = m.polytope_row_masks()
        for r in rows:
            assert m.rank_mask(r) < r.bit_count()
        for f in self._flats(m):
            covered, bound = 0, 0
            for r in rows:
                if r & ~f == 0:
                    assert r & covered == 0
                    covered |= r
                    bound += m.rank_mask(r)
            assert bound + (f & ~covered).bit_count() <= m.rank_mask(f)

    def test_generic_closure_on_graphic(self):
        # triangle a-b-c plus pendant edge d
        m = graphic_matroid(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert self._flats(m) == [mask_of([0, 1, 2]), mask_of([0, 1, 2, 3])]
        assert m.polytope_row_masks() == self._flats(m)

    def test_explicit_uses_generic_closure(self):
        m = explicit_matroid(3, [[], [0], [1], [2], [0, 1]])
        assert m.polytope_row_masks() == self._flats(m) == [mask_of([0, 2]), mask_of([1, 2]), 7]

    def test_partition_capacity_zero_and_free_element(self):
        # element 4 lies in no part and is free
        m = partition_matroid(5, [[0, 1], [2, 3]], [0, 1])
        assert m.polytope_row_masks() == [mask_of([0, 1]), mask_of([2, 3])]
        assert all(f & mask_of([0, 1]) == mask_of([0, 1]) for f in self._flats(m))
        self._assert_rows_imply_flats(m)

    def test_partition_capacity_at_least_part_size(self):
        m = partition_matroid(4, [[0], [1, 2, 3]], [1, 3])
        assert m.polytope_row_masks() == [] == self._flats(m)

    def test_partition_several_dependent_parts(self):
        m = partition_matroid(7, [[0, 1, 2], [3, 4], [5]], [1, 1, 1])
        assert m.polytope_row_masks() == [mask_of([0, 1, 2]), mask_of([3, 4])]
        # any nonempty union of the dependent parts, plus any of elements 5, 6
        assert len(self._flats(m)) == 3 * 4
        self._assert_rows_imply_flats(m)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_uniform_budget(self, k):
        m = uniform_matroid(4, k)
        assert m.polytope_row_masks() == self._flats(m) == ([0b1111] if k < 4 else [])

    def test_free_matroid_has_no_rows(self):
        assert free_matroid(5).polytope_row_masks() == []

    def test_contracted_matroid_uses_generic_closure(self):
        m = Matroid.from_json(
            {
                "kind": "partition",
                "n": 5,
                "parts": [[0, 1, 2], [3, 4]],
                "capacities": [2, 1],
                "contracted": [0],
            }
        )
        rows = m.polytope_row_masks()
        assert rows == self._flats(m)
        # the contracted element behaves as a loop: every row contains it
        assert mask_of([0]) in rows
        assert all(r & 1 for r in rows)
        assert uniform_matroid(4, 2).contract(1).polytope_row_masks() == [0b0010, 0b1111]


class TestDependentFlats:
    """`_dependent_flats`, one numpy pass per element, against the lattice
    walk in conftest, with ==."""

    @staticmethod
    def _assert_flats(m):
        assert _dependent_flats(m.rank_array(), m.ground_size) == dependent_flats_loop(m)

    def test_random_matroids_of_every_kind(self):
        rng = random.Random(2401)
        kinds = set()
        for _ in range(240):
            n = rng.randint(1, 10)
            m = _random_matroid(n, rng)
            kinds.add(m.kind_name)
            for e in rng.sample(range(n), rng.randint(0, min(2, n))):
                if m.indep_mask(1 << e):
                    m = m.contract(e)
            self._assert_flats(m)
        assert kinds == {"uniform", "partition", "graphic", "explicit"}

    def test_uniform_every_budget(self):
        for n in range(9):
            for k in range(n + 1):
                m = uniform_matroid(n, k)
                self._assert_flats(m)
                assert m.polytope_row_masks() == ([(1 << n) - 1] if k < n else [])

    def test_graphic_at_cap(self):
        # K6 plus a pendant edge: 16 edges
        m = graphic_matroid(7, list(itertools.combinations(range(6), 2)) + [(5, 6)])
        assert m.ground_size == GROUND_CAP
        flats = m.polytope_row_masks()
        assert flats == dependent_flats_loop(m)
        assert len(flats) == 254


def _random_small_matroid(rng):
    kind = rng.choice(["uniform", "partition", "graphic"])
    if kind == "uniform":
        n = rng.randint(2, 6)
        return uniform_matroid(n, rng.randint(1, n))
    if kind == "partition":
        n = rng.randint(2, 6)
        elems = list(range(n))
        rng.shuffle(elems)
        cut = rng.randint(1, n - 1)
        parts = [sorted(elems[:cut]), sorted(elems[cut:])]
        return partition_matroid(n, parts, [rng.randint(1, 2), rng.randint(1, 2)])
    edges = []
    nv = rng.randint(3, 4)
    for _ in range(rng.randint(3, 6)):
        u, v = rng.sample(range(nv), 2)
        edges.append((u, v))
    return graphic_matroid(nv, edges)


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
