"""Matroids as rank tables, contraction, and exchange mappings between
independent sets.

Elements are dense integer indices 0..n-1.  Internally sets are bitmasks; the
public API accepts any iterable of element indices.  A matroid is its rank
table over the full 2^n lattice, built by one constructor per kind (uniform,
partition, graphic, explicit) that also lists the kind's polytope rows and
records its JSON form.  A contraction is a matroid with its own table, built
in one numpy pass, so every oracle is one table lookup in the Monte Carlo
hot loop and no other module knows a matroid was contracted.  The axiom
check reads local rank conditions off the same table.  Ground sets are
capped at GROUND_CAP elements so that table always exists.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from .errors import CapabilityError, InvariantViolation
from .schema import read_field

GROUND_CAP = 16  # every exact path enumerates the 2^n subsets of the ground set


def check_ground_size(n: int) -> None:
    """Raise CapabilityError when a ground set of n elements exceeds GROUND_CAP."""
    if n > GROUND_CAP:
        raise CapabilityError(f"ground set of {n} elements exceeds the cap of {GROUND_CAP}")


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int):
    """Iterate set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset:
    return frozenset(bits(mask))


def _popcounts(n: int) -> np.ndarray:
    """Bit counts of every mask over n elements, built by doubling."""
    counts = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        counts[1 << b : 2 << b] = counts[: 1 << b] + 1
    return counts


def _dependent_flats(rank_mask, n: int) -> list:
    """Masks F over 0..n-1 with r(F) < |F| and r(F + e) > r(F) for every e not in F.

    Only these rank rows are needed: the row of a set A is implied by the row
    of its closure and x >= 0, and the row of an independent set by x <= 1.
    """
    full = (1 << n) - 1
    flats = []
    for f in range(1, 1 << n):
        r = rank_mask(f)
        if r < f.bit_count() and all(rank_mask(f | 1 << e) > r for e in bits(full & ~f)):
            flats.append(f)
    return flats


class Matroid:
    """A matroid over ground set 0..n-1 as its rank table, possibly with
    elements contracted.

    `spec` is the matroid's JSON form, `table` the rank of every mask over the
    2^n lattice, and `rows` the masks whose rank rows cut out its polytope
    (None: the dependent flats).  A contraction M/C is a matroid of its own:
    its spec lists C under "contracted" and its table is r(S | C) - |C|, so a
    contracted element is a loop.  `_exchange_memo` holds the exchange maps
    built for this matroid (see `_exchange_mapping_masks`), and `_array` the
    table as an array once `rank_array` has built it.
    """

    __slots__ = ("_spec", "_tbl", "_rows", "_n", "_cmask", "_exchange_memo", "_array")

    def __init__(self, spec: dict, table: list, rows=None):
        self._spec = spec
        self._tbl = table
        self._rows = rows
        self._n = len(table).bit_length() - 1
        self._cmask = mask_of(spec.get("contracted", ()))
        self._exchange_memo = {}
        self._array = None

    # -- public set-based API ------------------------------------------------

    @property
    def ground_size(self) -> int:
        return self._n

    @property
    def contracted(self) -> frozenset:
        return set_of(self._cmask)

    @property
    def ground(self) -> frozenset:
        """Effective ground set (contracted elements removed)."""
        return set_of(((1 << self._n) - 1) & ~self._cmask)

    @property
    def kind_name(self) -> str:
        return self._spec["kind"]

    def _check_subset(self, mask: int):
        if mask >> self._n or mask & self._cmask:
            raise ValueError("element outside the effective ground set")

    def is_independent(self, s: Iterable[int]) -> bool:
        mask = mask_of(s)
        self._check_subset(mask)
        return self.indep_mask(mask)

    def rank(self, s: Iterable[int]) -> int:
        mask = mask_of(s)
        self._check_subset(mask)
        return self.rank_mask(mask)

    def full_rank(self) -> int:
        return self._tbl[-1]

    def contract(self, e: int) -> "Matroid":
        bit = 1 << e
        if bit & self._cmask:
            raise ValueError(f"element {e} is already contracted")
        self._check_subset(bit)
        if not self.indep_mask(bit):
            raise ValueError(f"cannot contract loop element {e}")
        t = self.rank_array()
        table = t[np.arange(len(t), dtype=np.int64) | bit] - 1
        spec = {**self._spec, "contracted": sorted(bits(self._cmask | bit))}
        return Matroid(spec, table.tolist())

    def max_independent_subset(self, order: Iterable[int]) -> int:
        """Greedy: scan `order`, keep an element if it stays independent.

        Returns a bitmask.  With elements ordered by decreasing weight this is
        the matroid greedy for max-weight independent subsets.
        """
        acc = 0
        for e in order:
            cand = acc | (1 << e)
            if self.indep_mask(cand):
                acc = cand
        return acc

    # -- mask-based fast path -------------------------------------------------

    def rank_mask(self, mask: int) -> int:
        return self._tbl[mask]

    def rank_array(self) -> np.ndarray:
        """The rank table as a read-only int64 array, built on first use, for
        gathers over many masks (`rank_mask` reads the list, faster per mask)."""
        if self._array is None:
            self._array = np.asarray(self._tbl, dtype=np.int64)
            self._array.flags.writeable = False
        return self._array

    def indep_mask(self, mask: int) -> bool:
        """r(S) = |S|, so a contracted element, a loop of M/C, is dependent."""
        return self._tbl[mask] == mask.bit_count()

    def extension_masks(self) -> np.ndarray:
        """For every mask A, the mask of the elements e not in A with A + e
        independent (as `indep_mask` judges it), from the rank table in n
        vector passes."""
        n = self._n
        masks = np.arange(1 << n, dtype=np.int64)
        indep = self.rank_array() == _popcounts(n)
        ext = np.zeros(1 << n, dtype=np.int64)
        for e in range(n):
            ext |= (indep[masks | 1 << e] & (masks >> e & 1 == 0)).astype(np.int64) << e
        return ext

    def polytope_row_masks(self) -> list:
        """Masks A whose rank rows x(A) <= r(A), with 0 <= x <= 1, cut out P(M).

        These are the dependent flats, unless the kind listed fewer rows that
        imply the rest.  Contracted elements count as loops, so they fall into
        every row's closure and x must vanish on them.
        """
        if self._rows is None:
            return _dependent_flats(self.rank_mask, self._n)
        return list(self._rows)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return dict(self._spec)

    @staticmethod
    def from_json(d: dict, path: str = "matroid") -> "Matroid":
        """Parse `d`; `path` locates it in the document for error messages."""

        def get(key, *kinds, lo=None, hi=None):
            return read_field(d, key, path, *kinds, lo=lo, hi=hi)

        kind = get("kind", str)
        if kind == "uniform":
            m = uniform_matroid(get("n", int, lo=0), get("k", int, lo=0))
        elif kind == "partition":
            n = get("n", int, lo=0)
            m = partition_matroid(
                n,
                get("parts", list, list, int, lo=0, hi=n - 1),
                get("capacities", list, int, lo=0),
            )
        elif kind == "graphic":
            n_vertices = get("n_vertices", int, lo=0)
            edges = get("edges", list, list, int, lo=0, hi=n_vertices - 1)
            for i, edge in enumerate(edges):
                if len(edge) != 2:
                    raise ValueError(f"{path}.edges[{i}]: expected two endpoints")
            m = graphic_matroid(n_vertices, edges)
        elif kind == "explicit":
            n = get("n", int, lo=0)
            m = explicit_matroid(n, get("independent_sets", list, list, int, lo=0, hi=n - 1))
        else:
            raise ValueError(f"{path}.kind: unknown matroid kind {kind!r}")
        if "contracted" in d:
            for i, e in enumerate(get("contracted", list, int, lo=0, hi=m.ground_size - 1)):
                try:
                    m = m.contract(e)
                except ValueError as err:
                    raise ValueError(f"{path}.contracted[{i}]: {err}") from None
        return m

    def __repr__(self):
        return f"Matroid({self._spec})"


# ---------------------------------------------------------------------------
# Constructors: each checks the ground-set size before any 2^n work, then
# builds the rank table, lists the polytope rows and records the JSON form.
# ---------------------------------------------------------------------------


def uniform_matroid(n: int, k: int) -> Matroid:
    check_ground_size(n)
    if not 0 <= k:
        raise ValueError("uniform matroid needs k >= 0")
    table = np.minimum(_popcounts(n), k).tolist()
    rows = [(1 << n) - 1] if k < n else []
    return Matroid({"kind": "uniform", "n": n, "k": k}, table, rows)


def partition_matroid(n: int, parts, capacities) -> Matroid:
    check_ground_size(n)
    if len(parts) != len(capacities):
        raise ValueError("one capacity per part required")
    if any(not 0 <= e < n for e in itertools.chain.from_iterable(parts)):
        raise ValueError("part element outside the ground set")
    if any(cap < 0 for cap in capacities):
        raise ValueError("partition capacities must be >= 0")
    seen = mask_of(itertools.chain.from_iterable(parts))
    if seen.bit_count() != sum(len(p) for p in parts):
        raise ValueError("parts must be disjoint")
    part_masks = [mask_of(p) for p in parts]
    counts = _popcounts(n)
    masks = np.arange(1 << n, dtype=np.int64)
    # elements outside every part are free (capacity = their own count)
    table = counts[masks & ~seen]
    for pm, cap in zip(part_masks, capacities):
        table += np.minimum(counts[masks & pm], cap)
    # a flat's row is the sum of the rows of the dependent parts it contains
    # and of unit bounds on its other elements
    rows = [pm for pm, cap in zip(part_masks, capacities) if cap < pm.bit_count()]
    spec = {
        "kind": "partition",
        "n": n,
        "parts": [sorted(p) for p in parts],
        "capacities": list(capacities),
    }
    return Matroid(spec, table.tolist(), rows)


def _forest_rank_table(edges: list) -> list:
    """Rank of every edge set: |touched vertices| - |components|, by doubling.

    Each mask keeps a component label per vertex.  A mask whose highest edge
    is (u, v) copies the labels of the mask without it and merges u's label
    into v's; its rank is one more when the two labels differed.
    """
    vertex = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    labels = np.zeros((1 << len(edges), len(vertex)), dtype=np.int8)  # <= 2 * GROUND_CAP
    labels[0] = np.arange(len(vertex))
    rank = np.zeros(1 << len(edges), dtype=np.int64)
    for b, (u, v) in enumerate(edges):
        lab = labels[: 1 << b]
        lu, lv = lab[:, vertex[u]], lab[:, vertex[v]]
        labels[1 << b : 2 << b] = np.where(lab == lu[:, None], lv[:, None], lab)
        rank[1 << b : 2 << b] = rank[: 1 << b] + (lu != lv)
    return rank.tolist()


def graphic_matroid(n_vertices: int, edges) -> Matroid:
    """Ground set = edge list; independent sets are forests."""
    check_ground_size(len(edges))
    edges = [tuple(e) for e in edges]
    for u, v in edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError("edge endpoint outside vertex range")
    spec = {"kind": "graphic", "n_vertices": n_vertices, "edges": [list(e) for e in edges]}
    return Matroid(spec, _forest_rank_table(edges))


def explicit_matroid(n: int, independent_sets) -> Matroid:
    """Independence family given by its members; its downward closure is
    taken, so rank queries behave even on sloppy input."""
    check_ground_size(n)
    members = set()
    for s in independent_sets:
        m = mask_of(s)
        if m >> n:
            raise ValueError("independent set outside ground set")
        members.add(m)
    if 0 not in members:
        raise ValueError("explicit matroid must contain the empty set")
    closed = np.zeros(1 << n, dtype=bool)
    closed[list(members)] = True
    for b in range(n):  # A - b joins the family with A
        pairs = closed.reshape(-1, 2, 1 << b)
        pairs[:, 0] |= pairs[:, 1]
    # r(A) is the largest |I| over members I inside A: seed every member with
    # |I|, then pass the max up from A - b to A, one element at a time
    table = np.where(closed, _popcounts(n), 0)
    for b in range(n):
        pairs = table.reshape(-1, 2, 1 << b)
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    spec = {
        "kind": "explicit",
        "n": n,
        "independent_sets": [list(bits(m)) for m in np.flatnonzero(closed).tolist()],
    }
    return Matroid(spec, table.tolist())


def free_matroid(n: int) -> Matroid:
    return uniform_matroid(n, n)


# ---------------------------------------------------------------------------
# Exchange mappings
# ---------------------------------------------------------------------------


def _exchange_mapping_masks(m: Matroid, amask: int, bmask: int) -> dict:
    """The exchange map from A to B, built once per (A, B) and matroid.

    The memo lives as long as `m` and needs no cap: 16,384 Monte Carlo
    trials on each 12-15-element bipartite matching of the `matching-wide`
    benchmark built at most 2,084 maps per instance.  Callers must not
    mutate the returned dict.
    """
    mapping = m._exchange_memo.get((amask, bmask))
    if mapping is None:
        mapping = m._exchange_memo[amask, bmask] = _build_exchange_mapping(m, amask, bmask)
    return mapping


def _build_exchange_mapping(m: Matroid, amask: int, bmask: int) -> dict:
    """Core construction: dict element -> element-or-None over bitmask inputs.

    Elements of A & B map to themselves.  Remaining elements of A take the
    bot slot when B + e stays independent; the rest are matched injectively
    into B - A via augmenting paths.  Existence of a perfect matching follows
    from the exchange properties of matroids; failure raises.
    """
    mapping = {e: e for e in bits(amask & bmask)}
    need_match = []
    for e in bits(amask & ~bmask):
        if m.indep_mask(bmask | (1 << e)):
            mapping[e] = None
        else:
            need_match.append(e)
    if not need_match:
        return mapping

    candidates = {}
    for e in need_match:
        ebit = 1 << e
        candidates[e] = [
            f for f in bits(bmask & ~amask) if m.indep_mask((bmask ^ (1 << f)) | ebit)
        ]

    owner = {}  # matched target element -> source element

    def augment(e, visited):
        for f in candidates[e]:
            if f in visited:
                continue
            visited.add(f)
            if f not in owner or augment(owner[f], visited):
                owner[f] = e
                return True
        return False

    for e in need_match:
        if not augment(e, set()):
            raise InvariantViolation(
                "no valid exchange assignment found; matroid oracle is inconsistent"
            )
    for f, e in owner.items():
        mapping[e] = f
    return mapping


# ---------------------------------------------------------------------------
# Axiom verification (test / cmd_verify support): local conditions on a table
# over all 2^n masks, one numpy pass per element and per pair of elements
# ---------------------------------------------------------------------------


def table_gains(t: np.ndarray, n: int):
    """For every element e: e, the masks A without e, and t(A + e) - t(A)."""
    masks = np.arange(1 << n, dtype=np.int64)
    for e in range(n):
        a = masks[masks >> e & 1 == 0]
        yield e, a, t[a | 1 << e] - t[a]


def table_gain_drops(t: np.ndarray, n: int):
    """For every pair e < f: e, f, the masks A without e and f, and how much
    the gain of e falls when f joins A, t(A + e) + t(A + f) - t(A + e + f) - t(A)."""
    masks = np.arange(1 << n, dtype=np.int64)
    for e, f in itertools.combinations(range(n), 2):
        a = masks[(masks >> e | masks >> f) & 1 == 0]
        yield e, f, a, t[a | 1 << e] + t[a | 1 << f] - t[a | 1 << e | 1 << f] - t[a]


def matroid_axiom_violations(m: Matroid) -> list:
    """Check that the table's ranks form a matroid rank function: r(empty) = 0,
    every gain r(A + e) - r(A) is 0 or 1, and no gain grows as A does (checked
    on pairs e, f outside A).  One problem per failing element or pair, naming
    the first failing A.  For the explicit kind, r(A) is the size of the
    largest member of the family inside A, so these hold exactly when the
    family is a matroid; the other kinds build true rank functions.
    Contracted elements are loops, so they pass.
    """
    n = m.ground_size
    r = m.rank_array()
    problems = []
    if r[0]:
        problems.append("r(empty) != 0")
    for e, a, gain in table_gains(r, n):
        bad = np.flatnonzero((gain < 0) | (gain > 1))
        if bad.size:
            a0 = int(a[bad[0]])
            problems.append(f"adding {e} to {sorted(bits(a0))} changes the rank by {gain[bad[0]]}")
    for e, f, a, drop in table_gain_drops(r, n):
        bad = np.flatnonzero(drop < 0)
        if bad.size:
            a0 = int(a[bad[0]])
            problems.append(
                f"exchange axiom fails: adding {e} raises the rank of "
                f"{sorted(bits(a0 | 1 << f))} more than that of {sorted(bits(a0))}"
            )
    return problems
