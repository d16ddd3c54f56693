"""Matroid representations, independence/rank oracles, contraction views, and
exchange mappings between independent sets.

Elements are dense integer indices 0..n-1.  Internally sets are bitmasks; the
public API accepts any iterable of element indices.  Every base matroid
has a rank table over the full 2^n lattice, built once and shared by its
contraction views, which makes the oracles O(1) in the Monte Carlo hot loop.
Ground sets are capped at GROUND_CAP elements so that table always exists.
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


class _Kind:
    """Backend for one matroid family: rank over the uncontracted ground set.

    Each kind checks its ground-set size against GROUND_CAP before any work
    that grows with 2^n.
    """

    n: int

    def rank_mask(self, mask: int) -> int:
        return self._table()[mask]

    def _rank_raw(self, mask: int) -> int:
        raise NotImplementedError

    def polytope_row_masks(self) -> list:
        """Masks A whose rank rows x(A) <= r(A), with 0 <= x <= 1, cut out P(M).

        By default these are the dependent flats; kinds with a known polytope
        list fewer rows that imply the rest.
        """
        return _dependent_flats(self.rank_mask, self.n)

    def _table(self) -> list:
        cached = getattr(self, "_rank_table", None)
        if cached is None:
            cached = self._build_table()
            self._rank_table = cached
        return cached

    def _build_table(self) -> list:
        """Rank of every mask, as a list (the hot loop indexes it)."""
        return [self._rank_raw(m) for m in range(1 << self.n)]

    def to_json(self) -> dict:
        raise NotImplementedError


class _UniformKind(_Kind):
    def __init__(self, n: int, k: int):
        check_ground_size(n)
        if not 0 <= k:
            raise ValueError("uniform matroid needs k >= 0")
        self.n, self.k = n, k

    def _rank_raw(self, mask: int) -> int:
        return min(mask.bit_count(), self.k)

    def _build_table(self) -> list:
        return np.minimum(_popcounts(self.n), self.k).tolist()

    def polytope_row_masks(self) -> list:
        return [(1 << self.n) - 1] if self.k < self.n else []

    def to_json(self):
        return {"kind": "uniform", "n": self.n, "k": self.k}


class _PartitionKind(_Kind):
    def __init__(self, n: int, parts: list, capacities: list):
        check_ground_size(n)
        if len(parts) != len(capacities):
            raise ValueError("one capacity per part required")
        if any(not 0 <= e < n for e in itertools.chain.from_iterable(parts)):
            raise ValueError("part element outside the ground set")
        if any(cap < 0 for cap in capacities):
            raise ValueError("partition capacities must be >= 0")
        seen = mask_of(itertools.chain.from_iterable(parts))
        total = sum(len(p) for p in parts)
        if seen.bit_count() != total:
            raise ValueError("parts must be disjoint")
        self.n = n
        self.parts = [sorted(p) for p in parts]
        self.capacities = list(capacities)
        self._part_masks = [mask_of(p) for p in parts]
        # elements outside every part are free (capacity = their own count)
        self._free_mask = ((1 << n) - 1) & ~seen

    def _rank_raw(self, mask: int) -> int:
        r = (mask & self._free_mask).bit_count()
        for pm, cap in zip(self._part_masks, self.capacities):
            r += min((mask & pm).bit_count(), cap)
        return r

    def _build_table(self) -> list:
        counts = _popcounts(self.n)
        masks = np.arange(1 << self.n, dtype=np.int64)
        table = counts[masks & self._free_mask]
        for pm, cap in zip(self._part_masks, self.capacities):
            table += np.minimum(counts[masks & pm], cap)
        return table.tolist()

    def polytope_row_masks(self) -> list:
        # a flat's row is the sum of the rows of the dependent parts it contains
        # and of unit bounds on its other elements
        return [
            pm for pm, cap in zip(self._part_masks, self.capacities) if cap < pm.bit_count()
        ]

    def to_json(self):
        return {
            "kind": "partition",
            "n": self.n,
            "parts": self.parts,
            "capacities": self.capacities,
        }


class _GraphicKind(_Kind):
    """Ground set = edge list; independent sets are forests."""

    def __init__(self, n_vertices: int, edges: list):
        check_ground_size(len(edges))
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError("edge endpoint outside vertex range")
        self.n = len(edges)
        self.n_vertices = n_vertices
        self.edges = [tuple(e) for e in edges]

    def _rank_raw(self, mask: int) -> int:
        # rank of an edge set = |touched vertices| - |components|, via union-find
        parent = {}

        def find(v):
            root = v
            while parent[root] != root:
                root = parent[root]
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root

        r = 0
        for i in bits(mask):
            u, v = self.edges[i]
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def to_json(self):
        return {
            "kind": "graphic",
            "n_vertices": self.n_vertices,
            "edges": [list(e) for e in self.edges],
        }


class _ExplicitKind(_Kind):
    """Independence family stored verbatim (downward closure is enforced)."""

    def __init__(self, n: int, independent_sets: Iterable[Iterable[int]]):
        check_ground_size(n)
        masks = set()
        for s in independent_sets:
            m = mask_of(s)
            if m >> n:
                raise ValueError("independent set outside ground set")
            masks.add(m)
        if 0 not in masks:
            raise ValueError("explicit matroid must contain the empty set")
        # close downward so rank queries behave even on sloppy input
        stack = list(masks)
        while stack:
            m = stack.pop()
            for b in bits(m):
                sub = m & ~(1 << b)
                if sub not in masks:
                    masks.add(sub)
                    stack.append(sub)
        self.n = n
        self.indep_masks = masks
        self._sorted = sorted(masks)

    def _rank_raw(self, mask: int) -> int:
        best = 0
        for m in self.indep_masks:
            if m & ~mask == 0:
                c = m.bit_count()
                if c > best:
                    best = c
        return best

    def to_json(self):
        return {
            "kind": "explicit",
            "n": self.n,
            "independent_sets": [sorted(bits(m)) for m in self._sorted],
        }


class Matroid:
    """A matroid over ground set 0..n-1, possibly with elements contracted.

    Contraction is a view: the base rank oracle is shared, and rank in M/C is
    r(S | C) - |C| for the (independent) contracted set C.
    """

    __slots__ = ("_kind", "_cmask", "_csize", "_tbl")

    def __init__(self, kind: _Kind, contracted_mask: int = 0):
        self._kind = kind
        self._cmask = contracted_mask
        self._csize = contracted_mask.bit_count()
        self._tbl = kind._table()
        if self._tbl[contracted_mask] != self._csize:
            raise ValueError("contracted set must be independent in the base matroid")

    # -- public set-based API ------------------------------------------------

    @property
    def ground_size(self) -> int:
        return self._kind.n

    @property
    def contracted(self) -> frozenset:
        return set_of(self._cmask)

    @property
    def ground(self) -> frozenset:
        """Effective ground set (contracted elements removed)."""
        return set_of(((1 << self._kind.n) - 1) & ~self._cmask)

    @property
    def kind_name(self) -> str:
        return self._kind.to_json()["kind"]

    def _check_subset(self, mask: int):
        if mask >> self._kind.n or mask & self._cmask:
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
        return self.rank_mask(((1 << self._kind.n) - 1) & ~self._cmask)

    def contract(self, e: int) -> "Matroid":
        bit = 1 << e
        self._check_subset(bit)
        if not self.indep_mask(bit):
            raise ValueError(f"cannot contract loop element {e}")
        return Matroid(self._kind, self._cmask | bit)

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
        return self._tbl[mask | self._cmask] - self._csize

    def indep_mask(self, mask: int) -> bool:
        full = mask | self._cmask
        return self._tbl[full] == full.bit_count()

    def extension_masks(self) -> np.ndarray:
        """For every mask A, the mask of the elements e not in A with A + e
        independent (as `indep_mask` judges it), from the rank table in n
        vector passes."""
        n = self._kind.n
        masks = np.arange(1 << n, dtype=np.int64)
        full = masks | self._cmask
        indep = np.asarray(self._tbl)[full] == _popcounts(n)[full]
        ext = np.zeros(1 << n, dtype=np.int64)
        for e in range(n):
            ext |= (indep[masks | 1 << e] & (masks >> e & 1 == 0)).astype(np.int64) << e
        return ext

    def polytope_row_masks(self) -> list:
        """Masks A whose rank rows x(A) <= r(A), with 0 <= x <= 1, cut out P(M).

        Contracted elements count as loops, so they fall into every row's
        closure and x must vanish on them.
        """
        if self._cmask:
            return _dependent_flats(self.rank_mask, self._kind.n)
        return self._kind.polytope_row_masks()

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        d = self._kind.to_json()
        if self._cmask:
            d["contracted"] = sorted(bits(self._cmask))
        return d

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
            for e in get("contracted", list, int, lo=0, hi=m.ground_size - 1):
                m = m.contract(e)
        return m

    def __repr__(self):
        extra = f", contracted={sorted(bits(self._cmask))}" if self._cmask else ""
        return f"Matroid({self._kind.to_json()}{extra})"


def uniform_matroid(n: int, k: int) -> Matroid:
    return Matroid(_UniformKind(n, k))


def partition_matroid(n: int, parts, capacities) -> Matroid:
    return Matroid(_PartitionKind(n, parts, capacities))


def graphic_matroid(n_vertices: int, edges) -> Matroid:
    return Matroid(_GraphicKind(n_vertices, edges))


def explicit_matroid(n: int, independent_sets) -> Matroid:
    return Matroid(_ExplicitKind(n, independent_sets))


def free_matroid(n: int) -> Matroid:
    return uniform_matroid(n, n)


# ---------------------------------------------------------------------------
# Exchange mappings
# ---------------------------------------------------------------------------


def _exchange_mapping_masks(m: Matroid, amask: int, bmask: int) -> dict:
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
# Axiom verification (test / cmd_verify support)
# ---------------------------------------------------------------------------


def matroid_axiom_violations(m: Matroid, limit: int = 12) -> list:
    """Exhaustively verify the matroid axioms on the effective ground set.

    Checks the empty set, downward closure, and the exchange axiom.  Intended
    for small instances; raises ValueError above `limit` elements.
    """
    ground = sorted(m.ground)
    n = len(ground)
    if n > limit:
        raise ValueError(f"axiom check limited to {limit} elements")
    gmask = mask_of(ground)
    indep = [0]
    is_indep = {0: True}
    problems = []
    if not m.indep_mask(0):
        problems.append("empty set not independent")
    for mask in range(1, 1 << m.ground_size):
        if mask & ~gmask:
            continue
        ok = m.indep_mask(mask)
        is_indep[mask] = ok
        if ok:
            indep.append(mask)
            for b in bits(mask):
                if not is_indep.get(mask & ~(1 << b), True):
                    problems.append(f"downward closure fails at {sorted(bits(mask))}")
                    break
    for m1 in indep:
        c1 = m1.bit_count()
        for m2 in indep:
            if m2.bit_count() <= c1:
                continue
            if not any(is_indep[m1 | (1 << e)] for e in bits(m2 & ~m1)):
                problems.append(
                    f"exchange axiom fails for {sorted(bits(m1))}, {sorted(bits(m2))}"
                )
    return problems
