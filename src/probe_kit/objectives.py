"""Objectives as value tables, and the exact multilinear extension F.

An objective is its JSON form and its value f(S) on every mask S of the 2^n
lattice, as one read-only float64 array; `value_mask` and `value` read it
with `ndarray.item`, which returns a Python float.  One constructor per kind
(linear, coverage, weighted matroid rank) validates its input, checks the
ground size against GROUND_CAP and builds the table with numpy passes over
all masks.  Each entry is a sum of weights added in ascending index order
from 0.0, so it equals Python's `sum` over the same weights bit for bit.  The
structure check reads normalization, monotonicity and submodularity off the
table.

F(y) is the one evaluator of the multilinear extension: the product weights
Pr_y[R] over all 2^n masks, dotted with the table.  Continuous greedy and the
policy's potential both read F through it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .matroids import Matroid, bits, check_ground_size, mask_of, table_gain_drops, table_gains
from .schema import read_field


class Objective:
    """A normalized monotone set function over ground set 0..n-1, as its
    JSON form `spec` and its value `table` over all 2^n masks."""

    __slots__ = ("_spec", "_table", "n", "is_linear")

    def __init__(self, spec: dict, table: Sequence[float]):
        self._spec = spec
        self._table = np.asarray(table, dtype=float)
        self._table.flags.writeable = False
        self.n = len(table).bit_length() - 1
        self.is_linear = spec["kind"] == "linear"

    def value_mask(self, mask: int) -> float:
        return self._table.item(mask)

    def value(self, s: Iterable[int]) -> float:
        mask = mask_of(s)
        if mask >> self.n:
            raise ValueError("element outside the objective's ground set")
        return self._table.item(mask)

    def value_table(self) -> np.ndarray:
        """All 2^n values, indexed by mask, as a read-only float64 array."""
        return self._table

    def to_json(self) -> dict:
        return dict(self._spec)

    @staticmethod
    def from_json(d: dict, path: str = "objective") -> "Objective":
        """Parse `d`; `path` locates it in the document for error messages."""

        def get(key, *kinds, lo=None, hi=None):
            return read_field(d, key, path, *kinds, lo=lo, hi=hi)

        kind = get("kind", str)
        if kind == "linear":
            return linear_objective(get("weights", list, float, lo=0))
        if kind == "coverage":
            item_weights = get("item_weights", list, float, lo=0)
            covers = get("covers", list, list, int, lo=0, hi=len(item_weights) - 1)
            return coverage_objective(covers, item_weights)
        if kind == "weighted_matroid_rank":
            return weighted_rank_objective(
                Matroid.from_json(get("matroid", dict), f"{path}.matroid"),
                get("weights", list, float, lo=0),
            )
        raise ValueError(f"{path}.kind: unknown objective kind {kind!r}")


# ---------------------------------------------------------------------------
# Constructors: each validates, checks the ground-set size before any 2^n
# work, then builds the value table and records the JSON form.
# ---------------------------------------------------------------------------


def _weight_sums(size: int, terms) -> np.ndarray:
    """Per mask, the sum of the weights w whose `hit` is set, for (w, hit)
    in `terms` order, starting from 0.0."""
    table = np.zeros(size)
    for w, hit in terms:
        table += np.where(hit, w, 0.0)
    return table


def linear_objective(weights: Sequence[float]) -> Objective:
    """f(S) = sum of w_e over e in S."""
    if any(w < 0 for w in weights):
        raise ValueError("linear weights must be nonnegative")
    n = len(weights)
    check_ground_size(n)
    weights = [float(w) for w in weights]
    masks = np.arange(1 << n, dtype=np.int64)
    table = _weight_sums(1 << n, ((w, (masks >> e) & 1) for e, w in enumerate(weights)))
    return Objective({"kind": "linear", "weights": weights}, table)


def coverage_objective(covers: Sequence[Iterable[int]], item_weights: Sequence[float]) -> Objective:
    """f(S) = total weight of items covered by at least one element of S."""
    if any(w < 0 for w in item_weights):
        raise ValueError("item weights must be nonnegative")
    covers = [sorted(set(c)) for c in covers]
    if any(not 0 <= i < len(item_weights) for c in covers for i in c):
        raise ValueError("covered item index out of range")
    n = len(covers)
    check_ground_size(n)
    item_weights = [float(w) for w in item_weights]
    covered_by = [0] * len(item_weights)  # item -> mask of the elements covering it
    for e, c in enumerate(covers):
        for i in c:
            covered_by[i] |= 1 << e
    masks = np.arange(1 << n, dtype=np.int64)
    table = _weight_sums(
        1 << n, ((w, (masks & cb) != 0) for w, cb in zip(item_weights, covered_by))
    )
    spec = {"kind": "coverage", "covers": covers, "item_weights": item_weights}
    return Objective(spec, table)


def weighted_rank_objective(matroid: Matroid, weights: Sequence[float]) -> Objective:
    """f(S) = max weight of an independent subset of S (matroid greedy)."""
    if len(weights) != matroid.ground_size:
        raise ValueError("one weight per ground element required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    n = len(weights)
    check_ground_size(n)
    weights = [float(w) for w in weights]
    # the greedy on every mask at once: scan by decreasing weight (ties by
    # index) and keep e when it is in the mask and extends what was kept
    ext = matroid.extension_masks()
    masks = np.arange(1 << n, dtype=np.int64)
    kept = np.zeros(1 << n, dtype=np.int64)
    for e in sorted(range(n), key=lambda i: (-weights[i], i)):
        kept |= masks & ext[kept] & (1 << e)
    table = _weight_sums(1 << n, ((w, (kept >> e) & 1) for e, w in enumerate(weights)))
    spec = {"kind": "weighted_matroid_rank", "matroid": matroid.to_json(), "weights": weights}
    return Objective(spec, table)


# ---------------------------------------------------------------------------
# Multilinear extension
# ---------------------------------------------------------------------------


def product_weights(q: Sequence[float]) -> np.ndarray:
    """Pr[R] for every mask R when each i joins R independently with probability q_i.

    Built by n doublings; index R of the flat result is the mask R.
    """
    w = np.ones(1)
    for qi in q:
        w = np.concatenate((w * (1.0 - qi), w * qi))
    return w


def multilinear_value_from_table(table: Sequence[float], y: Sequence[float]) -> float:
    """F(y) = sum over masks R of Pr_y[R] * f(R): the product weights of y
    dotted with the value table of f, one entry per mask of the 2^n lattice.

    Raises ValueError when y lies outside the unit cube by more than 1e-12,
    and when the table does not have 2^len(y) entries.
    """
    y = np.asarray(y, dtype=float)
    if not np.all((y >= -1e-12) & (y <= 1 + 1e-12)):
        raise ValueError("multilinear argument must lie in the unit cube")
    if len(table) != 1 << len(y):
        raise ValueError("value table and argument differ in dimension")
    return float(product_weights(np.clip(y, 0.0, 1.0)) @ table)


# ---------------------------------------------------------------------------
# Structure checks (test / cmd_verify support), by the matroids' table passes
# ---------------------------------------------------------------------------


def objective_structure_violations(f: Objective) -> list:
    """Check f(empty) = 0, monotonicity f(A + e) >= f(A) and submodularity
    f(A + e) + f(A + g) >= f(A + e + g) + f(A) on the value table: one problem
    per failing element or pair, naming the first failing A.

    The tolerance, 1e-12 * max(1, max |f|), lets rounding in tables of large
    weights pass.  The submodularity gap of any pair (S, T) is a sum of at
    most |S - T| * |T - S| <= 64 local ones (n <= 16), so for max f <= 1 a
    passing table is within 6.4e-11 of submodular on every pair.
    """
    t = f.value_table()
    tol = 1e-12 * max(1.0, float(np.abs(t).max()))
    problems = []
    if abs(t[0]) > tol:
        problems.append("f(empty) != 0")
    for e, a, gain in table_gains(t, f.n):
        bad = np.flatnonzero(gain < -tol)
        if bad.size:
            problems.append(f"monotonicity fails adding {e} to {sorted(bits(int(a[bad[0]])))}")
    for e, g, a, drop in table_gain_drops(t, f.n):
        bad = np.flatnonzero(drop < -tol)
        if bad.size:
            a0 = int(a[bad[0]])
            problems.append(
                f"submodularity fails: adding {e} gains more at "
                f"{sorted(bits(a0 | 1 << g))} than at {sorted(bits(a0))}"
            )
    return problems
