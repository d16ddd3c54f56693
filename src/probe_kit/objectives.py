"""Objective evaluation: linear and monotone submodular set functions and the
exact multilinear extension F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence

from .matroids import Matroid, bits, check_ground_size, mask_of
from .schema import read_field


@dataclass(frozen=True)
class MultilinearValue:
    value: float
    stderr: float = 0.0


class Objective:
    """Base: a normalized monotone set function over ground set 0..n-1."""

    n: int
    is_linear = False

    def value_mask(self, mask: int) -> float:
        raise NotImplementedError

    def value(self, s: Iterable[int]) -> float:
        mask = mask_of(s)
        if mask >> self.n:
            raise ValueError("element outside the objective's ground set")
        return self.value_mask(mask)

    def value_table(self) -> List[float]:
        """All 2^n values, cached; the exact-mode workhorse (n <= GROUND_CAP)."""
        check_ground_size(self.n)
        cached = getattr(self, "_table", None)
        if cached is None:
            cached = [self.value_mask(m) for m in range(1 << self.n)]
            object.__setattr__(self, "_table", cached)
        return cached

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(d: dict, path: str = "objective") -> "Objective":
        """Parse `d`; `path` locates it in the document for error messages."""

        def get(key, *kinds):
            return read_field(d, key, path, *kinds)

        kind = get("kind", str)
        if kind == "linear":
            return LinearObjective(get("weights", list, float))
        if kind == "coverage":
            return CoverageObjective(
                get("covers", list, list, int), get("item_weights", list, float)
            )
        if kind == "weighted_matroid_rank":
            return WeightedRankObjective(
                Matroid.from_json(get("matroid", dict), f"{path}.matroid"),
                get("weights", list, float),
            )
        raise ValueError(f"{path}.kind: unknown objective kind {kind!r}")


class LinearObjective(Objective):
    def __init__(self, weights: Sequence[float]):
        if any(w < 0 for w in weights):
            raise ValueError("linear weights must be nonnegative")
        self.weights = [float(w) for w in weights]
        self.n = len(self.weights)

    is_linear = True

    def value_mask(self, mask: int) -> float:
        return sum(self.weights[i] for i in bits(mask))

    def to_json(self):
        return {"kind": "linear", "weights": self.weights}


class CoverageObjective(Objective):
    """f(S) = total weight of items covered by at least one element of S."""

    def __init__(self, covers: Sequence[Iterable[int]], item_weights: Sequence[float]):
        if any(w < 0 for w in item_weights):
            raise ValueError("item weights must be nonnegative")
        self.covers = [sorted(set(c)) for c in covers]
        self.item_weights = [float(w) for w in item_weights]
        self.n = len(self.covers)
        n_items = len(item_weights)
        for c in self.covers:
            if any(not 0 <= i < n_items for i in c):
                raise ValueError("covered item index out of range")
        self._cover_masks = [mask_of(c) for c in self.covers]

    is_linear = False

    def value_mask(self, mask: int) -> float:
        covered = 0
        for i in bits(mask):
            covered |= self._cover_masks[i]
        return sum(self.item_weights[j] for j in bits(covered))

    def to_json(self):
        return {
            "kind": "coverage",
            "covers": self.covers,
            "item_weights": self.item_weights,
        }


class WeightedRankObjective(Objective):
    """f(S) = max weight of an independent subset of S (matroid greedy)."""

    def __init__(self, matroid: Matroid, weights: Sequence[float]):
        if len(weights) != matroid.ground_size:
            raise ValueError("one weight per ground element required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        self.matroid = matroid
        self.weights = [float(w) for w in weights]
        self.n = matroid.ground_size
        self._order = sorted(range(self.n), key=lambda i: (-self.weights[i], i))

    is_linear = False

    def value_mask(self, mask: int) -> float:
        best = self.matroid.max_independent_subset(
            i for i in self._order if mask >> i & 1
        )
        return sum(self.weights[i] for i in bits(best))

    def to_json(self):
        return {
            "kind": "weighted_matroid_rank",
            "matroid": self.matroid.to_json(),
            "weights": self.weights,
        }


# ---------------------------------------------------------------------------
# Multilinear extension
# ---------------------------------------------------------------------------


def _split_point(y: Sequence[float]):
    base = 0
    frac = []
    for i, v in enumerate(y):
        if not -1e-12 <= v <= 1 + 1e-12:
            raise ValueError("multilinear argument must lie in the unit cube")
        if v >= 1.0:
            base |= 1 << i
        elif v > 0.0:
            frac.append((i, float(v)))
    return base, frac


def _enumerate_multilinear(value: Callable[[int], float], y: Sequence[float]) -> float:
    """F(y) = sum over masks R of Pr_y[R] * value(R), enumerating only the
    fractional coordinates of y; `value` is `f.value_mask` or a table lookup."""
    base, frac = _split_point(y)
    total = 0.0
    k = len(frac)
    for sub in range(1 << k):
        mask = base
        prob = 1.0
        for j in range(k):
            i, v = frac[j]
            if sub >> j & 1:
                mask |= 1 << i
                prob *= v
            else:
                prob *= 1.0 - v
        total += prob * value(mask)
    return total


def multilinear_exact(f: Objective, y: Sequence[float]) -> MultilinearValue:
    """F(y) by exact enumeration over the fractional coordinates of y."""
    check_ground_size(f.n)
    if len(y) != f.n:
        raise ValueError("dimension mismatch")
    return MultilinearValue(_enumerate_multilinear(f.value_mask, y), 0.0)


def multilinear_value_from_table(table: Sequence[float], y: Sequence[float]) -> float:
    """F(y) using a precomputed value table; hot path for the engine."""
    return _enumerate_multilinear(table.__getitem__, y)


# ---------------------------------------------------------------------------
# Structure checks (test / cmd_verify support)
# ---------------------------------------------------------------------------


def objective_structure_violations(f: Objective, limit: int = 10) -> list:
    """Exhaustive check of normalization, monotonicity, and submodularity."""
    if f.n > limit:
        raise ValueError(f"structure check limited to {limit} elements")
    table = f.value_table()
    problems = []
    if abs(table[0]) > 1e-12:
        problems.append("f(empty) != 0")
    full = (1 << f.n) - 1
    for mask in range(1 << f.n):
        for i in bits(full & ~mask):
            if table[mask | (1 << i)] < table[mask] - 1e-12:
                problems.append(f"monotonicity fails adding {i} to {mask:b}")
    for s in range(1 << f.n):
        for t in range(s + 1, 1 << f.n):
            if table[s | t] + table[s & t] > table[s] + table[t] + 1e-9:
                problems.append(f"submodularity fails at masks {s:b}, {t:b}")
                if len(problems) > 20:
                    return problems
    return problems
