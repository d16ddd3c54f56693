"""Probing instances: the (E, p, f, inner matroids, outer matroids) bundle,
its JSON schema, and generators for the application domains plus random
property-test instances.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import List, Sequence

from .matroids import (
    Matroid,
    check_ground_size,
    explicit_matroid,
    graphic_matroid,
    matroid_axiom_violations,
    partition_matroid,
    uniform_matroid,
)
from .objectives import (
    Objective,
    coverage_objective,
    linear_objective,
    objective_structure_violations,
    weighted_rank_objective,
)
from .schema import read_field


@dataclass
class ProbingInstance:
    n: int
    p: List[float]
    objective: Objective
    inner: List[Matroid]
    outer: List[Matroid]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.p) != self.n:
            raise ValueError("one activation probability per element required")
        if any(not 0.0 <= v <= 1.0 for v in self.p):
            raise ValueError("activation probabilities must lie in [0,1]")
        if self.objective.n != self.n:
            raise ValueError("objective ground set mismatch")
        if len(self.outer) < 1:
            raise ValueError("at least one outer matroid is required")
        for m in itertools.chain(self.inner, self.outer):
            if m.ground_size != self.n:
                raise ValueError("all matroids must share the ground set")

    @property
    def k_in(self) -> int:
        return len(self.inner)

    @property
    def k_out(self) -> int:
        return len(self.outer)

    def to_json(self) -> dict:
        return {
            "ground": {"size": self.n},
            "p": self.p,
            "objective": self.objective.to_json(),
            "inner": [m.to_json() for m in self.inner],
            "outer": [m.to_json() for m in self.outer],
            "metadata": self.metadata,
        }

    @staticmethod
    def from_json(d: dict) -> "ProbingInstance":
        """Parse an instance document; a missing or mistyped field raises
        ValueError naming its path (e.g. ``outer[0].capacities``)."""

        def get(key, *kinds, lo=None, hi=None):
            return read_field(d, key, "", *kinds, lo=lo, hi=hi)

        return ProbingInstance(
            n=read_field(get("ground", dict), "size", "ground", int, lo=1),
            p=[float(v) for v in get("p", list, float, lo=0, hi=1)],
            objective=Objective.from_json(get("objective", dict)),
            inner=[
                Matroid.from_json(m, f"inner[{j}]") for j, m in enumerate(get("inner", list, dict))
            ],
            outer=[
                Matroid.from_json(m, f"outer[{j}]") for j, m in enumerate(get("outer", list, dict))
            ],
            metadata=get("metadata", dict) if "metadata" in d else {},
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ProbingInstance":
        with open(path) as fh:
            return ProbingInstance.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_bipartite_matching(
    n_left: int,
    n_right: int,
    patience_left: Sequence[int],
    patience_right: Sequence[int],
    edge_prob: float,
    rng: random.Random,
    objective_kind: str = "linear",
) -> ProbingInstance:
    """Stochastic matching with patience: universe = sampled edges.

    Inner constraints make the successful set a matching (one partition
    matroid per side, capacity 1 per vertex); outer constraints cap the number
    of probed edges per vertex at its patience.
    """
    if any(t < 1 for t in patience_left) or any(t < 1 for t in patience_right):
        raise ValueError("patience must be >= 1 for every vertex")
    edges = [
        (u, v)
        for u in range(n_left)
        for v in range(n_right)
        if rng.random() < edge_prob
    ]
    if not edges:
        edges = [(rng.randrange(n_left), rng.randrange(n_right))]
    n = len(edges)
    left_parts = [[i for i, (u, _) in enumerate(edges) if u == u0] for u0 in range(n_left)]
    right_parts = [[i for i, (_, v) in enumerate(edges) if v == v0] for v0 in range(n_right)]
    inner = [
        partition_matroid(n, left_parts, [1] * n_left),
        partition_matroid(n, right_parts, [1] * n_right),
    ]
    outer = [
        partition_matroid(n, left_parts, list(patience_left)),
        partition_matroid(n, right_parts, list(patience_right)),
    ]
    p = [round(rng.uniform(0.1, 0.9), 4) for _ in range(n)]
    if objective_kind == "linear":
        objective = linear_objective([round(rng.uniform(0.5, 2.0), 4) for _ in range(n)])
    elif objective_kind == "coverage":
        # items = right-side vertices; an edge covers its right endpoint
        objective = coverage_objective(
            covers=[[v] for (_, v) in edges],
            item_weights=[round(rng.uniform(0.5, 2.0), 4) for _ in range(n_right)],
        )
    else:
        raise ValueError(f"unsupported objective kind {objective_kind!r}")
    return ProbingInstance(
        n=n,
        p=p,
        objective=objective,
        inner=inner,
        outer=outer,
        metadata={"generator": "bipartite_matching", "edges": [list(e) for e in edges]},
    )


def gen_posted_pricing(
    n_agents: int,
    price_levels: int,
    feasibility: Matroid,
    valuation_pmfs: Sequence[Sequence[float]],
) -> ProbingInstance:
    """Sequential posted pricing as probing over offers (agent, price).

    p_(i,c) is the tail probability P[v_i >= c] and the weight is the price c.
    The outer partition matroid allows one offer per agent; the inner matroid
    is the feasibility system on agents lifted to the offer universe.
    """
    if feasibility.ground_size != n_agents:
        raise ValueError("feasibility matroid must live on the agents")
    prices = list(range(price_levels + 1))
    universe = [(i, c) for i in range(n_agents) for c in prices]
    n = len(universe)
    check_ground_size(n)
    p = []
    for i, c in universe:
        pmf = valuation_pmfs[i]
        if len(pmf) != price_levels + 1 or abs(sum(pmf) - 1.0) > 1e-9:
            raise ValueError("each valuation pmf must cover prices 0..B and sum to 1")
        p.append(float(sum(pmf[c:])))
    weights = [float(c) for _, c in universe]
    agent_parts = [
        [j for j, (i, _) in enumerate(universe) if i == i0] for i0 in range(n_agents)
    ]
    outer = [partition_matroid(n, agent_parts, [1] * n_agents)]
    # lifted inner matroid: offers with distinct agents whose agent set is feasible
    indep_sets = []
    for agent_set in range(1 << n_agents):
        agents = [i for i in range(n_agents) if agent_set >> i & 1]
        if not feasibility.is_independent(agents):
            continue
        for combo in itertools.product(*[agent_parts[i] for i in agents]):
            indep_sets.append(list(combo))
    inner = [explicit_matroid(n, indep_sets + [[]])]
    return ProbingInstance(
        n=n,
        p=p,
        objective=linear_objective(weights),
        inner=inner,
        outer=outer,
        metadata={
            "generator": "posted_pricing",
            "universe": [list(u) for u in universe],
        },
    )


def _random_matroid(n: int, rng: random.Random) -> Matroid:
    kind = rng.choice(["uniform", "partition", "graphic", "explicit"])
    if kind == "uniform":
        return uniform_matroid(n, rng.randint(1, n))
    if kind == "partition":
        elems = list(range(n))
        rng.shuffle(elems)
        parts = []
        while elems:
            size = rng.randint(1, min(3, len(elems)))
            parts.append(sorted(elems[:size]))
            elems = elems[size:]
        caps = [rng.randint(1, len(p)) for p in parts]
        return partition_matroid(n, parts, caps)
    if kind == "graphic":
        n_vertices = rng.randint(2, max(2, n))
        edges = [
            (rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(n)
        ]
        edges = [(u, v) if u != v else (u, (v + 1) % n_vertices) for u, v in edges]
        # loops would make elements never probeable; reroll self loops above
        m = graphic_matroid(n_vertices, edges)
        if all(m.is_independent({e}) for e in range(n)):
            return m
        return uniform_matroid(n, rng.randint(1, n))
    return _random_explicit_matroid(n, rng)


def _random_explicit_matroid(n: int, rng: random.Random, max_tries: int = 60) -> Matroid:
    """Sample basis families and keep the first downward closure passing axioms."""
    for _ in range(max_tries):
        r = rng.randint(1, min(3, n))
        n_bases = rng.randint(1, 4)
        bases = set()
        for _ in range(n_bases):
            bases.add(frozenset(rng.sample(range(n), r)))
        sets = [sorted(b) for b in bases]
        m = explicit_matroid(n, sets + [[]])
        cover = set().union(*bases)
        if cover != set(range(n)):
            continue  # elements outside every basis would be loops
        if not matroid_axiom_violations(m):
            return m
    return uniform_matroid(n, rng.randint(1, n))


def gen_random(
    n: int,
    k_in: int,
    k_out: int,
    objective_kind: str,
    rng: random.Random,
) -> ProbingInstance:
    """Random instance of up to GROUND_CAP elements; all matroids pass axiom checks."""
    if k_out < 1:
        raise ValueError("at least one outer matroid is required")
    check_ground_size(n)
    inner = [_random_matroid(n, rng) for _ in range(k_in)]
    outer = [_random_matroid(n, rng) for _ in range(k_out)]
    p = [round(rng.uniform(0.1, 1.0), 4) for _ in range(n)]
    if objective_kind == "linear":
        objective = linear_objective([round(rng.uniform(0.2, 2.0), 4) for _ in range(n)])
    elif objective_kind == "coverage":
        n_items = rng.randint(max(2, n // 2), n + 2)
        covers = [
            sorted(rng.sample(range(n_items), rng.randint(1, min(3, n_items))))
            for _ in range(n)
        ]
        objective = coverage_objective(
            covers, [round(rng.uniform(0.2, 2.0), 4) for _ in range(n_items)]
        )
    elif objective_kind == "weighted_matroid_rank":
        objective = weighted_rank_objective(
            _random_matroid(n, rng), [round(rng.uniform(0.2, 2.0), 4) for _ in range(n)]
        )
    else:
        raise ValueError(f"unsupported objective kind {objective_kind!r}")
    return ProbingInstance(
        n=n,
        p=p,
        objective=objective,
        inner=inner,
        outer=outer,
        metadata={"generator": "random", "objective_kind": objective_kind},
    )


def matroid_problems(inst: ProbingInstance, explicit_only: bool = False) -> list:
    """The matroid axiom violations of every inner and outer matroid, or of
    the explicit families only: the other kinds build true rank functions,
    so only a listed family can fail."""
    problems = []
    for label, matroids in (("inner", inst.inner), ("outer", inst.outer)):
        for j, m in enumerate(matroids):
            if not explicit_only or m.kind_name == "explicit":
                problems += [f"{label} matroid {j}: {v}" for v in matroid_axiom_violations(m)]
    return problems


def verify_instance(inst: ProbingInstance) -> list:
    """Structural diagnostics used by the CLI verify command: the matroid
    axioms of every constraint and the structure of the objective."""
    problems = matroid_problems(inst)
    problems += [f"objective: {v}" for v in objective_structure_violations(inst.objective)]
    return problems
