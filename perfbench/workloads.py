"""Seeded instance pools for the probe-kit benchmark.

Every pool is a pure function of (workload, pool seed).  The parameters that
set an instance's cost (ground-set size, constraint counts, edge count) are
fixed per slot, so pools drawn from different seeds do comparable work; the
seed draws the content (matroids, probabilities, weights, covers, edges).  No
instance is ever dropped or re-drawn because it is slow or fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from probe_kit.instances import ProbingInstance, gen_bipartite_matching, gen_random
from probe_kit.seeding import spawn_rng

# (n, k_in, k_out, objective) per slot: covers n 6-8, k_in 0-2, k_out 1-2,
# with linear and coverage alternating
ACCEPTANCE_SLOTS = (
    (6, 0, 1, "linear"),
    (6, 1, 2, "coverage"),
    (7, 2, 1, "linear"),
    (7, 0, 2, "coverage"),
    (8, 1, 1, "linear"),
    (8, 2, 2, "coverage"),
    (7, 1, 2, "linear"),
    (8, 2, 1, "coverage"),
)
MATCHING_SIDE = 4
MATCHING_EDGE_PROB = 0.9
MATCHING_PATIENCE = 2
MATCHING_EDGE_COUNTS = (12, 13, 14, 15)


@dataclass(frozen=True)
class Workload:
    name: str  # each workload's rationale is its "why" in BENCHMARK.json
    size: int  # instances in the pool
    trials: int  # Monte Carlo trials per experiment
    make: Callable[[int, int], ProbingInstance]  # (seed, slot) -> instance
    cg_steps: int = 200  # continuous-greedy steps (the CLI default)

    def pool(self, seed: int, size: int = 0) -> List[ProbingInstance]:
        return [self.make(seed, slot) for slot in range(size or self.size)]


def _acceptance_mix(seed: int, slot: int) -> ProbingInstance:
    n, k_in, k_out, objective = ACCEPTANCE_SLOTS[slot % len(ACCEPTANCE_SLOTS)]
    rng = spawn_rng(seed, "perfbench", "acceptance-mix", slot)
    return gen_random(n, k_in, k_out, objective, rng)


def _cg_coverage(seed: int, slot: int) -> ProbingInstance:
    rng = spawn_rng(seed, "perfbench", "cg-coverage", slot)
    return gen_random(10, 1, 1, "coverage", rng)


def _matching_edge_count(*path) -> int:
    """Edges gen_bipartite_matching would draw from spawn_rng(*path).

    The generator's first draws are one `random() < edge_prob` per (left,
    right) pair in row order; replaying them avoids building the 2^|E| rank
    tables of graphs the slot does not take.
    """
    rng = spawn_rng(*path)
    pairs = MATCHING_SIDE * MATCHING_SIDE
    return sum(rng.random() < MATCHING_EDGE_PROB for _ in range(pairs))


def _matching_wide(seed: int, slot: int) -> ProbingInstance:
    """First graph of the slot's stream with the slot's edge count.

    Slots cycle through |E| = 12..15, so every pool holds the same mix of
    2^|E| rank tables and LP rows whatever the seed.
    """
    target = MATCHING_EDGE_COUNTS[slot % len(MATCHING_EDGE_COUNTS)]
    draw = 0
    while _matching_edge_count(seed, "perfbench", "matching-wide", slot, draw) != target:
        draw += 1
    rng = spawn_rng(seed, "perfbench", "matching-wide", slot, draw)
    patience = [MATCHING_PATIENCE] * MATCHING_SIDE
    inst = gen_bipartite_matching(
        MATCHING_SIDE, MATCHING_SIDE, patience, patience, MATCHING_EDGE_PROB, rng
    )
    if inst.n != target:
        raise RuntimeError("gen_bipartite_matching no longer draws edges first")
    return inst


WORKLOADS = {
    w.name: w
    for w in (
        # 50 continuous-greedy steps keep the coverage half's relaxation from
        # outweighing the Monte Carlo loop; cg-coverage measures 200 steps
        Workload("acceptance-mix", size=len(ACCEPTANCE_SLOTS), trials=1024,
                 make=_acceptance_mix, cg_steps=50),
        # 1024 trials give trials_per_s ~0.4 s of Monte Carlo per experiment to
        # time; shorter timings suffer most from other tenants' bursts
        Workload("cg-coverage", size=2, trials=1024, make=_cg_coverage),
        Workload("matching-wide", size=len(MATCHING_EDGE_COUNTS), trials=256, make=_matching_wide),
    )
}
