"""Stochastic probing on matroid intersections: relaxations, iterative
randomized rounding, and exact desk-scale oracles."""

from .engine import PolicyState, Trace, init_state, potential, run_policy, simulate_value
from .errors import CapabilityError, InvariantViolation, VerificationError
from .harness import ExperimentConfig, ExperimentReport, run_experiment
from .instances import (
    ProbingInstance,
    gen_bipartite_matching,
    gen_posted_pricing,
    gen_random,
)
from .matroids import (
    ExchangeMap,
    Matroid,
    exchange_map,
    explicit_matroid,
    free_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from .objectives import (
    CoverageObjective,
    LinearObjective,
    Objective,
    WeightedRankObjective,
    f_plus_bruteforce,
    multilinear_exact,
    multilinear_sample,
)
from .oracle import optimal_adaptive_value, optimal_policy_tree, policy_value_exact
from .polytope import ConvexDecomposition, decompose, in_polytope, support_update
from .relaxation import (
    LinearProgram,
    RelaxedSolution,
    build_probing_lp,
    continuous_greedy,
    solve_lp,
    solve_relaxation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
