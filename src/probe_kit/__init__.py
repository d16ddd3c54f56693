"""Stochastic probing on matroid intersections: relaxations, iterative
randomized rounding, and exact desk-scale oracles."""

from .engine import PolicyState, Trace, init_state, potential
from .errors import CapabilityError, InvariantViolation, VerificationError
from .harness import ExperimentConfig, ExperimentReport, run_experiment, run_policy
from .instances import (
    ProbingInstance,
    gen_bipartite_matching,
    gen_posted_pricing,
    gen_random,
)
from .matroids import (
    Matroid,
    explicit_matroid,
    free_matroid,
    graphic_matroid,
    partition_matroid,
    uniform_matroid,
)
from .objectives import (
    Objective,
    coverage_objective,
    linear_objective,
    multilinear_value_from_table,
    weighted_rank_objective,
)
from .oracle import optimal_adaptive_value
from .polytope import decompose_masks, in_polytope, support_update_masks
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
