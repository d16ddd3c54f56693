"""Monte Carlo experiment harness: solve the relaxation, fan out seeded policy
trials, aggregate, and compare against the exact adaptive oracle when the
instance is small enough.

Per-trial RNG streams are derived from (seed, trial index), and trials are
aggregated in fixed chunk order, so reports are identical regardless of the
worker count.

The policy is a Markov chain: a state is a function of (probed mask, success
mask, x, outer and inner decompositions), and `apply_step` is deterministic
given a state and its sampled `StepChoices`. The decompositions belong to the
state because each step trims the previous ones: equal (q, s, x) reached
along different paths may carry different decompositions and so draw
different guides. Each chunk therefore computes every distinct transition
once and reuses it for later trials. The choices are still drawn on every
step, so each trial consumes its RNG stream exactly as without reuse and the
sums stay bit-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .engine import apply_step, draw_choices, init_state
from .errors import CapabilityError
from .instances import ProbingInstance
from .oracle import DP_CAP, optimal_adaptive_value
from .relaxation import RelaxedSolution, solve_relaxation
from .seeding import spawn_rng

CHUNK = 512  # trials per aggregation chunk; fixed so job count never changes sums


@dataclass
class ExperimentConfig:
    trials: int = 10000
    seed: int = 0
    mode: str = "auto"  # auto | linear | submodular
    cg_steps: int = 200
    jobs: int = 1
    oracle_cap: int = DP_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.mode not in ("auto", "linear", "submodular"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class ExperimentReport:
    mode: str
    relaxation_value: float
    mc_mean: float
    mc_stderr: float
    trials: int
    seed: int
    steps_mean: float
    oracle_value: Optional[float] = None
    ratio: Optional[float] = None
    target_ratio: float = 0.0
    config: dict = field(default_factory=dict)
    instance_metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "relaxation_value": self.relaxation_value,
            "mc_mean": self.mc_mean,
            "mc_stderr": self.mc_stderr,
            "trials": self.trials,
            "seed": self.seed,
            "steps_mean": self.steps_mean,
            "oracle_value": self.oracle_value,
            "ratio": self.ratio,
            "target_ratio": self.target_ratio,
            "config": self.config,
            "instance_metadata": self.instance_metadata,
        }

    CSV_FIELDS = [
        "mode",
        "relaxation_value",
        "mc_mean",
        "mc_stderr",
        "trials",
        "seed",
        "steps_mean",
        "oracle_value",
        "ratio",
        "target_ratio",
    ]

    def csv_row(self) -> List[str]:
        d = self.to_dict()
        return ["" if d[k] is None else repr(d[k]) for k in self.CSV_FIELDS]


def theoretical_ratio(inst: ProbingInstance, mode: str) -> float:
    k = inst.k_in + inst.k_out
    if mode == "linear":
        return 1.0 / k
    return (1.0 - math.exp(-1.0)) / (k + 1)


def resolve_mode(inst: ProbingInstance, mode: str) -> str:
    if mode == "auto":
        return "linear" if inst.objective.is_linear else "submodular"
    if mode == "linear" and not inst.objective.is_linear:
        raise ValueError("linear mode requires a linear objective")
    return mode


def _run_chunk(inst: ProbingInstance, x0, seed: int, start: int, count: int):
    """Aggregate `count` trials starting at trial index `start`.

    Transitions are reused within the chunk, keyed by the state's value
    (q_mask, s_mask, x, outer and inner terms) and the drawn choices: equal
    states reached along different paths share entries. `apply_step`, and
    with it the feasibility assertion, runs once per distinct transition. Every step probes a new
    element, so the cache holds at most count * n states; it is freed when
    the chunk returns.
    """
    state0 = init_state(inst, x0)
    transitions = {}
    total = 0.0
    total_sq = 0.0
    steps_total = 0
    for t in range(start, start + count):
        rng = spawn_rng(seed, "trial", t)
        state = state0
        steps = 0
        while True:
            choices = draw_choices(state, rng)
            if choices is None:
                break
            key = (
                state.q_mask,
                state.s_mask,
                tuple(state.x),
                tuple(map(tuple, state.outer_terms)),
                tuple(map(tuple, state.inner_terms)),
                choices,
            )
            nxt = transitions.get(key)
            if nxt is None:
                nxt = transitions[key] = apply_step(state, choices)
            state = nxt
            steps += 1
        v = state.objective_value()
        total += v
        total_sq += v * v
        steps_total += steps
    return total, total_sq, steps_total


def mc_policy_value(
    inst: ProbingInstance, x0, trials: int, seed: int, jobs: int = 1
) -> Tuple[float, float, float]:
    """Monte Carlo mean, stderr, and mean step count of f(S^tau)."""
    chunks = [
        (start, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)
    ]
    if jobs > 1 and len(chunks) > 1:
        # fork starts every worker at the first submit: never more than chunks
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            results = list(
                pool.map(
                    _run_chunk_star,
                    [(inst, list(x0), seed, s, c) for s, c in chunks],
                )
            )
    else:
        results = [_run_chunk(inst, list(x0), seed, s, c) for s, c in chunks]
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    steps_total = sum(r[2] for r in results)
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return mean, stderr, steps_total / trials


def _run_chunk_star(args):
    return _run_chunk(*args)


def run_experiment(
    inst: ProbingInstance,
    config: ExperimentConfig,
    relaxed: Optional[RelaxedSolution] = None,
) -> ExperimentReport:
    mode = resolve_mode(inst, config.mode)
    if relaxed is None:
        relaxed = solve_relaxation(inst, cg_steps=config.cg_steps)
    mean, stderr, steps_mean = mc_policy_value(
        inst, relaxed.x0, config.trials, config.seed, jobs=config.jobs
    )
    oracle_value = None
    ratio = None
    if inst.n <= config.oracle_cap:
        try:
            oracle_value = optimal_adaptive_value(inst)
        except CapabilityError:
            oracle_value = None
        if oracle_value:
            ratio = mean / oracle_value
    return ExperimentReport(
        mode=mode,
        relaxation_value=relaxed.objective_value,
        mc_mean=mean,
        mc_stderr=stderr,
        trials=config.trials,
        seed=config.seed,
        steps_mean=steps_mean,
        oracle_value=oracle_value,
        ratio=ratio,
        target_ratio=theoretical_ratio(inst, mode),
        config={
            "trials": config.trials,
            "seed": config.seed,
            "mode": config.mode,
            "cg_steps": config.cg_steps,
        },
        instance_metadata=inst.metadata,
    )
