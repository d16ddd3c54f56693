"""Monte Carlo experiment harness: solve the relaxation, fan out seeded policy
trials, aggregate, and compare against the exact adaptive oracle when the
instance is small enough.

Trials run in chunks of CHUNK. Each chunk draws from one RNG stream derived
from (seed, chunk index), and its trials walk from that stream in trial
order; chunks are aggregated in fixed order, so reports are identical
regardless of the worker count.

The policy is a Markov chain: a state is a function of (probed mask, success
mask, x, outer and inner decompositions), and `apply_step` is deterministic
given a state and its sampled `StepChoices`. The masks also fix the
matroids: a step reads the instance's outer matroids contracted by the
probed mask and its inner ones contracted by the success mask, so a state
holds no matroid of its own. The decompositions belong to the
state because each step trims the previous ones: equal (q, s, x) reached
along different paths may carry different decompositions and so draw
different guides. `walk` is the one loop over that chain. It runs one trial
from a state to termination over a transition graph: every state
`apply_step` returns goes through `engine.intern`, which keeps one state per
value (`PolicyState.key`) in the graph's store and certifies each new one,
and is recorded in the `children` of the state it came from, keyed by the
flat tuple `draw_choices` returns. A repeated step is then a draw from the
state's cached tables and a lookup of that tuple; the `StepChoices` that
`apply_step` takes are built only on a miss. `apply_step` runs once per
distinct transition, and the feasibility assertion once per distinct state
the graph holds: a successor equal to a stored state is dropped unchecked,
since the certificate reads only what the key and the instance fix. The
choices are still drawn on every step, so each trial consumes its chunk's
RNG stream exactly as without reuse and the sums stay bit-identical. A walk
of more than n steps raises `InvariantViolation`, since every step probes a
new element. An optional sink sees each step as (state, choices, next
state); `run_policy` uses one to record a `Trace`.

An experiment walks one graph: it builds the initial state once, interns it
(so the root is certified like every other state) and adds at most
CHUNK * n states per chunk. At a chunk boundary a graph holding more
than STORE_CAP states is dropped and the walk starts again from a fresh
initial state. Under `jobs` > 1 each worker walks its own graph over a
contiguous share of the chunks; the worker pool, and `multiprocessing` with
it, is imported at its first use. The graph is freed when the experiment
returns, by reference counting alone: it holds no reference cycle (a state
references the instance and its successors, and nothing it reaches refers
back), so the chunks are walked with the cyclic collector paused, and a
collection never rescans a graph of thousands of states.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from typing import Callable, List, Optional, Tuple

from .engine import (
    PolicyState,
    StepChoices,
    StepRecord,
    Trace,
    apply_step,
    draw_choices,
    init_state,
    intern,
)
from .errors import CapabilityError, InvariantViolation
from .instances import ProbingInstance
from .oracle import optimal_adaptive_value
from .relaxation import RelaxedSolution, solve_relaxation
from .seeding import spawn_rng

CHUNK = 512  # trials per aggregation chunk; fixed so job count never changes sums
STORE_CAP = 16_384  # states an experiment keeps, checked at chunk boundaries


@dataclass
class ExperimentConfig:
    trials: int = 10000
    seed: int = 0
    cg_steps: int = 200
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cg_steps < 1:
            raise ValueError("cg_steps must be >= 1")


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
        return asdict(self)

    def csv_row(self) -> List[str]:
        d = self.to_dict()
        return ["" if d[k] is None else repr(d[k]) for k in CSV_FIELDS]


# the CSV report's columns: every report field but the two nested dicts
CSV_FIELDS = [
    f.name for f in fields(ExperimentReport) if f.name not in ("config", "instance_metadata")
]


def ProcessPoolExecutor(*args, **kwargs):
    """`concurrent.futures.ProcessPoolExecutor`, imported at the first call:
    the pool loads `multiprocessing`, which only `--jobs` above 1 needs."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(*args, **kwargs)


def theoretical_ratio(inst: ProbingInstance) -> float:
    """The paper's guarantee: 1/(k_in+k_out) for a linear objective, and
    (1-1/e)/(k_in+k_out+1) for a monotone submodular one."""
    k = inst.k_in + inst.k_out
    if inst.objective.is_linear:
        return 1.0 / k
    return (1.0 - math.exp(-1.0)) / (k + 1)


def walk(
    state: PolicyState,
    rng: random.Random,
    store: dict,
    sink: Optional[Callable[[PolicyState, StepChoices, PolicyState], None]] = None,
) -> Tuple[PolicyState, int]:
    """Run one trial from `state` to termination over the transition graph
    that `store` interns; return the final state and the number of steps."""
    inst = state.inst
    limit = inst.n
    steps = 0
    while (draw := draw_choices(state, rng)) is not None:
        nxt = state.children.get(draw)
        if nxt is None:
            choices = StepChoices.from_draw(inst, draw)  # built for a new step only
            nxt = state.children[draw] = intern(store, apply_step(state, choices))
        if sink is not None:
            sink(state, StepChoices.from_draw(inst, draw), nxt)
        state = nxt
        steps += 1
        if steps > limit:
            raise InvariantViolation("more steps than ground elements")
    return state, steps


def _step_record(state: PolicyState, choices: StepChoices, nxt: PolicyState) -> StepRecord:
    p = state.inst.p
    return StepRecord(
        element=choices.element,
        selection_probability=state.x[choices.element] / state.sigma,
        active=choices.active,
        outer_guides=choices.outer_guides,
        inner_guides=choices.inner_guides,
        deltas=[p[i] * (state.x[i] - nxt.x[i]) for i in range(state.inst.n)],
        z_before=state.z,
        z_after=nxt.z,
        f_before=state.objective_value,
        f_after=nxt.objective_value,
    )


def run_policy(inst: ProbingInstance, x0, rng: random.Random) -> Trace:
    """Run the policy once to termination, recording a trace of every step."""
    steps, store = [], {}
    root = intern(store, init_state(inst, x0))
    state, _ = walk(root, rng, store, lambda *step: steps.append(_step_record(*step)))
    return Trace(steps, state.successes, state.probed, state.objective_value)


def _run_chunks(inst: ProbingInstance, x0, seed: int, chunks) -> List[tuple]:
    """(sum, sum of squares, steps) of f(S) for each (start, count) chunk, in
    order, over one transition graph.

    The walk runs with the cyclic garbage collector paused, and the caller's
    collector state is restored on the way out: the graph holds no reference
    cycle (a state references the instance and its successors only), so
    reference counting frees it, and a collection would only rescan it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        results = []
        root = None
        store = {}
        for start, count in chunks:
            if root is None or len(store) > STORE_CAP:
                store = {}
                root = intern(store, init_state(inst, x0))
            rng = spawn_rng(seed, "chunk", start // CHUNK)
            total = 0.0
            total_sq = 0.0
            steps = 0
            for _ in range(count):
                state, n_steps = walk(root, rng, store)
                v = state.objective_value
                total += v
                total_sq += v * v
                steps += n_steps
            results.append((total, total_sq, steps))
        return results
    finally:
        if enabled:
            gc.enable()


def mc_policy_value(
    inst: ProbingInstance, x0, trials: int, seed: int, jobs: int = 1
) -> Tuple[float, float, float]:
    """Monte Carlo mean, stderr, and mean step count of f(S^tau)."""
    chunks = [
        (start, min(CHUNK, trials - start)) for start in range(0, trials, CHUNK)
    ]
    workers = min(jobs, len(chunks))
    if workers > 1:
        shares = [
            chunks[len(chunks) * w // workers : len(chunks) * (w + 1) // workers]
            for w in range(workers)
        ]
        # fork starts every worker at the first submit: never more than chunks
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_worker = list(
                pool.map(_run_chunks, repeat(inst), repeat(list(x0)), repeat(seed), shares)
            )
        results = [r for share in per_worker for r in share]
    else:
        results = _run_chunks(inst, list(x0), seed, chunks)
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


def run_experiment(
    inst: ProbingInstance,
    config: ExperimentConfig,
    relaxed: Optional[RelaxedSolution] = None,
) -> ExperimentReport:
    if relaxed is None:
        relaxed = solve_relaxation(inst, cg_steps=config.cg_steps)
    mean, stderr, steps_mean = mc_policy_value(
        inst, relaxed.x0, config.trials, config.seed, jobs=config.jobs
    )
    try:
        oracle_value = optimal_adaptive_value(inst)
    except CapabilityError:
        oracle_value = None
    ratio = mean / oracle_value if oracle_value else None
    return ExperimentReport(
        mode="linear" if inst.objective.is_linear else "submodular",
        relaxation_value=relaxed.objective_value,
        mc_mean=mean,
        mc_stderr=stderr,
        trials=config.trials,
        seed=config.seed,
        steps_mean=steps_mean,
        oracle_value=oracle_value,
        ratio=ratio,
        target_ratio=theoretical_ratio(inst),
        config={
            "trials": config.trials,
            "seed": config.seed,
            "cg_steps": config.cg_steps,
        },
        instance_metadata=inst.metadata,
    )
