"""Monte Carlo harness: one transition graph per experiment (per worker under
`jobs`) keeps sums exact, runs `apply_step` once per distinct transition,
restarts above STORE_CAP and is freed on return; the one policy walk gives
traced and Monte Carlo runs the same values and stops a chain that does not
end; `jobs` is checked and never starts more workers than there are chunks."""

import gc
import math
import weakref

import pytest

import probe_kit.engine
import probe_kit.harness
from probe_kit.cli import main
from probe_kit.engine import init_state
from probe_kit.errors import InvariantViolation
from probe_kit.harness import CHUNK, ExperimentConfig, mc_policy_value, run_policy, walk
from probe_kit.relaxation import solve_relaxation
from probe_kit.seeding import spawn_rng

from conftest import random_instance, simulate_value

TRIALS = 1100  # two full chunks and a partial one


def _reference(inst, x0, trials, seed, monkeypatch):
    """The uncached loop: one simulate_value per trial, summed in chunk order."""
    steps = [0]
    apply_step = probe_kit.engine.apply_step

    def counting(state, choices):
        steps[0] += 1
        return apply_step(state, choices)

    totals = []
    with monkeypatch.context() as patch:
        patch.setattr(probe_kit.engine, "apply_step", counting)
        for start in range(0, trials, CHUNK):
            total = total_sq = 0.0
            for t in range(start, min(start + CHUNK, trials)):
                v = simulate_value(inst, x0, spawn_rng(seed, "trial", t))
                total += v
                total_sq += v * v
            totals.append((total, total_sq))
    total = sum(t[0] for t in totals)
    total_sq = sum(t[1] for t in totals)
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials), steps[0] / trials


@pytest.mark.parametrize("seed, objective", [(3, "linear"), (4, "coverage"), (8, "coverage")])
def test_sums_match_uncached_loop_bit_for_bit(seed, objective, monkeypatch):
    inst = random_instance(seed, objective=objective)
    x0 = solve_relaxation(inst, cg_steps=20).x0
    expected = _reference(inst, x0, TRIALS, seed, monkeypatch)
    assert mc_policy_value(inst, x0, TRIALS, seed) == expected


@pytest.fixture()
def roots(monkeypatch):
    """The initial states the harness builds, one per transition graph."""
    built = []
    init_state = probe_kit.harness.init_state

    def recording_init(*args):
        built.append(init_state(*args))
        return built[-1]

    monkeypatch.setattr(probe_kit.harness, "init_state", recording_init)
    return built


def test_apply_step_runs_once_per_distinct_transition(monkeypatch, roots):
    inst = random_instance(5, n=7, k_in=1, k_out=2)
    x0 = solve_relaxation(inst).x0
    steps, computed = [], []
    draw_choices = probe_kit.harness.draw_choices
    apply_step = probe_kit.harness.apply_step

    def recording_draw(state, rng):
        choices = draw_choices(state, rng)
        if choices is not None:
            steps.append(state.key + (choices,))
        return choices

    def counting_apply(state, choices):
        computed.append(state.key + (choices,))
        return apply_step(state, choices)

    monkeypatch.setattr(probe_kit.harness, "draw_choices", recording_draw)
    monkeypatch.setattr(probe_kit.harness, "apply_step", counting_apply)
    mc_policy_value(inst, x0, TRIALS, seed=1)  # three chunks, one graph
    assert len(roots) == 1
    assert len(computed) == len(set(steps)) == len(set(computed))
    assert len(computed) < len(steps)


def test_store_cap_restarts_the_graph(monkeypatch, roots):
    inst = random_instance(3, objective="linear")
    x0 = solve_relaxation(inst).x0
    expected = _reference(inst, x0, TRIALS, 3, monkeypatch)
    monkeypatch.setattr(probe_kit.harness, "STORE_CAP", 4)
    assert mc_policy_value(inst, x0, TRIALS, 3) == expected
    assert len(roots) == 3  # every chunk boundary found more than 4 states


@pytest.mark.parametrize("seed, objective", [(5, "linear"), (8, "coverage")])
def test_traces_match_the_monte_carlo_walk(seed, objective):
    """Same final value and step count per trial stream, on a fresh graph and
    on one that earlier trials filled, and the same experiment totals."""
    inst = random_instance(seed, objective=objective)
    x0 = solve_relaxation(inst, cg_steps=20).x0
    trials = 300  # one chunk, so the experiment's sums are the plain running sums
    root, store = init_state(inst, x0), {}
    total, steps = 0.0, 0
    for t in range(trials):
        trace = run_policy(inst, x0, spawn_rng(seed, "trial", t))
        for start, graph in ((init_state(inst, x0), {}), (root, store)):
            state, n_steps = walk(start, spawn_rng(seed, "trial", t), graph)
            assert (state.objective_value(), n_steps) == (trace.final_value, len(trace))
        total += trace.final_value
        steps += len(trace)
    assert len(store) < steps  # the filled graph was walked again
    mean, _, steps_mean = mc_policy_value(inst, x0, trials, seed)
    assert (mean, steps_mean) == (total / trials, steps / trials)


def test_a_chain_that_never_ends_raises(monkeypatch):
    inst = random_instance(3, objective="linear")
    x0 = solve_relaxation(inst).x0
    monkeypatch.setattr(probe_kit.harness, "apply_step", lambda state, choices: state)
    with pytest.raises(InvariantViolation, match="more steps than ground elements"):
        mc_policy_value(inst, x0, 10, seed=1)


def test_graph_is_freed_on_return(monkeypatch):
    inst = random_instance(8, objective="coverage")
    x0 = solve_relaxation(inst, cg_steps=20).x0
    stored = []
    apply_step = probe_kit.harness.apply_step

    def recording_apply(state, choices):
        nxt = apply_step(state, choices)
        stored.append(weakref.ref(nxt))
        return nxt

    monkeypatch.setattr(probe_kit.harness, "apply_step", recording_apply)
    mc_policy_value(inst, x0, TRIALS, seed=4)
    assert stored
    assert all(ref() is None for ref in stored)  # freed by reference counting
    gc.collect()
    assert all(ref() is None for ref in stored)


def test_jobs_do_not_change_the_report(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["generate", "--size", "6", "--k-in", "1", "--seed", "4", "--out", str(inst)]) == 0
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        argv = ["run", "--instance", str(inst), "--trials", str(TRIALS), "--seed", "7"]
        assert main(argv + ["--jobs", str(jobs), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[1] == reports[0]


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and each
    worker's arguments, maps in process."""

    sizes = []
    calls = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        args = list(iterable)
        self.calls.append(args)
        return map(fn, args)


@pytest.fixture()
def in_process_pool(monkeypatch):
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(InProcessPool, "calls", [])
    monkeypatch.setattr(probe_kit.harness, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool


def test_pool_never_exceeds_the_chunk_count(in_process_pool):
    inst = random_instance(6, objective="coverage")
    x0 = solve_relaxation(inst, cg_steps=20).x0
    trials = 2 * CHUNK
    pooled = mc_policy_value(inst, x0, trials, seed=2, jobs=64)
    assert in_process_pool.sizes == [2]
    assert pooled == mc_policy_value(inst, x0, trials, seed=2, jobs=1)
    assert in_process_pool.sizes == [2]  # jobs=1 runs without a pool


def test_workers_walk_their_own_graphs_with_unchanged_sums(in_process_pool, roots):
    inst = random_instance(4, objective="coverage")
    x0 = solve_relaxation(inst, cg_steps=20).x0
    pooled = mc_policy_value(inst, x0, TRIALS, seed=6, jobs=3)
    assert in_process_pool.sizes == [3]
    shares = [args[-1] for args in in_process_pool.calls[0]]
    assert shares == [[(0, CHUNK)], [(CHUNK, CHUNK)], [(2 * CHUNK, TRIALS - 2 * CHUNK)]]
    assert len(roots) == 3  # one graph per worker
    roots.clear()
    assert pooled == mc_policy_value(inst, x0, TRIALS, seed=6, jobs=1)
    assert len(roots) == 1


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs, tmp_path, capsys):
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(jobs=jobs)
    inst = tmp_path / "inst.json"
    assert main(["generate", "--size", "4", "--seed", "1", "--out", str(inst)]) == 0
    argv = ["run", "--instance", str(inst), "--trials", "10", "--jobs", str(jobs)]
    assert main(argv) == 1
    assert "Invalid value for '--jobs'" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_rejected(trials, tmp_path, capsys):
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=trials)
    inst = tmp_path / "inst.json"
    assert main(["generate", "--size", "4", "--seed", "1", "--out", str(inst)]) == 0
    assert main(["run", "--instance", str(inst), "--trials", str(trials)]) == 1
    assert "Invalid value for '--trials'" in capsys.readouterr().err
