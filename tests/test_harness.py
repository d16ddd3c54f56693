"""Monte Carlo harness: transition reuse within a chunk keeps sums exact, and
`jobs` is checked and never starts more workers than there are chunks."""

import math

import pytest

import probe_kit.engine
import probe_kit.harness
from probe_kit.cli import main
from probe_kit.engine import simulate_value
from probe_kit.harness import CHUNK, ExperimentConfig, mc_policy_value
from probe_kit.relaxation import solve_relaxation
from probe_kit.seeding import spawn_rng

from conftest import random_instance

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


def test_apply_step_runs_once_per_distinct_transition(monkeypatch):
    inst = random_instance(5, n=7, k_in=1, k_out=2)
    x0 = solve_relaxation(inst).x0
    steps, computed = [], []
    draw_choices = probe_kit.harness.draw_choices
    apply_step = probe_kit.harness.apply_step

    def key(state, choices):
        return (
            state.q_mask,
            state.s_mask,
            tuple(state.x),
            tuple(map(tuple, state.outer_terms)),
            tuple(map(tuple, state.inner_terms)),
            choices,
        )

    def recording_draw(state, rng):
        choices = draw_choices(state, rng)
        if choices is not None:
            steps.append(key(state, choices))
        return choices

    def counting_apply(state, choices):
        computed.append(key(state, choices))
        return apply_step(state, choices)

    monkeypatch.setattr(probe_kit.harness, "draw_choices", recording_draw)
    monkeypatch.setattr(probe_kit.harness, "apply_step", counting_apply)
    mc_policy_value(inst, x0, CHUNK, seed=1)  # one chunk, one cache
    assert len(computed) == len(set(steps)) == len(set(computed))
    assert len(computed) < len(steps)


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


def test_pool_never_exceeds_the_chunk_count(monkeypatch):
    sizes = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    inst = random_instance(6, objective="coverage")
    x0 = solve_relaxation(inst, cg_steps=20).x0
    monkeypatch.setattr(probe_kit.harness, "ProcessPoolExecutor", InProcessPool)
    trials = 2 * CHUNK
    pooled = mc_policy_value(inst, x0, trials, seed=2, jobs=64)
    assert sizes == [2]
    assert pooled == mc_policy_value(inst, x0, trials, seed=2, jobs=1)
    assert sizes == [2]  # jobs=1 runs without a pool


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs, tmp_path, capsys):
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(jobs=jobs)
    inst = tmp_path / "inst.json"
    assert main(["generate", "--size", "4", "--seed", "1", "--out", str(inst)]) == 0
    argv = ["run", "--instance", str(inst), "--trials", "10", "--jobs", str(jobs)]
    assert main(argv) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
