"""Monte Carlo harness: one transition graph per experiment (per worker under
`jobs`) keeps sums exact (pinned bit for bit on three instances), runs
`apply_step` once per distinct transition and certifies each state it
interns once, the root included, reads f(S) once per distinct terminal
state, restarts above STORE_CAP and is freed on return; a corrupted
successor or root raises; the one policy walk gives traced and Monte Carlo
runs the same values and stops a chain that does not end; each chunk seeds
one RNG stream, so its sums do not depend on the worker or graph that walks
it; `jobs` is checked and never starts more workers than there are chunks."""

import gc
import math
import weakref

import pytest

import probe_kit.engine
import probe_kit.harness
from probe_kit.cli import main
from probe_kit.engine import init_state
from probe_kit.errors import InvariantViolation
from probe_kit.harness import (
    CHUNK,
    ExperimentConfig,
    _run_chunks,
    mc_policy_value,
    run_policy,
    walk,
)
from probe_kit.instances import gen_bipartite_matching
from probe_kit.relaxation import relaxation_feasible, solve_relaxation
from probe_kit.seeding import spawn_rng

from conftest import random_instance, simulate_value

TRIALS = 1100  # two full chunks and a partial one


def _reference(inst, x0, trials, seed, monkeypatch):
    """The uncached loop: one RNG stream per chunk, one simulate_value per
    trial drawing from it in order, summed in chunk order."""
    steps = [0]
    apply_step = probe_kit.engine.apply_step

    def counting(state, choices):
        steps[0] += 1
        return apply_step(state, choices)

    totals = []
    with monkeypatch.context() as patch:
        patch.setattr(probe_kit.engine, "apply_step", counting)
        for start in range(0, trials, CHUNK):
            rng = spawn_rng(seed, "chunk", start // CHUNK)
            total = total_sq = 0.0
            for _ in range(start, min(start + CHUNK, trials)):
                v = simulate_value(inst, x0, rng)
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


def test_each_interned_state_is_certified_once(monkeypatch, roots):
    """Across a STORE_CAP restart, the certificate runs on exactly the states
    the graphs hold, once each, and never on a discarded duplicate."""
    inst = random_instance(5, n=7, k_in=1, k_out=2)
    x0 = solve_relaxation(inst).x0
    certified, stores, computed = [], [], [0]
    certify = probe_kit.engine._assert_state_feasible
    intern = probe_kit.harness.intern
    apply_step = probe_kit.harness.apply_step

    def recording_certify(state):
        certified.append(state)
        return certify(state)

    def recording_intern(store, state):
        if not any(store is seen for seen in stores):
            stores.append(store)
        return intern(store, state)

    def counting_apply(state, choices):
        computed[0] += 1
        return apply_step(state, choices)

    monkeypatch.setattr(probe_kit.engine, "_assert_state_feasible", recording_certify)
    monkeypatch.setattr(probe_kit.harness, "intern", recording_intern)
    monkeypatch.setattr(probe_kit.harness, "apply_step", counting_apply)
    monkeypatch.setattr(probe_kit.harness, "STORE_CAP", 4)
    mc_policy_value(inst, x0, TRIALS, seed=1)
    assert len(roots) == len(stores) > 1  # the graph restarted
    interned = [state for store in stores for state in store.values()]
    assert len(certified) == len(interned)
    assert {id(state) for state in certified} == {id(state) for state in interned}
    assert len(certified) < computed[0]  # some successors were duplicates


def test_f_is_read_once_per_terminal_state(monkeypatch):
    """f(S) is read once per distinct terminal state a walk ends in, not once
    per trial (`test_sums_match_uncached_loop_bit_for_bit` checks the sums
    against a read per trial)."""
    inst = random_instance(5, n=7, k_in=1, k_out=2, objective="coverage")
    x0 = solve_relaxation(inst).x0
    expected = mc_policy_value(inst, x0, TRIALS, seed=1)
    reads, ends = [0], {}  # id -> state, kept alive so no id is reused
    value_mask = type(inst.objective).value_mask
    walk = probe_kit.harness.walk

    def counting_value_mask(self, mask):
        reads[0] += 1
        return value_mask(self, mask)

    def recording_walk(root, rng, store):
        state, n_steps = walk(root, rng, store)
        ends[id(state)] = state
        return state, n_steps

    monkeypatch.setattr(type(inst.objective), "value_mask", counting_value_mask)
    monkeypatch.setattr(probe_kit.harness, "walk", recording_walk)
    assert mc_policy_value(inst, x0, TRIALS, seed=1) == expected
    assert reads[0] == len(ends) < TRIALS


@pytest.mark.parametrize("entry", ["mc_policy_value", "run_policy"])
def test_an_uncertified_root_raises(entry, monkeypatch):
    """A root whose outer decomposition implies 0.9·x is caught when its
    graph interns it, by either entry point; the first step's reconcile
    would otherwise absorb the mismatch."""
    inst = random_instance(20, n=8, k_in=1, k_out=1)
    x0 = solve_relaxation(inst).x0

    def shrunk_root(inst, x0):
        root = init_state(inst, x0)
        root.outer_terms[0] = [(0.9 * w, mask) for w, mask in root.outer_terms[0]]
        root.outer_terms[0].append((0.1, 0))
        return root

    monkeypatch.setattr(probe_kit.harness, "init_state", shrunk_root)
    with pytest.raises(InvariantViolation, match="does not match master vector"):
        if entry == "mc_policy_value":
            mc_policy_value(inst, x0, 500, seed=1)
        else:
            run_policy(inst, x0, spawn_rng(1, "root"))


def _nan_term_weight(state, choices):
    """The first term with a nonempty set weighs NaN, in the first matroid
    that has one."""
    for terms in state.outer_terms + state.inner_terms:
        for i, (_, mask) in enumerate(terms):
            if mask:
                terms[i] = (math.nan, mask)
                return


def _probed_coordinate_left(state, choices):
    state.x[choices.element] = 0.25


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_term_weight, "does not match master vector"),
        (_probed_coordinate_left, "probed coordinate not zeroed"),
    ],
)
@pytest.mark.parametrize("entry", ["mc_policy_value", "run_policy"])
def test_a_corrupted_successor_raises(corrupt, message, entry, monkeypatch):
    """A successor broken after `apply_step` computed it is caught when the
    walk interns it, by either entry point."""
    inst = random_instance(5, n=7, k_in=1, k_out=2)
    x0 = solve_relaxation(inst).x0
    apply_step = probe_kit.harness.apply_step

    def corrupting_apply(state, choices):
        nxt = apply_step(state, choices)
        corrupt(nxt, choices)
        return nxt

    monkeypatch.setattr(probe_kit.harness, "apply_step", corrupting_apply)
    with pytest.raises(InvariantViolation, match=message):
        if entry == "mc_policy_value":
            mc_policy_value(inst, x0, 10, seed=1)
        else:
            run_policy(inst, x0, spawn_rng(1, "corrupt"))


# float.hex of mc_policy_value's (mean, stderr, steps_mean) at 1,100 trials
# and seed 11, as the harness gave them before the certificate moved from
# `apply_step` to `engine.intern`
PINNED_SUMS = {
    "linear": ("0x1.c4a7becf3ee5ap+1", "0x1.895e675533fb1p-6", "0x1.59a87e9a87e9bp+2"),
    "coverage": ("0x1.491d579dfe6edp+2", "0x1.ceceea7e91a65p-6", "0x1.0403b9403b940p+2"),
    "bipartite": ("0x1.c67509d1e9cc3p+0", "0x1.8c445005f7dc7p-6", "0x1.41bed61bed61cp+1"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_SUMS))
def test_monte_carlo_sums_are_pinned(kind):
    if kind == "bipartite":
        inst = gen_bipartite_matching(3, 3, [2] * 3, [1] * 3, 0.9, spawn_rng(19, "pin"))
    else:
        seed = {"linear": 20, "coverage": 29}[kind]
        inst = random_instance(seed, n=8, k_in=1, k_out=1, objective=kind)
    # the relaxation rounded to a 2^-10 grid and scaled by 63/64, which keeps
    # it in every polytope (|E| <= 16), so the pins do not hang on the last
    # bits of the LP solver's answer
    x0 = [round(v * 1024) / 1024 * 63 / 64 for v in solve_relaxation(inst, cg_steps=20).x0]
    assert relaxation_feasible(inst, x0, 0.0)
    sums = mc_policy_value(inst, x0, TRIALS, seed=11)
    assert tuple(v.hex() for v in sums) == PINNED_SUMS[kind]


@pytest.mark.parametrize("seed, objective", [(5, "linear"), (8, "coverage")])
def test_traces_match_the_monte_carlo_walk(seed, objective):
    """Same final value and step count per trial, on a fresh graph and on one
    that earlier trials filled, and the same experiment totals: three copies
    of the chunk's stream, one each for the traced run and the two walks,
    advance in lock step."""
    inst = random_instance(seed, objective=objective)
    x0 = solve_relaxation(inst, cg_steps=20).x0
    trials = 300  # one chunk, so the experiment's sums are the plain running sums
    root, store = init_state(inst, x0), {}
    traced, fresh, filled = (spawn_rng(seed, "chunk", 0) for _ in range(3))
    total, steps = 0.0, 0
    for _ in range(trials):
        trace = run_policy(inst, x0, traced)
        for start, graph, rng in ((init_state(inst, x0), {}, fresh), (root, store, filled)):
            state, n_steps = walk(start, rng, graph)
            assert (state.objective_value, n_steps) == (trace.final_value, len(trace))
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


@pytest.fixture()
def streams(monkeypatch):
    """The path of every RNG stream the harness seeds."""
    paths = []
    spawn_rng = probe_kit.harness.spawn_rng

    def recording_spawn(*path):
        paths.append(path)
        return spawn_rng(*path)

    monkeypatch.setattr(probe_kit.harness, "spawn_rng", recording_spawn)
    return paths


@pytest.mark.parametrize("jobs", [1, 3])
def test_each_chunk_seeds_one_stream(jobs, in_process_pool, streams):
    inst = random_instance(4, objective="coverage")
    x0 = solve_relaxation(inst, cg_steps=20).x0
    mc_policy_value(inst, x0, TRIALS, seed=6, jobs=jobs)
    assert streams == [(6, "chunk", c) for c in range(3)]


def test_a_chunks_sums_do_not_depend_on_its_graph():
    """A chunk walked on the graph an earlier chunk filled sums as it does
    alone on a fresh graph, so no worker split changes it."""
    inst = random_instance(4, objective="coverage")
    x0 = list(solve_relaxation(inst, cg_steps=20).x0)
    chunks = [(0, CHUNK), (CHUNK, 76)]
    alone = _run_chunks(inst, x0, 6, chunks[:1]) + _run_chunks(inst, x0, 6, chunks[1:])
    assert _run_chunks(inst, x0, 6, chunks) == alone


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs, tmp_path, capsys):
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(jobs=jobs)
    inst = tmp_path / "inst.json"
    assert main(["generate", "--size", "4", "--seed", "1", "--out", str(inst)]) == 0
    argv = ["run", "--instance", str(inst), "--trials", "10", "--jobs", str(jobs)]
    assert main(argv) == 1
    assert "Invalid value for '--jobs'" in capsys.readouterr().err


@pytest.mark.parametrize("cg_steps", [0, -2])
def test_cg_steps_below_one_rejected(cg_steps):
    with pytest.raises(ValueError, match="cg_steps"):
        ExperimentConfig(cg_steps=cg_steps)


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_rejected(trials, tmp_path, capsys):
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=trials)
    inst = tmp_path / "inst.json"
    assert main(["generate", "--size", "4", "--seed", "1", "--out", str(inst)]) == 0
    assert main(["run", "--instance", str(inst), "--trials", str(trials)]) == 1
    assert "Invalid value for '--trials'" in capsys.readouterr().err
