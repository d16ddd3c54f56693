"""Acceptance suite: approximation-ratio checks against exact oracles plus
hard structural invariants, at desk scale.

Each criterion prints a single pass/fail line (visible with pytest -v -s or
in the captured output on failure).
"""

import math
import random

import numpy as np

from probe_kit.engine import apply_step, intern, outcomes, support_updates
from probe_kit.harness import mc_policy_value, run_policy
from probe_kit.instances import gen_random
from probe_kit.objectives import multilinear_value_from_table
from probe_kit.oracle import optimal_adaptive_value
from probe_kit.polytope import decompose_masks, implied_vector_masks
from probe_kit.relaxation import (
    continuous_greedy,
    relaxation_feasible,
    solve_relaxation,
)
from probe_kit.seeding import spawn_rng

from conftest import (
    exchange_map,
    exchange_map_violations,
    lp_optimum,
    max_f_plus_over_polytope,
    mid_run_states,
    multilinear_sample,
)

ONE_MINUS_1_OVER_E = 1.0 - math.exp(-1.0)
TRIALS = 20_000


def _instance_pool(count, seed_base, objective_kinds, n_lo, n_hi):
    """Seeded instances with |E| <= 8, k_in <= 2, k_out in {1, 2}."""
    out = []
    for i in range(count):
        rng = spawn_rng(seed_base, "acceptance", i)
        n = rng.randint(n_lo, n_hi)
        k_in = rng.randint(0, 2)
        k_out = rng.randint(1, 2)
        kind = objective_kinds[i % len(objective_kinds)]
        out.append(gen_random(n, k_in, k_out, kind, rng))
    return out


def _report(name, ok, detail=""):
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_linear_ratio():
    """Policy achieves 1/(k_in + k_out) of the adaptive optimum, linear case."""
    instances = _instance_pool(50, 101, ["linear"], 4, 8)
    worst = math.inf
    for idx, inst in enumerate(instances):
        sol = solve_relaxation(inst)
        mean, stderr, _ = mc_policy_value(inst, sol.x0, TRIALS, seed=idx)
        opt = optimal_adaptive_value(inst)
        target = opt / (inst.k_in + inst.k_out)
        slack = mean + 4 * stderr - target
        worst = min(worst, slack)
        assert slack >= 0.0, (
            f"instance {idx}: mean {mean:.4f} + 4se < target {target:.4f} "
            f"(opt {opt:.4f}, k={inst.k_in + inst.k_out})"
        )
    _report("1 linear ratio", True, f"{len(instances)} instances, min slack {worst:.4f}")


def test_criterion_2_submodular_ratio():
    """Policy achieves (1-1/e)/(k_in + k_out + 1) of the optimum, submodular."""
    instances = _instance_pool(
        50, 202, ["coverage", "weighted_matroid_rank"], 4, 6
    )
    worst = math.inf
    for idx, inst in enumerate(instances):
        sol = continuous_greedy(inst, steps=200)
        mean, stderr, _ = mc_policy_value(inst, sol.x0, TRIALS, seed=idx)
        opt = optimal_adaptive_value(inst)
        target = ONE_MINUS_1_OVER_E / (inst.k_in + inst.k_out + 1) * opt
        slack = mean + 4 * stderr + 0.02 * opt - target
        worst = min(worst, slack)
        assert slack >= 0.0, (
            f"instance {idx}: mean {mean:.4f} below target {target:.4f} "
            f"(opt {opt:.4f})"
        )
    _report("2 submodular ratio", True, f"{len(instances)} instances, min slack {worst:.4f}")


def test_criterion_3_relaxation_dominance():
    """Relaxation optima dominate the exact adaptive optimum."""
    linear = _instance_pool(25, 303, ["linear"], 3, 6)
    for idx, inst in enumerate(linear):
        assert lp_optimum(inst) >= optimal_adaptive_value(inst) - 1e-6, f"linear {idx}"
    submodular = _instance_pool(15, 304, ["coverage", "weighted_matroid_rank"], 3, 5)
    for idx, inst in enumerate(submodular):
        assert (
            max_f_plus_over_polytope(inst) >= optimal_adaptive_value(inst) - 1e-6
        ), f"submodular {idx}"
    _report(
        "3 relaxation dominance",
        True,
        f"{len(linear)} linear + {len(submodular)} submodular instances",
    )


def test_criterion_4_continuous_greedy_bound():
    """F(p.x0) >= (1-1/e) max f+(p.x) minus the 2% discretization budget."""
    instances = _instance_pool(15, 404, ["coverage", "weighted_matroid_rank"], 3, 5)
    for idx, inst in enumerate(instances):
        sol = continuous_greedy(inst, steps=200)
        best_fplus = max_f_plus_over_polytope(inst)
        budget = 0.02 * inst.objective.value(set(range(inst.n)))
        assert sol.objective_value >= ONE_MINUS_1_OVER_E * best_fplus - budget, (
            f"instance {idx}: F={sol.objective_value:.4f} vs "
            f"(1-1/e)f+={ONE_MINUS_1_OVER_E * best_fplus:.4f}, budget {budget:.4f}"
        )
    _report("4 continuous-greedy bound", True, f"{len(instances)} instances")


def test_criterion_5_drift_inequalities():
    """Per-update and per-step expected coordinate losses stay within bounds,
    and the expected gain covers the expected potential drop, in exact
    expectation over every outcome of one step."""
    states = mid_run_states(20, 505)
    for si, state in enumerate(states):
        inst = state.inst
        n = inst.n
        sigma = state.sigma
        x = state.x
        p = inst.p
        k = inst.k_out + inst.k_in
        f_before = state.objective_value()
        # outer terms decompose x, so their losses are scaled by p_i; inner
        # terms decompose p*x, so theirs are already in p_i x_i units
        scales = [p] * inst.k_out + [[1.0] * n] * inst.k_in
        before = [implied_vector_masks(t, n) for t in state.outer_terms + state.inner_terms]

        total = 0.0
        update_mean = np.zeros((inst.k_out + inst.k_in, n))
        step_mean = np.zeros(n)
        gain = drop = 0.0
        successors = {}  # outcomes that reach one state certify it once
        for prob, choices in outcomes(state):
            e = choices.element
            nxt = intern(successors, apply_step(state, choices))
            total += prob
            # each matroid's support-update losses p_i (x_i - x'_i); the probed
            # element's own zeroing belongs to the probe, not to the update
            outer_terms, inner_terms = support_updates(state, choices)
            for j, terms in enumerate(outer_terms + inner_terms):
                after = implied_vector_masks(terms, n)
                losses = [scales[j][i] * (before[j][i] - after[i]) for i in range(n)]
                losses[e] = 0.0
                update_mean[j] += prob * np.array(losses)
            # full-step losses, excluding the probed element's own zeroing
            deltas = np.array([p[i] * (x[i] - nxt.x[i]) for i in range(n)])
            deltas[e] = 0.0
            step_mean += prob * deltas
            gain += prob * (nxt.objective_value() - f_before)
            drop += prob * (state.z - nxt.z)
        assert abs(total - 1.0) <= 1e-12, f"state {si}: probabilities sum to {total!r}"
        outer_mean, inner_mean = update_mean[: inst.k_out], update_mean[inst.k_out :]

        for i in range(n):
            # one outer matroid update: E[loss_i] <= (1/Sigma)(1 - x_i) p_i x_i
            bound = (1.0 - x[i]) * p[i] * x[i] / sigma
            for j in range(inst.k_out):
                assert outer_mean[j, i] <= bound + 1e-12, (
                    f"state {si} outer {j} coord {i}: {outer_mean[j, i]:.6f} > {bound:.6f}"
                )
            # one inner matroid update: E[loss_i] <= (1/Sigma)(1 - p_i x_i) p_i x_i
            bound = (1.0 - p[i] * x[i]) * p[i] * x[i] / sigma
            for j in range(inst.k_in):
                assert inner_mean[j, i] <= bound + 1e-12, (
                    f"state {si} inner {j} coord {i}: {inner_mean[j, i]:.6f} > {bound:.6f}"
                )
            # full step: E[loss_i] <= (k_out + k_in)/Sigma * p_i x_i
            bound = k * p[i] * x[i] / sigma
            assert step_mean[i] <= bound + 1e-12, (
                f"state {si} full step coord {i}: {step_mean[i]:.6f} > {bound:.6f}"
            )

        # gain-loss coupling: E[gain] >= alpha E[z drop]
        alpha = 1.0 / k if inst.objective.is_linear else 1.0 / (k + 1)
        assert gain >= alpha * drop - 1e-12, (
            f"state {si}: gain {gain:.6f} < alpha*drop {alpha * drop:.6f}"
        )
    _report("5 drift inequalities", True, f"{len(states)} states, exact expectations")


def test_criterion_6_structural_invariants():
    """Hard, non-statistical invariants of the construction and the engine."""
    rng = random.Random(606)
    # exchange maps built from random independent-set pairs pass the checker
    checked = 0
    for seed in range(100):
        inst = gen_random(rng.randint(3, 6), 1, 1, "linear", spawn_rng(606, "em", seed))
        for m in inst.inner + inst.outer:
            n = m.ground_size
            a = m.max_independent_subset(rng.sample(range(n), n))
            b = m.max_independent_subset(rng.sample(range(n), n))
            amask = a & rng.getrandbits(n)
            em = exchange_map(
                m,
                [i for i in range(n) if amask >> i & 1],
                [i for i in range(n) if b >> i & 1],
            )
            assert exchange_map_violations(m, em) == []
            checked += 1

    # solved relaxations lie in every polytope (x and p*x, to 1e-7) and
    # decompose into independent sets that round-trip within 1e-9
    for seed in range(30):
        inst = gen_random(rng.randint(3, 6), 1, 1, "linear", spawn_rng(606, "rt", seed))
        sol = solve_relaxation(inst)
        assert relaxation_feasible(inst, sol.x0)
        for m, vec in [(m, list(sol.x0)) for m in inst.outer] + [
            (m, [inst.p[i] * sol.x0[i] for i in range(inst.n)]) for m in inst.inner
        ]:
            terms = decompose_masks(m, vec)
            assert all(m.indep_mask(mask) for _, mask in terms)
            rt = implied_vector_masks(terms, inst.n)
            assert max(abs(rt[i] - vec[i]) for i in range(inst.n)) <= 1e-9

    # 1000 full runs: state feasibility is asserted inside the engine after
    # every step; verify final sets and the step bound here as well
    runs = 0
    for seed in range(50):
        inst = gen_random(
            spawn_rng(606, "runsize", seed).randint(3, 8),
            spawn_rng(606, "runk", seed).randint(0, 2),
            spawn_rng(606, "runk2", seed).randint(1, 2),
            "linear",
            spawn_rng(606, "run", seed),
        )
        sol = solve_relaxation(inst)
        for t in range(20):
            trace = run_policy(inst, sol.x0, spawn_rng(606, "trial", seed, t))
            assert len(trace) <= inst.n
            assert all(m.is_independent(trace.final_probed) for m in inst.outer)
            assert all(m.is_independent(trace.final_successes) for m in inst.inner)
            runs += 1
    assert runs == 1000

    # trace determinism under fixed seeds
    inst = gen_random(6, 1, 1, "linear", spawn_rng(606, "det"))
    sol = solve_relaxation(inst)
    assert relaxation_feasible(inst, sol.x0)
    for t in range(10):
        a = run_policy(inst, sol.x0, spawn_rng(606, "dtrial", t)).dumps()
        b = run_policy(inst, sol.x0, spawn_rng(606, "dtrial", t)).dumps()
        assert a == b
    _report("6 structural invariants", True, f"{checked} exchange maps, {runs} runs")


def test_criterion_7_multilinear_correctness():
    """Extension property, monotone/submodular derivative signs, sampling."""

    def F(f, y):
        return multilinear_value_from_table(f.value_table(), y)

    rng = random.Random(707)
    objectives = []
    for seed in range(6):
        inst = gen_random(
            rng.randint(4, 8), 0, 1, rng.choice(["coverage", "weighted_matroid_rank"]),
            spawn_rng(707, "obj", seed),
        )
        objectives.append(inst.objective)

    # F(1_A) = f(A) for every subset
    for f in objectives:
        table = f.value_table()
        for mask in range(1 << f.n):
            y = [1.0 if mask >> i & 1 else 0.0 for i in range(f.n)]
            assert abs(F(f, y) - table[mask]) <= 1e-12

    # first derivatives nonnegative, mixed second differences nonpositive
    probes = 0
    while probes < 1000:
        f = rng.choice(objectives)
        y = [rng.random() for _ in range(f.n)]
        e, g = rng.sample(range(f.n), 2)
        y_ee, y_eg, y_ge, y_gg = list(y), list(y), list(y), list(y)
        y_ee[e], y_ee[g] = 1.0, 1.0
        y_eg[e], y_eg[g] = 1.0, 0.0
        y_ge[e], y_ge[g] = 0.0, 1.0
        y_gg[e], y_gg[g] = 0.0, 0.0
        v_ee = F(f, y_ee)
        v_eg = F(f, y_eg)
        v_ge = F(f, y_ge)
        v_gg = F(f, y_gg)
        assert v_eg - v_gg >= -1e-12  # dF/dy_e >= 0
        assert v_ee - v_eg - v_ge + v_gg <= 1e-12  # d2F/dy_e dy_g <= 0
        probes += 1

    # sampled estimator agrees with exact within 4 standard errors
    for k in range(100):
        f = objectives[k % len(objectives)]
        y = [rng.random() for _ in range(f.n)]
        exact = F(f, y)
        got = multilinear_sample(f, y, 3000, rng)
        assert abs(got.value - exact) <= 4 * got.stderr + 1e-9
    _report("7 multilinear correctness", True, "1000 probes, 100 sampled points")
