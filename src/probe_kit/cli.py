"""probe-kit command line: generate instances, run Monte Carlo policy
experiments against solved relaxations, and verify instance files.

Every flag can also be set through an environment variable with the
PROBE_KIT_ prefix (e.g. PROBE_KIT_RUN_TRIALS).  Exit codes: 0 ok, 1 usage
error (a bad option or instance file, or a file that cannot be read or
written), 2 verification failure, 3 capability exceeded, 4 internal error (a
broken invariant or a failed solve).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import click

from .errors import CapabilityError, VerificationError
from .harness import CSV_FIELDS, ExperimentConfig, run_experiment
from .instances import (
    ProbingInstance,
    gen_bipartite_matching,
    gen_posted_pricing,
    gen_random,
    matroid_problems,
    verify_instance,
)
from .matroids import uniform_matroid
from .polytope import decompose_masks, implied_vector_masks, within
from .relaxation import relaxation_feasible, solve_relaxation
from .seeding import spawn_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 4


@click.group()
def cli():
    """Stochastic probing toolkit: relaxations, rounding policy, oracles."""


@cli.command("generate")
@click.option("--kind", type=click.Choice(["random", "bipartite", "posted-pricing"]), default="random", show_default=True)
@click.option("--size", type=click.IntRange(min=1), default=6, show_default=True, help="ground-set size (random) / side size (bipartite) / agents (posted-pricing)")
@click.option("--k-in", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--k-out", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--objective", type=click.Choice(["linear", "coverage", "weighted_matroid_rank"]), default="linear", show_default=True)
@click.option("--edge-prob", type=click.FloatRange(0, 1), default=0.6, show_default=True)
@click.option("--patience", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--price-levels", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), required=True)
def cmd_generate(kind, size, k_in, k_out, objective, edge_prob, patience, price_levels, seed, out):
    """Generate a probing instance file."""
    rng = spawn_rng(seed, "generate", kind)
    if kind == "random":
        inst = gen_random(size, k_in, k_out, objective, rng)
    elif kind == "bipartite":
        inst = gen_bipartite_matching(
            size, size, [patience] * size, [patience] * size, edge_prob, rng,
            objective_kind=objective,
        )
    else:
        if objective != "linear":
            raise click.BadParameter(
                "posted pricing earns the posted prices, a linear objective",
                param_hint="'--objective'",
            )
        pmfs = []
        for _ in range(size):
            raw = [rng.random() + 0.05 for _ in range(price_levels + 1)]
            total = sum(raw)
            pmf = [round(v / total, 6) for v in raw]
            pmf[-1] = 1.0 - sum(pmf[:-1])
            pmfs.append(pmf)
        inst = gen_posted_pricing(size, price_levels, uniform_matroid(size, max(1, size // 2)), pmfs)
    inst.metadata["seed"] = seed
    inst.save(out)
    click.echo(f"wrote {out} (|E|={inst.n}, k_in={inst.k_in}, k_out={inst.k_out})")


@cli.command("run")
@click.option("--instance", type=click.Path(exists=True), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cg-steps", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_run(instance, trials, seed, cg_steps, out, fmt, jobs):
    """Solve the relaxation and run Monte Carlo policy trials.

    An explicit independence family that breaks the matroid axioms fails
    first, with verify's messages: the paper's bound assumes matroids."""
    out_dir = os.path.dirname(out or "") or "."
    if out and not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        # fail before the experiment, not after it; the file is opened only then
        raise click.BadParameter(f"cannot write into the directory of {out}", param_hint="'--out'")
    inst = ProbingInstance.load(instance)
    _fail_on(matroid_problems(inst, explicit_only=True))
    config = ExperimentConfig(trials=trials, seed=seed, cg_steps=cg_steps, jobs=jobs)
    report = run_experiment(inst, config)
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerow(report.csv_row())
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@cli.command("verify")
@click.option("--instance", type=click.Path(exists=True), required=True)
@click.option("--cg-steps", type=click.IntRange(min=1), default=50, show_default=True)
def cmd_verify(instance, cg_steps):
    """Run structural diagnostics on an instance file."""
    inst = ProbingInstance.load(instance)
    problems = verify_instance(inst)
    if not problems:
        relaxed = solve_relaxation(inst, cg_steps=cg_steps)
        if not relaxation_feasible(inst, relaxed.x0):
            problems.append("solved relaxation point violates a polytope constraint")
        else:
            for label, matroids, vec in (
                ("outer", inst.outer, list(relaxed.x0)),
                ("inner", inst.inner, [inst.p[i] * relaxed.x0[i] for i in range(inst.n)]),
            ):
                for j, m in enumerate(matroids):
                    rt = implied_vector_masks(decompose_masks(m, vec), inst.n)
                    if not within(rt, vec, 1e-9):
                        problems.append(f"{label} matroid {j}: decomposition round-trip failed")
    _fail_on(problems)
    click.echo("ok")


def _fail_on(problems: list) -> None:
    """Print one `FAIL:` line per problem and raise VerificationError (exit 2)."""
    if problems:
        for p in problems:
            click.echo(f"FAIL: {p}", err=True)
        raise VerificationError(f"{len(problems)} verification failure(s)")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="probe-kit", standalone_mode=False,
                 auto_envvar_prefix="PROBE_KIT")
        return EXIT_OK
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.UsageError as exc:  # names the offending option
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # an OSError names its path
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except VerificationError as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return EXIT_VERIFY
    except CapabilityError as exc:
        click.echo(f"capability exceeded: {exc}", err=True)
        return EXIT_CAPABILITY
    except RuntimeError as exc:  # InvariantViolation, failed LP solves
        click.echo(f"internal error: {exc}", err=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
