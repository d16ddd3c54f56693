"""probe-kit benchmark: whole `probe-kit run` experiments on seeded pools.

    python3 perfbench/run.py --workload acceptance-mix --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Set-up generates the workload's instance pool from
`--pool-seed` and writes one instance file per experiment, in a fresh
interpreter, several times; `setup_s` is the median.  `--seed` is passed to
every experiment and so picks its Monte Carlo trial streams; the pool stays
fixed because per-instance cost is heavy-tailed, and a pool drawn afresh for
every seed would swing the timings far more than the program's own noise.

The timed section runs every experiment through the real entry point, in
process and back to back (a closed loop with one client, no worker pool):

    probe_kit.cli.main(["run", "--instance", F, "--trials", T, "--seed", S,
                        "--out", O, "--jobs", "1"])

Loading the instance file, which builds the rank tables, is inside the timed
section because users pay it on every run.  Whole passes over the pool repeat
while they fit in `--seconds` (at least one).

On a shared machine other tenants slow the benchmark, and the slowdown
drifts over seconds to minutes, so raw times of whole runs spread wider than
a change worth detecting.  A fixed pure-Python calibration loop is therefore
timed before set-up and before and after every experiment, and each timing is
divided by the contention over it: the loop's slowdown against CALIBRATION_S
(the mean of the readings around it) raised to CONTENTION_EXPONENT, because
the experiments slow less than the loop does (see README.md for the
measurements).  On a quiet machine the correction is about 1; the raw times
are printed too.  What the readings miss are bursts within an experiment, which
only ever slow it, so an experiment's time is its fastest corrected pass and
the pool's time the sum of those.  After the timed section every experiment
goes through the correctness gate, and every pass must reproduce the first
pass's reports byte for byte.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes (see tracer.py), whose reports must all match byte for
byte, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
POOL_SEED = 1  # development pool; 2027 is held out for confirming claims
SETUP_TIMEOUT_S = 120
CALIBRATION_S = 0.005  # the calibration loop's time on the quiet machine the bounds were set on
CONTENTION_EXPONENT = 0.75  # experiments slow by about the loop's slowdown to this power

# name -> (unit, better); ok_frac is 1 - failed_frac, so that it is never 0
END_TO_END = {
    "wall_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="Monte Carlo seed of every experiment")
    ap.add_argument("--pool-seed", type=int, default=POOL_SEED, help="seed the instance pool is drawn from")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=0, help="instances in the pool (default: the workload's)")
    ap.add_argument("--trials", type=int, default=0, help="trials per experiment (default: the workload's)")
    ap.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def calibration_loop() -> int:
    """A fixed pure-Python workload that does not depend on the program."""
    d = {}
    s = 0
    for i in range(30000):
        k = i & 255
        d[k] = d.get(k, 0) + i
        s += (i * 2654435761) & 0xFFFF
    return s


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def slowdown() -> float:
    """How many times slower than nominal the machine runs the loop right now."""
    return min(timed(calibration_loop) for _ in range(3)) / CALIBRATION_S


def contention(before: float, after: float) -> float:
    """The factor by which other tenants stretched a timing between two slowdown readings."""
    return ((before + after) / 2) ** CONTENTION_EXPONENT


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def generate(workload, pool_seed: int, size: int, out: Path) -> None:
    """Import the program, build the pool and write its instance files."""
    import probe_kit.cli  # noqa: F401  (users pay the full CLI import)

    out.mkdir(parents=True)
    for slot, inst in enumerate(workload.pool(pool_seed, size)):
        inst.save(out / f"{slot:03d}.json")


def timed_setup(args, work: Path):
    """Run set-up SETUP_REPEATS times in fresh interpreters.

    Returns the first run's instance files, the corrected seconds of each run,
    and whether every run wrote the same files.
    """
    times = []
    dirs = []
    before = slowdown()
    for rep in range(SETUP_REPEATS):
        out = work / f"setup{rep}"
        cmd = [
            sys.executable, str(HERE / "run.py"), "--generate", str(out),
            "--workload", args.workload, "--seed", str(args.seed),
            "--pool-seed", str(args.pool_seed), "--size", str(args.size),
        ]
        seconds = timed(lambda: subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S))
        after = slowdown()
        times.append(seconds / contention(before, after))
        before = after
        dirs.append(out)
    files = sorted(dirs[0].iterdir())
    reproducible = all(
        sorted(p.name for p in d.iterdir()) == [f.name for f in files]
        and all((d / f.name).read_bytes() == f.read_bytes() for f in files)
        for d in dirs[1:]
    )
    return files, times, reproducible


# ---------------------------------------------------------------------------
# timed section
# ---------------------------------------------------------------------------


class Boundary:
    """Times harness.mc_policy_value, once per experiment, and keeps its x0.

    This single boundary timer is also installed in the untraced run: it is
    what `trials_per_s` divides by, and the gate checks the x0 it saw.
    """

    def __init__(self, harness):
        self.harness = harness
        self.fn = harness.mc_policy_value
        self.reset()

    def reset(self):
        self.seconds = 0.0
        self.trials = 0
        self.x0 = None

    def __call__(self, inst, x0, trials, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(inst, x0, trials, *args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0
            self.trials += trials
            self.x0 = x0

    def install(self):
        self.harness.mc_policy_value = self

    def uninstall(self):
        self.harness.mc_policy_value = self.fn


@dataclass
class Experiment:
    wall: float
    mc_seconds: float
    contention: float
    slowdown: float  # the reading taken after the experiment
    trials: int
    x0: object
    code: Optional[int]
    error: Optional[str]
    report: Optional[bytes]


@dataclass
class Pass:
    experiments: List[Experiment]

    @property
    def wall(self) -> float:
        return sum(e.wall for e in self.experiments)

    @property
    def reports(self) -> List[Optional[bytes]]:
        return [e.report for e in self.experiments]


def run_pass(cli, boundary: Boundary, files, trials: int, cg_steps: int, seed: int,
             out_dir: Path) -> Pass:
    experiments = []
    before = slowdown()
    for f in files:
        out = out_dir / f.name
        argv = [
            "run", "--instance", str(f), "--trials", str(trials), "--seed", str(seed),
            "--cg-steps", str(cg_steps), "--out", str(out), "--jobs", "1",
        ]
        boundary.reset()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed experiment; the pool goes on
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        report = out.read_bytes() if code == 0 and out.exists() else None
        out.unlink(missing_ok=True)
        after = slowdown()
        experiments.append(Experiment(
            wall, boundary.seconds, contention(before, after), after, boundary.trials,
            boundary.x0, code, error, report,
        ))
        before = after
    return Pass(experiments)


def repeat(step, seconds: float) -> list:
    """Call step() once, then again while one more call fits in `seconds`."""
    start = time.perf_counter()
    results = [step()]
    while True:
        now = time.perf_counter()
        if now + (now - start) / len(results) > start + seconds:
            return results
        results.append(step())


def corrected(passes: List[Pass], field: str) -> float:
    """Sum over the pool of each experiment's smallest `field` ÷ contention over passes."""
    return sum(
        min(getattr(p.experiments[i], field) / p.experiments[i].contention for p in passes)
        for i in range(len(passes[0].experiments))
    )


def trials_per_s(passes: List[Pass]) -> float:
    mc = corrected(passes, "mc_seconds")
    return sum(e.trials for e in passes[0].experiments) / mc if mc > 0 else 0.0


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def gate(files, passes: List[Pass]) -> List[List[str]]:
    """Problems per experiment: crash or nonzero exit in any pass, the paper's
    ratio bound against the DP oracle, and feasibility of the relaxation point."""
    from probe_kit.instances import ProbingInstance
    from probe_kit.relaxation import relaxation_feasible

    problems = []
    for i, f in enumerate(files):
        runs = [p.experiments[i] for p in passes]
        found = [r.error or f"exit code {r.code}" for r in runs if r.error or r.code != 0]
        if not found:
            first = runs[0]
            rep = json.loads(first.report)
            oracle = rep["oracle_value"]
            if oracle is not None and (
                rep["mc_mean"] + 4 * rep["mc_stderr"] < rep["target_ratio"] * oracle
            ):
                found.append(
                    f"mc_mean {rep['mc_mean']:.6g} + 4 stderr below "
                    f"{rep['target_ratio']:.4g} x oracle {oracle:.6g}"
                )
            if not relaxation_feasible(ProbingInstance.load(f), first.x0):
                found.append("relaxation point x0 fails relaxation_feasible")
        problems.append(found)
    return problems


def reports_sha256(p: Pass) -> str:
    h = hashlib.sha256()
    for report in p.reports:
        h.update(report or b"<failed>\n")
    return h.hexdigest()


def mismatches(reference: Pass, passes: List[Pass]) -> int:
    return sum(
        a != b for p in passes for a, b in zip(reference.reports, p.reports)
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def machine() -> str:
    import numpy
    import scipy

    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(args, work: Path) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.size = args.size or workload.size
    trials = args.trials or workload.trials
    files, setup_times, generated_same = timed_setup(args, work)

    import probe_kit.cli
    import probe_kit.harness
    from tracer import COUNT_METRICS, LAYER_METRICS, Tracer

    print(f"workload {workload.name}: {len(files)} experiments x {trials} trials, "
          f"pool seed {args.pool_seed}, seed {args.seed}")
    print(f"machine: {machine()}")
    out_dir = work / "reports"
    out_dir.mkdir()
    boundary = Boundary(probe_kit.harness)
    boundary.install()

    def run_one() -> Pass:
        return run_pass(probe_kit.cli, boundary, files, trials, workload.cg_steps, args.seed,
                        out_dir)

    traced_layers = []

    def run_traced() -> Pass:
        tracer = Tracer()
        tracer.install()
        try:
            p = run_one()
        finally:
            tracer.uninstall()
        traced_layers.append(tracer.layer_metrics())
        return p

    try:
        if args.trace:
            pairs = repeat(lambda: (run_one(), run_traced()), args.seconds)
            untraced = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
        else:
            untraced = repeat(run_one, args.seconds)
            traced = []
    finally:
        boundary.uninstall()

    passes = untraced + traced
    reference = passes[0]
    problems = gate(files, passes)
    failed = sum(1 for found in problems if found)
    for f, found in zip(files, problems):
        for problem in found:
            print(f"FAILED {f.name}: {problem}")
    differing = mismatches(reference, passes)
    correct = failed == 0 and differing == 0 and generated_same
    if differing:
        print(f"NOT REPRODUCIBLE: {differing} report(s) differ from the first pass")
    if not generated_same:
        print("NOT REPRODUCIBLE: set-up wrote different instance files for one seed")
    print(f"reports_sha256 {reports_sha256(reference)}")
    print(f"failed {failed} of {len(files)} experiments (failed_frac {failed / len(files):.4f})")
    wall = corrected(untraced, "wall")
    pass_walls = [p.wall for p in untraced]
    slowdowns = [e.slowdown for p in untraced for e in p.experiments]
    print(f"{len(untraced)} untraced passes, raw: fastest {min(pass_walls):.4f} s, median "
          f"{statistics.median(pass_walls):.4f} s, slowest {max(pass_walls):.4f} s")
    print(f"calibration loop slowdown: median {statistics.median(slowdowns):.3f}, "
          f"{min(slowdowns):.3f} to {max(slowdowns):.3f}")

    if args.trace:
        counts_differ = [
            k for k in COUNT_METRICS if len({layers[k] for layers in traced_layers}) > 1
        ]
        if counts_differ:
            correct = False
            print(f"NOT REPRODUCIBLE: per-layer counts differ between passes: {counts_differ}")
        traced_wall = corrected(traced, "wall")
        print(f"tracing overhead {traced_wall - wall:.4f} s "
              f"(traced wall_s {traced_wall:.4f} s, untraced {wall:.4f} s, {len(traced)} pairs)")
        metrics = {
            name: metric(statistics.mean(layers[name] for layers in traced_layers), unit)
            for name, (unit, _) in LAYER_METRICS.items()
        }
    else:
        values = {
            "wall_s": wall,
            "trials_per_s": trials_per_s(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / len(files),
        }
        metrics = {name: metric(values[name], unit) for name, (unit, _) in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(files),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "probe_kit" / "__init__.py").is_file():
        print(f"error: no probe_kit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.generate:
        generate(WORKLOADS[args.workload], args.pool_seed, args.size, Path(args.generate))
        return 0
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
