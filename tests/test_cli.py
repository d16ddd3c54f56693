"""Command line interface: generate, run, verify, exit codes, env overrides,
and what start-up imports."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from scipy.optimize import OptimizeResult

import probe_kit.cli
import probe_kit.relaxation
from probe_kit.cli import main
from probe_kit.errors import InvariantViolation
from probe_kit.instances import ProbingInstance
from probe_kit.matroids import Matroid


def _over_cap(n):
    return f"capability exceeded: ground set of {n} elements exceeds the cap of 16\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_random_instance_written(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, stdout, _ = _run(
            capsys, "generate", "--kind", "random", "--size", "5", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        inst = ProbingInstance.load(out)
        assert inst.n == 5
        assert inst.metadata["seed"] == 3

    def test_random_instance_at_the_cap(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, stderr = _run(
            capsys, "generate", "--kind", "random", "--size", "16", "--out", str(out)
        )
        assert (code, stderr) == (0, "")
        assert ProbingInstance.load(out).n == 16

    def test_generate_is_seed_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = _run(
                capsys, "generate", "--size", "5", "--seed", "9", "--out", str(path)
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_bipartite_and_posted_pricing_kinds(self, tmp_path, capsys):
        for kind in ("bipartite", "posted-pricing"):
            out = tmp_path / f"{kind}.json"
            code, _, _ = _run(
                capsys, "generate", "--kind", kind, "--size", "2", "--seed", "1",
                "--out", str(out),
            )
            assert code == 0
            ProbingInstance.load(out)  # parses and validates

    @pytest.mark.parametrize(
        "kind, objective, message",
        [
            ("bipartite", "weighted_matroid_rank", "unsupported objective kind"),
            ("posted-pricing", "coverage", "Invalid value for '--objective'"),
        ],
        ids=["bipartite-rank", "posted-pricing-coverage"],
    )
    def test_unsupported_objective_is_usage_error(
        self, tmp_path, capsys, kind, objective, message
    ):
        # the generator must not write an instance of another objective kind
        out = tmp_path / "x.json"
        code, stdout, stderr = _run(
            capsys, "generate", "--kind", kind, "--objective", objective,
            "--size", "2", "--out", str(out),
        )
        assert code == 1
        assert stderr.startswith("error: ") and message in stderr
        assert stdout == ""
        assert not out.exists()

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, "generate", "--kind", "nonsense", "--out", str(tmp_path / "x.json")
        )
        assert code == 1

    @pytest.mark.parametrize("kind", ["random", "bipartite", "posted-pricing"])
    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_size_below_one_is_usage_error(self, tmp_path, capsys, kind, size):
        out = tmp_path / "x.json"
        code, _, stderr = _run(
            capsys, "generate", "--kind", kind, "--size", size, "--out", str(out)
        )
        assert code == 1
        assert "Invalid value for '--size'" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, option, value",
        [
            ("random", "--k-in", "-1"),
            ("random", "--k-out", "0"),
            ("bipartite", "--patience", "0"),
            ("bipartite", "--edge-prob", "2"),
            ("bipartite", "--edge-prob", "-1"),
            ("posted-pricing", "--price-levels", "0"),
        ],
    )
    def test_out_of_range_generator_option_is_usage_error(
        self, tmp_path, capsys, kind, option, value
    ):
        out = tmp_path / "x.json"
        code, _, stderr = _run(
            capsys, "generate", "--kind", kind, option, value, "--out", str(out)
        )
        assert code == 1
        assert f"Invalid value for '{option}'" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["--kind", "bipartite", "--size", "5", "--edge-prob", "0.9", "--seed", "1"], 21),
            (["--kind", "posted-pricing", "--size", "8", "--seed", "1"], 24),
            (["--kind", "posted-pricing", "--size", "12", "--price-levels", "3"], 48),
            (["--kind", "random", "--size", "17"], 17),
        ],
        ids=["bipartite-5", "posted-pricing-8", "posted-pricing-12", "random-17"],
    )
    def test_ground_set_above_cap_is_capability_error(
        self, tmp_path, capsys, monkeypatch, argv, n
    ):
        # posted pricing must fail before it enumerates the 2^agents agent sets
        def enumerated(self, s):
            raise AssertionError("agent sets enumerated above the cap")

        monkeypatch.setattr(Matroid, "is_independent", enumerated)
        out = tmp_path / "x.json"
        code, stdout, stderr = _run(capsys, "generate", *argv, "--out", str(out))
        assert code == 3
        assert stderr == _over_cap(n)
        assert stdout == ""
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "inst.json"
        code, stdout, stderr = _run(capsys, "generate", "--out", str(out))
        assert code == 1
        assert stderr.startswith("error: ") and str(out) in stderr
        assert stdout == ""


class TestRun:
    @pytest.fixture()
    def instance_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = _run(
            capsys, "generate", "--size", "4", "--seed", "5", "--out", str(out)
        )
        assert code == 0
        return out

    @pytest.mark.parametrize("side, j", [("outer", 0), ("inner", 1)])
    def test_non_matroid_fails_before_the_run(self, tmp_path, capsys, side, j):
        out = tmp_path / "inst.json"
        _run(
            capsys, "generate", "--kind", "bipartite", "--size", "3", "--edge-prob", "1.0",
            "--patience", "2", "--seed", "1", "--out", str(out),
        )
        doc = json.loads(out.read_text())
        # bases {0} and {1, 2} differ in size
        doc[side][j] = {"kind": "explicit", "n": 9, "independent_sets": [[], [0], [1, 2]]}
        out.write_text(json.dumps(doc))
        code, stdout, stderr = _run(capsys, "run", "--instance", str(out), "--trials", "10")
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"FAIL: {side} matroid {j}: exchange")
        assert _run(capsys, "verify", "--instance", str(out)) == (code, stdout, stderr)

    def test_json_report(self, instance_file, capsys):
        code, stdout, _ = _run(
            capsys, "run", "--instance", str(instance_file), "--trials", "500",
            "--seed", "1",
        )
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {
            "mode", "relaxation_value", "mc_mean", "mc_stderr", "trials", "seed",
            "steps_mean", "oracle_value", "ratio", "target_ratio", "config",
            "instance_metadata",
        }
        assert report["trials"] == 500

    @pytest.mark.parametrize("objective, mode", [("linear", "linear"), ("coverage", "submodular")])
    def test_mode_follows_the_objective(self, tmp_path, capsys, objective, mode):
        inst = tmp_path / "inst.json"
        _run(capsys, "generate", "--size", "4", "--objective", objective, "--out", str(inst))
        code, stdout, _ = _run(
            capsys, "run", "--instance", str(inst), "--trials", "50", "--cg-steps", "5"
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["mode"] == mode
        assert set(report["config"]) == {"cg_steps", "seed", "trials"}

    def test_mode_option_is_rejected(self, instance_file, capsys):
        code, _, stderr = _run(
            capsys, "run", "--instance", str(instance_file), "--mode", "linear"
        )
        assert code == 1
        assert "--mode" in stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_cg_steps_below_one_is_usage_error(self, instance_file, capsys, command, steps):
        code, stdout, stderr = _run(
            capsys, command, "--instance", str(instance_file), "--cg-steps", steps
        )
        assert code == 1
        assert "--cg-steps" in stderr
        assert stdout == ""

    def test_reports_are_reproducible(self, instance_file, tmp_path, capsys):
        outputs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code, _, _ = _run(
                capsys, "run", "--instance", str(instance_file), "--trials", "300",
                "--seed", "2", "--out", str(path),
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_format(self, instance_file, capsys):
        code, stdout, _ = _run(
            capsys, "run", "--instance", str(instance_file), "--trials", "200",
            "--format", "csv",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "mode,relaxation_value,mc_mean,mc_stderr,trials,seed,steps_mean,"
            "oracle_value,ratio,target_ratio"
        )

    def test_missing_instance_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "run", "--instance", "/no/such/file.json")
        assert code == 1

    def test_directory_instance_is_usage_error(self, tmp_path, capsys):
        code, stdout, stderr = _run(capsys, "run", "--instance", str(tmp_path))
        assert code == 1
        assert stderr.startswith("error: ") and str(tmp_path) in stderr
        assert stdout == ""

    def test_unwritable_out_is_usage_error(self, instance_file, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code, stdout, stderr = _run(
            capsys, "run", "--instance", str(instance_file), "--trials", "10",
            "--out", str(out),
        )
        assert code == 1
        assert stderr.startswith("error: ") and str(out) in stderr
        assert stdout == ""

    def test_out_directory_is_checked_before_the_run(
        self, instance_file, tmp_path, capsys, monkeypatch
    ):
        def broken(inst, config):
            raise InvariantViolation("the experiment ran")

        access = os.access

        def no_write(path, mode):
            return mode != os.W_OK and access(path, mode)

        monkeypatch.setattr(probe_kit.cli, "run_experiment", broken)
        # a missing directory, an existing directory as the file itself, and a
        # directory without write access (patched: the tests may run as root)
        for out, patched in (
            (tmp_path / "missing" / "r.json", access),
            (tmp_path, access),
            (tmp_path / "r.json", no_write),
        ):
            monkeypatch.setattr(os, "access", patched)
            code, stdout, stderr = _run(
                capsys, "run", "--instance", str(instance_file), "--out", str(out)
            )
            assert code == 1
            assert "--out" in stderr and str(out) in stderr
            assert "the experiment ran" not in stderr
            assert stdout == ""
        assert not (tmp_path / "missing").exists() and not (tmp_path / "r.json").exists()

    def test_failed_lp_solve_is_internal_error(self, instance_file, capsys, monkeypatch):
        monkeypatch.setattr(
            probe_kit.relaxation,
            "linprog",
            lambda *a, **k: OptimizeResult(success=False, message="forced failure"),
        )
        code, _, stderr = _run(capsys, "run", "--instance", str(instance_file))
        assert code == 4
        assert "LP solve failed" in stderr

    def test_invariant_violation_is_internal_error(self, instance_file, capsys, monkeypatch):
        def broken(inst, config):
            raise InvariantViolation("forced")

        monkeypatch.setattr(probe_kit.cli, "run_experiment", broken)
        code, _, stderr = _run(capsys, "run", "--instance", str(instance_file))
        assert code == 4
        assert "forced" in stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_missing_top_level_key_names_field(self, instance_file, capsys, command):
        doc = json.loads(instance_file.read_text())
        del doc["p"]
        instance_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, command, "--instance", str(instance_file))
        assert code == 1
        assert "error: p: missing field" in stderr

    def test_missing_matroid_key_names_field(self, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["outer"][0] = {"kind": "partition", "n": 4, "parts": [[0, 1], [2, 3]]}
        instance_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "run", "--instance", str(instance_file))
        assert code == 1
        assert "outer[0].capacities: missing field" in stderr

    def test_mistyped_field_names_field(self, instance_file, capsys):
        doc = json.loads(instance_file.read_text())
        doc["ground"]["size"] = "4"
        instance_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "run", "--instance", str(instance_file))
        assert code == 1
        assert "ground.size: expected int, got str" in stderr

    @pytest.mark.parametrize(
        "patch, message",
        [
            (
                {"outer": [{"kind": "uniform", "n": -1, "k": 1}]},
                "outer[0].n: expected a value >= 0, got -1",
            ),
            (
                {"outer": [{"kind": "uniform", "n": 4, "k": 2, "contracted": [-1]}]},
                "outer[0].contracted[0]: expected a value in 0..3, got -1",
            ),
            (
                {"outer": [{"kind": "uniform", "n": 4, "k": 2, "contracted": [1, 1]}]},
                "outer[0].contracted[1]: element 1 is already contracted",
            ),
            (
                {"outer": [{
                    "kind": "explicit", "n": 4, "independent_sets": [[], [0]], "contracted": [0, 3]
                }]},
                "outer[0].contracted[1]: cannot contract loop element 3",
            ),
            (
                {"outer": [{"kind": "explicit", "n": 4, "independent_sets": [[], [0], [-1]]}]},
                "outer[0].independent_sets[2][0]: expected a value in 0..3, got -1",
            ),
            (
                {"outer": [
                    {"kind": "partition", "n": 4, "parts": [[0, 1, 2, 3]], "capacities": [-1]}
                ]},
                "outer[0].capacities[0]: expected a value >= 0, got -1",
            ),
            (
                {"objective": {"kind": "linear", "weights": [1.0, -1.0, 1.0, 1.0]}},
                "objective.weights[1]: expected a value >= 0, got -1.0",
            ),
            (
                {"objective": {
                    "kind": "weighted_matroid_rank",
                    "matroid": {"kind": "uniform", "n": 4, "k": 2},
                    "weights": [1.0, 1.0, -0.5, 1.0],
                }},
                "objective.weights[2]: expected a value >= 0, got -0.5",
            ),
            (
                {"objective": {
                    "kind": "coverage", "covers": [[0], [1], [0], [1]], "item_weights": [1.0, -2.0]
                }},
                "objective.item_weights[1]: expected a value >= 0, got -2.0",
            ),
            (
                {"objective": {
                    "kind": "coverage", "covers": [[0, 1, 2, 99], [0], [1], [2]],
                    "item_weights": [1.0] * 6,
                }},
                "objective.covers[0][3]: expected a value in 0..5, got 99",
            ),
            (
                {"objective": {
                    "kind": "coverage", "covers": [[0], [1], [2], [3, -1]],
                    "item_weights": [1.0] * 6,
                }},
                "objective.covers[3][1]: expected a value in 0..5, got -1",
            ),
            ({"p": [2.0] * 4}, "p[0]: expected a value in 0..1, got 2.0"),
            ({"p": [0.5, 0.5, -0.1, 0.5]}, "p[2]: expected a value in 0..1, got -0.1"),
        ],
        ids=[
            "uniform-n", "contracted", "contracted-repeat", "contracted-loop", "explicit-set",
            "partition-capacity", "linear-weights", "rank-weights", "item-weights", "covers-99",
            "covers-negative", "p-above-1", "p-negative",
        ],
    )
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_out_of_range_field_names_field(
        self, instance_file, capsys, command, patch, message
    ):
        doc = json.loads(instance_file.read_text())
        doc.update(patch)
        instance_file.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, command, "--instance", str(instance_file))
        assert code == 1
        assert f"error: {message}" in stderr

    @pytest.mark.parametrize(
        "objective, field, index, value",
        [
            ("linear", "weights", 0, float("nan")),
            ("coverage", "item_weights", 1, float("inf")),
            ("linear", "p", 2, float("nan")),
        ],
        ids=["weights-nan", "item-weights-inf", "p-nan"],
    )
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_non_finite_number_names_field(
        self, tmp_path, capsys, command, objective, field, index, value
    ):
        # Python's json writes and reads NaN and Infinity
        path = tmp_path / "inst.json"
        _run(capsys, "generate", "--size", "4", "--objective", objective, "--out", str(path))
        doc = json.loads(path.read_text())
        where = doc if field == "p" else doc["objective"]
        where[field][index] = value
        path.write_text(json.dumps(doc))
        code, stdout, stderr = _run(capsys, command, "--instance", str(path))
        assert code == 1
        prefix = "" if field == "p" else "objective."
        assert stderr == f"error: {prefix}{field}[{index}]: expected a finite number, got {value}\n"
        assert stdout == ""

    @pytest.mark.parametrize("size", [0, -2])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_empty_ground_set_names_field(self, tmp_path, capsys, command, size):
        # the document an unchecked `generate --size 0` used to write
        doc = {
            "ground": {"size": size},
            "p": [],
            "objective": {"kind": "linear", "weights": []},
            "inner": [{"kind": "partition", "n": 0, "parts": [], "capacities": []}],
            "outer": [{"kind": "graphic", "n_vertices": 2, "edges": []}],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, command, "--instance", str(path))
        assert code == 1
        assert f"error: ground.size: expected a value >= 1, got {size}" in stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_ground_set_above_cap_is_capability_error(self, tmp_path, capsys, command):
        doc = {
            "ground": {"size": 17},
            "p": [0.5] * 17,
            "objective": {"kind": "linear", "weights": [1.0] * 17},
            "inner": [],
            "outer": [{"kind": "uniform", "n": 17, "k": 3}],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, stdout, stderr = _run(capsys, command, "--instance", str(path))
        assert code == 3
        assert stderr == _over_cap(17)
        assert stdout == ""

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_huge_matroid_n_is_capability_error(self, instance_file, capsys, command):
        # the size is checked before the partition kind builds its 2^n - 1 mask
        doc = json.loads(instance_file.read_text())
        doc["outer"][0] = {"kind": "partition", "n": 10**12, "parts": [[0]], "capacities": [1]}
        instance_file.write_text(json.dumps(doc))
        code, stdout, stderr = _run(capsys, command, "--instance", str(instance_file))
        assert code == 3
        assert stderr == _over_cap(10**12)
        assert stdout == ""

    def test_env_var_override(self, instance_file, capsys, monkeypatch):
        monkeypatch.setenv("PROBE_KIT_RUN_TRIALS", "123")
        code, stdout, _ = _run(capsys, "run", "--instance", str(instance_file))
        assert code == 0
        assert json.loads(stdout)["trials"] == 123


class TestVerify:
    def test_valid_instance_passes(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        _run(capsys, "generate", "--size", "4", "--seed", "2", "--out", str(out))
        code, stdout, _ = _run(capsys, "verify", "--instance", str(out))
        assert code == 0
        assert "ok" in stdout

    def test_corrupted_matroid_fails_with_named_violation(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        _run(capsys, "generate", "--size", "4", "--seed", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        # downward-closed but exchange-violating family
        doc["outer"][0] = {
            "kind": "explicit",
            "n": 4,
            "independent_sets": [[], [0], [1], [2], [1, 2]],
            "contracted": [],
        }
        out.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "verify", "--instance", str(out))
        assert code == 2
        assert "exchange" in stderr

    @pytest.fixture()
    def matching16(self, tmp_path, capsys):
        """A 4x4 complete bipartite matching: |E| = 16, the ground-set cap."""
        out = tmp_path / "matching16.json"
        code, _, _ = _run(
            capsys, "generate", "--kind", "bipartite", "--size", "4", "--edge-prob", "1.0",
            "--patience", "2", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        return out

    def test_every_check_runs_up_to_the_cap(self, tmp_path, matching16, capsys):
        out = tmp_path / "inst.json"
        _run(
            capsys, "generate", "--size", "12", "--k-in", "1", "--k-out", "1",
            "--seed", "2", "--out", str(out),
        )
        for path in (out, matching16):
            code, stdout, stderr = _run(capsys, "verify", "--instance", str(path))
            assert (code, stdout, stderr) == (0, "ok\n", "")

    def test_non_matroid_at_the_cap_fails(self, matching16, capsys):
        doc = json.loads(matching16.read_text())
        assert doc["ground"]["size"] == 16
        # bases {a} and {b, c} differ in size; the other 13 elements are loops
        family = {"kind": "explicit", "n": 16, "independent_sets": [[], [0], [1, 2]]}
        doc["outer"][0] = family
        matching16.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "verify", "--instance", str(matching16))
        assert code == 2
        assert "FAIL: outer matroid 0: exchange" in stderr

    def test_rank_objective_over_a_non_matroid_fails(self, matching16, capsys):
        doc = json.loads(matching16.read_text())
        family = {"kind": "explicit", "n": 16, "independent_sets": [[], [0], [1, 2]]}
        doc["objective"] = {
            "kind": "weighted_matroid_rank",
            "matroid": family,
            "weights": [3.0, 2.0, 2.0] + [1.0] * 13,
        }
        matching16.write_text(json.dumps(doc))
        code, _, stderr = _run(capsys, "verify", "--instance", str(matching16))
        assert code == 2
        assert "FAIL: objective: " in stderr

    def test_large_weights_pass(self, tmp_path, capsys):
        # rounding in a table of weights ~1e6 is far above 1e-9
        weights = [475929.254, 1088458.451, 739910.333, 1207840.077, 1251440.608,
                   131057.718, 26335.983, 1674938.164, 518708.029, 468661.922]
        out = tmp_path / "heavy.json"
        out.write_text(json.dumps({
            "ground": {"size": 10}, "p": [0.5] * 10,
            "objective": {"kind": "linear", "weights": weights},
            "inner": [], "outer": [{"kind": "uniform", "n": 10, "k": 3}],
        }))
        code, stdout, stderr = _run(capsys, "verify", "--instance", str(out))
        assert (code, stdout, stderr) == (0, "ok\n", "")

    def test_tampered_probabilities_fail(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        _run(capsys, "generate", "--size", "4", "--seed", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["p"] = [2.0] * 4
        out.write_text(json.dumps(doc))
        code, _, _ = _run(capsys, "verify", "--instance", str(out))
        assert code == 1  # schema-level rejection on load


    def test_near_integral_point_round_trips(self, tmp_path, capsys):
        # x0 has coordinates of 1 - 1e-9, so the peel stalls and the exact
        # fallback must keep terms of weight about 1e-9
        out = tmp_path / "matching.json"
        code, _, _ = _run(
            capsys, "generate", "--kind", "bipartite", "--size", "4", "--patience", "2",
            "--edge-prob", "0.9", "--seed", "24", "--out", str(out),
        )
        assert code == 0
        code, stdout, stderr = _run(capsys, "verify", "--instance", str(out))
        assert code == 0, stderr
        assert stdout == "ok\n"

    def test_nan_round_trip_fails(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "inst.json"
        _run(capsys, "generate", "--size", "4", "--seed", "2", "--out", str(out))
        decompose_masks = probe_kit.cli.decompose_masks
        # a NaN only in coordinate 1 of the round trip, which `max` would skip
        monkeypatch.setattr(
            probe_kit.cli, "decompose_masks",
            lambda m, x: decompose_masks(m, x) + [(math.nan, 0b10)],
        )
        code, _, stderr = _run(capsys, "verify", "--instance", str(out))
        assert code == 2
        assert "FAIL: outer matroid 0: decomposition round-trip failed" in stderr


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, stdout, _ = _run(capsys, "--help")
        assert code == 0
        assert "generate" in stdout


# Runs each argv through cli.main in one fresh interpreter and prints, after
# each, its exit code and which of scipy.optimize and multiprocessing (the
# worker pool's) have been imported.
_STARTUP = textwrap.dedent("""
    import json, sys
    loaded = lambda: [m for m in ("scipy.optimize", "multiprocessing") if m in sys.modules]
    seen = []
    import probe_kit
    seen.append(["import probe_kit", None, loaded()])
    from probe_kit.cli import main
    seen.append(["import probe_kit.cli", None, loaded()])
    for argv in json.loads(sys.argv[1]):
        seen.append([argv[0], main(argv), loaded()])
    print(json.dumps(seen))
""")


def test_scipy_optimize_loads_at_the_first_solve(tmp_path):
    inst, bad, wide, broken = (tmp_path / f"{n}.json" for n in ("inst", "bad", "wide", "broken"))
    assert main(["generate", "--size", "4", "--seed", "2", "--out", str(inst)]) == 0
    bad.write_text("{")
    wide.write_text(json.dumps({
        "ground": {"size": 17}, "p": [0.5] * 17,
        "objective": {"kind": "linear", "weights": [1.0] * 17},
        "inner": [], "outer": [{"kind": "uniform", "n": 17, "k": 3}],
    }))
    doc = json.loads(inst.read_text())
    doc["outer"][0] = {"kind": "explicit", "n": 4, "independent_sets": [[], [0], [1], [2], [1, 2]]}
    broken.write_text(json.dumps(doc))
    argvs = [
        ["--help"],
        ["generate", "--size", "4", "--seed", "2", "--out", str(tmp_path / "g.json")],
        ["run", "--instance", str(bad)],
        ["run", "--instance", str(wide)],
        ["verify", "--instance", str(broken)],
        ["run", "--instance", str(inst), "--trials", "10", "--out", str(tmp_path / "r.json")],
        ["run", "--instance", str(inst), "--trials", "600", "--jobs", "2"],
    ]
    src = str(Path(probe_kit.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import probe_kit", None, []],
        ["import probe_kit.cli", None, []],
        ["--help", 0, []],
        ["generate", 0, []],
        ["run", 1, []],  # a file that is not JSON
        ["run", 3, []],  # |E| above the cap
        ["verify", 2, []],  # fails its structural checks
        ["run", 0, ["scipy.optimize"]],  # the first solve imports it; --jobs 1, no pool
        ["run", 0, ["scipy.optimize", "multiprocessing"]],  # two chunks, two workers
    ]
    assert json.loads((tmp_path / "r.json").read_text())["trials"] == 10
