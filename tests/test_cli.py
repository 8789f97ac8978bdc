import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latticeqe.cli import build_parser, main
from latticeqe.experiments import RUNS, ExperimentConfig, reader, run
from latticeqe.lattice import Observable, cube
from latticeqe.reporting import ExperimentReport, config_hash, emit_report
from latticeqe.schrodinger import FloquetBasis, counterexample_potential, lattice_block, partial_qe_experiment
from latticeqe.spectra import sine_basis
from latticeqe.time_average import bessel_bound_check, centered, fourier_phases, quantum_variance


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["correspond", "--d", "1", "--N", "2,3", "--out", str(tmp_path)]) == 0

    def test_assertion_failure_exits_two(self, tmp_path):
        # an unreachable bound forces fail rows
        code = main(
            ["var-scan", "--d", "1", "--N", "8,16", "--obs", "centered-half",
             "--bound", "1e-12", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-thing"])
        assert err.value.code == 1

    def test_descending_sizes_rejected(self, tmp_path):
        assert main(["var-scan", "--d", "1", "--N", "16,8", "--out", str(tmp_path)]) == 1

    def test_missing_sizes_rejected(self, tmp_path):
        assert main(["var-scan", "--d", "1", "--out", str(tmp_path)]) == 1

    def test_negative_offset_range_rejected(self, tmp_path, capsys):
        assert main(["correlator", "--N", "10,20", "--R", "-1", "--out", str(tmp_path)]) == 1
        assert "--R" in capsys.readouterr().err
        assert not (tmp_path / "correlator.csv").exists()

    def test_negative_random_count_rejected(self, tmp_path, capsys):
        code = main(["bessel", "--d", "1", "--N", "4", "--random", "-3", "--out", str(tmp_path)])
        assert code == 1
        assert "--random" in capsys.readouterr().err
        assert not (tmp_path / "bessel.csv").exists()

    @pytest.mark.parametrize("argv, named", [
        (["schrodinger", "--task", "counterexample", "--M", "2e154"], "need M <="),  # (M - 2)^2 overflows
        (["bessel", "--random", str(sys.maxsize + 1)], "(--random) must be at most"),  # no list that long
    ])
    def test_value_past_its_range_is_one_error_line(self, tmp_path, capsys, argv, named):
        assert main(argv + ["--N", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error:") and err.count("\n") == 1 and named in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,field", [
        (["correlator", "--N", "5", "--R", "2", "--bound", "-1"], "bound"),
        (["var-scan", "--d", "1", "--N", "4", "--bound=-1e-9"], "bound"),
        (["correspond", "--d", "1", "--N", "3", "--tol=-1e-3"], "tol"),
    ])
    def test_negative_bound_or_tolerance_is_usage_error(self, tmp_path, capsys, argv, field):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"latticeqe: error: config field {field!r}") and "nonnegative" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field", ["bound", "tol"])
    def test_negative_bound_or_tolerance_in_config_rejected(self, tmp_path, capsys, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_values": [5], field: -0.5}))
        experiment = "correlator" if field == "bound" else "correspond"
        out = tmp_path / "out"
        assert main([experiment, "--config", str(path), "--out", str(out)]) == 1
        assert f"config field {field!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_bound_allowed(self, tmp_path):
        assert main(["correlator", "--N", "5", "--R", "1", "--bound", "0", "--out", str(tmp_path)]) in (0, 2)

    def test_allocation_failure_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setitem(RUNS, "degeneracy", (exhausted, RUNS["degeneracy"][1]))
        assert main(["degeneracy", "--d", "40", "--N", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error: degeneracy ran out of memory: Unable to allocate")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_bare_allocation_failure_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setitem(RUNS, "lemma-c1", (exhausted, RUNS["lemma-c1"][1]))
        assert main(["lemma-c1", "--d", "2", "--N", "3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "latticeqe: error: lemma-c1 ran out of memory: allocation failed\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field", ["max_offset", "random_count"])
    def test_non_integer_count_in_config_rejected(self, tmp_path, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: None}))
        assert main(["var-scan", "--config", str(path), "--N", "4", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("q", ["0", "-2", "2,0"])
    def test_non_positive_period_rejected(self, tmp_path, capsys, q):
        code = main(["var-scan", "--d", "1", "--N", "4", "--obs", "block-constant", "--q", q,
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "latticeqe: error:" in err and "'q'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["correspond", "--d", "1", "--N", "3"],
        ["bessel", "--d", "1", "--N", "4"],
        ["lemma-c1", "--d", "1", "--N", "4"],
        ["correlator", "--N", "10"],
        ["schrodinger", "--N", "4"],
    ])
    def test_periodic_mode_on_zero_boundary_experiment_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--mode", "periodic", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "latticeqe: error:" in err and "'mode'" in err and argv[0] in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["var-scan", "--d", "1", "--N", "4"],
        ["bessel", "--d", "1", "--N", "4"],
        ["schrodinger", "--task", "partial-qe", "--N", "4"],
    ])
    def test_empty_observable_list_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--obs", ",", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "latticeqe: error:" in err and "'obs'" in err and argv[0] in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["var-scan"], ["bessel"], ["schrodinger", "--task", "partial-qe"]])
    def test_empty_observable_list_in_config_rejected(self, tmp_path, capsys, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d": 1, "n_values": [4], "obs": []}))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 1
        assert "'obs'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,rows", [
        (["bessel", "--d", "1", "--N", "4", "--random", "2"], 2),
    ])
    def test_empty_observable_list_allowed_where_unread(self, tmp_path, argv, rows):
        assert main(argv + ["--obs", ",", "--out", str(tmp_path)]) == 0
        assert len(read(tmp_path / f"{argv[0]}.csv").splitlines()) == rows + 1

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_is_not_a_directory_is_usage_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "a-file"
        blocker.write_text("kept")
        out = blocker / below if below else blocker
        assert main(["degeneracy", "--d", "1", "--N", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error: output directory (--out)") and str(blocker) in err
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"

    def test_write_failure_is_an_error_and_leaves_no_report(self, tmp_path, capsys):
        (tmp_path / "degeneracy.json").mkdir()  # the CSV is written, the JSON cannot replace a directory
        assert main(["degeneracy", "--d", "1", "--N", "3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("latticeqe: error: cannot write the report")
        assert [p.name for p in tmp_path.iterdir()] == ["degeneracy.json"]
        assert not any((tmp_path / "degeneracy.json").iterdir())

    def test_no_experiment_given(self):
        assert main([]) == 1

    def test_inadmissible_observable_rejected(self, tmp_path):
        code = main(
            ["schrodinger", "--task", "partial-qe", "--N", "4", "--obs", "parity",
             "--M", "50", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_observable_is_usage_error(self, tmp_path, bad):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"values": [0.5, bad, 0.0, 1.0]}))
        code = main(["var-scan", "--d", "1", "--N", "4", "--obs", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "var-scan.csv").exists()

    def test_unchecked_mode_runs_inadmissible_observable(self, tmp_path):
        code = main(
            ["schrodinger", "--task", "partial-qe", "--N", "4", "--obs", "parity",
             "--M", "50", "--unchecked", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_inadmissible_observable_error_names_the_flag(self, tmp_path, capsys):
        argv = ["schrodinger", "--task", "partial-qe", "--M", "100", "--N", "3", "--obs", "parity",
                "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error: block-orbit sums differ by ")
        assert "rerun with --unchecked" in err and "enforce_lc" not in err
        assert not (tmp_path / "schrodinger.csv").exists()

    def test_long_period_error_names_the_flag(self, tmp_path, capsys):
        path = tmp_path / "pot.json"
        path.write_text(json.dumps({"d": 1, "q": [3], "values": [0.0, 1.0, 2.0]}))
        argv = ["schrodinger", "--task", "partial-qe", "--potential", str(path), "--N", "4",
                "--obs", "block-constant", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error: periods (3,) exceed 2")
        assert "pass --exploratory" in err and "exploratory=" not in err
        assert not (tmp_path / "schrodinger.csv").exists()

    def test_violated_bessel_bound_is_a_fail_row(self, tmp_path):
        # An inflated Fourier coefficient breaks lhs <= rhs: the row says so
        # and the run exits 2, with no traceback.
        script = (
            "import sys\n"
            "import latticeqe.time_average as ta\n"
            "from latticeqe.cli import main\n"
            "real = ta.fourier_coefficients\n"
            "def inflated(a, *args):\n"
            "    c = real(a, *args).copy()\n"
            "    c.flat[0] += 100.0\n"
            "    return c\n"
            "ta.fourier_coefficients = inflated\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script, "bessel", "--d", "1", "--N", "4",
             "--obs", "half-indicator", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = read(tmp_path / "bessel.csv").splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        cell = dict(zip(header, row))
        assert cell["pass"] == "false"
        assert float(cell["lhs"]) > float(cell["rhs"])


class TestOutputs:
    def test_var_scan_columns(self, tmp_path):
        main(["var-scan", "--d", "1", "--N", "8,16,32", "--obs", "half-indicator",
              "--out", str(tmp_path)])
        lines = read(tmp_path / "var-scan.csv").split("\n")
        assert lines[0] == "N,var,var_times_N,pass"
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[-1] == ""

    def test_lemma_c1_counts_within_bound(self, tmp_path):
        main(["lemma-c1", "--d", "2", "--N", "8", "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "lemma-c1.json"))
        assert payload["columns"][:5] == ["N", "theta", "t", "eps", "epsp"]
        assert payload["rows"], "expected nonempty enumeration"
        assert all(row["count"] <= row["bound"] for row in payload["rows"])
        assert payload["passed"] is True

    def test_correspond_json_fields(self, tmp_path):
        main(["correspond", "--d", "2", "--N", "4", "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "correspond.json"))
        row = payload["rows"][0]
        assert "max_residual" in row and "gram_error" in row
        assert row["pass"] is True

    def test_json_round_trips(self, tmp_path):
        main(["bessel", "--d", "1", "--N", "4,6", "--obs", "half-indicator,parity",
              "--random", "3", "--seed", "11", "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "bessel.json"))
        assert payload["metadata"]["config_hash"]
        assert all(row["lhs"] <= row["rhs"] for row in payload["rows"])

    def test_csv_uses_lf_only(self, tmp_path):
        main(["degeneracy", "--d", "2", "--N", "2,4", "--out", str(tmp_path)])
        raw = (tmp_path / "degeneracy.csv").read_bytes()
        assert b"\r" not in raw

    def test_schrodinger_counterexample_row(self, tmp_path):
        main(["schrodinger", "--task", "counterexample", "--M", "50", "--N", "10",
              "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "schrodinger.json"))
        row = payload["rows"][0]
        assert row["low_band_count"] == 10
        assert row["high_band_count"] == 10
        assert row["pass"] is True

    def test_schrodinger_counterexample_empty_band_is_a_fail_row(self, tmp_path, monkeypatch):
        from latticeqe import experiments

        real = experiments.counterexample_mass_profile
        monkeypatch.setattr(experiments, "counterexample_mass_profile",
                            lambda M, N: dataclasses.replace(real(M, N), high_band_count=0))
        argv = ["schrodinger", "--task", "counterexample", "--M", "50", "--N", "10"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        row = json.loads(read(tmp_path / "schrodinger.json"))["rows"][0]
        assert row["high_band_count"] == 0 and row["pass"] is False
        assert np.isnan(row["max_high_odd_mass"]) and row["max_low_even_mass"] <= row["mass_bound"]

    def test_bessel_builds_one_phase_matrix_per_side(self, tmp_path, monkeypatch):
        from latticeqe import experiments

        sides = []
        real = experiments.fourier_phases
        monkeypatch.setattr(experiments, "fourier_phases", lambda N: sides.append(N) or real(N))
        argv = ["bessel", "--d", "2", "--N", "2,4,5", "--obs", "half-indicator,parity", "--random", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert sides == [2, 4, 5]

    def test_correlator_scan(self, tmp_path):
        code = main(["correlator", "--N", "20,40", "--R", "2", "--out", str(tmp_path)])
        assert code == 0
        lines = read(tmp_path / "correlator.csv").split("\n")
        assert lines[0] == "N,z,max_err,err_times_N,bound,pass"

    def test_partial_qe_with_potential_file(self, tmp_path):
        pot = {"d": 1, "q": [2], "values": [0.0, 30.0]}
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(pot))
        code = main(
            ["schrodinger", "--task", "partial-qe", "--potential", str(path),
             "--N", "4,8", "--obs", "block-constant", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads(read(tmp_path / "schrodinger.json"))
        assert payload["rows"][0]["q"] == "2"

    def test_exploratory_flag_allows_long_periods(self, tmp_path):
        pot = {"d": 1, "q": [3], "values": [0.0, 1.0, 2.0]}
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(pot))
        base = ["schrodinger", "--task", "partial-qe", "--potential", str(path),
                "--N", "4", "--obs", "block-constant", "--out", str(tmp_path)]
        assert main(base) == 1
        assert main(base + ["--exploratory"]) == 0

    @pytest.mark.parametrize("text, named", [
        (json.dumps({"vals": [0.5, 0.5, 0.5, 0.5]}), "'values'"),
        (json.dumps([0.5, 0.5, 0.5, 0.5]), "'values'"),
        (json.dumps({"values": ["x", 0.5, 0.5, 0.5]}), "'values'"),
        ('{"values": [0.5,', "Expecting value"),
    ])
    def test_bad_observable_file_is_usage_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "obs.json"
        path.write_text(text)
        code = main(["var-scan", "--d", "1", "--N", "4", "--obs", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error:") and str(path) in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "var-scan.csv").exists()

    @pytest.mark.parametrize("content, named", [
        ({"d": 1, "values": [0.0, 30.0]}, "'q'"),
        ({"d": 1, "q": [2], "values": [0.0, float("nan")]}, "finite"),
        ({"d": 1, "q": 2, "values": [0.0, 30.0]}, "'q'"),
        ([0.0, 30.0], "JSON object"),
    ])
    def test_bad_potential_file_is_usage_error(self, tmp_path, capsys, content, named):
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(content))
        code = main(["schrodinger", "--task", "partial-qe", "--potential", str(path),
                     "--N", "4", "--obs", "block-constant", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("latticeqe: error:") and str(path) in err and named in err
        assert not (tmp_path / "schrodinger.csv").exists()

    @pytest.mark.parametrize("flags", [["--tol", "nan"], ["--bound", "nan"], ["--M", "inf"]])
    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys, flags):
        code = main(["var-scan", "--d", "1", "--N", "4"] + flags + ["--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("latticeqe: error: config field")
        assert not (tmp_path / "var-scan.csv").exists()

    def test_missing_potential_file_is_usage_error(self, tmp_path):
        code = main(
            ["schrodinger", "--task", "partial-qe", "--potential", str(tmp_path / "nope.json"),
             "--N", "4", "--out", str(tmp_path)]
        )
        assert code == 1


class TestSharedParser:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_do_not_leak_flags(self, tmp_path, capsys):
        flagged = ["bessel", "--d", "1", "--N", "4,6", "--obs", "half-indicator",
                   "--random", "2", "--seed", "7", "--q", "1", "--out", str(tmp_path / "a")]
        plain = ["bessel", "--d", "1", "--N", "4,6", "--obs", "half-indicator",
                 "--out", str(tmp_path / "b")]
        assert main(flagged) == 0
        assert main(plain) == 0
        a = json.loads(read(tmp_path / "a" / "bessel.json"))["metadata"]["config"]
        b = json.loads(read(tmp_path / "b" / "bessel.json"))["metadata"]["config"]
        assert (a["seed"], a["random_count"], a["q"]) == (7, 2, [1])
        defaults = ExperimentConfig(experiment="bessel").canonical()
        assert (b["seed"], b["random_count"], b["q"]) == (
            defaults["seed"], defaults["random_count"], defaults["q"])

    def test_store_true_flag_does_not_stick(self, tmp_path):
        argv = ["schrodinger", "--task", "partial-qe", "--N", "4", "--obs", "parity",
                "--M", "50", "--out", str(tmp_path)]
        assert main(argv + ["--unchecked"]) == 0
        assert main(argv) == 1

    def test_usage_error_between_calls_exits_one(self, tmp_path):
        argv = ["correspond", "--d", "1", "--N", "2,3", "--out", str(tmp_path)]
        assert main(argv) == 0
        with pytest.raises(SystemExit) as err:
            main(["correspond", "--d", "one"])
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            main(["no-such-thing"])
        assert err.value.code == 1
        assert main([]) == 1
        assert main(argv) == 0

class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        args = ["bessel", "--d", "1", "--N", "4,6", "--obs", "half-indicator",
                "--random", "2", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("bessel.csv", "bessel.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_changed_config_changes_hash(self, tmp_path):
        main(["var-scan", "--d", "1", "--N", "8", "--out", str(tmp_path / "a")])
        main(["var-scan", "--d", "1", "--N", "16", "--out", str(tmp_path / "b")])
        h1 = json.loads(read(tmp_path / "a" / "var-scan.json"))["metadata"]["config_hash"]
        h2 = json.loads(read(tmp_path / "b" / "var-scan.json"))["metadata"]["config_hash"]
        assert h1 != h2

    def test_exit_two_iff_fail_row(self, tmp_path):
        code = main(["correlator", "--N", "20,40", "--R", "1", "--bound", "0",
                     "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "correlator.json"))
        assert any(not row["pass"] for row in payload["rows"])
        assert code == 2


class TestCertificatesUnread:
    """No report reads the Floquet certificates, so no ``schrodinger`` run computes them."""

    @pytest.mark.parametrize("job, csv_digest, json_digest", [
        ("schrodinger --task counterexample --M 100 --N 10,20,300",
         "858b8ddffbc6160c659d0f03a424d44c158abd01db9b5a57cfb8f501a547561b",
         "5600881facfc5a17381a2245e53d1f9eee25d6e4861009fbb9600b4ec78ccbb2"),
        ("schrodinger --task partial-qe --M 100 --N 4,8,64 --obs block-constant",
         "85d9e75e33c5cd656c93816fd27717446805035911dfcfc172bcf94112b0b0cd",
         "ea357cbc2356d6c91b726db1549939aa782d964c7ecb1b746b7fd7edb455ca43"),
        ("schrodinger --task partial-qe --N 2,4,8 --obs block-constant --potential staggered_2d.json",
         "0cd17c3261259d2b05462b60f43451392a4d795ad2eb53565772ecbca2c1e101",
         "d248227aa01ccbebf9cd4f09945459d11cea45e446db6ea053fa66a01c33082a"),
    ], ids=["counterexample", "partial-qe", "partial-qe-staggered-2d"])
    def test_reports_keep_their_bytes(self, job, csv_digest, json_digest, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("Floquet certificates computed")

        monkeypatch.setattr(FloquetBasis, "_certificates", property(refuse))
        monkeypatch.chdir(tmp_path)  # the potential path is part of the config, so it is given relative
        (tmp_path / "staggered_2d.json").write_text(
            '{"d": 2, "q": [2, 2], "values": [0.0, 100.0, 100.0, 0.0]}\n', encoding="utf-8")
        assert main(job.split() + ["--out", "out"]) == 0
        digest = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                  for name in ("schrodinger.csv", "schrodinger.json")}
        assert digest == {"schrodinger.csv": csv_digest, "schrodinger.json": json_digest}
        with pytest.raises(AssertionError, match="certificates computed"):
            FloquetBasis(counterexample_potential(100.0), 2).residual


class TestTracedDenseSolve:
    """The benchmark tracer's ``schrodinger.eigensolve`` counter on the dense path, which no benchmark job takes."""

    def test_counts_v_cubed_per_solve(self, tmp_path):
        script = (
            "import json, sys\n"
            "import latticeqe, latticeqe.cli\n"
            "from tracer import Tracer, layer_totals\n"
            "tracer = Tracer()\n"
            "tracer.install(latticeqe)\n"
            "tracer.begin_pass()\n"
            "code = latticeqe.cli.main(sys.argv[1:])\n"
            "spans = tracer.end_pass()\n"
            "print(json.dumps({'code': code, 'calls': layer_totals(spans)['schrodinger.eigensolve']['calls'],\n"
            "                  'v3': [s.counts.get('v3') for s in spans if s.fn == 'eigensolve_symmetric']}))\n"
        )
        (tmp_path / "period3.json").write_text('{"q": [3], "values": [0.0, 1.0, 2.0]}\n', encoding="utf-8")
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-c", script, "schrodinger", "--task", "partial-qe", "--exploratory",
             "--potential", str(tmp_path / "period3.json"), "--N", "2,3,5", "--obs", "block-constant",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(proc.stdout.splitlines()[-1])
        assert traced == {"code": 0, "calls": 3, "v3": [(3 * N) ** 3 for N in (2, 3, 5)]}


def _draw(box, *key) -> Observable:
    return Observable.diagonal(box, np.random.default_rng(list(key)).uniform(-1.0, 1.0, box.volume))


def _rows(path: Path) -> list[dict]:
    return json.loads(read(path))["rows"]


class TestRandomObservables:
    """``--seed`` draws each random-diagonal from ``default_rng([seed, N])`` (var-scan, schrodinger) or
    ``default_rng([seed, N, i])`` (bessel, ``i`` its place in ``--obs`` then the ``--random`` draws)."""

    @pytest.mark.parametrize("argv,repeated", [
        (["schrodinger", "--task", "partial-qe", "--M", "100", "--N", "4,8",
          "--obs", "random-diagonal,random-diagonal", "--unchecked", "--seed", "3"], "random-diagonal"),
        (["bessel", "--d", "2", "--N", "4", "--obs", "parity,parity"], "parity"),
    ])
    def test_repeated_observable_is_usage_error(self, tmp_path, capsys, argv, repeated):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"config field 'obs' (--obs) lists {repeated!r} more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_var_scan_draws_from_seed_and_N(self, tmp_path):
        assert main(["var-scan", "--d", "2", "--N", "3,5", "--obs", "random-diagonal", "--bound", "100",
                     "--seed", "11", "--out", str(tmp_path)]) == 0
        for row in _rows(tmp_path / "var-scan.json"):
            N = row["N"]
            assert row["var"] == quantum_variance(sine_basis(N, 2), centered(_draw(cube(N, 2), 11, N)))

    def test_schrodinger_draws_from_seed_and_N(self, tmp_path):
        assert main(["schrodinger", "--task", "partial-qe", "--M", "100", "--N", "4,8", "--obs",
                     "block-constant,random-diagonal", "--unchecked", "--seed", "5", "--out", str(tmp_path)]) == 0
        potential = counterexample_potential(100.0)
        rows = [row for row in _rows(tmp_path / "schrodinger.json") if row["obs"] == "random-diagonal"]
        assert [row["N"] for row in rows] == [4, 8]
        for row in rows:
            a = _draw(lattice_block(potential.q, row["N"]), 5, row["N"])
            assert row["variance"] == partial_qe_experiment(potential, row["N"], a, enforce_lc=False).variance

    def test_bessel_draws_from_seed_N_and_place(self, tmp_path):
        assert main(["bessel", "--d", "2", "--N", "2,4", "--obs", "parity", "--random", "2", "--seed", "9",
                     "--out", str(tmp_path)]) == 0
        rows = [row for row in _rows(tmp_path / "bessel.json") if row["obs"] != "parity"]
        assert [(row["N"], row["obs"]) for row in rows] == [
            (N, f"random-diagonal-{i}") for N in (2, 4) for i in (1, 2)]
        for row in rows:
            N, i = row["N"], int(row["obs"].rsplit("-", 1)[1])
            lhs, rhs = bessel_bound_check(_draw(cube(N, 2), 9, N, i), fourier_phases(N))
            assert (row["lhs"], row["rhs"]) == (lhs, rhs)

    def test_numpy_random_loads_only_for_a_draw(self, tmp_path):
        script = (
            "import json, sys\n"
            "import numpy\n"
            "if 'numpy.random' in sys.modules:\n"
            "    print('eager')\n"
            "    sys.exit(0)\n"
            "from latticeqe.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "print(json.dumps(loaded))\n"
        )
        runs = [
            ["schrodinger", "--task", "partial-qe", "--M", "100", "--N", "4,8", "--obs", "block-constant"],
            ["var-scan", "--d", "1", "--N", "8", "--obs", "centered-half"],
            ["bessel", "--d", "1", "--N", "4", "--random", "1"],
        ]
        runs = [argv + ["--seed", "1", "--out", str(tmp_path)] for argv in runs]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.splitlines()[-1]
        if last == "eager":
            pytest.skip("this numpy imports numpy.random with numpy")
        assert json.loads(last) == [False, False, True]


class TestConfigFile:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = {"d": 1, "n_values": [4, 8], "obs": ["half-indicator"], "seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bessel", "--config", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads(read(tmp_path / "bessel.json"))
        assert payload["metadata"]["config"]["seed"] == 3

    def test_flags_override_config(self, tmp_path):
        cfg = {"d": 1, "n_values": [4, 8], "seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        main(["bessel", "--config", str(path), "--seed", "9", "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "bessel.json"))
        assert payload["metadata"]["config"]["seed"] == 9

    def test_malformed_config_is_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["bessel", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nn_values": [2]}))
        assert main(["bessel", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("content", [{"validate": 1}, {"canonical": 1}, [1, 2], "d", 4])
    def test_non_field_keys_and_non_objects_rejected(self, tmp_path, monkeypatch, capsys, content):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(content))
        assert main(["var-scan", "--config", "cfg.json", "--N", "4"]) == 1
        assert "cfg.json" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_lists_become_tuples_and_integers_stay_as_given(self, tmp_path):
        # each integer sits in a float field of an experiment that reads it
        for experiment, cfg, given in (("schrodinger", {"task": "counterexample", "mass": 100}, '"mass": 100,'),
                                       ("correspond", {"d": 1, "tol": 1}, '"tol": 1,')):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"n_values": [4, 8], **cfg}))
            assert main([experiment, "--config", str(path), "--out", str(tmp_path)]) == 0
            text = read(tmp_path / f"{experiment}.json")
            assert given in text
            assert json.loads(text)["metadata"]["config"]["n_values"] == [4, 8]

    def test_integer_past_float_range_rejected_in_float_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": "partial-qe", "n_values": [2], "obs": ["block-constant"],
                                    "mass": 2**1024}))
        assert main(["schrodinger", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("latticeqe: error: config field 'mass' expects float")
        assert not (tmp_path / "out").exists()

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(experiment="var-scan", d=np.int64(2), n_values=[np.int32(4), 8])
        cfg.validate()
        assert type(cfg.d) is int and cfg.n_values == (4, 8)
        assert all(type(N) is int for N in cfg.n_values)

    def test_subcommand_names_the_experiment(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "bessel", "n_values": [4]}))
        assert main(["var-scan", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "var-scan.csv").exists() and not (tmp_path / "bessel.csv").exists()

    def test_env_thread_cap_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QE_THREADS", "2")
        assert main(["correspond", "--d", "1", "--N", "2,3,4", "--out", str(tmp_path)]) == 0


def _mistyped(annotation: str) -> list:
    """JSON values of the wrong type for a field annotated ``annotation``."""
    if annotation.startswith("tuple"):
        bad = ["2", 2.5, True, 4, [2.5]]  # a bare scalar where a list is declared, or a mistyped item
    else:
        scalar = annotation.split(" |")[0]
        bad = [v for v, kind in (("2", "str"), (2.5, "float"), (True, "bool")) if kind != scalar]
        bad += [[2]]
    return bad if "None" in annotation else bad + [None]


_FIELD_CASES = [(f.name, value) for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"
                for value in _mistyped(f.type)]


class TestSingleDeclaration:
    def test_parser_dests_are_the_config_fields(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sub.dest == "experiment"
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for p in sub.choices.values():
            assert {a.dest for a in p._actions if a.dest != "help"} == fields - {"experiment"} | {"config"}

    def test_canonical_holds_every_field_but_out(self):
        cfg = ExperimentConfig(experiment="var-scan", n_values=(4, 8), q=(2,))
        canonical = cfg.canonical()
        assert list(canonical) == [f.name for f in dataclasses.fields(cfg) if f.name != "out"]
        assert (canonical["n_values"], canonical["q"], canonical["obs"]) == ([4, 8], [2], ["half-indicator"])

    @pytest.mark.parametrize("field, value", _FIELD_CASES, ids=[f"{n}={v!r}" for n, v in _FIELD_CASES])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys, field, value):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"n_values": [4], field: value}))
        assert main(["var-scan", "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"latticeqe: error: config field {field!r}")
        assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]  # no report, no output directory


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


class _Recording(ExperimentConfig):
    """A config that notes, in ``read``, each field read while ``read`` is a set."""

    read = None

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "read")
        if read is not None and name in _FIELDS:
            read.add(name)
        return object.__getattribute__(self, name)


# Tiny runs of every branch that reads a field, by RUNS key: both schrodinger
# tasks, partial-qe with and without a potential file, block-constant (reads q)
# and random (reads seed) observables, and bessel with random diagonals. "POT"
# stands for a potential file.
_READ_CASES = {
    "var-scan": [dict(d=1, n_values=(4,)), dict(d=1, n_values=(4,), obs=("block-constant",), q=(2,)),
                 dict(d=2, n_values=(2,), obs=("random-diagonal",), mode="periodic")],
    "degeneracy": [dict(d=2, n_values=(2, 3)), dict(d=1, n_values=(4,), mode="periodic")],
    "lemma-c1": [dict(d=2, n_values=(3,))],
    "correspond": [dict(d=1, n_values=(3,))],
    "schrodinger --task counterexample": [dict(n_values=(4,))],
    "schrodinger --task partial-qe": [
        dict(task="partial-qe", n_values=(4,), obs=("block-constant", "random-diagonal"), unchecked=True),
        dict(task="partial-qe", n_values=(2,), obs=("block-constant",), potential="POT")],
    "correlator": [dict(n_values=(10,), max_offset=1)],
    "bessel": [dict(d=1, n_values=(4,)), dict(d=1, n_values=(4,), obs=("block-constant",), q=(2,), random_count=2)],
}

# A valid value away from the default, for each field an experiment may leave unread.
_AWAY = {"d": 2, "obs": ["parity"], "mode": "periodic", "q": [2], "potential": "pot.json", "mass": 50.0,
         "task": "partial-qe", "max_offset": 2, "tol": 0.5, "bound": 1e9, "random_count": 1, "unchecked": True,
         "exploratory": True}
_UNREAD = [(key, f) for key, (_, reads) in RUNS.items() for f in _AWAY if f not in reads]

# The error line of ``--N 4 --obs ,`` for each RUNS key (with ``--random 2`` where
# random_count is read): a run that reads obs needs an observable unless it draws
# random diagonals; any other run refuses obs as unread.
_UNREAD_OBS = "config field 'obs': {} reads only {} (and seed, out), so 'obs' must keep its default ('half-indicator',)"
_EMPTY_OBS = {
    ("var-scan", ()): "config field 'obs' (--obs): var-scan needs at least one observable",
    ("degeneracy", ()): _UNREAD_OBS.format("degeneracy", "d, n_values, mode"),
    ("lemma-c1", ()): _UNREAD_OBS.format("lemma-c1", "d, n_values"),
    ("correspond", ()): _UNREAD_OBS.format("correspond", "d, n_values, tol"),
    ("schrodinger --task counterexample", ()): _UNREAD_OBS.format("schrodinger --task counterexample",
                                                                  "n_values, task, mass"),
    ("schrodinger --task partial-qe", ()): "config field 'obs' (--obs): schrodinger needs at least one observable",
    ("correlator", ()): _UNREAD_OBS.format("correlator", "n_values, max_offset, bound"),
    ("bessel", ()): "config field 'obs' (--obs): bessel needs at least one observable",
    ("bessel", ("--random", "2")): None,
}


class TestDeclaredReads:
    @pytest.mark.parametrize("key", RUNS)
    def test_declared_fields_are_the_fields_read(self, tmp_path, key):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"d": 1, "q": [2], "values": [0.0, 30.0]}))
        runner, reads = RUNS[key]
        read = {"task"} if " --task " in key else set()  # the task picks the runner; run() reads it, not the runner
        for case in _READ_CASES[key]:
            cfg = _Recording(key.split()[0], **{k: str(pot) if v == "POT" else v for k, v in case.items()})
            cfg.validate()
            assert reader(cfg.experiment, cfg.task) == key
            cfg.read = set()
            runner(cfg)
            read |= cfg.read
        assert read == set(reads) | (read & {"seed"})

    @pytest.mark.parametrize("key", RUNS)
    def test_run_dispatches_to_the_runner_of_its_key(self, monkeypatch, key):
        called = []
        for other, (_, reads) in list(RUNS.items()):
            monkeypatch.setitem(RUNS, other, (lambda cfg, other=other: called.append(other) or {"pass": [True]}, reads))
        experiment, _, task = key.partition(" --task ")
        report = run(ExperimentConfig(experiment, n_values=(4,), **({"task": task} if task else {})))
        assert called == [key] and report.experiment == experiment and report.passed

    def test_settable_pairs(self):
        user_fields = _FIELDS - {"experiment", "out"}
        assert set(_AWAY) == user_fields - {"n_values", "seed"}  # read by every experiment / accepted everywhere
        assert len(RUNS) * len(user_fields) - len(_UNREAD) == 40

    @pytest.mark.parametrize("key, field", _UNREAD, ids=[f"{k}-{f}" for k, f in _UNREAD])
    def test_unread_field_away_from_default_rejected(self, tmp_path, monkeypatch, capsys, key, field):
        monkeypatch.chdir(tmp_path)
        Path("pot.json").write_text(json.dumps({"d": 1, "q": [2], "values": [0.0, 30.0]}))
        task = {"task": key.split()[-1]} if key.startswith("schrodinger") else {}
        Path("cfg.json").write_text(json.dumps({"n_values": [4], **task, field: _AWAY[field]}))
        assert main([key.split()[0], "--config", "cfg.json", "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"latticeqe: error: config field {field!r}: {key} reads only")
        assert not Path("out").exists()

    def test_empty_obs_cases_cover_every_run(self):
        assert {key for key, _ in _EMPTY_OBS} == set(RUNS)
        assert [key for key, extra in _EMPTY_OBS if extra] == [key for key, (_, reads) in RUNS.items()
                                                               if "random_count" in reads]

    @pytest.mark.parametrize("key, extra", list(_EMPTY_OBS), ids=[" ".join((k,) + e) for k, e in _EMPTY_OBS])
    def test_empty_obs_exits_one_where_an_observable_is_needed(self, tmp_path, capsys, key, extra):
        experiment, _, task = key.partition(" --task ")
        argv = [experiment, *(["--task", task] if task else []), "--N", "4", "--obs", ",", *extra]
        message = _EMPTY_OBS[key, extra]
        assert main(argv + ["--out", str(tmp_path / "out")]) == (0 if message is None else 1)
        assert capsys.readouterr().err == ("" if message is None else f"latticeqe: error: {message}\n")
        assert (tmp_path / "out").exists() == (message is None)

    @pytest.mark.parametrize("flags", [["--potential", "pot.json"], ["--obs", "parity"], ["--obs", ","],
                                       ["--unchecked"], ["--exploratory"]])
    def test_counterexample_refuses_partial_qe_flags(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        Path("pot.json").write_text(json.dumps({"d": 1, "q": [2], "values": [0.0, 30.0]}))
        assert main(["schrodinger", "--task", "counterexample", "--N", "4", *flags, "--out", "out"]) == 1
        field = flags[0].removeprefix("--")
        err = capsys.readouterr().err
        assert err.startswith(f"latticeqe: error: config field {field!r}: schrodinger --task counterexample reads only")
        assert not Path("out").exists()

    def test_unknown_task_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_values": [4], "task": "bands"}))
        assert main(["schrodinger", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "unknown schrodinger task 'bands'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["correspond", "--d", "1", "--N", "2", "--q", "2"],
        ["schrodinger", "--N", "4", "--q", "3"],
        ["lemma-c1", "--d", "1", "--N", "4", "--tol", "0.5"],
        ["correlator", "--N", "10", "--d", "3"],
        ["var-scan", "--d", "1", "--N", "4", "--unchecked", "--exploratory", "--M", "7", "--R", "9",
         "--random", "5"],
    ])
    def test_unread_flag_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "config field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_kept_means_same_type_and_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        for mass, code in ((100, 1), (100.0, 0)):
            path.write_text(json.dumps({"d": 1, "n_values": [4], "mass": mass}))
            assert main(["lemma-c1", "--config", str(path), "--out", str(tmp_path / "a")]) == code
        assert main(["lemma-c1", "--d", "1", "--N", "4", "--out", str(tmp_path / "b")]) == 0
        for name in ("lemma-c1.csv", "lemma-c1.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_descriptions_name_the_flags_read(self):
        # literal values: the parser derives the subcommands, their descriptions and the tasks from RUNS
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        tail = ("; --config, --seed and --out are accepted by every experiment. "
                "Any other flag or config key must keep its default.")
        assert sub.metavar == "var-scan|degeneracy|lemma-c1|correspond|schrodinger|correlator|bessel"
        assert [(name, p.description) for name, p in sub.choices.items()] == [
            ("var-scan", "var-scan reads --d, --N, --obs, --mode, --q, --bound" + tail),
            ("degeneracy", "degeneracy reads --d, --N, --mode" + tail),
            ("lemma-c1", "lemma-c1 reads --d, --N" + tail),
            ("correspond", "correspond reads --d, --N, --tol" + tail),
            ("schrodinger", "schrodinger --task counterexample reads --N, --task, --M; schrodinger --task partial-qe "
                            "reads --N, --task, --M, --potential, --obs, --unchecked, --exploratory" + tail),
            ("correlator", "correlator reads --N, --R, --bound" + tail),
            ("bessel", "bessel reads --d, --N, --obs, --q, --random" + tail),
        ]
        for p in sub.choices.values():
            assert next(a for a in p._actions if a.dest == "task").choices == ("counterexample", "partial-qe")

    @pytest.mark.parametrize("argv", [
        ["correspond", "--d", "1", "--N", "2"],
        ["bessel", "--d", "1", "--N", "4", "--random", "1"],
    ])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert "config field 'seed' (--seed)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d": 1, "n_values": [4], "random_count": 1, "seed": -1}))
        assert main(["bessel", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "config field 'seed' (--seed)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_var_scan_takes_one_observable(self, tmp_path, capsys, source):
        argv = ["var-scan", "--d", "2", "--N", "4,6", "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--obs", "half-indicator,parity"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"obs": ["half-indicator", "parity"]}))
            argv += ["--config", str(path)]
        assert main(argv) == 1
        assert "config field 'obs' (--obs): var-scan scans one observable" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReporting:
    def test_empty_rows_gives_header_only_csv(self, tmp_path):
        report = ExperimentReport("demo", ["a", "b"], [[], []], {"version": "0"})
        path, _ = emit_report(report, tmp_path)
        assert read(path) == "a,b\n"

    def test_float_cells_round_trip(self, tmp_path):
        report = ExperimentReport("demo", ["x"], [[0.1 + 0.2]], {})
        path, _ = emit_report(report, tmp_path)
        cell = read(path).split("\n")[1]
        assert float(cell) == 0.1 + 0.2

    def test_emit_writes_both_formats(self, tmp_path):
        report = ExperimentReport("demo", ["x"], [[1]], {"config_hash": "h"})
        paths = emit_report(report, tmp_path)
        assert {p.name for p in paths} == {"demo.csv", "demo.json"}

    def test_config_hash_stable_and_sensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_config_hash_of_numpy_scalars_equals_plain_twin(self, tmp_path):
        def config(integer, real, flag):
            return {"n_values": [integer(2), integer(5)], "tol": real(0.25), "flag": flag(True),
                    "nested": {"q": (integer(2), integer(1)), "inner": {"bound": real(-1.5), "on": [flag(False)]}}}

        plain = config(int, float, bool)
        assert config_hash(config(np.int64, np.float64, np.bool_)) == config_hash(plain)
        assert config_hash(config(np.int64, np.float64, np.bool_)) != config_hash({**plain, "flag": False})
        # the written report too: the metadata's numpy scalars are converted, not passed through
        written = []
        for integer, real, flag in ((np.int64, np.float64, np.bool_), (int, float, bool)):
            metadata = {"config": config(integer, real, flag), "count": integer(7), "scale": real(1e-300),
                        "ok": flag(False)}
            report = ExperimentReport("demo", ["x"], [[1]], metadata)
            out = tmp_path / integer.__name__
            written.append([path.read_bytes() for path in emit_report(report, out)])
        assert written[0] == written[1]
        assert b'"count": 7' in written[0][1] and b'"ok": false' in written[0][1]


class TestBookkeepingOnce:
    def test_second_validate_resolves_no_annotation(self, monkeypatch):
        ExperimentConfig(experiment="lemma-c1", n_values=(3,)).validate()

        def resolve(*_):
            raise AssertionError("annotations resolved again")

        monkeypatch.setattr(typing, "get_args", resolve)
        monkeypatch.setattr(typing, "get_origin", resolve)
        cfg = ExperimentConfig(experiment="var-scan", n_values=[4, np.int64(8)], obs=["block-constant"], q=[2],
                               bound=1)
        cfg.validate()  # optional, tuple and scalar fields all conformed from the shape table
        assert (cfg.n_values, cfg.obs, cfg.q, cfg.bound) == ((4, 8), ("block-constant",), (2,), 1)
        with pytest.raises(ValueError, match="config field 'q' expects"):
            ExperimentConfig(experiment="var-scan", n_values=(4,), q=2).validate()

    def test_run_builds_the_canonical_config_once(self, monkeypatch):
        canonical = ExperimentConfig.canonical
        calls = []
        monkeypatch.setattr(ExperimentConfig, "canonical", lambda self: calls.append(self) or canonical(self))
        cfg = ExperimentConfig(experiment="lemma-c1", n_values=(3,))
        report = run(cfg)
        assert calls == [cfg]
        assert report.metadata["config"] == canonical(cfg)
        assert report.metadata["config_hash"] == config_hash(canonical(cfg))


# Extreme values of the numeric flags. Counts between 4 and 2**48 are left
# out: they are real work, not extremes (``--random 10**6`` draws a million
# observables); from 2**48 up no list of that length can be allocated.
_EXTREME_FLOATS = st.sampled_from([sys.float_info.max, -sys.float_info.max, 2e154, 5e-324, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False)
_EXTREME_INTS = (st.sampled_from([sys.maxsize, sys.maxsize + 1, 2**64, 10**30]) | st.integers(max_value=-1)
                 | st.integers(0, 3) | st.integers(min_value=2**48))
_EXTREME_FLAGS = {"M": _EXTREME_FLOATS, "tol": _EXTREME_FLOATS, "bound": _EXTREME_FLOATS, "R": _EXTREME_INTS,
                  "random": _EXTREME_INTS, "seed": _EXTREME_INTS,
                  "q": st.lists(_EXTREME_INTS, min_size=1, max_size=2).map(lambda q: ",".join(map(str, q)))}
_EXTREME_FLAG_VALUES = st.sampled_from(sorted(_EXTREME_FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), _EXTREME_FLAGS[flag]))


class TestExtremeValues:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(list(RUNS)), N=st.sampled_from(["1", "2", "2,4"]), flag_value=_EXTREME_FLAG_VALUES)
    @example(key="schrodinger --task counterexample", N="2", flag_value=("M", 2e154))
    def test_main_exits_with_a_status_and_never_raises(self, tmp_path, key, N, flag_value):
        flag, value = flag_value
        experiment, _, task = key.partition(" --task ")
        argv = [experiment, "--N", N, f"--{flag}={value}", "--out", str(tmp_path)]
        if task:
            argv += ["--task", task] + (["--obs", "block-constant"] if task == "partial-qe" else [])
        assert main(argv) in (0, 1, 2)
