"""End-to-end command-line behavior via subprocess."""

from __future__ import annotations

import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logitboot.inference
import logitboot.model_core
from logitboot import (
    SimulationSpec,
    bca_intervals,
    bootstrap_fit,
    cli,
    fit_mle,
    holdout_validate,
    jackknife_estimates,
    save_csv,
    simulate,
    split_sample_fit,
)
from logitboot.data_io import encode, load_csv
from logitboot.model_core import _fit_batch

from conftest import GOLDEN_COEFFICIENTS

GOLDEN_FLAG = ",".join(str(c) for c in GOLDEN_COEFFICIENTS)


# Runs the CLI with every ``import scipy`` failing, as on a NumPy-only install.
WITHOUT_SCIPY = (
    "-c",
    "import runpy, sys; sys.modules['scipy'] = None; "
    "runpy.run_module('logitboot', run_name='__main__', alter_sys=True)",
)


def run_cli(*args, env_extra=None, pin_time=True, launcher=("-m", "logitboot")):
    env = dict(os.environ)
    if pin_time:
        env["SOURCE_DATE_EPOCH"] = "1700000000"
    env.pop("LOGITBOOT_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, *launcher, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "study.csv"
    code, out, err = run_cli(
        "simulate", "--coefficients", GOLDEN_FLAG, "--n", "400",
        "--seed", "7", "--out", str(path),
    )
    assert code == 0, err
    return str(path)


def single_class_csv(tmp_path):
    """A ten-row study whose every response is 1."""
    path = tmp_path / "all_pos.csv"
    rows = "\n".join(f"{20 + i},0,0,1" for i in range(10))
    path.write_text(f"Age,Gender,Emp,HIV\n{rows}\n")
    return str(path)


class TestManifest:
    def test_every_run_has_one_manifest(self, study_csv):
        code, out, _ = run_cli("fit", "--input", study_csv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"manifest", "coefficients"}
        manifest = doc["manifest"]
        assert manifest["subcommand"] == "fit"
        assert manifest["input"] == study_csv
        assert manifest["config"]["tol"] == 1e-8
        assert manifest["config"]["max_iter"] == 25
        assert out.count('"manifest"') == 1

    def test_source_date_epoch_pins_timestamp(self, study_csv):
        _, out, _ = run_cli("fit", "--input", study_csv)
        doc = json.loads(out)
        assert doc["manifest"]["timestamp"] == "2023-11-14T22:13:20Z"

    def test_error_documents_carry_manifest(self):
        code, out, _ = run_cli("fit", "--input", "/nonexistent/file.csv")
        assert code == 4
        doc = json.loads(out)
        assert doc["manifest"]["subcommand"] == "fit"
        assert doc["manifest"]["input"] == "/nonexistent/file.csv"
        assert doc["error"]["type"] == "FileNotFoundError"


class TestSimulateFit:
    def test_fit_recovers_generating_model_loosely(self, study_csv):
        code, out, _ = run_cli("fit", "--input", study_csv)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        fitted = [doc["coefficients"][c] for c in ("Intercept", "Age", "Emp", "Gender")]
        # n = 400: expect rough agreement only
        assert fitted == pytest.approx(GOLDEN_COEFFICIENTS, abs=0.8)
        assert doc["odds"][1]["odds_ratio"] == pytest.approx(
            np.exp(doc["coefficients"]["Age"]), rel=1e-12
        )

    def test_fit_output_is_deterministic_bytes(self, study_csv):
        _, first, _ = run_cli("fit", "--input", study_csv)
        _, second, _ = run_cli("fit", "--input", study_csv)
        assert first == second

    def test_simulate_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--coefficients", GOLDEN_FLAG, "--n", "100",
                "--seed", "3", "--out", str(a))
        run_cli("simulate", "--coefficients", GOLDEN_FLAG, "--n", "100",
                "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_is_default(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, out, _ = run_cli(
            "simulate", "--coefficients", GOLDEN_FLAG, "--n", "50",
            "--out", str(a), env_extra={"LOGITBOOT_SEED": "11"},
        )
        assert code == 0
        assert json.loads(out)["manifest"]["config"]["seed"] == 11
        run_cli("simulate", "--coefficients", GOLDEN_FLAG, "--n", "50",
                "--seed", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSimulateOutBytes:
    # SHA-256 of the files the record-by-record writer produced; the
    # columnar writer must reproduce them byte for byte.
    @pytest.mark.parametrize("n, seed, digest", [
        (30, 3, "6035557ff378cb8077bf132c445f3ac171e0949c172e8ac7cb681f1d6ba13494"),
        (400, 7, "0e925248504dddfafa723bdbda87632a657cbb23dbd1b0b11a2c03da65783608"),
    ])
    def test_out_file_is_pinned(self, tmp_path, n, seed, digest):
        path = tmp_path / "sim.csv"
        code, out, err = run_cli("simulate", "--coefficients", GOLDEN_FLAG, "--n", str(n),
                                 "--seed", str(seed), "--out", str(path))
        assert code == 0, err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        records = simulate(SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=n, seed=seed))
        save_csv(records, tmp_path / "lib.csv")
        assert (tmp_path / "lib.csv").read_bytes() == path.read_bytes()
        doc = json.loads(out)
        assert doc["records"] == n
        assert doc["positive_fraction"] == sum(r.hiv for r in records) / n

    def test_large_out_file_matches_save_csv(self, tmp_path):
        spec = SimulationSpec(coefficients=GOLDEN_COEFFICIENTS, n=200_000, seed=15)
        path = tmp_path / "sim.csv"
        code, _, err = run_cli("simulate", "--coefficients", GOLDEN_FLAG, "--n", "200000",
                               "--seed", "15", "--out", str(path))
        assert code == 0, err
        save_csv(simulate(spec), tmp_path / "lib.csv")
        assert (tmp_path / "lib.csv").read_bytes() == path.read_bytes()


class TestBootstrapCLI:
    def test_byte_identical_output(self, study_csv):
        args = ("bootstrap", "--input", study_csv, "--replicates", "150",
                "--seed", "5", "--ci-method", "percentile")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second
        doc = json.loads(first)
        assert doc["replicates"]["requested"] == 150

    def test_odds_bounds_are_exponentiated(self, study_csv):
        _, out, _ = run_cli("bootstrap", "--input", study_csv,
                            "--replicates", "120", "--seed", "5",
                            "--ci-method", "wald")
        doc = json.loads(out)
        for interval in doc["intervals"]:
            assert interval["odds"]["lower"] == pytest.approx(
                np.exp(interval["log_odds"]["lower"]), rel=1e-12
            )
            assert interval["odds"]["upper"] == pytest.approx(
                np.exp(interval["log_odds"]["upper"]), rel=1e-12
            )

    def test_all_methods_emit_all_intervals(self, study_csv):
        _, out, _ = run_cli("bootstrap", "--input", study_csv,
                            "--replicates", "1000", "--seed", "5",
                            "--ci-method", "all")
        doc = json.loads(out)
        methods = {}
        for interval in doc["intervals"]:
            methods.setdefault(interval["method"], 0)
            methods[interval["method"]] += 1
        assert methods == {"wald": 4, "percentile": 4, "bca": 4}

    def test_unconverged_full_fit_is_refused_before_any_replicate(self, study_csv):
        code, out, err = run_cli("bootstrap", "--input", study_csv,
                                 "--replicates", "2000", "--max-iter", "5")
        assert (code, err) == (3, "")
        doc = json.loads(out)
        assert list(doc) == ["manifest", "error"]
        assert doc["error"] == {
            "type": "NotConvergedError",
            "message": "full-sample fit did not converge",
        }

    @pytest.mark.parametrize("single_class, extra, code, error", [
        (False, ("--max-iter", "5", "--seed", "-1"), 1, "DomainError"),
        (True, ("--seed", "-1"), 2, "DegenerateResponseError"),
    ])
    def test_full_fit_errors_then_seed_then_convergence(
        self, study_csv, tmp_path, single_class, extra, code, error
    ):
        path = single_class_csv(tmp_path) if single_class else study_csv
        got, out, _ = run_cli("bootstrap", "--input", path,
                              "--replicates", "20", *extra)
        assert got == code
        assert json.loads(out)["error"]["type"] == error

    @pytest.mark.parametrize("single_class", [False, True])
    def test_bad_level_is_refused_before_any_refit(
        self, study_csv, tmp_path, monkeypatch, capsys, single_class
    ):
        def no_refit(*args, **kwargs):
            raise AssertionError("a bootstrap refit ran for a bad level")

        path = single_class_csv(tmp_path) if single_class else study_csv
        monkeypatch.setattr(logitboot.inference, "_refit_all", no_refit)
        assert cli.main(["bootstrap", "--input", path,
                         "--replicates", "10000", "--ci-level", "1.5"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith("confidence level must lie strictly")

    def test_insufficient_replicates_for_bca_is_numerical_failure(self, study_csv):
        code, out, _ = run_cli("bootstrap", "--input", study_csv,
                               "--replicates", "200", "--seed", "5",
                               "--ci-method", "bca")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "InsufficientReplicatesError"

    @pytest.mark.parametrize(
        "extra, code, error",
        [
            (("--replicates", "999"), 3, "InsufficientReplicatesError"),
            (("--replicates", "1000", "--ci-level", "0.9999999999999999"), 1,
             "DomainError"),
            (("--replicates", "200"), 3, "InsufficientReplicatesError"),
            (("--replicates", "120", "--ci-level", "0.9999999999999999"), 1,
             "DomainError"),
        ],
    )
    def test_bca_request_bound_to_fail_runs_no_refit(
        self, study_csv, monkeypatch, capsys, extra, code, error
    ):
        # Too few survivors (every replicate of this study converges), or a
        # level whose tails round to 0 and 1: the library's jackknife never
        # runs.
        def no_jackknife(*args, **kwargs):
            raise AssertionError("jackknife ran for a BCa request that must fail")

        monkeypatch.setattr(logitboot.inference, "jackknife_estimates", no_jackknife)
        assert cli.main(["bootstrap", "--input", study_csv, "--seed", "5",
                         "--ci-method", "bca", *extra]) == code
        assert json.loads(capsys.readouterr().out)["error"]["type"] == error

    def test_too_few_replicates_for_bca_is_refused_before_the_read(
        self, monkeypatch, capsys
    ):
        # Survivors never outnumber the replicates asked for.
        def no_read(path):
            raise AssertionError("the CSV was read for a BCa request that must fail")

        monkeypatch.setattr(cli, "_load_dataset", no_read)
        assert cli.main(["bootstrap", "--input", "missing.csv",
                         "--replicates", "300", "--ci-method", "bca"]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "InsufficientReplicatesError",
            "message": "BCa interval needs at least 1000 surviving replicates, have 300",
        }

    def test_bca_bounds_equal_the_library(self, study_csv):
        code, out, _ = run_cli("bootstrap", "--input", study_csv,
                               "--replicates", "1000", "--seed", "5",
                               "--ci-method", "all")
        assert code == 0
        cli_bca = [(i["log_odds"]["lower"], i["log_odds"]["upper"], i["fallback"])
                   for i in json.loads(out)["intervals"] if i["method"] == "bca"]
        data = encode(load_csv(study_csv))
        result = bootstrap_fit(data, replicates=1000, master_seed=5)
        assert cli_bca == [(i.lower, i.upper, i.fallback)
                           for i in bca_intervals(result, data)]


KERNEL_ROUTES = {
    "fit_mle": lambda data, path: fit_mle(data),
    "bootstrap_fit": lambda data, path: bootstrap_fit(data, replicates=1000,
                                                      master_seed=5),
    "jackknife_estimates": lambda data, path: jackknife_estimates(data),
    "bca_intervals": lambda data, path: bca_intervals(
        bootstrap_fit(data, replicates=1000, master_seed=5), data),
    "split_sample_fit": lambda data, path: split_sample_fit(data, [100, 250, 400]),
    "cli fit": lambda data, path: cli.main(["fit", "--input", path]),
    "cli split": lambda data, path: cli.main(["split", "--input", path]),
    "cli validate": lambda data, path: cli.main(["validate", "--input", path]),
    "cli bootstrap": lambda data, path: cli.main(
        ["bootstrap", "--input", path, "--replicates", "1000", "--seed", "5",
         "--ci-method", "all"]),
}


@pytest.mark.parametrize("route", KERNEL_ROUTES)
def test_kernel_stacks_are_single_slices_or_come_with_work(
    study_csv, monkeypatch, capsys, route
):
    """The kernel compacts every multi-slice stack in place.  That is only
    safe because each stack it is given has one slice, which it never
    writes, or comes with a ``work`` array from a caller that gathered the
    stack into buffers of its own."""
    stacks = []

    def recording(designs, responses, config=None, work=None):
        stacks.append((designs.shape[0], work is not None))
        return _fit_batch(designs, responses, config, work)

    monkeypatch.setattr(logitboot.model_core, "_fit_batch", recording)
    monkeypatch.setattr(logitboot.inference, "_fit_batch", recording)
    outcome = KERNEL_ROUTES[route](encode(load_csv(study_csv)), study_csv)
    capsys.readouterr()
    if route.startswith("cli"):
        assert outcome == 0
    assert stacks
    assert all(count == 1 or with_work for count, with_work in stacks), stacks


class TestSplitValidateCurves:
    def test_single_full_split_matches_fit(self, study_csv):
        _, fit_out, _ = run_cli("fit", "--input", study_csv)
        _, split_out, _ = run_cli("split", "--input", study_csv, "--sizes", "400")
        fit_doc = json.loads(fit_out)
        split_doc = json.loads(split_out)
        assert split_doc["splits"][0]["coefficients"] == fit_doc["coefficients"]

    def test_default_sizes(self, study_csv):
        _, out, _ = run_cli("split", "--input", study_csv)
        doc = json.loads(out)
        assert [e["size"] for e in doc["splits"]] == [50, 100, 200, 300, 400]
        assert all(e["error"] is None for e in doc["splits"])

    def test_validate_matches_library(self, study_csv):
        code, out, _ = run_cli("validate", "--input", study_csv,
                               "--train-count", "300")
        assert code == 0
        doc = json.loads(out)
        data = encode(load_csv(study_csv))
        from logitboot import EncodedDataset

        train = EncodedDataset(data.design[:300], data.response[:300], data.column_names)
        fit = fit_mle(train)
        report = holdout_validate(data, fit, list(range(300, 400)))
        assert doc["report"]["accuracy"] == report.accuracy
        assert doc["report"]["true_positive"] == report.true_positive
        assert doc["report"]["test_count"] == 100

    def test_curves_inline_matches_fit_json_route(self, study_csv, tmp_path):
        _, fit_out, _ = run_cli("fit", "--input", study_csv)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(fit_out)
        _, from_json, _ = run_cli("curves", "--fit-json", str(fit_path))
        doc = json.loads(from_json)
        coefs = json.loads(fit_out)["coefficients"]
        inline = ",".join(
            repr(coefs[c]) for c in ("Intercept", "Age", "Emp", "Gender")
        )
        _, from_inline, _ = run_cli("curves", "--coefficients", inline)
        assert json.loads(from_inline)["points"] == doc["points"]

    def test_curves_golden_first_point(self):
        _, out, _ = run_cli("curves", "--coefficients", GOLDEN_FLAG)
        doc = json.loads(out)
        points = doc["points"]
        assert len(points) == 52
        first = points[0]
        assert first["profile"] == "male-emp" and first["age"] == 0.0
        assert first["probability"] == pytest.approx(0.8264925, abs=1e-6)

    def test_curves_csv_file(self, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, out, _ = run_cli("curves", "--coefficients", GOLDEN_FLAG,
                               "--format", "csv", "--out", str(out_path),
                               "--profiles", "male-emp,female-unemp")
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "profile,age,probability"
        assert len(lines) == 1 + 2 * 13
        assert json.loads(out)["output"] == str(out_path)

    def test_curves_csv_requires_out(self):
        code, out, _ = run_cli("curves", "--coefficients", GOLDEN_FLAG,
                               "--format", "csv")
        assert code == 1

    @pytest.mark.parametrize("extra, message", [
        ((), "--format csv requires --out FILE"),
        (("--profiles", "male-emp,nobody"), "--profiles accepts"),
    ])
    def test_curves_csv_without_out_builds_no_points(self, monkeypatch, capsys,
                                                      extra, message):
        # The refusal is the last check, made before any point is built.
        def no_points(*args, **kwargs):
            raise AssertionError("curve points built for a refused request")

        monkeypatch.setattr(cli, "probability_curves", no_points)
        assert cli.main(["curves", "--coefficients", GOLDEN_FLAG, "--format", "csv",
                         "--age-step", "0.0013", *extra]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith(message)

    def test_curves_profiles_accept_spaces_after_commas(self, capsys):
        docs = {}
        for profiles in ("male-emp,female-unemp", "male-emp, female-unemp",
                         " male-emp ,  female-unemp, "):
            assert cli.main(["curves", "--coefficients", GOLDEN_FLAG,
                             "--profiles", profiles]) == 0
            docs[profiles] = json.loads(capsys.readouterr().out)
        points = [doc["points"] for doc in docs.values()]
        assert points[0] == points[1] == points[2]
        names = [p["profile"] for p in points[0]]
        assert names == ["male-emp"] * 13 + ["female-unemp"] * 13
        # The manifest echoes the option as given.
        for profiles, doc in docs.items():
            assert doc["manifest"]["config"]["profiles"] == profiles

    @pytest.mark.parametrize("args, fit_coefficient, code, error", [
        (("--fit-json",), '"abc"', 4, "SchemaError"),
        (("--fit-json",), "NaN", 1, "DomainError"),
        (("--coefficients", "1,2,3,nan"), None, 1, "DomainError"),
        (("--coefficients", GOLDEN_FLAG, "--age-from", "nan"), None, 1,
         "DomainError"),
        (("--coefficients", GOLDEN_FLAG, "--age-step", "inf"), None, 1,
         "DomainError"),
    ])
    def test_curves_bad_numbers_give_error_documents(
        self, tmp_path, args, fit_coefficient, code, error
    ):
        if fit_coefficient is not None:
            fit_path = tmp_path / "fit.json"
            fit_path.write_text(
                '{"columns": ["Intercept", "Age", "Emp", "Gender"], "coefficients": '
                f'{{"Intercept": 1.5, "Age": {fit_coefficient}, "Emp": 1.6, "Gender": 0.1}}}}'
            )
            args = (*args, str(fit_path))
        got, out, err = run_cli("curves", *args)
        assert (got, "Traceback" in err) == (code, False), err
        # Strict JSON: a NaN or Infinity token would fail to parse.
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(token))
        assert doc["error"]["type"] == error

    @pytest.mark.parametrize("sizes", [
        "1180591620717411303424", "50,9223372036854775808",
    ])
    def test_split_size_past_int64_gives_an_error_document(self, study_csv, sizes):
        code, out, err = run_cli("split", "--input", study_csv, "--sizes", sizes)
        assert (code, err) == (1, "")
        error = json.loads(out)["error"]
        assert error["type"] == "DomainError"
        assert "whole numbers" not in error["message"]


class TestExitCodes:
    def test_usage_errors(self, study_csv):
        assert run_cli("bogus")[0] == 1
        assert run_cli("fit")[0] == 1  # missing --input
        assert run_cli("fit", "--input", study_csv, "--unknown-flag")[0] == 1
        assert run_cli("split", "--input", study_csv, "--sizes", "200,100")[0] == 1

    def test_infinite_tolerance_is_usage_error(self, study_csv):
        # Any start would pass an infinite score tolerance at iteration 0.
        code, out, _ = run_cli("fit", "--input", study_csv, "--tol", "inf")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "DomainError"
        assert doc["manifest"]["config"]["tol"] == "inf"

    def test_negative_shuffle_seed_is_usage_error(self, study_csv):
        code, out, err = run_cli("split", "--input", study_csv,
                                 "--shuffle-seed", "-1")
        assert (code, "Traceback" in err) == (1, False), err
        doc = json.loads(out, parse_constant=lambda token: pytest.fail(token))
        assert doc["error"]["type"] == "DomainError"
        assert doc["manifest"]["config"]["shuffle_seed"] == -1

    def test_degenerate_response_exit(self, tmp_path):
        path = tmp_path / "all_pos.csv"
        rows = "\n".join(f"{20 + i},0,0,1" for i in range(10))
        path.write_text(f"Age,Gender,Emp,HIV\n{rows}\n")
        code, out, _ = run_cli("fit", "--input", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DegenerateResponseError"

    def test_separation_exit(self, tmp_path):
        path = tmp_path / "separated.csv"
        # HIV flips exactly at age 42.5, so the Age coefficient diverges.
        rows = ["40,0,0,0", "41,1,1,0", "42,0,1,0", "43,1,0,1", "44,0,1,1", "45,1,1,1"]
        path.write_text("Age,Gender,Emp,HIV\n" + "\n".join(rows) + "\n")
        code, out, _ = run_cli("fit", "--input", str(path))
        assert code == 3
        assert json.loads(out)["error"]["type"] == "SeparationError"

    def test_parse_error_exit_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Age,Gender,Emp,HIV\n20,0,0,1\n21,0,0,7\n")
        code, out, _ = run_cli("fit", "--input", str(path))
        assert code == 4
        doc = json.loads(out)
        assert doc["error"]["type"] == "ParseError"
        assert "row 2" in doc["error"]["message"]

    def test_ignored_column_warning_on_stderr(self, tmp_path):
        path = tmp_path / "extra.csv"
        cells = [(20, 0, 0, 1), (21, 1, 1, 1), (22, 0, 0, 0), (23, 1, 1, 0),
                 (24, 0, 1, 1), (25, 1, 0, 0), (26, 0, 1, 0), (27, 1, 0, 1)]
        rows = "\n".join(f"{a},{g},{e},{h},9" for a, g, e, h in cells)
        path.write_text(f"Age,Gender,Emp,HIV,PMOT\n{rows}\n")
        code, _, err = run_cli("fit", "--input", str(path))
        assert code == 0
        assert "PMOT" in err

    def test_warnings_print_without_source_locations(self, tmp_path):
        path = tmp_path / "extra.csv"
        cells = [(20, 0, 0, 1), (21, 1, 1, 1), (22, 0, 0, 0), (23, 1, 1, 0),
                 (24, 0, 1, 1), (25, 1, 0, 0), (26, 0, 1, 0), (27, 1, 0, 1)]
        rows = "".join(f"{a},{g},{e},{h},x\n" for a, g, e, h in cells)
        path.write_text(f"Age,Gender,Emp,HIV,Note\n{rows}")
        code, _, err = run_cli("fit", "--input", str(path))
        assert code == 0
        assert err == f"warning: {path}: ignoring unrecognized column(s): Note\n"

        path.write_text("Age,Gender,Emp,HIV\n" + "".join(
            f"{a},{g},{e},1\n" for a, g, e, _ in cells))
        code, out, err = run_cli("fit", "--input", str(path))
        assert code == 2, out
        assert err == "warning: response contains a single class; fitting will fail\n"


class TestOptionsBeforeData:
    """A bad option is refused before its subcommand reads the CSV."""

    @pytest.mark.parametrize("argv, message", [
        (("fit", "--max-iter", "0"), "max_iterations must be at least 1"),
        (("bootstrap", "--ci-level", "1.5"), "confidence level must lie strictly"),
        (("bootstrap", "--replicates", "0"), "replicates must be at least 1"),
        (("bootstrap", "--workers", "0"), "workers must be at least 1"),
        (("split", "--sizes", "1,x"), "--sizes expects a comma-separated list"),
        (("split", "--sizes", "5,3"), "split sizes must be strictly increasing"),
        (("split", "--shuffle-seed", "-1"), "shuffle seed must be non-negative"),
        (("validate", "--threshold", "1.5"), "threshold must lie strictly in (0, 1)"),
    ], ids=["max-iter", "ci-level", "replicates", "workers", "sizes",
            "sizes-order", "shuffle-seed", "threshold"])
    def test_bad_option_reads_no_csv(self, monkeypatch, capsys, argv, message):
        def no_load(path):
            raise AssertionError(f"{path} was read for a refused option")

        monkeypatch.setattr(cli, "_load_dataset", no_load)
        assert cli.main([*argv, "--input", "study.csv"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("source", ["missing", "malformed"])
    @pytest.mark.parametrize("argv, message", [
        (("--age-step", "0"), "--age-step must be positive"),
        (("--age-to", "-1"), "--age-to must be at least --age-from"),
        (("--age-step", "1e-9"), "--age-from, --age-to and --age-step give an age grid"),
        (("--profiles", "nobody"), "--profiles accepts a comma-separated subset"),
        (("--format", "csv"), "--format csv requires --out FILE"),
    ], ids=["age-step", "age-to", "grid-size", "profiles", "format"])
    def test_curves_option_before_fit_json(self, tmp_path, capsys, source, argv, message):
        path = tmp_path / "fit.json"
        if source == "malformed":
            path.write_text("abc")
        assert cli.main(["curves", "--fit-json", str(path), *argv]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith(message)

    def test_bad_option_wins_over_a_missing_input(self, tmp_path):
        code, out, err = run_cli("validate", "--input", str(tmp_path / "missing.csv"),
                                 "--threshold", "1.5")
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {
            "type": "DomainError",
            "message": "threshold must lie strictly in (0, 1)",
        }


class TestUnreadableInputs:
    """Input that fails below the package's own checks still ends in an
    error document, not a traceback."""

    @staticmethod
    def error(expected_code, *args):
        code, out, err = run_cli(*args)
        assert (code, "Traceback" in err) == (expected_code, False), err
        return json.loads(out)["error"]

    def test_csv_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"Age,Gender,Emp,HIV\n20,0,0,1\n\xff30,1,1,0\n")
        error = self.error(4, "fit", "--input", str(path))
        assert error["type"] == "SchemaError"
        assert str(path) in error["message"]

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("Age,Gender,Emp,HIV\n" + "2" * 140_000 + ",0,0,1\n30,1,1,0\n")
        error = self.error(4, "fit", "--input", str(path))
        assert error["type"] == "SchemaError"
        assert str(path) in error["message"]

    def test_fit_json_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_bytes(b'{"columns": ["\xff"]}')
        error = self.error(4, "curves", "--fit-json", str(path))
        assert error["type"] == "SchemaError"

    def test_age_step_with_too_many_grid_points(self):
        # 1.2e302 points: the count overflows before anything is allocated.
        error = self.error(1, "curves", "--coefficients", GOLDEN_FLAG,
                           "--age-step", "1e-300")
        assert error["type"] == "DomainError"

    def test_age_step_with_an_allocatable_count_over_the_bound(self):
        # 1.2e14 points: a count np.arange accepts and then cannot allocate.
        error = self.error(1, "curves", "--coefficients", GOLDEN_FLAG,
                           "--age-step", "1e-12")
        assert error == {
            "type": "DomainError",
            "message": "--age-from, --age-to and --age-step give an age grid "
                       "of more than 100000 points",
        }

    @pytest.mark.parametrize("n", [
        10**15,  # 7.11 PiB of ages: past any address space, so NumPy fails at once
        10**20,  # more than NumPy's largest array dimension
    ])
    def test_simulate_rows_that_cannot_be_allocated(self, tmp_path, n):
        out_path = tmp_path / "study.csv"
        error = self.error(1, "simulate", "--coefficients", "1,0,0,0",
                           "--n", str(n), "--out", str(out_path))
        assert error == {"type": "DomainError",
                         "message": f"--n {n} is too many rows to draw"}
        assert not out_path.exists()


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize("args", [
        ("fit",),
        ("bootstrap", "--replicates", "1000", "--ci-method", "all"),
    ])
    def test_runs_without_scipy(self, study_csv, args):
        args = (*args, "--input", study_csv)
        code, blocked, err = run_cli(*args, launcher=WITHOUT_SCIPY)
        assert code == 0, err
        assert blocked == run_cli(*args)[1]

    def test_import_loads_no_scipy(self):
        probe = (
            "import sys, logitboot; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_every_submodule_and_not_statistics(self):
        # statistics (with decimal and fractions) waits for the first Wald or
        # BCa interval; the package itself is not lazy.
        probe = (
            "import sys, logitboot; "
            "names = ['numpy', 'logitboot.model_core', 'logitboot.inference', "
            "'logitboot.validation', 'logitboot.data_io', "
            "'statistics', 'decimal', 'fractions']; "
            "print([name in sys.modules for name in names])"
        )
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([True] * 5 + [False] * 3)

    def test_import_loads_no_numpy_random(self):
        # numpy.random waits for the first bootstrap or simulation, so a
        # command that needs neither does not pay for its import.
        probe = "import sys, logitboot; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_negative_bootstrap_seed_is_usage_error(self, study_csv):
        code, out, err = run_cli("bootstrap", "--input", study_csv,
                                 "--replicates", "120", "--seed", "-1")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert list(doc) == ["manifest", "error"]
        assert doc["manifest"]["config"]["seed"] == -1
        assert doc["error"] == {
            "type": "DomainError",
            "message": "seeds and replicate indices must be non-negative",
        }

    @pytest.mark.parametrize("method", ["wald", "percentile", "bca", "all"])
    def test_wald_level_one_ulp_below_one_is_usage_error(self, study_csv, method):
        # (1 + level) / 2 rounds to 1.0, so the normal quantile is infinite.
        code, out, _ = run_cli("bootstrap", "--input", study_csv,
                               "--replicates", "120", "--ci-method", method,
                               "--ci-level", "0.9999999999999999")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DomainError"


# A curves document of about 380 KB, well past a 64 KiB pipe buffer.
LARGE_CURVES = ("curves", "--coefficients", GOLDEN_FLAG, "--age-step", "0.1")


class TestProcessExit:
    """``entry`` is the one exit path of a CLI process; ``main`` is not."""

    def spawn(self, args, launcher=("-m", "logitboot"), **kwargs):
        env = dict(os.environ, SOURCE_DATE_EPOCH="1700000000")
        env.pop("LOGITBOOT_SEED", None)
        return subprocess.Popen([sys.executable, *launcher, *args], env=env,
                                stderr=subprocess.PIPE, **kwargs)

    def test_stdout_pipe_closed_early(self):
        with self.spawn(LARGE_CURVES, stdout=subprocess.PIPE) as proc:
            assert proc.stdout.read(20) == b'{\n  "manifest": {\n  '
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_IO
        assert b"Traceback" not in err, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "wb") as full, self.spawn(LARGE_CURVES, stdout=full) as proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_IO
        assert b"Traceback" not in err, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("args", [("--help",), ("--version",), ("fit", "--help")])
    def test_argparse_output_on_a_full_device(self, args, unbuffered, monkeypatch):
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        with open("/dev/full", "wb") as full, self.spawn(args, stdout=full) as proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_IO
        assert b"Traceback" not in err, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_usage_error_with_a_full_stdout(self):
        with open("/dev/full", "wb") as full, self.spawn(("fit",), stdout=full) as proc:
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == cli.EXIT_USAGE
        assert err.startswith("usage: logitboot fit ")
        assert "error: the following arguments are required: --input" in err

    def test_main_leaves_the_collector_alone(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert cli.main(list(LARGE_CURVES)) == 0
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    @pytest.mark.parametrize("args", [
        LARGE_CURVES,
        ("simulate", "--coefficients", GOLDEN_FLAG, "--n", "20000", "--seed", "5"),
    ])
    def test_launcher_freezes_and_keeps_every_byte(self, args, tmp_path,
                                                   capsys, monkeypatch):
        if args[0] == "simulate":
            args = (*args, "--out", str(tmp_path / "sim.csv"))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert cli.main(list(args)) == 0
        expected = capsys.readouterr().out.encode()
        written = {p: p.read_bytes() for p in tmp_path.iterdir()}
        for p in written:
            p.unlink()

        hooked = (
            "-c",
            "import atexit, gc, runpy, sys; "
            "atexit.register(lambda: sys.stderr.write("
            "f'atexit freeze count {gc.get_freeze_count()}\\n')); "
            "runpy.run_module('logitboot', run_name='__main__', alter_sys=True)",
        )
        proc = self.spawn(args, launcher=hooked, stdout=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        label, count = err.decode().splitlines()[-1].rsplit(" ", 1)
        assert label == "atexit freeze count" and int(count) > 0
        assert out == expected
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == written


class TestLaunchers:
    # Both launchers must leave through entry, the path that freezes the
    # heap and survives a broken stdout.
    ROOT = Path(__file__).resolve().parents[1]

    def test_dunder_main_calls_entry(self):
        tree = ast.parse((self.ROOT / "src" / "logitboot" / "__main__.py").read_text())
        imports = {(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names}
        calls = [node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert ("cli", "entry") in imports
        assert calls == ["entry"]

    def test_console_script_is_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["scripts"]["logitboot"] == "logitboot.cli:entry"
