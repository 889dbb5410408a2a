"""End-to-end command-line interface tests (subprocess level)."""

from __future__ import annotations

import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc

import pytest
from _contract import cause, csv_strict, flag_argv, json_strict, run
from conftest import THREE_STRIPS_AND_A_BLOCK

from covertsense import cli
from covertsense.cli import CSV_HEADER
from covertsense.covertness import covert_budget, taylor_coefficients
from covertsense.estimation import (
    estimation_report,
    heterodyne_stats,
    simulate_heterodyne_mse,
)
from covertsense.link import LinkGeometry, sweep_frequency
from covertsense.scenario import SensingScenario, willie_cm

SCENARIO_FLAGS = [
    "--eta1", "0.5", "--eta2", "0.5", "--nb1", "1", "--nb2", "1",
    "--epsilon", "1e-3", "--n", "1e6",
]

REFERENCE = SensingScenario(0.5, 0.5, 1.0, 1.0)

CONFIG_TEXT = (
    "# reference scenario\n"
    "eta1 = 0.5\neta2 = 0.5\nnb1 = 1\nnb2 = 1\n"
    "epsilon = 1e-3\nn = 1e6\n"
)


#: The optimize run whose golden-section search never ended.
LONG_WAVELENGTH_OPTIMIZE = (
    "optimize", "--L", "10", "--rt", "1e5", "--rtarget", "1e5",
    "--lmin", "1e9", "--lmax", "2e9",
)


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("COVERTSENSE_CONFIG", None)
    return env


def run_cli(
    *args: str, env_extra: dict[str, str] | None = None, timeout: float = 300
):
    env = _cli_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "covertsense.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestScenarioCommand:
    def test_golden_point_round_trips_exactly(self):
        result = run_cli("scenario", *SCENARIO_FLAGS)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["command"] == "scenario"
        coeffs = taylor_coefficients(REFERENCE)
        budget = covert_budget(REFERENCE, 1e-3, 1e6)
        results = payload["results"]
        # JSON floats must round-trip the library values bit for bit.
        assert results["c2"] == coeffs.c2
        assert results["c3"] == coeffs.c3
        assert results["ns"] == budget.nbar_s
        assert results["eta_eff"] == 0.25
        assert results["nb_eff"] == 1.0
        assert results["willie_error_bound"] == pytest.approx(0.499, abs=1e-12)
        assert results["in_taylor_regime"] is True

    def test_envelope_structure(self):
        result = run_cli("scenario", *SCENARIO_FLAGS)
        payload = json.loads(result.stdout)
        assert set(payload) == {"command", "config", "metadata", "results"}
        assert payload["metadata"]["rng"] == "philox4x64-10"
        assert payload["config"]["eta1"] == 0.5
        assert payload["config"]["theta"] == 0.0

    def test_output_is_byte_stable(self):
        first = run_cli("scenario", *SCENARIO_FLAGS)
        second = run_cli("scenario", *SCENARIO_FLAGS)
        assert first.stdout == second.stdout

    def test_emitted_willie_cm_is_the_library_matrix(self):
        # Compared by bit pattern, so a flipped zero sign is caught too.
        rng = random.Random(6101)
        for k in range(24):
            args = [rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                    10.0 ** rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-2.0, 1.0)]
            theta = (0.0, math.pi, -math.pi / 2, rng.uniform(-4.0, 4.0))[k % 4]
            argv = ["scenario", "--epsilon", "1e-3", "--n", "1e6",
                    "--theta", repr(theta)]
            for flag, value in zip(("eta1", "eta2", "nb1", "nb2"), args):
                argv += [f"--{flag}", repr(value)]
            result = run(argv)
            assert result.code == 0, result
            results = json.loads(result.out)["results"]
            want = willie_cm(SensingScenario(*args), results["ns"], theta).matrix
            assert [
                struct.pack("<d", x) for row in results["willie_cm"] for x in row
            ] == [struct.pack("<d", x) for row in want.tolist() for x in row]


class TestBoundsCommand:
    def test_reference_bounds(self):
        result = run_cli("bounds", *SCENARIO_FLAGS, "--nlo", "1e6")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        report = estimation_report(REFERENCE, 1e-3, 1e6, 1e6)
        assert results["c_ase"] == report.c_ase
        assert results["c_het"] == report.c_het
        assert results["c_het_tilde"] == report.c_het_tilde
        assert results["c_coh"] == report.c_coh
        assert results["B"] == report.qcrb
        assert results["mse_het"] == report.mse_het
        assert results["mu_w"] == 1000.0
        assert (results["c_coh"], results["mu_c"]) == (results["c_ase"], 1.0)
        # Finite local oscillator can only lose information.
        assert results["F_A_prime"] <= results["F_A"]


class TestMseMcCommand:
    def test_deterministic_across_workers(self):
        # Four strips, so the --workers 3 run starts min(3, cores) threads.
        base = ["mse-mc", *SCENARIO_FLAGS, "--theta", "0.4",
                "--trials", str(THREE_STRIPS_AND_A_BLOCK), "--seed", "9"]
        serial = run_cli(*base, "--workers", "1")
        parallel = run_cli(*base, "--workers", "3")
        rerun = run_cli(*base, "--workers", "1")
        assert serial.returncode == 0, serial.stderr
        assert serial.stdout == parallel.stdout == rerun.stdout
        # The worker count is an execution detail, not part of the run config.
        assert "workers" not in json.loads(serial.stdout)["config"]

    def test_reports_prediction_alongside_estimate(self):
        result = run_cli("mse-mc", *SCENARIO_FLAGS, "--trials", "2000")
        results = json.loads(result.stdout)["results"]
        budget = covert_budget(REFERENCE, 1e-3, 1e6)
        stats = heterodyne_stats(REFERENCE, 0.3, budget.nbar_s, 1e6)
        assert results["ns"] == budget.nbar_s
        assert results["sigma_het_sq"] == stats.sigma_het_sq
        assert results["mse"] > 0.0
        assert results["stderr"] > 0.0

    def test_same_bits_as_the_library(self):
        # The CLI samples at the sigma_het_sq it reports; the library call
        # builds the same budget and moments, then the same sampler.
        argv = ["mse-mc", "--eta1", "0.6", "--eta2", "0.8", "--nb1", "0.3",
                "--nb2", "2", "--epsilon", "0.02", "--n", "3e4", "--theta", "-2.5",
                "--trials", "20000", "--seed", "12345", "--workers", "2"]
        result = run(argv)
        assert result.code == 0, result
        results = json.loads(result.out)["results"]
        mse, stderr = simulate_heterodyne_mse(
            SensingScenario(0.6, 0.8, 0.3, 2.0), -2.5, 0.02, 3e4, 20000, 12345
        )
        assert (results["mse"], results["stderr"]) == (mse, stderr)

    def test_underflowing_variance_refused_by_name(self):
        # sigma_het_sq, far below 1e-400, reads 0.0; sampled, it would give
        # an mse and a stderr of 0.0 under exit 0.
        result = run(["mse-mc", *SCENARIO_FLAGS[:8], "--epsilon", "1e300",
                      "--n", "1e300"])
        assert (result.code, json.loads(result.out)) == (1, {"error": {
            "message": "sigma_het_sq must be positive and finite, got 0.0",
            "type": "ValueError",
        }})

    def test_subnormal_budget_refused_as_no_signal(self):
        # The budget is nbar_s = 5e-324, and 2 eta nbar_s underflows to 0;
        # unrefused, the division escaped as a ZeroDivisionError traceback.
        result = run(["mse-mc", "--eta1", "0.5", "--eta2", "0.5", "--nb1", "0.2",
                      "--nb2", "0.2", "--epsilon", "5e-324", "--n", "1"])
        assert cause(result, {"no-signal": "no signal to normalize by"}) == "no-signal"
        assert json_strict(result.out) == {"error": {
            "message": "no signal to normalize by: nbar_s = 5e-324",
            "type": "DomainError",
        }}

    def test_seed_changes_estimate(self):
        base = ["mse-mc", *SCENARIO_FLAGS, "--trials", "1000"]
        a = json.loads(run_cli(*base, "--seed", "1").stdout)["results"]
        b = json.loads(run_cli(*base, "--seed", "2").stdout)["results"]
        assert a["mse"] != b["mse"]

    def test_per_sample_flag_is_usage_error(self):
        # mse-mc has one route; the flag that drew all n shots is gone.
        result = run(_numeric_argv("mse-mc", **{"per-sample": "1"}))
        assert result.code == 2 and result.out == ""
        assert "unrecognized arguments: --per-sample=1" in result.err

    def test_config_echo_holds_every_flag_but_workers(self):
        result = run(_numeric_argv("mse-mc"))
        assert result.code == 0, result
        echoed = set(json.loads(result.out)["config"])
        flags = {flag.name.replace("-", "_") for flag in cli._COMMANDS["mse-mc"]}
        assert echoed == flags - {"workers"}
        assert echoed == {
            "eta1", "eta2", "nb1", "nb2", "epsilon", "n", "theta", "trials", "seed",
        }


class TestSweepCommand:
    SWEEP_FLAGS = ["--L", "3000", "--fmin", "15e12", "--fmax", "100e12",
                   "--points", "40"]

    def test_csv_matches_library(self):
        result = run_cli("sweep", *self.SWEEP_FLAGS)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "f_hz,lambda_m,eta,nbar_b,c_ase,B"
        assert len(lines) == 41
        rows = sweep_frequency(15e12, 100e12, 40, LinkGeometry(range_m=3000.0))
        first = lines[1].split(",")
        assert float(first[0]) == rows[0].f_hz
        assert float(first[1]) == rows[0].lambda_m
        assert float(first[2]) == rows[0].eta
        assert float(first[3]) == rows[0].nbar_b
        assert float(first[4]) == rows[0].c_ase
        assert float(first[5]) == rows[0].b
        # The config echo travels on stderr so stdout stays pure data.
        assert json.loads(result.stderr)["config"]["points"] == 40

    def test_json_format(self):
        result = run_cli("sweep", *self.SWEEP_FLAGS, "--format", "json")
        payload = json.loads(result.stdout)
        assert len(payload["results"]["rows"]) == 40

    def test_empty_sweep_exits_one_with_header(self):
        result = run_cli(
            "sweep", "--L", "1000", "--fmin", "200e12", "--fmax", "300e12",
            "--points", "10", "--area-factor", "1.0",
        )
        assert result.returncode == 1
        assert result.stdout.strip() == "f_hz,lambda_m,eta,nbar_b,c_ase,B"
        error = json.loads(result.stderr.splitlines()[-1])["error"]
        assert error["type"] == "EmptySweepError"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_bound_refused_in_either_format(self, fmt):
        # B = c_ase / (eps sqrt(n)) overflows at a subnormal eps; the CSV
        # used to exit 0 with "inf" cells where the JSON refused.
        result = run([
            "sweep", "--L", "3000", "--fmin", "15e12", "--fmax", "16e12",
            "--points", "3", "--epsilon", "1e-320", "--format", fmt,
        ])
        prefix = "results." if fmt == "json" else ""
        inf = f"ValueError: {prefix}rows.0.b evaluates to inf: "
        assert cause(result, {"inf": inf}) == "inf"

    def test_csv_check_holds_no_copy_of_the_rows(self):
        # The finite-output check reads each row in place: the CLI's peak
        # stays near the peak of the sweep itself (1.7 times it while the
        # check built a dict per row).
        geometry = LinkGeometry(range_m=3000.0)
        tracemalloc.start()
        try:
            sweep_frequency(15e12, 100e12, 20_000, geometry)
            sweep_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(os.devnull, "w") as sink:
                result = run(
                    ["sweep", *self.SWEEP_FLAGS[:-1], "20000"], stdout=sink
                )
            cli_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.code == 0, result
        assert cli_peak / sweep_peak <= 1.2


class TestOptimizeCommand:
    def test_reference_optimum(self):
        result = run_cli("optimize", "--L", "3000")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["lambda_star"] == 3.719418887857133e-06
        assert results["c_ase"] == 1112.5512007032862
        assert results["B"] == 0.6423317352132837

    def test_long_wavelength_bracket_returns(self):
        # A few ulps of lambda exceed the section tolerance near 1e9 m; the
        # search used to spin there until it was killed.
        result = run_cli(*LONG_WAVELENGTH_OPTIMIZE, timeout=20)
        assert result.returncode == 0, result.stderr
        results = json_strict(result.stdout)["results"]
        assert 1e9 <= results["lambda_star"] <= 2e9


class TestReproducePaperCommand:
    def test_json_report(self):
        result = run_cli("reproduce-paper", "--format", "json")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert len(results["conventions"]) == 6
        pairs = {
            (c["area_factor"], c["eta_policy"]) for c in results["conventions"]
        }
        assert pairs == {
            (1.0, "error"), (1.0, "clamp"),
            (0.5, "error"), (0.5, "clamp"),
            (0.25, "error"), (0.25, "clamp"),
        }
        for convention in results["conventions"]:
            assert len(convention["results"]) == 5

    def test_table_refuses_an_overflowing_bound(self):
        # The table used to print "inf" and exit 0 where the JSON refused.
        result = run(["reproduce-paper", "--epsilon", "1e-320"])
        inf = "ValueError: results.conventions.0.results.0.b_value evaluates to inf: "
        assert cause(result, {"inf": inf}) == "inf"

    def test_table_format_states_outcome(self):
        result = run_cli("reproduce-paper")
        assert result.returncode == 0
        assert "8.7" in result.stdout
        assert (
            "matched convention:" in result.stdout
            or "no convention reproduces" in result.stdout
        )


class TestOracleCheckCommand:
    def test_default_point_within_tolerances(self):
        result = run_cli("oracle-check")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["passed"] is True
        assert results["residuals"]["willie_qre_err"] <= 1e-4
        assert results["residuals"]["alice_fidelity_err"] <= 1e-5

    def test_all_vacuum_point_passes_at_the_automatic_cutoff(self):
        # The vacuum needs no photon, but the automatic cutoff is at least
        # 1, so a a^dag is read on a held level and both CMs match.
        result = run_cli(
            "oracle-check", "--nb1", "0", "--nb2", "0", "--ns", "0", "--nlo", "0"
        )
        assert result.returncode == 0, (result.stdout, result.stderr)
        results = json.loads(result.stdout)["results"]
        assert results["passed"] is True
        assert results["residuals"]["cutoff"] == 1.0
        assert results["residuals"]["willie_cm_max_err"] == 0.0
        assert results["residuals"]["alice_cm_max_err"] == 0.0

    def test_tiny_reference_at_cutoff_one_passes(self):
        # Mass 1e-5 sits at the cutoff (1), with ~1e-10 past it.  Read as
        # zero there, a a^dag erred by that mass, ten times the CM
        # tolerance; read as a^dag a + 1 it is exact on every level.
        argv = ["oracle-check", "--eta1", "0.5", "--eta2", "0.5", "--nb1", "0",
                "--nb2", "0", "--ns", "0", "--nlo", "1e-5"]
        result = run(argv)
        assert result.code == 0, result
        residuals = json.loads(result.out)["results"]["residuals"]
        assert residuals["cutoff"] == 1
        assert residuals["alice_cm_max_err"] <= 1e-9


    def test_refused_cutoff_advice_is_accepted(self):
        # The advice is the cutoff the interrogator's inputs need, which
        # serves every state of the check.
        argv = ["oracle-check", "--eta1", "0.6", "--eta2", "0.7", "--nb1", "0.4",
                "--nb2", "0.5", "--ns", "0.05", "--nlo", "0.3"]
        result = run([*argv, "--cutoff", "17"])
        assert result.code == 1
        error = json.loads(result.out)["error"]
        assert error["type"] == "CutoffError"
        assert error["message"].endswith("required cutoff: 23")
        result = run([*argv, "--cutoff", "23"])
        assert result.code == 0, result
        results = json.loads(result.out)["results"]
        assert results["passed"] is True
        assert results["residuals"]["cutoff"] == 23


class TestConfigResolution:
    def test_config_file_fills_defaults(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(CONFIG_TEXT)
        result = run_cli("--config", str(config), "scenario")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"]["eta_eff"] == 0.25

    def test_environment_variable_config(self, tmp_path):
        config = tmp_path / "env.conf"
        config.write_text(CONFIG_TEXT)
        result = run_cli(
            "scenario", env_extra={"COVERTSENSE_CONFIG": str(config)}
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["config"]["epsilon"] == 1e-3

    def test_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(CONFIG_TEXT)
        base = json.loads(
            run_cli("--config", str(config), "scenario").stdout
        )["results"]["ns"]
        doubled = json.loads(
            run_cli(
                "--config", str(config), "scenario", "--epsilon", "2e-3"
            ).stdout
        )["results"]["ns"]
        # The budget is linear in epsilon, so the override is visible exactly.
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("bogus_key = 1\n")
        result = run_cli("--config", str(config), "scenario", *SCENARIO_FLAGS)
        assert result.returncode == 2
        assert "bogus_key" in result.stderr

    @pytest.mark.parametrize("command", ["mse-mc", "scenario"])
    @pytest.mark.parametrize("route", ["flag", "environment"])
    def test_per_sample_config_key_refused(self, tmp_path, command, route):
        # Config keys are global, so the key is refused under every command.
        config = tmp_path / "per_sample.conf"
        config.write_text("per_sample = 1\n")
        argv = _numeric_argv(command)
        if route == "flag":
            result = run(["--config", str(config), *argv])
        else:
            result = run(argv, config_env=str(config))
        assert cause(result, {}) == "usage"
        assert "unknown config keys: per_sample" in result.err

    @pytest.mark.parametrize("key", ["L", "l", "W", "w", "T", "t"])
    def test_uppercase_flag_set_from_config(self, tmp_path, key):
        # Keys match flag names case-insensitively, so the uppercase flags
        # --L, --W and --T can be set from a file too.
        flag = key.upper()
        value = {"L": 4000.0, "W": 2e12, "T": 0.5}[flag]
        config = tmp_path / "upper.conf"
        config.write_text(f"{key} = {value!r}\n")
        argv = ["--config", str(config), "optimize"]
        if flag != "L":
            argv += ["--L", "3000"]
        result = run(argv)
        assert result.code == 0, result
        assert json.loads(result.out)["config"][flag] == value

    def test_explicit_config_wins_over_environment_variable(self, tmp_path):
        env_config = tmp_path / "env.conf"
        env_config.write_text(CONFIG_TEXT + "theta = 0.7\n")
        flag_config = tmp_path / "run.conf"
        flag_config.write_text(CONFIG_TEXT)
        argv = ["--config", str(flag_config), "scenario"]
        result = run(argv, config_env=str(env_config))
        assert result.code == 0, result
        assert json.loads(result.out)["config"]["theta"] == 0.0
        # An empty path is still the one given, and no file has it.
        result = run(["--config", "", "scenario"], config_env=str(env_config))
        assert cause(result, {}) == "usage"
        assert "config error: " in result.err

    def test_repeated_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "twice.conf"
        config.write_text("L = 3000\n# comment\nfmin = 15e12\nl = 4000\n")
        result = run(["--config", str(config), "optimize"])
        assert cause(result, {}) == "usage"
        assert "key 'l' is set on lines 1 and 4" in result.err


#: One argv and a fragment its message must hold, for each route to exit 2.
#: ``{dir}`` holds ``run.conf`` (``CONFIG_TEXT``), ``unknown.conf``,
#: ``twice.conf``, ``area.conf`` and ``bad.conf``; ``missing.conf`` is not
#: there.
USAGE_ROUTES = {
    "unknown flag": (
        ["scenario", *SCENARIO_FLAGS, "--bogus", "1"],
        "unrecognized arguments: --bogus 1",
    ),
    "abbreviated --t0": (
        ["optimize", "--L", "3000", "--t", "0.5"],
        "unrecognized arguments: --t 0.5",
    ),
    "abbreviated --epsilon": (
        ["scenario", "--eta1", "0.5", "--eta2", "0.5", "--nb1", "1", "--nb2", "1",
         "--n", "1e6", "--eps", "1e-3"],
        "unrecognized arguments: --eps 1e-3",
    ),
    # Named at once, before the path after it could be read as the command.
    "abbreviated --config": (
        ["--conf", "{dir}/run.conf", "scenario"],
        "unrecognized arguments: --conf",
    ),
    "repeated flag": (
        ["scenario", *SCENARIO_FLAGS, "--eta1", "0.6"],
        "argument --eta1: given more than once",
    ),
    "repeated flag, joined to its value": (
        ["scenario", *SCENARIO_FLAGS, "--eta1=0.5"],
        "argument --eta1: given more than once",
    ),
    "repeated --config": (
        ["--config", "{dir}/run.conf", "--config={dir}/run.conf", "scenario"],
        "argument --config: given more than once",
    ),
    "flag with no value": (
        ["scenario", *SCENARIO_FLAGS, "--theta"],
        "argument --theta: expected one argument",
    ),
    "unknown command": (["frobnicate"], "invalid choice: 'frobnicate'"),
    "missing command": ([], "the following arguments are required: command"),
    "bad value": (
        ["scenario", *SCENARIO_FLAGS, "--theta", "half"],
        "bad value for --theta: could not convert string to float: 'half'",
    ),
    "missing required flag": (
        ["scenario", "--eta1", "0.5"],
        "missing required option --eta2",
    ),
    "bad sweep --format": (
        ["sweep", "--L", "3000", "--fmin", "15e12", "--fmax", "1e14",
         "--points", "3", "--format", "xml"],
        "bad value for --format: must be csv or json",
    ),
    "bad reproduce-paper --format": (
        ["reproduce-paper", "--format", "csv"],
        "bad value for --format: must be table or json",
    ),
    "bad --eta-policy": (
        ["optimize", "--L", "3000", "--eta-policy", "bogus"],
        "bad value for --eta-policy: must be error or clamp",
    ),
    "bad --area-factor": (
        ["optimize", "--L", "3000", "--area-factor", "0.3"],
        "bad value for --area-factor: must be 1.0 or 0.5 or 0.25",
    ),
    "bad --area-factor from a config file": (
        ["--config", "{dir}/area.conf", "sweep"],
        "bad value for --area-factor: must be 1.0 or 0.5 or 0.25",
    ),
    "unreadable config": (
        ["--config", "{dir}/missing.conf", "scenario"],
        "config error: [Errno 2] No such file or directory",
    ),
    "config line without =": (
        ["--config", "{dir}/bad.conf", "scenario", *SCENARIO_FLAGS],
        "config error: {dir}/bad.conf:1: expected KEY=VALUE, got 'eta1 0.5\\n'\n",
    ),
    "unknown config key": (
        ["--config", "{dir}/unknown.conf", "scenario", *SCENARIO_FLAGS],
        "unknown config keys: bogus_key",
    ),
    "repeated config key": (
        ["--config", "{dir}/twice.conf", "optimize"],
        "key 'l' is set on lines 1 and 2",
    ),
    "empty --config": (
        ["--config", "", "scenario", *SCENARIO_FLAGS],
        "config error: [Errno 2] No such file or directory: ''",
    ),
    # "--" is no separator: it alone is refused, and the flags after it
    # are read.  The newline pins the end of the message.
    "-- after the command": (
        ["scenario", "--", *SCENARIO_FLAGS],
        "unrecognized arguments: --\n",
    ),
    "--config after the command": (
        ["scenario", *SCENARIO_FLAGS, "--config", "{dir}/run.conf"],
        "unrecognized arguments: --config {dir}/run.conf\n",
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize("route", USAGE_ROUTES)
    def test_usage_error_is_one_stderr_line(self, tmp_path, route):
        (tmp_path / "run.conf").write_text(CONFIG_TEXT)
        (tmp_path / "unknown.conf").write_text("bogus_key = 1\n")
        (tmp_path / "twice.conf").write_text("L = 3000\nl = 4000\n")
        (tmp_path / "bad.conf").write_text("eta1 0.5\n")
        (tmp_path / "area.conf").write_text(
            "L = 3000\nfmin = 15e12\nfmax = 1e14\npoints = 3\narea_factor = 0.3\n"
        )
        argv, fragment = USAGE_ROUTES[route]
        result = run([token.format(dir=tmp_path) for token in argv])
        # cause() holds the contract: exit 2, stdout empty, one stderr line
        # that starts "covertsense: ".
        assert cause(result, {}) == "usage"
        assert fragment.format(dir=tmp_path) in result.err, result.err

    def test_value_starting_with_a_dash_after_a_space(self):
        result = run_cli("scenario", *SCENARIO_FLAGS, "--theta", "-1e-3")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["config"]["theta"] == -1e-3

    def test_negative_infinity_after_a_space_is_refused_by_name(self):
        result = run_cli("bounds", *SCENARIO_FLAGS, "--nlo", "-inf")
        assert (result.returncode, result.stderr) == (1, ""), result
        error = json.loads(result.stdout)["error"]
        assert error["message"] == "nbar_lo must be non-negative and finite, got -inf"

    def test_missing_required_flag_is_usage_error(self):
        result = run_cli("scenario", "--eta1", "0.5")
        assert result.returncode == 2
        assert "--eta2" in result.stderr

    def test_domain_error_is_machine_readable(self):
        result = run_cli(
            "scenario", "--eta1", "1.5", "--eta2", "0.5", "--nb1", "1",
            "--nb2", "1", "--epsilon", "1e-3", "--n", "1e6",
        )
        assert result.returncode == 1
        # JSON-format commands report errors on the data channel (stdout);
        # only the CSV sweep moves them to stderr to keep stdout parseable.
        error = json.loads(result.stdout.splitlines()[-1])["error"]
        assert error["type"] == "ValueError"
        assert "eta_1" in error["message"]

    def test_degenerate_channel_reported(self):
        result = run_cli(
            "scenario", "--eta1", "1", "--eta2", "1", "--nb1", "0.3",
            "--nb2", "0.3", "--epsilon", "1e-3", "--n", "1e6",
        )
        assert result.returncode == 1
        error = json.loads(result.stdout.splitlines()[-1])["error"]
        assert error["type"] == "DegenerateCovertnessError"

    @pytest.mark.parametrize("nbar_b", [1e7, 1e10, 1e12, 1e150])
    def test_hot_bath_answers(self, nbar_b):
        # Both taps leak, so this is no identity channel; c2 = 9e-14 at 1e7
        # is exact, and qre_per_mode is the Taylor value ~8 eps^2/n.
        result = run_cli(
            "scenario", "--eta1", "0.5", "--eta2", "0.5", "--nb1", str(nbar_b),
            "--nb2", str(nbar_b), "--epsilon", "1e-3", "--n", "1e6",
        )
        assert result.returncode == 0, result.stdout
        results = json.loads(result.stdout)["results"]
        n0 = 0.25 * nbar_b
        c2 = 0.75**2 / (n0 * (1.0 + n0))
        ns = results["ns"]
        assert results["c2"] == pytest.approx(c2, rel=1e-12)
        assert ns == pytest.approx(4e-3 / math.sqrt(c2 * 1e6), rel=1e-12)
        # c3 / c2 in closed form: c3 itself underflows at 1e150.
        c3_over_c2 = -2.0 * 0.75 * (1.0 + 2.0 * n0) / (n0 * (1.0 + n0))
        taylor = c2 * ns * ns / 2.0 * (1.0 + c3_over_c2 * ns / 3.0)
        assert results["qre_per_mode"] == pytest.approx(taylor, rel=1e-9, abs=0.0)

    def test_unknown_command(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_bad_numeric_literal(self):
        result = run_cli("scenario", "--eta1", "half", "--eta2", "0.5",
                         "--nb1", "1", "--nb2", "1", "--epsilon", "1e-3",
                         "--n", "1e6")
        assert result.returncode == 2


def test_help_lists_every_command_and_its_flags():
    result = run(["-h"])
    assert (result.code, result.err) == (0, ""), result
    assert set(cli._COMMANDS) <= set(re.split(r"[\s{},]+", result.out)), result.out
    for command, flags in cli._COMMANDS.items():
        result = run([command, "--help"])
        assert (result.code, result.err) == (0, ""), result
        names = {f"--{flag.name}" for flag in flags}
        assert names <= set(result.out.split()), (command, result.out)


NUMERIC_FLAGS = {
    "scenario": {
        "eta1": "0.5", "eta2": "0.5", "nb1": "1", "nb2": "1",
        "epsilon": "1e-3", "n": "1e6", "theta": "0",
    },
    "bounds": {
        "eta1": "0.5", "eta2": "0.5", "nb1": "1", "nb2": "1",
        "epsilon": "1e-3", "n": "1e6", "nlo": "1e6",
        "w-ase": "3e12", "w-coh": "3e9", "t-int": "1e-3",
    },
    "sweep": {
        "L": "2000", "fmin": "15e12", "fmax": "1e14", "points": "20",
        "rt": "0.04", "rtarget": "0.1", "t0": "300", "area-factor": "0.25",
        "eta-max": "0.99", "epsilon": "1e-3", "W": "3e12", "T": "1",
    },
    "optimize": {
        "L": "2000", "lmin": "3e-6", "lmax": "2e-5",
        "rt": "0.04", "rtarget": "0.1", "t0": "300", "area-factor": "0.25",
        "eta-max": "0.99", "epsilon": "1e-3", "W": "3e12", "T": "1",
    },
    "mse-mc": {
        "eta1": "0.5", "eta2": "0.5", "nb1": "1", "nb2": "1",
        "epsilon": "1e-3", "n": "1e4", "theta": "0.3",
        "trials": "1000", "seed": "1", "workers": "1",
    },
    "oracle-check": {
        "eta1": "0.6", "eta2": "0.75", "nb1": "0.2", "nb2": "0.3",
        "ns": "0.05", "nlo": "0.25", "theta": "0.3",
    },
}


def _numeric_argv(command: str, **overrides: str) -> list[str]:
    return flag_argv(command, {**NUMERIC_FLAGS[command], **overrides})


SWEEP_5000 = (
    "sweep", "--L", "3000", "--fmin", "15e12", "--fmax", "100e12", "--points", "5000",
)


@pytest.mark.parametrize("argv", [SWEEP_5000, LONG_WAVELENGTH_OPTIMIZE])
def test_stdout_closed_before_the_run_ends_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "covertsense.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


def test_stdout_closed_mid_sweep_ends_quietly():
    # Like "| head -2": ~0.5 MB of CSV against a 64 KB pipe, so the reader
    # closes while emit_csv is still writing.
    with subprocess.Popen(
        [sys.executable, "-m", "covertsense.cli", *SWEEP_5000],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_cli_env(),
    ) as process:
        assert process.stdout.readline() == CSV_HEADER + "\n"
        process.stdout.readline()
        process.stdout.close()
        assert process.wait(timeout=60) == 1
        stderr = process.stderr.read()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_bounds_with_huge_reference_is_finite():
    result = run(_numeric_argv("bounds", nlo="1e308"))
    assert result.code == 0, result
    results = json_strict(result.out)["results"]
    assert results["F_A_prime"] == pytest.approx(results["F_A"], rel=1e-15)


class TestStrictJson:
    """Every numeric flag of the analytic, Monte-Carlo and oracle-check
    subcommands at non-finite or huge values.  Integer flags (``points``,
    ``trials``, ``seed``, ``workers``) reject all four literals at parse
    time, so no case runs unbounded work or starts threads; the oracle's
    integer ``cutoff`` is covered by the refusal cases below.  Runs
    ``main`` in-process: 200 fresh interpreters would cost minutes."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command, flags in NUMERIC_FLAGS.items() for flag in flags],
    )
    def test_exit_code_and_strict_stdout(self, command, flag, value):
        code, out, err, fault = run(_numeric_argv(command, **{flag: value}))
        assert fault is None and code in (0, 1, 2), (code, fault)
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
        elif out.startswith(CSV_HEADER):
            csv_strict(out)
            if code == 1:
                assert "error" in json_strict(err)
        else:
            payload = json_strict(out)
            assert ("error" in payload) == (code == 1)

    @pytest.mark.parametrize(
        "command,flag,value,named",
        [
            ("scenario", "epsilon", "nan", "epsilon"),
            ("scenario", "theta", "nan", "theta"),
            ("scenario", "n", "inf", "channel uses"),
            ("scenario", "nb1", "inf", "nbar_b1"),
            ("bounds", "nlo", "nan", "nbar_lo"),
            ("bounds", "t-int", "1e308", "product W_ase*T overflows"),
            ("sweep", "t0", "inf", "t0"),
            ("sweep", "fmax", "inf", "f_max"),
            ("sweep", "T", "inf", "integration time T"),
            ("sweep", "L", "nan", "range_m"),
            ("optimize", "t0", "inf", "t0"),
            ("optimize", "W", "nan", "bandwidth W"),
            ("optimize", "lmax", "inf", "lambda_hi"),
            ("mse-mc", "epsilon", "inf", "epsilon"),
            ("oracle-check", "ns", "nan", "nbar_s"),
            ("oracle-check", "nlo", "nan", "nbar_lo"),
            ("oracle-check", "theta", "nan", "theta"),
            # Explicit cutoffs are range-checked before any tail is
            # computed; 1e7 would otherwise run an O(cutoff^2) convolution.
            ("oracle-check", "cutoff", "-5", "cutoff must be non-negative"),
            ("oracle-check", "cutoff", "-1", "cutoff must be non-negative"),
            ("oracle-check", "cutoff", "65", "exceeds the supported cap"),
            ("oracle-check", "cutoff", "10000000", "exceeds the supported cap"),
        ],
    )
    def test_refusal_names_the_input(self, command, flag, value, named):
        result = run(_numeric_argv(command, **{flag: value}))
        assert cause(result, {"named": named}) == "named"


#: One call of each subcommand that runs on the math-only closed forms.
ANALYTIC_ARGV = [
    ["scenario", *SCENARIO_FLAGS],
    ["bounds", *SCENARIO_FLAGS],
    ["sweep", "--L", "3000", "--fmin", "15e12", "--fmax", "100e12", "--points", "20"],
    ["optimize", "--L", "3000"],
    ["reproduce-paper"],
]

#: Packages of the numeric layer, each with its submodules.
NUMERIC_LAYER = ("numpy", "scipy", "covertsense.gaussian", "covertsense.fock")


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("COVERTSENSE_CONFIG", None)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=300,
    )


def test_analytic_commands_import_no_numeric_layer():
    """scenario, bounds, sweep, optimize and reproduce-paper run on the
    closed forms alone: a fresh interpreter running all five loads no
    numpy, scipy, ``covertsense.gaussian`` or ``covertsense.fock``."""
    code = (
        "import sys, covertsense.cli as cli\n"
        f"for argv in {ANALYTIC_ARGV!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'covertsense.link' in sys.modules\n"
        "loaded = sorted(m for m in sys.modules if any(\n"
        f"    m == p or m.startswith(p + '.') for p in {NUMERIC_LAYER!r}))\n"
        "assert not loaded, loaded\n"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


def test_scenario_starts_without_estimation():
    """scenario reads only the Monte-Carlo generator's name, which lives in
    ``_constants``: a fresh interpreter running it loads no
    ``covertsense.estimation``, and bounds then imports it."""
    code = (
        "import sys\n"
        "from covertsense.cli import main\n"
        f"assert main({ANALYTIC_ARGV[0]!r}) == 0\n"
        "assert 'covertsense.estimation' not in sys.modules\n"
        f"assert main({ANALYTIC_ARGV[1]!r}) == 0\n"
        "assert 'covertsense.estimation' in sys.modules\n"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


#: What the closed-form start-up path must not load: the dataclass
#: machinery, the ``inspect`` module it pulls in, ``argparse``, the link
#: layer and numpy.
STARTUP_ABSENT = ("dataclasses", "inspect", "argparse", "covertsense.link", "numpy")


def test_scenario_bounds_and_mse_mc_start_without_dataclasses_or_link():
    """A fresh interpreter running scenario and bounds loads none of
    ``STARTUP_ABSENT``; after mse-mc, which imports numpy (and numpy
    ``inspect``), dataclasses and the link layer are still absent."""
    code = (
        "import sys\n"
        "from covertsense.cli import main\n"
        f"for argv in {ANALYTIC_ARGV[:2]!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"loaded = [m for m in {STARTUP_ABSENT!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"assert main({['mse-mc', *SCENARIO_FLAGS, '--trials', '1000']!r}) == 0\n"
        "loaded = [m for m in ('dataclasses', 'covertsense.link') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ANALYTIC_ARGV[2],
        [*ANALYTIC_ARGV[2], "--format", "json"],
        ANALYTIC_ARGV[3],
        ANALYTIC_ARGV[4],
        [*ANALYTIC_ARGV[4], "--format", "json"],
    ],
    ids=["sweep-csv", "sweep-json", "optimize", "reproduce-paper", "reproduce-json"],
)
def test_link_commands_start_without_dataclasses_or_inspect(argv):
    """The link commands write the link layer's NamedTuple points, never
    ``SweepRow``: a fresh interpreter running one loads the link layer but
    neither ``dataclasses`` nor ``inspect``."""
    code = (
        "import sys\n"
        "from covertsense.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'covertsense.link' in sys.modules\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


def test_package_import_loads_no_submodule():
    code = (
        "import sys, covertsense\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith('covertsense.') or m.split('.')[0] == 'numpy')\n"
        "assert loaded == [], loaded\n"
        "names = dir(covertsense)\n"
        "for name in ('cli', 'covertness', 'errors', 'estimation', 'fock',\n"
        "             'gaussian', 'link', 'scenario', 'DomainError', '__version__'):\n"
        "    assert name in names, name\n"
        "assert covertsense.fock is sys.modules['covertsense.fock']\n"
        "from covertsense import CutoffError, gaussian\n"
        "assert CutoffError is sys.modules['covertsense.errors'].CutoffError\n"
        "try:\n"
        "    covertsense.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv,imports",
    [
        (["mse-mc", *SCENARIO_FLAGS, "--trials", "1000"], "numpy"),
        (["oracle-check"], "covertsense.fock"),
    ],
    ids=["mse-mc", "oracle-check"],
)
def test_numeric_commands_run_from_fresh_interpreter(argv, imports):
    """mse-mc and oracle-check import their numeric layer when they run."""
    code = (
        "import sys, covertsense.cli as cli\n"
        f"assert {imports!r} not in sys.modules\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"assert {imports!r} in sys.modules\n"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv",
    [["mse-mc", *SCENARIO_FLAGS, "--trials", "1000"], ["oracle-check"]],
    ids=["mse-mc", "oracle-check"],
)
def test_numeric_commands_without_numpy_emit_json_error(argv, monkeypatch):
    """Without numpy the two numeric commands refuse with the JSON error
    object and exit 1 instead of a traceback."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    # Drop the loaded numeric modules so that their import runs again.
    for name in ("covertsense.fock", "covertsense.gaussian"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    result = run(argv)
    assert result.code == 1, result
    error = json.loads(result.out)["error"]
    assert error["type"] == "ModuleNotFoundError"
    assert "numpy" in error["message"]
