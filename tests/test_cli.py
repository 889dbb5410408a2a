"""End-to-end command-line interface tests (subprocess level)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from covertsense.cli import main
from covertsense.covertness import covert_budget, taylor_coefficients
from covertsense.estimation import estimation_report, heterodyne_stats
from covertsense.link import LinkGeometry, sweep_frequency
from covertsense.scenario import SensingScenario

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


def run_cli(*args: str, env_extra: dict[str, str] | None = None):
    env = dict(os.environ)
    env.pop("COVERTSENSE_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "covertsense.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
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
        assert results["B"] == report.mse_bound
        assert results["mse_het"] == report.mse_het
        assert results["mu_w"] == 1000.0
        assert results["mu_c"] == pytest.approx(1.0, abs=1e-9)
        # Finite local oscillator can only lose information.
        assert results["F_A_prime"] <= results["F_A"]


class TestMseMcCommand:
    def test_deterministic_across_workers(self):
        base = ["mse-mc", *SCENARIO_FLAGS, "--theta", "0.4",
                "--trials", "2000", "--seed", "9"]
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

    def test_seed_changes_estimate(self):
        base = ["mse-mc", *SCENARIO_FLAGS, "--trials", "1000"]
        a = json.loads(run_cli(*base, "--seed", "1").stdout)["results"]
        b = json.loads(run_cli(*base, "--seed", "2").stdout)["results"]
        assert a["mse"] != b["mse"]


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


class TestOptimizeCommand:
    def test_reference_optimum(self):
        result = run_cli("optimize", "--L", "3000")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["lambda_star"] == 3.719418887857133e-06
        assert results["c_ase"] == 1112.551200906698
        assert results["B"] == 0.6423317353307236


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


class TestErrorPaths:
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

    def test_unknown_command(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_bad_numeric_literal(self):
        result = run_cli("scenario", "--eta1", "half", "--eta2", "0.5",
                         "--nb1", "1", "--nb2", "1", "--epsilon", "1e-3",
                         "--n", "1e6")
        assert result.returncode == 2


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
}


def _run_main(command: str, **overrides: str) -> int:
    flags = {**NUMERIC_FLAGS[command], **overrides}
    argv = [command] + [f"--{name}={value}" for name, value in flags.items()]
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _strict_json(text: str):
    def reject(constant: str):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Every numeric flag of ``scenario`` and ``bounds`` at non-finite or
    huge values.  Runs ``main`` in-process: 68 fresh interpreters would
    cost about a minute."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command, flags in NUMERIC_FLAGS.items() for flag in flags],
    )
    def test_exit_code_and_strict_stdout(self, command, flag, value, capsys):
        code = _run_main(command, **{flag: value})
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
        else:
            payload = _strict_json(out)
            assert ("error" in payload) == (code == 1)

    @pytest.mark.parametrize(
        "command,flag,value,cause",
        [
            ("scenario", "epsilon", "nan", "epsilon"),
            ("scenario", "theta", "nan", "theta"),
            ("scenario", "n", "inf", "channel uses"),
            ("scenario", "nb1", "inf", "nbar_b1"),
            ("bounds", "nlo", "nan", "nbar_lo"),
        ],
    )
    def test_refusal_names_the_input(self, command, flag, value, cause, capsys):
        code = _run_main(command, **{flag: value})
        assert code == 1
        assert cause in _strict_json(capsys.readouterr().out)["error"]["message"]
