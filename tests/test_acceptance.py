"""Acceptance gate: one test per release criterion, with runtime budgets.

Each ``test_criterion_*`` test checks one end-to-end contract at its
stated numerical tolerance and asserts its wall-clock budget; the
conftest hook prints a one-line PASS/FAIL verdict per criterion after
the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import math
import time

import numpy as np
import pytest
from conftest import _exact_arctan_mse

from covertsense.covertness import (
    covert_budget,
    equal_bath_c2,
    equal_bath_c3,
    equal_bath_qre,
    taylor_coefficients,
    willie_error_lower_bound,
    willie_qre,
)
from covertsense.estimation import (
    estimation_report,
    heterodyne_stats,
    qfi_closed,
    qfi_numeric,
    simulate_heterodyne_mse,
)
from covertsense.fock import oracle_cross_check
from covertsense.gaussian import (
    CovarianceMatrix,
    apply_beam_splitter,
    apply_phase,
    ase_two_mode_cm,
    reduced,
    symplectic_form,
    symplectic_spectrum,
    tensor,
    thermal_cm,
)
from covertsense.link import (
    LinkGeometry,
    find_sweep_minimum,
    reproduce_paper_report,
    sweep_frequency,
)
from covertsense.scenario import ProbeSettings, SensingScenario, alice_cm

REFERENCE = SensingScenario(0.5, 0.5, 1.0, 1.0)

# transmissivity x occupancy grid shared by criteria 1, 2, and 7
ETA_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
BATH_GRID = [0.01, 0.1, 1.0, 10.0]


def _equal_bath_scenario(eta_eff: float, nbar_b: float) -> SensingScenario:
    root = eta_eff**0.5
    return SensingScenario(root, root, nbar_b, nbar_b)


def test_criterion_01_taylor_coefficients_match_closed_forms():
    started = time.perf_counter()
    for eta_eff in ETA_GRID:
        for nbar_b in BATH_GRID:
            scenario = _equal_bath_scenario(eta_eff, nbar_b)
            coeffs = taylor_coefficients(scenario)
            assert coeffs.c2 == pytest.approx(
                equal_bath_c2(eta_eff, nbar_b), rel=1e-6
            )
            assert coeffs.c3 == pytest.approx(
                equal_bath_c3(eta_eff, nbar_b), rel=1e-6
            )
    assert time.perf_counter() - started < 5.0


def test_criterion_02_equal_bath_qre_closed_form():
    started = time.perf_counter()
    for eta_eff in ETA_GRID:
        for nbar_b in BATH_GRID:
            scenario = _equal_bath_scenario(eta_eff, nbar_b)
            for nbar_s in (1e-4, 1e-2, 0.1):
                assert willie_qre(scenario, nbar_s) == pytest.approx(
                    equal_bath_qre(eta_eff, nbar_b, nbar_s), abs=1e-10
                )
    assert time.perf_counter() - started < 5.0


def test_criterion_03_fock_oracle_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(20):
        # Occupancies are kept moderate so the graded photon-number
        # cutoff stays small enough for the two-minute budget.
        eta_1, eta_2 = rng.uniform(0.3, 0.95, size=2)
        nbar_b1, nbar_b2 = rng.uniform(0.05, 0.7, size=2)
        nbar_s = rng.uniform(0.01, 0.1)
        nbar_lo = rng.uniform(0.05, 0.35)
        theta = rng.uniform(-3.0, 3.0)
        residuals = oracle_cross_check(
            SensingScenario(eta_1, eta_2, nbar_b1, nbar_b2),
            nbar_s,
            nbar_lo,
            theta,
        )
        assert residuals["willie_qre_err"] <= 1e-4
        assert residuals["alice_fidelity_err"] <= 1e-5
    assert time.perf_counter() - started < 120.0


def test_criterion_04_qfi_finite_difference_and_asymptote():
    started = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(100):
        scenario = SensingScenario(
            rng.uniform(0.4, 0.95),
            rng.uniform(0.4, 0.95),
            rng.uniform(0.01, 3.0),
            rng.uniform(0.01, 3.0),
        )
        probe = ProbeSettings(
            rng.uniform(0.05, 0.5),
            rng.uniform(1.0, 100.0),
            rng.uniform(-3.0, 3.0),
        )
        finite, _ = qfi_closed(scenario, probe.nbar_s, probe.nbar_lo)
        assert qfi_numeric(scenario, probe) == pytest.approx(finite, rel=1e-4)
    finite, asymptotic = qfi_closed(REFERENCE, 1e-3, 1e6)
    assert finite == pytest.approx(asymptotic, rel=1e-3)
    assert time.perf_counter() - started < 10.0


def test_criterion_05_effective_channel_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        eta_1, eta_2 = rng.uniform(0.05, 1.0, size=2)
        nbar_b1, nbar_b2 = rng.uniform(0.0, 5.0, size=2)
        nbar_s = rng.uniform(0.0, 1.0)
        nbar_lo = rng.uniform(0.0, 10.0)
        theta = rng.uniform(-3.0, 3.0)
        scenario = SensingScenario(eta_1, eta_2, nbar_b1, nbar_b2)
        probe = ProbeSettings(nbar_s, nbar_lo, theta)
        # forward tap, probed phase, return tap, composed mode by mode
        cm = tensor(
            thermal_cm([nbar_b2, nbar_b1]), ase_two_mode_cm(nbar_s, nbar_lo)
        )
        cm = apply_beam_splitter(cm, 1, 2, eta_1)
        cm = apply_phase(cm, 2, theta)
        cm = apply_beam_splitter(cm, 0, 2, eta_2)
        composed = reduced(cm, [2, 3]).matrix
        single = alice_cm(scenario, probe).matrix
        np.testing.assert_allclose(composed, single, rtol=0.0, atol=1e-12)
    assert time.perf_counter() - started < 5.0


def test_criterion_06_symplectic_diagonalizer():
    started = time.perf_counter()
    rng = np.random.default_rng(20260816)
    omega = np.asarray(symplectic_form(2))
    for _ in range(1000):
        a = rng.normal(size=(4, 4))
        cm = CovarianceMatrix(a @ a.T + 0.5 * np.eye(4), 2)
        m = symplectic_spectrum(cm).eigenvector_matrix
        np.testing.assert_allclose(
            m @ omega @ m.T, omega, rtol=0.0, atol=1e-10
        )
        diagonal = m @ cm.matrix @ m.T
        off = diagonal - np.diag(np.diag(diagonal))
        assert float(np.max(np.abs(off))) <= 1e-10
    assert time.perf_counter() - started < 5.0


def test_criterion_07_bound_hierarchy():
    started = time.perf_counter()
    for eta_eff in ETA_GRID:
        for nbar_b in BATH_GRID:
            scenario = _equal_bath_scenario(eta_eff, nbar_b)
            report = estimation_report(scenario, 1e-3, 1e6, 1e6)
            headroom = 1.0 + 1e-12
            assert report.c_het_tilde <= 2.0 * report.c_ase * headroom
            assert report.c_coh <= report.c_het * headroom
            assert report.c_het <= 2.0 * report.c_coh * headroom
            assert report.mu_c == pytest.approx(1.0, abs=1e-9)
    assert time.perf_counter() - started < 5.0


def test_criterion_08_covertness_identity():
    started = time.perf_counter()
    for epsilon in (1e-1, 1e-2, 1e-3):
        for num_modes in (1e4, 1e8, 3e12):
            budget = covert_budget(REFERENCE, epsilon, num_modes)
            bound = willie_error_lower_bound(
                budget.c2, num_modes, budget.nbar_s
            )
            assert bound == pytest.approx(0.5 - epsilon, abs=1e-12)
    assert time.perf_counter() - started < 1.0


def test_exact_arctan_mse_reference():
    # At high signal-to-noise ratio the MSE is sigma^2 (1 + sigma^2) to
    # leading orders; with no signal the angle is uniform (pi^2 / 3).
    for sigma_sq in (1e-4, 1e-3, 1e-2):
        assert _exact_arctan_mse(sigma_sq) == pytest.approx(
            sigma_sq * (1.0 + sigma_sq), rel=10.0 * sigma_sq**2
        )
    assert _exact_arctan_mse(1e6) == pytest.approx(math.pi**2 / 3.0, rel=1e-3)


def test_criterion_09_monte_carlo_estimator():
    # The reference is the estimator's exact MSE.  The leading-order
    # variance sigma_het_sq sits ~sigma^4 below it (1.2 % here, 3.7 stderr
    # at 200 000 trials), so it is not what the sample mean estimates.
    started = time.perf_counter()
    epsilon, num_modes, theta, trials = 0.01, 1e8, 0.5, 200_000
    budget = covert_budget(REFERENCE, epsilon, num_modes)
    sigma_het_sq = heterodyne_stats(
        REFERENCE, theta, budget.nbar_s, num_modes
    ).sigma_het_sq
    mse, stderr = simulate_heterodyne_mse(
        REFERENCE, theta, epsilon, num_modes, trials, seed=42, workers=4
    )
    assert abs(mse - _exact_arctan_mse(sigma_het_sq)) <= 3.0 * stderr
    assert time.perf_counter() - started < 30.0


def test_criterion_10_reference_value_reproduction():
    started = time.perf_counter()
    report = reproduce_paper_report()
    assert len(report.conventions) == 6
    matched = report.matched
    if matched is not None:
        assert all(target.matches for target in matched.results)
    else:
        # Sensitivity outcome: every convention must score every target
        # (both residuals for located optima, the bound residual for
        # fixed wavelengths) or flag why it cannot be evaluated.
        for convention in report.conventions:
            assert len(convention.results) == 5
            for target in convention.results:
                scored = target.b_rel_err is not None and (
                    target.kind != "optimize" or target.d_lambda_m is not None
                )
                assert scored or target.flag
    # Qualitative shape check: the per-mode bound over the sweep band has
    # a unique interior minimum in the mid/long-wave infrared.
    for range_m in (3000.0, 5000.0):
        rows = sweep_frequency(
            15e12, 100e12, 200, LinkGeometry(range_m=range_m)
        )
        minimum = find_sweep_minimum(rows)
        assert minimum.is_interior
        assert minimum.is_unique
        assert 3e-6 <= minimum.row.lambda_m <= 15e-6
    assert time.perf_counter() - started < 120.0


def test_criterion_11_reproducibility():
    started = time.perf_counter()

    def run(*args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env.pop("COVERTSENSE_CONFIG", None)
        return subprocess.run(
            [sys.executable, "-m", "covertsense.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=False,
        )

    scenario_flags = [
        "--eta1", "0.5", "--eta2", "0.5", "--nb1", "1", "--nb2", "1",
        "--epsilon", "1e-3", "--n", "1e6",
    ]
    first = run("scenario", *scenario_flags)
    second = run("scenario", *scenario_flags)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    # 50152 trials are three whole strips of four 4096-trial blocks and a
    # fourth strip of one 1000-trial block, so the --workers 3 run starts
    # min(3, cores) threads and exercises the block-ordered combine.
    mc_flags = ["mse-mc", *scenario_flags, "--trials", "50152", "--seed", "5"]
    serial = run(*mc_flags, "--workers", "1")
    parallel = run(*mc_flags, "--workers", "3")
    repeat = run(*mc_flags, "--workers", "1")
    assert serial.returncode == 0, serial.stderr
    assert serial.stdout == parallel.stdout == repeat.stdout
    assert json.loads(serial.stdout)["results"]["mse"] > 0.0
    assert time.perf_counter() - started < 10.0
