"""Fidelity, Fisher information, and heterodyne estimation statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense import estimation
from covertsense.covertness import covert_budget
from covertsense.errors import DomainError
from covertsense.estimation import (
    RNG_ALGORITHM,
    ase_heterodyne_coefficient,
    coherent_baseline,
    estimation_report,
    finite_lo_heterodyne_variances,
    gaussian_fidelity,
    heterodyne_stats,
    qcrb_ase,
    qfi_closed,
    qfi_numeric,
    simulate_heterodyne_mse,
    source_comparison,
)
from covertsense.gaussian import thermal_cm, vacuum_cm
from covertsense.scenario import ProbeSettings, SensingScenario, alice_cm

REFERENCE = SensingScenario(0.5, 0.5, 1.0, 1.0)

occupancies = st.floats(0.0, 3.0)
angles = st.floats(-math.pi, math.pi)


class TestFidelity:
    def test_self_fidelity_one(self):
        cm = alice_cm(REFERENCE, ProbeSettings(0.1, 2.0, 0.3))
        assert gaussian_fidelity(cm, cm) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_thermal_golden(self):
        # Per mode F(vac, th(1)) = 1/sqrt(2), so the two-mode value is 1/2.
        # The invariant-form evaluation carries ~1e-9 rounding noise when
        # one state is pure (two radicands cancel); the cross-validation
        # contract against the number-basis oracle is 1e-5, so 1e-8 here
        # still leaves three orders of guard band.
        got = gaussian_fidelity(vacuum_cm(2), thermal_cm([1.0, 1.0]))
        assert got == pytest.approx(0.5, rel=1e-8)

    def test_thermal_product_closed_form(self):
        # Product over modes of 1/(sqrt((na+1)(nb+1)) - sqrt(na nb)).
        def one_mode(na: float, nb: float) -> float:
            return 1.0 / (math.sqrt((na + 1) * (nb + 1)) - math.sqrt(na * nb))

        got = gaussian_fidelity(thermal_cm([0.3, 2.0]), thermal_cm([1.7, 0.4]))
        assert got == pytest.approx(one_mode(0.3, 1.7) * one_mode(2.0, 0.4), rel=1e-12)

    @given(n0=occupancies, n1=occupancies, m0=occupancies, m1=occupancies)
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, n0, n1, m0, m1):
        a, b = thermal_cm([n0, m0]), thermal_cm([n1, m1])
        f_ab = gaussian_fidelity(a, b)
        assert f_ab == pytest.approx(gaussian_fidelity(b, a), rel=1e-10)
        assert 0.0 < f_ab <= 1.0 + 1e-12

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            gaussian_fidelity(vacuum_cm(1), vacuum_cm(1))


class TestQfi:
    def test_asymptotic_golden(self):
        # eta_eff ns -> QFI 4 eta_eff ns / (...) at strong reference;
        # reference point gives exactly 0.04.
        finite, asymptotic = qfi_closed(REFERENCE, 0.1, 1e6)
        assert asymptotic == pytest.approx(0.04, rel=1e-12)
        assert finite == pytest.approx(asymptotic, rel=1e-3)

    def test_finite_lo_golden(self):
        finite, _ = qfi_closed(REFERENCE, 0.1, 1.0)
        assert finite == pytest.approx(0.03053435114503817, rel=1e-12)

    def test_finite_increases_to_asymptotic(self):
        values = [qfi_closed(REFERENCE, 0.1, nlo)[0] for nlo in (1.0, 10.0, 1e3, 1e6)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(0.04, rel=1e-3)

    def test_numeric_matches_closed(self):
        probe = ProbeSettings(nbar_s=0.1, nbar_lo=50.0, theta=0.4)
        numeric = qfi_numeric(REFERENCE, probe)
        closed, _ = qfi_closed(REFERENCE, 0.1, 50.0)
        assert numeric == pytest.approx(closed, rel=1e-6)

    @given(theta=angles)
    @settings(max_examples=25)
    def test_numeric_theta_independent(self, theta):
        # Finite differences leave O(step^2) truncation that moves with
        # the expansion point, so compare at a few parts in 1e6.
        probe = ProbeSettings(nbar_s=0.05, nbar_lo=20.0, theta=theta)
        baseline = qfi_numeric(REFERENCE, ProbeSettings(0.05, 20.0, 0.0))
        assert qfi_numeric(REFERENCE, probe) == pytest.approx(baseline, rel=1e-5)

    def test_qcrb_golden(self):
        c_ase, qcrb = qcrb_ase(REFERENCE, 1e-3, 1e6)
        assert c_ase == pytest.approx(0.8385254915621441, rel=1e-12)
        # eps*sqrt(n) = 1 here, so the bound equals the coefficient.
        assert qcrb == pytest.approx(c_ase, rel=1e-12)

    def test_qcrb_scaling(self):
        c_ase, qcrb = qcrb_ase(REFERENCE, 1e-3, 1e8)
        assert qcrb == pytest.approx(c_ase / 10.0, rel=1e-12)


class TestHeterodyneStats:
    def test_reference_golden(self):
        stats = heterodyne_stats(REFERENCE, 0.3, 0.1, 1.0)
        assert stats.mu1 == pytest.approx(math.cos(0.3), rel=1e-15)
        assert stats.mu2 == pytest.approx(math.sin(0.3), rel=1e-15)
        assert stats.sigma_sq == pytest.approx(35.0, rel=1e-12)
        assert stats.sigma_het_sq == pytest.approx(35.0, rel=1e-12)

    @given(
        e1=st.floats(0.1, 1.0),
        e2=st.floats(0.1, 1.0),
        nb=st.floats(0.01, 4.0),
        theta=angles,
        ns=st.floats(1e-4, 0.5),
        n=st.floats(1.0, 1e8),
    )
    @settings(max_examples=60)
    def test_moment_identities(self, e1, e2, nb, theta, ns, n):
        scenario = SensingScenario(e1, e2, nb, 0.7 * nb)
        stats = heterodyne_stats(scenario, theta, ns, n)
        assert stats.mu1 == pytest.approx(math.cos(theta), abs=1e-12)
        assert stats.mu2 == pytest.approx(math.sin(theta), abs=1e-12)
        # Quadrature-variance sum and difference close exactly.
        assert stats.sigma1_sq + stats.sigma2_sq == pytest.approx(
            2.0 * stats.sigma_sq + 1.0, rel=1e-12
        )
        assert stats.sigma1_sq - stats.sigma2_sq == pytest.approx(
            math.cos(2.0 * theta), abs=1e-9
        )
        assert stats.sigma_het_sq == pytest.approx(
            stats.sigma_sq / math.floor(n), rel=1e-12
        )

    def test_budget_reproduces_coefficient(self):
        # With nbar_s at the covert budget, n sigma_het^2 * eps sqrt(n)
        # collapses to the ASE heterodyne coefficient.
        eps, n = 1e-3, 1e6
        budget = covert_budget(REFERENCE, eps, n)
        stats = heterodyne_stats(REFERENCE, 0.0, budget.nbar_s, n)
        assert stats.sigma_het_sq * eps * math.sqrt(n) == pytest.approx(
            ase_heterodyne_coefficient(REFERENCE), rel=1e-6
        )

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            heterodyne_stats(REFERENCE, 0.3, 0.0, 1.0)


class TestFiniteLo:
    def test_converges_to_normalized_variances(self):
        stats = heterodyne_stats(REFERENCE, 0.3, 0.1, 1.0)
        s1, s2 = finite_lo_heterodyne_variances(REFERENCE, 0.3, 0.1, 1e8)
        assert s1 == pytest.approx(stats.sigma1_sq, rel=1e-6)
        assert s2 == pytest.approx(stats.sigma2_sq, rel=1e-6)

    def test_weak_reference_guarded(self):
        with pytest.raises(DomainError):
            finite_lo_heterodyne_variances(REFERENCE, 0.3, 0.1, 100.0)


class TestSimulation:
    def test_rng_algorithm_pinned(self):
        assert RNG_ALGORITHM == "philox4x64-10"

    def test_seed_reproducibility(self):
        kwargs = dict(theta_true=0.5, epsilon=0.01, num_modes=1e6, trials=2000)
        a = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        b = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        assert a == b

    def test_worker_count_invariance(self):
        # Three 4096-trial blocks, so more than one thread runs wherever
        # there is more than one core.
        kwargs = dict(theta_true=0.5, epsilon=0.01, num_modes=1e6, trials=10_000)
        serial = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        parallel = simulate_heterodyne_mse(REFERENCE, seed=7, workers=3, **kwargs)
        assert serial == parallel

    def test_seed_sensitivity(self):
        kwargs = dict(theta_true=0.5, epsilon=0.01, num_modes=1e6, trials=2000)
        a = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        b = simulate_heterodyne_mse(REFERENCE, seed=8, **kwargs)
        assert a != b

    def test_mse_tracks_prediction(self):
        # Use n large enough that the arctangent nonlinearity bias
        # (+sigma^4, the O(1/n) correction to the linearized variance)
        # sits well inside the statistical window.
        eps, n = 0.01, 1e8
        mse, stderr = simulate_heterodyne_mse(
            REFERENCE, 0.5, eps, n, trials=4000, seed=11
        )
        budget = covert_budget(REFERENCE, eps, n)
        predicted = heterodyne_stats(REFERENCE, 0.5, budget.nbar_s, n).sigma_het_sq
        assert abs(mse - predicted) <= 4.0 * stderr

    def test_per_sample_mode_consistent(self):
        # The per-mode validation path averages n raw outcomes per trial;
        # its estimate targets the same distribution as the pooled path,
        # so the two independent estimates must agree statistically, and
        # the slow path must be exactly reproducible.
        kwargs = dict(theta_true=0.5, epsilon=0.3, num_modes=400, trials=1000)
        pooled = simulate_heterodyne_mse(REFERENCE, seed=3, **kwargs)
        streamed = simulate_heterodyne_mse(REFERENCE, seed=3, per_sample=True, **kwargs)
        again = simulate_heterodyne_mse(REFERENCE, seed=3, per_sample=True, **kwargs)
        assert streamed == again
        combined = math.hypot(pooled[1], streamed[1])
        assert abs(pooled[0] - streamed[0]) <= 5.0 * combined

    def test_thread_count_bounded_by_cores_and_blocks(self, monkeypatch):
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 4)
        assert estimation._thread_count(1, 100) == 1
        assert estimation._thread_count(3, 100) == 3
        assert estimation._thread_count(10**6, 100) == 4
        assert estimation._thread_count(10**6, 2) == 2
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: None)
        assert estimation._thread_count(8, 100) == 1

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            simulate_heterodyne_mse(REFERENCE, 0.5, 0.01, 1e6, trials=10, seed=1)


class TestBaselines:
    def test_coherent_baseline_golden(self):
        ns, c_het, c_coh = coherent_baseline(0.25, 1.0, 1e-3, 1e6)
        assert ns == pytest.approx(2.98142397e-06, rel=1e-9)
        assert c_het == pytest.approx(1.1739356881873895, rel=1e-12)
        assert c_coh == pytest.approx(0.8385254915624211, rel=1e-12)

    def test_heterodyne_penalty_bracket(self):
        # c_coh <= c_het <= 2 c_coh for any equal-bath scenario.
        for eta, nb in [(0.1, 0.05), (0.5, 1.0), (0.9, 8.0)]:
            _, c_het, c_coh = coherent_baseline(eta, nb, 1e-3, 1e6)
            assert c_coh <= c_het <= 2.0 * c_coh + 1e-12

    def test_source_comparison_golden(self):
        mu, mu_c, mu_w = source_comparison(REFERENCE, 3e12, 3e9, 1e-3, 1e-3)
        assert mu == pytest.approx(math.sqrt(3e9 / 3e12), rel=1e-9)
        assert mu_c == pytest.approx(1.0, abs=1e-9)
        assert mu_w == pytest.approx(1000.0, rel=1e-12)


class TestReport:
    def test_fields_are_mutually_consistent(self):
        eps, n, nlo = 1e-3, 1e6, 1e6
        report = estimation_report(REFERENCE, eps, n, nlo)
        assert report.c_ase == pytest.approx(0.8385254915621441, rel=1e-12)
        assert report.qcrb == pytest.approx(report.c_ase / (eps * math.sqrt(n)), rel=1e-12)
        assert report.mse_het == pytest.approx(
            report.c_het_tilde / (eps * math.sqrt(n)), rel=1e-12
        )
        assert report.mse_bound == pytest.approx(report.qcrb, rel=1e-12)
        assert report.f_a_prime <= report.f_a * (1.0 + 1e-12)
        # Numeric and closed-form heterodyne coefficients are independent
        # routes to the same number.
        assert report.c_het_tilde == pytest.approx(report.c_het, rel=1e-9)
        assert report.mu_w == pytest.approx(1000.0, rel=1e-12)
        assert report.mu_c == pytest.approx(1.0, abs=1e-9)

    def test_bound_ordering(self):
        report = estimation_report(REFERENCE, 1e-3, 1e6, 1e6)
        # The achievable heterodyne MSE can never beat the quantum bound.
        assert report.mse_het >= report.qcrb
