"""Fidelity, Fisher information, and heterodyne estimation statistics."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import THREE_STRIPS_AND_A_BLOCK, _exact_arctan_mse

from covertsense import _constants, estimation
from covertsense.covertness import covert_budget, taylor_coefficients
from covertsense.errors import DomainError
from covertsense.estimation import (
    RNG_ALGORITHM,
    ase_heterodyne_coefficient,
    estimation_report,
    gaussian_fidelity,
    heterodyne_stats,
    qcrb_ase,
    qfi_closed,
    qfi_numeric,
    sample_heterodyne_mse,
    simulate_heterodyne_mse,
)
from covertsense.gaussian import thermal_cm, vacuum_cm
from covertsense.scenario import ProbeSettings, SensingScenario, alice_cm

REFERENCE = SensingScenario(0.5, 0.5, 1.0, 1.0)
REFERENCE_C2 = taylor_coefficients(REFERENCE).c2

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

    def test_huge_reference_reaches_bright_limit(self):
        # 4 nbar_lo ns eta / (nbar_lo + ...) overflowed to inf/inf = NaN.
        finite, asymptotic = qfi_closed(REFERENCE, 0.1, 1e308)
        assert finite == pytest.approx(asymptotic, rel=1e-15)
        assert qfi_closed(REFERENCE, 0.1, 5e-324)[0] == 0.0
        assert qfi_closed(REFERENCE, 0.1, 0.0) == (0.0, asymptotic)

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
        c_ase = qcrb_ase(REFERENCE, REFERENCE_C2)
        assert c_ase == pytest.approx(0.8385254915621441, rel=1e-12)
        # eps*sqrt(n) = 1 here, so the bound equals the coefficient.
        report = estimation_report(REFERENCE, 1e-3, 1e6, 1e6)
        assert report.qcrb == pytest.approx(c_ase, rel=1e-12)

    def test_qcrb_scaling(self):
        c_ase = qcrb_ase(REFERENCE, REFERENCE_C2)
        report = estimation_report(REFERENCE, 1e-3, 1e8, 1e6)
        assert report.qcrb == pytest.approx(c_ase / 10.0, rel=1e-12)


class TestHeterodyneStats:
    def test_reference_golden(self):
        stats = heterodyne_stats(REFERENCE, 0.3, 0.1, 1.0)
        assert stats._fields == ("sigma_sq", "sigma_het_sq")
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
        # The noise does not depend on the phase it is measured at.
        assert stats == heterodyne_stats(scenario, 0.0, ns, n)
        eta, b = scenario.eta_eff, scenario.nbar_b_eff
        assert stats.sigma_sq == pytest.approx(
            (1.0 + (1.0 - eta) * b) / (2.0 * eta * ns), rel=1e-12
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
            ase_heterodyne_coefficient(REFERENCE, budget.c2), rel=1e-6
        )

    @pytest.mark.filterwarnings("ignore:covert budget:UserWarning")
    def test_bounds_and_mse_mc_routes_agree(self):
        # bounds forms sigma_het^2 as c_het_tilde / (eps sqrt(n)), mse-mc as
        # (1 + (1 - eta) b) / (2 eta nbar_s n) at the budget's nbar_s.  They
        # part in the last bits only: at most 6.5e-16 relative over 20 000
        # draws of this box.
        rng = random.Random(20261021)

        def log_uniform(low, high):
            return math.exp(rng.uniform(math.log(low), math.log(high)))

        for _ in range(2000):
            scenario = SensingScenario(
                rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                log_uniform(1e-3, 10.0), log_uniform(1e-3, 10.0),
            )
            epsilon, n = log_uniform(1e-4, 0.3), log_uniform(1.0, 1e12)
            bounds = estimation_report(scenario, epsilon, n, 1e6).mse_het
            budget = covert_budget(scenario, epsilon, n)
            mse_mc = heterodyne_stats(
                scenario, rng.uniform(-3.0, 3.0), budget.nbar_s, n
            ).sigma_het_sq
            assert bounds == pytest.approx(mse_mc, rel=1e-15, abs=0.0), (
                scenario, epsilon, n,
            )

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            heterodyne_stats(REFERENCE, 0.3, 0.0, 1.0)

    def test_underflowing_signal_refused_as_no_signal(self):
        # 2 eta nbar_s underflows to 0 at a subnormal nbar_s; unrefused, the
        # division raised ZeroDivisionError.
        with pytest.raises(
            DomainError, match="^no signal to normalize by: nbar_s = 5e-324$"
        ):
            heterodyne_stats(SensingScenario(0.5, 0.5, 0.2, 0.2), 0.3, 5e-324, 1)

    def test_opaque_channel_still_refused_as_opaque(self):
        # The scale is 0 here too, but because nothing returns.
        with pytest.raises(DomainError, match="^fully opaque channel"):
            heterodyne_stats(SensingScenario(0.0, 0.5, 0.2, 0.2), 0.3, 5e-324, 1)

    @pytest.mark.parametrize("nbar_s", [-0.1, math.nan, math.inf])
    def test_bad_signal_refused_by_name(self, nbar_s):
        # Unrefused, NaN gives NaN moments and inf a noise variance of zero.
        with pytest.raises(ValueError, match="^nbar_s must be non-negative and finite"):
            heterodyne_stats(REFERENCE, 0.3, nbar_s, 1.0)


def _reference_mse(scenario, theta_true, epsilon, num_modes, trials, seed, kernel):
    """The block-per-task estimator, run serially with out-of-place ufuncs.

    One Philox generator per 4096-trial block; the block sums are added
    by ``math.fsum``, correctly rounded.  ``kernel`` names the per-trial
    error:

    * ``"rotated"``: fast mode's error in the frame of the true phase,
      atan2(2 s t, (1 + t^2) + s (1 - t^2)) with s = sigma r and
      t = tan(pi u1 - theta / 2), theta reduced modulo 2 pi first.  The
      strip driver must match its bits.
    * ``"cos-sin"``: fast mode as it was before that kernel, I and Q from
      cos and sin, then atan2(Q, I) - theta wrapped by ``np.remainder``.
    * ``"per-sample"``: n cos/sin Box-Muller shots per trial, averaged,
      then as ``"cos-sin"``.  Trial t owns uniforms [2nt, 2n(t+1)); the
      shots are drawn in chunks of rows, so a block's working set stays
      near 2**16 shots whatever n is.  This O(n) route is the evidence
      that drawing the averaged quadratures directly is right.
    """

    def wrap_array(diff):
        reduced = np.remainder(diff, 2.0 * np.pi)
        return reduced - 2.0 * np.pi * (reduced > np.pi)

    def normal_pairs(uniforms):
        radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., 0]))
        angle = (2.0 * np.pi) * uniforms[..., 1]
        return radius * np.cos(angle), radius * np.sin(angle)

    n = math.floor(num_modes)
    budget = covert_budget(scenario, epsilon, n)
    stats = heterodyne_stats(scenario, theta_true, budget.nbar_s, n)
    mu1 = math.cos(theta_true)
    mu2 = math.sin(theta_true)
    sigma_avg = math.sqrt(stats.sigma_het_sq)
    sigma_shot = math.sqrt(stats.sigma_sq)
    half_theta = 0.5 * math.remainder(theta_true, 2.0 * math.pi)
    uniforms_per_trial = 2 * n if kernel == "per-sample" else 2

    def squared_errors(gen, count):
        if kernel == "rotated":
            uniforms = gen.random((count, 2))
            s = np.sqrt(-2.0 * np.log1p(-uniforms[:, 0])) * sigma_avg
            t = np.tan(np.pi * uniforms[:, 1] - half_theta)
            t_sq = t * t
            delta = np.arctan2(2.0 * s * t, (1.0 + t_sq) + s * (1.0 - t_sq))
            return delta * delta
        if kernel == "cos-sin":
            z_i, z_q = normal_pairs(gen.random((count, 2)))
            comp_i = mu1 + sigma_avg * z_i
            comp_q = mu2 + sigma_avg * z_q
        else:
            rows = max(1, 2**16 // n)
            mean_i, mean_q = [], []
            for done in range(0, count, rows):
                z_i, z_q = normal_pairs(gen.random((min(rows, count - done), n, 2)))
                mean_i.append(z_i.mean(axis=1))
                mean_q.append(z_q.mean(axis=1))
            comp_i = mu1 + sigma_shot * np.concatenate(mean_i)
            comp_q = mu2 + sigma_shot * np.concatenate(mean_q)
        delta = wrap_array(np.arctan2(comp_q, comp_i) - theta_true)
        return delta * delta

    def run_block(index):
        start = index * 4096
        count = min(4096, trials - start)
        offset_uniforms = start * uniforms_per_trial
        assert offset_uniforms % 4 == 0
        bit_gen = np.random.Philox(key=seed)
        bit_gen.advance(offset_uniforms // 4)
        squared = squared_errors(np.random.Generator(bit_gen), count)
        return float(np.sum(squared)), float(np.sum(squared * squared))

    num_blocks = -(-trials // 4096)
    partials = [run_block(i) for i in range(num_blocks)]
    sum_sq = math.fsum(part_sq for part_sq, _ in partials)
    sum_quad = math.fsum(part_quad for _, part_quad in partials)
    mse = sum_sq / trials
    variance = (sum_quad - sum_sq * sum_sq / trials) / (trials - 1)
    stderr = math.sqrt(max(variance, 0.0) / trials)
    return mse, stderr


def _sequential_fold(sigma_het_sq, theta_true, trials, seed):
    """``(mse, stderr)`` with the block sums added in block order, one
    float addition at a time, as the sampler added them before it summed
    them exactly.  Each block is drawn alone by the sampler's own kernel,
    so the two differ only in how the block sums are added."""
    sum_sq = sum_quad = 0.0
    for start in range(0, trials, 4096):
        count = min(4096, trials - start)
        bit_gen = np.random.Philox(key=seed)
        bit_gen.advance(start // 2)
        squared = estimation._fast_squared_errors(
            np.random.Generator(bit_gen), count, math.sqrt(sigma_het_sq),
            theta_true, estimation._StripBuffers(count),
        )
        ((part_sq, part_quad),) = estimation._block_sums(squared)
        sum_sq += part_sq
        sum_quad += part_quad
    mse = sum_sq / trials
    variance = (sum_quad - sum_sq * sum_sq / trials) / (trials - 1)
    return mse, math.sqrt(max(variance, 0.0) / trials)


class TestStrips:
    @pytest.mark.parametrize("epsilon,num_modes", [(0.01, 1e6)], ids=["fast"])
    @pytest.mark.parametrize("theta", [0.0, math.pi, -math.pi, 3.0, 7.0, -10.0])
    def test_bits_match_block_reference(self, theta, epsilon, num_modes):
        for trials in (1000, 4096, 16384, 16385, 50_001):
            want = _reference_mse(
                REFERENCE, theta, epsilon, num_modes, trials, 29, "rotated"
            )
            for workers in (1, 3):
                got = simulate_heterodyne_mse(
                    REFERENCE, theta, epsilon, num_modes, trials, 29,
                    workers=workers,
                )
                assert got == want, (trials, workers)

    def test_strip_size_does_not_move_bits(self, monkeypatch):
        kwargs = dict(
            theta_true=-3.0, epsilon=0.01, num_modes=1e6,
            trials=THREE_STRIPS_AND_A_BLOCK, seed=13,
        )
        results = set()
        for strip_blocks in (1, 3, 4):
            monkeypatch.setattr(estimation, "_STRIP_BLOCKS", strip_blocks)
            for workers in (1, 2):
                results.add(
                    simulate_heterodyne_mse(REFERENCE, workers=workers, **kwargs)
                )
        assert len(results) == 1

    def test_one_task_per_thread(self, monkeypatch):
        # Two workers submit two tasks, each walking every other strip with
        # one generator and one set of buffers, so nothing held grows with
        # the strip count.
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 4)
        submitted = []
        real_submit = ThreadPoolExecutor.submit

        def counting_submit(pool, fn, *args, **kwargs):
            submitted.append(args)
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
        strips = 40
        simulate_heterodyne_mse(
            REFERENCE, 0.5, 0.01, 1e6, trials=strips * 4 * 4096, seed=3, workers=2
        )
        assert len(submitted) == 2

    def test_drift_from_sequential_fold_bounded(self):
        # The exact sum of the block sums is their correctly rounded sum;
        # the block-order fold it replaced rounded after every block.  Over
        # this box (mse, stderr) move by at most 1e-15 relative (measured:
        # 4.6e-16 over 2000 draws; a lone block never moves).
        rng = random.Random(43)
        for _ in range(60):
            args = (
                10.0 ** rng.uniform(-6.0, 1.0),
                rng.uniform(-4.0, 4.0),
                rng.choice((1000, 4096, 16385, 50_001)),
                rng.randrange(2**32),
            )
            got = sample_heterodyne_mse(*args, workers=rng.randint(1, 3))
            assert got == pytest.approx(
                _sequential_fold(*args), rel=1e-15, abs=0.0
            ), args


class TestRotatedKernel:
    """Fast mode's error angle drawn in the frame of the true phase."""

    @pytest.mark.filterwarnings("ignore:covert budget:UserWarning")
    def test_drift_from_cos_sin_kernel_bounded(self):
        # The rotated kernel gives each trial the error the cos/sin kernel
        # gave, to rounding; over this grid (mse, stderr) move by at most
        # 1e-13 relative.  Small noise is where they part: the cos/sin
        # kernel subtracts theta after the arctangent.
        scenarios = (
            REFERENCE,
            SensingScenario(0.83, 0.55, 0.69, 0.43),
            SensingScenario(0.3, 0.95, 3.0, 0.05),
        )
        points = ((0.01, 1e6), (0.05, 4.0), (0.5, 1.0), (0.01, 1e9))
        thetas = (0.0, math.pi, -math.pi, 3.0, 7.0, -10.0)
        for scenario in scenarios:
            for epsilon, num_modes in points:
                for theta in thetas:
                    args = (scenario, theta, epsilon, num_modes, 50_001, 29)
                    got = simulate_heterodyne_mse(*args)
                    old = _reference_mse(*args, "cos-sin")
                    assert got == pytest.approx(old, rel=1e-13, abs=0.0), args

    @pytest.mark.parametrize(
        "theta", [0.0, math.pi, -math.pi, 3.0, 7.0, -10.0, 1000.0, 1e20]
    )
    def test_fast_mode_matches_exact_mse(self, theta):
        # sigma_het_sq ~ 1.2: errors cross the wrap often.  Phases beyond
        # pi, up to 1e20, are reduced modulo 2 pi before the tangent.
        epsilon, num_modes = 0.01, 1e4
        budget = covert_budget(REFERENCE, epsilon, num_modes)
        sigma_het_sq = heterodyne_stats(
            REFERENCE, theta, budget.nbar_s, num_modes
        ).sigma_het_sq
        mse, stderr = simulate_heterodyne_mse(
            REFERENCE, theta, epsilon, num_modes, trials=50_001, seed=31
        )
        assert abs(mse - _exact_arctan_mse(sigma_het_sq)) <= 3.0 * stderr

    @pytest.mark.filterwarnings("ignore:covert budget:UserWarning")
    @pytest.mark.parametrize("num_modes", [1.0, 2.0, 10.0, 1000.0])
    def test_per_sample_agrees_with_fast_mode(self, num_modes):
        # The per-sample reference draws all n shots of a trial through
        # cos/sin Box-Muller and averages them, a route independent of the
        # rotated kernel.  It costs O(n) per trial, so n = 1000 runs fewer
        # trials.  Both must also agree with the exact MSE.
        trials = 50_001 if num_modes <= 10.0 else 4096
        args = (REFERENCE, 2.5, 0.3, num_modes, trials, 37)
        fast = simulate_heterodyne_mse(*args)
        slow = _reference_mse(*args, "per-sample")
        assert abs(fast[0] - slow[0]) <= 3.0 * math.hypot(fast[1], slow[1])
        budget = covert_budget(REFERENCE, 0.3, num_modes)
        exact = _exact_arctan_mse(
            heterodyne_stats(REFERENCE, 2.5, budget.nbar_s, num_modes).sigma_het_sq
        )
        for mse, stderr in (fast, slow):
            assert abs(mse - exact) <= 3.0 * stderr


class TestSimulation:
    def test_rng_algorithm_pinned(self):
        assert RNG_ALGORITHM == "philox4x64-10"
        # The CLI metadata reads the same name without this module.
        assert RNG_ALGORITHM is _constants.RNG_ALGORITHM

    def test_seed_reproducibility(self):
        kwargs = dict(theta_true=0.5, epsilon=0.01, num_modes=1e6, trials=2000)
        a = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        b = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        assert a == b

    def test_worker_count_invariance(self):
        # Three whole 16384-trial strips and a fourth holding one
        # 1000-trial block, so more than one thread runs wherever there is
        # more than one core.
        kwargs = dict(theta_true=0.5, epsilon=0.01, num_modes=1e6, trials=THREE_STRIPS_AND_A_BLOCK)
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

    @pytest.mark.parametrize(
        "args,kwargs,match",
        [
            ((0.01, 0.5, 1000.9, 1), {}, "^trials must be an integer, got 1000.9$"),
            ((0.01, 0.5, np.float64(2000.0), 1), {}, "^trials must be an integer"),
            ((0.01, 0.5, 1000, 1.5), {}, "^seed must be an integer, got 1.5$"),
            ((0.01, 0.5, 1000, 1.9), {}, "^seed must be an integer, got 1.9$"),
            ((0.01, 0.5, 1000, True), {}, "^seed must be an integer, got True$"),
            ((0.01, 0.5, 1000, 1), {"workers": 2.7}, "^workers must be an integer"),
            ((0.01, 0.5, 1000, -1), {}, "^seed must be a non-negative integer"),
            ((0.01, 0.5, 1000, 2**128), {}, "^seed must be a non-negative integer"),
            ((0.01, 0.5, 1000, 1), {"workers": 0}, "^workers must be >= 1$"),
            ((0.0, 0.5, 1000, 1), {}, "^sigma_het_sq must be positive and finite"),
            ((-1.0, 0.5, 1000, 1), {}, "^sigma_het_sq must be positive and finite"),
            ((math.nan, 0.5, 1000, 1), {}, "^sigma_het_sq must be positive and finite"),
            ((math.inf, 0.5, 1000, 1), {}, "^sigma_het_sq must be positive and finite"),
            ((0.01, math.nan, 1000, 1), {}, "^theta_true must be finite, got nan$"),
            ((0.01, -math.inf, 1000, 1), {}, "^theta_true must be finite, got -inf$"),
        ],
        ids=[
            "trials-float", "trials-float64", "seed-1.5", "seed-1.9", "seed-bool",
            "workers-float", "seed-negative", "seed-2**128", "workers-zero",
            "sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf", "theta-nan",
            "theta-inf",
        ],
    )
    def test_sampler_refuses_bad_arguments_by_name(self, args, kwargs, match):
        # Truncated, seed 1.5, 1.9 and True would run seed 1's stream and
        # trials 1000.9 would run 1000 trials.
        with pytest.raises(ValueError, match=match):
            sample_heterodyne_mse(*args, **kwargs)

    def test_numpy_integer_counts_accepted(self):
        plain = sample_heterodyne_mse(0.01, 0.5, 2000, 7, workers=2)
        numpy_ints = sample_heterodyne_mse(
            0.01, 0.5, np.int64(2000), np.uint64(7), workers=np.int32(2)
        )
        assert numpy_ints == plain
        assert all(type(value) is float for value in numpy_ints)

    @pytest.mark.parametrize("sigma_het_sq", [1e-3, 0.188, 2.0])
    def test_sampler_matches_exact_mse(self, sigma_het_sq):
        # From the small-noise regime, through the paper-like point where
        # the exact MSE is 1.37 sigma_het_sq, to sigma_het_sq > 1 where it
        # falls below sigma_het_sq on its way to pi^2 / 3.
        mse, stderr = sample_heterodyne_mse(sigma_het_sq, 0.7, 200_000, 42)
        assert abs(mse - _exact_arctan_mse(sigma_het_sq)) <= 3.0 * stderr

    def test_underflowing_budget_refused_as_no_signal(self):
        # At epsilon = 5e-324 the budget is nbar_s = 5e-324, which the
        # heterodyne scale 2 eta nbar_s underflows.
        with pytest.raises(DomainError, match="^no signal to normalize by"):
            simulate_heterodyne_mse(
                SensingScenario(0.5, 0.5, 0.2, 0.2), 0.3, 5e-324, 1, 1000, 1
            )

    def test_simulation_is_the_sampler_at_the_budget_variance(self):
        budget = covert_budget(REFERENCE, 0.01, 1e6 + 0.5)
        stats = heterodyne_stats(REFERENCE, 0.5, budget.nbar_s, 1e6)
        assert simulate_heterodyne_mse(
            REFERENCE, 0.5, 0.01, 1e6 + 0.5, 2000, 7, workers=2
        ) == sample_heterodyne_mse(stats.sigma_het_sq, 0.5, 2000, 7)


class TestBaselines:
    def test_heterodyne_penalty_bracket(self):
        # c_coh <= c_het <= 2 c_coh, at equal and unequal baths, where the
        # coherent pair is the thermal one.  The one-mode model of the
        # effective channel gave mu_c = 41.1 at the last point.
        for taps_and_baths in [
            (0.1, 1.0, 0.05, 0.05),
            (0.5, 0.5, 1.0, 1.0),
            (0.725692, 0.93492, 9.4718, 0.00151545),
        ]:
            scenario = SensingScenario(*taps_and_baths)
            report = estimation_report(scenario, 1e-3, 1e6, 1e6)
            coherent = (report.c_coh, report.c_het, report.mu_c)
            assert coherent == (report.c_ase, report.c_het_tilde, 1.0)
            assert report.c_coh <= report.c_het <= 2.0 * report.c_coh


class TestReport:
    def test_fields_are_mutually_consistent(self):
        eps, n, nlo = 1e-3, 1e6, 1e6
        report = estimation_report(REFERENCE, eps, n, nlo)
        assert report.c_ase == pytest.approx(0.8385254915621441, rel=1e-12)
        assert report.qcrb == pytest.approx(report.c_ase / (eps * math.sqrt(n)), rel=1e-12)
        assert report.mse_het == pytest.approx(
            report.c_het_tilde / (eps * math.sqrt(n)), rel=1e-12
        )
        assert report.f_a_prime <= report.f_a * (1.0 + 1e-12)
        # The coherent probe shares the budget's c2, so its coefficients
        # are the thermal probe's and the comparison is the bandwidths'.
        assert (report.c_coh, report.c_het) == (report.c_ase, report.c_het_tilde)
        assert report.mu_c == 1.0
        assert report.mu_w == pytest.approx(1000.0, rel=1e-12)
        assert report.mu == pytest.approx(math.sqrt(3e9 / 3e12), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs,cause",
        [
            (dict(w_ase=0.0), "bandwidths"),
            (dict(w_coh=math.inf), "bandwidths"),
            (dict(integration_time=-1.0), "integration time"),
            pytest.param(
                dict(w_ase=1e300, integration_time=1e10),
                r"time-bandwidth product W_ase\*T overflows \(W_ase = 1e\+300 Hz",
                id="kwargs3-W_ase*T",
            ),
        ],
    )
    def test_operating_point_refused_before_budget(self, kwargs, cause):
        # An identity channel alone is refused by the budget's Taylor run;
        # a bad operating point is named first.
        identity = SensingScenario(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=cause):
            estimation_report(identity, 1e-3, 1e6, 1e6, **kwargs)

    def test_bound_ordering(self):
        report = estimation_report(REFERENCE, 1e-3, 1e6, 1e6)
        # The achievable heterodyne MSE can never beat the quantum bound.
        assert report.mse_het >= report.qcrb
