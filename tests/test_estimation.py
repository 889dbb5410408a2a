"""Fidelity, Fisher information, and heterodyne estimation statistics."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import _exact_arctan_mse

from covertsense import estimation
from covertsense.covertness import covert_budget, taylor_coefficients
from covertsense.errors import DomainError
from covertsense.estimation import (
    RNG_ALGORITHM,
    ase_heterodyne_coefficient,
    coherent_baseline,
    estimation_report,
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
REFERENCE_C2 = taylor_coefficients(REFERENCE).c2

occupancies = st.floats(0.0, 3.0)
angles = st.floats(-math.pi, math.pi)

#: Three whole strips of four 4096-trial blocks, then one partial block.
THREE_STRIPS_AND_A_BLOCK = 3 * 4 * 4096 + 1000


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
            ase_heterodyne_coefficient(REFERENCE, budget.c2), rel=1e-6
        )

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            heterodyne_stats(REFERENCE, 0.3, 0.0, 1.0)


def _reference_mse(scenario, theta_true, epsilon, num_modes, trials, seed, kernel):
    """The block-per-task estimator, run serially with out-of-place ufuncs.

    One Philox generator per 4096-trial block; block sums are folded in
    order.  ``kernel`` names the per-trial error:

    * ``"rotated"``: fast mode's error in the frame of the true phase,
      atan2(2 s t, (1 + t^2) + s (1 - t^2)) with s = sigma r and
      t = tan(pi u1 - theta / 2), theta reduced modulo 2 pi first.  The
      strip driver must match its bits.
    * ``"cos-sin"``: fast mode as it was before that kernel, I and Q from
      cos and sin, then atan2(Q, I) - theta wrapped by ``np.remainder``.
    * ``"per-sample"``: n cos/sin Box-Muller shots per trial, averaged,
      then as ``"cos-sin"``.  The per-sample driver must match its bits.
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
    mu1 = stats.mu1
    mu2 = stats.mu2
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
            z_i, z_q = normal_pairs(gen.random((count, n, 2)))
            comp_i = mu1 + sigma_shot * z_i.mean(axis=1)
            comp_q = mu2 + sigma_shot * z_q.mean(axis=1)
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
    sum_sq = 0.0
    sum_quad = 0.0
    for part_sq, part_quad in partials:
        sum_sq += part_sq
        sum_quad += part_quad
    mse = sum_sq / trials
    variance = (sum_quad - sum_sq * sum_sq / trials) / (trials - 1)
    stderr = math.sqrt(max(variance, 0.0) / trials)
    return mse, stderr


class TestStrips:
    @pytest.mark.parametrize("per_sample", [False, True], ids=["fast", "per-sample"])
    @pytest.mark.parametrize("theta", [0.0, math.pi, -math.pi, 3.0, 7.0, -10.0])
    def test_bits_match_block_reference(self, theta, per_sample):
        # Per-sample mode at n = 4 keeps the slow path cheap; both points
        # are noisy enough that errors cross the wrap at theta near pi.
        epsilon, num_modes = (0.05, 4.0) if per_sample else (0.01, 1e6)
        for trials in (1000, 4096, 16384, 16385, 50_001):
            want = _reference_mse(
                REFERENCE, theta, epsilon, num_modes, trials, 29,
                "per-sample" if per_sample else "rotated",
            )
            for workers in (1, 3):
                got = simulate_heterodyne_mse(
                    REFERENCE, theta, epsilon, num_modes, trials, 29,
                    workers=workers, per_sample=per_sample,
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

    def test_in_flight_strips_bounded(self, monkeypatch):
        # Two workers keep at most four strips submitted and unfinished,
        # however many strips the run has.
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 4)
        submitted = []
        unfinished = []
        real_submit = ThreadPoolExecutor.submit

        def counting_submit(pool, fn, *args, **kwargs):
            future = real_submit(pool, fn, *args, **kwargs)
            submitted.append(future)
            unfinished.append(sum(not f.done() for f in submitted))
            return future

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
        strips = 40
        simulate_heterodyne_mse(
            REFERENCE, 0.5, 0.01, 1e6, trials=strips * 4 * 4096, seed=3, workers=2
        )
        assert len(submitted) == strips
        assert max(unfinished) <= 2 * 2


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
    @pytest.mark.parametrize("num_modes", [1.0, 2.0, 10.0])
    def test_per_sample_agrees_with_fast_mode(self, num_modes):
        # Per-sample mode keeps the cos/sin Box-Muller on n shots per
        # trial, a route independent of the rotated kernel.
        kwargs = dict(
            theta_true=2.5, epsilon=0.3, num_modes=num_modes, trials=50_001,
            seed=37,
        )
        fast = simulate_heterodyne_mse(REFERENCE, **kwargs)
        slow = simulate_heterodyne_mse(REFERENCE, per_sample=True, **kwargs)
        assert abs(fast[0] - slow[0]) <= 3.0 * math.hypot(fast[1], slow[1])


class TestSimulation:
    def test_rng_algorithm_pinned(self):
        assert RNG_ALGORITHM == "philox4x64-10"

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

    def test_per_sample_memory_cap(self):
        # One trial at n = 1e8 would hold 4 n values, 3.2 GB; at n = 2e7 it
        # would hold 640 MB.  Both runs are refused before anything is drawn.
        for num_modes in (1e8, 2e7):
            with pytest.raises(ValueError, match="cap of 50000000 .*n <= 12500000"):
                simulate_heterodyne_mse(
                    REFERENCE, 0.5, 0.01, num_modes, trials=1000, seed=1,
                    per_sample=True,
                )

    @pytest.mark.parametrize("num_modes", [1000.0, 5000.0])
    def test_per_sample_chunk_stays_under_cap(self, monkeypatch, num_modes):
        # The cap holds for a chunk's whole working set, not only for its
        # uniforms: scaled down to 2e6 values (16 MB), chunks of 500 and of
        # 100 trials fill it.
        kwargs = dict(
            theta_true=0.5, epsilon=0.3, num_modes=num_modes, trials=1000, seed=3,
            per_sample=True,
        )
        # One chunk per strip at the shipped cap; also imports outside the trace.
        want = simulate_heterodyne_mse(REFERENCE, **kwargs)
        cap = 2_000_000
        monkeypatch.setattr(estimation, "_SLOW_MODE_CHUNK", cap)
        tracemalloc.start()
        try:
            got = simulate_heterodyne_mse(REFERENCE, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 8 * cap
        assert got == want

    def test_per_sample_cap_holds_across_threads(self, monkeypatch):
        # Two workers on two cores share the cap (scaled down to 2e6 values,
        # 16 MB) instead of holding one cap each, and give the 1-worker bits.
        kwargs = dict(
            theta_true=0.5, epsilon=0.3, num_modes=1000.0, trials=3 * 4096,
            seed=3, per_sample=True,
        )
        cap = 2_000_000
        monkeypatch.setattr(estimation, "_SLOW_MODE_CHUNK", cap)
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 2)
        want = simulate_heterodyne_mse(REFERENCE, **kwargs)
        tracemalloc.start()
        try:
            got = simulate_heterodyne_mse(REFERENCE, workers=2, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * 8 * cap
        assert got == want

    def test_per_sample_threads_clamped_to_whole_trials(self, monkeypatch):
        # A cap that holds one trial of 4 n values runs one thread.
        kwargs = dict(
            theta_true=0.5, epsilon=0.3, num_modes=1000.0, trials=2 * 4096,
            seed=3, per_sample=True,
        )
        want = simulate_heterodyne_mse(REFERENCE, **kwargs)
        monkeypatch.setattr(estimation, "_SLOW_MODE_CHUNK", 4000)
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 2)
        threads = []
        in_order = estimation._in_order

        def recording(task, count, workers):
            threads.append(workers)
            return in_order(task, count, workers)

        monkeypatch.setattr(estimation, "_in_order", recording)
        assert simulate_heterodyne_mse(REFERENCE, workers=2, **kwargs) == want
        assert threads == [1]

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

    def test_budget_passed_in_gives_same_bits(self, monkeypatch):
        kwargs = dict(theta_true=0.5, epsilon=0.01, num_modes=1e6, trials=2000)
        built = simulate_heterodyne_mse(REFERENCE, seed=7, **kwargs)
        budget = covert_budget(REFERENCE, 0.01, 1e6)

        def refuse(*args):
            raise AssertionError("budget computed again")

        monkeypatch.setattr(estimation, "covert_budget", refuse)
        given_budget = simulate_heterodyne_mse(
            REFERENCE, seed=7, budget=budget, **kwargs
        )
        assert given_budget == built

    @pytest.mark.parametrize(
        "epsilon,num_modes", [(0.02, 1e6), (0.01, 2e6), (math.nan, 1e6)]
    )
    def test_mismatched_budget_refused(self, epsilon, num_modes):
        budget = covert_budget(REFERENCE, 0.01, 1e6)
        with pytest.raises(ValueError, match="budget was built for epsilon = 0.01"):
            simulate_heterodyne_mse(
                REFERENCE, 0.5, epsilon, num_modes, trials=1000, seed=1,
                budget=budget,
            )

    def test_budget_for_floored_mode_count_accepted(self):
        # The budget records n = floor(num_modes), as the run does.
        budget = covert_budget(REFERENCE, 0.01, 1e6 + 0.5)
        assert simulate_heterodyne_mse(
            REFERENCE, 0.5, 0.01, 1e6 + 0.5, trials=1000, seed=1, budget=budget
        ) == simulate_heterodyne_mse(REFERENCE, 0.5, 0.01, 1e6, trials=1000, seed=1)


class TestBaselines:
    def test_coherent_baseline_golden(self):
        ns, c_het, c_coh = coherent_baseline(0.25, 1.0, 1e-3, 1e6)
        assert ns == pytest.approx(2.98142397e-06, rel=1e-9)
        assert c_het == pytest.approx(1.1739356881873895, rel=1e-12)
        assert c_coh == pytest.approx(0.8385254915624211, rel=1e-12)

    def test_coherent_baseline_overflow_refused(self):
        # eta b (1 + eta b) overflows: c_coh would read 0 and mu_c divide by it.
        with pytest.raises(DomainError, match="coherent baseline overflows"):
            coherent_baseline(0.25, 1e308, 1e-3, 1e6)

    def test_heterodyne_penalty_bracket(self):
        # c_coh <= c_het <= 2 c_coh for any equal-bath scenario.
        for eta, nb in [(0.1, 0.05), (0.5, 1.0), (0.9, 8.0)]:
            _, c_het, c_coh = coherent_baseline(eta, nb, 1e-3, 1e6)
            assert c_coh <= c_het <= 2.0 * c_coh + 1e-12

    def test_source_comparison_golden(self):
        c_ase = qcrb_ase(REFERENCE, REFERENCE_C2)
        mu, mu_c, mu_w = source_comparison(REFERENCE, c_ase, 3e12, 3e9)
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
        assert report.f_a_prime <= report.f_a * (1.0 + 1e-12)
        # Numeric and closed-form heterodyne coefficients are independent
        # routes to the same number.
        assert report.c_het_tilde == pytest.approx(report.c_het, rel=1e-9)
        assert report.mu_w == pytest.approx(1000.0, rel=1e-12)
        assert report.mu_c == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs,cause",
        [
            (dict(w_ase=0.0), "bandwidths"),
            (dict(w_coh=math.inf), "bandwidths"),
            (dict(integration_time=-1.0), "integration time"),
            (dict(w_ase=1e300, integration_time=1e10), "channel uses"),
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
