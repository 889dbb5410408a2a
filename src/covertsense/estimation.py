"""Phase estimation with the split thermal probe.

Alice keeps the reference half of the two-mode source and interferes it
with whatever comes back from the channel; everything in this module
quantifies how well she can read the channel phase ``theta`` under the
covertness constraint on her signal occupancy.

Contents:

* Uhlmann fidelity of two-mode zero-mean Gaussian states from the three
  symplectic invariants of the pair.
* Quantum Fisher information for ``theta``: closed forms at finite
  reference occupancy and in the bright-reference limit, plus an
  independent numeric route through the fidelity curvature.
* Mean-square-error bound coefficients (all in rad^2): the quantum bound
  coefficient ``c_ase`` of the thermal probe, the heterodyne coefficient
  ``c_het_tilde``, and the coherent-probe baseline pair
  ``(c_het, c_coh)``.
* Normalized heterodyne statistics in the bright-reference limit, a
  finite-reference validation path, and a Monte-Carlo simulation of the
  two-quadrature arctangent estimator.
* Source-comparison ratios ``mu_c``, ``mu_w``, ``mu`` between the
  thermal probe and a coherent probe at matched covertness.

The bright-reference heterodyne outcome, averaged over ``n`` modes and
normalized to unit signal amplitude, is a pair of Gaussian variables
with means ``(cos theta, sin theta)`` and per-mode variance

    sigma^2 = (1 + (1 - eta_eff) nbar_b_eff) / (2 eta_eff nbar_s),

so the averaged noise has variance ``sigma^2 / n``.  At the covert
budget this equals ``c_het_tilde / (eps sqrt(n))``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .covertness import channel_uses, check_epsilon, covert_budget, taylor_c2
from .errors import DomainError, NumericalInstabilityError
from .gaussian import CovarianceMatrix, symplectic_form
from .scenario import ProbeSettings, SensingScenario, alice_cm, check_occupancy

__all__ = [
    "RNG_ALGORITHM",
    "HeterodyneStats",
    "EstimationReport",
    "gaussian_fidelity",
    "qfi_closed",
    "qfi_numeric",
    "qcrb_ase",
    "ase_heterodyne_coefficient",
    "heterodyne_stats",
    "finite_lo_heterodyne_variances",
    "simulate_heterodyne_mse",
    "coherent_baseline",
    "source_comparison",
    "estimation_report",
]

#: Counter-based generator used by the Monte-Carlo estimator; recorded in
#: CLI output metadata so runs can be reproduced elsewhere.
RNG_ALGORITHM = "philox4x64-10"

#: Trials per accumulation block in the Monte-Carlo estimator.  Partial
#: sums are formed per block and combined in block order, so the result
#: is independent of how blocks are scheduled across workers.
_BLOCK_TRIALS = 4096

#: Cap on the number of scalar uniforms materialized at once by the
#: per-sample (slow) Monte-Carlo mode.
_SLOW_MODE_CHUNK = 50_000_000


@dataclass(frozen=True)
class HeterodyneStats:
    """Normalized dual-quadrature statistics in the bright-reference limit.

    ``mu1, mu2`` are the normalized outcome means ``(cos theta,
    sin theta)``; ``sigma_sq`` is the per-mode noise variance of either
    quadrature, ``sigma1_sq = sigma_sq + mu1^2`` and ``sigma2_sq =
    sigma_sq + mu2^2`` are the raw second moments, and ``sigma_het_sq =
    sigma_sq / n`` is the variance left after averaging ``n`` modes.
    Algebraically ``sigma1_sq + sigma2_sq = 2 sigma_sq + 1`` and
    ``mu1^2 + mu2^2 = 1``.
    """

    mu1: float
    mu2: float
    sigma_sq: float
    sigma1_sq: float
    sigma2_sq: float
    sigma_het_sq: float


@dataclass(frozen=True)
class EstimationReport:
    """Bound coefficients and comparison ratios for one scenario.

    ``qcrb = c_ase / (eps sqrt(n))`` and ``mse_bound`` is its alias as
    the final MSE lower bound; ``mse_het = c_het_tilde / (eps sqrt(n))``
    is what the heterodyne estimator actually reaches at the budget.
    """

    f_a: float
    f_a_prime: float
    c_ase: float
    c_het_tilde: float
    c_coh: float
    c_het: float
    qcrb: float
    mse_het: float
    mu: float
    mu_c: float
    mu_w: float
    mse_bound: float


def _det(matrix: np.ndarray) -> float:
    value = np.linalg.det(matrix)
    return float(np.real(value))


def gaussian_fidelity(cm_a: CovarianceMatrix, cm_b: CovarianceMatrix) -> float:
    """Uhlmann fidelity of two zero-mean two-mode Gaussian states.

    Uses the invariant form

        F = 1 / sqrt(w - sqrt(w^2 - Delta)),   w = sqrt(Gamma) + sqrt(Lambda),

    evaluated as sqrt((w + sqrt(w^2 - Delta)) / Delta), with
    Delta = det(Va + Vb), Gamma = 16 det(Omega Va Omega Vb - I/4)
    and Lambda = 16 det(Va + i Omega/2) det(Vb + i Omega/2).  Tiny
    negative radicands (rounding noise) are clamped to zero; radicands
    negative beyond rounding level raise NumericalInstabilityError since
    they indicate an unphysical input slipping past the physicality
    check.
    """
    if cm_a.num_modes != 2 or cm_b.num_modes != 2:
        raise ValueError("fidelity is implemented for two-mode states")
    cm_a.require_physical()
    cm_b.require_physical()
    va = cm_a.matrix
    vb = cm_b.matrix
    omega = symplectic_form(2)
    eye = np.eye(4)

    delta = _det(va + vb)
    gamma = 16.0 * _det(omega @ va @ omega @ vb - 0.25 * eye)
    lam = 16.0 * _det(va + 0.5j * omega) * _det(vb + 0.5j * omega)

    scale = max(1.0, abs(delta), abs(gamma), abs(lam))

    def _safe_sqrt(value: float, label: str) -> float:
        if value < -1e-10 * scale:
            raise NumericalInstabilityError(
                f"negative radicand in fidelity invariant {label}: {value!r}"
            )
        return math.sqrt(max(value, 0.0))

    w = _safe_sqrt(gamma, "Gamma") + _safe_sqrt(lam, "Lambda")
    inner = _safe_sqrt(w * w - delta, "w^2 - Delta")
    if delta <= 0.0:
        raise NumericalInstabilityError(
            f"fidelity invariant Delta = {delta!r} is not positive"
        )
    # 1/sqrt(w - inner) in the cancellation-free form sqrt((w + inner)/Delta):
    # near F = 1 the direct difference loses ~w^2/Delta digits, which is what
    # limits the finite-difference Fisher-information route at bright
    # reference occupancies.
    fidelity = math.sqrt((w + inner) / delta)
    return min(fidelity, 1.0)


def qfi_closed(
    scenario: SensingScenario, nbar_s: float, nbar_lo: float
) -> tuple[float, float]:
    """Quantum Fisher information for the channel phase, closed forms.

    Returns ``(f_a_prime, f_a)``: the finite-reference value

        F_A' = 4 nbar_lo nbar_s eta / (nbar_lo + (1-eta) b (1+2 nbar_lo)
                                        + eta nbar_s)

    and its bright-reference limit ``F_A = 4 nbar_s eta / (1 + 2 b
    (1-eta))``, with ``eta = eta_eff`` and ``b = nbar_b_eff``.  Both
    vanish at ``nbar_s = 0``.
    """
    check_occupancy("nbar_s", nbar_s)
    check_occupancy("nbar_lo", nbar_lo)
    eta = scenario.eta_eff
    b = scenario.nbar_b_eff
    f_a = 4.0 * nbar_s * eta / (1.0 + 2.0 * b * (1.0 - eta))
    denom = nbar_lo + (1.0 - eta) * b * (1.0 + 2.0 * nbar_lo) + eta * nbar_s
    f_a_prime = 0.0 if nbar_lo == 0.0 else 4.0 * nbar_lo * nbar_s * eta / denom
    return f_a_prime, f_a


def qfi_numeric(
    scenario: SensingScenario, probe: ProbeSettings, *, step: float = 1e-3
) -> float:
    """Fisher information from the curvature of the fidelity curve.

    Evaluates ``F(omega) = fidelity(V(theta), V(theta + omega))`` on a
    central stencil of width ``step`` (radians) plus one Richardson
    level, and returns ``-4 F''(0)``.  Independent of ``probe.theta``
    because the probe state is phase-covariant.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    base = alice_cm(scenario, probe)

    def fid(omega: float) -> float:
        shifted = ProbeSettings(probe.nbar_s, probe.nbar_lo, probe.theta + omega)
        return gaussian_fidelity(base, alice_cm(scenario, shifted))

    f0 = fid(0.0)

    def second_diff(h: float) -> float:
        return (fid(h) - 2.0 * f0 + fid(-h)) / (h * h)

    coarse = second_diff(2.0 * step)
    fine = second_diff(step)
    curvature = (4.0 * fine - coarse) / 3.0
    return -4.0 * curvature


def qcrb_ase(
    scenario: SensingScenario, epsilon: float, num_modes: float
) -> tuple[float, float]:
    """Quantum MSE bound for the covert thermal probe.

    Returns ``(c_ase, bound)`` with

        c_ase = (1 + 2 nbar_b_eff (1 - eta_eff)) sqrt(c2) / (16 eta_eff)

    and ``bound = c_ase / (eps sqrt(n))``, ``n = floor(num_modes)``.
    The quadratic covertness coefficient ``c2`` comes from
    :func:`covertsense.covertness.taylor_c2`, so a channel with no
    leakage propagates DegenerateCovertnessError.
    """
    check_epsilon(epsilon)
    n = channel_uses(num_modes)
    eta = scenario.eta_eff
    b = scenario.nbar_b_eff
    c2 = taylor_c2(scenario)
    c_ase = (1.0 + 2.0 * b * (1.0 - eta)) * math.sqrt(c2) / (16.0 * eta)
    return c_ase, c_ase / (epsilon * math.sqrt(n))


def ase_heterodyne_coefficient(scenario: SensingScenario) -> float:
    """Heterodyne MSE coefficient c_het_tilde of the covert thermal probe.

    c_het_tilde = (1 + nbar_b_eff (1 - eta_eff)) sqrt(c2) / (8 eta_eff);
    at the covert budget the averaged heterodyne noise variance equals
    c_het_tilde / (eps sqrt(n)).  Always within a factor of two of the
    quantum coefficient: c_ase <= c_het_tilde <= 2 c_ase.
    """
    eta = scenario.eta_eff
    b = scenario.nbar_b_eff
    c2 = taylor_c2(scenario)
    return (1.0 + b * (1.0 - eta)) * math.sqrt(c2) / (8.0 * eta)


def heterodyne_stats(
    scenario: SensingScenario, theta: float, nbar_s: float, num_modes: float
) -> HeterodyneStats:
    """Normalized heterodyne moments in the bright-reference limit.

    Requires a positive signal occupancy (there is no outcome scale to
    normalize by otherwise) and a channel that transmits something.
    """
    if nbar_s <= 0.0:
        raise DomainError(f"no signal to normalize by: nbar_s = {nbar_s}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    n = channel_uses(num_modes)
    eta = scenario.eta_eff
    b = scenario.nbar_b_eff
    if eta == 0.0:
        raise DomainError("fully opaque channel: nothing returns to Alice")
    sigma_sq = (1.0 + (1.0 - eta) * b) / (2.0 * eta * nbar_s)
    mu1 = math.cos(theta)
    mu2 = math.sin(theta)
    return HeterodyneStats(
        mu1=mu1,
        mu2=mu2,
        sigma_sq=sigma_sq,
        sigma1_sq=sigma_sq + mu1 * mu1,
        sigma2_sq=sigma_sq + mu2 * mu2,
        sigma_het_sq=sigma_sq / n,
    )


def finite_lo_heterodyne_variances(
    scenario: SensingScenario,
    theta: float,
    nbar_s: float,
    nbar_lo: float,
    *,
    min_lo: float = 1e4,
) -> tuple[float, float]:
    """Finite-reference quadrature second moments (validation path).

    Normalized raw second moments before the bright-reference limit:

        sigma1^2 = (nbar_lo + b (1 + nbar_lo) + eta nbar_s)
                   / (2 eta nbar_s nbar_lo) + cos^2 theta

    and likewise with ``sin^2 theta``, where ``b = (1 - eta) nbar_b_eff``
    absorbs the factor already.  Converges to the limit forms at rate
    O(1/nbar_lo); only admitted for ``nbar_lo >= min_lo`` because the
    expressions are meant to validate that convergence, not to model a
    dim reference.
    """
    if nbar_s <= 0.0:
        raise DomainError(f"no signal to normalize by: nbar_s = {nbar_s}")
    if nbar_lo < min_lo:
        raise DomainError(
            f"finite-reference validation path needs nbar_lo >= {min_lo:g}, "
            f"got {nbar_lo:g}"
        )
    eta = scenario.eta_eff
    if eta == 0.0:
        raise DomainError("fully opaque channel: nothing returns to Alice")
    b = (1.0 - eta) * scenario.nbar_b_eff
    base = 0.5 * (nbar_lo + b * (1.0 + nbar_lo) + eta * nbar_s) / (
        eta * nbar_s * nbar_lo
    )
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    return base + cos_t * cos_t, base + sin_t * sin_t


def _wrap_array(diff: np.ndarray) -> np.ndarray:
    """Wrap angle differences into (-pi, pi], vectorized."""
    reduced = np.remainder(diff, 2.0 * np.pi)
    return reduced - 2.0 * np.pi * (reduced > np.pi)


def _normal_pairs(gen: np.random.Generator, shape: tuple[int, ...]) -> tuple[
    np.ndarray, np.ndarray
]:
    """Two standard-normal arrays of the given shape, two uniforms per pair.

    Box-Muller on exactly two uniform doubles per output pair keeps the
    counter consumption fixed, which is what makes per-trial stream
    addressing (and hence worker-count independence) possible; the
    ziggurat sampler consumes a variable number of draws and cannot be
    addressed this way.
    """
    uniforms = gen.random(shape + (2,))
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[..., 0]))
    angle = (2.0 * np.pi) * uniforms[..., 1]
    return radius * np.cos(angle), radius * np.sin(angle)


def _thread_count(requested: int, num_blocks: int) -> int:
    """Threads worth starting: no more than requested, cores or blocks."""
    return max(1, min(requested, os.cpu_count() or 1, num_blocks))


def simulate_heterodyne_mse(
    scenario: SensingScenario,
    theta_true: float,
    epsilon: float,
    num_modes: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    per_sample: bool = False,
) -> tuple[float, float]:
    """Monte-Carlo MSE of the arctangent estimator at the covert budget.

    Each trial draws the two averaged quadratures ``I = cos theta + Z_I``
    and ``Q = sin theta + Z_Q`` with ``Z ~ Normal(0, sigma_het_sq)``,
    forms ``theta_hat = atan2(Q, I)``, and accumulates the squared
    angular difference to ``theta_true`` wrapped into (-pi, pi].
    Returns the sample mean and its standard error.

    ``per_sample=True`` switches to the slow validation mode that draws
    all ``n`` per-mode outcomes at per-mode variance ``sigma_sq`` and
    averages them — statistically identical (Gaussian averages are
    Gaussian) and O(n) more work, so only sensible for small ``n``.

    Reproducibility: trial ``t`` owns a fixed slice of the counter
    stream of Philox (``philox4x64-10``) keyed by ``seed`` — uniforms
    ``[2t, 2t+2)`` in fast mode, ``[2nt, 2n(t+1))`` in per-sample mode —
    so the draw for a trial depends only on ``(seed, t)``.  One Philox
    counter step yields four 64-bit uniforms, and every block boundary
    falls on a whole counter step, so blocks address the stream with
    ``advance``.  Trials are processed in blocks of 4096; block partial
    sums are combined in block order regardless of ``workers``, making
    output bits independent of the worker count.  At most
    ``min(workers, os.cpu_count(), blocks)`` threads are started.
    """
    trials = int(trials)
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a stable MSE, got {trials}")
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be a non-negative integer below 2**128")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = channel_uses(num_modes)
    budget = covert_budget(scenario, epsilon, n)
    stats = heterodyne_stats(scenario, theta_true, budget.nbar_s, n)

    mu1 = stats.mu1
    mu2 = stats.mu2
    sigma_avg = math.sqrt(stats.sigma_het_sq)
    sigma_shot = math.sqrt(stats.sigma_sq)
    uniforms_per_trial = 2 * n if per_sample else 2

    def run_block(index: int) -> tuple[float, float]:
        start = index * _BLOCK_TRIALS
        count = min(_BLOCK_TRIALS, trials - start)
        offset_uniforms = start * uniforms_per_trial
        # Philox.advance counts 4-uniform counter steps, not single draws.
        assert offset_uniforms % 4 == 0
        bit_gen = np.random.Philox(key=seed)
        bit_gen.advance(offset_uniforms // 4)
        gen = np.random.Generator(bit_gen)
        if per_sample:
            chunk = max(1, _SLOW_MODE_CHUNK // (2 * n))
            sq_parts = []
            done = 0
            while done < count:
                take = min(chunk, count - done)
                z_i, z_q = _normal_pairs(gen, (take, n))
                comp_i = mu1 + sigma_shot * z_i.mean(axis=1)
                comp_q = mu2 + sigma_shot * z_q.mean(axis=1)
                delta = _wrap_array(np.arctan2(comp_q, comp_i) - theta_true)
                sq_parts.append(delta * delta)
                done += take
            squared = np.concatenate(sq_parts)
        else:
            z_i, z_q = _normal_pairs(gen, (count,))
            comp_i = mu1 + sigma_avg * z_i
            comp_q = mu2 + sigma_avg * z_q
            delta = _wrap_array(np.arctan2(comp_q, comp_i) - theta_true)
            squared = delta * delta
        return float(np.sum(squared)), float(np.sum(squared * squared))

    num_blocks = -(-trials // _BLOCK_TRIALS)
    workers = _thread_count(workers, num_blocks)
    if workers == 1:
        partials = [run_block(i) for i in range(num_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_block, range(num_blocks)))

    sum_sq = 0.0
    sum_quad = 0.0
    for part_sq, part_quad in partials:
        sum_sq += part_sq
        sum_quad += part_quad

    mse = sum_sq / trials
    variance = (sum_quad - sum_sq * sum_sq / trials) / (trials - 1)
    stderr = math.sqrt(max(variance, 0.0) / trials)
    return mse, stderr


def _coherent_coefficients(eta: float, nbar_b: float) -> tuple[float, float]:
    """(c_het, c_coh) for a coherent probe through the effective channel."""
    if not 0.0 < eta < 1.0 or nbar_b <= 0.0:
        raise DomainError(
            "coherent baseline needs 0 < eta_eff < 1 and nbar_b_eff > 0 "
            f"(got eta_eff = {eta}, nbar_b_eff = {nbar_b}): the probe is "
            "either undetectable or trivially detectable"
        )
    root = math.sqrt(eta * nbar_b * (1.0 + eta * nbar_b))
    c_het = (1.0 - eta) * (1.0 + nbar_b * (1.0 - eta)) / (8.0 * eta * root)
    c_coh = (1.0 - eta) * (1.0 + 2.0 * nbar_b * (1.0 - eta)) / (16.0 * eta * root)
    return c_het, c_coh


def coherent_baseline(
    eta_eff: float, nbar_b_eff: float, epsilon: float, num_modes: float
) -> tuple[float, float, float]:
    """Covert budget and MSE coefficients for a coherent-state probe.

    Returns ``(nbar_s, c_het, c_coh)``:

        nbar_s = 4 eps sqrt(eta b (1 + eta b)) / (sqrt(n) (1 - eta))
        c_het  = (1-eta) (1 + b (1-eta)) / (8 eta sqrt(eta b (1 + eta b)))
        c_coh  = (1-eta) (1 + 2 b (1-eta)) / (16 eta sqrt(eta b (1 + eta b)))

    with ``(eta, b) = (eta_eff, nbar_b_eff)``.  ``c_het`` is what dual-
    quadrature detection reaches, ``c_coh`` what the optimal receiver
    reaches; ``c_coh <= c_het <= 2 c_coh`` always.
    """
    check_epsilon(epsilon)
    n = channel_uses(num_modes)
    c_het, c_coh = _coherent_coefficients(eta_eff, nbar_b_eff)
    root = math.sqrt(eta_eff * nbar_b_eff * (1.0 + eta_eff * nbar_b_eff))
    nbar_s = 4.0 * epsilon * root / (math.sqrt(n) * (1.0 - eta_eff))
    return nbar_s, c_het, c_coh


def source_comparison(
    scenario: SensingScenario,
    w_ase: float,
    w_coh: float,
    integration_time: float,
    epsilon: float,
) -> tuple[float, float, float]:
    """Bound ratio between the thermal probe and a coherent probe.

    Returns ``(mu, mu_c, mu_w)`` where ``mu_c = c_ase / c_coh`` compares
    the per-mode coefficients, ``mu_w = w_ase / w_coh`` the usable
    bandwidths, and ``mu = mu_c / sqrt(mu_w)`` the resulting MSE-bound
    ratio at equal covertness ``epsilon`` and integration time: both
    cancel from the ratio, and are validated here only so the comparison
    is stated at an actual operating point.  ``mu < 1`` (thermal probe
    wins) exactly when ``mu_c < sqrt(mu_w)``.
    """
    if not (0.0 < w_ase < math.inf and 0.0 < w_coh < math.inf):
        raise ValueError(
            f"bandwidths must be positive and finite, got {w_ase} and {w_coh}"
        )
    if not 0.0 < integration_time < math.inf:
        raise ValueError(
            f"integration time must be positive and finite, got {integration_time}"
        )
    check_epsilon(epsilon)
    c_ase, _ = qcrb_ase(scenario, epsilon, max(1.0, w_ase * integration_time))
    _, c_coh = _coherent_coefficients(scenario.eta_eff, scenario.nbar_b_eff)
    mu_c = c_ase / c_coh
    mu_w = w_ase / w_coh
    return mu_c / math.sqrt(mu_w), mu_c, mu_w


def estimation_report(
    scenario: SensingScenario,
    epsilon: float,
    num_modes: float,
    nbar_lo: float,
    *,
    w_ase: float = 3e12,
    w_coh: float = 3e9,
    integration_time: float = 1e-3,
) -> EstimationReport:
    """All bound coefficients and ratios at the covert operating point.

    The signal occupancy is the covert budget for ``(epsilon, n)``; the
    Fisher information pair is evaluated there at reference occupancy
    ``nbar_lo``.  ``mse_bound`` equals ``qcrb``: it is the same quantity
    under its report name.
    """
    n = channel_uses(num_modes)
    budget = covert_budget(scenario, epsilon, n)
    f_a_prime, f_a = qfi_closed(scenario, budget.nbar_s, nbar_lo)
    c_ase, bound = qcrb_ase(scenario, epsilon, n)
    c_het_tilde = ase_heterodyne_coefficient(scenario)
    c_het, c_coh = _coherent_coefficients(scenario.eta_eff, scenario.nbar_b_eff)
    mu, mu_c, mu_w = source_comparison(
        scenario, w_ase, w_coh, integration_time, epsilon
    )
    root_n = math.sqrt(n)
    return EstimationReport(
        f_a=f_a,
        f_a_prime=f_a_prime,
        c_ase=c_ase,
        c_het_tilde=c_het_tilde,
        c_coh=c_coh,
        c_het=c_het,
        qcrb=bound,
        mse_het=c_het_tilde / (epsilon * root_n),
        mu=mu,
        mu_c=mu_c,
        mu_w=mu_w,
        mse_bound=bound,
    )
