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
* Normalized heterodyne statistics in the bright-reference limit and a
  Monte-Carlo simulation of the two-quadrature arctangent estimator.
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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .covertness import CovertBudget, channel_uses, covert_budget
from .errors import DomainError, NumericalInstabilityError
from .scenario import (
    ProbeSettings,
    SensingScenario,
    alice_cm,
    check_occupancy,
    check_positive,
)

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator
    from typing import TypeVar

    import numpy as np

    from .gaussian import CovarianceMatrix

    _T = TypeVar("_T")

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

#: Blocks per strip in fast mode.  A strip draws from one generator, runs
#: one vectorized kernel and is one thread-pool task; per-sample mode runs
#: one block per task.
_STRIP_BLOCKS = 4

#: Cap on the float64 values the per-sample (slow) Monte-Carlo mode holds
#: at once over all its threads (400 MB).  A trial holds 4 n of them at the
#: peak of ``_normal_pair_means``: its 2 n uniforms, n radii and n angles.
#: No more threads run than can each hold one trial under the cap, each
#: draws its trials in chunks of its share of the cap, and per-sample runs
#: are refused for 4 n above it.
_SLOW_MODE_CHUNK = 50_000_000

#: Phase step (radians) of the fidelity-curvature stencil in ``qfi_numeric``.
_QFI_STEP = 1e-3


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

    ``qcrb = c_ase / (eps sqrt(n))`` is the MSE lower bound;
    ``mse_het = c_het_tilde / (eps sqrt(n))`` is what the heterodyne
    estimator actually reaches at the budget.
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


def _det(matrix: np.ndarray) -> float:
    import numpy as np

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
    import numpy as np

    from .gaussian import symplectic_form

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
    if nbar_lo == 0.0:
        return 0.0, f_a
    # Divided through by nbar_lo, so that a huge reference cannot overflow.
    thermal = (1.0 - eta) * b
    denom = 1.0 + 2.0 * thermal + (thermal + eta * nbar_s) / nbar_lo
    return 4.0 * nbar_s * eta / denom, f_a


def qfi_numeric(scenario: SensingScenario, probe: ProbeSettings) -> float:
    """Fisher information from the curvature of the fidelity curve.

    Evaluates ``F(omega) = fidelity(V(theta), V(theta + omega))`` on a
    central stencil of width 1e-3 rad plus one Richardson level, and
    returns ``-4 F''(0)``.  Independent of ``probe.theta`` because the
    probe state is phase-covariant.
    """
    base = alice_cm(scenario, probe)

    def fid(omega: float) -> float:
        shifted = ProbeSettings(probe.nbar_s, probe.nbar_lo, probe.theta + omega)
        return gaussian_fidelity(base, alice_cm(scenario, shifted))

    f0 = fid(0.0)

    def second_diff(h: float) -> float:
        return (fid(h) - 2.0 * f0 + fid(-h)) / (h * h)

    coarse = second_diff(2.0 * _QFI_STEP)
    fine = second_diff(_QFI_STEP)
    curvature = (4.0 * fine - coarse) / 3.0
    return -4.0 * curvature


def qcrb_ase(scenario: SensingScenario, c2: float) -> float:
    """Quantum MSE bound coefficient of the covert thermal probe.

        c_ase = (1 + 2 nbar_b_eff (1 - eta_eff)) sqrt(c2) / (16 eta_eff),

    with ``c2`` the scenario's quadratic covertness coefficient (see
    :func:`covertsense.covertness.taylor_coefficients`).  The bound at the
    covert budget is ``c_ase / (eps sqrt(n))``.
    """
    eta = scenario.eta_eff
    b = scenario.nbar_b_eff
    return (1.0 + 2.0 * b * (1.0 - eta)) * math.sqrt(c2) / (16.0 * eta)


def ase_heterodyne_coefficient(scenario: SensingScenario, c2: float) -> float:
    """Heterodyne MSE coefficient c_het_tilde of the covert thermal probe.

    c_het_tilde = (1 + nbar_b_eff (1 - eta_eff)) sqrt(c2) / (8 eta_eff),
    with ``c2`` the scenario's quadratic covertness coefficient; at the
    covert budget the averaged heterodyne noise variance equals
    c_het_tilde / (eps sqrt(n)).  Always within a factor of two of the
    quantum coefficient: c_ase <= c_het_tilde <= 2 c_ase.
    """
    eta = scenario.eta_eff
    b = scenario.nbar_b_eff
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


class _Stream:
    """One thread's generator on the Philox stream keyed by ``seed``.

    Built once per thread and moved to each task's offset by resetting its
    state and advancing it: a new ``Philox`` per task costs ~20-25 us, about
    half of it an OS-entropy ``SeedSequence`` that a keyed Philox discards,
    against ~4-5 us for the reset.
    """

    def __init__(self, seed: int) -> None:
        import numpy as np

        self._bit_gen = np.random.Philox(key=seed)
        self._start = self._bit_gen.state
        self._gen = np.random.Generator(self._bit_gen)

    def at(self, offset_uniforms: int) -> np.random.Generator:
        """The generator, ``offset_uniforms`` into the stream."""
        # Philox.advance counts 4-uniform counter steps, not single draws.
        assert offset_uniforms % 4 == 0
        self._bit_gen.state = self._start
        self._bit_gen.advance(offset_uniforms // 4)
        return self._gen


def _normal_pair_means(
    gen: np.random.Generator, trials: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row means of two ``(trials, n)`` standard-normal arrays.

    Box-Muller on exactly two uniform doubles per output pair keeps the
    counter consumption fixed, which is what makes per-trial stream
    addressing (and hence worker-count independence) possible; the
    ziggurat sampler consumes a variable number of draws and cannot be
    addressed this way.  The pairs are formed with in-place ufuncs, so at
    the peak a trial holds 4 n float64 values: 2 n uniforms, n radii and
    n angles.
    """
    import numpy as np

    uniforms = gen.random((trials, n, 2))
    radius = np.negative(uniforms[..., 0])
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    angle = np.multiply(uniforms[..., 1], 2.0 * np.pi)
    # The uniforms are spent: their first half takes the quadrature normals.
    comp_q = np.sin(angle, out=uniforms.reshape(-1)[: trials * n].reshape(trials, n))
    comp_i = np.cos(angle, out=angle)
    np.multiply(comp_i, radius, out=comp_i)
    np.multiply(comp_q, radius, out=comp_q)
    return comp_i.mean(axis=1), comp_q.mean(axis=1)


class _StripBuffers:
    """Work arrays of the fast-mode kernel for strips of up to ``size`` trials.

    One set per thread, reused from strip to strip: a strip's arrays are
    larger than the allocator's mmap threshold, so fresh ones would be
    page-faulted in again on every strip.
    """

    def __init__(self, size: int) -> None:
        import numpy as np

        self.uniforms = np.empty((size, 2))
        self.radius = np.empty(size)
        self.angle = np.empty(size)


def _fast_squared_errors(
    gen: np.random.Generator,
    count: int,
    sigma: float,
    theta: float,
    buffers: _StripBuffers,
) -> np.ndarray:
    """Squared errors of ``count`` fast-mode trials, in the frame of ``theta``.

    A trial's averaged quadratures are e^{i theta} + s e^{i a}, where
    ``s = sigma r`` and ``(r, a)`` are the Box-Muller radius and angle of
    its two uniforms.  Its error is the argument of 1 + s e^{i phi} with
    phi = a - theta, which the half-angle tangent t = tan(phi / 2) gives as

        atan2(2 s t, (1 + t^2) + s (1 - t^2))

    in [-pi, pi]: no sine, cosine or wrap, and no digits lost to taking
    theta off after the arctangent.  theta is first reduced modulo 2 pi,
    which turns every noise direction by the same rounding-sized angle.
    The kernel runs in place on ``buffers``; the result is a view into them.
    """
    import numpy as np

    half_theta = 0.5 * math.remainder(theta, 2.0 * math.pi)
    uniforms = gen.random(out=buffers.uniforms[:count])
    s = np.negative(uniforms[:, 0], out=buffers.radius[:count])
    t = np.multiply(uniforms[:, 1], np.pi, out=buffers.angle[:count])
    np.log1p(s, out=s)
    np.multiply(s, -2.0, out=s)
    np.sqrt(s, out=s)
    np.multiply(s, sigma, out=s)
    np.subtract(t, half_theta, out=t)
    np.tan(t, out=t)
    # The uniforms are spent: their two halves take t^2 and the denominator.
    spent = buffers.uniforms.reshape(-1)
    t_sq = np.multiply(t, t, out=spent[:count])
    denominator = np.subtract(1.0, t_sq, out=spent[count : 2 * count])
    np.multiply(denominator, s, out=denominator)
    np.add(t_sq, 1.0, out=t_sq)
    np.add(denominator, t_sq, out=denominator)
    numerator = np.multiply(t, s, out=t)
    np.add(numerator, numerator, out=numerator)
    delta = np.arctan2(numerator, denominator, out=numerator)
    return np.multiply(delta, delta, out=delta)


def _block_sums(squared: np.ndarray) -> list[tuple[float, float]]:
    """Per-block sums of ``squared`` and of its square, one pair per block.

    Each whole 4096-trial block and the partial last block is summed on
    its own (numpy's pairwise sum), as a lone block would be.
    """
    full = squared.size - squared.size % _BLOCK_TRIALS
    sums = squared[:full].reshape(-1, _BLOCK_TRIALS).sum(axis=1).tolist()
    tail = [float(squared[full:].sum())] if full < squared.size else []
    squared *= squared
    quads = squared[:full].reshape(-1, _BLOCK_TRIALS).sum(axis=1).tolist()
    if tail:
        quads.append(float(squared[full:].sum()))
    return list(zip(sums + tail, quads))


def _thread_count(requested: int, num_tasks: int) -> int:
    """Threads worth starting: no more than requested, cores or tasks."""
    return max(1, min(requested, os.cpu_count() or 1, num_tasks))


def _in_order(
    task: Callable[[int], _T], count: int, workers: int
) -> Iterator[_T]:
    """Yield ``task(0), ..., task(count - 1)`` in index order.

    With more than one worker the tasks run on a thread pool with at most
    ``2 * workers`` of them submitted and not yet yielded, so memory does
    not grow with ``count``.
    """
    if workers == 1:
        for index in range(count):
            yield task(index)
        return
    # Imported here: concurrent.futures pulls in logging (~10 ms), which
    # a serial run never needs.
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    window = 2 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for index in range(count):
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(task, index))
        while pending:
            yield pending.popleft().result()


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
    budget: CovertBudget | None = None,
) -> tuple[float, float]:
    """Monte-Carlo MSE of the arctangent estimator at the covert budget.

    Each trial draws the two averaged quadratures ``I = cos theta + Z_I``
    and ``Q = sin theta + Z_Q`` with ``Z ~ Normal(0, sigma_het_sq)``,
    forms ``theta_hat = atan2(Q, I)``, and accumulates the squared
    angular difference to ``theta_true`` wrapped into [-pi, pi].
    Returns the sample mean and its standard error.

    Fast mode draws that difference directly in the frame of
    ``theta_true``: with the trial's Box-Muller radius ``r`` and angle
    ``a``, it is the argument of ``1 + s e^{i phi}``, ``s = sigma r`` and
    ``phi = a - theta_true``, taken through ``tan(phi / 2)`` (see
    ``_fast_squared_errors``).  That needs no sine, cosine or wrap, and
    keeps full relative precision when the noise is small.

    ``per_sample=True`` switches to the slow validation mode that draws
    all ``n`` per-mode outcomes at per-mode variance ``sigma_sq``,
    averages them and takes ``atan2(Q, I) - theta_true`` wrapped by
    ``np.remainder`` — statistically identical (Gaussian averages are
    Gaussian) and O(n) more work, so only sensible for small ``n``.  It
    is refused for ``n > 12_500_000``, where a single trial's 4 n working
    values would take more than 400 MB.  The 400 MB hold for the whole
    run: at most ``400 MB / (32 n bytes)`` threads run, and each draws
    its trials in chunks of its share.

    Reproducibility: trial ``t`` owns a fixed slice of the counter
    stream of Philox (``philox4x64-10``) keyed by ``seed`` — uniforms
    ``[2t, 2t+2)`` in fast mode, ``[2nt, 2n(t+1))`` in per-sample mode —
    so the draw for a trial depends only on ``(seed, t)``.  One Philox
    counter step yields four 64-bit uniforms, and every block boundary
    falls on a whole counter step, so each thread keeps one generator and
    moves it to a task's first trial with ``advance``.  Trials are summed
    in blocks of 4096, and block partial sums are combined in block order
    regardless of ``workers``, making output bits independent of the
    worker count.

    Work is split into tasks.  In fast mode a task is a strip of four
    consecutive blocks: the contiguous stream from the strip's first
    trial holds every block's uniforms, and one in-place vectorized
    kernel's squared errors are summed back per block.  In per-sample
    mode a task is one block.  At most
    ``min(workers, os.cpu_count(), tasks)`` threads are started, with at
    most ``2 * threads`` tasks submitted and not yet folded, so memory
    does not grow with ``trials``.

    ``budget`` is the covert budget for ``(scenario, epsilon, n)`` when the
    caller already holds it (the CLI reports its ``nbar_s``); without it
    the budget is computed here.  A budget built for another ``epsilon``
    or ``n`` is refused.
    """
    import numpy as np

    trials = int(trials)
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a stable MSE, got {trials}")
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be a non-negative integer below 2**128")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = channel_uses(num_modes)
    # Float64 values one per-sample trial holds (see _normal_pair_means).
    per_trial = 4 * n
    if per_sample and per_trial > _SLOW_MODE_CHUNK:
        raise ValueError(
            f"per-sample mode holds 4 n = {per_trial} float64 values per trial, "
            f"above the cap of {_SLOW_MODE_CHUNK} "
            f"({_SLOW_MODE_CHUNK * 8 // 10**6} MB); it needs n <= "
            f"{_SLOW_MODE_CHUNK // 4}"
        )
    if budget is None:
        budget = covert_budget(scenario, epsilon, n)
    elif (budget.epsilon, budget.num_modes) != (epsilon, n):
        raise ValueError(
            f"budget was built for epsilon = {budget.epsilon!r}, "
            f"n = {budget.num_modes}; this run has epsilon = {epsilon!r}, n = {n}"
        )
    stats = heterodyne_stats(scenario, theta_true, budget.nbar_s, n)

    mu1 = stats.mu1
    mu2 = stats.mu2
    sigma_avg = math.sqrt(stats.sigma_het_sq)
    sigma_shot = math.sqrt(stats.sigma_sq)
    uniforms_per_trial = 2 * n if per_sample else 2

    strip_trials = _BLOCK_TRIALS * (1 if per_sample else _STRIP_BLOCKS)
    num_strips = -(-trials // strip_trials)
    threads = _thread_count(workers, num_strips)
    if per_sample:
        # The cap is shared: each thread holds one chunk at a time.
        threads = min(threads, _SLOW_MODE_CHUNK // per_trial)
        chunk = _SLOW_MODE_CHUNK // (threads * per_trial)

    # One generator and one set of kernel buffers per thread (see _Stream
    # and _StripBuffers).
    import threading

    local = threading.local()

    def run_strip(index: int) -> list[tuple[float, float]]:
        start = index * strip_trials
        count = min(strip_trials, trials - start)
        if not hasattr(local, "stream"):
            local.stream = _Stream(seed)
        gen = local.stream.at(start * uniforms_per_trial)
        if not per_sample:
            if not hasattr(local, "buffers"):
                local.buffers = _StripBuffers(min(strip_trials, trials))
            squared = _fast_squared_errors(
                gen, count, sigma_avg, theta_true, local.buffers
            )
            return _block_sums(squared)
        sq_parts = []
        done = 0
        while done < count:
            take = min(chunk, count - done)
            mean_i, mean_q = _normal_pair_means(gen, take, n)
            comp_i = mu1 + sigma_shot * mean_i
            comp_q = mu2 + sigma_shot * mean_q
            delta = np.remainder(np.arctan2(comp_q, comp_i) - theta_true, 2.0 * np.pi)
            delta -= 2.0 * np.pi * (delta > np.pi)
            sq_parts.append(delta * delta)
            done += take
        return _block_sums(np.concatenate(sq_parts))

    sum_sq = 0.0
    sum_quad = 0.0
    for parts in _in_order(run_strip, num_strips, threads):
        for part_sq, part_quad in parts:
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
    if root == math.inf:
        raise DomainError(
            "coherent baseline overflows double precision at "
            f"eta_eff * nbar_b_eff = {eta * nbar_b:.3e}"
        )
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
    check_positive("epsilon", epsilon)
    n = channel_uses(num_modes)
    c_het, c_coh = _coherent_coefficients(eta_eff, nbar_b_eff)
    root = math.sqrt(eta_eff * nbar_b_eff * (1.0 + eta_eff * nbar_b_eff))
    nbar_s = 4.0 * epsilon * root / (math.sqrt(n) * (1.0 - eta_eff))
    return nbar_s, c_het, c_coh


def _check_bandwidths(w_ase: float, w_coh: float) -> None:
    if not (0.0 < w_ase < math.inf and 0.0 < w_coh < math.inf):
        raise ValueError(
            f"bandwidths must be positive and finite, got {w_ase} and {w_coh}"
        )


def source_comparison(
    scenario: SensingScenario, c_ase: float, w_ase: float, w_coh: float
) -> tuple[float, float, float]:
    """Bound ratio between the thermal probe and a coherent probe.

    Returns ``(mu, mu_c, mu_w)`` where ``mu_c = c_ase / c_coh`` compares
    the per-mode coefficients (``c_ase`` from :func:`qcrb_ase`),
    ``mu_w = w_ase / w_coh`` the usable bandwidths, and
    ``mu = mu_c / sqrt(mu_w)`` the resulting MSE-bound ratio at equal
    covertness and integration time, both of which cancel from the ratio.
    ``mu < 1`` (thermal probe wins) exactly when ``mu_c < sqrt(mu_w)``.
    """
    _check_bandwidths(w_ase, w_coh)
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
    ``nbar_lo``.  Every coefficient uses the budget's c2.  The source
    comparison is stated at the operating point ``w_ase *
    integration_time``, which is validated although it cancels from the
    ratios.  The bandwidths, ``integration_time`` and that operating point
    are checked before the budget is computed.
    """
    n = channel_uses(num_modes)
    # The ratios are stated at integration time T: refuse bandwidths, a T,
    # or a mode count W_ase * T that is no operating point.
    _check_bandwidths(w_ase, w_coh)
    check_positive("integration time", integration_time)
    channel_uses(max(1.0, w_ase * integration_time))
    budget = covert_budget(scenario, epsilon, n)
    f_a_prime, f_a = qfi_closed(scenario, budget.nbar_s, nbar_lo)
    c_ase = qcrb_ase(scenario, budget.c2)
    c_het_tilde = ase_heterodyne_coefficient(scenario, budget.c2)
    c_het, c_coh = _coherent_coefficients(scenario.eta_eff, scenario.nbar_b_eff)
    mu, mu_c, mu_w = source_comparison(scenario, c_ase, w_ase, w_coh)
    root_n = math.sqrt(n)
    return EstimationReport(
        f_a=f_a,
        f_a_prime=f_a_prime,
        c_ase=c_ase,
        c_het_tilde=c_het_tilde,
        c_coh=c_coh,
        c_het=c_het,
        qcrb=c_ase / (epsilon * root_n),
        mse_het=c_het_tilde / (epsilon * root_n),
        mu=mu,
        mu_c=mu_c,
        mu_w=mu_w,
    )
