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
  coefficient ``c_ase`` of the thermal probe and the heterodyne
  coefficient ``c_het_tilde``.
* Normalized heterodyne statistics in the bright-reference limit.
* A Monte-Carlo sampler of the two-quadrature arctangent estimator, keyed
  by the averaged noise variance it draws (``sample_heterodyne_mse``),
  and its composition with the covert budget and the heterodyne
  statistics (``simulate_heterodyne_mse``).
* Source-comparison ratios ``mu_c``, ``mu_w``, ``mu`` between the
  thermal probe and a coherent probe at matched covertness.

Both probes face one adversary, the two-tap one of
:func:`covertsense.covertness.taylor_coefficients`, who holds the light
lost at both taps with its correlated bath noise.  A phase-averaged
coherent probe is a Poisson mixture of number states and the thermal
probe a geometric one; the two agree to first order in ``nbar_s``, and a
relative entropy has no first-order term, so its second-order
coefficient c2 reads only that first-order change: both probes have the
same c2, hence the same covert budget and the same coefficients.  So the
coherent pair ``(c_coh, c_het)`` is ``(c_ase, c_het_tilde)``, ``mu_c = 1``
and ``mu = sqrt(W_coh / W_ase)``: at equal covertness the comparison is
the bandwidths alone.  The Fock oracle, fed a Poisson probe, checks the
shared c2 (``tests/test_fock.py``).

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
from typing import TYPE_CHECKING, NamedTuple

from ._constants import RNG_ALGORITHM
from .covertness import channel_uses, covert_budget
from .errors import DomainError, NumericalInstabilityError
from .scenario import (
    ProbeSettings,
    SensingScenario,
    alice_cm,
    check_angle,
    check_integer,
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
    "sample_heterodyne_mse",
    "simulate_heterodyne_mse",
    "estimation_report",
]

#: Trials per accumulation block in the Monte-Carlo estimator.  Partial
#: sums are formed per block and combined in block order, so the result
#: is independent of how blocks are scheduled across workers.
_BLOCK_TRIALS = 4096

#: Blocks per strip.  A strip draws from one generator, runs one
#: vectorized kernel and is one thread-pool task.
_STRIP_BLOCKS = 4

#: Phase step (radians) of the fidelity-curvature stencil in ``qfi_numeric``.
_QFI_STEP = 1e-3


class HeterodyneStats(NamedTuple):
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


class EstimationReport(NamedTuple):
    """Bound coefficients and comparison ratios for one scenario.

    ``qcrb = c_ase / (eps sqrt(n))`` is the MSE lower bound;
    ``mse_het = c_het_tilde / (eps sqrt(n))`` is the averaged heterodyne
    noise variance ``sigma_het_sq`` at the budget, which is the MSE of the
    arctangent estimator only to leading order in it.  The exact MSE is
    larger at moderate noise (1.37 times at ``sigma_het_sq = 0.188``) and
    saturates at pi^2/3, a blind guess's, as the noise grows;
    :func:`sample_heterodyne_mse` draws it.  ``c_coh`` and ``c_het`` are
    the same two coefficients of a phase-averaged coherent probe.  It
    faces the thermal probe's two-tap adversary and shares its c2, so
    ``c_coh = c_ase`` and ``c_het = c_het_tilde``.  ``mu_w = W_ase / W_coh``
    compares the bandwidths, ``mu_c = c_ase / c_coh = 1`` the per-mode
    coefficients, and ``mu = mu_c / sqrt(mu_w) = sqrt(W_coh / W_ase)`` the
    MSE bounds at equal covertness and integration time; ``mu < 1`` means
    the thermal probe wins.
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

    Requires a positive finite signal occupancy (there is no outcome scale
    to normalize by otherwise), one that the scale 2 eta nbar_s does not
    underflow, and a channel that transmits something.
    """
    check_occupancy("nbar_s", nbar_s)
    eta = scenario.eta_eff
    scale = 2.0 * eta * nbar_s
    # A zero scale on a channel that transmits is a subnormal nbar_s; an
    # opaque channel is refused below, after the angle and the mode count.
    if nbar_s == 0.0 or (scale == 0.0 and eta > 0.0):
        raise DomainError(f"no signal to normalize by: nbar_s = {nbar_s}")
    check_angle("theta", theta)
    n = channel_uses(num_modes)
    if eta == 0.0:
        raise DomainError("fully opaque channel: nothing returns to Alice")
    sigma_sq = (1.0 + (1.0 - eta) * scenario.nbar_b_eff) / scale
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


def sample_heterodyne_mse(
    sigma_het_sq: float, theta_true: float, trials: int, seed: int, *, workers: int = 1
) -> tuple[float, float]:
    """Monte-Carlo MSE of the arctangent estimator at noise variance ``sigma_het_sq``.

    Each trial draws the two averaged quadratures ``I = cos theta + Z_I``
    and ``Q = sin theta + Z_Q`` with ``Z ~ Normal(0, sigma_het_sq)``,
    forms ``theta_hat = atan2(Q, I)``, and accumulates the squared
    angular difference to ``theta_true`` wrapped into [-pi, pi].
    Returns the sample mean and its standard error.

    The difference is drawn directly in the frame of ``theta_true``: with
    the trial's Box-Muller radius ``r`` and angle ``a``, it is the
    argument of ``1 + s e^{i phi}``, ``s = sigma r`` and
    ``phi = a - theta_true``, taken through ``tan(phi / 2)`` (see
    ``_fast_squared_errors``).  That needs no sine, cosine or wrap, and
    keeps full relative precision when the noise is small.

    Reproducibility: trial ``t`` owns uniforms ``[2t, 2t+2)`` of the
    counter stream of Philox (``philox4x64-10``) keyed by ``seed``, so
    the draw for a trial depends only on ``(seed, t)``.  One Philox
    counter step yields four 64-bit uniforms, and every block boundary
    falls on a whole counter step, so each thread keeps one generator and
    moves it to a task's first trial with ``advance``.  Trials are summed
    in blocks of 4096, and block partial sums are combined in block order
    regardless of ``workers``, making output bits independent of the
    worker count.

    Work is split into tasks, each a strip of four consecutive blocks:
    the contiguous stream from the strip's first trial holds every
    block's uniforms, and one in-place vectorized kernel's squared errors
    are summed back per block.  At most
    ``min(workers, os.cpu_count(), tasks)`` threads are started, with at
    most ``2 * threads`` tasks submitted and not yet folded, so memory
    does not grow with ``trials``.

    ``trials``, ``seed`` and ``workers`` must be integers (``int`` or numpy,
    not ``bool``): at least 1000 trials, a seed in [0, 2**128) and at least
    one worker.  ``sigma_het_sq`` must be positive and finite and
    ``theta_true`` finite.
    """
    # Without numpy the run is refused before its arguments are checked.
    import numpy  # noqa: F401

    for name, value in (("trials", trials), ("seed", seed), ("workers", workers)):
        check_integer(name, value)
    # A numpy integer becomes an int, so the results are Python floats.
    trials = int(trials)
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a stable MSE, got {trials}")
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be a non-negative integer below 2**128")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    check_positive("sigma_het_sq", sigma_het_sq)
    # Refused, not wrapped: the kernel reduces theta modulo 2 pi itself.
    check_angle("theta_true", theta_true)
    sigma_avg = math.sqrt(sigma_het_sq)

    strip_trials = _BLOCK_TRIALS * _STRIP_BLOCKS
    num_strips = -(-trials // strip_trials)
    threads = _thread_count(workers, num_strips)

    # One generator and one set of kernel buffers per thread (see _Stream
    # and _StripBuffers).
    import threading

    local = threading.local()

    def run_strip(index: int) -> list[tuple[float, float]]:
        start = index * strip_trials
        count = min(strip_trials, trials - start)
        if not hasattr(local, "stream"):
            local.stream = _Stream(seed)
            local.buffers = _StripBuffers(min(strip_trials, trials))
        squared = _fast_squared_errors(
            local.stream.at(2 * start), count, sigma_avg, theta_true, local.buffers
        )
        return _block_sums(squared)

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


def simulate_heterodyne_mse(
    scenario: SensingScenario,
    theta_true: float,
    epsilon: float,
    num_modes: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> tuple[float, float]:
    """Monte-Carlo MSE of the arctangent estimator at the covert budget.

    The budget for ``(scenario, epsilon, n)`` fixes ``nbar_s``,
    :func:`heterodyne_stats` turns it into the averaged noise variance
    ``sigma_het_sq``, and :func:`sample_heterodyne_mse` draws the trials
    at that variance.  The scenario and the budget are checked before the
    Monte-Carlo arguments.
    """
    budget = covert_budget(scenario, epsilon, num_modes)
    stats = heterodyne_stats(scenario, theta_true, budget.nbar_s, num_modes)
    return sample_heterodyne_mse(
        stats.sigma_het_sq, theta_true, trials, seed, workers=workers
    )


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
    ``nbar_lo``.  Every coefficient uses the budget's c2, the coherent
    probe's too (see :class:`EstimationReport`), so ``c_coh = c_ase``,
    ``c_het = c_het_tilde``, ``mu_c = 1`` and ``mu = sqrt(w_coh / w_ase)``.
    The source comparison is stated at the operating point ``w_ase *
    integration_time``, which is validated although it cancels from the
    ratios.  The bandwidths, ``integration_time`` and that operating point
    are checked before the budget is computed.
    """
    n = channel_uses(num_modes)
    # The ratios are stated at integration time T: refuse bandwidths, a T,
    # or a mode count W_ase * T that is no operating point.
    if not (0.0 < w_ase < math.inf and 0.0 < w_coh < math.inf):
        raise ValueError(
            f"bandwidths must be positive and finite, got {w_ase} and {w_coh}"
        )
    check_positive("integration time", integration_time)
    if w_ase * integration_time == math.inf:
        raise ValueError(
            f"time-bandwidth product W_ase*T overflows (W_ase = {w_ase:g} Hz, "
            f"T = {integration_time:g} s)"
        )
    budget = covert_budget(scenario, epsilon, n)
    f_a_prime, f_a = qfi_closed(scenario, budget.nbar_s, nbar_lo)
    c_ase = qcrb_ase(scenario, budget.c2)
    c_het_tilde = ase_heterodyne_coefficient(scenario, budget.c2)
    mu_w = w_ase / w_coh
    root_n = math.sqrt(n)
    return EstimationReport(
        f_a=f_a,
        f_a_prime=f_a_prime,
        c_ase=c_ase,
        c_het_tilde=c_het_tilde,
        c_coh=c_ase,
        c_het=c_het_tilde,
        qcrb=c_ase / (epsilon * root_n),
        mse_het=c_het_tilde / (epsilon * root_n),
        mu=1.0 / math.sqrt(mu_w),
        mu_c=1.0,
        mu_w=mu_w,
    )
