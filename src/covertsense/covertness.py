"""Relative-entropy covertness measures and covert photon budgets.

The adversary distinguishes "probe on" from "probe off" by hypothesis
testing on his tapped modes.  His error probability over n independent
channel uses is controlled by the quantum relative entropy (QRE)

    D(rho_0 || rho_1) = tr rho_0 (ln rho_0 - ln rho_1)      [nats]

between his states without (rho_0) and with (rho_1) the probe.  For weak
probes D is quadratic in the signal occupancy,

    D = (c2 / 2) nbar_s^2 + (c3 / 6) nbar_s^3 + O(nbar_s^4),

and capping the accumulated relative entropy at n D <= 8 eps^2 yields the
covert budget nbar_s = 4 eps / (sqrt(c2) sqrt(n)) together with the
adversary error bound P_e >= 1/2 - (sqrt(c2)/4) sqrt(n) nbar_s, which the
budget saturates at exactly 1/2 - eps.

For a zero-mean Gaussian state pair the QRE is a closed functional of the
symplectic data: with u_k the symplectic eigenvalues of V and d_k the
second moments of the reference state in V's normal modes,

    Sigma(V0, V) = sum_k [ (1 + 2 d_k) ln(u_k + 1/2)
                         + (1 - 2 d_k) ln(u_k - 1/2) ] / 2,
    D(rho_0 || rho_1) = Sigma(V0, V1) - Sigma(V0, V0),

where Sigma(V0, V0) is the von Neumann entropy of rho_0.  ``qre_gaussian``
evaluates this directly; ``willie_qre`` evaluates the same functional for
the adversary's two-mode states through exact first-order differences of
the closed-form normal-mode data, which stays accurate when D is ten or
more orders of magnitude below the entropies themselves.

The equal-bath special case (nbar_b1 = nbar_b2 = nbar_b) reduces to a
single-mode thermal pair with N0 = eta_eff nbar_b and
N1 = N0 + (1 - eta_eff) nbar_s:

    D = N0 ln[ N0 (1+N1) / ((1+N0) N1) ] + ln[ (1+N1) / (1+N0) ],

whose Taylor coefficients are the closed forms ``equal_bath_c2`` and
``equal_bath_c3``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    DegenerateCovertnessError,
    DomainError,
    InfiniteQreError,
)
from .gaussian import CovarianceMatrix, SymplecticSpectrum, symplectic_spectrum
from .scenario import SensingScenario, _willie_params

__all__ = [
    "QreBreakdown",
    "TaylorCoefficients",
    "CovertBudget",
    "qre_gaussian",
    "willie_qre",
    "equal_bath_qre",
    "equal_bath_c2",
    "equal_bath_c3",
    "taylor_coefficients",
    "taylor_c2",
    "taylor_c3",
    "covert_budget",
    "willie_error_lower_bound",
]

_PURE_TOL = 1e-12


@dataclass(frozen=True)
class QreBreakdown:
    """QRE value (nats) with the Sigma terms and symplectic data behind it."""

    nats: float
    sigma_00: float
    sigma_01: float
    spectrum_0: SymplecticSpectrum
    spectrum_1: SymplecticSpectrum


@dataclass(frozen=True)
class TaylorCoefficients:
    """Quadratic/cubic QRE coefficients and the stencil step that made them."""

    c2: float
    c3: float
    step: float


@dataclass(frozen=True)
class CovertBudget:
    """Signal occupancy budget meeting a covertness target.

    ``in_taylor_regime`` is False when the budget is large enough
    (>= 10% of the smaller bath occupancy) that the quadratic expansion
    behind it is suspect; a UserWarning is issued in that case too.
    """

    nbar_s: float
    c2: float
    epsilon: float
    num_modes: int
    in_taylor_regime: bool


def _sigma_terms(u: float, d: float) -> float:
    """One mode's Sigma contribution, with the pure-state limits."""
    gap = u - 0.5
    if gap <= _PURE_TOL:
        if d - 0.5 > 100.0 * _PURE_TOL:
            raise InfiniteQreError(
                "relative entropy diverges: reference state has weight outside "
                f"a pure normal mode (u = {u!r}, d = {d!r})"
            )
        return 0.5 * (1.0 + 2.0 * d) * math.log(u + 0.5)
    return 0.5 * (
        (1.0 + 2.0 * d) * math.log(u + 0.5) + (1.0 - 2.0 * d) * math.log(gap)
    )


def qre_gaussian(cm_0: CovarianceMatrix, cm_1: CovarianceMatrix) -> QreBreakdown:
    """Quantum relative entropy D(rho_0 || rho_1) of zero-mean Gaussian states.

    Direct route: Williamson data of both states, then the Sigma functional.
    Raises :class:`InfiniteQreError` when rho_0's support leaks out of a pure
    normal mode of rho_1.  For weak perturbations of the adversary state
    prefer :func:`willie_qre`, which evaluates the same quantity without
    cancellation.
    """
    if cm_0.num_modes != cm_1.num_modes:
        raise ValueError("states must have the same number of modes")
    cm_0.require_physical()
    cm_1.require_physical()
    sp0 = symplectic_spectrum(cm_0, reference=cm_0)
    sp1 = symplectic_spectrum(cm_1, reference=cm_0)
    sigma_00 = sum(
        _sigma_terms(u, d) for u, d in zip(sp0.eigenvalues, sp0.relative_diagonal)
    )
    sigma_01 = sum(
        _sigma_terms(u, d) for u, d in zip(sp1.eigenvalues, sp1.relative_diagonal)
    )
    return QreBreakdown(
        nats=sigma_01 - sigma_00,
        sigma_00=sigma_00,
        sigma_01=sigma_01,
        spectrum_0=sp0,
        spectrum_1=sp1,
    )


def _willie_normal_deltas(
    scenario: SensingScenario, nbar_s: float
) -> list[tuple[float, float, float, float]]:
    """Exact normal-mode differences of the adversary pair at one nbar_s.

    Returns per-mode tuples (u0, du, u, dd): reference symplectic eigenvalue,
    its exact shift, the shifted eigenvalue, and the shift of the relative
    diagonal d_k - u0_k.  All four are computed from factored first-order
    differences of the closed-form tap parameters, so du and dd carry no
    cancellation error even when they are ~1e-12 of u0.

    ``nbar_s`` may be slightly negative (finite-difference stencils); the
    caller must keep the perturbed state physical.
    """
    e1, e2 = scenario.eta_1, scenario.eta_2
    w11_0, w22_0, w12_0 = _willie_params(scenario, 0.0)
    dw11 = (1.0 - e2) * e1 * nbar_s
    dw22 = (1.0 - e1) * nbar_s
    dw12 = -math.sqrt((1.0 - e2) * e1 * (1.0 - e1)) * nbar_s
    w11, w22, w12 = w11_0 + dw11, w22_0 + dw22, w12_0 + dw12

    delta0 = w11_0 - w22_0
    delta1 = w11 - w22
    d_delta = dw11 - dw22
    rho0 = math.hypot(2.0 * w12_0, delta0)
    rho1 = math.hypot(2.0 * w12, delta1)
    # rho1^2 - rho0^2 through factored differences (exact to first order).
    d_rho_sq = 4.0 * dw12 * (w12 + w12_0) + d_delta * (delta1 + delta0)
    d_rho = d_rho_sq / (rho1 + rho0) if (rho1 + rho0) > 0.0 else 0.0

    half_sum0 = (w11_0 + w22_0) / 2.0
    d_half_sum = (dw11 + dw22) / 2.0
    u1_0 = half_sum0 + rho0 / 2.0
    u2_0 = half_sum0 - rho0 / 2.0
    du1 = d_half_sum + d_rho / 2.0
    du2 = d_half_sum - d_rho / 2.0

    scale = max(abs(w11_0), abs(w22_0), abs(w11), abs(w22), 1.0)
    if rho1 <= 1e-13 * scale:
        # Perturbed state degenerate: only d1 + d2 enters the QRE, so the
        # split is a gauge choice; pick the symmetric one.
        dd1 = -rho0 / 2.0
    else:
        # d1 - u1_0 = (v0 . v1 - |v0||v1|) / (2 rho1) with v = (-2 w12, dw).
        # Near alignment (dot >= 0) the numerator cancels catastrophically;
        # rewrite it through the cross product:
        # v0.v1 - |v0||v1| = -(v0 x v1)^2 / (|v0||v1| + v0.v1).
        # Near anti-alignment (dot < 0) it is the rewritten form that hits
        # 0/0 -- the perturbation can reverse v without rotating it (for
        # equal baths v1 = v0 (1 - nbar_s/nbar_b) exactly, so the axes swap
        # once nbar_s exceeds nbar_b) -- while the direct difference is an
        # addition of same-sign terms and is stable, so branch on the sign.
        cross = 2.0 * (dw12 * delta0 - w12_0 * d_delta)
        dot = 4.0 * w12 * w12_0 + delta1 * delta0
        if dot < 0.0:
            dd1 = (dot - rho0 * rho1) / (2.0 * rho1)
        else:
            dd1 = -(cross * cross) / ((rho0 * rho1 + dot) * 2.0 * rho1)
    dd2 = -dd1
    return [(u1_0, du1, u1_0 + du1, dd1), (u2_0, du2, u2_0 + du2, dd2)]


def _relative_term(u0: float, du: float, u: float, dd: float) -> float:
    """One mode's Sigma(V0,V1) - Sigma(V0,V0), evaluated without cancellation.

    Equals (1+2u0) ln((u+1/2)/(u0+1/2))/2 + (1-2u0) ln((u-1/2)/(u0-1/2))/2
    + dd ln((u+1/2)/(u-1/2)), with the pure-mode limits handled explicitly.
    """
    gap0 = u0 - 0.5
    gap1 = u - 0.5
    if gap1 <= _PURE_TOL:
        if gap0 > 100.0 * _PURE_TOL or dd > 100.0 * _PURE_TOL:
            raise InfiniteQreError(
                "relative entropy diverges: perturbed adversary state is pure "
                "along a mode where the reference is mixed"
            )
        return 0.5 * (1.0 + 2.0 * u0) * math.log1p(du / (u0 + 0.5))
    term = 0.5 * (1.0 + 2.0 * u0) * math.log1p(du / (u0 + 0.5))
    if gap0 <= _PURE_TOL:
        # (1 - 2u0) -> 0 kills the second log's divergence in the limit.
        term += dd * (math.log(u + 0.5) - math.log(gap1))
        return term
    term += 0.5 * (1.0 - 2.0 * u0) * math.log1p(du / gap0)
    term += dd * (math.log(u + 0.5) - math.log(gap1))
    return term


def _willie_qre_raw(scenario: SensingScenario, nbar_s: float) -> float:
    """QRE of the adversary pair at signal occupancy nbar_s (may be < 0)."""
    if nbar_s == 0.0:
        return 0.0
    total = 0.0
    for u0, du, u, dd in _willie_normal_deltas(scenario, nbar_s):
        if u < 0.5 - 1e-12:
            raise DomainError(
                f"perturbed adversary state unphysical at nbar_s = {nbar_s!r} "
                f"(symplectic eigenvalue {u!r})"
            )
        total += _relative_term(u0, du, u, dd)
    return total


def willie_qre(scenario: SensingScenario, nbar_s: float, theta: float = 0.0) -> float:
    """QRE (nats) between the adversary's states without and with the probe.

    The target phase does not enter: it only rotates correlations inside the
    adversary state, leaving every symplectic invariant unchanged (this is
    verified, not assumed, by the test suite against :func:`qre_gaussian` at
    many phases).  ``theta`` is accepted for interface symmetry.
    """
    del theta  # invariant; see docstring
    if nbar_s < 0.0:
        raise ValueError("nbar_s must be non-negative")
    return _willie_qre_raw(scenario, nbar_s)


def equal_bath_qre(eta_eff: float, nbar_b: float, nbar_s: float) -> float:
    """Closed-form QRE for equal baths (single-mode thermal pair reduction).

    Valid whenever nbar_b1 = nbar_b2 = nbar_b, for any factorisation of
    eta_eff into the two taps.  N0 = eta_eff nbar_b, N1 = N0 +
    (1 - eta_eff) nbar_s.
    """
    if not 0.0 <= eta_eff <= 1.0:
        raise ValueError("eta_eff must lie in [0, 1]")
    if nbar_b < 0.0 or nbar_s < 0.0:
        raise ValueError("occupancies must be non-negative")
    n0 = eta_eff * nbar_b
    shift = (1.0 - eta_eff) * nbar_s
    if shift == 0.0:
        return 0.0
    if n0 == 0.0:
        return math.log1p(shift)
    return -n0 * math.log1p(shift / n0) + (n0 + 1.0) * math.log1p(
        shift / (1.0 + n0)
    )


def equal_bath_c2(eta_eff: float, nbar_b: float) -> float:
    """Closed-form quadratic QRE coefficient for equal baths."""
    n0 = eta_eff * nbar_b
    if n0 <= 0.0:
        raise DomainError(
            "quadratic expansion needs a strictly thermal effective bath "
            "(eta_eff * nbar_b > 0)"
        )
    return (1.0 - eta_eff) ** 2 / (n0 * (1.0 + n0))


def equal_bath_c3(eta_eff: float, nbar_b: float) -> float:
    """Closed-form cubic QRE coefficient for equal baths."""
    n0 = eta_eff * nbar_b
    if n0 <= 0.0:
        raise DomainError(
            "cubic expansion needs a strictly thermal effective bath "
            "(eta_eff * nbar_b > 0)"
        )
    return -2.0 * (1.0 - eta_eff) ** 3 * (1.0 + 2.0 * n0) / (n0 * (1.0 + n0)) ** 2


def _richardson(values: list[float]) -> float:
    """Two-level Richardson extrapolation of a stencil with h^2 error series.

    ``values`` are the stencil estimates at steps (h, h/2, h/4); both central
    stencils used here have even-power error series, so the (4,16)/(3,15)
    weights apply to each.
    """
    a_h, a_h2, a_h4 = values
    r1_h = (4.0 * a_h2 - a_h) / 3.0
    r1_h2 = (4.0 * a_h4 - a_h2) / 3.0
    return (16.0 * r1_h2 - r1_h) / 15.0


def taylor_coefficients(
    scenario: SensingScenario,
    *,
    base_step: float | None = None,
    c2_floor: float = 1e-12,
) -> TaylorCoefficients:
    """Quadratic and cubic coefficients of D(nbar_s) about nbar_s = 0.

    Central finite differences with two Richardson extrapolation levels on
    the cancellation-free QRE evaluator.  The default step is
    min(1e-3 * max(1, nbar_b_eff), 0.05 * (u_min - 1/2)) where u_min is the
    smallest symplectic eigenvalue of the adversary's reference state: the
    second clause keeps the stencil a small relative perturbation of the
    eigenvalue gap, which for weak baths is far tighter than the first.

    Raises :class:`DegenerateCovertnessError` when c2 falls at or below
    ``c2_floor`` (identity channel: the adversary state does not respond to
    the probe), and :class:`DomainError` when the reference state has a pure
    normal mode (vacuum baths: D is not twice differentiable at 0).
    """
    deltas0 = _willie_normal_deltas(scenario, 0.0)
    gap = min(item[0] for item in deltas0) - 0.5
    if gap <= 1e-12:
        raise DomainError(
            "quadratic expansion needs a strictly thermal adversary reference "
            "state; a tap sees (near-)vacuum here"
        )
    if base_step is None:
        base_step = min(1e-3 * max(1.0, scenario.nbar_b_eff), 0.05 * gap)
    h = base_step
    if h <= 0.0:
        raise ValueError("base_step must be positive")

    d_at: dict[float, float] = {}

    def d(x: float) -> float:
        if x not in d_at:
            d_at[x] = _willie_qre_raw(scenario, x)
        return d_at[x]

    def second(hh: float) -> float:
        return (d(hh) + d(-hh)) / (hh * hh)

    def third(hh: float) -> float:
        return (d(2.0 * hh) - 2.0 * d(hh) + 2.0 * d(-hh) - d(-2.0 * hh)) / (
            2.0 * hh**3
        )

    c2 = _richardson([second(h), second(h / 2.0), second(h / 4.0)])
    c3 = _richardson([third(h / 2.0), third(h / 4.0), third(h / 8.0)])
    if c2 <= c2_floor:
        raise DegenerateCovertnessError(
            f"quadratic covertness coefficient {c2:.3e} is at the noise floor; "
            "the adversary state does not respond to the probe "
            "(identity channel?)"
        )
    return TaylorCoefficients(c2=c2, c3=c3, step=h)


def taylor_c2(scenario: SensingScenario, **kwargs) -> float:
    """Quadratic QRE coefficient of the scenario (see taylor_coefficients)."""
    return taylor_coefficients(scenario, **kwargs).c2


def taylor_c3(scenario: SensingScenario, **kwargs) -> float:
    """Cubic QRE coefficient of the scenario (see taylor_coefficients)."""
    return taylor_coefficients(scenario, **kwargs).c3


def check_epsilon(epsilon: float) -> None:
    """Refuse a covertness parameter that is not positive and finite."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def channel_uses(num_modes: float) -> int:
    """n = floor(num_modes), refusing NaN, infinite and sub-unit counts."""
    if not math.isfinite(num_modes):
        raise ValueError(f"number of channel uses must be finite, got {num_modes}")
    n = int(math.floor(num_modes))
    if n < 1:
        raise ValueError("need at least one channel use")
    return n


def covert_budget(
    scenario: SensingScenario, epsilon: float, num_modes: float
) -> CovertBudget:
    """Largest signal occupancy keeping the adversary epsilon-blind.

    At quadratic order over n = floor(num_modes) independent uses,
    nbar_s = 4 eps / (sqrt(c2) sqrt(n)) makes the accumulated relative
    entropy n D = 8 eps^2, at which the adversary error bound
    :func:`willie_error_lower_bound` equals exactly 1/2 - eps.  Warns (and
    flags the result) when the budget is not small against the bath
    occupancies, i.e. when the quadratic truncation is no longer
    trustworthy.
    """
    check_epsilon(epsilon)
    n = channel_uses(num_modes)
    c2 = taylor_c2(scenario)
    nbar_s = 4.0 * epsilon / (math.sqrt(c2) * math.sqrt(n))
    if not math.isfinite(nbar_s):
        raise DomainError(
            f"covert budget overflows double precision at epsilon = {epsilon!r}"
        )
    threshold = 0.1 * min(scenario.nbar_b1, scenario.nbar_b2)
    in_regime = nbar_s < threshold
    if not in_regime:
        warnings.warn(
            f"covert budget nbar_s = {nbar_s:.3e} is not small against the "
            f"bath occupancies (threshold {threshold:.3e}); the quadratic "
            "expansion behind it is unreliable here",
            UserWarning,
            stacklevel=2,
        )
    return CovertBudget(
        nbar_s=nbar_s,
        c2=c2,
        epsilon=epsilon,
        num_modes=n,
        in_taylor_regime=in_regime,
    )


def willie_error_lower_bound(c2: float, num_modes: float, nbar_s: float) -> float:
    """Adversary error-probability lower bound 1/2 - (sqrt(c2)/4) sqrt(n) nbar_s.

    At the covert budget this is exactly 1/2 - epsilon.  Values <= 0 are
    vacuous (the probe is not covert at this strength).
    """
    if c2 < 0.0:
        raise ValueError("c2 must be non-negative")
    n = channel_uses(num_modes)
    return 0.5 - (math.sqrt(c2) / 4.0) * math.sqrt(n) * nbar_s
