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
evaluates this directly.  ``willie_qre`` uses that the adversary's two
states are passive, with mode-occupation matrices N0 and
N1 = N0 + nbar_s p p^T: over the eigenvalues lambda and eigenvectors e of
the two,

    D = sum_jk |<e0_j|e1_k>|^2 beta(lambda0_j, lambda1_k),
    beta(x, y) = (1+x) ln((1+y)/(1+x)) - x ln(y/x) >= 0,

the relative entropy of one-mode thermal states.  No term is negative and
each is formed from its shift lambda1_k - lambda0_j, so D stays accurate
when it is ten or more orders of magnitude below the entropies
themselves, for taps in [0, 1], vacuum baths and occupancies up to the
float range.

The equal-bath special case (nbar_b1 = nbar_b2 = nbar_b) reduces to a
single-mode thermal pair with N0 = eta_eff nbar_b and
N1 = N0 + (1 - eta_eff) nbar_s:

    D = N0 ln[ N0 (1+N1) / ((1+N0) N1) ] + ln[ (1+N1) / (1+N0) ],

whose Taylor coefficients are the closed forms ``equal_bath_c2`` and
``equal_bath_c3``.  ``taylor_coefficients`` gives c2 and c3 in closed form
for any pair of baths, as divided differences over the two eigenvalues of
the adversary's reference occupation matrix; it needs no QRE evaluation.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DegenerateCovertnessError,
    DomainError,
    InfiniteQreError,
)
from .scenario import SensingScenario, check_occupancy, check_positive

if TYPE_CHECKING:
    from .gaussian import CovarianceMatrix

__all__ = [
    "TaylorCoefficients",
    "CovertBudget",
    "qre_gaussian",
    "willie_qre",
    "equal_bath_qre",
    "equal_bath_c2",
    "equal_bath_c3",
    "taylor_coefficients",
    "covert_budget",
    "willie_error_lower_bound",
]

_PURE_TOL = 1e-12
#: Orders k = 3..23 of the thermal-QRE series after its leading k = 2 term.
_SERIES_ORDERS = tuple(float(k) for k in range(3, 24))


class TaylorCoefficients(NamedTuple):
    """Quadratic and cubic coefficients of the QRE in nbar_s."""

    c2: float
    c3: float


class CovertBudget(NamedTuple):
    """Signal occupancy budget meeting a covertness target.

    ``c2`` and ``c3`` are the scenario's Taylor coefficients from the one
    :func:`taylor_coefficients` run behind the budget; callers reuse them
    rather than differentiate the QRE again.  ``in_taylor_regime`` is
    False when the budget is large enough (>= 10% of the smaller bath
    occupancy) that the quadratic expansion behind it is suspect; a
    UserWarning is issued in that case too.
    """

    nbar_s: float
    c2: float
    c3: float
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


def qre_gaussian(cm_0: CovarianceMatrix, cm_1: CovarianceMatrix) -> float:
    """Quantum relative entropy D(rho_0 || rho_1) in nats of zero-mean Gaussian states.

    Direct route: the numerical Williamson data of both states (the one
    construction in :mod:`covertsense.gaussian`, which shares no algebra
    with the closed forms), then the Sigma functional.  Raises
    :class:`PhysicalityError` for an unphysical state, and
    :class:`InfiniteQreError` when rho_0's support leaks out of a pure
    normal mode of rho_1.  For weak perturbations of the adversary state
    prefer :func:`willie_qre`, which evaluates the same quantity without
    cancellation.
    """
    from .gaussian import _require_physical_eigenvalues, symplectic_spectrum

    if cm_0.num_modes != cm_1.num_modes:
        raise ValueError("states must have the same number of modes")
    # Physicality is read off the spectra built here anyway, so each state
    # gets one Williamson form.
    sp0 = symplectic_spectrum(cm_0, reference=cm_0)
    _require_physical_eigenvalues(sp0.eigenvalues)
    sp1 = symplectic_spectrum(cm_1, reference=cm_0)
    _require_physical_eigenvalues(sp1.eigenvalues)
    sigma_00 = sum(
        _sigma_terms(u, d) for u, d in zip(sp0.eigenvalues, sp0.relative_diagonal)
    )
    sigma_01 = sum(
        _sigma_terms(u, d) for u, d in zip(sp1.eigenvalues, sp1.relative_diagonal)
    )
    return sigma_01 - sigma_00


def _occupation_split(scenario: SensingScenario) -> tuple[float, ...]:
    """(lambda_hi, lambda_lo, w_hi, w_lo, (lambda_hi - lambda_lo) / 2, n11,
    n22, n12) of N0, with w = (p . e)^2 the probe's weight along each
    eigenvector e.

    N0, p and the form of lambda_lo are described in
    :func:`taylor_coefficients`.  The eigenvectors are written from the
    components (m, n12), m = half_gap + |n11 - n22| / 2, so that e_lo and
    its products with p are like-signed: cos or sin of an angle near pi/2
    would lose the relative precision of a small w_lo.  w_hi may cancel,
    but only while it is negligible.  Unscaled, so that w_lo keeps its
    digits in the kernel of :func:`willie_qre` when nbar_s dwarfs the baths.
    """
    e1, e2 = scenario.eta_1, scenario.eta_2
    b1, b2 = scenario.nbar_b1, scenario.nbar_b2
    n11 = (1.0 - e1) * (1.0 - e2) * b1 + e2 * b2
    n22 = e1 * b1
    n12 = math.sqrt((1.0 - e2) * e1 * (1.0 - e1)) * b1
    # n11 / 2 + n22 / 2 rounds as (n11 + n22) / 2 does, without overflowing
    # at baths near the float range.  hi >= n11 >= e2 b2, so the ratio below
    # cannot overflow.
    half_diff = (n11 - n22) / 2.0
    half_gap = math.hypot(n12, half_diff)
    hi = n11 / 2.0 + n22 / 2.0 + half_gap
    lo = n22 * (e2 * b2 / hi) if hi > 0.0 else 0.0
    p1, p2 = math.sqrt((1.0 - e2) * e1), math.sqrt(1.0 - e1)
    if half_gap:
        # (e_hi, e_lo) ~ ((m, n12), (-n12, m)), or ((n12, m), (m, -n12))
        # once n22 > n11; each has squared norm 2 half_gap m.
        m = half_gap + abs(half_diff)
        if half_diff >= 0.0:
            q_hi, q_lo = p1 * m - p2 * n12, p1 * n12 + p2 * m
        else:
            q_hi, q_lo = p1 * n12 - p2 * m, p1 * m + p2 * n12
        w_hi = (q_hi / m) * (q_hi / (2.0 * half_gap))
        w_lo = (q_lo / m) * (q_lo / (2.0 * half_gap))
    else:
        # N0 is a multiple of the identity, and any basis serves.
        w_hi, w_lo = p1 * p1, p2 * p2
    return hi, lo, w_hi, w_lo, half_gap, n11, n22, n12


def _thermal_qre(x: float, y: float, dy: float) -> float:
    """beta(x, y) = (1+x) ln((1+y)/(1+x)) - x ln(y/x) >= 0, for y = x + dy.

    The QRE between one-mode thermal states of occupancies x and y.  The
    shift dy is passed in factored form, so it keeps its precision when it
    is far below x, and y is passed too for when dy is not.  Within
    |dy| < 0.1 x it sums the Taylor series in r = dy/x,

        beta = sum_{k>=2} (-1)^(k+1) r^k x expm1((1-k) log1p(1/x)) / k,

    with x expm1((1-k) log1p(1/x)) = -q (1 + q + ... + q^(k-2)),
    q = x/(1+x), a sum of like-signed terms at any x; 22 terms reach 1e-21
    at the edge.  Outside it beta = x (H(y) - H(x)) + ln((1+y)/(1+x)),
    H(z) = ln(1 + 1/z), with each difference of logs taken as the log of
    one ratio; the two terms cancel by at most a factor of ten.  y > 0
    unless x = 0.
    """
    if x == 0.0:
        return math.log1p(y)
    r = dy / x
    if -0.1 < r < 0.1:
        q = x / (1.0 + x)
        power = r * r
        geometric = 1.0
        total = power / 2.0
        tolerance = 1e-17 * total
        for k in _SERIES_ORDERS:
            power *= -r
            geometric = 1.0 + q * geometric
            term = power * geometric / k
            total += term
            if -tolerance <= term <= tolerance:
                break
        return q * total
    u = dy / (1.0 + x)
    t = -u / y
    if -0.5 < t < math.inf:
        h_gap = math.log1p(t)
    else:
        # 1 + t = f(x) / f(y) with f(z) = z / (1 + z) in (0, 1); its log is
        # >= ln 2 in size here, and > 709 where the quotient overflows.
        fx, fy = x / (1.0 + x), y / (1.0 + y)
        h_gap = math.log(fx / fy) if t < math.inf else math.log(fx) - math.log(fy)
    shift = math.log1p(u) if u > -0.5 else math.log((1.0 + y) / (1.0 + x))
    return x * h_gap + shift


def _adversary_qre(scenario: SensingScenario, nbar_s: float) -> float:
    """QRE of the adversary pair at signal occupancy nbar_s (may be < 0).

    Both states are passive Gaussian states with occupation matrices N0
    and N1 = N0 + nbar_s p p^T, so

        D = sum_jk |<e0_j|e1_k>|^2 beta(lambda0_j, lambda1_k)

    over their eigen-splits, a sum of non-negative terms.  The split of N1
    is the rank-one update of :func:`_occupation_split` in factored form:
    with rho = lambda_hi - lambda_lo,

        d lambda_hi = nbar_s |p|^2 / 2 + d rho / 2,
        d lambda_lo = nbar_s w_lo rho / (lambda_hi1 - lambda_lo),

    both from the secular equation, and the eigenvector rotation from the
    cross and dot products of v = (n11 - n22, 2 n12) with its shift.
    Those products are taken in units of a power of two near the largest
    entry, so that no two bath-sized numbers are multiplied.  A pair whose
    beta needs an eigenvalue of N1 that underflows is refused with
    :class:`DomainError`.

    :func:`willie_qre` passes nbar_s >= 0.  A slightly negative nbar_s is
    accepted for the finite-difference reference of the test suite while
    N1 stays positive definite, and refused with :class:`DomainError` when
    it does not.
    """
    if nbar_s == 0.0:
        return 0.0
    e1, e2 = scenario.eta_1, scenario.eta_2
    hi, lo, _, w_lo, half_gap, n11, n22, n12 = _occupation_split(scenario)
    p1_sq, p2_sq = (1.0 - e2) * e1, 1.0 - e1
    p1, p2 = math.sqrt(p1_sq), math.sqrt(p2_sq)
    # Entries in units of a power of two that brings the largest of them
    # (|dN| <= |nbar_s|) into [2, 4): an exact scaling, by a normal number,
    # so that no product of two bath-sized numbers overflows.
    exponent = math.frexp(max(n11, n22, n12, abs(nbar_s)))[1]
    scale = math.ldexp(1.0, min(2 - exponent, 1023))
    d0, a0 = (n11 - n22) * scale, 2.0 * n12 * scale
    dd, da = (p1_sq - p2_sq) * nbar_s * scale, -2.0 * p1 * p2 * nbar_s * scale
    d1, a1 = d0 + dd, a0 + da
    r0, r1 = math.hypot(d0, a0), math.hypot(d1, a1)
    rho, rho1 = 2.0 * half_gap, r1 / scale
    # rho1 - rho through rho1^2 - rho^2 = dv . (v0 + v1), exact to first order.
    d_rho = (dd * (d0 + d1) + da * (a0 + a1)) / (r0 + r1) / scale if r0 + r1 else 0.0
    trace_shift = (p1_sq + p2_sq) * nbar_s
    d_hi = trace_shift / 2.0 + d_rho / 2.0
    d_lo = 0.0
    if half_gap:
        # lambda_hi1 - lambda_lo = (rho + rho1 + nbar_s |p|^2) / 2, like-signed,
        # is at least nbar_s w_lo / 2, so the quotient cannot overflow.
        d_lo = nbar_s * w_lo / (half_gap + rho1 / 2.0 + trace_shift / 2.0) * rho
    hi1, lo1 = hi + d_hi, lo + d_lo
    # sin^2 of the rotation between the eigenbases, half the angle from v0
    # to v1: cross^2 / (2 (1 + cos)) while cos >= 0 would cancel otherwise;
    # (1 - cos) / 2 once the axes swap (cos < 0, e.g. nbar_s > nbar_b at
    # equal baths).
    swap = 0.0
    if r0 and r1:
        sin2 = (d0 * da - a0 * dd) / r0 / r1
        cos2 = (d0 * d1 + a0 * a1) / r0 / r1
        swap = sin2 * sin2 / (2.0 * (1.0 + cos2)) if cos2 >= 0.0 else (1.0 - cos2) / 2.0
    # A mode of N1 that the probe does not reach may be pure (lo1 = 0 < hi);
    # it then has swap = 0.  Otherwise beta needs lo1 > 0.
    if lo1 <= 0.0 and (nbar_s < 0.0 or swap):
        cause = "unphysical" if nbar_s < 0.0 else "below double precision"
        raise DomainError(
            f"perturbed adversary state {cause} at nbar_s = {nbar_s!r} "
            f"(occupation eigenvalue {lo1!r})"
        )
    total = (1.0 - swap) * (_thermal_qre(hi, hi1, d_hi) + _thermal_qre(lo, lo1, d_lo))
    if swap:
        total += swap * (
            _thermal_qre(hi, lo1, d_lo - rho) + _thermal_qre(lo, hi1, d_hi + rho)
        )
    return total


def willie_qre(scenario: SensingScenario, nbar_s: float) -> float:
    """QRE (nats) between the adversary's states without and with the probe.

    Both states are passive Gaussian states, with mode-occupation matrices
    N0 and N1 = N0 + nbar_s p p^T (see :func:`taylor_coefficients`), so

        D = sum_jk |<e0_j|e1_k>|^2 beta(lambda0_j, lambda1_k),
        beta(x, y) = (1+x) ln((1+y)/(1+x)) - x ln(y/x) >= 0,

    over the eigenvalues lambda and eigenvectors e of N0 and N1.  Every term
    is non-negative, so the sum does not cancel, and each beta is evaluated
    from its shift y - x in factored form: D keeps its relative precision
    when it is ten or more orders of magnitude below the entropies, for any
    taps in [0, 1] and occupancies up to the float range, vacuum baths
    included (where D = log1p(nbar_s |p|^2)).  Raises ``ValueError`` for an
    nbar_s that is negative, NaN or infinite.

    The target phase does not enter: it only rotates correlations inside the
    adversary state, leaving every symplectic invariant unchanged (this is
    verified, not assumed, by the test suite against :func:`qre_gaussian` at
    many phases).
    """
    check_occupancy("nbar_s", nbar_s)
    return _adversary_qre(scenario, nbar_s)


def _equal_bath_n0(eta_eff: float, nbar_b: float) -> float:
    """N0 = eta_eff nbar_b, refusing an eta_eff outside [0, 1] or a bath
    that is negative, NaN or infinite."""
    if not 0.0 <= eta_eff <= 1.0:
        raise ValueError(f"eta_eff must lie in [0, 1], got {eta_eff}")
    check_occupancy("nbar_b", nbar_b)
    return eta_eff * nbar_b


def equal_bath_qre(eta_eff: float, nbar_b: float, nbar_s: float) -> float:
    """Closed-form QRE for equal baths (single-mode thermal pair reduction).

    Valid whenever nbar_b1 = nbar_b2 = nbar_b, for any factorisation of
    eta_eff into the two taps.  N0 = eta_eff nbar_b, N1 = N0 +
    (1 - eta_eff) nbar_s.
    """
    n0 = _equal_bath_n0(eta_eff, nbar_b)
    check_occupancy("nbar_s", nbar_s)
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
    n0 = _equal_bath_n0(eta_eff, nbar_b)
    if n0 <= 0.0:
        raise DomainError(
            "quadratic expansion needs a strictly thermal effective bath "
            "(eta_eff * nbar_b > 0)"
        )
    return (1.0 - eta_eff) ** 2 / (n0 * (1.0 + n0))


def equal_bath_c3(eta_eff: float, nbar_b: float) -> float:
    """Closed-form cubic QRE coefficient for equal baths."""
    n0 = _equal_bath_n0(eta_eff, nbar_b)
    if n0 <= 0.0:
        raise DomainError(
            "cubic expansion needs a strictly thermal effective bath "
            "(eta_eff * nbar_b > 0)"
        )
    return -2.0 * (1.0 - eta_eff) ** 3 * (1.0 + 2.0 * n0) / (n0 * (1.0 + n0)) ** 2


def _h_slope(a: float, b: float) -> float:
    """-H[a, b], the first divided difference of H(x) = ln(1 + 1/x), negated.

    Positive, since H falls; -H[lambda_j, lambda_k] is the
    Bogoliubov-Kubo-Mori weight of c2.

    H(b) - H(a) = -log1p(x) with x = (b - a) / (a (1 + b)), so the quotient
    log1p(x)/x keeps full precision at a gap of any size, and x = 0 gives
    the confluent value -H'(a) = 1 / (a (1 + a)).
    """
    x = (b - a) / (a * (1.0 + b))
    return (math.log1p(x) / x if x else 1.0) / (a * (1.0 + b))


def _h_curvature(a: float, b: float) -> float:
    """H[a, a, b], the confluent second divided difference of H; positive.

    Within |b - a| < 0.1 a it sums the Taylor series of H about a, with
    H^(k)(a) / k! = (-1)^(k-1) ((1 + a)^-k - a^-k) / k and the bracket
    written as a^-k expm1(-k log1p(1/a)), which keeps its precision for
    a >> 1 too; 22 terms reach 1e-21 at the edge.  Outside it the
    difference quotient loses at most a factor of ten.
    """
    t = (b - a) / a
    if abs(t) >= 0.1:
        return (_h_slope(a, a) - _h_slope(a, b)) / (b - a)
    r = math.log1p(1.0 / a)
    terms = range(2, 24 if t else 3)  # at t = 0 only k = 2 contributes
    return sum(-math.expm1(-k * r) * (-t) ** (k - 2) / k for k in terms) / (a * a)


def taylor_coefficients(scenario: SensingScenario) -> TaylorCoefficients:
    """Quadratic and cubic coefficients of D(nbar_s) about nbar_s = 0, exact.

    Both adversary states are passive (gauge-invariant) Gaussian states,
    rho ~ exp(-a^dagger H(N) a) with the mode-occupation matrix N and
    H(x) = ln(1 + 1/x), so up to a constant

        D(nbar_s) = tr[(1 + N0) ln(1 + N0 + nbar_s P)] - tr[N0 ln(N0 + nbar_s P)]

    where N0 = M diag(nbar_b1, nbar_b2) M^T is the reference state and the
    probe adds the rank-one P = p p^T, p = (sqrt((1-eta_2) eta_1),
    -sqrt(1-eta_1)).  With lambda_j the eigenvalues of N0 and q_j the
    components of p along its eigenvectors, the Daleckii-Krein calculus
    (Bhatia, Matrix Analysis, ch. V) gives

        c2 = -sum_jk q_j^2 q_k^2 H[lambda_j, lambda_k]
        c3 = -4 sum_jkl q_j^2 q_k^2 q_l^2 H[lambda_j, lambda_k, lambda_l]

    in divided differences of H.  All terms of each sum share one sign, so
    the sums do not cancel; with equal baths they reduce to
    :func:`equal_bath_c2` and :func:`equal_bath_c3`.  N0 is built from
    the taps and baths directly rather than as the covariance matrix minus
    1/2, and its smaller eigenvalue as det N0 / lambda_max with
    det N0 = eta_1 eta_2 nbar_b1 nbar_b2, so weak baths keep their
    relative precision.

    Raises :class:`DomainError` when the reference state has a (near-)pure
    normal mode, lambda_min <= 1e-12 (vacuum baths: D is not twice
    differentiable at 0).  Raises :class:`DegenerateCovertnessError` for
    an identity channel (both taps fully transmissive), decided on the
    taps: the adversary state does not respond to the probe and c2 = 0.
    Any other c2 is exact, however small, and is refused with
    :class:`DomainError` only when it underflows to a subnormal or zero.
    """
    c2, hi, lo, w_hi, w_lo = _taylor_c2(scenario)
    mixed = w_hi * _h_curvature(hi, lo) + w_lo * _h_curvature(lo, hi)
    c3 = -4.0 * (
        w_hi**3 * _h_curvature(hi, hi)
        + w_lo**3 * _h_curvature(lo, lo)
        + 3.0 * w_hi * w_lo * mixed
    )
    return TaylorCoefficients(c2=c2, c3=c3)


def _taylor_c2(scenario: SensingScenario) -> tuple[float, float, float, float, float]:
    """(c2, lambda_hi, lambda_lo, w_hi, w_lo): the quadratic coefficient of
    :func:`taylor_coefficients` and the eigen-split it is built from.

    The one route to c2, with all of its refusals; callers that need no c3
    (the link layer) stop here.
    """
    hi, lo, w_hi, w_lo, *_ = _occupation_split(scenario)
    if lo <= 1e-12:
        raise DomainError(
            "quadratic expansion needs a strictly thermal adversary reference "
            "state; a tap sees (near-)vacuum here"
        )
    # w = q^2 along each eigenvector.
    c2 = (
        w_hi * w_hi * _h_slope(hi, hi)
        + w_lo * w_lo * _h_slope(lo, lo)
        + 2.0 * w_hi * w_lo * _h_slope(lo, hi)
    )
    if scenario.is_identity_channel:
        raise DegenerateCovertnessError(
            f"quadratic covertness coefficient {c2:.3e} is at the noise floor; "
            "the adversary state does not respond to the probe "
            "(identity channel?)"
        )
    if c2 < sys.float_info.min:
        raise DomainError(
            f"quadratic covertness coefficient {c2:.3e} underflows double "
            "precision at these bath occupancies"
        )
    return c2, hi, lo, w_hi, w_lo


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
    check_positive("epsilon", epsilon)
    n = channel_uses(num_modes)
    coefficients = taylor_coefficients(scenario)
    c2, c3 = coefficients.c2, coefficients.c3
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
    return CovertBudget(nbar_s=nbar_s, c2=c2, c3=c3, in_taylor_regime=in_regime)


def willie_error_lower_bound(c2: float, num_modes: float, nbar_s: float) -> float:
    """Adversary error-probability lower bound 1/2 - (sqrt(c2)/4) sqrt(n) nbar_s.

    At the covert budget this is exactly 1/2 - epsilon.  Values <= 0 are
    vacuous (the probe is not covert at this strength).  Raises
    ``ValueError`` for a ``c2`` or ``nbar_s`` that is negative, NaN or infinite.
    """
    check_occupancy("c2", c2)
    check_occupancy("nbar_s", nbar_s)
    n = channel_uses(num_modes)
    return 0.5 - (math.sqrt(c2) / 4.0) * math.sqrt(n) * nbar_s
