"""Reference values the benchmark checks the program against.

Each function here is an independent route to a number the program
computes another way: closed forms where the program differentiates
numerically, a quadrature where the program samples, and the physical
link formulas restated from their definitions.
"""

from __future__ import annotations

import math

import numpy as np

PLANCK_H = 6.62607015e-34
SPEED_OF_LIGHT = 299792458.0
BOLTZMANN_K = 1.380649e-23


def equal_bath_c_ase(eta: float, nbar_b: float) -> float:
    """c_ase of the equal-bath round trip with single-pass transmissivity eta.

    (1 + 2b(1 - eta^2)) sqrt(c2(eta^2, b)) / (16 eta^2), where
    c2(e, b) = (1 - e)^2 / (e b (1 + e b)) is the closed-form quadratic
    relative-entropy coefficient of the single-mode thermal pair.
    """
    e = eta * eta
    n0 = e * nbar_b
    c2 = (1.0 - e) ** 2 / (n0 * (1.0 + n0))
    return (1.0 + 2.0 * nbar_b * (1.0 - e)) * math.sqrt(c2) / (16.0 * e)


def planck_occupancy(wavelength: float, t0: float) -> float:
    """Blackbody photons per mode, 1 / (exp(h c / (lambda k T0)) - 1)."""
    return 1.0 / math.expm1(PLANCK_H * SPEED_OF_LIGHT / (wavelength * BOLTZMANN_K * t0))


def link_eta(
    wavelength: float,
    range_m: float,
    area_factor: float,
    eta_policy: str,
    *,
    r_t: float = 0.04,
    r_target: float = 0.10,
    eta_max: float = 0.99,
) -> float | None:
    """Far-field single-pass transmissivity; None where the link is near-field.

    Under the ``clamp`` policy a near-field point saturates at ``eta_max``.
    """
    eta = (
        area_factor
        * (math.pi * r_t**2)
        * (math.pi * r_target**2)
        / (wavelength * range_m) ** 2
    )
    if eta <= 1.0:
        return eta
    return eta_max if eta_policy == "clamp" else None


def arctan_mse(sigma_sq: float) -> float:
    """Exact mean-square error of the two-quadrature arctangent estimator.

    The quadratures are (cos theta, sin theta) plus independent normal
    noise of variance ``sigma_sq`` each.  The error angle phi in (-pi, pi]
    then has the density of the phase of a unit phasor in complex Gaussian
    noise, with g = 1 / (2 sigma_sq):

        p(phi) = [exp(-g) + sqrt(pi g) cos(phi) exp(-g sin^2 phi)
                  erfc(-sqrt(g) cos(phi))] / (2 pi),

    and the MSE is the integral of phi^2 p(phi), here by composite
    Gauss-Legendre quadrature on panels that resolve the peak of width
    sqrt(sigma_sq).  For small sigma_sq the MSE is sigma_sq (1 + sigma_sq)
    to leading orders, not sigma_sq.
    """
    g = 1.0 / (2.0 * sigma_sq)
    width = math.sqrt(sigma_sq)
    edges = [0.0] + [k * width for k in (0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0, 12.0)]
    edges = [edge for edge in edges if edge < math.pi] + [math.pi]
    panels = np.concatenate(
        [np.linspace(a, b, 9)[:-1] for a, b in zip(edges[:-1], edges[1:])] + [[math.pi]]
    )
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half = np.diff(panels)[:, None] / 2.0
    phi = (panels[:-1, None] + half * (nodes[None, :] + 1.0)).ravel()
    w = (half * weights[None, :]).ravel()
    cos_phi = np.cos(phi)
    erfc = np.array([math.erfc(x) for x in -math.sqrt(g) * cos_phi])
    density = (
        math.exp(-g)
        + math.sqrt(math.pi * g) * cos_phi * np.exp(-g * np.sin(phi) ** 2) * erfc
    ) / (2.0 * math.pi)
    return 2.0 * float(np.sum(w * phi * phi * density))


def total_cutoff(
    occupancies: list[float], tail_bound: float = 1e-10, cap: int = 64
) -> int:
    """Smallest total-photon cutoff whose joint thermal tail is <= tail_bound.

    The inputs are independent thermal modes; their total photon number
    has the convolution of geometric distributions.  Returns cap + 1 when
    the cap does not reach the bound.
    """
    k = np.arange(cap + 1)
    pmf = np.array([1.0])
    for nbar in occupancies:
        ratio = nbar / (1.0 + nbar)
        pmf = np.convolve(pmf, np.power(ratio, k) / (1.0 + nbar))
    tails = 1.0 - np.cumsum(pmf[: cap + 1])
    hits = np.nonzero(tails <= tail_bound)[0]
    return int(hits[0]) if hits.size else cap + 1
