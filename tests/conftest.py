"""Shared test configuration.

Registers a hypothesis profile suited to numerical property tests (no
deadline: BLAS warm-up and cache effects make per-example timing
meaningless) and prints a one-line PASS/FAIL verdict per acceptance
criterion after the run, collected from the ``test_criterion_*`` tests.
Also holds ``_exact_arctan_mse``, the quadrature reference for the
Monte-Carlo estimator that the acceptance and estimation tests share.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def _exact_arctan_mse(sigma_sq: float) -> float:
    """Exact MSE of atan2(sin t + Z_Q, cos t + Z_I) - t, Z ~ N(0, sigma_sq).

    The error angle phi has the phase density of a unit phasor in complex
    Gaussian noise at signal-to-noise ratio rho = 1 / (2 sigma_sq):

        p(phi) = [exp(-rho) + sqrt(pi rho) cos(phi) exp(-rho sin^2 phi)
                  erfc(-sqrt(rho) cos(phi))] / (2 pi).

    The MSE is twice the integral of phi^2 p(phi) over [0, pi], here by
    20-point Gauss-Legendre panels: half a standard deviation wide out to
    16 standard deviations, then eight panels over the rest of the range.
    """
    rho = 1.0 / (2.0 * sigma_sq)
    sigma = math.sqrt(sigma_sq)
    near = np.arange(0.0, min(16.0 * sigma, math.pi), 0.5 * sigma)
    edges = np.concatenate([near, np.linspace(near[-1], math.pi, 9)[1:]])
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = np.diff(edges)[:, None] / 2.0
    phi = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    cos_phi = np.cos(phi)
    density = (
        math.exp(-rho)
        + math.sqrt(math.pi * rho)
        * cos_phi
        * np.exp(-rho * np.sin(phi) ** 2)
        * scipy.special.erfc(-math.sqrt(rho) * cos_phi)
    ) / (2.0 * math.pi)
    return 2.0 * float(np.sum((half * weights).ravel() * phi**2 * density))


_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        _criterion_outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # setup failures/skips never reach "call"
        _criterion_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    words = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    terminalreporter.section("acceptance criteria")
    for name in sorted(_criterion_outcomes):
        outcome = _criterion_outcomes[name]
        word = words.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{word}  {name}")
