"""The tapped two-way sensing channel and its Gaussian states.

Geometry: an interrogator (Alice) sends a weak thermal signal beam at a
phase target and keeps a strong correlated reference (local oscillator).
An adversary (Willie) controls both the forward and the return path,
modelled as two beam splitters of transmissivities eta_1 (forward) and
eta_2 (return); through each tap Willie injects his own thermal bath
(occupancies nbar_b1, nbar_b2) and keeps the reflected port.  The target
imprints a phase theta between the two taps.

Mode bookkeeping for the 4-mode global pure-loss circuit
(qqpp CM, see :mod:`covertsense.gaussian`):

    0: Willie's return-path tap output (his bath nbar_b2 enters here)
    1: Willie's forward-path tap output (his bath nbar_b1 enters here)
    2: the signal mode (sent, phase-shifted, returned)
    3: Alice's retained reference

From Alice's point of view the two taps compose into a single thermal-loss
channel with transmissivity eta_eff = eta_1 * eta_2 and effective bath
occupancy nbar_b_eff = ((1-eta_1) eta_2 nbar_b1 + (1-eta_2) nbar_b2)
/ (1 - eta_eff); the identity channel (eta_1 = eta_2 = 1) has
nbar_b_eff = 0 by convention.

``build_global_cm`` composes the beam-splitter/phase circuit and verifies
its own output against the closed-form Willie and Alice blocks at 1e-12;
the closed forms and the circuit are therefore independent routes to the
same states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    CovarianceMatrix,
    apply_beam_splitter,
    apply_phase,
    ase_two_mode_cm,
    reduced,
    tensor,
    thermal_cm,
)

__all__ = [
    "SensingScenario",
    "ProbeSettings",
    "wrap_angle",
    "effective_channel",
    "willie_cm",
    "alice_cm",
    "build_global_cm",
]


def check_occupancy(name: str, value: float) -> None:
    """Refuse a mean photon number that is negative, NaN or infinite."""
    # A chained comparison rather than "< 0" so NaN is rejected too.
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")


def wrap_angle(x: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    r = math.fmod(x + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


@dataclass(frozen=True)
class SensingScenario:
    """Adversary-controlled two-way channel parameters.

    eta_1, eta_2 are the forward/return tap transmissivities in [0, 1];
    nbar_b1, nbar_b2 the corresponding injected bath occupancies (>= 0).
    """

    eta_1: float
    eta_2: float
    nbar_b1: float
    nbar_b2: float

    def __post_init__(self) -> None:
        for name in ("eta_1", "eta_2"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in ("nbar_b1", "nbar_b2"):
            check_occupancy(name, getattr(self, name))

    @property
    def eta_eff(self) -> float:
        """Round-trip transmissivity of the composed channel."""
        return self.eta_1 * self.eta_2

    @property
    def nbar_b_eff(self) -> float:
        """Bath occupancy of the composed thermal-loss channel."""
        if self.is_identity_channel:
            return 0.0
        return (
            (1.0 - self.eta_1) * self.eta_2 * self.nbar_b1
            + (1.0 - self.eta_2) * self.nbar_b2
        ) / (1.0 - self.eta_eff)

    @property
    def is_identity_channel(self) -> bool:
        """True when both taps are fully transmissive (nothing leaks)."""
        return self.eta_1 == 1.0 and self.eta_2 == 1.0


@dataclass(frozen=True)
class ProbeSettings:
    """Alice's probe: signal occupancy, reference occupancy, target phase.

    ``theta`` is normalised into (-pi, pi] on construction.
    """

    nbar_s: float
    nbar_lo: float
    theta: float

    def __post_init__(self) -> None:
        check_occupancy("nbar_s", self.nbar_s)
        check_occupancy("nbar_lo", self.nbar_lo)
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


def effective_channel(scenario: SensingScenario) -> tuple[float, float]:
    """(eta_eff, nbar_b_eff) of the composed round-trip channel."""
    return scenario.eta_eff, scenario.nbar_b_eff


def _sensing_pattern_cm(
    v11: float, v22: float, v12: float, theta: float
) -> CovarianceMatrix:
    """Two-mode CM of the phase-rotated sensing form (see gaussian module)."""
    c, s = math.cos(theta), math.sin(theta)
    m = np.array(
        [
            [v11, -v12 * c, 0.0, v12 * s],
            [-v12 * c, v22, -v12 * s, 0.0],
            [0.0, -v12 * s, v11, -v12 * c],
            [v12 * s, 0.0, -v12 * c, v22],
        ]
    )
    return CovarianceMatrix.from_array(m)


def _willie_params(
    scenario: SensingScenario, nbar_s: float
) -> tuple[float, float, float]:
    e1, e2 = scenario.eta_1, scenario.eta_2
    b1, b2 = scenario.nbar_b1, scenario.nbar_b2
    w11 = (1.0 - e2) * e1 * nbar_s + (1.0 - e1) * (1.0 - e2) * b1 + e2 * b2 + 0.5
    w22 = e1 * b1 + (1.0 - e1) * nbar_s + 0.5
    w12 = math.sqrt((1.0 - e2) * e1 * (1.0 - e1)) * (b1 - nbar_s)
    return w11, w22, w12


def willie_cm(
    scenario: SensingScenario, nbar_s: float, theta: float
) -> CovarianceMatrix:
    """Closed-form CM of the adversary's two tap outputs.

    Mode order: (return-path tap, forward-path tap).  The target phase
    only rotates the correlations between the taps; all symplectic
    invariants of this state are theta-independent.
    """
    check_occupancy("nbar_s", nbar_s)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    w11, w22, w12 = _willie_params(scenario, nbar_s)
    return _sensing_pattern_cm(w11, w22, w12, theta)


def alice_cm(scenario: SensingScenario, probe: ProbeSettings) -> CovarianceMatrix:
    """Closed-form CM of Alice's (returned signal, reference) pair."""
    eta_eff, nbar_be = effective_channel(scenario)
    a11 = eta_eff * probe.nbar_s + (1.0 - eta_eff) * nbar_be + 0.5
    a22 = probe.nbar_lo + 0.5
    a12 = -math.sqrt(eta_eff * probe.nbar_s * probe.nbar_lo)
    return _sensing_pattern_cm(a11, a22, a12, probe.theta)


def build_global_cm(
    scenario: SensingScenario,
    probe: ProbeSettings,
    *,
    block_check_tol: float = 1e-12,
) -> CovarianceMatrix:
    """Compose the full 4-mode circuit and return the global CM.

    Circuit: thermal baths (nbar_b2, nbar_b1) and the split thermal source
    (signal, reference) are interleaved as modes (0, 1, 2, 3); the forward
    tap mixes (1, 2) at eta_1, the target phase acts on mode 2, the return
    tap mixes (0, 2) at eta_2.

    Post-condition (checked, AssertionError on failure): the reduced states
    of modes (0, 1) and (2, 3) match :func:`willie_cm` and :func:`alice_cm`
    entrywise to ``block_check_tol`` relative to the largest entry.
    """
    baths = thermal_cm([scenario.nbar_b2, scenario.nbar_b1])
    source = ase_two_mode_cm(probe.nbar_s, probe.nbar_lo)
    cm = tensor(baths, source)
    cm = apply_beam_splitter(cm, 1, 2, scenario.eta_1)
    cm = apply_phase(cm, 2, probe.theta)
    cm = apply_beam_splitter(cm, 0, 2, scenario.eta_2)

    w_expect = willie_cm(scenario, probe.nbar_s, probe.theta).matrix
    a_expect = alice_cm(scenario, probe).matrix
    w_got = reduced(cm, [0, 1]).matrix
    a_got = reduced(cm, [2, 3]).matrix
    scale = max(1.0, float(np.abs(cm.matrix).max()))
    w_err = float(np.abs(w_got - w_expect).max())
    a_err = float(np.abs(a_got - a_expect).max())
    if max(w_err, a_err) > block_check_tol * scale:
        raise AssertionError(
            "circuit output disagrees with closed-form blocks: "
            f"adversary residual {w_err:.3e}, interrogator residual {a_err:.3e}"
        )
    return cm
