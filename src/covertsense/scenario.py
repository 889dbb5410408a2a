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

The records and closed-form parameters need only :mod:`math`; the CM
builders import :mod:`covertsense.gaussian` (and so numpy) when they run,
which keeps numpy off the import path of the closed-form layer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

if TYPE_CHECKING:
    from .gaussian import CovarianceMatrix

__all__ = [
    "SensingScenario",
    "ProbeSettings",
    "wrap_angle",
    "willie_cm",
    "alice_cm",
    "build_global_cm",
]


#: Largest entrywise disagreement, relative to the largest entry, between
#: the circuit's reduced blocks and the closed forms in ``build_global_cm``.
_BLOCK_CHECK_TOL = 1e-12


def check_positive(name: str, value: float) -> None:
    """Refuse a quantity that is not in (0, inf), NaN included."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_occupancy(name: str, value: float) -> None:
    """Refuse a mean photon number that is negative, NaN or infinite."""
    # A chained comparison rather than "< 0" so NaN is rejected too.
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")


def check_integer(name: str, value: int) -> None:
    """Refuse a count that is not an ``int`` or numpy integer, or is a ``bool``."""
    # Imported here, so that only the runs that take a count load it.
    import numbers

    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def validated_make(cls: type, iterable: Iterable[Any]) -> Any:
    """``_make`` for a record that validates in ``__new__``.

    The NamedTuple ``_make`` builds the tuple directly, and ``_replace``
    builds through ``_make``; this routes both through ``__new__``.
    """
    return cls(*iterable)


def check_angle(name: str, value: float) -> float:
    """``value`` wrapped to (-pi, pi]; refuse an angle that is NaN or infinite.

    One inside the interval comes back as given, and ``math.remainder`` is
    exact, so no angle picks up a rounding error.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    r = math.remainder(value, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


def wrap_angle(x: float) -> float:
    """Wrap a finite angle to the interval (-pi, pi] (see :func:`check_angle`)."""
    return check_angle("angle", x)


class _ScenarioFields(NamedTuple):
    eta_1: float
    eta_2: float
    nbar_b1: float
    nbar_b2: float


class SensingScenario(_ScenarioFields):
    """Adversary-controlled two-way channel parameters.

    eta_1, eta_2 are the forward/return tap transmissivities in [0, 1];
    nbar_b1, nbar_b2 the corresponding injected bath occupancies (>= 0).
    Every construction path validates: the constructor, ``_make`` and
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> SensingScenario:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("eta_1", "eta_2"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in ("nbar_b1", "nbar_b2"):
            check_occupancy(name, getattr(self, name))
        return self

    _make = classmethod(validated_make)

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


class _ProbeFields(NamedTuple):
    nbar_s: float
    nbar_lo: float
    theta: float


class ProbeSettings(_ProbeFields):
    """Alice's probe: signal occupancy, reference occupancy, target phase.

    ``theta`` is normalised into (-pi, pi] on construction, by the
    constructor, ``_make`` and ``_replace`` alike.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> ProbeSettings:
        self = super().__new__(cls, *args, **kwargs)
        check_occupancy("nbar_s", self.nbar_s)
        check_occupancy("nbar_lo", self.nbar_lo)
        theta = check_angle("theta", self.theta)
        return super().__new__(cls, self.nbar_s, self.nbar_lo, theta)

    _make = classmethod(validated_make)


def _sensing_pattern(
    v11: float, v22: float, v12: float, theta: float
) -> list[list[float]]:
    """Entries of the phase-rotated two-mode sensing form.

    Both hypothesis states of the adversary and the interrogator's state
    have this form (qqpp ordering, see the :mod:`covertsense.gaussian`
    conventions):

        [[ v11, -v12*cos(t),  0,          v12*sin(t)],
         [-v12*cos(t),  v22, -v12*sin(t), 0         ],
         [ 0,  -v12*sin(t),  v11,        -v12*cos(t)],
         [ v12*sin(t), 0,   -v12*cos(t),  v22       ]]

    Symmetrised as (V + V^T)/2 exactly as ``CovarianceMatrix.from_array``
    does it, so these are the floats of the CM, signed zeros included, and
    an entry whose double overflows reads inf here as it does there.
    """
    c, s = math.cos(theta), math.sin(theta)
    m = [
        [v11, -v12 * c, 0.0, v12 * s],
        [-v12 * c, v22, -v12 * s, 0.0],
        [0.0, -v12 * s, v11, -v12 * c],
        [v12 * s, 0.0, -v12 * c, v22],
    ]
    return [[(a + b) / 2.0 for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]


def _sensing_pattern_cm(layout: list[list[float]]) -> CovarianceMatrix:
    """The CM holding a layout from :func:`_sensing_pattern`.

    The layout is symmetric already, so it is wrapped as it stands rather
    than symmetrised a second time by ``CovarianceMatrix.from_array``.
    """
    import numpy as np

    from .gaussian import CovarianceMatrix

    matrix = np.array(layout)
    matrix.flags.writeable = False
    return CovarianceMatrix(matrix=matrix, num_modes=2)


def _willie_params(
    scenario: SensingScenario, nbar_s: float
) -> tuple[float, float, float]:
    e1, e2 = scenario.eta_1, scenario.eta_2
    b1, b2 = scenario.nbar_b1, scenario.nbar_b2
    w11 = (1.0 - e2) * e1 * nbar_s + (1.0 - e1) * (1.0 - e2) * b1 + e2 * b2 + 0.5
    w22 = e1 * b1 + (1.0 - e1) * nbar_s + 0.5
    w12 = math.sqrt((1.0 - e2) * e1 * (1.0 - e1)) * (b1 - nbar_s)
    return w11, w22, w12


def _willie_layout(
    scenario: SensingScenario, nbar_s: float, theta: float
) -> list[list[float]]:
    """Entries of ``willie_cm(scenario, nbar_s, theta).matrix`` as nested lists."""
    check_occupancy("nbar_s", nbar_s)
    # The one angle rule refuses a non-finite theta; the layout is built
    # from theta as given, unwrapped, so its entries keep their bits.
    check_angle("theta", theta)
    w11, w22, w12 = _willie_params(scenario, nbar_s)
    return _sensing_pattern(w11, w22, w12, theta)


def willie_cm(
    scenario: SensingScenario, nbar_s: float, theta: float
) -> CovarianceMatrix:
    """Closed-form CM of the adversary's two tap outputs.

    Mode order: (return-path tap, forward-path tap).  The target phase
    only rotates the correlations between the taps; all symplectic
    invariants of this state are theta-independent.
    """
    return _sensing_pattern_cm(_willie_layout(scenario, nbar_s, theta))


def alice_cm(scenario: SensingScenario, probe: ProbeSettings) -> CovarianceMatrix:
    """Closed-form CM of Alice's (returned signal, reference) pair."""
    eta_eff = scenario.eta_eff
    a11 = eta_eff * probe.nbar_s + (1.0 - eta_eff) * scenario.nbar_b_eff + 0.5
    a22 = probe.nbar_lo + 0.5
    a12 = -math.sqrt(eta_eff * probe.nbar_s * probe.nbar_lo)
    return _sensing_pattern_cm(_sensing_pattern(a11, a22, a12, probe.theta))


def build_global_cm(
    scenario: SensingScenario, probe: ProbeSettings
) -> CovarianceMatrix:
    """Compose the full 4-mode circuit and return the global CM.

    Circuit: thermal baths (nbar_b2, nbar_b1) and the split thermal source
    (signal, reference) are interleaved as modes (0, 1, 2, 3); the forward
    tap mixes (1, 2) at eta_1, the target phase acts on mode 2, the return
    tap mixes (0, 2) at eta_2.

    Post-condition (checked, AssertionError on failure): the reduced states
    of modes (0, 1) and (2, 3) match :func:`willie_cm` and :func:`alice_cm`
    entrywise to 1e-12 relative to the largest entry.
    """
    import numpy as np

    from .gaussian import (
        apply_beam_splitter,
        apply_phase,
        ase_two_mode_cm,
        reduced,
        tensor,
        thermal_cm,
    )

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
    if max(w_err, a_err) > _BLOCK_CHECK_TOL * scale:
        raise AssertionError(
            "circuit output disagrees with closed-form blocks: "
            f"adversary residual {w_err:.3e}, interrogator residual {a_err:.3e}"
        )
    return cm
