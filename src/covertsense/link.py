"""Free-space link budget: from geometry and wavelength to bound spectra.

Maps a monostatic free-space geometry (range ``L``, transceiver pupil
radius ``r_t``, target radius ``r_T``, ambient temperature ``T0``) to the
equal-bath sensing scenario it induces at a given wavelength:

* diffraction-limited power transmissivity
  ``eta = area_factor * (pi r_t^2)(pi r_T^2) / (lambda L)^2``,
  the same for the forward and return pass, so ``eta_eff = eta^2``;
* blackbody background occupancy per mode from the Planck law at ``T0``;
* the covert-probe MSE bound coefficient ``c_ase`` of that scenario, its
  spectrum over a frequency band, the wavelength minimizing it, and the
  resulting bound ``B = c_ase / (eps sqrt(floor(W T)))``.

Conventions worth stating up front:

* Frequency means optical frequency ``f = c / lambda`` (hertz).
* The raw transmissivity formula is a far-field expression and exceeds 1
  at short range; ``eta_policy`` decides whether that raises
  NearFieldError (``"error"``) or saturates at ``eta_max`` (``"clamp"``).
* ``area_factor`` selects among effective-aperture conventions for soft
  (Gaussian-profile) pupils: 1 for bare geometric areas, 1/2 and 1/4 for
  the conventions where one or both apertures contribute half their
  geometric area.  The default is 1/4, under which the band of interest
  is far-field for kilometer ranges and the bound spectra have genuine
  interior minima; ``reproduce_paper_report`` sweeps all conventions.

Vacuum propagation throughout: no atmospheric extinction or turbulence.

Cost conventions: a link point needs only the quadratic covertness
coefficient c2, so it never computes c3.  ``optimize_wavelength`` and
``reproduce_paper_report`` search one objective, built by ``_objective``;
the report evaluates each distinct ``(eta, nbar_b)`` once per call, since
the ``"error"`` and ``"clamp"`` policies share every far-field point.  A
sweep's points come as a stream, so ``sweep_frequency`` holds one list,
of its rows.  Every link path except ``sweep_frequency`` carries its
points as the ``NamedTuple`` ``_LinkPoint``; ``SweepRow``, the frozen
dataclass that ``sweep_frequency`` returns, is defined in
``covertsense._sweep_row`` and loaded on first access, so importing this
module loads no :mod:`dataclasses`.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._constants import BOLTZMANN_K, PLANCK_H, SPEED_OF_LIGHT
from .covertness import _taylor_c2
from .errors import DomainError, EmptySweepError, NearFieldError
from .estimation import qcrb_ase
from .scenario import SensingScenario, check_integer, check_positive, validated_make

if TYPE_CHECKING:
    from collections.abc import Iterator

    from ._sweep_row import SweepRow

__all__ = [
    "LinkGeometry",
    "SweepRow",
    "SweepMinimum",
    "TargetResult",
    "ConventionResult",
    "ReproduceReport",
    "planck_occupancy",
    "geometric_transmissivity",
    "c_ase_at",
    "sweep_frequency",
    "find_sweep_minimum",
    "optimize_wavelength",
    "reproduce_paper_report",
]

_ALLOWED_AREA_FACTORS = (1.0, 0.5, 0.25)
_ALLOWED_POLICIES = ("error", "clamp")

#: Inverse golden ratio, the section step of the minimizer.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Points of the coarse scan that brackets the wavelength minimum.
_COARSE_POINTS = 200

#: Bracket width (m) at which the golden-section search stops.
_LAMBDA_TOLERANCE = 1e-9

#: Residuals within which a reference value counts as reproduced: the
#: optimal wavelength (m) and the relative bound.
_LAMBDA_MATCH_TOL = 0.05e-6
_B_REL_MATCH_TOL = 0.02


class _GeometryFields(NamedTuple):
    range_m: float
    r_t: float = 0.04
    r_target: float = 0.10
    t0: float = 300.0
    area_factor: float = 0.25
    eta_policy: str = "error"
    eta_max: float = 0.99


class LinkGeometry(_GeometryFields):
    """Monostatic free-space geometry and the transmissivity convention.

    Lengths in meters, temperature in kelvin.  ``eta_max`` only matters
    under the ``"clamp"`` policy.  Every construction path validates: the
    constructor, ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args: float | str, **kwargs: float | str) -> LinkGeometry:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("range_m", "r_t", "r_target", "t0"):
            check_positive(name, getattr(self, name))
        if self.area_factor not in _ALLOWED_AREA_FACTORS:
            raise ValueError(
                f"area_factor must be one of {_ALLOWED_AREA_FACTORS}, "
                f"got {self.area_factor}"
            )
        if self.eta_policy not in _ALLOWED_POLICIES:
            raise ValueError(
                f"eta_policy must be one of {_ALLOWED_POLICIES}, "
                f"got {self.eta_policy!r}"
            )
        if not 0.0 < self.eta_max < 1.0:
            raise ValueError(f"eta_max must be in (0, 1), got {self.eta_max}")
        return self

    _make = classmethod(validated_make)


def __getattr__(name: str) -> type:
    if name == "SweepRow":
        from ._sweep_row import SweepRow

        return SweepRow
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "SweepRow"})


class _LinkPoint(NamedTuple):
    """The link at one point, with the fields of ``SweepRow``.

    Invalid points carry ``None`` for what could not be evaluated and a
    short reason in ``flag``, as ``SweepRow`` does.
    """

    f_hz: float
    lambda_m: float
    eta: float | None
    nbar_b: float
    c_ase: float | None
    b: float | None
    flag: str = ""

    @property
    def valid(self) -> bool:
        return self.c_ase is not None


class SweepMinimum(NamedTuple):
    """Location and nature of a sweep's smallest valid c_ase."""

    index: int
    row: SweepRow
    is_interior: bool
    is_unique: bool


def planck_occupancy(wavelength: float, t0: float) -> float:
    """Blackbody occupancy per mode, 1/(exp(hc/(lambda k T0)) - 1).

    Overflow-safe: deep in the Wien tail (tiny ``wavelength * t0``, even
    below the float range) the occupancy underflows to exactly 0.0.  Deep
    in the Rayleigh-Jeans tail, where the occupancy exceeds the float
    range, the pair is refused.
    """
    check_positive("wavelength", wavelength)
    check_positive("t0", t0)
    thermal = wavelength * BOLTZMANN_K * t0
    if thermal == 0.0:
        return 0.0
    exponent = PLANCK_H * SPEED_OF_LIGHT / thermal
    if exponent > 700.0:
        return 0.0
    occupancy = 1.0 / math.expm1(exponent) if exponent > 0.0 else math.inf
    if occupancy == math.inf:
        raise ValueError(
            f"blackbody occupancy overflows at wavelength {wavelength:g} m, "
            f"t0 {t0:g} K"
        )
    return occupancy


def geometric_transmissivity(wavelength: float, geometry: LinkGeometry) -> float:
    """Single-pass power transmissivity of the diffraction-limited link.

    eta_raw = area_factor * (pi r_t^2)(pi r_target^2) / (lambda L)^2.
    Values above 1 mean the far-field formula has left its regime; the
    geometry's policy then decides between NearFieldError and clamping
    to ``eta_max``.
    """
    check_positive("wavelength", wavelength)
    try:
        area_t = math.pi * geometry.r_t**2
        area_target = math.pi * geometry.r_target**2
        path_sq = (wavelength * geometry.range_m) ** 2
    except OverflowError:
        raise ValueError(
            f"link geometry squares overflow: wavelength {wavelength:g} m, "
            f"range_m {geometry.range_m:g} m, r_t {geometry.r_t:g} m, "
            f"r_target {geometry.r_target:g} m"
        ) from None
    # A (lambda L)^2 below the float range is the extreme near field.
    eta_raw = (
        geometry.area_factor * area_t * area_target / path_sq
        if path_sq > 0.0
        else math.inf
    )
    if eta_raw > 1.0:
        if geometry.eta_policy == "clamp":
            return geometry.eta_max
        raise NearFieldError(
            f"far-field transmissivity {eta_raw:.4g} exceeds 1 at "
            f"wavelength {wavelength:.4g} m, range {geometry.range_m:.4g} m; "
            "the diffraction formula does not apply this close"
        )
    return eta_raw


def c_ase_at(
    wavelength: float, geometry: LinkGeometry
) -> tuple[float, float, float]:
    """(eta, nbar_b, c_ase) of the link at one wavelength.

    Builds the equal-bath scenario (eta, eta, nbar_b, nbar_b) — so
    eta_eff = eta^2 and nbar_b_eff = nbar_b — and returns the covert
    MSE bound coefficient.  Near-field and degenerate-scenario errors
    propagate.
    """
    eta = geometric_transmissivity(wavelength, geometry)
    nbar_b = planck_occupancy(wavelength, geometry.t0)
    return eta, nbar_b, _c_ase(eta, nbar_b)


def _c_ase(eta: float, nbar_b: float) -> float:
    """c_ase of the equal-bath scenario (eta, eta, nbar_b, nbar_b)."""
    scenario = SensingScenario(eta, eta, nbar_b, nbar_b)
    return qcrb_ase(scenario, _taylor_c2(scenario)[0])


def _bound_scale(epsilon: float, bandwidth: float, integration_time: float) -> float:
    """Bound divisor eps sqrt(floor(W T)), naming eps, W or T when unusable."""
    check_positive("epsilon", epsilon)
    check_positive("bandwidth W", bandwidth)
    check_positive("integration time T", integration_time)
    product = bandwidth * integration_time
    if product == math.inf:
        raise ValueError(
            f"time-bandwidth product W*T overflows (W = {bandwidth:g} Hz, "
            f"T = {integration_time:g} s)"
        )
    n = int(math.floor(product))
    if n < 1:
        raise ValueError(f"time-bandwidth product {product:g} yields no usable mode")
    return epsilon * math.sqrt(n)


def _link_row(
    f: float,
    wavelength: float,
    geometry: LinkGeometry,
    scale: float,
    c_ase: Callable[[float, float], float],
) -> _LinkPoint:
    """The link at one point, flagged rather than raised when invalid.

    Near-field under the error policy flags ``"near-field"``, a degenerate
    scenario ``"degenerate"``; ``scale`` is the bound divisor and
    ``c_ase(eta, nbar_b)`` is ``_c_ase`` or a memo of it.
    """
    # c_ase_at's inputs, each computed once for the row.
    nbar_b = planck_occupancy(wavelength, geometry.t0)
    try:
        eta = geometric_transmissivity(wavelength, geometry)
    except NearFieldError:
        return _LinkPoint(f, wavelength, None, nbar_b, None, None, "near-field")
    try:
        value = c_ase(eta, nbar_b)
    except DomainError:
        return _LinkPoint(f, wavelength, eta, nbar_b, None, None, "degenerate")
    return _LinkPoint(f, wavelength, eta, nbar_b, value, value / scale)


def _sweep_points(
    f_min: float,
    f_max: float,
    points: int,
    geometry: LinkGeometry,
    epsilon: float,
    bandwidth: float,
    integration_time: float,
) -> Iterator[_LinkPoint]:
    """The rows of :func:`sweep_frequency` as a stream of ``_LinkPoint``s.

    The arguments are checked on the call; the stream raises
    EmptySweepError after its last point when no point was valid.
    """
    check_positive("f_min", f_min)
    check_positive("f_max", f_max)
    if not f_min < f_max:
        raise ValueError(f"need f_min < f_max, got {f_min} >= {f_max}")
    check_integer("points", points)
    if points < 2:
        raise ValueError(f"need at least two sweep points, got {points}")
    scale = _bound_scale(epsilon, bandwidth, integration_time)
    step = (f_max - f_min) / (points - 1)

    def stream() -> Iterator[_LinkPoint]:
        valid = False
        for i in range(points):
            f = f_min + step * i
            point = _link_row(f, SPEED_OF_LIGHT / f, geometry, scale, _c_ase)
            valid = valid or point.valid
            yield point
        if not valid:
            raise EmptySweepError(
                f"no valid link point in [{f_min:g}, {f_max:g}] Hz for this geometry"
            )

    return stream()


def sweep_frequency(
    f_min: float,
    f_max: float,
    points: int,
    geometry: LinkGeometry,
    *,
    epsilon: float = 1e-3,
    bandwidth: float = 3e12,
    integration_time: float = 1.0,
) -> list[SweepRow]:
    """Bound spectrum on a uniform frequency grid, ordered by frequency.

    Each row evaluates independently; rows where the link is invalid
    (near-field under the error policy, or a degenerate scenario) are
    flagged rather than aborting the sweep.  Raises EmptySweepError when
    no row at all is valid.  The ``B`` column uses the given
    ``(epsilon, bandwidth, integration_time)``; the defaults are the
    operating point of the published reference spectra (eps = 1e-3,
    W = 3 THz, T = 1 s).
    """
    from ._sweep_row import SweepRow

    return [
        SweepRow(*point)
        for point in _sweep_points(
            f_min, f_max, points, geometry, epsilon, bandwidth, integration_time
        )
    ]


def find_sweep_minimum(rows: list[SweepRow]) -> SweepMinimum:
    """Smallest valid c_ase of a sweep, and whether it is a clean minimum.

    ``is_interior`` means the minimizing row has valid neighbors on both
    sides (it is not pressed against the band edge or the validity
    boundary); ``is_unique`` means the sweep has exactly one strict
    local minimum among interior valid rows.
    """
    valid = [(i, row) for i, row in enumerate(rows) if row.valid]
    if not valid:
        raise EmptySweepError("sweep has no valid rows")
    best_index, best_row = min(valid, key=lambda item: item[1].c_ase)

    def _interior(i: int) -> bool:
        return (
            0 < i < len(rows) - 1
            and rows[i - 1].valid
            and rows[i + 1].valid
        )

    local_minima = [
        i
        for i, row in enumerate(rows)
        if row.valid
        and _interior(i)
        and row.c_ase < rows[i - 1].c_ase
        and row.c_ase < rows[i + 1].c_ase
    ]
    return SweepMinimum(
        index=best_index,
        row=best_row,
        is_interior=_interior(best_index),
        is_unique=len(local_minima) == 1,
    )


def optimize_wavelength(
    geometry: LinkGeometry,
    lambda_bracket: tuple[float, float],
    *,
    epsilon: float = 1e-3,
    bandwidth: float = 3e12,
    integration_time: float = 1.0,
) -> tuple[float, float, float]:
    """Wavelength minimizing c_ase inside a bracket, plus the bound there.

    A 200-point coarse scan locates the valid neighborhood of the
    minimum (so the section search never brackets a flagged region
    blindly), then golden-section refines to ``|d lambda| <= 1e-3 um``.
    Returns ``(lambda_star, c_ase_star, b)`` with ``b`` evaluated at the
    caller's ``(epsilon, bandwidth, integration_time)``.  Raises
    EmptySweepError when no wavelength in the bracket is valid.
    """
    lo, hi = lambda_bracket
    check_positive("lambda_lo", lo)
    check_positive("lambda_hi", hi)
    if not lo < hi:
        raise ValueError(f"need lambda_lo < lambda_hi, got {lambda_bracket}")
    scale = _bound_scale(epsilon, bandwidth, integration_time)
    lambda_star, c_star = _minimize(_objective(geometry, _c_ase), lo, hi)
    return lambda_star, c_star, c_star / scale


def _objective(
    geometry: LinkGeometry, c_ase: Callable[[float, float], float]
) -> Callable[[float], float]:
    """The objective of the wavelength search: c_ase, or inf where the link
    is invalid, with c_ase read from ``c_ase(eta, nbar_b)``, which is
    ``_c_ase`` or a memo of it.

    The transmissivity goes first, so a near-field point is inf without
    asking for its occupancy, whose overflow would be refused.
    """

    def objective(wavelength: float) -> float:
        try:
            eta = geometric_transmissivity(wavelength, geometry)
            return c_ase(eta, planck_occupancy(wavelength, geometry.t0))
        except (NearFieldError, DomainError):
            return math.inf

    return objective


def _minimize(
    objective: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """(lambda_star, c_star) of :func:`optimize_wavelength` for an objective
    that is c_ase, or inf where the link is invalid, on ``[lo, hi]``.

    Raises EmptySweepError when the coarse scan finds no finite value.
    """
    last = _COARSE_POINTS - 1
    grid = [lo + (hi - lo) * i / last for i in range(_COARSE_POINTS)]
    values = [objective(w) for w in grid]
    best = min(range(_COARSE_POINTS), key=lambda i: values[i])
    if math.isinf(values[best]):
        raise EmptySweepError(
            f"no valid wavelength in [{lo:g}, {hi:g}] m for this geometry"
        )
    a = grid[best - 1] if best > 0 else grid[0]
    b_edge = grid[best + 1] if best < last else grid[-1]

    x1 = b_edge - _GOLDEN * (b_edge - a)
    x2 = a + _GOLDEN * (b_edge - a)
    f1, f2 = objective(x1), objective(x2)
    # Far out in wavelength a few ulps of lambda exceed the tolerance, and a
    # bracket that narrow can no longer shrink.
    while b_edge - a > max(_LAMBDA_TOLERANCE, 4.0 * math.ulp(b_edge)):
        if f1 <= f2:
            b_edge, x2, f2 = x2, x1, f1
            x1 = b_edge - _GOLDEN * (b_edge - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b_edge - a)
            f2 = objective(x2)
    lambda_star = 0.5 * (a + b_edge)
    c_star = objective(lambda_star)
    if math.isinf(c_star):
        # The section landed on the invalid side of a validity boundary;
        # take the best interior evaluation instead.
        lambda_star, c_star = (x1, f1) if f1 <= f2 else (x2, f2)
    return lambda_star, c_star


# Published reference values the convention sweep is scored against, all
# at eps = 1e-3, W = 3 THz, T = 1 s, as (kind, range_m, wavelength_m,
# b_target): three quoted optimal wavelengths with their bounds, and two
# quoted bounds at fixed wavelengths.
_REFERENCE_TARGETS: tuple[tuple[str, float, float, float], ...] = (
    ("optimize", 1000.0, 9.40e-6, 0.00322),
    ("optimize", 3000.0, 6.35e-6, 0.09927),
    ("optimize", 5000.0, 5.38e-6, 0.81438),
    ("fixed", 1000.0, 8.7e-6, 0.00327),
    ("fixed", 1000.0, 3.0e-6, 0.08423),
)
# The band the reference spectra are plotted over (15-100 THz).  Brackets
# reaching below it can capture the validity-boundary basin, where the
# covertness constraint degenerates and c_ase plunges toward zero; the
# quoted optima are the smooth in-band minima.
_REFERENCE_BRACKET = (SPEED_OF_LIGHT / 100e12, SPEED_OF_LIGHT / 15e12)


class TargetResult(NamedTuple):
    """One reference value under one convention."""

    label: str
    kind: str  # "optimize" | "fixed"
    range_m: float
    lambda_target_m: float | None
    b_target: float
    lambda_m: float | None
    b_value: float | None
    d_lambda_m: float | None
    b_rel_err: float | None
    flag: str
    matches: bool


class ConventionResult(NamedTuple):
    area_factor: float
    eta_policy: str
    results: tuple[TargetResult, ...]

    @property
    def matches_all(self) -> bool:
        return all(result.matches for result in self.results)


class ReproduceReport(NamedTuple):
    """Convention-sensitivity scorecard against the reference values."""

    epsilon: float
    bandwidth_hz: float
    integration_time_s: float
    lambda_tolerance_m: float
    b_rel_tolerance: float
    conventions: tuple[ConventionResult, ...]

    @property
    def matched(self) -> ConventionResult | None:
        for convention in self.conventions:
            if convention.matches_all:
                return convention
        return None


def reproduce_paper_report(
    *,
    epsilon: float = 1e-3,
    bandwidth: float = 3e12,
    integration_time: float = 1.0,
) -> ReproduceReport:
    """Score every transmissivity convention against the reference values.

    For each (area_factor, eta_policy) pair this optimizes the
    wavelength at 1/3/5 km and evaluates the fixed-wavelength bounds,
    recording residuals against the published reference values (quoted
    optima and bounds).  A convention "matches" when every target agrees
    within 0.05 um and 2 % relative; when none does
    — the documented situation for these references — the report itself,
    with per-target residuals for every convention, is the deliverable.

    The answers are those of :func:`optimize_wavelength` and of a sweep
    row at each target, but each distinct ``(eta, nbar_b)`` is evaluated
    once per call: the two policies share every far-field point.
    """
    scale = _bound_scale(epsilon, bandwidth, integration_time)
    c_ase = functools.cache(_c_ase)
    conventions = []
    for area_factor in _ALLOWED_AREA_FACTORS:
        for policy in _ALLOWED_POLICIES:
            results = []
            for kind, range_m, wavelength, b_target in _REFERENCE_TARGETS:
                geometry = LinkGeometry(
                    range_m=range_m, area_factor=area_factor, eta_policy=policy
                )
                at_range = f"L = {range_m / 1000:g} km"
                d_lambda = b_rel = None
                if kind == "optimize":
                    label = f"optimum at {at_range}"
                    lambda_target = wavelength
                    try:
                        lambda_m, c_star = _minimize(
                            _objective(geometry, c_ase), *_REFERENCE_BRACKET
                        )
                        b_value, flag = c_star / scale, ""
                        d_lambda = lambda_m - lambda_target
                    except EmptySweepError:
                        lambda_m, b_value, flag = None, None, "empty-sweep"
                else:
                    label = f"bound at {wavelength * 1e6:g} um, {at_range}"
                    lambda_target, lambda_m = None, wavelength
                    row = _link_row(
                        SPEED_OF_LIGHT / wavelength, wavelength, geometry, scale, c_ase
                    )
                    b_value, flag = row.b, row.flag
                matches = False
                if b_value is not None:
                    b_rel = abs(b_value - b_target) / b_target
                    matches = b_rel <= _B_REL_MATCH_TOL and (
                        d_lambda is None or abs(d_lambda) <= _LAMBDA_MATCH_TOL
                    )
                results.append(
                    TargetResult(
                        label=label,
                        kind=kind,
                        range_m=range_m,
                        lambda_target_m=lambda_target,
                        b_target=b_target,
                        lambda_m=lambda_m,
                        b_value=b_value,
                        d_lambda_m=d_lambda,
                        b_rel_err=b_rel,
                        flag=flag,
                        matches=matches,
                    )
                )
            conventions.append(
                ConventionResult(
                    area_factor=area_factor,
                    eta_policy=policy,
                    results=tuple(results),
                )
            )
    return ReproduceReport(
        epsilon=epsilon,
        bandwidth_hz=bandwidth,
        integration_time_s=integration_time,
        lambda_tolerance_m=_LAMBDA_MATCH_TOL,
        b_rel_tolerance=_B_REL_MATCH_TOL,
        conventions=tuple(conventions),
    )
