"""Free-space link model: background, transmissivity, sweeps, optimization."""

from __future__ import annotations

import dataclasses
import math
import signal
import struct
import tracemalloc

import pytest
from conftest import CONSTRUCTION_PATHS
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense import link
from covertsense.covertness import equal_bath_c2, taylor_coefficients
from covertsense.errors import DomainError, EmptySweepError, NearFieldError
from covertsense.estimation import qcrb_ase
from covertsense.link import (
    SPEED_OF_LIGHT,
    LinkGeometry,
    SweepRow,
    c_ase_at,
    find_sweep_minimum,
    geometric_transmissivity,
    optimize_wavelength,
    planck_occupancy,
    reproduce_paper_report,
    sweep_frequency,
)
from covertsense.scenario import SensingScenario

GEOMETRY_3KM = LinkGeometry(range_m=3000.0)
GEOMETRY_5KM = LinkGeometry(range_m=5000.0)
BAND = (15e12, 100e12)


class TestPlanckOccupancy:
    def test_golden(self):
        assert planck_occupancy(9.4e-6, 300.0) == pytest.approx(
            0.0061215325765905885, rel=1e-12
        )

    def test_short_wavelength_underflows_to_zero(self):
        assert planck_occupancy(1e-9, 300.0) == 0.0

    def test_long_wavelength_rayleigh_jeans(self):
        # n -> kT lambda/(h c) for h c/(lambda k T) << 1.
        lam = 1.0e-2
        expected = 1.0 / math.expm1(6.62607015e-34 * SPEED_OF_LIGHT / (lam * 1.380649e-23 * 300.0))
        assert planck_occupancy(lam, 300.0) == pytest.approx(expected, rel=1e-12)

    @given(lam=st.floats(1e-6, 1e-4), t0=st.floats(100.0, 500.0))
    @settings(max_examples=50)
    def test_monotone_in_temperature_and_wavelength(self, lam, t0):
        assert planck_occupancy(lam, t0) < planck_occupancy(lam, t0 + 50.0)
        assert planck_occupancy(lam, t0) < planck_occupancy(lam * 1.5, t0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            planck_occupancy(-1e-6, 300.0)
        with pytest.raises(ValueError):
            planck_occupancy(1e-6, 0.0)

    @pytest.mark.parametrize(
        "wavelength,t0,name",
        [(math.inf, 300.0, "wavelength"), (1e-6, math.inf, "t0"), (1e-6, math.nan, "t0")],
    )
    def test_non_finite_inputs_named(self, wavelength, t0, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            planck_occupancy(wavelength, t0)

    def test_extreme_ranges(self):
        # Below the float range the Wien tail is exactly zero; an occupancy
        # above it is refused rather than divided by zero.
        assert planck_occupancy(1e-10, 1e-300) == 0.0
        with pytest.raises(ValueError, match="occupancy overflows"):
            planck_occupancy(1e200, 1e200)


class TestGeometricTransmissivity:
    def test_golden_full_aperture(self):
        geometry = LinkGeometry(range_m=3000.0, area_factor=1.0)
        assert geometric_transmissivity(6.35e-6, geometry) == pytest.approx(
            0.4351407620984417, rel=1e-12
        )

    def test_quarter_aperture_scales_by_four(self):
        full = geometric_transmissivity(6.35e-6, LinkGeometry(3000.0, area_factor=1.0))
        quarter = geometric_transmissivity(6.35e-6, GEOMETRY_3KM)
        assert quarter == pytest.approx(full / 4.0, rel=1e-12)

    def test_inverse_square_in_wavelength_and_range(self):
        base = geometric_transmissivity(8e-6, GEOMETRY_3KM)
        assert geometric_transmissivity(16e-6, GEOMETRY_3KM) == pytest.approx(
            base / 4.0, rel=1e-12
        )
        farther = LinkGeometry(range_m=6000.0)
        assert geometric_transmissivity(8e-6, farther) == pytest.approx(
            base / 4.0, rel=1e-12
        )

    def test_near_field_error_policy(self):
        geometry = LinkGeometry(range_m=1000.0, area_factor=1.0)
        with pytest.raises(NearFieldError):
            geometric_transmissivity(3e-6, geometry)

    def test_near_field_clamp_policy(self):
        geometry = LinkGeometry(range_m=1000.0, area_factor=1.0, eta_policy="clamp")
        assert geometric_transmissivity(3e-6, geometry) == geometry.eta_max

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry(range_m=-1.0)
        with pytest.raises(ValueError):
            LinkGeometry(range_m=1000.0, eta_policy="ignore")
        with pytest.raises(ValueError):
            LinkGeometry(range_m=1000.0, area_factor=0.0)

    @pytest.mark.parametrize("path", sorted(CONSTRUCTION_PATHS))
    @pytest.mark.parametrize(
        "bad",
        [
            dict(range_m=-1.0),
            dict(t0=math.nan),
            dict(area_factor=0.3),
            dict(eta_policy="ignore"),
            dict(eta_max=1.0),
        ],
    )
    def test_every_geometry_construction_path_validates(self, path, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
            CONSTRUCTION_PATHS[path](GEOMETRY_3KM, bad)

    def test_geometry_replace_keeps_defaults_and_type(self):
        clamped = GEOMETRY_3KM._replace(eta_policy="clamp")
        assert type(clamped) is LinkGeometry
        assert clamped == LinkGeometry(3000.0, eta_policy="clamp")
        assert clamped.r_t == 0.04

    @pytest.mark.parametrize("name", ["range_m", "r_t", "r_target", "t0", "eta_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_geometry_non_finite_named(self, name, value):
        fields = {"range_m": 1000.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must"):
            LinkGeometry(**fields)

    def test_path_below_float_range_is_near_field(self):
        geometry = LinkGeometry(range_m=2000.0)
        with pytest.raises(NearFieldError):
            geometric_transmissivity(3e-300, geometry)
        clamped = LinkGeometry(range_m=2000.0, eta_policy="clamp")
        assert geometric_transmissivity(3e-300, clamped) == clamped.eta_max

    def test_geometry_overflow_named(self):
        with pytest.raises(ValueError, match="range_m 1e\\+300"):
            geometric_transmissivity(3e-6, LinkGeometry(range_m=1e300))


def _bound(wavelength, geometry, epsilon, bandwidth, integration_time):
    """B = c_ase / (eps sqrt(floor(W T))) at one wavelength."""
    scale = link._bound_scale(epsilon, bandwidth, integration_time)
    return c_ase_at(wavelength, geometry)[2] / scale


def _bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


class TestPointEvaluation:
    def test_c_ase_at_golden(self):
        eta, nbar_b, c_ase = c_ase_at(6.35e-6, GEOMETRY_3KM)
        assert eta == pytest.approx(0.10878519052461043, rel=1e-12)
        assert nbar_b == pytest.approx(0.0005250013814917677, rel=1e-12)
        assert c_ase == pytest.approx(2095.8939623826413, rel=1e-12)

    def test_mse_bound_golden(self):
        b = _bound(6.35e-6, GEOMETRY_3KM, 1e-3, 3e12, 1.0)
        assert b == pytest.approx(1.2100649433745294, rel=1e-12)

    def test_bound_scaling_in_integration_time(self):
        # n = floor(W T), so quadrupling T halves B.
        short = _bound(6.35e-6, GEOMETRY_3KM, 1e-3, 3e12, 1.0)
        long = _bound(6.35e-6, GEOMETRY_3KM, 1e-3, 3e12, 4.0)
        assert long == pytest.approx(short / 2.0, rel=1e-12)

    def test_bound_scaling_in_epsilon(self):
        loose = _bound(6.35e-6, GEOMETRY_3KM, 1e-2, 3e12, 1.0)
        tight = _bound(6.35e-6, GEOMETRY_3KM, 1e-3, 3e12, 1.0)
        assert tight == pytest.approx(10.0 * loose, rel=1e-12)

    @pytest.mark.parametrize("policy", ["error", "clamp"])
    def test_views_of_one_point_agree(self, policy):
        # c_ase_at, a sweep point and the search objective read one point
        # bit for bit.  Where the sweep flags the point, the objective is
        # inf and c_ase_at raises the matching error.  At 1 km with bare
        # areas most of the band is near-field under "error"; at 120 K the
        # background at the short-wavelength end is too faint for the
        # quadratic expansion ("degenerate").
        flags = set()
        for range_m, area_factor in ((1000.0, 1.0), (3000.0, 0.25)):
            geometry = LinkGeometry(
                range_m=range_m, area_factor=area_factor, eta_policy=policy, t0=120.0
            )
            objective = link._objective(geometry, link._c_ase)
            for point in link._sweep_points(*BAND, 64, geometry, 1e-3, 3e12, 1.0):
                flags.add(point.flag)
                value = objective(point.lambda_m)
                if point.valid:
                    at = c_ase_at(point.lambda_m, geometry)
                    assert _bits(*at) == _bits(point.eta, point.nbar_b, point.c_ase)
                    assert _bits(value) == _bits(point.c_ase)
                    continue
                assert value == math.inf
                with pytest.raises(DomainError) as raised:
                    c_ase_at(point.lambda_m, geometry)
                near_field = isinstance(raised.value, NearFieldError)
                assert point.flag == ("near-field" if near_field else "degenerate")
        near_field = {"near-field"} if policy == "error" else set()
        assert flags == {"", "degenerate"} | near_field


class TestSweep:
    def test_reference_band_minimum(self):
        rows = sweep_frequency(*BAND, 200, GEOMETRY_3KM)
        assert len(rows) == 200
        minimum = find_sweep_minimum(rows)
        assert minimum.index == 154
        assert minimum.row.lambda_m == pytest.approx(3.7112721083670295e-06, rel=1e-12)
        assert minimum.is_interior and minimum.is_unique

    def test_rows_satisfy_dispersion(self):
        rows = sweep_frequency(*BAND, 64, GEOMETRY_3KM)
        for row in rows:
            assert row.f_hz * row.lambda_m == pytest.approx(SPEED_OF_LIGHT, rel=1e-9)

    def test_background_falls_and_coupling_rises_with_frequency(self):
        rows = [r for r in sweep_frequency(*BAND, 64, GEOMETRY_3KM) if r.valid]
        for earlier, later in zip(rows, rows[1:]):
            assert later.nbar_b < earlier.nbar_b
            assert later.eta > earlier.eta

    def test_b_column_consistent_with_bound(self):
        rows = sweep_frequency(*BAND, 16, GEOMETRY_3KM, epsilon=1e-2)
        for row in rows:
            if row.valid:
                want = _bound(row.lambda_m, GEOMETRY_3KM, 1e-2, 3e12, 1.0)
                assert row.b == pytest.approx(want, rel=1e-12)

    def test_near_field_rows_flagged_not_fatal(self):
        geometry = LinkGeometry(range_m=1000.0, area_factor=1.0)
        rows = sweep_frequency(*BAND, 50, geometry)
        flagged = [r for r in rows if r.flag == "near-field"]
        assert len(flagged) == 44
        assert all(r.eta is None and r.c_ase is None for r in flagged)
        assert all(r.nbar_b > 0.0 for r in flagged)

    def test_fully_invalid_band_raises(self):
        geometry = LinkGeometry(range_m=1000.0, area_factor=1.0)
        with pytest.raises(EmptySweepError):
            sweep_frequency(200e12, 300e12, 20, geometry)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sweep_frequency(1e14, 1e13, 10, GEOMETRY_3KM)
        with pytest.raises(ValueError):
            sweep_frequency(1e13, 1e14, 1, GEOMETRY_3KM)
        # Unrefused, a float count dies with a raw TypeError in range().
        for points in (2.5, 10.0, True):
            with pytest.raises(ValueError, match="^points must be an integer, got "):
                sweep_frequency(1e13, 1e14, points, GEOMETRY_3KM)

    @pytest.mark.parametrize(
        "f_min,f_max,name",
        [(math.nan, 1e14, "f_min"), (1e13, math.inf, "f_max"), (1e13, math.nan, "f_max")],
    )
    def test_non_finite_band_named(self, f_min, f_max, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            sweep_frequency(f_min, f_max, 10, GEOMETRY_3KM)

    @pytest.mark.parametrize(
        "bandwidth,integration_time,cause",
        [
            (math.nan, 1.0, "bandwidth W"),
            (3e12, math.inf, "integration time T"),
            (1e308, 1e308, "W\\*T overflows"),
        ],
    )
    def test_channel_count_names_w_and_t(self, bandwidth, integration_time, cause):
        with pytest.raises(ValueError, match=cause):
            sweep_frequency(
                *BAND, 10, GEOMETRY_3KM,
                bandwidth=bandwidth, integration_time=integration_time,
            )
        with pytest.raises(ValueError, match=cause):
            optimize_wavelength(
                GEOMETRY_3KM, (3e-6, 2e-5),
                bandwidth=bandwidth, integration_time=integration_time,
            )

    def test_library_sweep_holds_one_list(self):
        # sweep_frequency turns each point into its row as the stream
        # yields it, so every point and every row are never alive at once.
        args = (*BAND, 20_000, GEOMETRY_3KM)
        tracemalloc.start()
        try:
            list(link._sweep_points(*args, 1e-3, 3e12, 1.0))
            points_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sweep_frequency(*args)
            rows_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows_peak / points_peak <= 1.45

    def test_rows_are_frozen_dataclasses(self):
        # sweep_frequency alone builds SweepRow, and it stays a frozen
        # dataclass that dataclasses.replace accepts; the link layer
        # re-exports it from its own module.
        from covertsense.link import SweepRow as exported

        assert exported is SweepRow is link.SweepRow
        assert "SweepRow" in dir(link)
        rows = sweep_frequency(*BAND, 20, GEOMETRY_3KM)
        assert all(type(row) is SweepRow for row in rows)
        row = next(row for row in rows if row.valid)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.c_ase = 0.0
        nudged = dataclasses.replace(row, c_ase=2.0 * row.c_ase)
        assert type(nudged) is SweepRow and nudged.c_ase == 2.0 * row.c_ase
        points = link._sweep_points(*BAND, 20, GEOMETRY_3KM, 1e-3, 3e12, 1.0)
        assert [dataclasses.astuple(row) for row in rows] == [tuple(p) for p in points]
        with pytest.raises(AttributeError, match="no_such_name"):
            link.no_such_name


class TestFindSweepMinimum:
    @staticmethod
    def _row(f: float, c_ase: float | None, flag: str = "") -> SweepRow:
        lam = SPEED_OF_LIGHT / f
        if c_ase is None:
            return SweepRow(f, lam, None, 0.01, None, None, flag)
        return SweepRow(f, lam, 0.5, 0.01, c_ase, c_ase)

    def test_interior_unique(self):
        rows = [self._row(1e13 * (i + 1), c) for i, c in enumerate([5.0, 3.0, 1.0, 2.0, 4.0])]
        minimum = find_sweep_minimum(rows)
        assert minimum.index == 2
        assert minimum.is_interior and minimum.is_unique

    def test_edge_minimum_not_interior(self):
        rows = [self._row(1e13 * (i + 1), c) for i, c in enumerate([1.0, 2.0, 3.0])]
        minimum = find_sweep_minimum(rows)
        assert minimum.index == 0
        assert not minimum.is_interior

    def test_minimum_beside_flagged_row_not_interior(self):
        rows = [
            self._row(1e13, None, "near-field"),
            self._row(2e13, 1.0),
            self._row(3e13, 2.0),
        ]
        minimum = find_sweep_minimum(rows)
        assert minimum.index == 1
        assert not minimum.is_interior

    def test_two_local_minima_not_unique(self):
        values = [3.0, 1.0, 4.0, 2.0, 5.0]
        rows = [self._row(1e13 * (i + 1), c) for i, c in enumerate(values)]
        minimum = find_sweep_minimum(rows)
        assert minimum.index == 1
        assert not minimum.is_unique

    def test_all_invalid_raises(self):
        rows = [self._row(1e13, None, "near-field")]
        with pytest.raises(EmptySweepError):
            find_sweep_minimum(rows)


class TestOptimizeWavelength:
    def test_golden_3km(self):
        lam, c_ase, b = optimize_wavelength(
            GEOMETRY_3KM, (3e-6, 2e-5), epsilon=1e-3, bandwidth=3e12, integration_time=1.0
        )
        assert lam == pytest.approx(3.719418887857133e-06, rel=1e-9)
        assert c_ase == pytest.approx(1112.551200906698, rel=1e-9)
        assert b == pytest.approx(0.6423317353307236, rel=1e-9)

    def test_golden_5km(self):
        lam, c_ase, b = optimize_wavelength(
            GEOMETRY_5KM, (3e-6, 2e-5), epsilon=1e-3, bandwidth=3e12, integration_time=1.0
        )
        assert lam == pytest.approx(3.96981575706591e-06, rel=1e-9)
        assert c_ase == pytest.approx(25835.299609558373, rel=1e-9)
        assert b == pytest.approx(14.91601718417316, rel=1e-9)

    def test_deterministic(self):
        first = optimize_wavelength(GEOMETRY_3KM, (3e-6, 2e-5))
        second = optimize_wavelength(GEOMETRY_3KM, (3e-6, 2e-5))
        assert first == second

    def test_agrees_with_sweep_location(self):
        lam, c_ase, _ = optimize_wavelength(GEOMETRY_3KM, (3e-6, 2e-5))
        rows = sweep_frequency(*BAND, 200, GEOMETRY_3KM)
        minimum = find_sweep_minimum(rows)
        grid_spacing = abs(rows[minimum.index].lambda_m - rows[minimum.index - 1].lambda_m)
        assert abs(lam - minimum.row.lambda_m) < grid_spacing
        assert c_ase <= minimum.row.c_ase

    def test_refines_below_micron_scale(self):
        lam, _, _ = optimize_wavelength(GEOMETRY_3KM, (3e-6, 2e-5))
        nudged, _, _ = optimize_wavelength(GEOMETRY_3KM, (3.1e-6, 1.9e-5))
        assert abs(lam - nudged) < 1e-9

    @pytest.mark.parametrize("range_m", [1979.8720784227216, 2063.2002039382864])
    def test_boundary_basin_optimum_matches_closed_form(self, range_m):
        # The near-field boundary lies inside the bracket, and c_ase falls
        # toward zero as eta -> 1.  The search used to end where c2 is below
        # the QRE resolution and return c_ase 60-100 times the closed form.
        lam, c_ase, _ = optimize_wavelength(LinkGeometry(range_m=range_m), (3e-6, 2e-5))
        eta, nbar_b, _ = c_ase_at(lam, LinkGeometry(range_m=range_m))
        e = eta * eta
        closed = (
            (1.0 + 2.0 * nbar_b * (1.0 - e)) * math.sqrt(equal_bath_c2(e, nbar_b)) / (16.0 * e)
        )
        assert c_ase == pytest.approx(closed, rel=1e-6)

    def test_boundary_basin_optimum_at_half_area(self):
        # eta = 0.99971 and nbar_b = 1.4e-10 at the optimum: the stencil
        # refused c2 there as unresolved and the search ended at
        # 2.11622e-6 m with c_ase 5.504 instead.
        geometry = LinkGeometry(range_m=4200.0, area_factor=0.5)
        lam, c_ase, _ = optimize_wavelength(geometry, (2e-6, 1.5e-5))
        assert lam == pytest.approx(2.115965765811682e-06, rel=1e-9)
        eta, nbar_b, at_lam = c_ase_at(2.115965765811682e-06, geometry)
        e = eta * eta
        closed = (
            (1.0 + 2.0 * nbar_b * (1.0 - e)) * math.sqrt(equal_bath_c2(e, nbar_b)) / (16.0 * e)
        )
        assert at_lam == pytest.approx(closed, rel=1e-12)
        assert c_ase == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize(
        "geometry, bracket",
        [
            (LinkGeometry(range_m=10.0, r_t=1e5, r_target=1e5), (1e9, 2e9)),
            (
                LinkGeometry(range_m=6.6, r_t=5.8e5, r_target=5.8e4, eta_policy="clamp"),
                (7.2e9, 1.7e10),
            ),
            (LinkGeometry(range_m=100.0, r_t=3e4, r_target=3e4), (1e7, 2e7)),
            (LinkGeometry(range_m=1.0, r_t=1e6, r_target=1e6), (1e12, 2e12)),
        ],
    )
    def test_long_wavelength_bracket_terminates(self, geometry, bracket):
        # One ulp of lambda exceeds the 1e-9 m tolerance out here; the
        # section search used to stop shrinking and spin forever.
        def hang(signum, frame):
            raise TimeoutError("optimize_wavelength did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            lam, c_ase, b = optimize_wavelength(geometry, bracket)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert bracket[0] <= lam <= bracket[1]
        assert 0.0 < c_ase < math.inf and 0.0 < b < math.inf

    def test_invalid_bracket_raises(self):
        geometry = LinkGeometry(range_m=1000.0, area_factor=1.0)
        with pytest.raises(EmptySweepError):
            optimize_wavelength(geometry, (1e-6, 2e-6))


def _c_ase_through_taylor(eta: float, nbar_b: float) -> float:
    """c_ase with its c2 read from taylor_coefficients: the reference the
    link layer's c2-only route must match bit for bit."""
    scenario = SensingScenario(eta, eta, nbar_b, nbar_b)
    return qcrb_ase(scenario, taylor_coefficients(scenario).c2)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EmptySweepError as exc:
        return type(exc), str(exc)


class TestC2Route:
    """The link layer's c2 route gives the bits the Taylor route gave."""

    @pytest.mark.parametrize("policy", ["error", "clamp"])
    @pytest.mark.parametrize("area_factor", [1.0, 0.5, 0.25])
    def test_optimize_matches_taylor_route(self, monkeypatch, area_factor, policy):
        for range_m in (500.0, 1000.0, 2000.0, 3000.0, 5000.0, 10000.0, 20000.0):
            geometry = LinkGeometry(
                range_m=range_m, area_factor=area_factor, eta_policy=policy
            )
            for bracket in ((3e-6, 2e-5), link._REFERENCE_BRACKET):
                got = _outcome(optimize_wavelength, geometry, bracket)
                with monkeypatch.context() as patch:
                    patch.setattr(link, "_c_ase", _c_ase_through_taylor)
                    want = _outcome(optimize_wavelength, geometry, bracket)
                assert got == want, (geometry, bracket)

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-3, 1e-2])
    def test_reproduce_matches_taylor_route(self, monkeypatch, epsilon):
        got = reproduce_paper_report(epsilon=epsilon)
        with monkeypatch.context() as patch:
            patch.setattr(link, "_c_ase", _c_ase_through_taylor)
            assert reproduce_paper_report(epsilon=epsilon) == got
            # The memoised scan finds what optimize_wavelength finds.
            for convention in got.conventions:
                for target in convention.results:
                    if target.kind != "optimize":
                        continue
                    geometry = LinkGeometry(
                        range_m=target.range_m,
                        area_factor=convention.area_factor,
                        eta_policy=convention.eta_policy,
                    )
                    want = _outcome(
                        optimize_wavelength,
                        geometry,
                        link._REFERENCE_BRACKET,
                        epsilon=epsilon,
                    )
                    if target.flag == "empty-sweep":
                        assert want[0] is EmptySweepError
                    else:
                        assert (target.lambda_m, target.b_value) == want[::2]


@pytest.fixture(scope="module")
def report():
    return reproduce_paper_report()


class TestReproduceReport:
    def test_sweeps_all_conventions(self, report):
        combos = {(c.area_factor, c.eta_policy) for c in report.conventions}
        assert combos == {
            (af, policy)
            for af in (1.0, 0.5, 0.25)
            for policy in ("error", "clamp")
        }

    def test_every_target_scored_everywhere(self, report):
        for convention in report.conventions:
            assert len(convention.results) == 5
            kinds = [t.kind for t in convention.results]
            assert kinds.count("optimize") == 3
            assert kinds.count("fixed") == 2
            for target in convention.results:
                scored = target.b_rel_err is not None
                assert scored or target.flag, (
                    f"{convention.area_factor}/{convention.eta_policy} "
                    f"{target.label} has neither residuals nor a reason flag"
                )

    def test_matched_consistent_with_flags(self, report):
        if report.matched is None:
            assert all(not c.matches_all for c in report.conventions)
        else:
            assert report.matched.matches_all
            assert all(t.matches for t in report.matched.results)

    def test_match_flags_respect_tolerances(self, report):
        for convention in report.conventions:
            for target in convention.results:
                if not target.matches:
                    continue
                assert target.b_rel_err is not None
                assert abs(target.b_rel_err) <= report.b_rel_tolerance
                if target.kind == "optimize":
                    assert abs(target.d_lambda_m) <= report.lambda_tolerance_m
