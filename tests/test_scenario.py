"""Tapped two-way channel: scenario validation, closed-form CMs, circuit."""

from __future__ import annotations

import math
import random
import struct

import numpy as np
import pytest
from conftest import CONSTRUCTION_PATHS
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertsense.gaussian import (
    CovarianceMatrix,
    apply_beam_splitter,
    apply_phase,
    apply_thermal_channel,
    ase_two_mode_cm,
    reduced,
    symplectic_eigenvalues,
    tensor,
    thermal_cm,
)
from covertsense.scenario import (
    ProbeSettings,
    SensingScenario,
    alice_cm,
    _willie_layout,
    _willie_params,
    build_global_cm,
    check_angle,
    check_integer,
    willie_cm,
)

taps = st.floats(0.05, 1.0, allow_nan=False)
baths = st.floats(0.0, 5.0, allow_nan=False)
signal = st.floats(0.0, 1.0, allow_nan=False)


def four_mode_circuit(scenario: SensingScenario, probe: ProbeSettings):
    """The tapped round trip composed mode by mode from gaussian primitives."""
    cm = tensor(
        thermal_cm([scenario.nbar_b2, scenario.nbar_b1]),
        ase_two_mode_cm(probe.nbar_s, probe.nbar_lo),
    )
    cm = apply_beam_splitter(cm, 1, 2, scenario.eta_1)
    cm = apply_phase(cm, 2, probe.theta)
    cm = apply_beam_splitter(cm, 0, 2, scenario.eta_2)
    return cm


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta_1=1.2, eta_2=0.5, nbar_b1=1.0, nbar_b2=1.0),
            dict(eta_1=0.5, eta_2=-0.1, nbar_b1=1.0, nbar_b2=1.0),
            dict(eta_1=0.5, eta_2=0.5, nbar_b1=-1.0, nbar_b2=1.0),
            dict(eta_1=0.5, eta_2=0.5, nbar_b1=1.0, nbar_b2=math.nan),
        ],
    )
    def test_bad_scenario_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SensingScenario(**kwargs)

    def test_bad_probe_rejected(self):
        with pytest.raises(ValueError):
            ProbeSettings(-0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            ProbeSettings(0.1, -1.0, 0.0)

    @given(theta=st.floats(-50.0, 50.0))
    def test_wrap_angle_range_and_equivalence(self, theta):
        wrapped = check_angle("angle", theta)
        assert -math.pi < wrapped <= math.pi
        assert math.cos(wrapped) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(theta), abs=1e-9)

    @given(theta=st.floats(-math.pi, math.pi, exclude_min=True))
    @example(theta=0.3)
    @example(theta=1e-20)
    @example(theta=-5e-324)
    @example(theta=-0.0)
    @example(theta=math.pi)
    def test_wrap_angle_returns_an_angle_in_range_as_given(self, theta):
        # Bit for bit, -0.0 included, so a probe keeps the phase it is given.
        wrapped = check_angle("angle", theta)
        assert struct.pack("<d", wrapped) == struct.pack("<d", theta)
        assert struct.pack("<d", ProbeSettings(0.1, 1.0, theta).theta) == (
            struct.pack("<d", theta)
        )

    @pytest.mark.parametrize(
        "theta", [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi]
    )
    def test_wrap_angle_odd_multiples_of_pi_give_pi(self, theta):
        assert check_angle("angle", theta) == math.pi

    @pytest.mark.parametrize("theta", [1e17, 1e20, -1e308, 1.7976931348623157e308])
    def test_wrap_angle_huge_angles_wrap(self, theta):
        assert -math.pi < check_angle("angle", theta) <= math.pi

    @pytest.mark.parametrize("turns", [2.0**60, -(2.0**60), 2.0**1000])
    def test_wrap_angle_whole_turns_wrap_to_zero(self, turns):
        # Exact modulo the double 2 pi, however many turns.
        assert check_angle("angle", 2.0 * math.pi * turns) == 0.0

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused_by_name(self, theta):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {theta}$"):
            check_angle("phi", theta)

    @pytest.mark.parametrize(
        "value", [30.0, np.float64(30.0), True, "30", None], ids=repr
    )
    def test_non_integer_count_refused_by_name(self, value):
        with pytest.raises(ValueError, match="^count must be an integer, got "):
            check_integer("count", value)

    @pytest.mark.parametrize("value", [0, -3, 2**200, np.int64(30), np.uint8(3)])
    def test_integer_count_accepted(self, value):
        check_integer("count", value)

    def test_probe_wraps_theta(self):
        probe = ProbeSettings(0.1, 1.0, 2.0 * math.pi + 0.3)
        assert probe.theta == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("path", sorted(CONSTRUCTION_PATHS))
    @pytest.mark.parametrize(
        "record,bad",
        [
            (SensingScenario(0.5, 0.5, 1.0, 1.0), dict(eta_1=2.0)),
            (SensingScenario(0.5, 0.5, 1.0, 1.0), dict(eta_2=math.nan)),
            (SensingScenario(0.5, 0.5, 1.0, 1.0), dict(nbar_b2=-1.0)),
            (ProbeSettings(0.1, 1.0, 0.0), dict(nbar_s=-0.1)),
            (ProbeSettings(0.1, 1.0, 0.0), dict(nbar_lo=math.inf)),
            (ProbeSettings(0.1, 1.0, 0.0), dict(theta=math.nan)),
        ],
    )
    def test_every_construction_path_validates(self, path, record, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
            CONSTRUCTION_PATHS[path](record, bad)

    @pytest.mark.parametrize("path", sorted(CONSTRUCTION_PATHS))
    def test_every_construction_path_wraps_theta(self, path):
        probe = CONSTRUCTION_PATHS[path](ProbeSettings(0.1, 1.0, 0.0), {"theta": 10.0})
        assert type(probe) is ProbeSettings
        assert probe.theta == check_angle("angle", 10.0)
        assert -math.pi < probe.theta <= math.pi

    def test_records_are_tuples(self):
        scenario = SensingScenario(0.5, 0.25, 1.0, 2.0)
        assert scenario == (0.5, 0.25, 1.0, 2.0)
        eta_1, eta_2, _, _ = scenario
        assert (eta_1, eta_2) == (0.5, 0.25)
        assert scenario._replace(eta_2=0.5).eta_eff == 0.25
        assert type(scenario._replace(eta_2=0.5)) is SensingScenario


class TestEffectiveChannel:
    @given(e1=taps, e2=taps, nb1=baths, nb2=baths)
    def test_eta_eff_is_product(self, e1, e2, nb1, nb2):
        scenario = SensingScenario(e1, e2, nb1, nb2)
        assert scenario.eta_eff == pytest.approx(e1 * e2, rel=1e-15)

    @given(e1=taps, e2=taps, nb=baths)
    def test_equal_baths_give_same_effective_bath(self, e1, e2, nb):
        scenario = SensingScenario(e1, e2, nb, nb)
        if scenario.is_identity_channel:
            return
        assert scenario.nbar_b_eff == pytest.approx(nb, rel=1e-12, abs=1e-15)

    def test_identity_channel_flag(self):
        assert SensingScenario(1.0, 1.0, 0.5, 0.5).is_identity_channel
        assert not SensingScenario(0.99, 1.0, 0.5, 0.5).is_identity_channel

    @given(e1=taps, e2=taps, nb1=baths, nb2=baths, ns=signal)
    @settings(max_examples=60)
    def test_effective_channel_reproduces_signal_mode(self, e1, e2, nb1, nb2, ns):
        # The single (eta_eff, nb_eff) channel must act on the signal mode
        # exactly like tap + tap composed.
        scenario = SensingScenario(e1, e2, nb1, nb2)
        eta_eff, nb_eff = scenario.eta_eff, scenario.nbar_b_eff
        src = thermal_cm([ns])
        composed = apply_thermal_channel(
            apply_thermal_channel(src, 0, e1, nb1), 0, e2, nb2
        )
        single = apply_thermal_channel(src, 0, eta_eff, nb_eff)
        np.testing.assert_allclose(composed.matrix, single.matrix, atol=1e-12)


class TestClosedFormStates:
    def test_willie_entries(self):
        e1, e2, b1, b2, ns = 0.7, 0.8, 0.15, 0.25, 0.05
        cm = willie_cm(SensingScenario(e1, e2, b1, b2), ns, 0.0).matrix
        w11 = (1 - e2) * e1 * ns + (1 - e1) * (1 - e2) * b1 + e2 * b2 + 0.5
        w22 = e1 * b1 + (1 - e1) * ns + 0.5
        w12 = math.sqrt((1 - e2) * e1 * (1 - e1)) * (b1 - ns)
        assert cm[0, 0] == pytest.approx(w11, rel=1e-14)
        assert cm[1, 1] == pytest.approx(w22, rel=1e-14)
        assert cm[0, 1] == pytest.approx(-w12, rel=1e-14)

    def test_alice_entries(self):
        scenario = SensingScenario(0.7, 0.8, 0.15, 0.25)
        probe = ProbeSettings(0.05, 0.2, 0.0)
        cm = alice_cm(scenario, probe).matrix
        eta_eff, nb_eff = scenario.eta_eff, scenario.nbar_b_eff
        assert cm[0, 0] == pytest.approx(eta_eff * 0.05 + (1 - eta_eff) * nb_eff + 0.5, rel=1e-14)
        assert cm[1, 1] == pytest.approx(0.7, rel=1e-14)
        # the split-source q-q correlation survives the lossy round trip
        # scaled by sqrt(eta_eff), staying positive at theta = 0
        assert cm[0, 1] == pytest.approx(math.sqrt(eta_eff * 0.05 * 0.2), rel=1e-14)

    @given(e1=taps, e2=taps, nb1=baths, nb2=baths, ns=signal, theta=st.floats(-3.0, 3.0))
    @settings(max_examples=60)
    def test_willie_state_physical(self, e1, e2, nb1, nb2, ns, theta):
        assert willie_cm(SensingScenario(e1, e2, nb1, nb2), ns, theta).is_physical()

    @given(e1=taps, e2=taps, nb1=baths, nb2=baths, ns=signal, nlo=st.floats(0.0, 10.0))
    @settings(max_examples=60)
    def test_alice_state_physical(self, e1, e2, nb1, nb2, ns, nlo):
        scenario = SensingScenario(e1, e2, nb1, nb2)
        assert alice_cm(scenario, ProbeSettings(ns, nlo, 0.4)).is_physical()

    def test_willie_theta_leaves_invariants(self):
        scenario = SensingScenario(0.6, 0.9, 0.3, 0.1)
        base = willie_cm(scenario, 0.08, 0.0)
        rotated = willie_cm(scenario, 0.08, 1.1)
        np.testing.assert_allclose(
            symplectic_eigenvalues(rotated),
            symplectic_eigenvalues(base),
            rtol=1e-12,
        )


class TestGlobalCircuit:
    @given(e1=taps, e2=taps, nb1=baths, nb2=baths, ns=signal, theta=st.floats(-3.0, 3.0))
    @settings(max_examples=40)
    def test_blocks_match_closed_forms(self, e1, e2, nb1, nb2, ns, theta):
        scenario = SensingScenario(e1, e2, nb1, nb2)
        probe = ProbeSettings(ns, 0.4, theta)
        cm = build_global_cm(scenario, probe)
        assert cm.num_modes == 4
        np.testing.assert_allclose(
            reduced(cm, [0, 1]).matrix,
            willie_cm(scenario, ns, theta).matrix,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            reduced(cm, [2, 3]).matrix,
            alice_cm(scenario, probe).matrix,
            atol=1e-12,
        )

    def test_matches_primitive_composition(self):
        scenario = SensingScenario(0.55, 0.85, 0.2, 1.3)
        probe = ProbeSettings(0.07, 0.6, 0.9)
        np.testing.assert_allclose(
            build_global_cm(scenario, probe).matrix,
            four_mode_circuit(scenario, probe).matrix,
            atol=1e-13,
        )

    def test_global_state_physical(self):
        scenario = SensingScenario(0.55, 0.85, 0.2, 1.3)
        probe = ProbeSettings(0.07, 0.6, 0.9)
        assert build_global_cm(scenario, probe).is_physical()


def _bits(rows) -> list[bytes]:
    return [struct.pack("<d", x) for row in rows for x in row]


def _from_array_route(scenario: SensingScenario, nbar_s: float, theta: float):
    """Adversary CM entries the way they were built before the nested-list
    layout: the unsymmetrised pattern through ``CovarianceMatrix.from_array``."""
    w11, w22, w12 = _willie_params(scenario, nbar_s)
    c, s = math.cos(theta), math.sin(theta)
    m = np.array(
        [
            [w11, -w12 * c, 0.0, w12 * s],
            [-w12 * c, w22, -w12 * s, 0.0],
            [0.0, -w12 * s, w11, -w12 * c],
            [w12 * s, 0.0, -w12 * c, w22],
        ]
    )
    with np.errstate(over="ignore"):
        return CovarianceMatrix.from_array(m).matrix.tolist()


class TestWillieLayout:
    """``_willie_layout`` (what the CLI emits) holds the floats of
    ``willie_cm(...).matrix`` bit for bit, signed zeros and overflow included."""

    THETAS = (0.0, math.pi, -math.pi / 2)

    def _draws(self, rng: random.Random, occupancy):
        for _ in range(400):
            scenario = SensingScenario(
                rng.choice([rng.random(), 0.0, 1.0]),
                rng.choice([rng.random(), 0.0, 1.0]),
                occupancy(),
                occupancy(),
            )
            nbar_s = rng.choice([occupancy(), 0.0])
            theta = rng.choice([*self.THETAS, rng.uniform(-10.0, 10.0)])
            yield scenario, nbar_s, theta

    def _assert_same_bits(self, scenario, nbar_s, theta):
        layout = _willie_layout(scenario, nbar_s, theta)
        want = _bits(_from_array_route(scenario, nbar_s, theta))
        assert _bits(layout) == want
        assert _bits(willie_cm(scenario, nbar_s, theta).matrix.tolist()) == want
        return layout

    def test_random_scenarios(self):
        rng = random.Random(20261018)
        negative_zeros = 0
        for scenario, nbar_s, theta in self._draws(
            rng, lambda: 10.0 ** rng.uniform(-6.0, 3.0)
        ):
            layout = self._assert_same_bits(scenario, nbar_s, theta)
            negative_zeros += sum(
                1 for row in layout for x in row if x == 0.0 and math.copysign(1, x) < 0
            )
        assert negative_zeros > 0

    def test_occupancies_where_doubling_overflows(self):
        rng = random.Random(17)
        overflowed = 0
        for scenario, nbar_s, theta in self._draws(
            rng, lambda: rng.uniform(1e307, 1.7976931348623157e308)
        ):
            layout = self._assert_same_bits(scenario, nbar_s, theta)
            overflowed += any(math.isinf(x) for row in layout for x in row)
        assert overflowed > 0

    @pytest.mark.parametrize(
        "nbar_s,theta",
        [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan),
         (0.1, -math.inf)],
    )
    def test_refusals_match_willie_cm(self, nbar_s, theta):
        scenario = SensingScenario(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError) as layout_error:
            _willie_layout(scenario, nbar_s, theta)
        with pytest.raises(ValueError) as cm_error:
            willie_cm(scenario, nbar_s, theta)
        assert str(layout_error.value) == str(cm_error.value)
