"""Truncated number-basis oracle: states, entropy, fidelity, cross-checks."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from covertsense.covertness import qre_gaussian, willie_qre
from covertsense.errors import CutoffError, InfiniteQreError
from covertsense.estimation import gaussian_fidelity
from covertsense.fock import (
    MAX_OCCUPANCY,
    MAX_TOTAL_PHOTONS,
    FockDensityMatrix,
    _BeamSplitter,
    _block_basis,
    _pair_blocks,
    fock_moments,
    fock_purity,
    fock_tensor,
    oracle_alice_state,
    oracle_cross_check,
    oracle_fidelity,
    oracle_qre,
    oracle_willie_state,
    thermal_fock,
)
from covertsense.gaussian import symplectic_spectrum
from covertsense.scenario import ProbeSettings, SensingScenario, alice_cm, willie_cm

SMALL = SensingScenario(0.5, 0.5, 0.3, 0.2)
PROBE = ProbeSettings(nbar_s=0.05, nbar_lo=0.25, theta=0.3)


class TestThermalFock:
    def test_unit_occupancy_probabilities(self):
        state = thermal_fock(1.0)
        probabilities = np.diag(state.entries).real
        for k in range(6):
            assert probabilities[k] == pytest.approx(2.0 ** -(k + 1), rel=1e-14)

    def test_vacuum_is_projector(self):
        state = thermal_fock(0.0)
        assert state.cutoff == 0
        assert state.entries.shape == (1, 1)
        assert state.entries[0, 0] == 1.0
        assert state.tail_bound == 0.0

    def test_auto_cutoff_meets_tail(self):
        state = thermal_fock(1.0)
        assert state.cutoff == 33
        assert state.trace() >= 1.0 - 1e-10
        # Sub-normalised on purpose: nothing is rescaled.
        assert state.trace() == pytest.approx(1.0 - 0.5**34, abs=1e-15)

    def test_insufficient_cutoff_names_requirement(self):
        with pytest.raises(CutoffError, match="required cutoff: 33"):
            thermal_fock(1.0, cutoff=12)

    def test_occupancy_beyond_cap(self):
        # nbar = 2.5 needs a cutoff past the total-photon cap.
        with pytest.raises(CutoffError, match="cap"):
            thermal_fock(2.5)

    def test_cutoff_above_cap_rejected(self):
        with pytest.raises(CutoffError):
            thermal_fock(0.1, cutoff=MAX_TOTAL_PHOTONS + 1)

    def test_loose_tail_request_rejected(self):
        # The density-matrix type promises tail_bound <= 1e-10; a looser
        # request cannot produce a valid instance.
        with pytest.raises(ValueError, match="tail bound"):
            thermal_fock(1.0, cutoff=8, tail_bound=1e-2)

    def test_negative_occupancy(self):
        with pytest.raises(ValueError):
            thermal_fock(-0.1)


class TestDensityMatrixType:
    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="entries must be"):
            FockDensityMatrix(
                modes=2, cutoff=1, entries=np.eye(3, dtype=complex), tail_bound=0.0
            )

    def test_require_valid_rejects_non_hermitian(self):
        entries = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        state = FockDensityMatrix(modes=1, cutoff=1, entries=entries, tail_bound=0.0)
        with pytest.raises(ValueError, match="Hermitian"):
            state.require_valid()

    def test_require_valid_rejects_negative_eigenvalue(self):
        entries = np.diag([1.2, -0.2]).astype(complex)
        state = FockDensityMatrix(modes=1, cutoff=1, entries=entries, tail_bound=0.0)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            state.require_valid()

    def test_require_valid_rejects_bad_trace(self):
        entries = np.diag([0.4, 0.4]).astype(complex)
        state = FockDensityMatrix(modes=1, cutoff=1, entries=entries, tail_bound=0.0)
        with pytest.raises(ValueError, match="trace"):
            state.require_valid()

    def test_require_valid_accepts_good_state(self):
        state = thermal_fock(0.5)
        assert state.require_valid() is state


class TestFockTensor:
    def test_additivity_of_qre(self):
        # One extra photon of headroom per factor keeps the combined
        # tail inside the type's 1e-10 promise.
        vac = thermal_fock(0.0, cutoff=34)
        th = thermal_fock(1.0, cutoff=34)
        two_vac = fock_tensor(vac, vac)
        two_th = fock_tensor(th, th)
        assert oracle_qre(two_vac, two_th) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-9
        )

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError, match="common cutoff"):
            fock_tensor(thermal_fock(0.0), thermal_fock(1.0))

    def test_combined_tail_gate(self):
        # Two factors individually at the tail limit cannot be combined.
        marginal = thermal_fock(1.0)  # tail ~ 5.8e-11
        with pytest.raises(CutoffError, match="combined tail"):
            fock_tensor(marginal, marginal)


class TestOracleWillieState:
    def test_moments_match_covariance_matrix(self):
        state = oracle_willie_state(SMALL, 0.05, 0.3)
        means, second = fock_moments(state)
        cm = willie_cm(SMALL, 0.05, 0.3)
        assert np.abs(means).max() <= 1e-8
        assert np.abs(second - cm.matrix).max() <= 1e-6

    def test_identity_channel_is_bath_product(self):
        # The circuit state lives on the total-photon simplex (joint tail
        # bound) while the plain tensor product fills the full grid, so
        # they differ exactly by mass in the truncated corner — bounded
        # by the declared tails.
        scenario = SensingScenario(1.0, 1.0, 0.4, 0.3)
        state = oracle_willie_state(scenario, 0.0)
        want = fock_tensor(
            thermal_fock(0.3, cutoff=state.cutoff),
            thermal_fock(0.4, cutoff=state.cutoff),
        )
        budget = state.tail_bound + want.tail_bound
        assert np.abs(state.entries - want.entries).max() <= budget

    def test_purity_matches_symplectic_invariants(self):
        state = oracle_willie_state(SMALL, 0.05)
        spectrum = symplectic_spectrum(willie_cm(SMALL, 0.05, 0.0))
        u1, u2 = spectrum.eigenvalues
        assert fock_purity(state) == pytest.approx(
            1.0 / (4.0 * u1 * u2), abs=1e-6
        )

    def test_total_photon_grading_exact(self):
        # Thermal inputs and number-conserving optics leave the reduced
        # state block-diagonal in total photon number: coherences between
        # different totals are exactly zero, not merely small.
        state = oracle_willie_state(SMALL, 0.05)
        dim = state.cutoff + 1
        entries = state.entries.reshape(dim, dim, dim, dim)
        assert entries[0, 1, 0, 0] == 0.0
        assert entries[1, 1, 0, 1] == 0.0
        assert entries[2, 0, 0, 1] == 0.0

    def test_occupancy_gate(self):
        with pytest.raises(ValueError, match="small-occupancy"):
            oracle_willie_state(SensingScenario(0.5, 0.5, 2.5, 0.3), 0.05)


class TestOracleQre:
    def test_self_distance(self):
        state = oracle_willie_state(SMALL, 0.05)
        assert abs(oracle_qre(state, state)) <= 1e-10

    def test_vacuum_thermal_per_mode(self):
        vac = thermal_fock(0.0, cutoff=33)
        th = thermal_fock(1.0)
        assert oracle_qre(vac, th) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_support_escape_diverges(self):
        vac = thermal_fock(0.0, cutoff=33)
        th = thermal_fock(1.0)
        with pytest.raises(InfiniteQreError):
            oracle_qre(th, vac)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracle_qre(thermal_fock(0.0, cutoff=5), thermal_fock(0.0, cutoff=7))

    def test_matches_gaussian_route_reference_point(self):
        # Reference cross-module agreement point at equal unit baths.
        scenario = SensingScenario(0.5, 0.5, 1.0, 1.0)
        off = oracle_willie_state(scenario, 0.0, 0.3)
        on = oracle_willie_state(scenario, 0.05, 0.3, cutoff=off.cutoff)
        d_fock = oracle_qre(off, on)
        d_gauss = willie_qre(scenario, 0.05)
        assert abs(d_fock - d_gauss) <= 1e-4
        # The agreement is far tighter than the contract in practice.
        assert abs(d_fock - d_gauss) <= 1e-9

    def test_matches_gaussian_route_unequal_baths(self):
        off = oracle_willie_state(SMALL, 0.0, 0.0)
        on = oracle_willie_state(SMALL, 0.08, 0.0, cutoff=off.cutoff)
        d_fock = oracle_qre(off, on)
        d_gauss = qre_gaussian(
            willie_cm(SMALL, 0.0, 0.0), willie_cm(SMALL, 0.08, 0.0)
        ).nats
        assert abs(d_fock - d_gauss) <= 1e-4


class TestOracleFidelity:
    def test_self_fidelity(self):
        state = oracle_alice_state(SMALL, PROBE)
        assert oracle_fidelity(state, state) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_thermal_golden(self):
        vac = thermal_fock(0.0, cutoff=33)
        pair_a = fock_tensor(vac, vac)
        pair_b = fock_tensor(thermal_fock(1.0), vac)
        assert oracle_fidelity(pair_a, pair_b) == pytest.approx(
            math.sqrt(0.5), abs=1e-9
        )

    def test_symmetry(self):
        a = oracle_alice_state(SMALL, PROBE)
        b = oracle_alice_state(
            SMALL, ProbeSettings(0.05, 0.25, 0.4), cutoff=a.cutoff
        )
        assert oracle_fidelity(a, b) == pytest.approx(oracle_fidelity(b, a), abs=1e-8)

    def test_matches_gaussian_route(self):
        shifted = ProbeSettings(PROBE.nbar_s, PROBE.nbar_lo, PROBE.theta + 0.1)
        a = oracle_alice_state(SMALL, PROBE)
        b = oracle_alice_state(SMALL, shifted, cutoff=a.cutoff)
        f_fock = oracle_fidelity(a, b)
        f_gauss = gaussian_fidelity(alice_cm(SMALL, PROBE), alice_cm(SMALL, shifted))
        assert abs(f_fock - f_gauss) <= 1e-5


class TestOracleAliceState:
    def test_moments_match_covariance_matrix(self):
        state = oracle_alice_state(SMALL, PROBE)
        means, second = fock_moments(state)
        cm = alice_cm(SMALL, PROBE)
        assert np.abs(means).max() <= 1e-8
        assert np.abs(second - cm.matrix).max() <= 1e-6

    def test_occupancy_gate(self):
        with pytest.raises(ValueError, match="small-occupancy"):
            oracle_alice_state(SMALL, ProbeSettings(0.05, 2.5, 0.0))


class TestCrossCheckReport:
    def test_reference_scenario_residuals(self):
        residuals = oracle_cross_check(SMALL, 0.05, 0.25, 0.3)
        assert residuals["willie_mean_max"] <= 1e-8
        assert residuals["willie_cm_max_err"] <= 1e-6
        assert residuals["willie_purity_err"] <= 1e-6
        assert residuals["willie_qre_err"] <= 1e-4
        assert residuals["alice_mean_max"] <= 1e-8
        assert residuals["alice_cm_max_err"] <= 1e-6
        assert residuals["alice_fidelity_err"] <= 1e-5
        assert residuals["cutoff"] == float(int(residuals["cutoff"]))

    def test_occupancy_envelope_enforced(self):
        assert MAX_OCCUPANCY == 2.0
        with pytest.raises(ValueError):
            oracle_cross_check(SMALL, 0.05, 2.5, 0.3)


class TestPairBlocks:
    @staticmethod
    def _hopping_expm(total, eta):
        """exp(phi (a1^dag a2 - a2^dag a1)) on pair total ``total``."""
        phi = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
        gen = np.zeros((total + 1, total + 1))
        for k in range(total):
            amp = phi * math.sqrt((k + 1.0) * (total - k))
            gen[k + 1, k] = amp
            gen[k, k + 1] = -amp
        return scipy.linalg.expm(gen)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.95, 1.0])
    def test_closed_form_matches_matrix_exponential(self, eta):
        blocks = _pair_blocks(eta, 64)
        for total, block in enumerate(blocks):
            reference = self._hopping_expm(total, eta)
            # expm drifts from orthogonality as the generator norm grows
            # (to ~6e-13 at total 64, eta 0); it cannot certify agreement
            # tighter than that drift, while the closed form stays
            # orthogonal to 1e-13 on its own.
            drift = np.abs(reference.T @ reference - np.eye(total + 1)).max()
            assert np.abs(block - reference).max() <= 1e-13 + drift
            assert np.abs(block.T @ block - np.eye(total + 1)).max() <= 1e-13

    @pytest.mark.parametrize(
        "modes,pair,eta", [(3, (1, 2), 0.3), (3, (0, 2), 0.95), (4, (3, 2), 0.5)]
    )
    def test_lifted_identity_is_orthogonal(self, modes, pair, eta):
        cutoff = 20
        splitter = _BeamSplitter(modes, *pair, eta, cutoff)
        for total in range(cutoff + 1):
            lifted = np.eye(len(_block_basis(modes, total)))
            splitter.apply(total, lifted)
            assert np.abs(lifted.T @ lifted - np.eye(len(lifted))).max() <= 1e-13


class TestPinnedToDenseExponentialRoute:
    """Results recorded from the implementation that built each beam
    splitter as a sparse lift of per-block matrix exponentials."""

    # (eta_1, eta_2, nbar_b1, nbar_b2, nbar_s, nbar_lo, theta) -> residuals
    CROSS_CHECKS = [
        (
            (0.62, 0.89, 0.08, 0.25, 0.064, 0.07, -1.58),
            {
                "cutoff": 15.0,
                "willie_mean_max": 0.0,
                "willie_cm_max_err": 2.3091495382487892e-10,
                "willie_purity_err": 1.1102230246251565e-16,
                "willie_qre_err": 4.611113574304326e-12,
                "alice_mean_max": 0.0,
                "alice_cm_max_err": 4.2635450725470037e-11,
                "alice_fidelity_err": 2.0780932530328755e-11,
            },
        ),
        (
            (0.5, 0.92, 0.35, 0.46, 0.067, 0.11, -2.63),
            {
                "cutoff": 21.0,
                "willie_mean_max": 0.0,
                "willie_cm_max_err": 7.870846197022274e-10,
                "willie_purity_err": 1.1102230246251565e-16,
                "willie_qre_err": 1.1404012283111609e-11,
                "alice_mean_max": 0.0,
                "alice_cm_max_err": 2.047741975985673e-10,
                "alice_fidelity_err": 6.190881141066029e-11,
            },
        ),
        (
            (0.83, 0.55, 0.69, 0.43, 0.064, 0.24, 1.06),
            {
                "cutoff": 27.0,
                "willie_mean_max": 0.0,
                "willie_cm_max_err": 7.806506552299197e-10,
                "willie_purity_err": 1.6653345369377348e-16,
                "willie_qre_err": 8.334898309730887e-12,
                "alice_mean_max": 0.0,
                "alice_cm_max_err": 2.058635484303295e-10,
                "alice_fidelity_err": 6.070099978217058e-11,
            },
        ),
    ]

    @pytest.mark.parametrize("point,recorded", CROSS_CHECKS)
    def test_cross_check_residuals(self, point, recorded):
        eta_1, eta_2, nbar_b1, nbar_b2, nbar_s, nbar_lo, theta = point
        residuals = oracle_cross_check(
            SensingScenario(eta_1, eta_2, nbar_b1, nbar_b2), nbar_s, nbar_lo, theta
        )
        assert residuals.keys() == recorded.keys()
        assert residuals["cutoff"] == recorded["cutoff"]
        for name, value in recorded.items():
            assert abs(residuals[name] - value) <= 1e-12, name

    def test_willie_state_entries(self):
        path = Path(__file__).parent / "data" / "willie_state_cutoff8.json"
        recorded = json.loads(path.read_text())
        state = oracle_willie_state(
            SensingScenario(*recorded["scenario"]),
            recorded["nbar_s"],
            recorded["theta"],
            cutoff=recorded["cutoff"],
        )
        want = np.zeros_like(state.entries)
        want[recorded["rows"], recorded["cols"]] = np.array(
            recorded["real"]
        ) + 1j * np.array(recorded["imag"])
        assert state.tail_bound == recorded["tail_bound"]
        assert np.abs(state.entries - want).max() <= 1e-13
