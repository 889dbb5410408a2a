"""Truncated number-basis oracle: states, entropy, fidelity, cross-checks."""

from __future__ import annotations

import decimal
import functools
import json
import math
import random
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

try:
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # numpy < 2
    from numpy import byte_bounds

from covertsense import fock
from covertsense.covertness import qre_gaussian, willie_qre
from covertsense.errors import CutoffError, InfiniteQreError
from covertsense.estimation import gaussian_fidelity
from covertsense.fock import (
    MAX_OCCUPANCY,
    MAX_TOTAL_PHOTONS,
    FockDensityMatrix,
    _geometric_pmf,
    _pair_blocks,
    _select_total_cutoff,
    fock_moments,
    fock_purity,
    oracle_alice_state,
    oracle_cross_check,
    oracle_fidelity,
    oracle_qre,
    oracle_willie_state,
)
from covertsense.gaussian import symplectic_spectrum
from covertsense.scenario import (
    ProbeSettings,
    SensingScenario,
    alice_cm,
    check_angle,
    willie_cm,
)

SMALL = SensingScenario(0.5, 0.5, 0.3, 0.2)
PROBE = ProbeSettings(nbar_s=0.05, nbar_lo=0.25, theta=0.3)


def thermal_pmf(nbar, cutoff):
    """Thermal probabilities n^k/(1+n)^(k+1) for k <= cutoff, and the tail."""
    ratio = nbar / (1.0 + nbar)
    return ratio ** np.arange(cutoff + 1) / (1.0 + nbar), ratio ** (cutoff + 1)


def turned(block, phase):
    """``block`` conjugated by D = diag(exp(i phase a)), a its position."""
    turn = np.exp(1j * phase * np.arange(len(block)))
    return turn[:, None] * block * turn.conj()


def phased_blocks(state):
    """The state's blocks with its phase applied: D blocks[K] D^dag."""
    return [turned(block, state.phase) for block in state.blocks]


def rotated_route(state):
    """The state as the oracle held it before it kept a phase: its phased
    blocks, symmetrised, as complex blocks at phase 0."""
    blocks = [(block + block.conj().T) / 2.0 for block in phased_blocks(state)]
    return FockDensityMatrix(state.cutoff, blocks, state.tail_bound)


def dense(state):
    """The state on the whole (cutoff + 1)^2 grid, zero beyond its blocks,
    with its phase applied.

    Grid index a (cutoff + 1) + b holds a photons in the first mode and b
    in the second, so entry a of block K sits at a cutoff + K.
    """
    dim = state.cutoff + 1
    grid = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total, block in enumerate(phased_blocks(state)):
        idx = np.arange(total + 1) * (dim - 1) + total
        grid[np.ix_(idx, idx)] = block
    return grid


def diagonal_state(probs, tail_bound):
    """A number-diagonal state built directly as its total-photon blocks.

    ``probs[a, b]`` is the probability of a photons in the first mode and
    b in the second; the cutoff is ``len(probs) - 1`` and entries past it
    in total are dropped.  The state is not validated.
    """
    cutoff = len(probs) - 1
    blocks = [
        np.diag([probs[a, total - a] for a in range(total + 1)]).astype(complex)
        for total in range(cutoff + 1)
    ]
    return FockDensityMatrix(cutoff, blocks, tail_bound)


def first_mode_state(pmf, tail_bound):
    """``pmf`` on the first mode with the second in vacuum; not validated."""
    probs = np.zeros((len(pmf),) * 2)
    probs[:, 0] = pmf
    return diagonal_state(probs, tail_bound)


def thermal_state(nbar, cutoff):
    """A thermal first mode beside a vacuum, sub-normalised by its tail."""
    return first_mode_state(*thermal_pmf(nbar, cutoff)).require_valid()


def product_state(nbar_a, nbar_b, cutoff):
    """Two-mode product of thermal states, truncated to ``cutoff`` photons
    in all; the tail bound is the joint mass past it."""
    probs = np.multiply.outer(
        thermal_pmf(nbar_a, cutoff)[0], thermal_pmf(nbar_b, cutoff)[0]
    )
    kept = np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1)) <= cutoff
    return diagonal_state(probs, 1.0 - probs[kept].sum()).require_valid()


def cutoff_one_pair(block_1, tail_bound=0.0):
    """Two modes at cutoff 1: |00> with weight 1/2, then ``block_1`` on
    the photon-total-1 pair (|01>, |10>)."""
    return FockDensityMatrix(1, [np.array([[0.5]]), block_1], tail_bound)


class TestThermalFock:
    def test_unit_occupancy_probabilities(self):
        probabilities = _geometric_pmf(1.0, 6)
        for k in range(6):
            assert probabilities[k] == pytest.approx(2.0 ** -(k + 1), rel=1e-14)

    def test_vacuum_is_projector(self):
        assert np.array_equal(_geometric_pmf(0.0, 4), [1.0, 0.0, 0.0, 0.0])

    def test_automatic_cutoff_is_at_least_one(self):
        # The vacuum has no tail at cutoff 0, but a chosen cutoff is at
        # least 1; an explicit cutoff 0 is still taken as given.
        assert _select_total_cutoff([0.0, 0.0, 0.0], None) == (1, 0.0)
        assert _select_total_cutoff([0.0, 0.0, 0.0], 0) == (0, 0.0)

    #: Two baths and a probe at 2 photons: even cutoff 64 leaves 9.3e-10.
    HOT = SensingScenario(0.5, 0.5, 2.0, 2.0)

    def test_automatic_cutoff_above_the_cap_refused(self):
        with pytest.raises(
            CutoffError, match=r"above the cap 64 .*\(tail at the cap: 9\.348e-10\)$"
        ):
            oracle_willie_state(self.HOT, 2.0)

    def test_explicit_cutoff_refused_when_the_cap_is_short(self):
        with pytest.raises(
            CutoffError,
            match=r"^cutoff 64 leaves tail mass 9\.348e-10 > 1e-10; "
            r"required cutoff: > 64$",
        ):
            oracle_willie_state(self.HOT, 2.0, cutoff=64)

    def test_advised_cutoff_accepted_with_the_automatic_tail(self):
        # Seeded draws inside the occupancy gate, each with an explicit
        # cutoff: a refused one's advice, passed back, is accepted and gives
        # the automatic selection, cutoff and tail; advice past the cap
        # means the automatic selection is refused too.
        rng = random.Random(39)
        outcomes = {"accepted": 0, "advised": 0, "past the cap": 0}
        for _ in range(400):
            occ = [rng.uniform(0.0, MAX_OCCUPANCY) for _ in range(3)]
            cutoff = rng.randrange(MAX_TOTAL_PHOTONS + 1)
            try:
                chosen, tail = _select_total_cutoff(occ, cutoff)
            except CutoffError as exc:
                advice = str(exc).rpartition("required cutoff: ")[2]
            else:
                assert chosen == cutoff and 0.0 <= tail <= fock._TAIL_BOUND
                outcomes["accepted"] += 1
                continue
            if advice == f"> {MAX_TOTAL_PHOTONS}":
                with pytest.raises(CutoffError, match="above the cap"):
                    _select_total_cutoff(occ, None)
                outcomes["past the cap"] += 1
            else:
                auto = _select_total_cutoff(occ, None)
                assert _select_total_cutoff(occ, int(advice)) == auto, occ
                assert cutoff < auto[0]
                outcomes["advised"] += 1
        assert all(outcomes.values()), outcomes

    def test_loose_tail_request_rejected(self):
        # The density-matrix type promises tail_bound <= 1e-10; a looser
        # declaration cannot produce a valid instance, even when the
        # blocks are a truncated thermal state (tail 2^-9) that meets it.
        state = first_mode_state(thermal_pmf(1.0, 8)[0], 1e-2)
        with pytest.raises(ValueError, match="tail bound"):
            state.require_valid()


class TestDensityMatrixType:
    def test_shape_enforced(self):
        with pytest.raises(
            ValueError, match=r"total 1 must have shape \(2, 2\), got \(3, 3\)"
        ):
            cutoff_one_pair(np.eye(3) / 4.0)

    # Blocks at cutoff 1, which needs one 1 x 1 and then one 2 x 2 block.
    @pytest.mark.parametrize(
        "blocks,match",
        [
            ([[[0.5]], np.ones((2, 3))], r"total 1 must have shape .* got \(2, 3"),
            ([np.eye(2) / 2.0, np.zeros((2, 2))], r"total 0 must have shape \(1, 1"),
            ([[[0.5]], [[0.5]]], r"total 1 must have shape \(2, 2\), got \(1, 1"),
            ([np.eye(2) / 4.0, [[0.5]]], r"total 0 must have shape \(1, 1"),
            ([[[0.5]], [[0.5]], np.eye(2) / 4.0], "needs 2 total-photon blocks, got 3"),
            ([[[1.0]]], "needs 2 total-photon blocks, got 1"),
            ([[[0.5]], np.eye(2) / 4.0, np.zeros((3, 3))], "needs 2 .* got 3"),
        ],
        ids=["not-square", "two-totals", "partial-total", "out-of-order",
             "repeated-total", "missing-total", "total-past-cutoff"],
    )
    def test_malformed_blocks_refused(self, blocks, match):
        with pytest.raises(ValueError, match=match):
            FockDensityMatrix(1, [np.array(block) for block in blocks], 0.0)

    @pytest.mark.parametrize(
        "cutoff,match",
        [
            (-1, "^cutoff must be non-negative, got -1$"),
            (1.0, "^cutoff must be an integer, got 1.0$"),
            (np.float64(1.0), r"^cutoff must be an integer, got .*1\.0"),
            (True, "^cutoff must be an integer, got True$"),
        ],
        ids=["negative", "float", "float64", "bool"],
    )
    def test_non_integer_or_negative_cutoff_refused(self, cutoff, match):
        # A float cutoff used to build a state whose moments then died in
        # numpy; True built one as cutoff 1.
        with pytest.raises(ValueError, match=match):
            FockDensityMatrix(cutoff, [[[0.5]], np.eye(2) / 4.0], 0.0)

    def test_require_valid_rejects_non_hermitian(self):
        state = cutoff_one_pair(np.array([[0.25, 0.1], [0.3, 0.25]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            state.require_valid()

    def test_require_valid_rejects_negative_eigenvalue(self):
        state = first_mode_state(np.array([1.2, -0.2]), 0.0)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            state.require_valid()

    def test_require_valid_rejects_bad_trace(self):
        state = first_mode_state(np.array([0.4, 0.4]), 0.0)
        with pytest.raises(ValueError, match="trace"):
            state.require_valid()

    def test_require_valid_accepts_good_state(self):
        state = first_mode_state(*thermal_pmf(0.5, 20))
        assert state.require_valid() is state

    def test_immutable(self):
        state = thermal_state(0.5, 20)
        with pytest.raises(AttributeError, match="immutable"):
            state.cutoff = 3
        with pytest.raises(AttributeError, match="immutable"):
            state.phase = 0.3

    def test_phase_defaults_to_zero_and_is_wrapped(self):
        assert cutoff_one_pair(np.eye(2) / 4.0).phase == 0.0
        block = np.eye(2) / 4.0
        assert FockDensityMatrix(1, [[[0.5]], block], 0.0, -math.pi).phase == math.pi
        wrapped = FockDensityMatrix(1, [[[0.5]], block], 0.0, 1e308)
        assert wrapped.phase == check_angle("angle", 1e308)

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_phase_refused(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            FockDensityMatrix(1, [[[0.5]], np.eye(2) / 4.0], 0.0, phase)

    def test_with_phase_shares_blocks_and_eigenpairs(self):
        state = oracle_willie_state(SMALL, 0.05)
        moved = state.with_phase(0.4)
        assert moved.phase == 0.4
        assert (moved.cutoff, moved.tail_bound) == (state.cutoff, state.tail_bound)
        assert moved.blocks is state.blocks
        assert moved._spectra() is state._spectra()
        assert state.phase == 0.0


class TestFockTensor:
    def test_additivity_of_qre(self):
        # Two unit baths leave (K + 3) / 2^(K + 2) past total K, inside the
        # type's 1e-10 promise from K = 37.
        two_vac = product_state(0.0, 0.0, 37)
        two_th = product_state(1.0, 1.0, 37)
        assert oracle_qre(two_vac, two_th) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-9
        )


class TestOracleWillieState:
    def test_moments_match_covariance_matrix(self):
        state = oracle_willie_state(SMALL, 0.05, 0.3)
        means, second = fock_moments(state)
        cm = willie_cm(SMALL, 0.05, 0.3)
        assert np.abs(means).max() <= 1e-8
        assert np.abs(second - cm.matrix).max() <= 1e-6

    def test_identity_channel_is_bath_product(self):
        # Both live on the total-photon simplex; the difference is bounded
        # by the declared tails.
        scenario = SensingScenario(1.0, 1.0, 0.4, 0.3)
        state = oracle_willie_state(scenario, 0.0)
        want = product_state(0.3, 0.4, state.cutoff)
        budget = state.tail_bound + want.tail_bound
        assert np.abs(dense(state) - dense(want)).max() <= budget

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
        entries = dense(state).reshape(dim, dim, dim, dim)
        assert entries[0, 1, 0, 0] == 0.0
        assert entries[1, 1, 0, 1] == 0.0
        assert entries[2, 0, 0, 1] == 0.0

    def test_occupancy_gate(self):
        with pytest.raises(ValueError, match="small-occupancy"):
            oracle_willie_state(SensingScenario(0.5, 0.5, 2.5, 0.3), 0.05)

    def test_huge_phase_wrapped_on_entry(self):
        # exp(i theta n) overflows at an unwrapped 1e308.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = oracle_willie_state(SMALL, 0.05, 1e308)
        want = oracle_willie_state(SMALL, 0.05, check_angle("angle", 1e308))
        assert np.array_equal(dense(huge), dense(want))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_named(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            oracle_willie_state(SMALL, 0.05, theta)


class TestOracleQre:
    def test_self_distance(self):
        state = oracle_willie_state(SMALL, 0.05)
        assert abs(oracle_qre(state, state)) <= 1e-10

    def test_vacuum_thermal_per_mode(self):
        vac = thermal_state(0.0, 33)
        th = thermal_state(1.0, 33)
        assert oracle_qre(vac, th) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_support_escape_diverges(self):
        vac = thermal_state(0.0, 33)
        th = thermal_state(1.0, 33)
        with pytest.raises(InfiniteQreError):
            oracle_qre(th, vac)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracle_qre(thermal_state(0.0, 5), thermal_state(0.0, 7))

    def test_cutoff_mismatch_refused_by_both_measures(self):
        a = oracle_willie_state(SMALL, 0.05, cutoff=16)
        b = oracle_willie_state(SMALL, 0.05, cutoff=17)
        for measure in (oracle_qre, oracle_fidelity):
            with pytest.raises(ValueError, match="same cutoff"):
                measure(a, b)

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
        )
        assert abs(d_fock - d_gauss) <= 1e-4


def poisson_pmf(nbar, length):
    """Poisson probabilities e^-n n^k / k! for k < length."""
    return np.array(
        [math.exp(-nbar) * nbar**k / math.factorial(k) for k in range(length)]
    )


def coherent_probe_qre(scenario, nbar_s):
    """The adversary's QRE against a phase-averaged coherent probe.

    The probe is the Poisson mixture of number states; the cutoff is the
    least one at which the joint tail of the two baths and that probe is
    within the oracle's tail bound.
    """
    baths = (scenario.nbar_b2, scenario.nbar_b1)

    def pmfs(length, probe):
        return [_geometric_pmf(nbar, length) for nbar in baths] + [probe]

    tails = fock._joint_tail(
        pmfs(MAX_TOTAL_PHOTONS + 1, poisson_pmf(nbar_s, MAX_TOTAL_PHOTONS + 1))
    )
    cutoff = int(np.nonzero(tails <= fock._TAIL_BOUND)[0][0])
    probes = [_geometric_pmf(0.0, cutoff + 1), poisson_pmf(nbar_s, cutoff + 1)]
    states = fock._willie_states(
        scenario,
        probes,
        *_pair_blocks((scenario.eta_1, scenario.eta_2), cutoff),
        [max(fock._joint_tail(pmfs(cutoff + 1, probe))[-1], 0.0) for probe in probes],
    )
    return oracle_qre(*states)


class TestCoherentProbeSharesC2:
    """A phase-averaged coherent probe has the thermal probe's c2.

    Its QRE against the two-tap adversary matches ``willie_qre`` of the
    thermal probe to third order in nbar_s at unequal baths, where the
    one-mode c2 of the effective channel, (1 - eta)^2 / (eta b (1 + eta b)),
    misses by 26-59 %.
    """

    NBAR_S = 1e-3
    REL_TOL = 1e-4

    @pytest.mark.parametrize(
        "taps_and_baths",
        [(0.7, 0.6, 0.05, 0.2), (0.3, 0.8, 0.2, 0.05), (0.7, 0.6, 0.1, 1.0)],
    )
    def test_qre_matches_the_thermal_probe_to_third_order(self, taps_and_baths):
        scenario = SensingScenario(*taps_and_baths)
        nbars = (self.NBAR_S, 2 * self.NBAR_S)
        qre = {n: coherent_probe_qre(scenario, n) for n in nbars}
        thermal = {n: willie_qre(scenario, n) for n in qre}
        gap = {n: abs(qre[n] - thermal[n]) for n in qre}
        assert gap[self.NBAR_S] <= self.REL_TOL * thermal[self.NBAR_S]
        # A c2 mismatch would leave a gap of second order, which halving
        # nbar_s divides by 4: this one shrinks faster.
        assert gap[2 * self.NBAR_S] > 6.0 * gap[self.NBAR_S]
        # The one-mode c2 misses by more than 1000 times the tolerance.
        eta, b = scenario.eta_eff, scenario.nbar_b_eff
        one_mode = (1.0 - eta) ** 2 / (eta * b * (1.0 + eta * b)) * self.NBAR_S**2 / 2
        assert abs(one_mode - qre[self.NBAR_S]) > 1e3 * self.REL_TOL * qre[self.NBAR_S]


class TestOracleFidelity:
    def test_self_fidelity(self):
        state = oracle_alice_state(SMALL, PROBE)
        assert oracle_fidelity(state, state) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_thermal_golden(self):
        pair_a = product_state(0.0, 0.0, 33)
        pair_b = product_state(1.0, 0.0, 33)
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

    def test_huge_phase_wrapped_on_entry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = oracle_alice_state(SMALL, ProbeSettings(0.05, 0.25, 1e308))
        want = oracle_alice_state(
            SMALL, ProbeSettings(0.05, 0.25, check_angle("angle", 1e308))
        )
        assert np.array_equal(dense(huge), dense(want))

    def test_non_finite_phase_named(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            oracle_alice_state(SMALL, ProbeSettings(0.05, 0.25, math.nan))


# ---------------------------------------------------------------------------
# Reference route: the circuits on amplitude factors of multi-mode blocks
# ---------------------------------------------------------------------------
# The route the oracle ran before each tap became a one-mode channel on
# two-mode blocks.  A state on three or four modes is carried, block by
# total-photon block, as an amplitude factor F with rho = F F^dag; a beam
# splitter left-multiplies the rows of each pair total by its pair block,
# and the partial trace is one product per retained photon total.


@functools.lru_cache(maxsize=None)
def _block_basis(num_modes, total):
    """Occupation vectors of ``num_modes`` modes summing to ``total``.

    One row per state, in lexicographic order (first mode most
    significant); row ``i`` is basis position ``i`` of the total block.
    The array is cached and read-only.
    """
    if num_modes == 1:
        basis = np.array([[total]])
    else:
        parts = []
        for first in range(total + 1):
            rest = _block_basis(num_modes - 1, total - first)
            parts.append(np.column_stack([np.full(len(rest), first), rest]))
        basis = np.concatenate(parts)
    basis.flags.writeable = False
    return basis


def _pair_gathers(num_modes, total, first, second):
    """Rows of a total block grouped by the photons in a mode pair.

    Entry ``m`` is an int array ``G`` of shape ``(m + 1, groups)``:
    ``G[k, g]`` is the row of the state with ``k`` photons in ``first``,
    ``m - k`` in ``second``, and the ``g``-th occupation of the other
    modes.  Every row of the block appears exactly once over all ``m``.
    """
    basis = _block_basis(num_modes, total)
    others = [mode for mode in range(num_modes) if mode not in (first, second)]
    # Mixed-radix code of the other modes' occupations (digits <= total).
    weights = (total + 1) ** np.arange(len(others) - 1, -1, -1)
    other_code = basis[:, others] @ weights
    pair_total = basis[:, first] + basis[:, second]
    order = np.lexsort((basis[:, first], other_code, pair_total))
    counts = np.bincount(pair_total, minlength=total + 1)
    chunks = np.split(order, np.cumsum(counts)[:-1])
    return [chunk.reshape(-1, m + 1).T for m, chunk in enumerate(chunks)]


class _BeamSplitter:
    """A beam splitter on (mode_i, mode_j), acting on total-photon blocks:
    a_i -> sqrt(eta) a_i + sqrt(1-eta) a_j.  On a total block the lift is
    a direct sum of pair blocks, applied by gathering the rows of each
    pair total; the lifted matrix is never formed."""

    def __init__(self, num_modes, mode_i, mode_j, eta, cutoff):
        self.gathers = [
            _pair_gathers(num_modes, total, mode_i, mode_j)
            for total in range(cutoff + 1)
        ]
        table = _pair_blocks((eta,), cutoff)[0]
        self.blocks = [table[m, : m + 1, : m + 1] for m in range(cutoff + 1)]

    def apply(self, total, amplitudes):
        """Left-multiply ``amplitudes`` (rows: the block's basis) in place.

        The pair blocks are real, so a complex operand is treated as its
        float view with real and imaginary parts as extra columns.
        """
        flat = amplitudes.view(np.float64)
        # Pair total 0 is the 1 x 1 identity.
        for gather, block in zip(self.gathers[total][1:], self.blocks[1:]):
            rows = flat[gather]
            flat[gather] = (block @ rows.reshape(len(block), -1)).reshape(rows.shape)


def _diagonal_factor(probs):
    """F with F F^T = diag(probs), one column per nonzero probability."""
    support = np.flatnonzero(probs)
    factor = np.zeros((len(probs), len(support)))
    factor[support, np.arange(len(support))] = np.sqrt(probs[support])
    return factor


def _psd_factor(block):
    """Real F with F F^T = ``block``, a real positive semidefinite matrix;
    negative rounding is clipped and zero directions carry no column."""
    lam, vec = np.linalg.eigh(block)
    keep = lam > 0.0
    return vec[:, keep] * np.sqrt(lam[keep])


class _ReducedAccumulator:
    """Collects two-mode reduced blocks, graded by total photon number."""

    def __init__(self, cutoff):
        self.cutoff = cutoff
        self.blocks = [
            np.zeros((k + 1, k + 1), dtype=complex) for k in range(cutoff + 1)
        ]

    def add_traced_factor(self, num_modes, total, factor, keep):
        """Accumulate the partial trace of rho = factor @ factor^dag; the
        position inside a reduced block is the first kept mode's count."""
        for kept_total, gather in enumerate(_pair_gathers(num_modes, total, *keep)):
            rows = factor[gather].reshape(kept_total + 1, -1)
            self.blocks[kept_total] += rows @ rows.conj().T

    def finish(self, tail_bound):
        """The blocks, symmetrised, as a validated two-mode state."""
        blocks = [(block + block.conj().T) / 2.0 for block in self.blocks]
        return FockDensityMatrix(self.cutoff, blocks, tail_bound).require_valid()


def three_mode_willie_state(scenario, nbar_s, theta=0.0, cutoff=None):
    """Reference adversary state from the three-mode circuit: modes
    (return bath, forward bath, signal), forward tap, phase and return tap
    on the amplitude factor of each three-mode total, signal traced out."""
    occ = [scenario.nbar_b2, scenario.nbar_b1, nbar_s]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff)
    pmfs = [_geometric_pmf(n, total_cutoff + 1) for n in occ]
    forward = _BeamSplitter(3, 1, 2, scenario.eta_1, total_cutoff)
    ret = _BeamSplitter(3, 0, 2, scenario.eta_2, total_cutoff)
    reduced = _ReducedAccumulator(total_cutoff)
    for total in range(total_cutoff + 1):
        basis = _block_basis(3, total)
        probs = pmfs[0][basis[:, 0]] * pmfs[1][basis[:, 1]] * pmfs[2][basis[:, 2]]
        factor = _diagonal_factor(probs)
        forward.apply(total, factor)
        factor = np.exp(1j * theta * basis[:, 2])[:, None] * factor
        ret.apply(total, factor)
        reduced.add_traced_factor(3, total, factor, keep=(0, 1))
    return reduced.finish(actual_tail)


def _forward_factors(nbar_b1, nbar_s, nbar_lo, eta_1, cutoff):
    """Reference interrogator forward stage on three modes (forward bath,
    signal, reference): source split, forward tap, bath traced out.  Entry
    ``[s][k]`` is a factor of sigma^(s)_k, whose rows are the signal count."""
    source_total = nbar_s + nbar_lo
    split = 0.0 if source_total == 0.0 else nbar_s / source_total
    pmf_b1 = _geometric_pmf(nbar_b1, cutoff + 1)
    pmf_source = _geometric_pmf(source_total, cutoff + 1)
    prep = _BeamSplitter(3, 2, 1, split, cutoff)
    forward = _BeamSplitter(3, 0, 1, eta_1, cutoff)
    reduced = _ReducedAccumulator(cutoff)
    factors = []
    for total in range(cutoff + 1):
        basis = _block_basis(3, total)
        probs = np.where(
            basis[:, 2] == 0, pmf_b1[basis[:, 0]] * pmf_source[basis[:, 1]], 0.0
        )
        factor = _diagonal_factor(probs)
        prep.apply(total, factor)
        forward.apply(total, factor)
        reduced.add_traced_factor(3, total, factor, keep=(1, 2))
        factors.append(
            [_psd_factor(block.real) for block in reduced.blocks[: total + 1]]
        )
    return factors


def four_mode_alice_state(scenario, probe, cutoff=None):
    """Reference interrogator state from the whole four-mode circuit.

    Modes (return bath, forward bath, signal, reference), the input
    diagonal on the slice with a vacuum reference, the source split,
    forward tap, phase and return tap applied to the amplitude factor of
    each four-mode photon total, and both baths traced out together.
    """
    source_total = probe.nbar_s + probe.nbar_lo
    occ = [scenario.nbar_b2, scenario.nbar_b1, source_total]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff)
    pmfs = [_geometric_pmf(n, total_cutoff + 1) for n in occ]
    split = 0.0 if source_total == 0.0 else probe.nbar_s / source_total
    prep = _BeamSplitter(4, 3, 2, split, total_cutoff)
    forward = _BeamSplitter(4, 1, 2, scenario.eta_1, total_cutoff)
    ret = _BeamSplitter(4, 0, 2, scenario.eta_2, total_cutoff)

    reduced = _ReducedAccumulator(total_cutoff)
    for total in range(total_cutoff + 1):
        basis = _block_basis(4, total)
        probs = np.where(
            basis[:, 3] == 0,
            pmfs[0][basis[:, 0]] * pmfs[1][basis[:, 1]] * pmfs[2][basis[:, 2]],
            0.0,
        )
        factor = _diagonal_factor(probs)
        prep.apply(total, factor)
        forward.apply(total, factor)
        factor = np.exp(1j * probe.theta * basis[:, 2])[:, None] * factor
        ret.apply(total, factor)
        reduced.add_traced_factor(4, total, factor, keep=(2, 3))
    return reduced.finish(actual_tail)


def assert_same_blocks(state, want, tol):
    """Same cutoff and tail bound; phased blocks within ``tol``."""
    assert state.cutoff == want.cutoff
    assert state.tail_bound == want.tail_bound
    pairs = zip(phased_blocks(state), phased_blocks(want), strict=True)
    for block, want_block in pairs:
        assert np.abs(block - want_block).max() <= tol


class TestAliceStateAgainstFourModeRoute:
    # (eta_1, eta_2, nbar_b1, nbar_b2, nbar_s, nbar_lo, theta, cutoff)
    BOX = [
        (0.32, 0.68, 0.08, 0.25, 0.023, 0.14, -0.29, None),  # cutoff 15
        (0.45, 0.82, 0.15, 0.18, 0.095, 0.21, -2.82, None),  # cutoff 16
        (0.93, 0.44, 0.22, 0.29, 0.043, 0.21, -0.67, None),  # cutoff 17
        (0.34, 0.38, 0.14, 0.32, 0.086, 0.2, 2.04, None),  # cutoff 18
        (0.38, 0.93, 0.3, 0.32, 0.075, 0.28, -2.77, None),  # cutoff 19
        (0.9, 0.53, 0.46, 0.08, 0.04, 0.26, 1.45, None),  # cutoff 21
        (0.87, 0.55, 0.07, 0.53, 0.087, 0.28, 1.0, None),  # cutoff 22
        (0.85, 0.63, 0.56, 0.36, 0.099, 0.22, 2.1, None),  # cutoff 24
        (0.73, 0.69, 0.61, 0.38, 0.079, 0.08, -2.64, None),  # cutoff 25
        (0.48, 0.78, 0.2, 0.7, 0.077, 0.28, 0.71, None),  # cutoff 27
    ]
    EDGES = {
        "no-reference": (0.5, 0.5, 0.3, 0.2, 0.05, 0.0, 0.3, None),
        "tiny-signal": (0.5, 0.5, 0.3, 0.2, 1e-9, 0.2, 0.3, None),
        "unit-taps": (1.0, 1.0, 0.3, 0.2, 0.05, 0.2, 0.3, None),
        "vacuum-return-bath": (0.6, 0.7, 0.3, 0.0, 0.05, 0.2, 0.3, None),
        "vacuum-forward-bath": (0.6, 0.7, 0.0, 0.3, 0.05, 0.2, 0.3, None),
        "vacuum-baths": (0.6, 0.7, 0.0, 0.0, 0.05, 0.2, 0.3, None),
        "explicit-cutoff": (0.6, 0.7, 0.1, 0.2, 0.05, 0.2, 0.3, 30),
        # The shortest views: one or two totals at occupancies near 1e-6.
        "cutoff-1": (0.6, 0.7, 1e-6, 2e-6, 1e-6, 3e-6, 0.3, 1),
        "cutoff-2": (0.6, 0.7, 1e-6, 2e-6, 1e-6, 3e-6, 0.3, 2),
        "vacuum-return-bath-cutoff-2": (0.6, 0.7, 1e-6, 0.0, 1e-6, 3e-6, 0.3, 2),
        # p_b2 underflows past 10 photons, so the bath counts are trimmed
        # for the low totals only.
        "underflowing-return-bath": (0.6, 0.7, 0.3, 1e-30, 0.05, 0.25, 0.3, None),
        "zero-taps": (0.0, 0.0, 0.3, 0.2, 0.05, 0.2, 0.3, None),
        "zero-forward-unit-return": (0.0, 1.0, 0.3, 0.2, 0.05, 0.2, 0.3, None),
        "unit-forward-zero-return": (1.0, 0.0, 0.3, 0.2, 0.05, 0.2, 0.3, None),
    }

    @pytest.mark.parametrize(
        "point",
        BOX + list(EDGES.values()),
        ids=[f"box-{k}" for k in range(len(BOX))] + list(EDGES),
    )
    def test_blocks_match(self, point):
        *params, cutoff = point
        scenario = SensingScenario(*params[:4])
        probe = ProbeSettings(*params[4:])
        state = oracle_alice_state(scenario, probe, cutoff)
        want = four_mode_alice_state(scenario, probe, cutoff)
        assert_same_blocks(state, want, 1e-14)


class TestWillieStateAgainstThreeModeRoute:
    # (eta_1, eta_2, nbar_b1, nbar_b2, nbar_s, theta, cutoff)
    BOX = [
        (0.35, 0.42, 0.28, 0.16, 0.067, 0.7, None),  # cutoff 15
        (0.37, 0.67, 0.05, 0.35, 0.098, 1.8, None),  # cutoff 17
        (0.44, 0.39, 0.41, 0.18, 0.08, -1.32, None),  # cutoff 19
        (0.45, 0.32, 0.5, 0.27, 0.047, -1.34, None),  # cutoff 21
        (0.74, 0.44, 0.25, 0.57, 0.1, -2.15, None),  # cutoff 23
        (0.68, 0.57, 0.31, 0.66, 0.024, -1.04, None),  # cutoff 25
        (0.83, 0.63, 0.68, 0.6, 0.07, 2.33, None),  # cutoff 27
    ]
    EDGES = {
        "no-signal": (0.5, 0.5, 0.3, 0.2, 0.0, 0.3, None),
        "unit-taps": (1.0, 1.0, 0.3, 0.2, 0.05, 0.3, None),
        "vacuum-return-bath": (0.6, 0.7, 0.3, 0.0, 0.05, 0.3, None),
        "vacuum-forward-bath": (0.6, 0.7, 0.0, 0.3, 0.05, 0.3, None),
        "vacuum-baths": (0.6, 0.7, 0.0, 0.0, 0.05, 0.3, None),
        "explicit-cutoff": (0.6, 0.7, 0.1, 0.2, 0.05, 0.3, 30),
        # The shortest views: one or two totals at occupancies near 1e-6.
        "cutoff-1": (0.6, 0.7, 1e-6, 2e-6, 1e-6, 0.3, 1),
        "cutoff-2": (0.6, 0.7, 1e-6, 2e-6, 1e-6, 0.3, 2),
        "vacuum-return-bath-cutoff-2": (0.6, 0.7, 1e-6, 0.0, 1e-6, 0.3, 2),
        "underflowing-return-bath": (0.6, 0.7, 0.3, 1e-30, 0.3, 0.3, None),
        "zero-taps": (0.0, 0.0, 0.3, 0.2, 0.05, 0.3, None),
        "zero-forward-unit-return": (0.0, 1.0, 0.3, 0.2, 0.05, 0.3, None),
        "unit-forward-zero-return": (1.0, 0.0, 0.3, 0.2, 0.05, 0.3, None),
    }

    @pytest.mark.parametrize(
        "point",
        BOX + list(EDGES.values()),
        ids=[f"box-{k}" for k in range(len(BOX))] + list(EDGES),
    )
    def test_blocks_match(self, point):
        *params, nbar_s, theta, cutoff = point
        scenario = SensingScenario(*params)
        state = oracle_willie_state(scenario, nbar_s, theta, cutoff)
        want = three_mode_willie_state(scenario, nbar_s, theta, cutoff)
        assert_same_blocks(state, want, 1e-14)


class TestForwardPrefixesAgainstThreeModeRoute:
    @pytest.mark.parametrize(
        "point",
        [
            (0.05, 0.064, 0.24, 0.83, 27),
            (0.3, 0.05, 0.0, 0.6, 20),
            (0.0, 0.1, 0.2, 1.0, 18),
            (0.0, 0.0, 0.0, 0.6, 0),
            (1e-6, 1e-6, 3e-6, 0.6, 1),
            (1e-6, 1e-6, 3e-6, 0.6, 2),
            (0.3, 0.05, 0.2, 0.0, 15),
            (0.3, 0.05, 0.2, 1.0, 15),
        ],
        ids=[
            "cutoff-27",
            "no-reference",
            "vacuum-bath-unit-tap",
            "cutoff-0",
            "cutoff-1",
            "cutoff-2",
            "zero-tap",
            "unit-tap",
        ],
    )
    def test_prefix_blocks_match(self, point):
        # The new stage is on the reference count, the factors' rows on the
        # signal count, so each block is read reversed.
        nbar_b1, nbar_s, nbar_lo, eta_1, cutoff = point
        source_total = nbar_s + nbar_lo
        ratio = nbar_s / source_total if source_total else 0.0
        tap, split = _pair_blocks((eta_1, ratio), cutoff)
        prefixes = fock._forward_prefixes(tap, nbar_b1, source_total, split[:, :, 0])
        factors = _forward_factors(*point)
        for total, prefix in enumerate(prefixes):
            # Ragged: sigma^(s)_k for s = k..cutoff only.
            assert prefix.shape == (cutoff - total + 1, total + 1, total + 1)
            for level, block in enumerate(prefix):
                factor = factors[total + level][total]
                want = (factor @ factor.T)[::-1, ::-1]
                assert np.abs(block - want).max() <= 1e-14


class TestDiagonalViewsInsideTheirTables:
    """The tap stages read each photon total through views of one table per
    stage (``fock._diagonals``).  Every view of a build lies inside the
    bytes of the table it views, and none can write to it."""

    @pytest.mark.parametrize("cutoff", [0, 1, 64])
    def test_every_view_inside_its_table(self, monkeypatch, cutoff):
        views = []
        diagonals = fock._diagonals

        def recording(base, moves):
            view = diagonals(base, moves)

            def record(start, shape):
                views.append((base, view(start, shape)))
                return views[-1][1]

            return record

        monkeypatch.setattr(fock, "_diagonals", recording)
        # Only the views are under test; an unvalidated block family will do.
        monkeypatch.setattr(fock, "_finish", lambda blocks, tail_bound: blocks)
        forward, ret, split = _pair_blocks((0.6, 0.7, 0.05 / 0.3), cutoff)
        # The Gram is built as the adversary builder reads it, one total at
        # a time, and the forward-tap blocks read no view.
        probe = _geometric_pmf(0.05, cutoff + 1)
        fock._willie_states(SMALL, [probe], forward, ret, [0.0])
        fock._interrogator_state(SMALL, 0.3, split[:, :, 0], forward, ret, 0.0)
        # Per total: one Gram view, one forward tap view and one return tap
        # view; and the source split once.
        assert len(views) == 3 * (cutoff + 1) + 1
        for base, view in views:
            low, high = byte_bounds(base)
            view_low, view_high = byte_bounds(view)
            assert low <= view_low and view_high <= high
            assert not view.flags.writeable

    def test_view_past_the_table_refused(self):
        table = np.arange(9.0).reshape(3, 3)
        diagonal = fock._diagonals(table, ((1, 1),))
        assert diagonal((0, 0), (3,)).tolist() == [0.0, 4.0, 8.0]
        # One step past the last entry, or one before the first.
        with pytest.raises(ValueError):
            diagonal((0, 1), (3,))
        with pytest.raises(ValueError):
            fock._diagonals(table, ((0, -1),))((0, 0), (2,))


class TestPhaseConjugatesBlocks:
    """theta only conjugates each block by D = diag(exp(i theta u)), u the
    block position, so a state at theta is D (state at 0) D^dag: it holds
    the same real blocks as the state at 0, and theta as its phase."""

    @pytest.mark.parametrize("theta", [0.3, -2.9, math.pi])
    @pytest.mark.parametrize("route", ["willie", "alice"])
    def test_state_at_theta_is_conjugated_state_at_zero(self, route, theta):
        scenario = SensingScenario(0.62, 0.89, 0.08, 0.25)
        if route == "willie":
            at_zero = oracle_willie_state(scenario, 0.064, 0.0)
            state = oracle_willie_state(scenario, 0.064, theta)
        else:
            at_zero = oracle_alice_state(scenario, ProbeSettings(0.064, 0.07, 0.0))
            state = oracle_alice_state(scenario, ProbeSettings(0.064, 0.07, theta))
        assert (at_zero.phase, state.phase) == (0.0, theta)
        assert len(state.blocks) == len(at_zero.blocks)
        for block, zero_block in zip(state.blocks, at_zero.blocks):
            assert block.dtype == np.float64
            assert np.array_equal(block, zero_block)
        for block, zero_block in zip(phased_blocks(state), at_zero.blocks):
            phase = np.exp(1j * theta * np.arange(len(block)))
            want = phase[:, None] * zero_block * phase.conj()
            assert np.abs(block - want).max() <= 1e-15


def sparse_kron_moments(state):
    """Reference (mean, CM) from full-grid sparse ladder operators.

    The construction the oracle used before its einsum route: each
    quadrature is lifted to the whole grid by Kronecker products with
    identities, and products of quadratures are full-grid operator
    products.  The state is first lifted into a grid of cutoff + 2 levels
    per mode, so the truncated ladder matrices read a a^dag exactly on
    every level the state holds, n = cutoff included, as ``fock_moments``
    does; the one level they misread is empty.
    """
    d = state.cutoff + 2
    single = scipy.sparse.diags(np.sqrt(np.arange(1, d, dtype=float)), offsets=1)
    eye = scipy.sparse.identity(d)
    ladders = [
        scipy.sparse.kron(single, eye, format="csr"),
        scipy.sparse.kron(eye, single, format="csr"),
    ]
    quads = [(a + a.T) / math.sqrt(2.0) for a in ladders]
    quads += [(a - a.T) / (1j * math.sqrt(2.0)) for a in ladders]

    counts = np.arange(state.cutoff + 1)
    lift = (counts[:, None] * d + counts).ravel()
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[np.ix_(lift, lift)] = dense(state) / state.trace()

    def expect(op):
        return complex(op.multiply(rho.T).sum()).real

    size = len(quads)
    mean = np.array([expect(op) for op in quads])
    cov = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            sym = (quads[i] @ quads[j] + quads[j] @ quads[i]) / 2.0
            cov[i, j] = cov[j, i] = expect(sym) - mean[i] * mean[j]
    return mean, cov


class TestMomentsAgainstSparseKron:
    def test_ungraded_state_refused(self):
        # |00><10| + |10><00| couples photon totals 0 and 1, so no state
        # that fock_moments could read holds it.
        block = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match=r"total 0 must have shape \(1, 1\)"):
            FockDensityMatrix(1, [block, np.zeros((2, 2))], 0.0)

    def test_dense_multimode_state_matches_reference_route(self):
        # A dense random two-mode state whose totals reach the cutoff, so
        # the same-mode a a^dag at n = cutoff is read in both modes.
        rng = np.random.default_rng(7)
        cutoff = 4
        blocks = []
        for total in range(cutoff + 1):
            amp = rng.normal(size=(total + 1, 2)) + 1j * rng.normal(size=(total + 1, 2))
            blocks.append(amp @ amp.conj().T)
        norm = sum(np.trace(block).real for block in blocks)
        state = FockDensityMatrix(cutoff, [block / norm for block in blocks], 0.0)
        mean, cov = fock_moments(state)
        want_mean, want_cov = sparse_kron_moments(state)
        assert np.array_equal(mean, np.zeros(4))
        assert np.abs(want_mean).max() <= 1e-15
        assert np.abs(cov - want_cov).max() <= 1e-13

    SCENARIO = SensingScenario(0.7, 0.6, 0.02, 0.03)

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: oracle_willie_state(s, 0.04, 0.3, cutoff=8),
            lambda s: oracle_alice_state(s, ProbeSettings(0.02, 0.03, 0.3), cutoff=8),
        ],
        ids=["willie", "alice"],
    )
    def test_matches_reference_route(self, build):
        state = build(self.SCENARIO)
        mean, cov = fock_moments(state)
        want_mean, want_cov = sparse_kron_moments(state)
        assert np.abs(mean - want_mean).max() <= 1e-13
        assert np.abs(cov - want_cov).max() <= 1e-13


def full_grid_assembly(raw_blocks, cutoff, phase):
    """The dense state the reduced accumulator used to return.

    Each raw total-photon block is scattered into the (cutoff + 1)^2 grid,
    the whole grid is symmetrised, then turned by exp(i phase a) on the
    first mode's count a.
    """
    dim = cutoff + 1
    entries = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total, block in enumerate(raw_blocks):
        idx = np.arange(total + 1) * (dim - 1) + total
        entries[np.ix_(idx, idx)] += block
    turn = np.exp(1j * phase * (np.arange(dim * dim) // dim))
    return turn[:, None] * ((entries + entries.conj().T) / 2.0) * turn.conj()


class TestBlockRouteAgainstDenseRoute:
    """A state against the full grid of the same blocks."""

    SCENARIO = SensingScenario(0.7, 0.6, 0.02, 0.03)

    @pytest.fixture(
        params=[
            lambda s: oracle_willie_state(s, 0.04, 0.3, cutoff=8),
            lambda s: oracle_alice_state(s, ProbeSettings(0.02, 0.03, 0.3), cutoff=8),
        ],
        ids=["willie", "alice"],
    )
    def routes(self, request, monkeypatch):
        """(state, its full grid built by the old full-grid assembly).

        ``_finish`` sees the real blocks at phase 0; the state carries the
        phase, which the grid applies last.
        """
        raw = []
        finish = fock._finish

        def recording(blocks, tail_bound):
            raw.extend(block.copy() for block in blocks)
            return finish(blocks, tail_bound)

        monkeypatch.setattr(fock, "_finish", recording)
        state = request.param(self.SCENARIO)
        assert state.phase != 0.0
        return state, full_grid_assembly(raw, state.cutoff, state.phase)

    def test_dense_grid_equals_full_grid_assembly(self, routes):
        state, grid = routes
        assert np.array_equal(dense(state), grid)

    def test_trace_and_purity_equal_dense_route(self, routes):
        state, grid = routes
        # Both sums correctly rounded, so the whole grid's zeros and its
        # order cannot move a bit.
        assert state.trace() == math.fsum(np.diagonal(grid).real.tolist())
        # Summed block by block, against one sum over the whole grid.
        assert fock_purity(state) == pytest.approx(
            float(np.vdot(grid, grid).real), rel=4e-16
        )

    @pytest.mark.parametrize(
        "total,perturb,match",
        [
            (1, lambda b: b + np.array([[0.0, 0.1], [0.0, 0.0]]), "Hermitian"),
            (1, lambda b: b + np.diag([0.2, -0.2]), "negative eigenvalue"),
            (0, lambda b: 0.5 * b, "trace"),
        ],
        ids=["non-hermitian", "negative", "trace"],
    )
    def test_require_valid_refuses_bad_block(self, routes, total, perturb, match):
        state, _ = routes
        blocks = list(state.blocks)
        blocks[total] = perturb(blocks[total])
        bad = FockDensityMatrix(state.cutoff, blocks, state.tail_bound)
        with pytest.raises(ValueError, match=match):
            bad.require_valid()


def recording_calls(monkeypatch, *names):
    """Wrap the named ``fock`` functions; return {name: [(args, result)]}."""
    calls = {name: [] for name in names}
    for name, record in calls.items():

        def recording(*args, _real=getattr(fock, name), _record=record):
            _record.append((args, _real(*args)))
            return _record[-1][1]

        monkeypatch.setattr(fock, name, recording)
    return calls


def refusing_builders(monkeypatch):
    """Make every table and state builder of a cross-check fail the test
    when called; return the list of calls, which should stay empty."""
    built = []
    names = ("_pair_blocks", "_return_gram", "_willie_states", "_interrogator_state")
    for name in names:

        def refusing(*args, _name=name):
            built.append(_name)
            raise AssertionError(f"{_name} was called")

        monkeypatch.setattr(fock, name, refusing)
    return built


class TestSharedTables:
    def test_cross_check_builds_each_table_once(self, monkeypatch):
        calls = recording_calls(
            monkeypatch,
            "_select_total_cutoff",
            "_pair_blocks",
            "_willie_states",
            "_interrogator_state",
        )
        gram_calls, grams = streamed(monkeypatch, "_return_gram")
        prefix_calls, prefixes = streamed(monkeypatch, "_forward_prefixes")
        reads = einsum_reads(monkeypatch, grams)
        oracle_cross_check(SMALL, 0.05, 0.25, 0.3)
        # One cutoff, selected on the interrogator's inputs, for all four
        # states.
        (((occ, cutoff), (shared, _)),) = calls["_select_total_cutoff"]
        assert occ == [SMALL.nbar_b2, SMALL.nbar_b1, 0.05 + 0.25]
        assert cutoff is None
        # One pair-block build, with one lane per beam splitter: the
        # forward tap, the return tap and the source split (SMALL's taps
        # are equal; each still gets its own lane).
        ((args, tables),) = calls["_pair_blocks"]
        assert args == ((SMALL.eta_1, SMALL.eta_2, 0.05 / (0.05 + 0.25)), shared)
        forward_table, return_table, split_table = tables
        # One adversary build for both states, each probe taken as its
        # thermal number distribution.
        ((adversary_args, adversaries),) = calls["_willie_states"]
        assert [pmf.tolist() for pmf in adversary_args[1]] == [
            _geometric_pmf(n, shared + 1).tolist() for n in (0.0, 0.05)
        ]
        assert same_view(adversary_args[2], forward_table)
        assert same_view(adversary_args[3], return_table)
        assert len(adversaries) == 2
        # One Gram stream of the return tap: each total built once and read
        # by both adversary states.
        ((gram_table, _),) = gram_calls
        assert same_view(gram_table, return_table)
        assert reads == [2] * (shared + 1)
        # One interrogator build, for both phases, whose forward stage
        # runs once, one total at a time, and reads the split as column 0
        # of its lane.
        ((alice_args, _),) = calls["_interrogator_state"]
        assert alice_args[1] == 0.05 + 0.25
        assert same_view(alice_args[2], split_table[:, :, 0])
        assert same_view(alice_args[3], forward_table)
        assert same_view(alice_args[4], return_table)
        ((prefix_table, _, _, prefix_split),) = prefix_calls
        assert same_view(prefix_table, forward_table)
        assert same_view(prefix_split, alice_args[2])
        assert len(prefixes) == shared + 1


def same_view(view, want):
    """True when ``view`` reads the same bytes of the same table as ``want``,
    in the same shape and order."""
    return (
        view.base is want.base
        and view.__array_interface__ == want.__array_interface__
    )


def streamed(monkeypatch, name):
    """Wrap the generator ``fock.<name>``; return (calls, items): the
    arguments of each call and a weak reference to each item yielded.

    Each yield asserts that no item but the last one yielded is still
    alive: the consumer reads each photon total's item and drops it, and
    only its loop variable still holds the last one when it asks for the
    next.
    """
    calls, items = [], []
    stream = getattr(fock, name)

    def watched(*args):
        calls.append(args)
        for item in stream(*args):
            assert all(ref() is None for ref in items[:-1])
            items.append(weakref.ref(item))
            yield item

    monkeypatch.setattr(fock, name, watched)
    return calls, items


def einsum_reads(monkeypatch, items):
    """Count, for each weakly referenced array in the list ``items`` (which
    may still grow), the ``np.einsum`` calls that take it as an operand."""
    reads = []
    einsum = np.einsum

    def counting(subscripts, *operands, **kwargs):
        reads.extend([0] * (len(items) - len(reads)))
        for index, ref in enumerate(items):
            reads[index] += any(operand is ref() for operand in operands)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    return reads


def grid_qre(rho_0, rho_1):
    """tr rho_0 (ln rho_0 - ln rho_1) from whole-grid eigendecompositions.

    Eigenvalues below 1e-14 are clamped for the logarithms, as the oracle
    does.
    """
    lam = scipy.linalg.eigvalsh(rho_0)
    lam = lam[lam > 1e-14]
    mu, w = scipy.linalg.eigh(rho_1)
    log_1 = (w * np.log(np.clip(mu, 1e-14, None))) @ w.conj().T
    return float(np.sum(lam * np.log(lam)) - np.trace(rho_0 @ log_1).real)


def grid_fidelity(rho_0, rho_1):
    """tr sqrt(sqrt(rho_0) rho_1 sqrt(rho_0)) on the whole grid, taken as
    the trace norm of sqrt(rho_0) sqrt(rho_1).

    The states have eigenvalues near 1e-16, below the rounding of a
    whole-grid decomposition.  Square roots of the eigenvalues of
    sqrt(rho_0) rho_1 sqrt(rho_0) turn that rounding into errors of ~1e-10;
    the singular values of the product of roots keep it at ~1e-16.
    """

    def root(rho):
        lam, v = scipy.linalg.eigh(rho)
        return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T

    return float(scipy.linalg.svdvals(root(rho_0) @ root(rho_1)).sum())


class TestBlockSplitAgainstFullGrid:
    """QRE and fidelity read per block agree with the same quantities on
    the assembled 81 x 81 grids at cutoff 8."""

    SCENARIO = SensingScenario(0.7, 0.6, 0.02, 0.03)
    # With vacuum baths the probe-off adversary state is the vacuum: one
    # block, so every other total is empty on one side.
    VACUUM_BATHS = SensingScenario(0.7, 0.6, 0.0, 0.0)

    @pytest.mark.parametrize(
        "scenario,route",
        [
            (SCENARIO, "willie"),
            (SCENARIO, "alice"),
            (VACUUM_BATHS, "willie"),
            (None, "gaps"),
        ],
        ids=["willie-off-on", "alice-two-phases", "willie-vacuum-baths", "gaps"],
    )
    def test_qre_and_fidelity_match_whole_grid(self, scenario, route):
        if route == "gaps":
            # Photon totals 1 and 3 empty in the first state only: zero
            # blocks read against full ones.
            state_1 = product_state(0.02, 0.03, 8)
            probs = np.multiply.outer(*(thermal_pmf(n, 8)[0] for n in (0.02, 0.03)))
            totals = np.add.outer(np.arange(9), np.arange(9))
            probs[np.isin(totals, (1, 3)) | (totals > 8)] = 0.0
            state_0 = diagonal_state(probs / probs.sum(), 0.0).require_valid()
        elif route == "willie":
            state_0, state_1 = (
                oracle_willie_state(scenario, nbar_s, 0.3, 8) for nbar_s in (0.0, 0.04)
            )
        else:
            state_0, state_1 = (
                oracle_alice_state(scenario, ProbeSettings(0.02, 0.03, theta), 8)
                for theta in (0.3, 0.4)
            )
        rho_0, rho_1 = dense(state_0), dense(state_1)
        assert rho_0.shape == (81, 81)
        assert abs(oracle_qre(state_0, state_1) - grid_qre(rho_0, rho_1)) <= 1e-12
        for a, b, rho_a, rho_b in (
            (state_0, state_1, rho_0, rho_1),
            (state_1, state_0, rho_1, rho_0),
        ):
            assert abs(oracle_fidelity(a, b) - grid_fidelity(rho_a, rho_b)) <= 1e-12


def counting_lapack(monkeypatch):
    """Record (name, argument) of every ``np.linalg`` eigh and eigvalsh."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counting(a, *args, _name=name, _real=getattr(np.linalg, name)):
            calls.append((_name, a))
            return _real(a, *args)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestOneDecompositionPerBlockFamily:
    def test_cross_check_decomposes_each_real_block_family_once(self, monkeypatch):
        recorded = recording_calls(
            monkeypatch,
            "_finish",
            "_willie_states",
            "_interrogator_state",
            "oracle_qre",
            "oracle_fidelity",
        )
        spectra = []
        spectrum = fock._block_spectrum

        def decomposing(block):
            spectra.append(block)
            return spectrum(block)

        monkeypatch.setattr(fock, "_block_spectrum", decomposing)
        calls = counting_lapack(monkeypatch)
        oracle_cross_check(SMALL, 0.05, 0.25, 0.3)

        # Three real families: the adversary without and with the probe,
        # and the one interrogator build that both phases share.  The
        # builders return them, and the QRE and fidelity read them.
        families = [family for _, family in recorded["_finish"]]
        ((_, adversaries),) = recorded["_willie_states"]
        ((_, interrogator),) = recorded["_interrogator_state"]
        built = [*adversaries, interrogator]
        assert len(families) == 3
        for state, family in zip(built, families, strict=True):
            assert state is family
        (((w_off, w_on), _),) = recorded["oracle_qre"]
        (((a_state_a, a_state_b), _),) = recorded["oracle_fidelity"]
        states = [w_off, w_on, a_state_a, a_state_b]
        for state, family in zip(states, families + families[2:]):
            assert state.blocks is family.blocks
            assert state._eigenpairs is family._eigenpairs
        assert a_state_a.phase != a_state_b.phase
        # The oracle decomposes each block of each family once, each with
        # one real eigh, and nothing else.
        blocks = [block for family in families for block in family.blocks]
        assert len(spectra) == len(blocks)
        decomposed = [a for name, a in calls if name == "eigh"]
        for block in blocks:
            assert block.dtype == np.float64
            assert sum(a is block for a in spectra) == 1
            assert sum(a is block for a in decomposed) == 1
        # The only eigvalsh calls are the fidelity's, one per total the
        # interrogator pair shares.
        names = [name for name, _ in calls]
        assert names.count("eigvalsh") == len(a_state_a.blocks)


def fidelity_every_total(state_0, state_1):
    """``oracle_fidelity`` at phase 0 with no total skipped."""
    assert state_0.phase == state_1.phase == 0.0
    total = 0.0
    for (lam, v), b1 in zip(state_0._spectra(), state_1.blocks):
        root = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
        inner = root @ b1 @ root
        nu = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
        total += float(np.sqrt(np.clip(nu, 0.0, None)).sum())
    return min(total, 1.0)


class TestEmptyTotals:
    """A zero block gets the eigenpairs (zeros, identity) without LAPACK,
    and a total empty in either state adds no fidelity term."""

    VACUUM_BATHS = SensingScenario(0.7, 0.6, 0.0, 0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_block_spectrum_is_lapacks(self, dtype):
        for size in range(1, 6):
            zero = np.zeros((size, size), dtype=dtype)
            lam, vec = fock._block_spectrum(zero)
            want_lam, want_vec = np.linalg.eigh(zero)
            assert np.array_equal(lam, want_lam)
            assert np.array_equal(vec, want_vec)
            assert (lam.dtype, vec.dtype) == (want_lam.dtype, want_vec.dtype)

    def test_all_vacuum_cross_check_decomposes_no_zero_block(self, monkeypatch):
        families = []
        finish = fock._finish

        def recording(*args):
            families.append(finish(*args))
            return families[-1]

        monkeypatch.setattr(fock, "_finish", recording)
        calls = counting_lapack(monkeypatch)
        residuals = oracle_cross_check(
            SensingScenario(0.5, 0.5, 0.0, 0.0), 0.0, 0.0, 0.3, cutoff=8
        )
        assert all(a.any() for _, a in calls)
        # Every state is the vacuum: one full total, decomposed once per
        # family, and one fidelity term.
        blocks = [block for family in families for block in family.blocks]
        decomposed = [
            a for name, a in calls if name == "eigh" and any(a is b for b in blocks)
        ]
        assert len(blocks) == 27
        assert len(decomposed) == 3
        assert [name for name, _ in calls].count("eigvalsh") == 1
        assert residuals["willie_qre_err"] == 0.0
        assert residuals["alice_fidelity_err"] == 0.0

    @pytest.mark.parametrize("route", ["willie-vacuum-baths", "gaps"])
    def test_shortcut_is_bit_identical(self, monkeypatch, route):
        def states():
            if route == "gaps":
                # Photon totals 1 and 3 empty in the first state only.
                full = product_state(0.02, 0.03, 8)
                probs = np.multiply.outer(
                    *(thermal_pmf(n, 8)[0] for n in (0.02, 0.03))
                )
                totals = np.add.outer(np.arange(9), np.arange(9))
                probs[np.isin(totals, (1, 3)) | (totals > 8)] = 0.0
                gaps = diagonal_state(probs / probs.sum(), 0.0).require_valid()
                return gaps, full
            # The probe-off state is the vacuum: totals 1..8 empty.
            return tuple(
                oracle_willie_state(self.VACUUM_BATHS, nbar_s, 0.0, 8)
                for nbar_s in (0.0, 0.04)
            )

        def measures(state_0, state_1):
            return (
                oracle_qre(state_0, state_1),
                oracle_fidelity(state_0, state_1),
                oracle_fidelity(state_1, state_0),
            )

        state_0, state_1 = states()
        assert not all(block.any() for block in state_0.blocks)
        fast = measures(state_0, state_1)
        assert fast[1:] == (
            fidelity_every_total(state_0, state_1),
            fidelity_every_total(state_1, state_0),
        )
        monkeypatch.setattr(fock, "_block_spectrum", np.linalg.eigh)
        assert measures(*states()) == fast


class TestRealBlocksAgainstRotatedRoute:
    """QRE, fidelity, moments and purity of the real blocks and their phase
    against the same states held as their rotated complex blocks."""

    SCENARIO = SensingScenario(0.5, 0.92, 0.35, 0.46)
    PROBE = (0.067, 0.11)

    @staticmethod
    def _random_state(seed, phase):
        """A general state: random complex blocks at totals 0..6."""
        rng = np.random.default_rng(seed)
        blocks = []
        for total in range(7):
            amp = rng.normal(size=(total + 1, total + 1))
            amp = amp + 1j * rng.normal(size=amp.shape)
            # Kept well inside full rank, so no eigenvalue is near 0.
            blocks.append(amp @ amp.conj().T + (total + 1) * np.eye(total + 1))
        norm = sum(np.trace(block).real for block in blocks)
        return FockDensityMatrix(
            6, [block / norm for block in blocks], 0.0, phase
        ).require_valid()

    def _pair(self, name):
        if name == "willie-equal-phase":
            return tuple(
                oracle_willie_state(self.SCENARIO, nbar_s, -2.63, 21)
                for nbar_s in (0.0, 0.067)
            )
        if name == "willie-unequal-phase":
            return (
                oracle_willie_state(self.SCENARIO, 0.0, 0.3, 21),
                oracle_willie_state(self.SCENARIO, 0.067, -2.0, 21),
            )
        if name == "alice-pair":
            return tuple(
                oracle_alice_state(self.SCENARIO, ProbeSettings(*self.PROBE, theta))
                for theta in (3.1, 3.2)
            )
        return self._random_state(1, 0.7), self._random_state(2, -1.2)

    @pytest.mark.parametrize(
        "name",
        ["willie-equal-phase", "willie-unequal-phase", "alice-pair", "general"],
    )
    def test_measures_match(self, name):
        state_0, state_1 = self._pair(name)
        ref_0, ref_1 = rotated_route(state_0), rotated_route(state_1)
        assert abs(oracle_qre(state_0, state_1) - oracle_qre(ref_0, ref_1)) <= 1e-15
        for a, b, ref_a, ref_b in (
            (state_0, state_1, ref_0, ref_1),
            (state_1, state_0, ref_1, ref_0),
        ):
            assert abs(oracle_fidelity(a, b) - oracle_fidelity(ref_a, ref_b)) <= 1e-15
        for state, ref in ((state_0, ref_0), (state_1, ref_1)):
            mean, cov = fock_moments(state)
            ref_mean, ref_cov = fock_moments(ref)
            assert np.array_equal(mean, ref_mean)
            assert np.abs(cov - ref_cov).max() <= 1e-15
            assert abs(fock_purity(state) - fock_purity(ref)) <= 1e-15


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

    def test_source_total_refused_before_any_state(self, monkeypatch):
        built = refusing_builders(monkeypatch)
        with pytest.raises(ValueError, match=r"nbar_s \+ nbar_lo = 2\.2 exceeds 2"):
            oracle_cross_check(SensingScenario(0.5, 0.5, 0.01, 0.01), 1.2, 1.0, 0.3)
        assert built == []

    #: Where the probe-off adversary accepts cutoff 22 and the interrogator,
    #: whose inputs dominate, needs 23.
    ADVICE = SensingScenario(0.6, 0.7, 0.4, 0.5)

    def test_refused_cutoff_names_the_cutoff_the_check_accepts(self):
        with pytest.raises(CutoffError, match=r"cutoff 17 .*required cutoff: 23$"):
            oracle_cross_check(self.ADVICE, 0.05, 0.3, 0.3, 17)
        assert oracle_cross_check(self.ADVICE, 0.05, 0.3, 0.3, 23)["cutoff"] == 23.0

    def test_short_cutoff_refused_before_any_state(self, monkeypatch):
        built = refusing_builders(monkeypatch)
        with pytest.raises(CutoffError, match=r"cutoff 22 .*required cutoff: 23$"):
            oracle_cross_check(self.ADVICE, 0.05, 0.3, 0.3, 22)
        assert built == []

    @pytest.mark.parametrize("name,args", [
        ("nbar_s", (math.nan, 0.25, 0.3)),
        ("nbar_lo", (0.05, math.nan, 0.3)),
        ("theta", (0.05, 0.25, math.inf)),
    ])
    def test_non_finite_input_named(self, name, args):
        with pytest.raises(ValueError, match=name):
            oracle_cross_check(SMALL, *args)

    @pytest.mark.parametrize("cutoff,error,match", [
        (-1, ValueError, "non-negative"),
        (MAX_TOTAL_PHOTONS + 1, CutoffError, "cap"),
        (10**7, CutoffError, "cap"),
        (30.0, ValueError, "^cutoff must be an integer, got 30.0$"),
        (np.float64(30.0), ValueError, r"^cutoff must be an integer, got .*30\.0"),
        (True, ValueError, "^cutoff must be an integer, got True$"),
        ("30", ValueError, "^cutoff must be an integer, got '30'$"),
    ])
    def test_out_of_range_cutoff_refused_before_work(self, cutoff, error, match):
        with pytest.raises(error, match=match):
            oracle_cross_check(SMALL, 0.05, 0.25, 0.3, cutoff)

    @pytest.mark.parametrize(
        "cutoff",
        [30.0, np.float64(30.0), True, "30"],
        ids=["float", "float64", "bool", "str"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda cutoff: oracle_willie_state(SMALL, 0.05, 0.3, cutoff),
            lambda cutoff: oracle_alice_state(SMALL, PROBE, cutoff),
        ],
        ids=["willie", "alice"],
    )
    def test_non_integer_cutoff_refused_by_state_builders(self, build, cutoff):
        with pytest.raises(ValueError, match="^cutoff must be an integer, got "):
            build(cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        residuals = oracle_cross_check(SMALL, 0.05, 0.25, 0.3, np.int64(30))
        assert residuals == oracle_cross_check(SMALL, 0.05, 0.25, 0.3, 30)

    @pytest.mark.parametrize("occupancy", [1e-6, 3e-6, 1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("name", ["nbar_b1", "nbar_b2", "nbar_s", "nbar_lo"])
    def test_single_tiny_occupancy_passes(self, name, occupancy):
        # One occupancy x, the rest 0, at taps 0.5/0.5: the automatic cutoff
        # is 1 to 3.  Reading a a^dag as 0 at the cutoff erred by the mass
        # there (about x at cutoff 1), past the 1e-6 CM tolerance for x in
        # [1e-6, 1e-5]; read as a^dag a + 1 the error is far below it.
        values = {"nbar_b1": 0.0, "nbar_b2": 0.0, "nbar_s": 0.0, "nbar_lo": 0.0}
        values[name] = occupancy
        scenario = SensingScenario(0.5, 0.5, values["nbar_b1"], values["nbar_b2"])
        residuals = oracle_cross_check(
            scenario, values["nbar_s"], values["nbar_lo"], 0.3
        )
        assert residuals["cutoff"] <= 3
        assert residuals["willie_cm_max_err"] <= 1e-9
        assert residuals["alice_cm_max_err"] <= 1e-9

    def test_phase_wrapped_once_for_all_states(self):
        # exp(i theta n) at a huge unwrapped phase keeps no correct digit,
        # so every state must see the phase wrapped into (-pi, pi].
        huge = oracle_cross_check(SMALL, 0.05, 0.25, 1e308)
        wrapped = check_angle("angle", 1e308)
        assert huge == oracle_cross_check(SMALL, 0.05, 0.25, wrapped)
        assert huge["willie_qre_err"] <= 1e-4


class TestCrossCheckMemory:
    """A cross-check streams the return tap's Gram and the interrogator's
    prefixes one photon total at a time, so it holds O(cutoff^3) at once.
    Either family held over all totals grows as cutoff^4; holding both read
    a traced peak of 79 MB at cutoff 64, 12 times the peak at cutoff 32."""

    SCENARIO = SensingScenario(0.5, 0.5, 0.1, 0.1)

    def traced_peak(self, cutoff):
        """The tracemalloc peak, in bytes, of one cross-check at ``cutoff``."""
        tracemalloc.start()
        try:
            oracle_cross_check(self.SCENARIO, 0.05, 0.0, 0.3, cutoff=cutoff)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_as_cutoff_cubed(self):
        # Untraced first, so that no import counts towards a peak.
        oracle_cross_check(self.SCENARIO, 0.05, 0.0, 0.3, cutoff=32)
        peak_32, peak_64 = self.traced_peak(32), self.traced_peak(64)
        assert peak_64 < 30e6
        # Doubling the cutoff multiplies a cubic peak by 8, a quartic by 16.
        assert peak_64 <= 9 * peak_32


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

    # Split ratios nbar_s / (nbar_s + nbar_lo): 0 is the split of an empty
    # source and 1 a source of signal only.
    SPLIT_RATIOS = [0.0, 0.03, 0.3, 0.5, 0.95, 1.0]

    @pytest.mark.parametrize("eta", SPLIT_RATIOS)
    def test_closed_form_matches_matrix_exponential(self, eta):
        table = _pair_blocks((eta,), 64)[0]
        assert not table.flags.writeable
        for total in range(65):
            block = table[total, : total + 1, : total + 1]
            # An index past the block reads a zero amplitude.
            assert not table[total, total + 1 :].any()
            assert not table[total, :, total + 1 :].any()
            reference = self._hopping_expm(total, eta)
            # expm drifts from orthogonality as the generator norm grows
            # (to ~6e-13 at total 64, eta 0); it cannot certify agreement
            # tighter than that drift, while the closed form stays
            # orthogonal to 1e-13 on its own.
            drift = np.abs(reference.T @ reference - np.eye(total + 1)).max()
            assert np.abs(block - reference).max() <= 1e-13 + drift
            assert np.abs(block.T @ block - np.eye(total + 1)).max() <= 1e-13

    @staticmethod
    def _binomial_amplitudes(ratio, cutoff):
        """sqrt(C(n, r)) s^r c^(n - r), c = sqrt(ratio) and s = sqrt(1 - ratio),
        for n, r = 0..cutoff; zero for r > n."""
        c, s = math.sqrt(ratio), math.sqrt(1.0 - ratio)
        want = np.zeros((cutoff + 1, cutoff + 1))
        for n in range(cutoff + 1):
            for r in range(n + 1):
                want[n, r] = math.sqrt(math.comb(n, r)) * s**r * c ** (n - r)
        return want

    @pytest.mark.parametrize("ratio", SPLIT_RATIOS)
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 21, 27, 57, 64])
    def test_split_amplitudes_are_column_zero(self, ratio, cutoff):
        # The source split reads V_n[r] = U_n[r, 0] as column 0 of its own
        # lane, built beside both taps' lanes: every lane is bit for bit the
        # one-lane table of its transmissivity, and column 0 holds the
        # binomial amplitudes of n photons entering the second port.
        etas = (0.6, 0.7, ratio)
        lanes = _pair_blocks(etas, cutoff)
        assert lanes.shape == (3,) + (cutoff + 1,) * 3
        for eta, lane in zip(etas, lanes, strict=True):
            assert not lane.flags.writeable
            assert np.array_equal(lane, _pair_blocks((eta,), cutoff)[0])
        split = lanes[2][:, :, 0]
        assert not np.triu(split, 1).any()
        want = self._binomial_amplitudes(ratio, cutoff)
        assert np.abs(split - want).max() <= 1e-15

    @pytest.mark.parametrize("ratio", [1e-9, 0.3, 0.95, 1.0 - 1e-9])
    def test_split_amplitudes_against_exact_values(self, ratio):
        # The recurrence carries the rounding of sqrt(ratio) and
        # sqrt(1 - ratio) into its n-th powers, so near ratio 0 or 1 at
        # cutoff 64 its column 0 is ~4.6e-15 from 50-digit values; the
        # oracle's tolerances are 1e-8 and above.
        kept = decimal.Decimal(ratio)
        exact = np.zeros((65, 65))
        with decimal.localcontext() as context:
            context.prec = 50
            for n in range(65):
                for r in range(n + 1):
                    exact[n, r] = float(
                        (decimal.Decimal(math.comb(n, r)) * (1 - kept) ** r
                         * kept ** (n - r)).sqrt()
                    )
        split = _pair_blocks((0.6, 0.7, ratio), 64)[2][:, :, 0]
        assert np.abs(split - exact).max() <= 5e-15

    @pytest.mark.parametrize("cutoff", [0, 1, 15, 27, 64])
    def test_every_lane_is_its_one_lane_table(self, cutoff):
        etas = (0.0, 1e-9, 0.3, 0.6, 0.95, 1.0 - 1e-9, 1.0)
        lanes = _pair_blocks(etas, cutoff)
        for eta, lane in zip(etas, lanes, strict=True):
            assert np.array_equal(lane, _pair_blocks((eta,), cutoff)[0])

    def test_split_route_drift_bounded(self):
        # The interrogator's source split was once read from the binomial
        # closed form; from the recurrence its states move by at most
        # 2.8e-17 entrywise over 40 points of the fock-oracle box, and the
        # cross-check's fidelity residual by at most 5.6e-16.
        rng = random.Random(44)
        for _ in range(20):
            etas = rng.uniform(0.3, 0.95), rng.uniform(0.3, 0.95)
            baths = rng.uniform(0.05, 0.7), rng.uniform(0.05, 0.7)
            nbar_s, nbar_lo = rng.uniform(0.01, 0.1), rng.uniform(0.05, 0.35)
            scenario = SensingScenario(*etas, *baths)
            source = nbar_s + nbar_lo
            cutoff, tail = _select_total_cutoff([baths[1], baths[0], source], None)
            forward, ret, split = _pair_blocks((*etas, nbar_s / source), cutoff)
            closed = self._binomial_amplitudes(nbar_s / source, cutoff)
            states = [
                fock._interrogator_state(scenario, source, column, forward, ret, tail)
                for column in (split[:, :, 0], closed)
            ]
            for block, want in zip(*(state.blocks for state in states), strict=True):
                assert np.abs(block - want).max() <= 1e-15
            fidelities = [oracle_fidelity(s, s.with_phase(0.1)) for s in states]
            assert abs(fidelities[0] - fidelities[1]) <= 1e-12

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
    splitter as a sparse lift of per-block matrix exponentials.

    The adversary CM residuals were re-recorded when ``fock_moments`` began
    to read the same-mode a a^dag as a^dag a + 1 at n = cutoff too; they
    moved by 5.8e-11, 6.6e-11 and 2.5e-12.  The interrogator's moved by
    under 1e-15 and every other residual did not move."""

    # (eta_1, eta_2, nbar_b1, nbar_b2, nbar_s, nbar_lo, theta) -> residuals
    CROSS_CHECKS = [
        (
            (0.62, 0.89, 0.08, 0.25, 0.064, 0.07, -1.58),
            {
                "cutoff": 15.0,
                "willie_mean_max": 0.0,
                "willie_cm_max_err": 1.7332069113251691e-10,
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
                "willie_cm_max_err": 7.208377228451468e-10,
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
                "willie_cm_max_err": 7.781637556547594e-10,
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
        grid = dense(state)
        want = np.zeros_like(grid)
        want[recorded["rows"], recorded["cols"]] = np.array(
            recorded["real"]
        ) + 1j * np.array(recorded["imag"])
        assert state.tail_bound == recorded["tail_bound"]
        assert np.abs(grid - want).max() <= 1e-13
