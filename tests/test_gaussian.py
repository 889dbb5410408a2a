"""Covariance-matrix toolbox: constructors, transforms, normal forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense.covertness import qre_gaussian
from covertsense.errors import DomainError, PhysicalityError
from covertsense.estimation import (
    ase_heterodyne_coefficient,
    gaussian_fidelity,
    qcrb_ase,
)
from covertsense.gaussian import (
    CovarianceMatrix,
    _generic_normal_form,
    apply_beam_splitter,
    apply_phase,
    apply_symplectic,
    apply_thermal_channel,
    ase_two_mode_cm,
    beam_splitter_symplectic,
    phase_symplectic,
    reduced,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_spectrum,
    tensor,
    thermal_cm,
    vacuum_cm,
)
from covertsense.scenario import ProbeSettings, SensingScenario, alice_cm, willie_cm

occupancy = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
transmissivity = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
angle = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def random_two_mode_physical_cm(rng: np.random.Generator) -> tuple[CovarianceMatrix, np.ndarray]:
    """A generic physical two-mode CM and its known symplectic eigenvalues.

    Built as S D S^T from thermal D and S = (beam splitter) (squeezer)
    (phase rotations); the squeezer diag(e^r, e^-r) per mode keeps S
    symplectic while leaving the passive-only family, so the generic
    normal-form path gets exercised.
    """
    nu = np.sort(rng.uniform(0.5, 4.0, size=2))[::-1]
    d = np.diag(np.concatenate([nu, nu]))
    r1, r2 = rng.uniform(-0.8, 0.8, size=2)
    squeeze = np.diag([math.exp(r1), math.exp(r2), math.exp(-r1), math.exp(-r2)])
    s = (
        beam_splitter_symplectic(2, 0, 1, rng.uniform(0.05, 0.95))
        @ squeeze
        @ phase_symplectic(2, 0, rng.uniform(-3.0, 3.0))
        @ phase_symplectic(2, 1, rng.uniform(-3.0, 3.0))
    )
    return CovarianceMatrix.from_array(s @ d @ s.T), nu


class TestConstructors:
    def test_vacuum_is_half_identity(self):
        assert np.array_equal(vacuum_cm(3).matrix, np.eye(6) / 2.0)

    def test_thermal_cm_diagonal(self):
        cm = thermal_cm([0.0, 1.5, 2.0])
        assert np.array_equal(cm.matrix, np.diag([0.5, 2.0, 2.5, 0.5, 2.0, 2.5]))

    def test_thermal_symplectic_eigenvalues(self):
        nu = symplectic_eigenvalues(thermal_cm([0.3, 2.0]))
        np.testing.assert_allclose(nu, [2.5, 0.8], rtol=1e-12)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="2N x 2N"):
            CovarianceMatrix.from_array(np.eye(3))

    def test_rejects_asymmetry(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetry"):
            CovarianceMatrix.from_array(m)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            thermal_cm([-0.1])

    @pytest.mark.parametrize(
        "entries",
        [[[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]]],
        ids=["inf", "nan"],
    )
    def test_rejects_non_finite_entries(self, entries):
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix.from_array(np.array(entries))

    def test_overflowed_symmetrisation_builds_but_is_unphysical(self):
        m = np.diag([1.7e308, 1.0, 1.7e308, 1.0])
        m[0, 1] = m[1, 0] = 1.7e308
        with np.errstate(over="ignore"):
            cm = CovarianceMatrix.from_array(m)
        assert np.isinf(cm.matrix[0, 0])
        assert not cm.is_physical()
        with pytest.raises(PhysicalityError, match="non-finite"):
            cm.require_physical()

    def test_non_finite_occupancies_rejected(self):
        with pytest.raises(ValueError, match=r"^occupancies\[0\] must be non-neg"):
            thermal_cm([math.nan])
        with pytest.raises(ValueError, match="^nbar_s must be non-negative and finite"):
            ase_two_mode_cm(math.nan, 1.0)

    def test_matrix_is_read_only(self):
        cm = vacuum_cm(1)
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 2.0


class TestAseSource:
    def test_cross_correlation_sign_and_value(self):
        cm = ase_two_mode_cm(0.1, 0.15).matrix
        assert cm[0, 1] == pytest.approx(math.sqrt(0.1 * 0.15), rel=1e-14)
        assert cm[0, 1] > 0.0
        assert cm[2, 3] == pytest.approx(cm[0, 1], rel=1e-14)
        # q-p cross blocks vanish
        assert np.all(cm[:2, 2:] == 0.0)

    def test_matches_beam_splitter_construction(self):
        # One thermal beam split so the transmitted (signal) mode keeps
        # t = ns/(ns+nlo) of the photons: mode 1 is the retained reference.
        ns, nlo = 0.1, 0.15
        total = ns + nlo
        src = tensor(thermal_cm([total]), vacuum_cm(1))
        split = apply_beam_splitter(src, 1, 0, ns / total)
        err = float(np.abs(split.matrix - ase_two_mode_cm(ns, nlo).matrix).max())
        assert err <= 1e-15

    @given(ns=st.floats(1e-6, 5.0), nlo=st.floats(1e-6, 5.0))
    def test_marginals_are_thermal(self, ns, nlo):
        cm = ase_two_mode_cm(ns, nlo)
        sig = reduced(cm, [0]).matrix
        ref = reduced(cm, [1]).matrix
        np.testing.assert_allclose(sig, np.eye(2) * (ns + 0.5), rtol=1e-12)
        np.testing.assert_allclose(ref, np.eye(2) * (nlo + 0.5), rtol=1e-12)

    @given(ns=st.floats(0.0, 5.0), nlo=st.floats(0.0, 5.0))
    def test_source_is_physical(self, ns, nlo):
        assert ase_two_mode_cm(ns, nlo).is_physical()


class TestSymplectics:
    @given(eta=transmissivity)
    def test_beam_splitter_is_symplectic(self, eta):
        s = beam_splitter_symplectic(2, 0, 1, eta)
        omega = symplectic_form(2)
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-14)

    @given(theta=angle)
    def test_phase_is_symplectic(self, theta):
        s = phase_symplectic(2, 1, theta)
        omega = symplectic_form(2)
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-14)

    def test_beam_splitter_convention(self):
        # q0' = sqrt(eta) q0 + sqrt(1-eta) q1 on a state with distinct
        # diagonals: var(q0') = eta var(q0) + (1-eta) var(q1).
        eta = 0.7
        cm = apply_beam_splitter(thermal_cm([2.0, 0.0]), 0, 1, eta)
        assert cm.matrix[0, 0] == pytest.approx(eta * 2.5 + (1 - eta) * 0.5, rel=1e-14)
        assert cm.matrix[1, 1] == pytest.approx((1 - eta) * 2.5 + eta * 0.5, rel=1e-14)

    def test_phase_convention(self):
        # q' = cos(t) q - sin(t) p: a q-squeezed-like diagonal rotates.
        v = np.diag([2.0, 1.0, 0.5, 1.0])
        cm = apply_phase(CovarianceMatrix.from_array(v), 0, math.pi / 2)
        assert cm.matrix[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert cm.matrix[2, 2] == pytest.approx(2.0, rel=1e-12)

    def test_beam_splitter_eta_extremes(self):
        cm = thermal_cm([1.0, 3.0])
        identity = apply_beam_splitter(cm, 0, 1, 1.0)
        np.testing.assert_allclose(identity.matrix, cm.matrix, atol=1e-15)
        swap = apply_beam_splitter(cm, 0, 1, 0.0)
        np.testing.assert_allclose(np.diag(swap.matrix), [3.5, 1.5, 3.5, 1.5], atol=1e-15)

    @given(eta=transmissivity, theta=angle)
    def test_passive_ops_preserve_spectrum(self, eta, theta):
        cm = thermal_cm([0.2, 1.7])
        s = beam_splitter_symplectic(2, 0, 1, eta) @ phase_symplectic(2, 0, theta)
        out = apply_symplectic(cm, s)
        np.testing.assert_allclose(
            symplectic_eigenvalues(out), [2.2, 0.7], rtol=1e-10
        )


class TestChannels:
    def test_identity_channel(self):
        cm = ase_two_mode_cm(0.3, 0.8)
        out = apply_thermal_channel(cm, 0, 1.0, 5.0)
        np.testing.assert_allclose(out.matrix, cm.matrix, atol=1e-15)

    def test_full_loss_replaces_with_bath(self):
        out = apply_thermal_channel(ase_two_mode_cm(0.3, 0.8), 0, 0.0, 2.0)
        np.testing.assert_allclose(reduced(out, [0]).matrix, np.eye(2) * 2.5, atol=1e-15)
        # reference untouched
        np.testing.assert_allclose(reduced(out, [1]).matrix, np.eye(2) * 1.3, atol=1e-15)

    @given(
        eta1=st.floats(0.01, 1.0),
        eta2=st.floats(0.01, 1.0),
        nb1=st.floats(0.0, 10.0),
        nb2=st.floats(0.0, 10.0),
        ns=st.floats(0.0, 2.0),
    )
    def test_thermal_channel_composition(self, eta1, eta2, nb1, nb2, ns):
        # C(eta2, nb2) after C(eta1, nb1) is C(eta1 eta2, nb_eff) with
        # (1 - eta1 eta2) nb_eff = eta2 (1 - eta1) nb1 + (1 - eta2) nb2.
        src = thermal_cm([ns])
        composed = apply_thermal_channel(
            apply_thermal_channel(src, 0, eta1, nb1), 0, eta2, nb2
        )
        eta = eta1 * eta2
        if eta < 1.0:
            nb_eff = (eta2 * (1 - eta1) * nb1 + (1 - eta2) * nb2) / (1 - eta)
            single = apply_thermal_channel(src, 0, eta, nb_eff)
            np.testing.assert_allclose(composed.matrix, single.matrix, atol=1e-12)
        else:
            np.testing.assert_allclose(composed.matrix, src.matrix, atol=1e-12)

    def test_transmissivity_out_of_range(self):
        with pytest.raises(ValueError):
            apply_thermal_channel(vacuum_cm(1), 0, 1.2, 0.0)


class TestPhysicality:
    def test_vacuum_on_boundary(self):
        nu = symplectic_eigenvalues(vacuum_cm(2))
        np.testing.assert_allclose(nu, [0.5, 0.5], rtol=1e-12)
        assert vacuum_cm(2).is_physical()

    def test_below_vacuum_rejected(self):
        bad = CovarianceMatrix.from_array(np.eye(2) * 0.2)
        assert not bad.is_physical()
        with pytest.raises(PhysicalityError):
            bad.require_physical()

    @pytest.mark.parametrize(
        "diagonal",
        [[-1.0, -1.0], [3.0, -1.0], [-0.6] * 4, [3.0, 0.5, -1.0, 0.5]],
        ids=["minus-identity", "indefinite-mode", "minus-two-mode", "one-negative"],
    )
    def test_indefinite_cms_rejected(self, diagonal):
        # An indefinite V can have symplectic eigenvalue moduli >= 1/2
        # (-I gives 1, diag(3, -1) gives sqrt 3); it is still unphysical.
        bad = CovarianceMatrix.from_array(np.diag(diagonal))
        assert not bad.is_physical()
        with pytest.raises(PhysicalityError, match="not positive definite"):
            bad.require_physical()
        if bad.num_modes == 2:
            with pytest.raises(PhysicalityError, match="not positive definite"):
                qre_gaussian(vacuum_cm(2), bad)
            with pytest.raises(PhysicalityError, match="not positive definite"):
                gaussian_fidelity(bad, vacuum_cm(2))

    @given(occ=st.lists(occupancy, min_size=1, max_size=4))
    def test_thermal_states_physical(self, occ):
        assert thermal_cm(occ).is_physical()


class TestNormalForm:
    def test_diagonalizes_random_generic_cms(self):
        rng = np.random.default_rng(7)
        omega = symplectic_form(2)
        for _ in range(50):
            cm, nu = random_two_mode_physical_cm(rng)
            spec = symplectic_spectrum(cm)
            m = spec.eigenvector_matrix
            np.testing.assert_allclose(m @ omega @ m.T, omega, atol=1e-10)
            diag = m @ cm.matrix @ m.T
            target = np.diag(np.concatenate([spec.eigenvalues, spec.eigenvalues]))
            np.testing.assert_allclose(diag, target, atol=1e-10)
            np.testing.assert_allclose(spec.eigenvalues, nu, rtol=1e-9)

    def test_structured_family_closed_form(self):
        # The sensing pattern with v12 cross blocks: closed-form eigenvalues
        # (v11 + v22 +- rho)/2.
        v11, v22, v12, theta = 1.35, 0.95, 0.4, 0.6
        c, s = math.cos(theta), math.sin(theta)
        v = np.array(
            [
                [v11, -v12 * c, 0.0, v12 * s],
                [-v12 * c, v22, -v12 * s, 0.0],
                [0.0, -v12 * s, v11, -v12 * c],
                [v12 * s, 0.0, -v12 * c, v22],
            ]
        )
        spec = symplectic_spectrum(CovarianceMatrix.from_array(v))
        rho = math.hypot(2 * v12, v11 - v22)
        want = [(v11 + v22 + rho) / 2, (v11 + v22 - rho) / 2]
        np.testing.assert_allclose(spec.eigenvalues, want, rtol=1e-12)
        m = spec.eigenvector_matrix
        np.testing.assert_allclose(
            m @ v @ m.T,
            np.diag(np.concatenate([spec.eigenvalues, spec.eigenvalues])),
            atol=1e-12,
        )

    def test_relative_diagonal_of_self(self):
        rng = np.random.default_rng(11)
        cm, _ = random_two_mode_physical_cm(rng)
        spec = symplectic_spectrum(cm, reference=cm)
        np.testing.assert_allclose(spec.relative_diagonal, spec.eigenvalues, rtol=1e-10)

    def test_relative_diagonal_is_exact_average(self):
        rng = np.random.default_rng(13)
        cm, _ = random_two_mode_physical_cm(rng)
        ref, _ = random_two_mode_physical_cm(rng)
        spec = symplectic_spectrum(cm, reference=ref)
        m = spec.eigenvector_matrix
        moved = m @ ref.matrix @ m.T
        want = (np.diag(moved)[:2] + np.diag(moved)[2:]) / 2.0
        np.testing.assert_allclose(spec.relative_diagonal, want, rtol=1e-10)


def schur_normal_form(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference Williamson form from the real Schur form of V^-1/2 Omega V^-1/2.

    The construction the package used before its eigh route; kept here as
    the independent reference.  Returns (u, M) with u descending.
    """
    n2 = v.shape[0]
    n = n2 // 2
    w, q = np.linalg.eigh(v)
    v_mh = (q * (w**-0.5)) @ q.T
    a = v_mh @ symplectic_form(n) @ v_mh
    a = (a - a.T) / 2.0
    t, z = scipy.linalg.schur(a, output="real")
    b_vals = np.array([t[2 * k, 2 * k + 1] for k in range(n)])
    for k in range(n):
        if b_vals[k] < 0.0:
            z[:, [2 * k, 2 * k + 1]] = z[:, [2 * k + 1, 2 * k]]
            b_vals[k] = -b_vals[k]
    u = 1.0 / b_vals
    order = np.argsort(-u)
    u = u[order]
    z = z[:, np.concatenate([[2 * k, 2 * k + 1] for k in order])]
    m_inter = (np.repeat(np.sqrt(u), 2)[:, None] * z.T) @ v_mh
    perm = np.concatenate([np.arange(0, n2, 2), np.arange(1, n2, 2)])
    return u, m_inter[perm, :]


def random_physical_cm(rng: np.random.Generator, num_modes: int) -> CovarianceMatrix:
    """Thermal state under random squeezers, beam splitters and phases."""
    nu = rng.uniform(0.5, 4.0, size=num_modes)
    r = rng.uniform(-0.8, 0.8, size=num_modes)
    s = np.diag(np.exp(np.concatenate([r, -r])))
    for i in range(num_modes):
        s = phase_symplectic(num_modes, i, rng.uniform(-3.0, 3.0)) @ s
        for j in range(i + 1, num_modes):
            s = beam_splitter_symplectic(num_modes, i, j, rng.uniform(0.05, 0.95)) @ s
    d = np.diag(np.concatenate([nu, nu]))
    return CovarianceMatrix.from_array(s @ d @ s.T)


_MIXED_DEGENERATE = apply_phase(
    apply_beam_splitter(
        apply_beam_splitter(thermal_cm([0.7, 0.7, 0.2]), 0, 2, 0.3), 1, 2, 0.6
    ),
    1,
    0.9,
)

_EQUAL_BATH = SensingScenario(math.sqrt(0.6), math.sqrt(0.6), 0.01, 0.01)
_SENSING = SensingScenario(0.7, 0.4, 0.3, 1.2)

#: Sensing-form CMs, which every adversary and interrogator state is.
SENSING_CMS = {
    **{
        f"{name}-theta{theta:+.2f}": cm
        for theta in (0.0, math.pi / 2, math.pi, -2.1)
        for name, cm in (
            ("willie", willie_cm(_SENSING, 0.05, theta)),
            ("alice", alice_cm(_SENSING, ProbeSettings(0.05, 0.2, theta))),
        )
    },
    # eta_1 = 1 leaves no forward tap: the cross blocks vanish (v12 = 0).
    "willie-v12-zero": willie_cm(SensingScenario(1.0, 0.4, 0.3, 1.2), 0.05, 0.7),
    # An equal bath below nbar_s: the principal axes swap between the two
    # hypothesis states.
    "equal-bath-off": willie_cm(_EQUAL_BATH, 0.0, 0.0),
    "equal-bath-swapped": willie_cm(_EQUAL_BATH, 0.1, 0.0),
}

DEGENERATE_CMS = {
    "vacuum-vacuum": tensor(vacuum_cm(1), vacuum_cm(1)),
    "equal-thermal-2": thermal_cm([0.8, 0.8]),
    "equal-thermal-3": thermal_cm([0.3, 0.3, 0.3]),
    "split-thermal-pair": ase_two_mode_cm(0.4, 1.3),
    "beam-split-equal-pair": _MIXED_DEGENERATE,
}


class TestEighNormalForm:
    """The eigh construction against the real-Schur reference."""

    @staticmethod
    def _check(cm: CovarianceMatrix) -> None:
        v = cm.matrix
        omega = symplectic_form(cm.num_modes)
        u, m = _generic_normal_form(v)
        u_ref, _ = schur_normal_form(v)
        np.testing.assert_allclose(u, u_ref, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(u) <= 0.0)
        np.testing.assert_allclose(m @ omega @ m.T, omega, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(
            m @ v @ m.T, np.diag(np.concatenate([u, u])), rtol=0.0, atol=1e-10
        )

    @pytest.mark.parametrize("num_modes", [2, 3])
    def test_random_cms_match_schur_route(self, num_modes):
        rng = np.random.default_rng(100 + num_modes)
        for _ in range(25):
            self._check(random_physical_cm(rng, num_modes))

    @pytest.mark.parametrize("name", DEGENERATE_CMS)
    def test_degenerate_spectra(self, name):
        self._check(DEGENERATE_CMS[name])

    @pytest.mark.parametrize("name", SENSING_CMS)
    def test_sensing_form_cms(self, name):
        self._check(SENSING_CMS[name])


class TestTensorReduce:
    def test_tensor_block_layout(self):
        joint = tensor(thermal_cm([1.0]), thermal_cm([2.0]))
        np.testing.assert_allclose(np.diag(joint.matrix), [1.5, 2.5, 1.5, 2.5])

    def test_reduce_inverts_tensor(self):
        a, b = ase_two_mode_cm(0.2, 0.4), thermal_cm([3.0])
        joint = tensor(a, b)
        np.testing.assert_allclose(reduced(joint, [0, 1]).matrix, a.matrix, atol=1e-15)
        np.testing.assert_allclose(reduced(joint, [2]).matrix, b.matrix, atol=1e-15)

    def test_reduce_reorders_modes(self):
        cm = ase_two_mode_cm(0.2, 0.4)
        flipped = reduced(cm, [1, 0])
        np.testing.assert_allclose(flipped.matrix[0, 0], 0.9, rtol=1e-14)
        np.testing.assert_allclose(flipped.matrix[1, 1], 0.7, rtol=1e-14)
        np.testing.assert_allclose(flipped.matrix[0, 1], cm.matrix[0, 1], rtol=1e-14)

    def test_reduce_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="out of range"):
            reduced(vacuum_cm(2), [2])


OPAQUE = SensingScenario(0.0, 0.5, 0.1, 0.1)
LOSSY = SensingScenario(0.5, 0.5, 0.1, 0.1)
#: eta_1 eta_2 = 1e-320, a subnormal round trip.
SUBNORMAL = SensingScenario(1e-160, 1e-160, 0.1, 0.1)


class TestArgumentRefusals:
    """The builders and the bound coefficients refuse what they cannot use,
    naming the argument, rather than failing on an index or a division or
    returning a non-finite value or a non-symplectic matrix."""

    # (call, error, fragment of the message that names the argument)
    CASES = {
        "splitter-negative-mode": (
            lambda: beam_splitter_symplectic(2, 0, -1, 0.5), ValueError, "^j = -1"
        ),
        "splitter-fractional-count": (
            lambda: beam_splitter_symplectic(2.0, 0, 1, 0.5), ValueError, "^num_modes"
        ),
        "phase-mode-past-end": (
            lambda: phase_symplectic(2, 5, 0.1), ValueError, "^i = 5"
        ),
        "phase-nan": (lambda: phase_symplectic(2, 0, math.nan), ValueError, "^theta"),
        "phase-inf": (lambda: phase_symplectic(2, 0, math.inf), ValueError, "^theta"),
        "channel-mode-past-end": (
            lambda: apply_thermal_channel(vacuum_cm(2), 5, 0.5, 0.1),
            ValueError,
            "^i = 5",
        ),
        "channel-nan-bath": (
            lambda: apply_thermal_channel(vacuum_cm(2), 0, 0.5, math.nan),
            ValueError,
            "^nbar_b",
        ),
        "reduced-no-modes": (lambda: reduced(vacuum_cm(2), []), ValueError, "^modes"),
        "reduced-fractional-mode": (
            lambda: reduced(vacuum_cm(2), [1.5]), ValueError, r"^modes\[0\]"
        ),
        "vacuum-fractional-count": (
            lambda: vacuum_cm(1.5), ValueError, "^num_modes"
        ),
        "thermal-nan": (
            lambda: thermal_cm([math.nan]), ValueError, r"^occupancies\[0\]"
        ),
        "source-nan-signal": (
            lambda: ase_two_mode_cm(math.nan, 0.1), ValueError, "^nbar_s"
        ),
        "source-inf-reference": (
            lambda: ase_two_mode_cm(0.1, math.inf), ValueError, "^nbar_lo"
        ),
        "qcrb-opaque": (
            lambda: qcrb_ase(OPAQUE, 1.0), DomainError, "^fully opaque channel"
        ),
        "het-opaque": (
            lambda: ase_heterodyne_coefficient(OPAQUE, 1.0),
            DomainError,
            "^fully opaque channel",
        ),
        "qcrb-subnormal-eta": (
            lambda: qcrb_ase(SUBNORMAL, 1.0),
            DomainError,
            r"^c_ase = inf is not finite at eta_eff = 1e-320$",
        ),
        "het-subnormal-eta": (
            lambda: ase_heterodyne_coefficient(SUBNORMAL, 1.0),
            DomainError,
            r"^c_het_tilde = inf is not finite at eta_eff = 1e-320$",
        ),
        "qcrb-nan-c2": (lambda: qcrb_ase(LOSSY, math.nan), ValueError, "^c2"),
        "qcrb-inf-c2": (lambda: qcrb_ase(LOSSY, math.inf), ValueError, "^c2"),
        "qcrb-negative-c2": (lambda: qcrb_ase(LOSSY, -1.0), ValueError, "^c2"),
        "het-nan-c2": (
            lambda: ase_heterodyne_coefficient(LOSSY, math.nan), ValueError, "^c2"
        ),
        "het-inf-c2": (
            lambda: ase_heterodyne_coefficient(LOSSY, math.inf), ValueError, "^c2"
        ),
        "het-negative-c2": (
            lambda: ase_heterodyne_coefficient(LOSSY, -1.0), ValueError, "^c2"
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refusal_names_its_argument(self, case):
        call, error, fragment = self.CASES[case]
        # An IndexError, TypeError or ZeroDivisionError escapes the check,
        # and a returned value fails it.
        with pytest.raises(error, match=fragment):
            call()

    def test_finite_phase_kept_as_given(self):
        # The angle check only refuses: a phase outside (-pi, pi] is not
        # wrapped, so no valid matrix changes a bit.
        s = phase_symplectic(1, 0, 7.0)
        assert s.tolist() == [
            [math.cos(7.0), -math.sin(7.0)],
            [math.sin(7.0), math.cos(7.0)],
        ]
