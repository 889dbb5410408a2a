"""Gaussian-state covariance matrices and symplectic spectra.

Conventions used throughout this package:

* hbar = 1; the vacuum covariance matrix is I/2 (quadrature variance 1/2).
* An N-mode covariance matrix (CM) is a real symmetric 2N x 2N array in
  qqpp ordering: the quadrature vector is (q_1, ..., q_N, p_1, ..., p_N).
* The symplectic form is Omega = [[0, I], [-I, 0]] in that ordering, and a
  matrix S is symplectic when S Omega S^T = Omega.
* All states are zero-mean; first moments are never tracked.

A CM V is physical iff V + i*Omega/2 >= 0, equivalently iff V is positive
definite and all its symplectic eigenvalues are >= 1/2.  The
symplectic eigenvalues u_k come from one Williamson construction, the
Hermitian eigendecomposition in ``_generic_normal_form``, which every
spectrum, physicality check and normal form in this module reads.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalInstabilityError, PhysicalityError

__all__ = [
    "CovarianceMatrix",
    "SymplecticSpectrum",
    "symplectic_form",
    "vacuum_cm",
    "thermal_cm",
    "ase_two_mode_cm",
    "tensor",
    "reduced",
    "apply_symplectic",
    "apply_beam_splitter",
    "apply_phase",
    "apply_thermal_channel",
    "beam_splitter_symplectic",
    "phase_symplectic",
    "symplectic_eigenvalues",
    "symplectic_spectrum",
]

#: Largest asymmetry, relative to the largest entry, that construction
#: symmetrises away rather than refuses.
_SYMMETRY_TOL = 1e-12

#: A CM is physical when every symplectic eigenvalue is >= 1/2 - this.
_PHYSICAL_ATOL = 1e-10

#: Relative residual allowed in the normal-form self-check.
_CHECK_TOL = 1e-8


def symplectic_form(num_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form Omega in qqpp ordering."""
    eye = np.eye(num_modes)
    zero = np.zeros((num_modes, num_modes))
    return np.block([[zero, eye], [-eye, zero]])


class CovarianceMatrix(NamedTuple):
    """A validated, symmetrised N-mode covariance matrix (qqpp, hbar = 1).

    Construction symmetrises the input as (V + V^T)/2 and rejects inputs
    with non-finite entries or whose asymmetry exceeds 1e-12 relative to the
    largest entry.
    """

    matrix: np.ndarray
    num_modes: int

    @classmethod
    def from_array(cls, array: np.ndarray) -> "CovarianceMatrix":
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
            raise ValueError(f"covariance matrix must be 2N x 2N, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix has non-finite (NaN or inf) entries")
        scale = max(1.0, float(np.abs(arr).max()))
        asym = float(np.abs(arr - arr.T).max())
        if asym > 2.0 * _SYMMETRY_TOL * scale:
            raise ValueError(
                f"matrix asymmetry {asym:.3e} exceeds tolerance "
                f"{_SYMMETRY_TOL:.1e} (relative to scale {scale:.3e})"
            )
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        return cls(matrix=sym, num_modes=arr.shape[0] // 2)

    def is_physical(self) -> bool:
        """True when :meth:`require_physical` passes.

        That is, V is positive definite and every symplectic eigenvalue is
        >= 1/2 - 1e-10.
        """
        try:
            self.require_physical()
        except (PhysicalityError, NumericalInstabilityError):
            return False
        return True

    def require_physical(self) -> "CovarianceMatrix":
        """Return self, raising :class:`PhysicalityError` if unphysical."""
        _require_physical_eigenvalues(symplectic_eigenvalues(self))
        return self


def _require_physical_eigenvalues(nu: np.ndarray) -> None:
    """Raise :class:`PhysicalityError` unless every ``nu`` is >= 1/2 - 1e-10."""
    nu_min = nu.min()
    if nu_min < 0.5 - _PHYSICAL_ATOL:
        raise PhysicalityError(
            f"covariance matrix is unphysical: min symplectic eigenvalue "
            f"{nu_min:.6e} < 1/2 - {_PHYSICAL_ATOL:g}"
        )


def vacuum_cm(num_modes: int) -> CovarianceMatrix:
    """Vacuum state of ``num_modes`` modes: V = I/2."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    return CovarianceMatrix.from_array(np.eye(2 * num_modes) / 2.0)


def thermal_cm(occupancies: Sequence[float]) -> CovarianceMatrix:
    """Product of thermal states with the given mean photon numbers.

    A thermal state with occupancy ``n`` has variance ``n + 1/2`` in both
    quadratures; occupancy 0 is the vacuum.
    """
    occ = np.asarray(list(occupancies), dtype=float)
    if occ.size == 0:
        raise ValueError("need at least one mode")
    if (occ < 0).any():
        raise ValueError("thermal occupancies must be non-negative")
    diag = np.concatenate([occ + 0.5, occ + 0.5])
    return CovarianceMatrix.from_array(np.diag(diag))


def ase_two_mode_cm(nbar_s: float, nbar_lo: float) -> CovarianceMatrix:
    """Two-mode source: a split thermal beam (signal + local oscillator).

    One thermal beam of total occupancy ``nbar_s + nbar_lo`` divided on a
    beam splitter so that the signal mode carries ``nbar_s`` photons and the
    retained reference carries ``nbar_lo``, with positive q-q and p-p
    cross-correlation sqrt(nbar_s * nbar_lo).  Modes are ordered
    (signal, reference).
    """
    if nbar_s < 0 or nbar_lo < 0:
        raise ValueError("occupancies must be non-negative")
    cross = math.sqrt(nbar_s * nbar_lo)
    a = np.array(
        [
            [nbar_s + 0.5, cross],
            [cross, nbar_lo + 0.5],
        ]
    )
    v = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])
    return CovarianceMatrix.from_array(v)


def tensor(cm_a: CovarianceMatrix, cm_b: CovarianceMatrix) -> CovarianceMatrix:
    """Direct sum of two CMs (modes of ``cm_a`` first)."""
    na, nb = cm_a.num_modes, cm_b.num_modes
    n = na + nb
    out = np.zeros((2 * n, 2 * n))
    a, b = cm_a.matrix, cm_b.matrix
    # q block, p block and q-p cross blocks of each input land in the
    # corresponding qqpp slots of the joint matrix.
    sa = np.r_[0:na, n : n + na]
    sb = np.r_[na:n, n + na : 2 * n]
    out[np.ix_(sa, sa)] = a
    out[np.ix_(sb, sb)] = b
    return CovarianceMatrix.from_array(out)


def reduced(cm: CovarianceMatrix, modes: Sequence[int]) -> CovarianceMatrix:
    """Reduced state of the listed modes (in the listed order)."""
    modes = list(modes)
    n = cm.num_modes
    if any(m < 0 or m >= n for m in modes):
        raise ValueError(f"mode index out of range for {n}-mode state")
    idx = np.array(modes + [m + n for m in modes])
    return CovarianceMatrix.from_array(cm.matrix[np.ix_(idx, idx)])


def apply_symplectic(cm: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    """Return the CM of the state after the symplectic transformation ``s``."""
    return CovarianceMatrix.from_array(s @ cm.matrix @ s.T)


def beam_splitter_symplectic(num_modes: int, i: int, j: int, eta: float) -> np.ndarray:
    """Symplectic matrix of a beam splitter of transmissivity ``eta``.

    Acts on modes (i, j) as  q_i' =  sqrt(eta) q_i + sqrt(1-eta) q_j,
                             q_j' = -sqrt(1-eta) q_i + sqrt(eta) q_j,
    identically on p.  Mode ``j`` is the transmitted-with-eta port.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("beam-splitter transmissivity must lie in [0, 1]")
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    s = np.eye(2 * num_modes)
    for a, b in ((i, j), (num_modes + i, num_modes + j)):
        s[a, a] = t
        s[a, b] = r
        s[b, a] = -r
        s[b, b] = t
    return s


def phase_symplectic(num_modes: int, i: int, theta: float) -> np.ndarray:
    """Symplectic matrix of a phase rotation by ``theta`` on mode ``i``.

    Convention: q_i' = cos(theta) q_i - sin(theta) p_i,
                p_i' = sin(theta) q_i + cos(theta) p_i
    (i.e. the annihilation operator picks up exp(i*theta)).
    """
    c, s_ = math.cos(theta), math.sin(theta)
    s = np.eye(2 * num_modes)
    s[i, i] = c
    s[i, num_modes + i] = -s_
    s[num_modes + i, i] = s_
    s[num_modes + i, num_modes + i] = c
    return s


def apply_beam_splitter(
    cm: CovarianceMatrix, i: int, j: int, eta: float
) -> CovarianceMatrix:
    """Mix modes (i, j) of ``cm`` on a beam splitter of transmissivity eta."""
    s = beam_splitter_symplectic(cm.num_modes, i, j, eta)
    return apply_symplectic(cm, s)


def apply_phase(cm: CovarianceMatrix, i: int, theta: float) -> CovarianceMatrix:
    """Rotate mode ``i`` of ``cm`` by phase ``theta``."""
    s = phase_symplectic(cm.num_modes, i, theta)
    return apply_symplectic(cm, s)


def apply_thermal_channel(
    cm: CovarianceMatrix, i: int, eta: float, nbar_b: float
) -> CovarianceMatrix:
    """Thermal-loss channel on mode ``i``: transmissivity eta, bath occupancy nbar_b.

    V -> X V X^T + Y with X = sqrt(eta) on mode i (identity elsewhere) and
    Y = (1 - eta)(nbar_b + 1/2) I_2 on mode i.  Cross-correlations between
    mode i and the rest scale by sqrt(eta).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("channel transmissivity must lie in [0, 1]")
    if nbar_b < 0:
        raise ValueError("bath occupancy must be non-negative")
    n = cm.num_modes
    x = np.eye(2 * n)
    x[i, i] = x[n + i, n + i] = math.sqrt(eta)
    v = x @ cm.matrix @ x.T
    add = (1.0 - eta) * (nbar_b + 0.5)
    v[i, i] += add
    v[n + i, n + i] += add
    return CovarianceMatrix.from_array(v)


class SymplecticSpectrum(NamedTuple):
    """Normal-form data of a covariance matrix V1.

    Attributes
    ----------
    eigenvalues:
        Symplectic eigenvalues u_k of V1, descending, one per mode.
    eigenvector_matrix:
        Symplectic M with M Omega M^T = Omega and
        M V1 M^T = diag(u_1..u_N, u_1..u_N).
    relative_diagonal:
        When a reference CM V0 was supplied: d_k, the per-mode second moments
        of the reference state expressed in V1's normal modes, i.e. the
        q/p-averaged diagonal of M V0 M^T.  Equals ``eigenvalues`` of V0 when
        V0 = V1.  None when no reference was supplied.
    """

    eigenvalues: np.ndarray
    eigenvector_matrix: np.ndarray
    relative_diagonal: np.ndarray | None


def _generic_normal_form(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form of a positive-definite CM (qqpp).

    Returns (u, M) with u descending and M V M^T = diag(u, u),
    M Omega M^T = Omega.  Uses the Hermitian eigendecomposition of i*A for
    the antisymmetric A = V^{-1/2} Omega V^{-1/2}: its positive eigenvalues
    are b_k = 1/u_k, and an eigenvector x = r + i s of +b has A r = b s and
    A s = -b r, so the real columns sqrt(2) (s, r) are orthonormal and carry
    the block [[0, b], [-b, 0]].  Distinct eigenvectors x_j, x_k satisfy
    x_j _|_ x_k and x_j _|_ conj(x_k) (the latter has eigenvalue -b_k), so
    the columns stay orthonormal inside degenerate eigenspaces too.
    """
    n2 = v.shape[0]
    n = n2 // 2
    if not np.isfinite(v).all():
        # Finite inputs whose symmetrisation overflowed.
        raise PhysicalityError("covariance matrix has non-finite entries")
    w, q = np.linalg.eigh(v)
    if w.min() <= 0.0:
        raise PhysicalityError(
            f"covariance matrix is not positive definite (min eig {w.min():.3e})"
        )
    v_mh = (q * (w**-0.5)) @ q.T
    omega = symplectic_form(n)
    a = v_mh @ omega @ v_mh
    a = (a - a.T) / 2.0  # enforce antisymmetry against roundoff
    lam, x = np.linalg.eigh(1j * a)

    # eigh sorts ascending, so the n positive eigenvalues come last, in
    # ascending b and hence descending u.
    b_vals = lam[n:]
    if b_vals.min() <= 0.0:
        raise NumericalInstabilityError(
            "normal form produced a non-positive symplectic frequency"
        )
    u = 1.0 / b_vals
    x = x[:, n:]
    z = np.empty((n2, n2))
    z[:, 0::2] = math.sqrt(2.0) * x.imag
    z[:, 1::2] = math.sqrt(2.0) * x.real

    d_half = np.repeat(np.sqrt(u), 2)
    m_inter = (d_half[:, None] * z.T) @ v_mh
    # Reorder rows from interleaved (q1, p1, q2, p2, ...) to qqpp.
    perm = np.concatenate([np.arange(0, n2, 2), np.arange(1, n2, 2)])
    m = m_inter[perm, :]
    return u, m


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic eigenvalues of a CM, descending, one per mode.

    Read from the Williamson construction of :func:`symplectic_spectrum`
    without its self-check.  Raises :class:`PhysicalityError` when V is not
    positive definite.
    """
    return _generic_normal_form(cm.matrix)[0]


def symplectic_spectrum(
    cm: CovarianceMatrix, reference: CovarianceMatrix | None = None
) -> SymplecticSpectrum:
    """Normal form of ``cm``, optionally with a reference state's moments.

    Uses the Williamson construction of ``_generic_normal_form`` for every
    CM, sensing-form ones included.  The result is self-checked: M must be
    symplectic and M V M^T diagonal to 1e-8 (relative), else
    :class:`NumericalInstabilityError` is raised.  A CM that is not positive
    definite raises :class:`PhysicalityError`.
    """
    v = cm.matrix
    n = cm.num_modes
    u, m = _generic_normal_form(v)

    omega = symplectic_form(n)
    sym_err = float(np.abs(m @ omega @ m.T - omega).max())
    d = m @ v @ m.T
    diag_target = np.concatenate([u, u])
    diag_err = float(np.abs(d - np.diag(diag_target)).max())
    scale = max(1.0, float(np.abs(v).max()))
    if sym_err > _CHECK_TOL or diag_err > _CHECK_TOL * scale:
        raise NumericalInstabilityError(
            f"normal form failed self-check: symplecticity residual {sym_err:.3e}, "
            f"diagonalisation residual {diag_err:.3e}"
        )

    rel: np.ndarray | None = None
    if reference is not None:
        if reference.num_modes != n:
            raise ValueError("reference state must have the same number of modes")
        full = np.diag(m @ reference.matrix @ m.T)
        rel = (full[:n] + full[n:]) / 2.0
    return SymplecticSpectrum(
        eigenvalues=u, eigenvector_matrix=m, relative_diagonal=rel
    )
