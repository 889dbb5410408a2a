"""Brute-force Fock-basis oracle for the Gaussian-state machinery.

Simulates the tapped two-way sensing circuit photon-by-photon in a
truncated number basis and computes relative entropy and Uhlmann
fidelity by dense eigendecomposition.  Nothing here shares code with the
covariance-matrix formulas it validates: states are density matrices,
beam splitters are the closed-form SU(2) (Wigner small-d) amplitudes of
the two-mode number basis, and the entropic quantities come from
eigenvalues.  Agreement between the two routes is therefore evidence,
not tautology.

Implementation notes:

* Every circuit element conserves total photon number, and every input
  is diagonal in the number basis, so states stay block-diagonal in
  total photons end to end.  All evolution, partial tracing, and
  spectral work happens block by block; only the public density matrix
  is materialised on the full grid.
* Inside a block, a beam splitter on a mode pair is a direct sum of
  small pair blocks, one per photon total of the pair.  It is applied by
  gathering the rows of each pair total and multiplying by the pair
  block; the lifted matrix is never formed.  The density matrix is
  carried as a factor F with rho = F F^dag, and the partial trace is one
  product per retained photon total.
* ``cutoff`` is the per-mode Fock-space truncation (dimension
  ``cutoff + 1`` per mode).  States built by this module additionally
  carry support only on total photon number <= cutoff — the corner of
  the grid beyond that is exactly zero — and ``tail_bound`` accounts
  for the discarded joint tail mass.
* The oracle targets the weak-probe regime: occupancies are capped at 2
  and the total-photon cutoff at 64.  Bright local oscillators are out
  of scope (use the covariance-matrix route, which is exact).

Beam-splitter and phase conventions match the Gaussian module exactly:
a beam splitter of transmissivity eta on (i, j) sends
a_i -> sqrt(eta) a_i + sqrt(1-eta) a_j (j the cross port), and a phase
theta on mode i sends a_i -> exp(i theta) a_i.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import CutoffError, InfiniteQreError
from .scenario import ProbeSettings, SensingScenario

__all__ = [
    "FockDensityMatrix",
    "thermal_fock",
    "fock_tensor",
    "oracle_willie_state",
    "oracle_alice_state",
    "fock_moments",
    "fock_purity",
    "oracle_qre",
    "oracle_fidelity",
    "oracle_cross_check",
]

#: Hard ceiling on the retained total photon number.  Beyond this the
#: dense blocks stop being "brute force" and start being a bad idea.
MAX_TOTAL_PHOTONS = 64

#: Largest input occupancy the oracle accepts (small-parameter tool).
MAX_OCCUPANCY = 2.0

_DEFAULT_TAIL_BOUND = 1e-10


@dataclass(frozen=True)
class FockDensityMatrix:
    """A density matrix on a truncated multi-mode Fock grid.

    ``entries`` is complex Hermitian of dimension ``(cutoff + 1)**modes``;
    basis index ``sum_k n_k (cutoff+1)**(modes-1-k)`` (first mode is the
    most significant digit).  ``tail_bound`` bounds the probability mass
    lost to truncation; the trace lies in ``[1 - tail_bound, 1]``.
    """

    modes: int
    cutoff: int
    entries: np.ndarray
    tail_bound: float

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError("need at least one mode")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        dim = (self.cutoff + 1) ** self.modes
        if self.entries.shape != (dim, dim):
            raise ValueError(
                f"entries must be {dim} x {dim} for {self.modes} modes at "
                f"cutoff {self.cutoff}, got {self.entries.shape}"
            )

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def require_valid(
        self,
        *,
        hermiticity_tol: float = 1e-12,
        eigenvalue_tol: float = 1e-12,
        max_tail_bound: float = 1e-10,
    ) -> "FockDensityMatrix":
        """Check the type invariants; return self or raise ValueError."""
        if not self.tail_bound <= max_tail_bound:
            raise ValueError(
                f"declared tail bound {self.tail_bound:g} exceeds "
                f"{max_tail_bound:g}"
            )
        scale = max(1.0, float(np.abs(self.entries).max()))
        herm = float(np.abs(self.entries - self.entries.conj().T).max())
        if herm > hermiticity_tol * scale:
            raise ValueError(f"not Hermitian: residual {herm:.3e}")
        tr = self.trace()
        if not 1.0 - self.tail_bound - 1e-12 <= tr <= 1.0 + 1e-12:
            raise ValueError(
                f"trace {tr!r} outside [1 - {self.tail_bound:g}, 1]"
            )
        blocks = _graded_blocks(self)
        if blocks is None:
            eigs = np.linalg.eigvalsh(self.entries)
            min_eig = float(eigs.min())
        else:
            min_eig = 0.0
            for _, block in blocks:
                if block.shape[0]:
                    min_eig = min(min_eig, float(np.linalg.eigvalsh(block).min()))
        if min_eig < -eigenvalue_tol:
            raise ValueError(f"negative eigenvalue {min_eig:.3e}")
        return self


def _geometric_pmf(nbar: float, length: int) -> np.ndarray:
    """First ``length`` thermal number probabilities n^k/(1+n)^(k+1)."""
    if nbar == 0.0:
        out = np.zeros(length)
        out[0] = 1.0
        return out
    ratio = nbar / (1.0 + nbar)
    return np.power(ratio, np.arange(length)) / (1.0 + nbar)


def _required_single_cutoff(nbar: float, tail_bound: float) -> int:
    """Smallest c with (nbar/(1+nbar))**(c+1) <= tail_bound."""
    if nbar == 0.0:
        return 0
    ratio = nbar / (1.0 + nbar)
    c = int(math.ceil(math.log(tail_bound) / math.log(ratio))) - 1
    c = max(c, 0)
    while ratio ** (c + 1) > tail_bound:
        c += 1
    return c


def _joint_tail(occupancies: list[float], upto: int) -> np.ndarray:
    """tail[K] = P(total photons > K) for independent thermal inputs."""
    length = upto + 1
    pmf = np.array([1.0])
    for nbar in occupancies:
        pmf = np.convolve(pmf, _geometric_pmf(nbar, length))
    return 1.0 - np.cumsum(pmf[:length])


def _select_total_cutoff(
    occupancies: list[float], cutoff: int | None, tail_bound: float
) -> tuple[int, float]:
    """(cutoff, actual joint tail), enforcing the tail bound and photon cap."""
    probe_to = MAX_TOTAL_PHOTONS if cutoff is None else max(cutoff, 1)
    tails = _joint_tail(occupancies, probe_to)
    if cutoff is None:
        hits = np.nonzero(tails <= tail_bound)[0]
        if hits.size == 0:
            raise CutoffError(
                f"inputs {occupancies} need a total-photon cutoff above the "
                f"cap {MAX_TOTAL_PHOTONS} to reach tail mass {tail_bound:g} "
                f"(tail at the cap: {tails[-1]:.3e})"
            )
        chosen = int(hits[0])
        return chosen, float(max(tails[chosen], 0.0))
    if cutoff > MAX_TOTAL_PHOTONS:
        raise CutoffError(
            f"cutoff {cutoff} exceeds the supported cap {MAX_TOTAL_PHOTONS}"
        )
    actual = float(max(tails[cutoff], 0.0))
    if actual > tail_bound:
        wide = _joint_tail(occupancies, MAX_TOTAL_PHOTONS)
        hits = np.nonzero(wide <= tail_bound)[0]
        need = str(int(hits[0])) if hits.size else f"> {MAX_TOTAL_PHOTONS}"
        raise CutoffError(
            f"cutoff {cutoff} leaves tail mass {actual:.3e} > "
            f"{tail_bound:g}; required cutoff: {need}"
        )
    return cutoff, actual


def thermal_fock(
    nbar: float,
    cutoff: int | None = None,
    *,
    tail_bound: float = _DEFAULT_TAIL_BOUND,
) -> FockDensityMatrix:
    """Single-mode thermal state, diagonal p_k = nbar^k/(1+nbar)^(k+1).

    With ``cutoff=None`` the smallest cutoff meeting the tail bound is
    selected.  An explicit cutoff that leaves more than ``tail_bound``
    of mass raises CutoffError naming the required cutoff.  The state is
    left sub-normalised (trace = 1 - actual tail); nothing is rescaled.
    """
    if nbar < 0.0:
        raise ValueError(f"nbar must be non-negative, got {nbar}")
    required = _required_single_cutoff(nbar, tail_bound)
    if cutoff is None:
        cutoff = required
    elif cutoff < required:
        raise CutoffError(
            f"cutoff {cutoff} leaves tail mass above {tail_bound:g} for "
            f"nbar = {nbar}; required cutoff: {required}"
        )
    if cutoff > MAX_TOTAL_PHOTONS:
        raise CutoffError(
            f"cutoff {cutoff} exceeds the supported cap {MAX_TOTAL_PHOTONS}"
        )
    pmf = _geometric_pmf(nbar, cutoff + 1)
    if nbar == 0.0:
        actual_tail = 0.0
    else:
        actual_tail = (nbar / (1.0 + nbar)) ** (cutoff + 1)
    entries = np.diag(pmf.astype(complex))
    return FockDensityMatrix(
        modes=1, cutoff=cutoff, entries=entries, tail_bound=actual_tail
    ).require_valid()


def fock_tensor(a: FockDensityMatrix, b: FockDensityMatrix) -> FockDensityMatrix:
    """Tensor product (modes of ``a`` first); cutoffs must agree."""
    if a.cutoff != b.cutoff:
        raise ValueError(
            f"tensor factors need a common cutoff, got {a.cutoff} and {b.cutoff}"
        )
    combined_tail = a.tail_bound + b.tail_bound
    if combined_tail > _DEFAULT_TAIL_BOUND:
        raise CutoffError(
            f"combined tail mass {combined_tail:.3e} exceeds "
            f"{_DEFAULT_TAIL_BOUND:g}; rebuild the factors at larger cutoffs"
        )
    return FockDensityMatrix(
        modes=a.modes + b.modes,
        cutoff=a.cutoff,
        entries=np.kron(a.entries, b.entries),
        tail_bound=combined_tail,
    ).require_valid()


# ---------------------------------------------------------------------------
# Total-photon blocks and circuit elements
# ---------------------------------------------------------------------------

#: Memo for the index and pair-block tables of one ``oracle_cross_check``
#: call, so its four states build each beam splitter once.  Set and reset
#: around that call only; the state builders keep their signatures and
#: nothing outlives the call.
_CALL_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "covertsense_fock_call_memo", default=None
)


def _call_memoised(fn):
    """Memoise ``fn`` inside an ``oracle_cross_check`` call; no-op outside."""

    @functools.wraps(fn)
    def wrapper(*args):
        memo = _CALL_MEMO.get()
        if memo is None:
            return fn(*args)
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    return wrapper


@functools.lru_cache(maxsize=4 * (MAX_TOTAL_PHOTONS + 1))
def _block_basis(num_modes: int, total: int) -> np.ndarray:
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


@_call_memoised
def _pair_gathers(
    num_modes: int, total: int, first: int, second: int
) -> list[np.ndarray]:
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


@_call_memoised
def _pair_blocks(eta: float, cutoff: int) -> list[np.ndarray]:
    """Beam-splitter amplitudes on fixed pair totals ``m = 0..cutoff``.

    Block ``m`` is the orthogonal matrix exp(phi (a1^dag a2 - a2^dag a1))
    with cos(phi) = sqrt(eta), on the basis index k = photons in the first
    mode of the pair; it sends a1 -> cos(phi) a1 + sin(phi) a2.  These are
    the SU(2) (Wigner small-d) matrices, i.e. the m-th symmetric power of
    the 2 x 2 rotation R = [[c, s], [-s, c]].  They are built by

        m U_m = sum_{i,l} R_li  a_l^dag U_{m-1} a_i,

    which follows from m = a1^dag a1 + a2^dag a2 on the block and
    U a_i^dag = sum_l R_li a_l^dag U.  The map U_{m-1} -> U_m is a
    contraction, so rounding errors do not grow with m.
    """
    c, s = math.sqrt(eta), math.sqrt(1.0 - eta)
    blocks = [np.ones((1, 1))]
    for m in range(1, cutoff + 1):
        prev = blocks[-1]
        up = np.sqrt(np.arange(1.0, m + 1))  # sqrt(k), k = 1..m
        down = up[::-1]  # sqrt(m - k), k = 0..m-1
        block = np.zeros((m + 1, m + 1))
        block[1:, 1:] += (c * up)[:, None] * up * prev
        block[:m, 1:] -= (s * down)[:, None] * up * prev
        block[1:, :m] += (s * up)[:, None] * down * prev
        block[:m, :m] += (c * down)[:, None] * down * prev
        blocks.append(block / m)
    return blocks


class _BeamSplitter:
    """A beam splitter on (mode_i, mode_j), acting on total-photon blocks.

    Transmissivity convention matches the Gaussian module:
    a_i -> sqrt(eta) a_i + sqrt(1-eta) a_j.  On a total block the lift is
    a direct sum of pair blocks, applied by gathering the rows of each
    pair total; the lifted matrix is never formed.
    """

    def __init__(
        self, num_modes: int, mode_i: int, mode_j: int, eta: float, cutoff: int
    ) -> None:
        self.gathers = [
            _pair_gathers(num_modes, total, mode_i, mode_j)
            for total in range(cutoff + 1)
        ]
        self.blocks = _pair_blocks(eta, cutoff)

    def apply(self, total: int, amplitudes: np.ndarray) -> None:
        """Left-multiply ``amplitudes`` (rows: the block's basis) in place.

        The pair blocks are real, so a complex operand is treated as its
        float view with real and imaginary parts as extra columns.
        """
        flat = amplitudes.view(np.float64)
        # Pair total 0 is the 1 x 1 identity.
        for gather, block in zip(self.gathers[total][1:], self.blocks[1:]):
            rows = flat[gather]
            flat[gather] = (block @ rows.reshape(len(block), -1)).reshape(rows.shape)


def _diagonal_factor(probs: np.ndarray) -> np.ndarray:
    """F with F F^T = diag(probs), one column per nonzero probability."""
    support = np.flatnonzero(probs)
    factor = np.zeros((len(probs), len(support)))
    factor[support, np.arange(len(support))] = np.sqrt(probs[support])
    return factor


def _check_occupancies(**named: float) -> None:
    for name, value in named.items():
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        if value > MAX_OCCUPANCY:
            raise ValueError(
                f"{name} = {value} exceeds {MAX_OCCUPANCY}; the number-basis "
                "oracle is a small-occupancy tool"
            )


def oracle_willie_state(
    scenario: SensingScenario,
    nbar_s: float,
    theta: float = 0.0,
    cutoff: int | None = None,
    *,
    tail_bound: float = _DEFAULT_TAIL_BOUND,
) -> FockDensityMatrix:
    """Adversary's two-mode state, simulated photon-by-photon.

    Circuit: thermal(nbar_b2) (x) thermal(nbar_b1) (x) thermal(nbar_s),
    mixed by the forward tap (modes 2,3 at eta_1), the target phase on
    mode 3, and the return tap (modes 1,3 at eta_2); mode 3 is then
    traced out.  Output mode order matches ``willie_cm``:
    (return-path tap, forward-path tap).  The retained reference mode
    never couples to the adversary and is omitted.
    """
    _check_occupancies(
        nbar_b2=scenario.nbar_b2, nbar_b1=scenario.nbar_b1, nbar_s=nbar_s
    )
    occ = [scenario.nbar_b2, scenario.nbar_b1, nbar_s]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff, tail_bound)
    pmfs = [_geometric_pmf(n, total_cutoff + 1) for n in occ]
    forward = _BeamSplitter(3, 1, 2, scenario.eta_1, total_cutoff)
    ret = _BeamSplitter(3, 0, 2, scenario.eta_2, total_cutoff)

    reduced = _ReducedAccumulator(total_cutoff)
    for total in range(total_cutoff + 1):
        basis = _block_basis(3, total)
        probs = pmfs[0][basis[:, 0]] * pmfs[1][basis[:, 1]] * pmfs[2][basis[:, 2]]
        # The input is diagonal, rho = F F^dag; evolve F instead of rho.
        factor = _diagonal_factor(probs)
        forward.apply(total, factor)
        factor = np.exp(1j * theta * basis[:, 2])[:, None] * factor
        ret.apply(total, factor)
        reduced.add_traced_factor(3, total, factor, keep=(0, 1))

    return reduced.finish(actual_tail)


def oracle_alice_state(
    scenario: SensingScenario,
    probe: ProbeSettings,
    cutoff: int | None = None,
    *,
    tail_bound: float = _DEFAULT_TAIL_BOUND,
) -> FockDensityMatrix:
    """Interrogator's (returned signal, reference) state in the Fock basis.

    Four-mode circuit mirroring ``build_global_cm``: thermal baths on
    modes 1,2; one thermal beam of occupancy nbar_s + nbar_lo on mode 3
    split against the vacuum reference mode 4 (so the signal keeps
    nbar_s, the reference nbar_lo, with positive cross-correlation);
    then forward tap, phase, return tap on the signal path, and the
    baths are traced out.  Output mode order matches ``alice_cm``:
    (signal, reference).

    The reference mode starts in vacuum, so the initial state is
    supported on a thin slice of the four-mode grid; the evolution is
    carried as an amplitude factor on that slice, which is what keeps
    this brute-force route affordable.
    """
    source_total = probe.nbar_s + probe.nbar_lo
    _check_occupancies(
        nbar_b2=scenario.nbar_b2,
        nbar_b1=scenario.nbar_b1,
        source_total=source_total,
    )
    occ = [scenario.nbar_b2, scenario.nbar_b1, source_total]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff, tail_bound)
    pmfs = [_geometric_pmf(n, total_cutoff + 1) for n in occ]
    split = 0.0 if source_total == 0.0 else probe.nbar_s / source_total
    # Source split: reference is the eta port so the signal keeps
    # nbar_s with a positive q-q/p-p cross-correlation.
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


class _ReducedAccumulator:
    """Collects two-mode reduced blocks, graded by total photon number."""

    def __init__(self, cutoff: int) -> None:
        self.cutoff = cutoff
        self.blocks = [
            np.zeros((k + 1, k + 1), dtype=complex) for k in range(cutoff + 1)
        ]

    def add_traced_factor(
        self,
        num_modes: int,
        total: int,
        factor: np.ndarray,
        keep: tuple[int, int],
    ) -> None:
        """Accumulate the partial trace of rho = factor @ factor^dag.

        ``factor`` holds the rows of one total block.  The modes outside
        ``keep`` are traced out; the position inside a reduced block is
        the first kept mode's photon count.
        """
        for kept_total, gather in enumerate(_pair_gathers(num_modes, total, *keep)):
            # Rows: first kept mode's count; columns: traced occupation x
            # factor column.  One GEMM sums over both.
            rows = factor[gather].reshape(kept_total + 1, -1)
            self.blocks[kept_total] += rows @ rows.conj().T

    def finish(self, tail_bound: float) -> FockDensityMatrix:
        """Assemble the graded blocks into a full-grid density matrix."""
        dim = self.cutoff + 1
        entries = np.zeros((dim * dim, dim * dim), dtype=complex)
        for total, block in enumerate(self.blocks):
            # Index of (n1, n2) on the grid is n1*dim + n2 with n2 = total-n1.
            idx = np.arange(total + 1) * (dim - 1) + total
            entries[np.ix_(idx, idx)] += block
        entries = (entries + entries.conj().T) / 2.0
        return FockDensityMatrix(
            modes=2, cutoff=self.cutoff, entries=entries, tail_bound=tail_bound
        ).require_valid()


# ---------------------------------------------------------------------------
# Moments, purity, and the entropic quantities
# ---------------------------------------------------------------------------


def _ladder_operators(state: FockDensityMatrix) -> list[scipy.sparse.csr_matrix]:
    """Per-mode annihilation operators on the state's grid."""
    d = state.cutoff + 1
    single = scipy.sparse.diags(
        np.sqrt(np.arange(1, d, dtype=float)), offsets=1, format="csr"
    )
    eye = scipy.sparse.identity(d, format="csr")
    ops = []
    for target in range(state.modes):
        op = None
        for mode in range(state.modes):
            part = single if mode == target else eye
            op = part if op is None else scipy.sparse.kron(op, part, format="csr")
        ops.append(op)
    return ops


def _expectation(rho: np.ndarray, op: scipy.sparse.spmatrix) -> complex:
    """tr(rho op) for dense rho and sparse op."""
    return complex((op.multiply(rho.T)).sum())


def fock_moments(state: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, covariance matrix) in qqpp ordering, hbar = 1.

    Expectations are normalised by the trace, so the slight
    sub-normalisation from truncation does not bias the moments.
    """
    m = state.modes
    rho = state.entries / state.trace()
    ladders = _ladder_operators(state)
    quads = []
    for a in ladders:
        a_dag = a.conj().T
        quads.append((a + a_dag) / math.sqrt(2.0))
    for a in ladders:
        a_dag = a.conj().T
        quads.append((a - a_dag) / (1j * math.sqrt(2.0)))

    mean = np.array([_expectation(rho, q).real for q in quads])
    cov = np.zeros((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(i, 2 * m):
            sym = (quads[i] @ quads[j] + quads[j] @ quads[i]) / 2.0
            cov[i, j] = cov[j, i] = _expectation(rho, sym).real - mean[i] * mean[j]
    return mean, cov


def fock_purity(state: FockDensityMatrix) -> float:
    """tr(rho^2); for a Gaussian state this is prod_k 1/(2 u_k)."""
    blocks = _graded_blocks(state)
    if blocks is None:
        return float(np.vdot(state.entries, state.entries).real)
    return float(
        sum(np.vdot(block, block).real for _, block in blocks)
    )


def _grade_vector(state: FockDensityMatrix) -> np.ndarray:
    """Total photon number of each basis index of the state's grid."""
    d = state.cutoff + 1
    grades = np.zeros((d,) * state.modes, dtype=int)
    for axis in range(state.modes):
        shape = [1] * state.modes
        shape[axis] = d
        grades = grades + np.arange(d).reshape(shape)
    return grades.ravel()


def _graded_blocks(
    state: FockDensityMatrix, *, tol: float = 1e-14
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Split into total-photon blocks, or None if the state is not graded.

    Returns (indices, submatrix) pairs for grades carrying any weight.
    """
    grades = _grade_vector(state)
    scale = max(1.0, float(np.abs(state.entries).max()))
    off = grades[:, None] != grades[None, :]
    if float(np.abs(state.entries[off]).max(initial=0.0)) > tol * scale:
        return None
    out = []
    for g in range(int(grades.max()) + 1):
        idx = np.nonzero(grades == g)[0]
        block = state.entries[np.ix_(idx, idx)]
        if float(np.abs(block).max(initial=0.0)) > 0.0:
            out.append((idx, block))
    return out


def _common_blocks(
    state_0: FockDensityMatrix, state_1: FockDensityMatrix
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Aligned (block_0, block_1) pairs over the union of occupied grades."""
    blocks_0 = _graded_blocks(state_0)
    blocks_1 = _graded_blocks(state_1)
    if blocks_0 is None or blocks_1 is None:
        return None
    by_grade_0 = {idx[0]: (idx, b) for idx, b in blocks_0}
    by_grade_1 = {idx[0]: (idx, b) for idx, b in blocks_1}
    pairs = []
    for key in sorted(set(by_grade_0) | set(by_grade_1)):
        if key in by_grade_0:
            idx, b0 = by_grade_0[key]
            b1 = by_grade_1[key][1] if key in by_grade_1 else np.zeros_like(b0)
        else:
            idx, b1 = by_grade_1[key]
            b0 = np.zeros_like(b1)
        pairs.append((b0, b1))
    return pairs


def oracle_qre(
    state_0: FockDensityMatrix,
    state_1: FockDensityMatrix,
    *,
    eigen_floor: float = 1e-14,
    support_tol: float = 1e-9,
) -> float:
    """Relative entropy tr(rho_0 ln rho_0) - tr(rho_0 ln rho_1), in nats.

    Eigenvalues below ``eigen_floor`` are clamped for the logarithms.  If
    more than ``support_tol`` of rho_0's mass sits on directions where
    rho_1 is numerically zero, the quantity is effectively infinite and
    InfiniteQreError is raised.
    """
    if state_0.entries.shape != state_1.entries.shape or state_0.modes != state_1.modes:
        raise ValueError("states must share the same mode count and cutoff")
    pairs = _common_blocks(state_0, state_1)
    if pairs is None:
        pairs = [(state_0.entries, state_1.entries)]

    entropy = 0.0
    cross = 0.0
    escaped_mass = 0.0
    for b0, b1 in pairs:
        lam = np.linalg.eigvalsh(b0)
        keep = lam > eigen_floor
        entropy += float(np.sum(lam[keep] * np.log(lam[keep])))

        mu, w = np.linalg.eigh(b1)
        overlaps = np.einsum("ij,jk,ki->i", w.conj().T, b0, w).real
        overlaps = np.clip(overlaps, 0.0, None)
        low = mu < eigen_floor
        escaped_mass += float(overlaps[low].sum())
        cross += float(np.sum(overlaps * np.log(np.clip(mu, eigen_floor, None))))

    if escaped_mass > support_tol:
        raise InfiniteQreError(
            f"{escaped_mass:.3e} of the first state's mass lies outside the "
            f"second state's numerical support (floor {eigen_floor:g}); the "
            "relative entropy diverges"
        )
    return entropy - cross


def oracle_fidelity(
    state_0: FockDensityMatrix, state_1: FockDensityMatrix
) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho_0) rho_1 sqrt(rho_0)), in (0, 1]."""
    if state_0.entries.shape != state_1.entries.shape or state_0.modes != state_1.modes:
        raise ValueError("states must share the same mode count and cutoff")
    pairs = _common_blocks(state_0, state_1)
    if pairs is None:
        pairs = [(state_0.entries, state_1.entries)]

    total = 0.0
    for b0, b1 in pairs:
        lam, v = np.linalg.eigh(b0)
        root = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
        inner = root @ b1 @ root
        nu = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
        total += float(np.sqrt(np.clip(nu, 0.0, None)).sum())
    return min(total, 1.0)


def oracle_cross_check(
    scenario: SensingScenario,
    nbar_s: float,
    nbar_lo: float,
    theta: float,
    cutoff: int | None = None,
) -> dict[str, float]:
    """Residuals between the number-basis oracle and the Gaussian route.

    Builds the adversary states with and without the probe and one
    interrogator state pair at phases (theta, theta + 0.1), then returns
    the worst moment deviations and the QRE/fidelity/purity differences.
    Every value should be small; the test suite pins the tolerances.
    """
    from .covertness import willie_qre
    from .estimation import gaussian_fidelity
    from .gaussian import symplectic_spectrum
    from .scenario import alice_cm, willie_cm

    _check_occupancies(
        nbar_b1=scenario.nbar_b1,
        nbar_b2=scenario.nbar_b2,
        nbar_s=nbar_s,
        nbar_lo=nbar_lo,
    )
    occ = [scenario.nbar_b2, scenario.nbar_b1, nbar_s + nbar_lo]
    shared = (
        _select_total_cutoff(occ, cutoff, _DEFAULT_TAIL_BOUND)[0]
        if cutoff is None
        else cutoff
    )

    probe_a = ProbeSettings(nbar_s=nbar_s, nbar_lo=nbar_lo, theta=theta)
    probe_b = ProbeSettings(nbar_s=nbar_s, nbar_lo=nbar_lo, theta=theta + 0.1)
    # The two adversary states share their beam splitters, and so do the
    # two interrogator states (theta only enters the phase diagonal).
    memo = _CALL_MEMO.set({})
    try:
        w_off = oracle_willie_state(scenario, 0.0, theta, shared)
        w_on = oracle_willie_state(scenario, nbar_s, theta, shared)
        a_state_a = oracle_alice_state(scenario, probe_a, shared)
        a_state_b = oracle_alice_state(scenario, probe_b, shared)
    finally:
        _CALL_MEMO.reset(memo)

    mean, cov = fock_moments(w_on)
    w_cm = willie_cm(scenario, nbar_s, theta)
    spectrum = symplectic_spectrum(w_cm)
    gauss_purity = float(np.prod(1.0 / (2.0 * spectrum.eigenvalues)))
    a_mean, a_cov = fock_moments(a_state_a)

    return {
        "cutoff": float(shared),
        "willie_mean_max": float(np.abs(mean).max()),
        "willie_cm_max_err": float(np.abs(cov - w_cm.matrix).max()),
        "willie_purity_err": abs(fock_purity(w_on) - gauss_purity),
        "willie_qre_err": abs(
            oracle_qre(w_off, w_on) - willie_qre(scenario, nbar_s, theta)
        ),
        "alice_mean_max": float(np.abs(a_mean).max()),
        "alice_cm_max_err": float(
            np.abs(a_cov - alice_cm(scenario, probe_a).matrix).max()
        ),
        "alice_fidelity_err": abs(
            oracle_fidelity(a_state_a, a_state_b)
            - gaussian_fidelity(
                alice_cm(scenario, probe_a), alice_cm(scenario, probe_b)
            )
        ),
    }
