"""Brute-force Fock-basis oracle for the Gaussian-state machinery.

Simulates the tapped two-way sensing circuit photon-by-photon in a
truncated number basis and computes relative entropy and Uhlmann
fidelity from the eigendecomposition of each total-photon block.
Nothing here shares code with the covariance-matrix formulas it
validates: states are density matrices, beam splitters are the
closed-form SU(2) (Wigner small-d) amplitudes of the two-mode number
basis, and the entropic quantities come from eigenvalues.  Agreement
between the two routes is therefore evidence, not tautology.

Implementation notes:

* Every circuit element conserves total photon number, and every input
  is diagonal in the number basis, so states stay block-diagonal in
  total photons end to end.  All evolution, partial tracing, and
  spectral work happens block by block, and a state is its blocks: the
  moments, purity, QRE and fidelity all read them, and each block is
  eigendecomposed once, when the state is validated.  The full grid is
  assembled only when ``entries`` is read, which no cross-check does.
* Inside a block, a beam splitter on a mode pair is a direct sum of
  small pair blocks, one per photon total of the pair.  It is applied by
  gathering the rows of each pair total and multiplying by the pair
  block; the lifted matrix is never formed.  The density matrix is
  carried as a factor F with rho = F F^dag, and the partial trace is one
  product per retained photon total.
* No circuit runs on more than three modes.  A bath that is untouched
  after its tap is traced out as soon as the tap is done, and one that
  is untouched before its tap enters as a block-diagonal factor, so the
  interrogator's four-mode circuit runs as two three-mode stages.  The
  stage before the phase does not depend on it and is built once per
  cross-check.
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

import numpy as np

from .errors import CutoffError, InfiniteQreError
from .scenario import ProbeSettings, SensingScenario, check_occupancy, wrap_angle

__all__ = [
    "FockDensityMatrix",
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

#: Largest truncated probability mass a state may carry; every state this
#: module builds picks its cutoff to stay below it.
_TAIL_BOUND = 1e-10

#: ``FockDensityMatrix.require_valid`` tolerances: Hermiticity residual
#: relative to the largest entry, and the most negative eigenvalue allowed.
_HERMITICITY_TOL = 1e-12
_EIGENVALUE_TOL = 1e-12

#: ``oracle_qre``: eigenvalues below this are clamped for the logarithms,
#: and more than ``_SUPPORT_TOL`` of the first state's mass on directions
#: below it counts as outside the second state's support.
_EIGEN_FLOOR = 1e-14
_SUPPORT_TOL = 1e-9


class FockDensityMatrix:
    """A density matrix on a truncated multi-mode Fock grid, as its
    total-photon blocks.

    The grid has dimension ``(cutoff + 1)**modes``, with basis index
    ``sum_k n_k (cutoff+1)**(modes-1-k)`` (first mode is the most
    significant digit).  ``blocks`` holds one (grid indices, block) pair
    per occupied photon total, in increasing total; each index array is
    every grid index of its total, ascending, and the grid is zero outside
    the blocks.  Every state of this module has that form, since its
    circuits conserve photon number and its inputs are diagonal, and
    malformed blocks are refused with ValueError.  ``tail_bound`` bounds
    the probability mass lost to truncation; the trace lies in
    ``[1 - tail_bound, 1]``.

    ``require_valid`` eigendecomposes each block once and keeps the
    eigenpairs, which the QRE and fidelity read.  ``entries`` assembles
    the full grid.  Instances are immutable.
    """

    __slots__ = ("modes", "cutoff", "tail_bound", "blocks", "_eigenpairs")

    def __init__(
        self,
        modes: int,
        cutoff: int,
        blocks: list[tuple[np.ndarray, np.ndarray]],
        tail_bound: float,
    ) -> None:
        if modes < 1:
            raise ValueError("need at least one mode")
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        d = cutoff + 1
        strides = d ** np.arange(modes - 1, -1, -1)
        checked = []
        previous = -1
        for idx, block in blocks:
            idx, block = np.asarray(idx), np.asarray(block)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"a block must be square, got shape {block.shape}")
            if idx.shape != block.shape[:1]:
                raise ValueError(
                    f"a block of shape {block.shape} needs {len(block)} grid "
                    f"indices, got an index array of shape {idx.shape}"
                )
            if (
                not np.issubdtype(idx.dtype, np.integer)
                or idx.size == 0
                or idx.min() < 0
                or idx.max() >= d**modes
            ):
                raise ValueError(
                    f"grid indices must be integers in [0, {d**modes}), "
                    f"got {idx.tolist()}"
                )
            totals = (idx[:, None] // strides % d).sum(axis=1)
            total = int(totals[0])
            if (totals != total).any():
                raise ValueError(
                    "a block's indices span photon totals "
                    f"{sorted(set(totals.tolist()))}"
                )
            if total <= previous:
                raise ValueError(
                    f"blocks must come in increasing photon total, got {total} "
                    f"after {previous}"
                )
            if not np.array_equal(idx, _total_indices(modes, cutoff, total)):
                raise ValueError(
                    f"the block of photon total {total} must hold every grid "
                    "index of that total, ascending"
                )
            previous = total
            checked.append((idx, block))
        for name, value in (
            ("modes", modes),
            ("cutoff", cutoff),
            ("tail_bound", tail_bound),
            ("blocks", tuple(checked)),
            ("_eigenpairs", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FockDensityMatrix is immutable; cannot set {name}")

    @property
    def entries(self) -> np.ndarray:
        """The density matrix on the full grid, assembled on every read."""
        entries = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, block in self.blocks:
            entries[np.ix_(idx, idx)] = block
        return entries

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    def _spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(ascending eigenvalues, eigenvectors) of each block.

        Each block is decomposed on the first call only; later calls, and
        the QRE and fidelity, read the kept eigenpairs.
        """
        if self._eigenpairs is None:
            object.__setattr__(
                self,
                "_eigenpairs",
                tuple(np.linalg.eigh(block) for _, block in self.blocks),
            )
        return self._eigenpairs

    def trace(self) -> float:
        # Summed in grid order, as np.trace sums the diagonal of ``entries``.
        diagonal = np.zeros(self.dim, dtype=complex)
        for idx, block in self.blocks:
            diagonal[idx] = np.diagonal(block)
        return float(diagonal.sum().real)

    def require_valid(self) -> "FockDensityMatrix":
        """Check the density-matrix invariants; return self or raise ValueError."""
        if not self.tail_bound <= _TAIL_BOUND:
            raise ValueError(
                f"declared tail bound {self.tail_bound:g} exceeds {_TAIL_BOUND:g}"
            )
        # The grid is zero outside the blocks, so their maxima are the grid's.
        blocks = [block for _, block in self.blocks]
        scale = max([1.0] + [float(np.abs(b).max()) for b in blocks])
        herm = max([0.0] + [float(np.abs(b - b.conj().T).max()) for b in blocks])
        if herm > _HERMITICITY_TOL * scale:
            raise ValueError(f"not Hermitian: residual {herm:.3e}")
        tr = self.trace()
        if not 1.0 - self.tail_bound - 1e-12 <= tr <= 1.0 + 1e-12:
            raise ValueError(
                f"trace {tr!r} outside [1 - {self.tail_bound:g}, 1]"
            )
        min_eig = min([0.0] + [float(lam[0]) for lam, _ in self._spectra()])
        if min_eig < -_EIGENVALUE_TOL:
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


def _joint_tail(occupancies: list[float], upto: int) -> np.ndarray:
    """tail[K] = P(total photons > K) for independent thermal inputs."""
    length = upto + 1
    pmf = np.array([1.0])
    for nbar in occupancies:
        pmf = np.convolve(pmf, _geometric_pmf(nbar, length))
    return 1.0 - np.cumsum(pmf[:length])


def _select_total_cutoff(
    occupancies: list[float], cutoff: int | None
) -> tuple[int, float]:
    """(cutoff, actual joint tail), enforcing the tail bound and photon cap.

    An explicit cutoff outside [0, MAX_TOTAL_PHOTONS] is refused before
    any tail is computed.
    """
    if cutoff is not None:
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        if cutoff > MAX_TOTAL_PHOTONS:
            raise CutoffError(
                f"cutoff {cutoff} exceeds the supported cap {MAX_TOTAL_PHOTONS}"
            )
    probe_to = MAX_TOTAL_PHOTONS if cutoff is None else max(cutoff, 1)
    tails = _joint_tail(occupancies, probe_to)
    if cutoff is None:
        hits = np.nonzero(tails <= _TAIL_BOUND)[0]
        if hits.size == 0:
            raise CutoffError(
                f"inputs {occupancies} need a total-photon cutoff above the "
                f"cap {MAX_TOTAL_PHOTONS} to reach tail mass {_TAIL_BOUND:g} "
                f"(tail at the cap: {tails[-1]:.3e})"
            )
        chosen = int(hits[0])
        return chosen, float(max(tails[chosen], 0.0))
    actual = float(max(tails[cutoff], 0.0))
    if actual > _TAIL_BOUND:
        wide = _joint_tail(occupancies, MAX_TOTAL_PHOTONS)
        hits = np.nonzero(wide <= _TAIL_BOUND)[0]
        need = str(int(hits[0])) if hits.size else f"> {MAX_TOTAL_PHOTONS}"
        raise CutoffError(
            f"cutoff {cutoff} leaves tail mass {actual:.3e} > "
            f"{_TAIL_BOUND:g}; required cutoff: {need}"
        )
    return cutoff, actual


# ---------------------------------------------------------------------------
# Total-photon blocks and circuit elements
# ---------------------------------------------------------------------------

#: Memo for the index and pair-block tables of one ``oracle_cross_check``
#: call, so its four states build each beam splitter once, and for the
#: phase-independent part its two interrogator states share.  Set and reset
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


@functools.lru_cache(maxsize=4 * (MAX_TOTAL_PHOTONS + 1))
def _total_indices(num_modes: int, cutoff: int, total: int) -> np.ndarray:
    """Grid indices of the basis states with ``total`` photons, ascending.

    The array is cached and read-only.
    """
    basis = _block_basis(num_modes, total)
    basis = basis[(basis <= cutoff).all(axis=1)]
    # Lexicographic with the first mode most significant is grid order.
    idx = basis @ (cutoff + 1) ** np.arange(num_modes - 1, -1, -1)
    idx.flags.writeable = False
    return idx


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
        check_occupancy(name, value)
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
) -> FockDensityMatrix:
    """Adversary's two-mode state, simulated photon-by-photon.

    Circuit: thermal(nbar_b2) (x) thermal(nbar_b1) (x) thermal(nbar_s),
    mixed by the forward tap (modes 2,3 at eta_1), the target phase on
    mode 3, and the return tap (modes 1,3 at eta_2); mode 3 is then
    traced out.  Output mode order matches ``willie_cm``:
    (return-path tap, forward-path tap).  The retained reference mode
    never couples to the adversary and is omitted.

    A ``theta`` outside (-pi, pi] is wrapped on entry, since
    exp(i theta n) keeps no correct digit at a huge phase; one inside is
    used as given.
    """
    _check_occupancies(
        nbar_b2=scenario.nbar_b2, nbar_b1=scenario.nbar_b1, nbar_s=nbar_s
    )
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not -math.pi < theta <= math.pi:
        theta = wrap_angle(theta)
    occ = [scenario.nbar_b2, scenario.nbar_b1, nbar_s]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff)
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


def _psd_factor(block: np.ndarray) -> np.ndarray:
    """Real F with F F^T = ``block``, a real positive semidefinite matrix.

    One column per positive eigenvalue; negative rounding is clipped to
    zero, and the zero directions carry no column.
    """
    lam, vec = np.linalg.eigh(block)
    keep = lam > 0.0
    return vec[:, keep] * np.sqrt(lam[keep])


@_call_memoised
def _forward_factors(
    nbar_b1: float, nbar_s: float, nbar_lo: float, eta_1: float, cutoff: int
) -> list[list[np.ndarray]]:
    """The part of the interrogator circuit before the phase, factored.

    Three modes (forward bath, signal, reference): the source beam is split
    against the vacuum reference, the forward tap mixes the signal with the
    bath, and the bath, never touched again, is traced out.  What is left
    are real two-mode blocks sigma on (signal, reference).  Entry ``[s][k]``
    is a factor of sigma^(s)_k, the block of photon total k over the inputs
    with n_b1 + n_source <= s (a prefix sum over the three-mode total s);
    its rows are the block's positions, the signal count.
    """
    source_total = nbar_s + nbar_lo
    split = 0.0 if source_total == 0.0 else nbar_s / source_total
    pmf_b1 = _geometric_pmf(nbar_b1, cutoff + 1)
    pmf_source = _geometric_pmf(source_total, cutoff + 1)
    # Source split: reference is the eta port so the signal keeps
    # nbar_s with a positive q-q/p-p cross-correlation.
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


def oracle_alice_state(
    scenario: SensingScenario,
    probe: ProbeSettings,
    cutoff: int | None = None,
) -> FockDensityMatrix:
    """Interrogator's (returned signal, reference) state in the Fock basis.

    Circuit mirroring ``build_global_cm``: thermal baths on the return
    and forward paths; one thermal beam of occupancy nbar_s + nbar_lo
    split against a vacuum reference mode (so the signal keeps nbar_s,
    the reference nbar_lo, with positive cross-correlation); then forward
    tap, phase, return tap on the signal path, and the baths are traced
    out.  Output mode order matches ``alice_cm``: (signal, reference).
    ``ProbeSettings`` has already refused a non-finite phase and wrapped
    a finite one into (-pi, pi].

    The state is that of the four-mode circuit with the inputs truncated
    to n_b2 + n_b1 + n_source <= cutoff, built in two stages.  The forward
    bath is untouched after the forward tap, so ``_forward_factors`` traces
    it out first; that part does not depend on theta and is shared by
    the interrogator states of one cross-check.  The return bath is
    untouched before the return tap, so the input of the return stage,
    on (return bath, signal, reference), is block-diagonal over the bath
    count n0 with blocks p_b2(n0) sigma^(cutoff - n0): the prefix
    sigma^(cutoff - n0) keeps exactly the inputs the truncation keeps.
    The phase and the return tap act on the factor of that input, and
    the return bath is traced out.
    """
    source_total = probe.nbar_s + probe.nbar_lo
    _check_occupancies(
        nbar_b2=scenario.nbar_b2,
        nbar_b1=scenario.nbar_b1,
        source_total=source_total,
    )
    occ = [scenario.nbar_b2, scenario.nbar_b1, source_total]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff)
    sigma = _forward_factors(
        scenario.nbar_b1, probe.nbar_s, probe.nbar_lo, scenario.eta_1, total_cutoff
    )
    weights = np.sqrt(_geometric_pmf(scenario.nbar_b2, total_cutoff + 1))
    phases = np.exp(1j * probe.theta * np.arange(total_cutoff + 1))
    ret = _BeamSplitter(3, 0, 1, scenario.eta_2, total_cutoff)

    reduced = _ReducedAccumulator(total_cutoff)
    for total in range(total_cutoff + 1):
        # In the basis of (return bath, signal, reference) the rows of one
        # bath count n0 are contiguous and ordered by the signal count, as
        # the rows of a reduced block are.
        chunks = [
            (n0, weights[n0] * sigma[total_cutoff - n0][total - n0])
            for n0 in range(total + 1)
            if weights[n0] > 0.0
        ]
        factor = np.zeros(
            (len(_block_basis(3, total)), sum(c.shape[1] for _, c in chunks)),
            dtype=complex,
        )
        col = 0
        for n0, chunk in chunks:
            # Rows before bath count n0: sum of (total - j + 1) for j < n0.
            row = n0 * (2 * total + 3 - n0) // 2
            rows, cols = chunk.shape
            factor[row : row + rows, col : col + cols] = phases[:rows, None] * chunk
            col += cols
        ret.apply(total, factor)
        reduced.add_traced_factor(3, total, factor, keep=(1, 2))

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
        """The occupied blocks, symmetrised, as a validated two-mode state."""
        blocks = []
        for total, block in enumerate(self.blocks):
            block = (block + block.conj().T) / 2.0
            if float(np.abs(block).max()) > 0.0:
                blocks.append((_total_indices(2, self.cutoff, total), block))
        return FockDensityMatrix(2, self.cutoff, blocks, tail_bound).require_valid()


# ---------------------------------------------------------------------------
# Moments, purity, and the entropic quantities
# ---------------------------------------------------------------------------


def fock_moments(state: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, covariance matrix) in qqpp ordering, hbar = 1.

    Read from the total-photon blocks, with no dense grid.  <a_k> and
    <a_k a_l> change the photon total, so on a block-diagonal state they
    vanish: the means are zero by structure, and every second moment comes
    from <a_k^dag a_l>, which lies inside a block.  Same-mode second
    moments keep the convention of products of the truncated single-mode
    matrices, in which a a^dag is zero at n = cutoff.  Expectations are
    normalised by the trace, so the slight sub-normalisation from
    truncation does not bias the moments.
    """
    m = state.modes
    d = state.cutoff + 1
    strides = d ** np.arange(m - 1, -1, -1)
    hop = np.zeros((m, m), dtype=complex)  # <a_k^dag a_l>
    anti_normal = np.zeros(m)  # <a_k a_k^dag>, truncated
    for idx, block in state.blocks:
        occ = idx[:, None] // strides % d
        weights = np.diagonal(block).real
        hop[np.diag_indices(m)] += weights @ occ
        anti_normal += weights @ np.where(occ < d - 1, occ + 1, 0)
        for k in range(m):
            for l in range(k + 1, m):
                # tr(rho a_k^dag a_l) sums rho[x, x - e_l + e_k] over x
                # with x_l > 0, weighted by sqrt(x_l (x_k + 1)).
                src = np.flatnonzero((occ[:, l] > 0) & (occ[:, k] < d - 1))
                target = idx[src] - strides[l] + strides[k]
                dst = np.minimum(np.searchsorted(idx, target), len(idx) - 1)
                inside = idx[dst] == target
                src, dst = src[inside], dst[inside]
                amp = np.sqrt(occ[src, l] * (occ[src, k] + 1.0))
                hop[k, l] += np.sum(amp * block[src, dst])
    upper = np.triu_indices(m, 1)
    hop[upper[::-1]] = hop[upper].conj()
    norm = state.trace()
    hop /= norm
    anti_normal /= norm

    same = hop.real.copy()
    np.fill_diagonal(same, (np.diagonal(hop).real + anti_normal) / 2.0)
    cov = np.block([[same, hop.imag], [hop.imag.T, same]])
    return np.zeros(2 * m), cov


def fock_purity(state: FockDensityMatrix) -> float:
    """tr(rho^2); for a Gaussian state this is prod_k 1/(2 u_k)."""
    return float(sum(np.vdot(block, block).real for _, block in state.blocks))


def oracle_qre(state_0: FockDensityMatrix, state_1: FockDensityMatrix) -> float:
    """Relative entropy tr(rho_0 ln rho_0) - tr(rho_0 ln rho_1), in nats.

    Eigenvalues below 1e-14 are clamped for the logarithms.  If more than
    1e-9 of rho_0's mass sits on directions where rho_1 is numerically
    zero, the quantity is effectively infinite and InfiniteQreError is
    raised.
    """
    if state_0.cutoff != state_1.cutoff or state_0.modes != state_1.modes:
        raise ValueError("states must share the same mode count and cutoff")
    # Index arrays are every grid index of their total, so the first index
    # names the total.  A total that rho_0 leaves empty adds nothing; one
    # that rho_1 leaves empty is a zero block, all of it below the floor.
    spectra_1 = {
        int(idx[0]): pair for (idx, _), pair in zip(state_1.blocks, state_1._spectra())
    }

    entropy = 0.0
    cross = 0.0
    escaped_mass = 0.0
    for (idx, b0), (lam, _) in zip(state_0.blocks, state_0._spectra()):
        keep = lam > _EIGEN_FLOOR
        entropy += float(np.sum(lam[keep] * np.log(lam[keep])))

        mu, w = spectra_1.get(int(idx[0]), (np.zeros(len(idx)), np.eye(len(idx))))
        overlaps = np.einsum("ij,jk,ki->i", w.conj().T, b0, w).real
        overlaps = np.clip(overlaps, 0.0, None)
        low = mu < _EIGEN_FLOOR
        escaped_mass += float(overlaps[low].sum())
        cross += float(np.sum(overlaps * np.log(np.clip(mu, _EIGEN_FLOOR, None))))

    if escaped_mass > _SUPPORT_TOL:
        raise InfiniteQreError(
            f"{escaped_mass:.3e} of the first state's mass lies outside the "
            f"second state's numerical support (floor {_EIGEN_FLOOR:g}); the "
            "relative entropy diverges"
        )
    return entropy - cross


def oracle_fidelity(
    state_0: FockDensityMatrix, state_1: FockDensityMatrix
) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho_0) rho_1 sqrt(rho_0)), in (0, 1]."""
    if state_0.cutoff != state_1.cutoff or state_0.modes != state_1.modes:
        raise ValueError("states must share the same mode count and cutoff")
    # As in oracle_qre, the first index names the total; a total that
    # either state leaves empty adds nothing.
    blocks_1 = {int(idx[0]): b1 for idx, b1 in state_1.blocks}

    total = 0.0
    for (idx, b0), (lam, v) in zip(state_0.blocks, state_0._spectra()):
        b1 = blocks_1.get(int(idx[0]))
        if b1 is None:
            continue
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
    ``theta`` is wrapped into (-pi, pi] once, here, for all four states.
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
    # The interrogator's source carries both; refuse it before any state.
    _check_occupancies(**{"nbar_s + nbar_lo": nbar_s + nbar_lo})
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    theta = wrap_angle(theta)
    occ = [scenario.nbar_b2, scenario.nbar_b1, nbar_s + nbar_lo]
    shared = (
        _select_total_cutoff(occ, cutoff)[0]
        if cutoff is None
        else cutoff
    )

    probe_a = ProbeSettings(nbar_s=nbar_s, nbar_lo=nbar_lo, theta=theta)
    probe_b = ProbeSettings(nbar_s=nbar_s, nbar_lo=nbar_lo, theta=theta + 0.1)
    # The two adversary states share their beam splitters; the two
    # interrogator states share their return splitter and everything
    # before the phase (theta only enters the phase diagonal).
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
            oracle_qre(w_off, w_on) - willie_qre(scenario, nbar_s)
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
