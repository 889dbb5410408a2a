"""Brute-force Fock-basis oracle for the Gaussian-state machinery.

Simulates the tapped two-way sensing circuit photon-by-photon in a
truncated number basis and computes relative entropy and Uhlmann
fidelity from the eigendecomposition of each total-photon block.
Nothing here shares code with the covariance-matrix formulas it
validates: states are density matrices, every beam splitter (both taps
and the source split) is the SU(2) (Wigner small-d) amplitudes of the
two-mode number basis, built by one recurrence (``_pair_blocks``), and
the entropic quantities come from eigenvalues.  Agreement between the
two routes is therefore evidence, not tautology.

Implementation notes:

* Every circuit element conserves total photon number, and every input
  is diagonal in the number basis, so states stay block-diagonal in
  total photons end to end.  All evolution, partial tracing, and
  spectral work happens block by block, and a two-mode state is its
  blocks, one per photon total: the moments, purity, QRE and fidelity
  all read them.  No Fock grid is ever formed.
* Every tap is a beam splitter against a number-diagonal thermal bath,
  one of whose output ports is then traced out, so it acts on a two-mode
  state as a one-mode channel: each output block is a sum, over the bath
  count, of products of two pair-block (Wigner small-d) amplitudes with
  entries of one input block, and the traced count is fixed by the bath
  count and the input and output totals.  No circuit is run on three or
  four modes and no amplitude factor is formed; the work is O(cutoff^5)
  in O(cutoff) vectorised calls.
* The indices of every amplitude a tap stage reads move together along a
  summed count (``table[a + j, b + j, ...]``), so for each photon total
  the amplitudes are one fixed-stride, read-only view (``_diagonals``)
  of a table the stage builds once: the pair blocks, weighted by the
  bath and zero-padded where a count would be negative.  No index grid
  is built per total, and numpy refuses a view that would leave its
  table.
* The adversary's forward tap keeps both its ports, so its stage is one
  block per pair total, and the Gram of the return tap depends on neither
  the probe nor the phase.  The interrogator's forward stage is a family
  of prefix sums over the photons consumed; its return stage weights them
  by the return bath.
* Both return stages stream over the photon totals: the Gram of the
  return tap and the interrogator's prefix family are generators, and
  each total's Gram or prefix block is built, read at once, and dropped
  before the next.  Everything a build holds at one time (the pair-block
  tables, the forward-tap blocks, the output blocks, one total's Gram or
  prefixes) is O(cutoff^3); nothing over all totals of the Gram or the
  prefixes, which would be O(cutoff^4), is ever kept.
* The probe reaches the adversary's state only through its number
  distribution, which ``_willie_states`` takes as an array per probe: the
  public builders pass the thermal (geometric) one, and a phase-averaged
  coherent probe is the Poisson one.  ``_joint_tail`` reads the inputs'
  distributions, so a cutoff can be set for either probe.
* The private builders take their tables, and a table's length fixes the
  cutoff.  A cross-check selects one cutoff, from the interrogator's
  inputs, which dominate both adversaries', and builds the pair blocks of
  both taps and of the source split at it in one ``_pair_blocks`` call;
  the split reads column 0 of its own table.  One ``_willie_states``
  call builds both adversary states, so each total's Gram is built once
  and read by both.  Each public state builder selects its own cutoff
  and builds its own tables in one ``_pair_blocks`` call.
* Photon number is conserved and the baths are diagonal, so the phase
  only conjugates each output block by a diagonal of exp(i theta n).  A
  state therefore holds real theta-free blocks plus that phase, and each
  real block family is eigendecomposed once, when it is validated: a
  cross-check builds one interrogator state and turns it to the second
  phase, so the two share one real build and one decomposition.  Only a
  relative phase between two states reaches the QRE and the fidelity,
  and none reaches the spectra, purity or trace.
* ``cutoff`` is the total-photon truncation: the inputs are truncated to
  at most ``cutoff`` photons in all, a state holds the blocks of totals
  0..cutoff, and ``tail_bound`` is the discarded joint tail mass.  Each
  set of inputs has one joint-tail table (``_tails``, totals 0..64), and
  every cutoff, refusal and declared tail of those inputs is read from
  it.
* The oracle targets the weak-probe regime: occupancies are capped at 2
  and the total-photon cutoff at 64.  Bright local oscillators are out
  of scope (use the covariance-matrix route, which is exact).

Beam-splitter and phase conventions match the Gaussian module exactly:
a beam splitter of transmissivity eta on (i, j) sends
a_i -> sqrt(eta) a_i + sqrt(1-eta) a_j (j the cross port), and a phase
theta on mode i sends a_i -> exp(i theta) a_i.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterator

import numpy as np

from .errors import CutoffError, InfiniteQreError
from .scenario import (
    ProbeSettings,
    SensingScenario,
    check_angle,
    check_integer,
    check_occupancy,
)

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
    """A two-mode density matrix truncated at ``cutoff`` total photons, held
    as its total-photon blocks and a phase on the first mode.

    ``blocks[K]``, for K = 0..cutoff, is the (K + 1) x (K + 1) block of
    photon total K on the first mode's count a (the second mode holds
    K - a); a total the state leaves empty is a zero block, and there is
    no coherence between totals.  Every state of this module has that
    form, since its circuits conserve photon number and its inputs are
    diagonal; a cutoff that is not a non-negative integer, or a wrong
    block count or shape, is refused with ValueError.
    The state's block K is D blocks[K] D^dag with D = diag(exp(i phase a)),
    the first mode turned by ``phase`` (default 0, the blocks as given; a
    finite phase outside (-pi, pi] is wrapped).  The states this module
    builds hold real theta-free blocks and their phase.  ``tail_bound``
    bounds the probability mass lost to truncation; the trace lies in
    ``[1 - tail_bound, 1]``.

    ``require_valid`` eigendecomposes each block once and keeps the
    eigenpairs, which the QRE and fidelity read; ``with_phase`` shares
    them.  Instances are immutable.
    """

    __slots__ = ("cutoff", "tail_bound", "blocks", "phase", "_eigenpairs")

    def __init__(
        self,
        cutoff: int,
        blocks: list[np.ndarray],
        tail_bound: float,
        phase: float = 0.0,
    ) -> None:
        _check_cutoff(cutoff)
        blocks = tuple(np.asarray(block) for block in blocks)
        if len(blocks) != cutoff + 1:
            raise ValueError(
                f"cutoff {cutoff} needs {cutoff + 1} total-photon blocks, "
                f"got {len(blocks)}"
            )
        for total, block in enumerate(blocks):
            if block.shape != (total + 1, total + 1):
                raise ValueError(
                    f"the block of photon total {total} must have shape "
                    f"{(total + 1, total + 1)}, got {block.shape}"
                )
        phase = check_angle("phase", phase)
        for name, value in (
            ("cutoff", cutoff),
            ("tail_bound", tail_bound),
            ("blocks", blocks),
            ("phase", phase),
            ("_eigenpairs", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FockDensityMatrix is immutable; cannot set {name}")

    def with_phase(self, phase: float) -> "FockDensityMatrix":
        """The same blocks at first-mode phase ``phase``.

        The phase moves no eigenvalue and turns the eigenvectors by D, so
        the new state shares the blocks' eigenpairs, once decomposed.
        """
        state = FockDensityMatrix(self.cutoff, self.blocks, self.tail_bound, phase)
        for name in ("blocks", "_eigenpairs"):
            object.__setattr__(state, name, getattr(self, name))
        return state

    def _spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(ascending eigenvalues, eigenvectors) of each block, at phase 0.

        Each block is decomposed on the first call only; later calls, and
        the QRE and fidelity, read the kept eigenpairs.
        """
        if self._eigenpairs is None:
            object.__setattr__(
                self, "_eigenpairs", tuple(map(_block_spectrum, self.blocks))
            )
        return self._eigenpairs

    def _diagonal(self) -> np.ndarray:
        """The block diagonals, concatenated in order of total."""
        return np.concatenate([np.diagonal(block) for block in self.blocks]).real

    def trace(self) -> float:
        """The diagonal's sum, correctly rounded, so no order of it counts."""
        return math.fsum(self._diagonal().tolist())

    def require_valid(self) -> "FockDensityMatrix":
        """Check the density-matrix invariants; return self or raise ValueError.

        None of them depends on the phase.
        """
        if not self.tail_bound <= _TAIL_BOUND:
            raise ValueError(
                f"declared tail bound {self.tail_bound:g} exceeds {_TAIL_BOUND:g}"
            )
        # Every entry, and the entry its Hermitian conjugate puts there.
        entries = np.concatenate([b.ravel() for b in self.blocks])
        mirrored = np.concatenate([b.T.ravel() for b in self.blocks]).conj()
        scale = max(1.0, float(np.abs(entries).max()))
        herm = float(np.abs(entries - mirrored).max())
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


def _block_spectrum(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian block; a zero block's (zeros, identity), which
    LAPACK returns too, without calling it."""
    if not block.any():
        return np.zeros(len(block)), np.eye(len(block), dtype=block.dtype)
    return np.linalg.eigh(block)


def _geometric_pmf(nbar: float, length: int) -> np.ndarray:
    """First ``length`` thermal number probabilities n^k/(1+n)^(k+1); the
    vacuum's are [1, 0, ...], as 0.0 ** 0 is 1."""
    ratio = nbar / (1.0 + nbar)
    return np.power(ratio, np.arange(length)) / (1.0 + nbar)


def _joint_tail(pmfs: list[np.ndarray]) -> np.ndarray:
    """tail[K] = P(total photons > K) for independent inputs, from their
    number distributions on the same counts K = 0, 1, ..."""
    pmf = np.array([1.0])
    for probabilities in pmfs:
        pmf = np.convolve(pmf, probabilities)
    return 1.0 - np.cumsum(pmf[: len(pmfs[0])])


def _tails(occupancies: list[float]) -> list[float]:
    """tail[K] = P(total photons > K), at least 0, for K = 0..MAX_TOTAL_PHOTONS
    and independent thermal inputs: every cutoff and tail of these inputs is
    read from this one table."""
    pmfs = [_geometric_pmf(nbar, MAX_TOTAL_PHOTONS + 1) for nbar in occupancies]
    return np.maximum(_joint_tail(pmfs), 0.0).tolist()


def _check_cutoff(cutoff: int) -> None:
    """Refuse a cutoff that is not a non-negative integer (``check_integer``)."""
    check_integer("cutoff", cutoff)
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")


def _select_total_cutoff(
    occupancies: list[float], cutoff: int | None
) -> tuple[int, float]:
    """(cutoff, actual joint tail), enforcing the tail bound and photon cap.

    An explicit cutoff that is not an integer (``_check_cutoff``), or one
    outside [0, MAX_TOTAL_PHOTONS], is refused before any tail is
    computed, and one whose tail is too heavy is refused naming the least
    cutoff these inputs accept.  A chosen cutoff is at least 1:
    ``fock_moments`` no longer needs that floor, but it keeps every
    input's cutoff where it was.  The automatic cutoff, the acceptance of
    an explicit one, the advice and the returned tail are all read from
    one ``_tails`` table, so a state gets the same tail at a cutoff however
    that cutoff was reached, and an advised cutoff is accepted.
    """
    if cutoff is not None:
        _check_cutoff(cutoff)
        if cutoff > MAX_TOTAL_PHOTONS:
            raise CutoffError(
                f"cutoff {cutoff} exceeds the supported cap {MAX_TOTAL_PHOTONS}"
            )
    tails = _tails(occupancies)
    hits = [total for total, tail in enumerate(tails) if tail <= _TAIL_BOUND]
    if cutoff is None:
        if not hits:
            raise CutoffError(
                f"inputs {occupancies} need a total-photon cutoff above the "
                f"cap {MAX_TOTAL_PHOTONS} to reach tail mass {_TAIL_BOUND:g} "
                f"(tail at the cap: {tails[-1]:.3e})"
            )
        cutoff = max(hits[0], 1)
    elif tails[cutoff] > _TAIL_BOUND:
        need = str(hits[0]) if hits else f"> {MAX_TOTAL_PHOTONS}"
        raise CutoffError(
            f"cutoff {cutoff} leaves tail mass {tails[cutoff]:.3e} > "
            f"{_TAIL_BOUND:g}; required cutoff: {need}"
        )
    return cutoff, tails[cutoff]


# ---------------------------------------------------------------------------
# Total-photon blocks and the taps as channels
# ---------------------------------------------------------------------------

def _pair_blocks(etas: tuple[float, ...], cutoff: int) -> np.ndarray:
    """Beam-splitter amplitudes on fixed pair totals ``m = 0..cutoff``, one
    read-only lane per transmissivity in ``etas``.

    ``table[l, m, x, y]`` is the amplitude from ``y`` to ``x`` photons in
    the first mode of the pair at pair total ``m`` for ``eta = etas[l]``.
    Block ``m`` of a lane, the slice ``[m, :m + 1, :m + 1]``, is the
    orthogonal matrix exp(phi (a1^dag a2 - a2^dag a1)) with
    cos(phi) = sqrt(eta); it sends a1 -> cos(phi) a1 + sin(phi) a2.  Every
    other entry is zero, so an index past the edge of a block reads a zero
    amplitude.  These are the SU(2) (Wigner small-d) matrices, i.e. the
    m-th symmetric power of the 2 x 2 rotation R = [[c, s], [-s, c]].  All
    lanes are built together by

        m U_m = sum_{i,l} R_li  a_l^dag U_{m-1} a_i,

    which follows from m = a1^dag a1 + a2^dag a2 on the block and
    U a_i^dag = sum_l R_li a_l^dag U.  The map U_{m-1} -> U_m is a
    contraction, so rounding errors do not grow with m.  Each lane is
    formed elementwise, so it is bit for bit the one-lane table of its
    transmissivity.
    """
    etas = np.asarray(etas, dtype=float)
    root = np.sqrt(np.arange(1.0, cutoff + 1))  # sqrt(k), k = 1..cutoff
    # (c sqrt(x + 1)) sqrt(y + 1) and (s sqrt(x + 1)) sqrt(y + 1); block m
    # reads sqrt(k), k = 1..m, as up = [:m] and sqrt(m - k), k = 0..m-1, as
    # down = [m - 1::-1].
    same = np.multiply.outer(np.sqrt(etas)[:, None] * root, root)
    cross = np.multiply.outer(np.sqrt(1.0 - etas)[:, None] * root, root)
    table = np.zeros((len(etas),) + (cutoff + 1,) * 3)
    table[:, 0, 0, 0] = 1.0
    for m in range(1, cutoff + 1):
        prev = table[:, m - 1, :m, :m]
        up, down = slice(0, m), slice(m - 1, None, -1)
        block = table[:, m, : m + 1, : m + 1]
        block[:, 1:, 1:] += same[:, up, up] * prev
        block[:, :m, 1:] -= cross[:, down, up] * prev
        block[:, 1:, :m] += cross[:, up, down] * prev
        block[:, :m, :m] += same[:, down, down] * prev
        block /= m
    table.flags.writeable = False
    return table


def _diagonals(base: np.ndarray, moves: tuple) -> Callable[..., np.ndarray]:
    """Views of ``base`` along fixed index moves.

    ``_diagonals(base, moves)(start, shape)`` is the read-only view whose
    entry i reads ``base[start + sum_d i_d moves[d]]``.  The tap stages
    read amplitudes whose indices move together along a summed count, so
    each photon total reads them as one such view of a table built once.
    numpy refuses a view that would reach outside ``base``.
    """
    base = np.ascontiguousarray(base).view()
    base.flags.writeable = False

    def offset(index: tuple) -> int:
        return sum(i * step for i, step in zip(index, base.strides))

    strides = [offset(move) for move in moves]
    return lambda start, shape: np.ndarray(
        shape, base.dtype, base, offset(start), strides
    )


def _check_occupancies(**named: float) -> None:
    for name, value in named.items():
        check_occupancy(name, value)
        if value > MAX_OCCUPANCY:
            raise ValueError(
                f"{name} = {value} exceeds {MAX_OCCUPANCY}; the number-basis "
                "oracle is a small-occupancy tool"
            )


def _forward_tap_blocks(
    table: np.ndarray, nbar_b1: float, pmf_s: np.ndarray
) -> np.ndarray:
    """The adversary's (forward tap, signal) state after the forward tap.

    ``table`` holds the tap's pair blocks (``_pair_blocks``) up to the
    cutoff, and ``pmf_s`` the probe's number distribution p_s on counts
    0..cutoff.  Entry ``[k]`` is the block of pair total k on the
    forward-tap count, B_k diag(p_b1(y) p_s(k - y)) B_k^T with B_k the pair
    block of the tap, zero-padded to (cutoff + 1) x (cutoff + 1).
    """
    cutoff = len(table) - 1
    pmf_b1 = _geometric_pmf(nbar_b1, cutoff + 1)
    total = np.arange(cutoff + 1)[:, None]
    tap = np.arange(cutoff + 1)
    probs = np.where(tap <= total, pmf_b1 * pmf_s[np.maximum(total - tap, 0)], 0.0)
    return (table * probs[:, None, :]) @ table.transpose(0, 2, 1)


def _return_gram(table: np.ndarray, nbar_b2: float) -> Iterator[np.ndarray]:
    """The adversary's return tap, of pair blocks ``table``, as weights on
    the forward-tap blocks, one photon total at a time.

    The tap mixes the bath (count j, probability p_b2(j)) into the signal;
    the adversary keeps the bath port (count a) and the signal port (count
    t) is traced out.  The forward-tap count n1 is a spectator, so output
    block K, on (a, n1 = K - a), reads forward block k = K + t - j on the
    same n1:

        out_K[a, a'] = sum_k gram_K[k, n1, n1'] forward_k[n1, n1'],
        gram_K[k, n1, n1'] = sum_t p_b2(j) U_{a+t}[a, j] U_{a'+t}[a', j],

    over t <= cutoff - K, which is the truncation j + k <= cutoff.  The
    Gram of total K, of shape (cutoff + 1, K + 1, K + 1), is yielded for
    K = 0..cutoff in turn, each built only when asked for.  It depends
    neither on the probe nor on the phase.
    """
    cutoff = len(table) - 1
    root = np.sqrt(_geometric_pmf(nbar_b2, cutoff + 1))
    # [cutoff + j, m, x] holds sqrt(p_b2(j)) U_m[x, j]; j < 0 reads zero.
    padded = np.zeros((2 * cutoff + 1, cutoff + 1, cutoff + 1))
    padded[cutoff:] = (table * root).transpose(2, 0, 1)
    # (k, t, n1) of total K reads [cutoff + j, a + t, a], j = K + t - k and
    # a = K - n1.
    view = _diagonals(padded, ((-1, 0, 0), (1, 1, 0), (0, -1, -1)))
    for total in range(cutoff + 1):
        # A Gram over t for every k.
        shape = (cutoff + 1, cutoff - total + 1, total + 1)
        amp = view((cutoff + total, total, total), shape)
        yield amp.transpose(0, 2, 1) @ amp


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

    The inputs are truncated to n_b2 + n_b1 + n_s <= cutoff, and the
    state is built by ``_willie_states``.  The return tap conserves photon
    number and its bath is diagonal, so the phase only conjugates each
    output block by diag(exp(i theta a)) on the kept count a: the state
    holds the real blocks at theta = 0 and ``theta`` as its phase.

    A ``theta`` outside (-pi, pi] is wrapped on entry, since
    exp(i theta n) keeps no correct digit at a huge phase; one inside is
    used as given.
    """
    _check_occupancies(
        nbar_b2=scenario.nbar_b2, nbar_b1=scenario.nbar_b1, nbar_s=nbar_s
    )
    theta = check_angle("theta", theta)
    occ = [scenario.nbar_b2, scenario.nbar_b1, nbar_s]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff)
    (state,) = _willie_states(
        scenario,
        [_geometric_pmf(nbar_s, total_cutoff + 1)],
        *_pair_blocks((scenario.eta_1, scenario.eta_2), total_cutoff),
        [actual_tail],
    )
    return state.with_phase(theta)


def _willie_states(
    scenario: SensingScenario,
    pmfs: list[np.ndarray],
    forward_table: np.ndarray,
    return_table: np.ndarray,
    tails: list[float],
) -> list[FockDensityMatrix]:
    """The adversary's validated states at theta = 0, one per probe number
    distribution in ``pmfs`` (on counts 0..cutoff) with its tail bound in
    ``tails``, from the pair blocks of the forward and the return tap at
    one cutoff.

    The forward tap keeps both its ports, so its stage is one block per
    pair total (``_forward_tap_blocks``); the return tap then acts as a
    one-mode channel on the signal, through its Gram (``_return_gram``),
    which depends on no probe: each total's Gram is read by every probe's
    forward blocks and dropped before the next is built.
    """
    forwards = [
        _forward_tap_blocks(forward_table, scenario.nbar_b1, pmf) for pmf in pmfs
    ]
    families = [[] for _ in pmfs]
    for total, gram in enumerate(_return_gram(return_table, scenario.nbar_b2)):
        for forward, blocks in zip(forwards, families):
            # Summed on n1, then reversed onto the kept count a = K - n1.
            held = forward[:, : total + 1, : total + 1]
            blocks.append(np.einsum("kij,kij->ij", gram, held)[::-1, ::-1])
    return [_finish(blocks, tail) for blocks, tail in zip(families, tails)]


def _forward_prefixes(
    tap: np.ndarray, nbar_b1: float, source_total: float, split: np.ndarray
) -> Iterator[np.ndarray]:
    """The interrogator's (signal, reference) state after the forward tap,
    of pair blocks ``tap`` up to the cutoff.

    The source beam (occupancy ``source_total`` = nbar_s + nbar_lo, count
    n) is split against the vacuum reference, which leaves the amplitude
    ``split[n, r]`` = V_n[r] = U_n[r, 0] on the reference count r: column 0
    of the split's pair blocks, of transmissivity nbar_s / source_total, so
    that the reference is the eta port and the signal keeps nbar_s with a
    positive q-q/p-p cross-correlation.  The forward tap mixes the bath
    (count j) into the signal and its bath port (count t) is traced out.
    The entry of total k, yielded for k = 0..cutoff in turn and each built
    only when asked for, holds, at ``[s - k]`` for s = k..cutoff, the block
    sigma^(s)_k of photon total k over the inputs with j + n <= s, on the
    reference count (signal count k - r).  At a three-mode total q = j + n
    the traced count is t = q - k, so

        sigma^(s)_k = sum_{q = k..s} X_q^T X_q,
        X_q[j, r] = sqrt(p_b1(j) p_source(q - j)) U_{q-r}[t, j] V_{q-j}[r].

    The entry of total k has shape (cutoff - k + 1, k + 1, k + 1).
    """
    cutoff = len(tap) - 1
    pmf_b1 = _geometric_pmf(nbar_b1, cutoff + 1)
    # Row cutoff + n holds the source count n; n < 0 reads zero.
    padded = np.zeros((2 * cutoff + 1, cutoff + 2))
    padded[cutoff:, 0] = _geometric_pmf(source_total, cutoff + 1)
    padded[cutoff:, 1:] = split
    # [q, j, 0] = p_source(q - j) and [q, j, 1 + r] = V_{q-j}[r].
    source = _diagonals(padded, ((1, 0), (-1, 0), (0, 1)))(
        (cutoff, 0), (cutoff + 1, cutoff + 1, cutoff + 2)
    )
    weights = np.sqrt(pmf_b1[:, None] * source[:, :, :1])
    # (q, j, r) of total k, q = k..cutoff, reads the tap at [q - r, q - k, j].
    taps = _diagonals(tap, ((1, 1, 0), (0, 0, 1), (-1, 0, 0)))
    for total in range(cutoff + 1):
        splits = source[total:, :, 1 : total + 2]
        # A Gram over j for every q, summed up to each s.
        amp = weights[total:] * taps((total, 0, 0), splits.shape) * splits
        yield np.cumsum(amp.transpose(0, 2, 1) @ amp, axis=0)


def _interrogator_state(
    scenario: SensingScenario,
    source_total: float,
    split: np.ndarray,
    forward_table: np.ndarray,
    return_table: np.ndarray,
    tail_bound: float,
) -> FockDensityMatrix:
    """The interrogator's validated state at theta = 0, whose real blocks
    are on the signal count, from the source's occupancy and split column
    (``_forward_prefixes``) and the pair blocks of the forward and the
    return tap at one cutoff.

    The return bath (count n0) is untouched before its tap, so the input
    of the return tap is block-diagonal over n0 with weights
    p_b2(n0) sigma^(cutoff - n0): that prefix keeps exactly the inputs
    with n_b2 + n_b1 + n_source <= cutoff.  The tap mixes the bath into
    the signal, its bath port (count t) is traced out and the reference
    count r is a spectator, so input block k feeds output block
    K = k + n0 - t on the same r:

        out_K[r, r'] += p_b2(n0) U_{m}[t, n0] U_{m'}[t, n0]
                        sigma^(cutoff - n0)_k[r, r'],

    with pair totals m = k + n0 - r and m' = k + n0 - r'.  No phase enters:
    see ``oracle_alice_state``.  Each total's prefix block is read as the
    forward stage yields it and dropped before the next.
    """
    cutoff = len(return_table) - 1
    prefixes = _forward_prefixes(forward_table, scenario.nbar_b1, source_total, split)
    pmf_b2 = _geometric_pmf(scenario.nbar_b2, cutoff + 1)
    # [n0, m, cutoff + t] holds sqrt(p_b2(n0)) U_m[t, n0]; t < 0 reads zero.
    padded = np.zeros((cutoff + 1, cutoff + 1, 2 * cutoff + 1))
    padded[:, :, cutoff:] = (return_table * np.sqrt(pmf_b2)).transpose(2, 0, 1)
    # The bath counts that carry weight, a prefix of 0..cutoff.
    support = np.count_nonzero(pmf_b2)
    out = np.zeros((cutoff + 1,) * 3)  # [K, r, r'], zero-padded
    # (n0, K, r) of input total k reads [n0, k + n0 - r, cutoff + k + n0 - K].
    view = _diagonals(padded, ((1, 1, 1), (0, 0, -1), (0, -1, 0)))
    for total, prefix in enumerate(prefixes):
        # Over the bath counts that keep sigma^(cutoff - n0)_k.
        shape = (min(cutoff - total + 1, support), cutoff + 1, total + 1)
        amp = view((0, total, cutoff + total), shape)
        sigma = prefix[::-1][: len(amp)]
        out[:, : total + 1, : total + 1] += np.einsum(
            "jKr,jKs,jrs->Krs", amp, amp, sigma
        )
    # Reversed onto the signal count u = K - r.
    blocks = [out[total, total::-1, total::-1] for total in range(cutoff + 1)]
    return _finish(blocks, tail_bound)


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
    to n_b2 + n_b1 + n_source <= cutoff, built in two stages: the forward
    tap (``_forward_prefixes``) and the return tap
    (``_interrogator_state``), each a one-mode channel on the signal.
    Photon number is conserved and both baths are diagonal, so the phase
    only conjugates each output block by diag(exp(i theta u)) on the
    signal count u: the state holds the real build at theta = 0 and
    ``probe.theta`` as its phase.
    """
    source_total = probe.nbar_s + probe.nbar_lo
    _check_occupancies(
        nbar_b2=scenario.nbar_b2,
        nbar_b1=scenario.nbar_b1,
        source_total=source_total,
    )
    occ = [scenario.nbar_b2, scenario.nbar_b1, source_total]
    total_cutoff, actual_tail = _select_total_cutoff(occ, cutoff)
    ratio = probe.nbar_s / source_total if source_total else 0.0
    forward, ret, split = _pair_blocks(
        (scenario.eta_1, scenario.eta_2, ratio), total_cutoff
    )
    state = _interrogator_state(
        scenario, source_total, split[:, :, 0], forward, ret, actual_tail
    )
    return state.with_phase(probe.theta)


def _finish(blocks: list[np.ndarray], tail_bound: float) -> FockDensityMatrix:
    """Real block K of photon total K, symmetrised, as a validated state at
    phase 0; the validation decomposes each block once."""
    return FockDensityMatrix(
        len(blocks) - 1, [(block + block.T) / 2.0 for block in blocks], tail_bound
    ).require_valid()


# ---------------------------------------------------------------------------
# Moments, purity, and the entropic quantities
# ---------------------------------------------------------------------------


def fock_moments(state: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, covariance matrix) in qqpp ordering, hbar = 1.

    Read from the total-photon blocks.  <a_k> and <a_k a_l> change the
    photon total, so on a block-diagonal state they vanish: the means are
    zero by structure, and every second moment comes from <a_k^dag a_l>,
    which lies inside a block.  The one cross term is

        <a_0^dag a_1> = e^(-i phase) sum_K sum_a sqrt((a + 1)(K - a)) b_K[a, a + 1]

    over the held blocks b_K; the phase leaves the diagonals alone.  Both
    are read in one pass over the concatenated diagonals and first
    off-diagonals.  The same-mode a a^dag is read as a^dag a + 1 on every
    level, n = cutoff included, so the diagonal is <a_k^dag a_k> + 1/2:
    products of the truncated single-mode matrices would read a a^dag as
    zero at n = cutoff, an error of the mass at the cutoff, which the
    tail bound (the mass beyond it) does not cover.  Expectations are
    normalised by the trace, so the slight sub-normalisation from
    truncation does not bias the moments.
    """
    totals = np.arange(state.cutoff + 1)
    # Each entry of the concatenated diagonals: its total K, its first
    # mode's count a, and both modes' counts.
    total = np.repeat(totals, totals + 1)
    first = np.arange(total.size) - total * (total + 1) // 2
    occ = np.stack([first, total - first])
    # Each entry (K, a, a + 1) of the concatenated first off-diagonals.
    total = np.repeat(totals, totals)
    first = np.arange(total.size) - total * (total - 1) // 2
    hop_amplitudes = np.sqrt((first + 1.0) * (total - first))

    weights = state._diagonal()
    norm = math.fsum(weights.tolist())  # the trace
    # Pairwise sums, as accurate as sums block by block.
    normal = np.sum(occ * weights, axis=1) / norm  # <a_k^dag a_k>
    off_diagonal = np.concatenate([np.diagonal(b, 1) for b in state.blocks])
    cross = complex(np.sum(hop_amplitudes * off_diagonal)) / norm
    cross *= cmath.exp(-1j * state.phase)  # <a_0^dag a_1>

    cov = np.diag(np.tile(normal + 0.5, 2))
    cov[0, 1] = cov[1, 0] = cov[2, 3] = cov[3, 2] = cross.real
    cov[0, 3] = cov[3, 0] = cross.imag
    cov[1, 2] = cov[2, 1] = -cross.imag
    return np.zeros(4), cov


def fock_purity(state: FockDensityMatrix) -> float:
    """tr(rho^2); for a Gaussian state this is prod_k 1/(2 u_k)."""
    return float(sum(np.vdot(block, block).real for block in state.blocks))


def _same_cutoff(state_0: FockDensityMatrix, state_1: FockDensityMatrix) -> None:
    if state_0.cutoff != state_1.cutoff:
        raise ValueError("states must share the same cutoff")


def _relative_turn(
    state_0: FockDensityMatrix, state_1: FockDensityMatrix
) -> np.ndarray | None:
    """The diagonal exp(i (phase_1 - phase_0) u), u = 0..cutoff, of
    D_0^dag D_1; None at equal phases."""
    if state_0.phase == state_1.phase:
        return None
    relative = state_1.phase - state_0.phase
    return np.exp(1j * relative * np.arange(state_0.cutoff + 1))


def oracle_qre(state_0: FockDensityMatrix, state_1: FockDensityMatrix) -> float:
    """Relative entropy tr(rho_0 ln rho_0) - tr(rho_0 ln rho_1), in nats.

    Eigenvalues below 1e-14 are clamped for the logarithms.  If more than
    1e-9 of rho_0's mass sits on directions where rho_1 is numerically
    zero, the quantity is effectively infinite and InfiniteQreError is
    raised.  An empty total adds nothing to either sum.

    The eigenvectors of rho_1 are those of its held blocks turned by its
    phase, so only the relative phase D = diag(exp(i (phase_1 - phase_0) u))
    turns them against rho_0's held blocks: at equal phases every product
    is real.
    """
    _same_cutoff(state_0, state_1)
    turn = _relative_turn(state_0, state_1)
    entropy = 0.0
    cross = 0.0
    escaped_mass = 0.0
    for b0, (lam, _), (mu, w) in zip(
        state_0.blocks, state_0._spectra(), state_1._spectra()
    ):
        if not b0.any():
            continue
        keep = lam > _EIGEN_FLOOR
        entropy += float(np.sum(lam[keep] * np.log(lam[keep])))

        if turn is not None:
            w = turn[: len(w), None] * w  # D_0^dag D_1 w
        overlaps = np.einsum("ji,jk,ki->i", w.conj(), b0, w).real
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
    """Uhlmann fidelity tr sqrt(sqrt(rho_0) rho_1 sqrt(rho_0)), in (0, 1].

    sqrt(rho_0) is the root of its held block turned by its phase, so only
    the relative phase D = diag(exp(i (phase_1 - phase_0) u)) enters: each
    total reads the eigenvalues of (root D) b_1 (root D)^dag.  A total
    empty in either state adds nothing.
    """
    _same_cutoff(state_0, state_1)
    turn = _relative_turn(state_0, state_1)
    total = 0.0
    for (lam, v), b0, b1 in zip(state_0._spectra(), state_0.blocks, state_1.blocks):
        if not (b0.any() and b1.any()):
            continue
        root = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
        if turn is not None:
            root = root * turn[: len(root)]  # root D_0^dag D_1
        inner = root @ b1 @ root.conj().T
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
    the shared cutoff, an ``int``, the worst moment deviations and the
    QRE/fidelity/purity differences.
    Every value should be small; the test suite pins the tolerances.
    ``theta`` is wrapped into (-pi, pi] once, here, for all four states.

    The cutoff, automatic or explicit, is selected once, on the
    interrogator's inputs (nbar_b2, nbar_b1, nbar_s + nbar_lo), before
    any state is built; they dominate both adversaries' inputs, so it
    serves all four states, and a refused explicit cutoff names the
    cutoff this check accepts.  The pair blocks of both taps and of the
    source split are built in one ``_pair_blocks`` call and passed to the
    builders; both adversary states come from one
    ``_willie_states`` call, which builds each total's Gram once for both,
    and the second interrogator state is the first turned to its phase.
    Each adversary state keeps its own tail mass at the shared cutoff,
    read from the ``_tails`` table of its own inputs.
    """
    from .covertness import willie_qre
    from .estimation import gaussian_fidelity
    from .gaussian import symplectic_spectrum
    from .scenario import alice_cm, willie_cm

    # The interrogator's source carries both probe occupancies; it is
    # refused, after them, before any state.
    source_total = nbar_s + nbar_lo
    _check_occupancies(
        nbar_b1=scenario.nbar_b1,
        nbar_b2=scenario.nbar_b2,
        nbar_s=nbar_s,
        nbar_lo=nbar_lo,
        **{"nbar_s + nbar_lo": source_total},
    )
    theta = check_angle("theta", theta)
    occ = [scenario.nbar_b2, scenario.nbar_b1, source_total]
    shared, alice_tail = _select_total_cutoff(occ, cutoff)
    ratio = nbar_s / source_total if source_total else 0.0
    forward_table, return_table, split = _pair_blocks(
        (scenario.eta_1, scenario.eta_2, ratio), shared
    )
    probes = (0.0, nbar_s)
    w_off, w_on = (
        state.with_phase(theta)
        for state in _willie_states(
            scenario,
            [_geometric_pmf(n, shared + 1) for n in probes],
            forward_table,
            return_table,
            [_tails([scenario.nbar_b2, scenario.nbar_b1, n])[shared] for n in probes],
        )
    )
    probe_a = ProbeSettings(nbar_s=nbar_s, nbar_lo=nbar_lo, theta=theta)
    probe_b = ProbeSettings(nbar_s=nbar_s, nbar_lo=nbar_lo, theta=theta + 0.1)
    a_state_a = _interrogator_state(
        scenario, source_total, split[:, :, 0], forward_table, return_table, alice_tail
    ).with_phase(probe_a.theta)
    a_state_b = a_state_a.with_phase(probe_b.theta)

    mean, cov = fock_moments(w_on)
    w_cm = willie_cm(scenario, nbar_s, theta)
    spectrum = symplectic_spectrum(w_cm)
    gauss_purity = float(np.prod(1.0 / (2.0 * spectrum.eigenvalues)))
    a_mean, a_cov = fock_moments(a_state_a)
    a_cm = alice_cm(scenario, probe_a)

    return {
        "cutoff": shared,
        "willie_mean_max": float(np.abs(mean).max()),
        "willie_cm_max_err": float(np.abs(cov - w_cm.matrix).max()),
        "willie_purity_err": abs(fock_purity(w_on) - gauss_purity),
        "willie_qre_err": abs(
            oracle_qre(w_off, w_on) - willie_qre(scenario, nbar_s)
        ),
        "alice_mean_max": float(np.abs(a_mean).max()),
        "alice_cm_max_err": float(np.abs(a_cov - a_cm.matrix).max()),
        "alice_fidelity_err": abs(
            oracle_fidelity(a_state_a, a_state_b)
            - gaussian_fidelity(a_cm, alice_cm(scenario, probe_b))
        ),
    }
