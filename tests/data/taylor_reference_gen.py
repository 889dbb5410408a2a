"""Write ``taylor_reference.json``: c2 and c3 of the adversary QRE at 60 digits.

Run once with mpmath installed (it is not a dependency of the package or
of its tests; the test suite reads only the JSON):

    python tests/data/taylor_reference_gen.py

D(nbar_s) is evaluated independently of ``covertness.taylor_coefficients``:
as tr[(1 + N0) ln(1 + Ns)] - tr[N0 ln Ns] with Ns = N0 + nbar_s p p^T, the
2x2 matrix logarithms taken through their eigen-split in 60-digit
arithmetic, and differentiated at nbar_s = 0 by mpmath's finite
differences at 120 digits.  Each derivative is taken at two steps and
must agree to 25 digits.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60


def _log_sym(m11, m22, m12):
    """Entries (11, 22, 12) of ln M for a symmetric positive 2x2 matrix M."""
    half_gap = mp.sqrt(m12**2 + ((m11 - m22) / 2) ** 2)
    mean = (m11 + m22) / 2
    if half_gap == 0:
        return mp.log(mean), mp.log(mean), mp.mpf(0)
    hi, lo = mean + half_gap, mean - half_gap
    slope = (mp.log(hi) - mp.log(lo)) / (hi - lo)
    shift = mp.log(lo) - slope * lo
    return slope * m11 + shift, slope * m22 + shift, slope * m12


def adversary_functional(eta_1, eta_2, nbar_b1, nbar_b2):
    """The adversary's N0 entries (11, 22, 12) and the function

        s -> tr[(1 + N0) ln(1 + Ns)] - tr[N0 ln Ns],   Ns = N0 + s p p^T,

    whose value at s less its value at 0 is D(s).  The entries and p are
    formed at the working precision of the call, the function's value at
    that of its own call.
    """
    e1, e2, b1, b2 = (mp.mpf(x) for x in (eta_1, eta_2, nbar_b1, nbar_b2))
    n11 = (1 - e1) * (1 - e2) * b1 + e2 * b2
    n22 = e1 * b1
    n12 = mp.sqrt((1 - e2) * e1 * (1 - e1)) * b1
    p1, p2 = mp.sqrt((1 - e2) * e1), -mp.sqrt(1 - e1)

    def functional(s):
        m11, m22, m12 = n11 + s * p1 * p1, n22 + s * p2 * p2, n12 + s * p1 * p2
        ln11, ln22, ln12 = _log_sym(m11, m22, m12)
        lp11, lp22, lp12 = _log_sym(1 + m11, 1 + m22, m12)
        return (
            (1 + n11) * lp11 + (1 + n22) * lp22 + 2 * n12 * lp12
            - (n11 * ln11 + n22 * ln22 + 2 * n12 * ln12)
        )

    return (n11, n22, n12), functional


def reference(eta_1, eta_2, nbar_b1, nbar_b2):
    # D(s) has the functional's derivatives at 0 of every order above 0.
    (n11, n22, n12), qre = adversary_functional(eta_1, eta_2, nbar_b1, nbar_b2)
    lam_hi = (n11 + n22) / 2 + mp.sqrt(n12**2 + ((n11 - n22) / 2) ** 2)
    # det N0 = eta_1 eta_2 nbar_b1 nbar_b2, formed without cancellation.
    lam_lo = mp.mpf(eta_1) * eta_2 * nbar_b1 * nbar_b2 / lam_hi
    step = lam_lo * mp.mpf(10) ** -15
    out = []
    with mp.workdps(120):
        for order in (2, 3):
            value = mp.diff(qre, 0, order, h=step)
            check = mp.diff(qre, 0, order, h=step / 7)
            assert abs(value - check) <= abs(value) * mp.mpf(10) ** -25
            out.append(value)
    return out


def points():
    """(kind, eta_1, eta_2, nbar_b1, nbar_b2) of every pinned point."""
    rng = random.Random(20261018)
    out = [
        ("random", rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
         10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-2, 1))
        for _ in range(14)
    ]
    # eta = 0.99, the link layer's clamp value, with very weak baths.
    for nb in (1.6e-12, 5e-12, 1e-11, 1e-10):
        out.append(("weak-bath", 0.99, 0.99, nb, nb))
    out.append(("weak-bath", 0.99, 0.99, 2e-12, 7e-11))
    out.append(("weak-bath", 0.99, 0.97, 9e-11, 3e-12))
    # Near-identity channels; the first two are the points where the
    # finite-difference stencil refused c2 as unresolved.
    for one_minus, nb in ((1e-5, 1e-9), (1e-7, 1e-9), (1e-9, 1e-11), (1e-9, 1e-8),
                          (1e-8, 1e-6), (1e-6, 1e-9), (1e-4, 1e-5), (1e-3, 1.0),
                          (1e-1, 1e-6)):
        out.append(("near-identity", 1.0 - one_minus, 1.0 - one_minus, nb, nb))
    out.append(("near-identity", 1.0 - 1e-9, 1.0 - 3e-9, 2e-10, 5e-9))
    out.append(("near-identity", 1.0 - 4e-6, 1.0 - 1e-8, 0.3, 1e-7))
    # Near-coincident eigenvalues: eta_2 -> 1 shrinks n12, and
    # nbar_b2 = eta_1 nbar_b1 (1 + delta) lines up the diagonal; relative
    # gaps from 0.12 (either side of the series switch at 0.1) down to 0.
    for one_minus_e2, delta in ((1e-8, 0.12), (1e-8, 0.09), (1e-6, 0.05),
                                (1e-8, 1e-3), (1e-10, 1e-5), (1e-12, 1e-6),
                                (1e-14, 1e-7), (1e-15, 0.0), (0.0, 1e-9), (0.0, 0.0)):
        out.append(("coincident", 0.6, 1.0 - one_minus_e2, 0.8, 0.6 * 0.8 * (1.0 + delta)))
    out.append(("coincident", 0.3, 1.0 - 1e-13, 2.5, 0.3 * 2.5))
    out.append(("coincident", 0.9, 1.0 - 1e-11, 1e-4, 0.9 * 1e-4 * (1 + 1e-7)))
    # A return tap within 1e-13 and 1e-12 of unity with a bath 1e13 and
    # 1e12 times colder than the forward one: the eigenvector of lambda_lo
    # lies near pi/2, where cos and sin of its angle lost c2 by 2e-11.
    out.append(("near-identity", 0.9, 1.0 - 1e-13, 1e10, 1e-3))
    out.append(("near-identity", 0.998, 1.0 - 1e-12, 1.3e6, 1e-6))
    return out


def main():
    rows = []
    for kind, e1, e2, b1, b2 in points():
        c2, c3 = reference(e1, e2, b1, b2)
        rows.append({
            "kind": kind, "eta_1": e1, "eta_2": e2, "nbar_b1": b1, "nbar_b2": b2,
            "c2": mp.nstr(c2, 25), "c3": mp.nstr(c3, 25),
        })
    path = Path(__file__).with_name("taylor_reference.json")
    path.write_text(json.dumps({"digits": 60, "points": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
