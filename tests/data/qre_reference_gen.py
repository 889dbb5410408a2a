"""Write ``qre_reference.json``: the adversary QRE D(nbar_s) at 40 digits.

Needs mpmath 1.3.0, which the test extra pins:

    python tests/data/qre_reference_gen.py

``render`` returns the file's text, and ``test_covertness.py`` checks it
against the committed file byte for byte.  It reads the snapshot's
``scenario`` cases, so a re-recorded ``cli_stdout.json`` needs a
regenerated ``qre_reference.json``.

D is evaluated independently of ``covertness.willie_qre``, as
tr[(1 + N0) ln(1 + Ns)] - tr[N0 ln Ns] minus the same at nbar_s = 0, with
Ns = N0 + nbar_s p p^T and the 2x2 matrix logarithms taken through their
eigen-split (``taylor_reference_gen.adversary_functional``, the one
``taylor_reference_gen.py`` differentiates) in 400-digit arithmetic,
enough to survive the cancellation of ~1e259-sized terms at the hottest
bath.  The points are the ``scenario`` cases of ``cli_stdout.json`` at
their printed covert ``ns``, equal and unequal hot baths at theirs, and
the hard regions of the kernel: huge unequal baths in both orders,
near-identity taps, near-coincident eigenvalues, the axis swap of equal
baths (nbar_s > nbar_b) and nbar_s from 1e-12 up to 1e3 nbar_b.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

from taylor_reference_gen import adversary_functional

mp.mp.dps = 400


def reference(eta_1, eta_2, nbar_b1, nbar_b2, nbar_s):
    _, functional = adversary_functional(eta_1, eta_2, nbar_b1, nbar_b2)
    return functional(mp.mpf(nbar_s)) - functional(0)


def points():
    """(kind, eta_1, eta_2, nbar_b1, nbar_b2, nbar_s) of every pinned point."""
    snapshot = json.loads(Path(__file__).with_name("cli_stdout.json").read_text())
    cases = []
    for case in snapshot["cases"]:
        argv = case["argv"]
        if argv[0] != "scenario" or case["exit"] != 0:
            continue
        flags = dict(zip(argv[1::2], argv[2::2]))
        ns = json.loads(case["stdout"])["results"]["ns"]
        cases.append((float(flags["--eta1"]), float(flags["--eta2"]),
                      float(flags["--nb1"]), float(flags["--nb2"]), ns))
    # Baths 1e100 or more apart are pinned with the other huge unequal ones.
    huge = [c for c in cases if max(c[2:4]) > 1e100 * min(c[2:4])]
    out = [("snapshot", *c) for c in cases if c not in huge]
    # scenario --eta1 0.5 --eta2 0.5 --nb1 nb --nb2 nb --epsilon 1e-3 --n 1e6
    for nb, ns in ((1e7, 13.333335999999727), (1e10, 13333.333335999994),
                   (1e12, 1333333.3333359992), (1e150, 1.3333333333333325e144)):
        out.append(("hot-equal", 0.5, 0.5, nb, nb, ns))
    for e1, e2, b1, b2, ns in ((0.3, 0.7, 1e9, 3e8, 250.0), (0.8, 0.2, 2e5, 7e6, 0.4),
                               (0.5, 0.9, 1e12, 1e11, 3e4)):
        out.append(("hot-unequal", e1, e2, b1, b2, ns))
    out += [("huge-unequal", *c) for c in huge]
    # Both orders of two more pairs of baths; the first is the snapshot
    # point whose covert budget is 2.5e124, at ten times that budget.
    for e1, e2, b1, b2, ns in (
        (0.5334174698756897, 0.15001482548447453,
         1.5986714685956394e+257, 6.630365349470693e+130, 2.5e125),
        (0.7, 0.4, 1e-150, 1e100, 1e-153),
    ):
        out.append(("huge-unequal", e1, e2, b1, b2, ns))
        out.append(("huge-unequal", e1, e2, b2, b1, ns))
    # Each tap at 1 - 1e-9 and 1 - 1e-12, then the return tap with a bath
    # 1e86 times the other's, where the probe's weight along the colder
    # eigenvector comes from an angle near pi/2.
    for one_minus in (1e-9, 1e-12):
        out.append(("near-identity", 1 - one_minus, 0.6, 0.8, 1.3, 0.05))
        out.append(("near-identity", 0.6, 1 - one_minus, 0.8, 1.3, 0.05))
    out.append(("near-identity", 0.998, 1 - 1e-12, 1.3e6, 6.5e-80, 0.1))
    # N0 within 1e-9 .. 1e-3 of a multiple of the identity (and exactly one),
    # probed below and above the eigenvalue gap.
    for e1, gap, ns in ((1 - 1e-8, 1e-9, 1e-12), (1 - 1e-8, 1e-9, 1e-3),
                        (1 - 1e-6, 1e-6, 1e-4), (1 - 1e-10, 1e-3, 0.5)):
        out.append(("coincident", e1, 0.5, 1.0, 2 * e1 * (1 + gap), ns))
    out.append(("coincident", 1.0, 0.5, 1.0, 2.0, 0.01))
    # Equal baths: the principal axes swap once nbar_s > nbar_b.
    for eta, nb, ns in ((0.6 ** 0.5, 0.01, 0.1), (0.5, 1.0, 3.0), (0.9, 2.0, 2.5),
                        (0.5, 1e-6, 1.0000001e-6)):
        out.append(("axis-swap", eta, eta, nb, nb, ns))
    for ns in (1e-12, 1e-8, 1e-4, 1.0, 10.0, 2000.0):
        out.append(("signal-range", 0.7, 0.4, 0.5, 2.0, ns))
    return out


def render():
    """The text of ``qre_reference.json``."""
    rows = []
    for kind, e1, e2, b1, b2, ns in points():
        rows.append({
            "kind": kind, "eta_1": e1, "eta_2": e2, "nbar_b1": b1, "nbar_b2": b2,
            "nbar_s": ns, "qre": mp.nstr(reference(e1, e2, b1, b2, ns), 40),
        })
    return json.dumps({"digits": mp.mp.dps, "points": rows}, indent=1) + "\n"


def main():
    Path(__file__).with_name("qre_reference.json").write_text(render())


if __name__ == "__main__":
    main()
