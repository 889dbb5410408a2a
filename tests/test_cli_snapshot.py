"""CLI stdout, byte for byte, against a recorded snapshot.

``data/cli_stdout.json`` holds argv, exit code and stdout of seeded
``scenario`` and ``bounds`` points, two 50-point sweeps, two ``optimize``
ranges (one at L = 1979.87 m), ``reproduce-paper`` as table and JSON, four
refusals (``--t-int -1``, ``--w-ase 0``, an identity channel, vacuum
baths), and at the end three ``scenario`` points at huge unequal baths
(1e150 and 1e-3 in both orders, and 1.6e257 with 6.6e130) and ``bounds``
at ``--nb1 1e308``.  Refactors of the numerics must leave every byte in
place.  The snapshot was re-recorded four times.  First when closed-form
Taylor coefficients replaced a finite-difference stencil;
``test_cli_drift.py`` bounds that move against the earlier snapshot,
``data/cli_stdout_stencil.json``.  Then when ``willie_qre`` stopped
summing two cancelling logs per mode: only the ten ``scenario``
``qre_per_mode`` lines moved, by at most 3.2e-10 relative, each toward
the 250-digit value that ``test_covertness.py`` pins it to at 1e-13.
Then when ``willie_qre`` became a sum over the occupation-matrix
eigen-splits and the coherent root became sqrt(eta b) sqrt(1 + eta b):
33 lines moved, the ten ``qre_per_mode`` lines by at most 2.8e-14
relative (to within 1.3e-15 of the pinned values) and, in eight of the ten
``bounds`` points, 23 ``c_het``/``c_coh``/``mu``/``mu_c`` lines by at
most 3.4e-16; the four new cases were recorded then.  Last when the
coherent probe of ``bounds`` began to read the thermal probe's two-tap
c2 instead of a one-mode model of the adversary: only ``c_coh``,
``c_het``, ``mu`` and ``mu_c`` of the eleven unequal-bath ``bounds``
points (cases 10-19 and 35) moved, to ``c_ase``, ``c_het_tilde``,
``sqrt(w_coh / w_ase)`` and 1, and every other byte stayed in place.

``mse-mc`` is left out because numpy's SIMD transcendentals may differ
between CPUs, and ``oracle-check`` because its residuals are rounding
noise whose trailing digits move with any reordering of the arithmetic.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from _contract import run

CASES = json.loads(
    (Path(__file__).parent / "data" / "cli_stdout.json").read_text()
)["cases"]


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_stdout_matches_snapshot(case):
    result = run(case["argv"])
    assert (result.code, result.out) == (case["exit"], case["stdout"])
