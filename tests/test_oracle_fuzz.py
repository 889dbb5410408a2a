"""Seeded fuzz of ``oracle-check``: no hang, a pass or a named refusal, and
cutoff advice that the command then accepts.

A few dozen in-process runs.  Each occupancy (both baths, ``--ns`` and
``--nlo``) is 0, log-uniform in 1e-12..1e-2 or uniform in [0, 2]; each tap
is 0, 1, 1 - 1e-16 or uniform in [0, 1]; one run in four passes an
explicit ``--cutoff`` from 0 to 30.  Each run goes through
``_contract.breaches``, so a hang or an escape fails the test.

* Exit 0 must print strict JSON with ``passed`` true.
* Exit 1 must print a one-line JSON error on stdout: a cutoff whose tail
  mass is too heavy, or the occupancy cap.
* A refusal that names ``required cutoff: N`` is run again at
  ``--cutoff N``, which must pass.
"""

from __future__ import annotations

import math
import random
import re

from _contract import breaches, cause, json_strict, run

RUNS = 36
SEED = 7
#: Wall-clock bound of one run; a run at the photon cap takes well under 1 s.
ALARM_S = 30.0

#: The refusals a run may give, as ids of ``_contract.CAUSES``.
CAUSE_IDS = ("tail-mass", "occupancy-cap")
ADVICE = re.compile(r"required cutoff: (\d+)$")


def _draws():
    rng = random.Random(SEED)

    def tap():
        return rng.choice([0.0, 1.0, 1.0 - 1e-16, rng.random()])

    def occupancy():
        return rng.choice(
            [0.0, 10.0 ** rng.uniform(-12.0, -2.0), rng.uniform(0.0, 2.0)]
        )

    for _ in range(RUNS):
        argv = ["oracle-check"]
        for flag in ("--eta1", "--eta2"):
            argv += [flag, repr(tap())]
        for flag in ("--nb1", "--nb2", "--ns", "--nlo"):
            argv += [flag, repr(occupancy())]
        argv += ["--theta", repr(rng.uniform(-math.pi, math.pi))]
        if rng.random() < 0.25:
            argv += ["--cutoff", str(rng.randint(0, 30))]
        yield argv


def _check(argv, result):
    """The outcomes of a run and of its advised rerun; raise on a breach."""
    outcome = cause(result, CAUSE_IDS)
    if outcome == "answer":
        assert result.err == "", result.err
        assert json_strict(result.out)["results"]["passed"] is True
        return {outcome}
    assert outcome in CAUSE_IDS, outcome
    message = json_strict(result.out)["error"]["message"]
    advice = ADVICE.search(message) if outcome == "tail-mass" else None
    if advice is None:
        return {outcome}
    # An advised run always had an explicit cutoff, passed last.
    advised = run([*argv[:-1], advice.group(1)], alarm_s=ALARM_S)
    assert cause(advised, CAUSE_IDS) == "answer", (advised, argv)
    assert json_strict(advised.out)["results"]["passed"] is True, (advised, argv)
    return {outcome, "advice-taken"}


def test_every_run_passes_or_is_refused_with_advice_it_accepts():
    seen = set()
    found = breaches(
        _draws(), lambda argv, result: seen.update(_check(argv, result)),
        alarm_s=ALARM_S,
    )
    assert not found, found[:10]
    # The draws reach every outcome, so no check above is vacuous.
    assert seen == {"answer", "tail-mass", "occupancy-cap", "advice-taken"}, seen
