"""Seeded fuzz of ``scenario`` and ``bounds``: no hang, strict JSON, named refusals.

1000 in-process runs, alternating the two commands.  Occupancies (both
baths and ``--nlo``) are log-uniform in 1e-300..1e300; each tap is 0, 1,
1 - 1e-16 or uniform in [0, 1].  The last two runs of every twenty, one
of each command, are each followed by a copy that gives one of its flags
twice.  Then 500 runs from a box that answers: taps uniform in (0, 1),
baths log-uniform in 1e-3..1e2 and ``--nlo`` in 1e-3..1e6.  Each run goes
through ``_contract.breaches``, so a hang or an escape fails the test.

* Exit 0 must print strict JSON (no NaN or Infinity) and nothing on stderr.
  A ``bounds`` answer must hold the coherent probe's coefficients equal to
  the thermal probe's (``c_coh == c_ase``, ``c_het == c_het_tilde``) and
  ``mu_c == 1``: both probes read the one budget's c2.  At least
  ``MIN_BOUNDS_ANSWERS`` runs must check that.  A copy of each answering
  run, its flag pairs shuffled and each written as ``--flag value`` or
  ``--flag=value``, must exit 0 with the same stdout byte for byte.
* A flag given twice must exit 2 with a usage line that names it.
* Exit 1 must print a one-line JSON error on stdout whose message names one
  cause of ``CAUSE_IDS``, and a predicate on the inputs must allow that
  cause: the vacuum refusal exactly when lambda_lo <= 1e-12, the identity
  channel exactly when both taps are 1, and the c2 underflow only when a
  lower bound on c2 underflows.  An answer needs an upper bound on c2
  that does not.
"""

from __future__ import annotations

import math
import random
import sys

from _contract import breaches, cause, json_strict, run

RUNS = 1000
#: Runs drawn from the answering box, by a generator of their own so that
#: no earlier draw moves.
ANSWERING_RUNS = 500
#: The fewest ``bounds`` answers that must check the coherent/thermal identity.
MIN_BOUNDS_ANSWERS = 250
SEED = 18
#: Wall-clock bound of one run; a run takes about 3 ms.
ALARM_S = 2.0
#: The last two runs of every REPEAT_EVERY are each followed by a copy
#: that repeats one of its flags, picked by a generator of its own so that
#: no other draw moves.
REPEAT_EVERY = 20

#: The refusals a run may give, as ids of ``_contract.CAUSES``.
CAUSE_IDS = ("vacuum", "identity", "c2-underflow")


def _draws():
    rng = random.Random(SEED)
    repeats = random.Random(SEED + 1)

    def tap():
        return rng.choice([0.0, 1.0, 1.0 - 1e-16, rng.random(), rng.random()])

    def occupancy():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    for i in range(RUNS):
        command = ("scenario", "bounds")[i % 2]
        e1, e2, b1, b2 = tap(), tap(), occupancy(), occupancy()
        argv = [
            command, "--eta1", repr(e1), "--eta2", repr(e2),
            "--nb1", repr(b1), "--nb2", repr(b2),
            "--epsilon", repr(10.0 ** rng.uniform(-6.0, -0.5)),
            "--n", repr(10.0 ** rng.uniform(0.0, 12.0)),
        ]
        if command == "bounds":
            argv += ["--nlo", repr(occupancy())]
        yield argv
        if i % REPEAT_EVERY >= REPEAT_EVERY - 2:
            at = 1 + 2 * repeats.randrange(len(argv) // 2)
            yield argv + argv[at : at + 2]
    rng = random.Random(SEED + 2)
    for i in range(ANSWERING_RUNS):
        command = ("scenario", "bounds")[i % 2]
        argv = [command]
        for flag in ("eta1", "eta2"):
            argv += [f"--{flag}", repr(rng.random())]
        for flag in ("nb1", "nb2"):
            argv += [f"--{flag}", repr(10.0 ** rng.uniform(-3.0, 2.0))]
        argv += [
            "--epsilon", repr(10.0 ** rng.uniform(-6.0, -0.5)),
            "--n", repr(10.0 ** rng.uniform(0.0, 12.0)),
        ]
        if command == "bounds":
            argv += ["--nlo", repr(10.0 ** rng.uniform(-3.0, 6.0))]
        yield argv


def _rewritten(argv):
    """``argv`` with its flag pairs shuffled, each spaced or joined by "=".

    The shuffle is seeded by ``argv`` itself, so no other copy moves.
    """
    rng = random.Random(" ".join(argv))
    pairs = [argv[at : at + 2] for at in range(1, len(argv), 2)]
    rng.shuffle(pairs)
    tokens = argv[:1]
    for flag, value in pairs:
        tokens += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return tokens


def _admissible(e1, e2, b1, b2):
    """Outcomes the inputs allow: "answer" and/or ids of ``CAUSE_IDS``."""
    n11 = (1.0 - e1) * (1.0 - e2) * b1 + e2 * b2
    n22 = e1 * b1
    n12 = math.sqrt((1.0 - e2) * e1 * (1.0 - e1)) * b1
    lam_hi = n11 / 2.0 + n22 / 2.0 + math.hypot(n12, (n11 - n22) / 2.0)
    # det N0 / lambda_hi, with det N0 = eta_1 eta_2 nbar_b1 nbar_b2.
    lam_lo = n22 * (e2 * b2 / lam_hi) if lam_hi > 0.0 else 0.0
    if lam_lo <= 1e-12:
        return {"vacuum"}
    if e1 == e2 == 1.0:
        return {"identity"}
    # |p|^4 / (lambda (1 + lambda)) at lambda_hi and at lambda_lo bound c2,
    # since the Bogoliubov-Kubo-Mori weights lie between those of the two
    # eigenvalues and the probe weights sum to |p|^2 = 1 - eta_1 eta_2.
    log_p4 = 2.0 * math.log1p(-e1 * e2)
    log_lower = log_p4 - math.log(lam_hi) - math.log1p(lam_hi)
    log_upper = log_p4 - math.log(lam_lo) - math.log1p(lam_lo)
    floor = math.log(sys.float_info.min)
    allowed = set()
    if log_upper > floor - 1e-9:
        allowed.add("answer")
    if log_lower < floor + 1e-9:
        allowed.add("c2-underflow")
    return allowed


def _check(argv, result):
    """Raise AssertionError unless the outcome is one the inputs allow."""
    outcome = cause(result, CAUSE_IDS)
    flags = argv[1::2]
    if len(set(flags)) < len(flags):
        (twice,) = {flag for flag in flags if flags.count(flag) > 1}
        assert outcome == "usage", outcome
        assert f"argument {twice}: given more than once" in result.err, result.err
        return outcome
    if outcome == "answer":
        assert result.err == "", result.err
        results = json_strict(result.out)["results"]
        if argv[0] == "bounds":
            coherent = (results["c_coh"], results["c_het"], results["mu_c"])
            assert coherent == (results["c_ase"], results["c_het_tilde"], 1.0)
        copy = run(_rewritten(argv), alarm_s=ALARM_S)
        assert (copy.code, copy.out, copy.fault) == (0, result.out, None), copy
    # The drawn taps and baths: repr round-trips a float.
    assert outcome in _admissible(*map(float, argv[2:9:2])), outcome
    return outcome


def test_no_hang_and_every_refusal_named():
    outcomes = []

    def judge(argv, result):
        outcomes.append((argv[0], _check(argv, result)))

    found = breaches(_draws(), judge, alarm_s=ALARM_S)
    assert not found, found[:10]
    checked = outcomes.count(("bounds", "answer"))
    assert checked >= MIN_BOUNDS_ANSWERS, checked
