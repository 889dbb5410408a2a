"""Seeded fuzz of ``oracle-check``: no hang, a pass or a named refusal, and
cutoff advice that the command then accepts.

A few dozen in-process runs.  Each occupancy (both baths, ``--ns`` and
``--nlo``) is 0, log-uniform in 1e-12..1e-2 or uniform in [0, 2]; each tap
is 0, 1, 1 - 1e-16 or uniform in [0, 1]; one run in four passes an
explicit ``--cutoff`` from 0 to 30.  Every run is bounded by a
``SIGALRM`` interval timer, so a hang fails the test instead of stalling
the suite.

* Exit 0 must print strict JSON with ``passed`` true.
* Exit 1 must print a JSON error: a ``CutoffError`` or the occupancy cap.
* A refusal that names ``required cutoff: N`` is run again at
  ``--cutoff N``, which must pass.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
import warnings

from covertsense.cli import CONFIG_ENV_VAR, main

RUNS = 36
SEED = 7
#: Wall-clock bound of one run; a run at the photon cap takes well under 1 s.
ALARM_S = 30.0

#: The fragment that names the occupancy cap.
OCCUPANCY_CAP = "the number-basis oracle is a small-occupancy tool"
ADVICE = re.compile(r"required cutoff: (\d+)$")


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang


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


def _strict(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _outcome(code, document):
    """"pass", "cutoff" or "occupancy-cap", else a description."""
    if code == 0 and document["results"]["passed"] is True:
        return "pass"
    error = document.get("error")
    if code == 1 and error is not None:
        if error["type"] == "CutoffError":
            return "cutoff"
        if OCCUPANCY_CAP in error["message"]:
            return "occupancy-cap"
    return f"unexpected exit {code}: {document}"


def test_every_run_passes_or_is_refused_with_advice_it_accepts(
    capsys, monkeypatch
):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    previous = signal.signal(signal.SIGALRM, _raise_hang)

    def run(argv):
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                code = main(argv)
        except _Hang:
            return "hang", None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        document = _strict(capsys.readouterr().out)
        return _outcome(code, document), document

    failures = []
    seen = set()
    try:
        for argv in _draws():
            outcome, document = run(argv)
            seen.add(outcome)
            if outcome not in ("pass", "cutoff", "occupancy-cap"):
                failures.append((outcome, argv))
                continue
            advice = (
                ADVICE.search(document["error"]["message"])
                if outcome == "cutoff"
                else None
            )
            if advice is not None:
                # An advised run always had an explicit cutoff, passed last.
                advised = [*argv[:-1], advice.group(1)]
                outcome, _ = run(advised)
                seen.add("advice-taken")
                if outcome != "pass":
                    failures.append((outcome, advised))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, failures[:10]
    # The draws reach every outcome, so no check above is vacuous.
    assert seen == {"pass", "cutoff", "occupancy-cap", "advice-taken"}, seen
