"""Seeded fuzz of ``mse-mc``: the exit contract.

In-process ``main`` runs over uniform taps, log-uniform baths, ``n`` and eps,
phases out to 1e300, ``--trials`` from 900 to 20 000, seeds up to and past
2**128 and ``--workers`` up to the CPU count, with now and then a nan, +-inf,
0, negative, 1e308 or subnormal value, or a malformed integer.  One draw in
five passes its values through a config file, named by ``--config`` or by
``COVERTSENSE_CONFIG``.  Each run goes through ``_contract.breaches``, so a
hang or an escape fails the test.  ``--workers`` never exceeds
``os.cpu_count()``, so no draw asks the thread clamp to hold back more
threads than the machine has.

* Exit 0 must print strict JSON whose ``mse`` and ``stderr`` are finite,
  with ``mse`` positive and ``stderr`` non-negative.
* Exit 1 must print a one-line JSON error naming one cause of ``CAUSES``.
* Exit 2 must print a usage message on stderr and no traceback.
"""

from __future__ import annotations

import math
import os
import random

from _contract import breaches, cause, json_strict

RUNS = 200
SEED = 25
#: Wall-clock bound of one run; a 20 000-trial run takes a few ms.
ALARM_S = 5.0

#: The refusals a run may give, each with the fragment that names it.
CAUSES = {
    "tap-range": "must lie in [0, 1], got",
    "occupancy": "must be non-negative and finite, got",
    "not-positive": "must be positive and finite, got",
    "modes-finite": "number of channel uses must be finite",
    "no-mode": "need at least one channel use",
    "vacuum": "a tap sees (near-)vacuum here",
    "budget-overflow": "covert budget overflows double precision",
    "trials": "trials for a stable MSE",
    "seed": "seed must be a non-negative integer below 2**128",
    "workers": "workers must be >= 1",
    "theta": "theta must be finite",
    "no-signal": "no signal to normalize by",
    "opaque": "fully opaque channel",
    "non-finite": "an input is outside the range where the model gives a finite answer",
}

#: The values a drawn float is now and then replaced by.
SPECIAL = ("nan", "inf", "-inf", "0", "-1", "1e308", "5e-324")

#: The values a drawn integer is now and then replaced by.
BAD_INT = ("1e3", "1.5", "nan", "")


def _draws():
    rng = random.Random(SEED)
    cpus = os.cpu_count() or 1

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    for _ in range(RUNS):
        values = {
            "eta1": rng.random(),
            "eta2": rng.random(),
            "nb1": log_uniform(-6.0, 6.0),
            "nb2": log_uniform(-6.0, 6.0),
            "epsilon": log_uniform(-8.0, 0.0),
            "n": log_uniform(0.0, 12.0),
            "theta": (
                rng.choice((1.0, -1.0)) * log_uniform(1.0, 300.0)
                if rng.random() < 0.15
                else rng.uniform(-10.0, 10.0)
            ),
        }
        flags = {
            name: rng.choice(SPECIAL) if rng.random() < 0.03 else repr(value)
            for name, value in values.items()
        }
        if rng.random() < 0.85:
            seed = rng.randrange(2 ** rng.choice((32, 64, 128)))
        else:
            seed = rng.choice((2**128 - 1, 2**128 + rng.randrange(2**64), -1))
        workers = rng.randint(1, cpus) if rng.random() < 0.95 else -rng.randrange(3)
        integers = {
            "trials": rng.randint(900, 20_000),
            "seed": seed,
            "workers": workers,
        }
        for name, value in integers.items():
            flags[name] = rng.choice(BAD_INT) if rng.random() < 0.02 else str(value)
        yield "mse-mc", flags, rng.random() < 0.2


def _check(draw, result):
    """Raise AssertionError when a run breaks the exit contract."""
    if cause(result, CAUSES) == "answer":
        assert result.err == "", result.err
        results = json_strict(result.out)["results"]
        assert math.isfinite(results["mse"]) and results["mse"] > 0.0, results
        assert math.isfinite(results["stderr"]) and results["stderr"] >= 0.0, results


def test_mse_mc_keeps_the_exit_contract(tmp_path):
    found = breaches(_draws(), _check, alarm_s=ALARM_S, config_dir=tmp_path)
    assert not found, found
