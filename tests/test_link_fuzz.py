"""Seeded fuzz of ``sweep``, ``optimize`` and ``reproduce-paper``: the exit contract.

In-process ``main`` runs over log-uniform geometry, band, wavelength bracket
(out to 1e12 m, where a few ulps of lambda exceed the section tolerance), eps,
W and T, with both policies and formats and now and then a nan, +-inf, 0,
1e308 or subnormal value.  One draw in five passes its values through a
config file, named by ``--config`` or by ``COVERTSENSE_CONFIG``.  Every
tenth ``sweep`` or ``optimize`` draw is followed by a copy whose
``--eta-policy`` is outside its choices.  Each run goes through
``_contract.breaches``, so a hang or an escape fails the test.

* Exit 0 must print strict JSON; a CSV ``sweep`` prints the header and one
  row per point whose cells are finite floats or blank, and a
  ``reproduce-paper`` table holds no non-finite number.
* Exit 1 must print a one-line JSON error naming one cause of ``CAUSES``, on
  stdout; an empty sweep prints it on stderr, after a bare CSV header.
* Exit 2 must print a usage message on stderr and no traceback.  A value
  outside a flag's fixed choices must exit 2 with a usage line that names
  a flag with a bad value.
"""

from __future__ import annotations

import math
import random
import re

from _contract import breaches, cause, csv_strict, json_strict

from covertsense.cli import CSV_HEADER

RUNS = 400
SEED = 24
#: Wall-clock bound of one run; a reproduce-paper run takes about 40 ms.
ALARM_S = 2.0

#: The refusals a run may give, each with the fragment that names it.
CAUSES = {
    "not-positive": "must be positive and finite, got",
    "band-order": "need f_min < f_max",
    "bracket-order": "need lambda_lo < lambda_hi",
    "points": "need at least two sweep points",
    "wt-overflow": "time-bandwidth product W*T overflows",
    "no-mode": "yields no usable mode",
    "area-factor": "area_factor must be one of",
    "policy": "eta_policy must be one of",
    "eta-max": "eta_max must be in (0, 1)",
    "planck-overflow": "blackbody occupancy overflows",
    "geometry-overflow": "link geometry squares overflow",
    "near-field": "the diffraction formula does not apply this close",
    "empty-band": "no valid link point in",
    "empty-bracket": "no valid wavelength in",
    "non-finite": "an input is outside the range where the model gives a finite answer",
}

#: Values outside the fixed choices of two flags, which ``--area-factor``
#: and ``--eta-policy`` draw now and then.
OUT_OF_CHOICE = {"area-factor": "0.3", "eta-policy": "bogus"}

#: The values a drawn number is now and then replaced by.
SPECIAL = ("nan", "inf", "-inf", "0", "1e308", "5e-324")

_NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)


def _draws():
    rng = random.Random(SEED)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    def geometry(wide):
        # Kilometre links with centimetre pupils, or 1 m to 100 km links
        # with pupils out to 1000 km, whose optima lie at long wavelengths.
        low, top = (-3.0, 6.0) if wide else (-2.0, 0.0)
        return {
            "L": log_uniform(0.0 if wide else 2.0, 5.0),
            "rt": log_uniform(low, top),
            "rtarget": log_uniform(low, top),
            "t0": log_uniform(1.5, 3.5),
        }

    def options(flags, choices, rate=0.3):
        for name, values in choices.items():
            if rng.random() < rate:
                flags[name] = rng.choice(values)

    for i in range(RUNS):
        command = "reproduce-paper" if i % 20 == 0 else ("sweep", "optimize")[i % 2]
        values = {
            "epsilon": log_uniform(-8.0, 0.0),
            "W": log_uniform(8.0, 15.0),
            "T": log_uniform(-9.0, 3.0),
        }
        if command == "sweep":
            values.update(geometry(rng.random() < 0.5))
            values["fmin"] = log_uniform(11.0, 14.5)
            values["fmax"] = values["fmin"] * log_uniform(-0.05, 1.0)
        elif command == "optimize":
            wide = rng.random() < 0.5
            values.update(geometry(wide))
            if wide:
                # Around the near-field edge pi sqrt(area_factor) r_t r_T / L,
                # where the optimum sits under the error policy.
                edge = math.pi * 0.5 * values["rt"] * values["rtarget"] / values["L"]
                values["lmin"] = edge * log_uniform(-1.0, 0.3)
            else:
                values["lmin"] = log_uniform(-6.5, -3.5)
            values["lmax"] = values["lmin"] * log_uniform(-0.05, 1.0)
        flags = {
            name: rng.choice(SPECIAL) if rng.random() < 0.015 else repr(value)
            for name, value in values.items()
        }
        if command == "sweep":
            flags["points"] = str(rng.randint(2, 40))
            options(flags, {"points": ["1", "0", "1e3"]}, rate=0.08)
            options(flags, {"format": ["csv", "json"]})
        elif command == "reproduce-paper":
            options(flags, {"format": ["table", "json"]})
        if command != "reproduce-paper":
            options(
                flags,
                {
                    "eta-policy": ["error", "clamp"],
                    "area-factor": ["1", "0.5", "0.25", "0.3"],
                    "eta-max": [repr(rng.random())] * 4 + ["0.999999", "1", "0"],
                },
            )
        yield command, flags, rng.random() < 0.2
        if command != "reproduce-paper" and i % 10 == 3:
            # On the command line: a config draw would move the routes
            # that later config draws take.
            yield command, {**flags, "eta-policy": OUT_OF_CHOICE["eta-policy"]}, False


def _check(draw, result):
    """Raise AssertionError when a run breaks the exit contract."""
    command, flags, _ = draw
    fmt = flags.get("format", {"sweep": "csv", "reproduce-paper": "table"}.get(command))
    bad = [name for name, value in OUT_OF_CHOICE.items() if flags.get(name) == value]
    if bad:
        assert cause(result, CAUSES) == "usage"
        # --points is converted first, and a drawn 1e3 is no integer.
        named = re.match(r"covertsense: bad value for --([\w-]+): ", result.err)
        assert named and named.group(1) in bad + ["points"], result.err
    elif result.code == 1 and command == "sweep" and result.err:
        # An empty sweep: a bare CSV header, and the error on stderr.
        assert result.out == (CSV_HEADER + "\n" if fmt == "csv" else "")
        assert json_strict(result.err)["error"]["type"] == "EmptySweepError"
        cause(result, CAUSES, channel="err")
    elif cause(result, CAUSES) == "answer":
        if fmt == "csv":
            assert len(csv_strict(result.out)) == int(flags["points"])
            json_strict(result.err)
        elif fmt == "table":
            assert result.err == "" and not _NON_FINITE.search(result.out), result.out
        else:
            assert result.err == ""
            json_strict(result.out)


def test_link_commands_keep_the_exit_contract(tmp_path):
    found = breaches(_draws(), _check, alarm_s=ALARM_S, config_dir=tmp_path)
    assert not found, found
