"""Seeded fuzz of ``sweep``, ``optimize`` and ``reproduce-paper``: the exit contract.

In-process ``main`` runs over log-uniform geometry, band, wavelength bracket
(out to 1e12 m, where a few ulps of lambda exceed the section tolerance), eps,
W and T, with both policies and formats and now and then a nan, +-inf, 0,
1e308 or subnormal value.  One draw in five passes its values through a
``--config`` file.  Every run is bounded by a ``SIGALRM`` interval timer, so
a hang fails the test instead of stalling the suite.

* Exit 0 must print strict JSON; a CSV ``sweep`` prints the header and one
  row per point whose cells are finite floats or blank, and a
  ``reproduce-paper`` table holds no non-finite number.
* Exit 1 must print a one-line JSON error naming one cause of ``CAUSES``, on
  stdout; an empty sweep prints it on stderr, after a bare CSV header.
* Exit 2 must print a usage message on stderr and no traceback.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
import warnings

from covertsense.cli import CONFIG_ENV_VAR, CSV_HEADER, main

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

#: The values a drawn number is now and then replaced by.
SPECIAL = ("nan", "inf", "-inf", "0", "1e308", "5e-324")

_NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang


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


def _strict(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _assert_named(line):
    """Assert that ``line`` is a one-line JSON error naming one of ``CAUSES``."""
    assert line.endswith("\n") and line.count("\n") == 1, line
    message = _strict(line)["error"]["message"]
    named = [key for key, text in CAUSES.items() if text in message]
    assert len(named) == 1, message


def _check_csv(text, points):
    header, *rows = text.splitlines()
    assert header == CSV_HEADER
    assert len(rows) == points
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 6, row
        assert all(cell == "" or math.isfinite(float(cell)) for cell in cells), row


def _check(command, flags, code, out, err):
    """Raise AssertionError when a run breaks the exit contract."""
    fmt = flags.get("format", {"sweep": "csv", "reproduce-paper": "table"}.get(command))
    if code == 2:
        assert out == "" and err.startswith("covertsense: "), (out, err)
        assert "Traceback" not in err
    elif code == 1 and command == "sweep" and err:
        # An empty sweep: a bare CSV header, and the error on stderr.
        assert out == (CSV_HEADER + "\n" if fmt == "csv" else "")
        assert _strict(err)["error"]["type"] == "EmptySweepError", err
        _assert_named(err)
    elif code == 1:
        assert err == "", err
        _assert_named(out)
    else:
        assert code == 0, code
        if fmt == "csv":
            _check_csv(out, int(flags["points"]))
            _strict(err)
        elif fmt == "table":
            assert err == "" and not _NON_FINITE.search(out), out
        else:
            assert err == ""
            _strict(out)


def test_link_commands_keep_the_exit_contract(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    config = tmp_path / "fuzz.conf"
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    failures = []
    try:
        for command, flags, via_config in _draws():
            if via_config:
                config.write_text("".join(f"{k} = {v}\n" for k, v in flags.items()))
                argv = ["--config", str(config), command]
            else:
                # "--flag=value", so that a value like "-inf" is not read as a flag.
                argv = [command] + [f"--{k}={v}" for k, v in flags.items()]
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _Hang:
                failures.append(("hang", command, flags))
                continue
            except Exception as exc:  # any escape is a traceback on the command line
                failures.append((f"raised {exc!r}", command, flags))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                captured = capsys.readouterr()
            try:
                _check(command, flags, code, captured.out, captured.err)
            except (AssertionError, ValueError) as exc:
                failures.append((f"exit {code}: {exc}", command, flags))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, failures
