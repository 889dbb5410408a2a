"""In-process runs of the covertsense CLI, and the checks of its exit contract.

The contract: exit 0 prints the answer; exit 1 prints a one-line JSON error
whose message names its cause, on stdout (an empty CSV sweep prints it on
stderr, after a bare header); exit 2 prints one ``covertsense: <message>``
line on stderr and nothing on stdout.  No run hangs or escapes with a
traceback, and no JSON or CSV output holds a NaN or an infinity.

``run`` calls ``main`` under a ``SIGALRM`` alarm and returns the exit code,
stdout and stderr, or the hang or the escaped exception.
``COVERTSENSE_CONFIG`` is unset for the run unless the run reads its config
file through it.  ``json_strict`` and ``csv_strict`` parse the two output
formats.  ``CAUSES`` is the one table of refusals, from cause id to the
message fragment that names it; ``cause`` checks an exit against it, the
ids a caller allows and the channel the error prints on.  ``breaches``
runs a seeded fuzz's draws through all of it.  A subcommand's fuzz supplies
its draws, the cause ids it allows and its exit-0 checks.
``child_runs`` runs fresh interpreters, for checks of peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import warnings
from typing import Any, Callable, Collection, Iterable, NamedTuple

from covertsense.cli import CONFIG_ENV_VAR, CSV_HEADER, main

#: Seeds the choice between ``--config`` and ``COVERTSENSE_CONFIG`` for a
#: config draw, apart from each fuzz's own seed, so that no draw moves.
ROUTE_SEED = 27

#: Every refusal a run of the suite may give: cause id -> a fragment of
#: ``"<type>: <message>"`` that names it and no other refusal.  The raise
#: sites keep their literal messages, so a reworded message fails the runs
#: that reach it instead of changing along with a shared constant.
CAUSES = {
    # Inputs out of their range.
    "tap-range": "must lie in [0, 1], got",
    "occupancy": "must be non-negative and finite, got",
    "not-positive": "must be positive and finite, got",
    "theta": "theta must be finite",
    # The covert budget (covertness).
    "modes-finite": "number of channel uses must be finite",
    "no-channel-use": "need at least one channel use",
    "vacuum": "a tap sees (near-)vacuum here",
    "identity": "(identity channel?)",
    "c2-underflow": "underflows double precision at these bath occupancies",
    "budget-overflow": "covert budget overflows double precision",
    # Estimation: bounds and mse-mc.
    "bandwidth-ratio": "bandwidth ratio W_ase/W_coh underflows to 0",
    "ase-wt-overflow": "time-bandwidth product W_ase*T overflows",
    "opaque": "fully opaque channel",
    "no-signal": "no signal to normalize by",
    "trials": "trials for a stable MSE",
    "seed": "seed must be a non-negative integer below 2**128",
    "workers": "workers must be >= 1",
    # The link layer: sweep, optimize and reproduce-paper.
    "band-order": "need f_min < f_max",
    "bracket-order": "need lambda_lo < lambda_hi",
    "points": "need at least two sweep points",
    "wt-overflow": "time-bandwidth product W*T overflows",
    "no-mode": "yields no usable mode",
    "eta-max": "eta_max must be in (0, 1)",
    "planck-overflow": "blackbody occupancy overflows",
    "geometry-overflow": "link geometry squares overflow",
    "near-field": "the diffraction formula does not apply this close",
    "empty-band": "no valid link point in",
    "empty-bracket": "no valid wavelength in",
    # The number-basis oracle: oracle-check.
    "cutoff-negative": "cutoff must be non-negative",
    "cutoff-cap": "exceeds the supported cap",
    "tail-mass": "leaves tail mass",
    "occupancy-cap": "the number-basis oracle is a small-occupancy tool",
    # The CLI's check that no output holds a NaN or an infinity.
    "non-finite": "an input is outside the range where the model gives a finite answer",
}


class Result(NamedTuple):
    """One run: the exit code and both channels, or ``fault`` if it never exited."""

    code: int | None
    out: str
    err: str
    fault: str | None = None  # "hang", or "raised <the escaped exception>"


class _Hang(Exception):
    pass


def _raise_hang(signum: int, frame: Any) -> None:
    raise _Hang


def flag_argv(command: str, flags: dict[str, str]) -> list[str]:
    # One "--flag=value" token per flag.
    return [command] + [f"--{name}={value}" for name, value in flags.items()]


def run(
    argv: list[str],
    *,
    alarm_s: float = 60.0,
    config_env: str | None = None,
    stdout: Any = None,
) -> Result:
    """``main(argv)`` in this process, stopped as a hang after ``alarm_s``.

    ``config_env`` is a config file for ``COVERTSENSE_CONFIG``.  Output
    sent to a given ``stdout`` stream is not captured.
    """
    out = io.StringIO() if stdout is None else stdout
    err = io.StringIO()
    saved_env = os.environ.pop(CONFIG_ENV_VAR, None)
    if config_env is not None:
        os.environ[CONFIG_ENV_VAR] = config_env
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    code, fault = None, None
    signal.setitimer(signal.ITIMER_REAL, alarm_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                # Out-of-regime budgets warn; the contract is on the output.
                warnings.simplefilter("ignore", UserWarning)
                code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except _Hang:
        fault = "hang"
    except Exception as exc:  # any escape is a traceback on the command line
        fault = f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        os.environ.pop(CONFIG_ENV_VAR, None)
        if saved_env is not None:
            os.environ[CONFIG_ENV_VAR] = saved_env
    captured = out.getvalue() if stdout is None else ""
    return Result(code, captured, err.getvalue(), fault)


def json_strict(text: str) -> Any:
    """``text`` parsed as JSON, refusing the NaN and Infinity constants."""

    def refuse(constant: str) -> None:
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def csv_strict(text: str) -> list[list[float | None]]:
    """The rows of a sweep CSV: each cell a finite float, or None if blank."""
    header, *lines = text.splitlines()
    assert header == CSV_HEADER, header
    rows = []
    for line in lines:
        cells = [float(cell) if cell else None for cell in line.split(",")]
        assert len(cells) == 6, line
        assert all(cell is None or math.isfinite(cell) for cell in cells), line
        rows.append(cells)
    return rows


def cause(
    result: Result, allowed: Collection[str] = CAUSES, *, channel: str = "out"
) -> str:
    """What a run did under the contract; AssertionError on a breach.

    "answer" on exit 0, whose output the caller checks; "usage" on exit 2,
    whose stdout is empty and whose stderr is one ``covertsense: `` line.
    On exit 1, the id of the one entry of ``CAUSES`` whose fragment is in
    ``"<type>: <message>"`` of the one-line JSON error on ``channel``,
    which must be one of the ``allowed`` ids.  An error on stdout leaves
    stderr empty; beside one on stderr, stdout is the caller's to check.
    """
    assert result.fault is None, result.fault
    if result.code == 0:
        return "answer"
    if result.code == 2:
        assert result.out == "" and result.err.startswith("covertsense: "), result
        assert result.err.count("\n") == 1 and result.err.endswith("\n"), result.err
        return "usage"
    assert result.code == 1, f"exit {result.code}"
    if channel == "out":
        assert result.err == "", result.err
    line = getattr(result, channel)
    assert line.endswith("\n") and line.count("\n") == 1, line
    error = json_strict(line)["error"]
    named = f"{error['type']}: {error['message']}"
    ids = [key for key, fragment in CAUSES.items() if fragment in named]
    assert len(ids) == 1, f"{named!r} names {len(ids)} listed causes"
    assert ids[0] in allowed, f"{named!r} names {ids[0]}, not one of {allowed}"
    return ids[0]


def breaches(
    draws: Iterable[Any],
    judge: Callable[[Any, Result], Any],
    *,
    alarm_s: float,
    config_dir: Any = None,
) -> list[tuple[str, Any]]:
    """(why, draw) for every draw whose run breaks the contract.

    A draw is an argv list or a ``(command, flags, via_config)`` triple.  A
    triple's flags go on the command line, or with ``via_config`` into a
    config file in the ``config_dir`` path, read through ``--config`` or
    ``COVERTSENSE_CONFIG`` as a generator seeded with ``ROUTE_SEED`` picks.
    A hang or an escape is a breach, and so is a run that
    ``judge(draw, result)`` raises on.
    """
    routes = random.Random(ROUTE_SEED)
    found = []
    for draw in draws:
        argv, config_env = draw, None
        if isinstance(draw, tuple):
            command, flags, via_config = draw
            argv = flag_argv(command, flags)
            if via_config:
                config = config_dir / "fuzz.conf"
                config.write_text("".join(f"{k} = {v}\n" for k, v in flags.items()))
                if routes.random() < 0.5:
                    argv, config_env = [command], str(config)
                else:
                    argv = ["--config", str(config), command]
        result = run(argv, alarm_s=alarm_s, config_env=config_env)
        if result.fault is not None:
            found.append((result.fault, draw))
            continue
        try:
            judge(draw, result)
        except Exception as exc:
            found.append((f"exit {result.code}: {exc}", draw))
    return found


#: Runs each argv of the JSON list ``sys.argv[1]`` as ``python <argv>``, in
#: turn, and prints one JSON line per run: exit code, stdout, stderr, and
#: the peak RSS in MB of the runs so far (``ru_maxrss`` is in kB on Linux).
_SPAWNER = """\
import json, resource, subprocess, sys
for argv in json.loads(sys.argv[1]):
    run = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps([run.returncode, run.stdout, run.stderr, peak_mb]))
"""


class ChildRun(NamedTuple):
    """One fresh interpreter's exit code and channels, and a peak RSS."""

    code: int
    out: str
    err: str
    peak_mb: float  # the largest peak RSS of this run and every earlier one


def child_runs(argvs: list[list[str]], *, timeout: float = 120.0) -> list[ChildRun]:
    """Each argv run in turn as ``python <argv>`` by one small spawner process.

    The runs are the spawner's children, not this process's, because a
    child's peak RSS starts at its parent's RSS, which here holds numpy and
    scipy, and ``RUSAGE_CHILDREN`` is the peak over every earlier child,
    here every test's.  So each group of runs has its own spawner, and its
    smallest run goes first.
    """
    env = dict(os.environ)
    env.pop(CONFIG_ENV_VAR, None)
    spawner = subprocess.run(
        [sys.executable, "-c", _SPAWNER, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert spawner.returncode == 0, spawner.stderr
    return [ChildRun(*json.loads(line)) for line in spawner.stdout.splitlines()]
