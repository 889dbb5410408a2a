"""The closed-form layer without numpy, each check in a ``python -S`` child.

``-S`` skips ``site``, so site-packages, numpy among them, are off the
path, while ``PYTHONPATH=<repo>/src`` still finds covertsense.  Each child
first checks that ``import numpy`` fails: where it succeeds, the check
would prove nothing.  This module imports only the standard library and
pytest, so it also runs where numpy is not installed:

    python -m pytest --noconftest tests/test_without_numpy.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: The head of every child's code.
NO_NUMPY = """\
import sys
try:
    import numpy
except ImportError:
    pass
else:
    sys.exit("numpy is importable, so this check proves nothing")
"""


def bare(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``code`` run with ``argv`` by a ``python -S`` child that cannot import numpy."""
    env = {key: value for key, value in os.environ.items() if key != "COVERTSENSE_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", NO_NUMPY + code, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )


def test_snapshot_replays_byte_for_byte():
    """Every case of ``data/cli_stdout.json``: exit code and stdout, byte
    for byte, with numpy never imported."""
    cases = json.loads((ROOT / "tests" / "data" / "cli_stdout.json").read_text())["cases"]
    replay = (
        "import contextlib, io, json, warnings\n"
        "from covertsense.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), warnings.catch_warnings():\n"
        "        warnings.simplefilter('ignore', UserWarning)\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "print(json.dumps(runs))\n"
    )
    result = bare(replay, json.dumps([case["argv"] for case in cases]))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[case["exit"], case["stdout"]] for case in cases]


def test_star_imports_load_no_numpy():
    """Every name of each closed-form module's ``__all__`` resolves without numpy."""
    modules = ("scenario", "covertness", "estimation", "link", "cli")
    code = "".join(f"from covertsense.{module} import *\n" for module in modules)
    result = bare(code + "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["mse-mc", "--eta1", "0.5", "--eta2", "0.5", "--nb1", "1", "--nb2", "1",
         "--epsilon", "1e-3", "--n", "1e6", "--trials", "1000"],
        ["oracle-check"],
    ],
    ids=["mse-mc", "oracle-check"],
)
def test_numeric_commands_emit_json_error(argv):
    """The two numeric commands refuse with the JSON error object naming
    numpy, and exit 1 instead of a traceback."""
    result = bare("from covertsense.cli import main\nsys.exit(main(sys.argv[1:]))\n", *argv)
    assert (result.returncode, result.stderr) == (1, ""), result
    error = json.loads(result.stdout)["error"]
    assert error["type"] == "ModuleNotFoundError"
    assert "numpy" in error["message"]
