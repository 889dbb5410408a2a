"""Paths shared by the benchmark's scripts, and the child-process environment."""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Results and span files; ignored by git.
OUT_DIR = os.path.join(ROOT, ".bench_out")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports covertsense from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
