"""The contract harness catches what the fuzzes exist to catch.

One draw of each fuzz runs with its command's handler in ``cli._HANDLERS``
replaced by a planted defect: a hang, a refusal that names no listed cause,
and an escaped exception.  Each must come back from ``breaches`` as one
breach of that kind.
"""

from __future__ import annotations

import pytest
import test_link_fuzz
import test_mse_mc_fuzz
import test_oracle_fuzz
import test_refusal_fuzz
from _contract import breaches

from covertsense import cli
from covertsense.errors import DomainError

FUZZES = (test_link_fuzz, test_mse_mc_fuzz, test_oracle_fuzz, test_refusal_fuzz)


def _hang(config):
    while True:
        pass


def _unnamed_refusal(config):
    raise DomainError("planted")


def _escape(config):
    raise RuntimeError("planted")


@pytest.mark.parametrize(
    "plant,why",
    [
        (_hang, "hang"),
        (_unnamed_refusal, "exit 1: 'DomainError: planted' names 0 listed causes"),
        (_escape, "raised RuntimeError('planted')"),
    ],
    ids=["hang", "unnamed-refusal", "escape"],
)
@pytest.mark.parametrize("fuzz", FUZZES, ids=lambda fuzz: fuzz.__name__)
def test_planted_defect_is_a_breach(fuzz, plant, why, monkeypatch, tmp_path):
    draw = next(fuzz._draws())
    command = draw[0]
    monkeypatch.setitem(cli._HANDLERS, command, plant)
    found = breaches([draw], fuzz._check, alarm_s=0.2, config_dir=tmp_path)
    assert found == [(why, draw)]
