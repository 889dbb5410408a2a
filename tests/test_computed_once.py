"""Each CLI subcommand computes the Taylor coefficients once per operating point.

A counting wrapper around ``taylor_coefficients`` is bound into every
covertsense module namespace that holds it, and one around the QRE
kernel ``_adversary_qre`` into ``covertness``, one around
``heterodyne_stats`` into every namespace that holds it, and one around
each of ``planck_occupancy`` and ``geometric_transmissivity`` into
``link``.  The Taylor coefficients are closed forms that evaluate no QRE,
so a budget costs none; ``scenario`` runs the kernel once, for
``qre_per_mode``, ``bounds`` never (its coherent probe reads the budget's
c2), ``mse-mc`` the heterodyne moments once, and a sweep row each link
input once.
"""

from __future__ import annotations

import pytest
from _contract import run

from covertsense import cli, covertness, estimation, fock, gaussian, link, scenario

MODULES = (cli, covertness, estimation, fock, gaussian, link, scenario)

SCENARIO = [
    "--eta1", "0.5", "--eta2", "0.7", "--nb1", "1", "--nb2", "0.4",
    "--epsilon", "1e-3", "--n", "1e6",
]

@pytest.fixture
def counts(monkeypatch):
    tally = {
        "taylor": 0, "qre": 0, "heterodyne": 0, "planck": 0, "transmissivity": 0,
    }

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, key, original in (
        ("taylor_coefficients", "taylor", covertness.taylor_coefficients),
        ("heterodyne_stats", "heterodyne", estimation.heterodyne_stats),
    ):
        wrapper = counting(key, original)
        for module in MODULES:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(
        covertness, "_adversary_qre", counting("qre", covertness._adversary_qre)
    )
    monkeypatch.setattr(
        link, "planck_occupancy", counting("planck", link.planck_occupancy)
    )
    monkeypatch.setattr(
        link,
        "geometric_transmissivity",
        counting("transmissivity", link.geometric_transmissivity),
    )
    return tally


def test_scenario_runs_taylor_once(counts):
    assert run(["scenario", *SCENARIO, "--theta", "0.4"]).code == 0
    assert counts == {
        "taylor": 1, "qre": 1, "heterodyne": 0, "planck": 0, "transmissivity": 0,
    }


def test_bounds_runs_taylor_once(counts):
    assert run(["bounds", *SCENARIO, "--nlo", "1e5"]).code == 0
    # Both probes read the one budget's c2; no QRE is evaluated.
    assert counts == {
        "taylor": 1, "qre": 0, "heterodyne": 0, "planck": 0, "transmissivity": 0,
    }


def test_sweep_runs_taylor_at_most_once_per_row(counts):
    result = run(
        ["sweep", "--L", "1000", "--fmin", "15e12", "--fmax", "100e12",
         "--points", "50"],
    )
    assert result.code == 0, result
    rows = [line.split(",") for line in result.out.splitlines()[1:]]
    assert len(rows) == 50
    # Near-field rows (no eta) never reach the covertness layer; every
    # other row, valid or degenerate, runs the Taylor coefficients once.
    evaluated = sum(1 for row in rows if row[2] != "")
    assert 0 < evaluated < 50
    assert counts == {
        "taylor": evaluated, "qre": 0, "heterodyne": 0, "planck": 50,
        "transmissivity": 50,
    }


def test_sweep_takes_each_row_input_once(counts):
    # At 100 K the upper rows sit deep in the Wien tail and are degenerate
    # (an eta but no c_ase); they too take each link input once.
    result = run(
        ["sweep", "--L", "3000", "--fmin", "15e12", "--fmax", "100e12",
         "--points", "12", "--t0", "100"],
    )
    assert result.code == 0, result
    rows = [line.split(",") for line in result.out.splitlines()[1:]]
    degenerate = sum(1 for row in rows if row[2] != "" and row[4] == "")
    assert 0 < degenerate < 12
    assert counts["planck"] == counts["transmissivity"] == 12


def test_mse_mc_runs_taylor_once(counts):
    # The budget and the heterodyne moments behind the reported prediction
    # are built once; they reach sample_heterodyne_mse as the noise
    # variance sigma_het_sq, which builds neither again.
    assert run(["mse-mc", *SCENARIO, "--trials", "1000"]).code == 0
    assert counts == {
        "taylor": 1, "qre": 0, "heterodyne": 1, "planck": 0, "transmissivity": 0,
    }


@pytest.mark.parametrize(
    "flags",
    [["--w-ase", "0"], ["--w-coh", "inf"], ["--t-int", "-1"],
     ["--w-ase", "1e300", "--t-int", "1e10"]],
    ids=["w-ase", "w-coh", "t-int", "w-ase-times-t-int"],
)
def test_bounds_refuses_operating_point_before_taylor(counts, flags):
    result = run(["bounds", *SCENARIO, *flags])
    assert result.code == 1 and '"error"' in result.out
    assert counts == {
        "taylor": 0, "qre": 0, "heterodyne": 0, "planck": 0, "transmissivity": 0,
    }
