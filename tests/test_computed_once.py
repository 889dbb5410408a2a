"""Each CLI subcommand computes the Taylor coefficients once per operating point.

Counting wrappers are bound into every covertsense module namespace that
holds the function: ``c2`` counts ``_taylor_c2``, the one route to the
quadratic coefficient (``taylor_coefficients`` calls it too), and ``c3``
counts ``taylor_coefficients``, the only route that adds the cubic one.
One around the QRE kernel ``_adversary_qre`` is bound into
``covertness``, one around ``heterodyne_stats`` into every namespace that
holds it, and one around each of ``planck_occupancy`` and
``geometric_transmissivity`` into ``link``.  The Taylor coefficients are
closed forms that evaluate no QRE, so a budget costs none; ``scenario``
runs the kernel once, for ``qre_per_mode``, ``bounds`` never (its
coherent probe reads the budget's c2), ``mse-mc`` the heterodyne moments
once, and a sweep row each link input once.  The link commands need c2
alone and never compute c3, and ``reproduce-paper`` evaluates each
distinct link point once.
"""

from __future__ import annotations

import pytest
from _contract import run

from covertsense import cli, covertness, estimation, fock, gaussian, link, scenario
from covertsense.errors import DomainError

MODULES = (cli, covertness, estimation, fock, gaussian, link, scenario)

SCENARIO = [
    "--eta1", "0.5", "--eta2", "0.7", "--nb1", "1", "--nb2", "0.4",
    "--epsilon", "1e-3", "--n", "1e6",
]

#: Every counter, at zero.
ZERO = {
    "c2": 0, "c3": 0, "qre": 0, "heterodyne": 0, "planck": 0, "transmissivity": 0,
}


@pytest.fixture
def counts(monkeypatch):
    tally = dict(ZERO)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, key, original in (
        ("_taylor_c2", "c2", covertness._taylor_c2),
        ("taylor_coefficients", "c3", covertness.taylor_coefficients),
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
    assert counts == {**ZERO, "c2": 1, "c3": 1, "qre": 1}


def test_bounds_runs_taylor_once(counts):
    assert run(["bounds", *SCENARIO, "--nlo", "1e5"]).code == 0
    # Both probes read the one budget's c2; no QRE is evaluated.
    assert counts == {**ZERO, "c2": 1, "c3": 1}


def test_sweep_runs_taylor_at_most_once_per_row(counts):
    result = run(
        ["sweep", "--L", "1000", "--fmin", "15e12", "--fmax", "100e12",
         "--points", "50"],
    )
    assert result.code == 0, result
    rows = [line.split(",") for line in result.out.splitlines()[1:]]
    assert len(rows) == 50
    # Near-field rows (no eta) never reach the covertness layer; every
    # other row, valid or degenerate, runs c2 once and c3 never.
    evaluated = sum(1 for row in rows if row[2] != "")
    assert 0 < evaluated < 50
    assert counts == {**ZERO, "c2": evaluated, "planck": 50, "transmissivity": 50}


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--L", "1000", "--fmin", "15e12", "--fmax", "100e12",
         "--points", "50"],
        ["sweep", "--L", "1000", "--fmin", "15e12", "--fmax", "100e12",
         "--points", "50", "--format", "json"],
        ["optimize", "--L", "3000"],
        ["optimize", "--L", "300", "--eta-policy", "clamp"],
        ["reproduce-paper"],
        ["reproduce-paper", "--format", "json", "--epsilon", "1e-2"],
    ],
    ids=["sweep-csv", "sweep-json", "optimize", "optimize-clamp", "reproduce",
         "reproduce-json"],
)
def test_link_commands_compute_no_c3(counts, argv):
    assert run(argv).code == 0
    assert counts["c2"] > 0
    assert counts["c3"] == counts["qre"] == counts["heterodyne"] == 0


def test_reproduce_paper_evaluates_each_link_point_once(monkeypatch):
    # The error and clamp policies share every far-field point, so of the
    # 3606 link points the scan and the fixed targets visit, 1828 differ.
    points, raised = [], []
    original = covertness._taylor_c2

    def recording(scenario):
        points.append(scenario)
        try:
            return original(scenario)
        except DomainError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(link, "_taylor_c2", recording)
    assert run(["reproduce-paper"]).code == 0
    assert not raised
    assert len(points) == len(set(points)) == 1828


def test_mse_mc_runs_taylor_once(counts):
    # The budget and the heterodyne moments behind the reported prediction
    # are built once; they reach sample_heterodyne_mse as the noise
    # variance sigma_het_sq, which builds neither again.
    assert run(["mse-mc", *SCENARIO, "--trials", "1000"]).code == 0
    assert counts == {**ZERO, "c2": 1, "c3": 1, "heterodyne": 1}


@pytest.mark.parametrize(
    "flags",
    [["--w-ase", "0"], ["--w-coh", "inf"], ["--t-int", "-1"],
     ["--w-ase", "1e300", "--t-int", "1e10"]],
    ids=["w-ase", "w-coh", "t-int", "w-ase-times-t-int"],
)
def test_bounds_refuses_operating_point_before_taylor(counts, flags):
    result = run(["bounds", *SCENARIO, *flags])
    assert result.code == 1 and '"error"' in result.out
    assert counts == ZERO
