"""The four workloads: seeded inputs, one op each, and its independent check.

Inputs come in cycles.  Cycle ``k`` of a workload depends only on
``(workload, seed, k)``, and every cycle covers the workload's input space
the same way (the same subcommands, aperture conventions or Fock cutoffs,
with the continuous parameters drawn afresh), so a run of whole cycles does
the same mix of work on every seed and run-to-run spread stays small.

An op's result is checked outside its timing by ``check``, which returns a
list of problems; an op that raises or has problems counts as failed and the
run goes on.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

import exact
from common import HERE, child_env
from metrics import SUBCOMMANDS
from covertsense import cli, estimation, fock, link
from covertsense.covertness import covert_budget
from covertsense.scenario import SensingScenario

NPROC = os.cpu_count() or 1

#: The 15-100 THz band of the published spectra, as frequencies and as a
#: wavelength bracket.
BAND_HZ = (15e12, 100e12)
BAND_M = (exact.SPEED_OF_LIGHT / BAND_HZ[1], exact.SPEED_OF_LIGHT / BAND_HZ[0])
CSV_HEADER = "f_hz,lambda_m,eta,nbar_b,c_ase,B"
C_ASE_RTOL = 1e-6
CONSISTENCY_RTOL = 1e-9
#: 1 / (eps sqrt(floor(W T))) at the default operating point eps = 1e-3,
#: W = 3 THz, T = 1 s, which turns c_ase into the bound B.
B_SCALE = 1.0 / (1e-3 * math.sqrt(3e12))


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _reject_constant(text: str) -> float:
    raise ValueError(f"non-finite JSON constant {text}")


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


def run_child(cmd: list[str], timeout_s: float = 120.0) -> ChildResult:
    """Run a child interpreter to completion; keep its output and peak RSS."""
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
    ) as proc:
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        stderr: list[bytes] = []
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        reader.start()
        stdout = proc.stdout.read()
        reader.join()
        # wait4 rather than wait: it returns the child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, stdout, stderr[0], usage.ru_maxrss)


@dataclass(frozen=True)
class Op:
    """One op: ``kind`` groups ops of one sort (a subcommand, a stratum)."""

    kind: str
    params: dict


class Workload:
    name = ""
    key = 0
    #: Wall time of one cycle on a 2-core machine.  It sizes the traced phase
    #: and the inputs built at set-up; it never decides what is measured.
    nominal_cycle_s = 1.0

    def rng(self, seed: int, k: int) -> np.random.Generator:
        return np.random.default_rng([self.key, seed, k])

    def cycle(self, seed: int, k: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op, spans_path: str | None = None) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> list[str]:
        raise NotImplementedError


def check_link_row(
    eta: float | None, nbar_b: float, c_ase: float | None, b: float | None
) -> list[str]:
    """A valid sweep row against the equal-bath closed form, and its B."""
    if c_ase is None:
        return []
    want = exact.equal_bath_c_ase(eta, nbar_b)
    problems = []
    if not _rel(c_ase, want) <= C_ASE_RTOL:
        problems.append(f"c_ase {c_ase!r} vs closed form {want!r}")
    if not _rel(b, c_ase * B_SCALE) <= CONSISTENCY_RTOL:
        problems.append(f"B {b!r} is not c_ase / (eps sqrt(n))")
    return problems


def check_optimum(
    lambda_star: float,
    c_ase: float,
    bound: float,
    *,
    range_m: float,
    area_factor: float,
    eta_policy: str,
    bracket: tuple[float, float],
) -> list[str]:
    """The optimizer's c_ase against the closed form at its own wavelength."""
    lo, hi = bracket
    if not lo <= lambda_star <= hi:
        return [f"lambda_star {lambda_star!r} outside {bracket}"]
    eta = exact.link_eta(lambda_star, range_m, area_factor, eta_policy)
    if eta is None:
        return [f"lambda_star {lambda_star!r} is near-field"]
    nbar_b = exact.planck_occupancy(lambda_star, 300.0)
    return check_link_row(eta, nbar_b, c_ase, bound)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliCold(Workload):
    """One fresh ``python -m covertsense.cli <sub>`` process per op."""

    name = "cli-cold"
    key = 1
    nominal_cycle_s = 5.0

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = self.rng(seed, k)
        ops = []
        for sub in SUBCOMMANDS:
            eta1, eta2, nb1, nb2, n, epsilon, range_m, theta = (
                float(x)
                for x in (
                    *rng.uniform(0.3, 0.95, 2),
                    *rng.uniform(0.05, 3.0, 2),
                    10.0 ** rng.uniform(4.0, 10.0),
                    10.0 ** rng.uniform(-4.0, -2.0),
                    rng.uniform(1000.0, 5000.0),
                    rng.uniform(-3.0, 3.0),
                )
            )
            mc_seed = int(rng.integers(2**31))
            channel = [
                "--eta1", repr(eta1), "--eta2", repr(eta2),
                "--nb1", repr(nb1), "--nb2", repr(nb2), "--n", repr(n),
            ]
            argv = {
                "scenario": channel
                + ["--epsilon", repr(epsilon), "--theta", repr(theta)],
                "bounds": channel + ["--epsilon", repr(epsilon)],
                "sweep": [
                    "--L", repr(range_m), "--fmin", "15e12", "--fmax", "100e12",
                    "--points", "200",
                ],
                "optimize": ["--L", repr(range_m)],
                "reproduce-paper": ["--format", "json", "--epsilon", repr(epsilon)],
                "mse-mc": channel
                + [
                    "--epsilon", "0.01", "--theta", repr(theta), "--trials", "20000",
                    "--seed", str(mc_seed), "--workers", "1",
                ],
            }[sub]
            ops.append(
                Op(sub, {"argv": [sub] + argv, "epsilon": epsilon, "range_m": range_m})
            )
        return ops

    def execute(self, op: Op, spans_path: str | None = None) -> Any:
        if spans_path is None:
            program = ["-m", "covertsense.cli"]
        else:
            program = [os.path.join(HERE, "cli_child.py"), spans_path]
        return run_child([sys.executable, *program, *op.params["argv"]])

    def check(self, op: Op, result: Any) -> list[str]:
        if result.returncode != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit {result.returncode}: {tail}"]
        text = result.stdout.decode()
        if op.kind == "sweep":
            return self._check_csv(text)
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        if doc.get("command") != op.kind:
            return [f"command field {doc.get('command')!r}"]
        results = doc["results"]
        if op.kind == "scenario":
            want = 0.5 - op.params["epsilon"]
            got = results["willie_error_bound"]
            if not abs(got - want) <= 1e-12:
                return [f"willie_error_bound {got!r} is not 1/2 - eps = {want!r}"]
        if op.kind == "optimize":
            return check_optimum(
                results["lambda_star"],
                results["c_ase"],
                results["B"],
                range_m=op.params["range_m"],
                area_factor=0.25,
                eta_policy="error",
                bracket=(3e-6, 2e-5),
            )
        return []

    def _check_csv(self, text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return [f"CSV header {lines[:1]!r}"]
        rows = list(csv.reader(lines[1:]))
        if len(rows) != 200:
            return [f"{len(rows)} CSV rows, expected 200"]
        problems = []
        for row in rows:
            cells = [float(cell) if cell else None for cell in row]
            problems += check_link_row(cells[2], cells[3], cells[4], cells[5])
        return problems


# ---------------------------------------------------------------------------
# link-map
# ---------------------------------------------------------------------------

CONVENTIONS = tuple(
    (af, policy) for af in (1.0, 0.5, 0.25) for policy in ("error", "clamp")
)
SWEEP_POINTS = 2000


class LinkMap(Workload):
    """A 2000-point sweep over 15-100 THz plus the wavelength optimizer.

    A cycle holds the six (area_factor, eta_policy) conventions in a seeded
    order, with ranges stratified over 1-6 km (one per sixth of the range).
    """

    name = "link-map"
    key = 2
    nominal_cycle_s = 2.0

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = self.rng(seed, k)
        order = rng.permutation(len(CONVENTIONS))
        strata = rng.permutation(len(CONVENTIONS))
        jitter = rng.random(len(CONVENTIONS))
        ops = []
        for slot, conv in enumerate(order):
            area_factor, policy = CONVENTIONS[conv]
            range_m = 1000.0 + 5000.0 * (strata[slot] + jitter[slot]) / len(CONVENTIONS)
            ops.append(
                Op(
                    f"af={area_factor:g},{policy}",
                    {
                        "range_m": range_m,
                        "area_factor": area_factor,
                        "eta_policy": policy,
                    },
                )
            )
        return ops

    def execute(self, op: Op, spans_path: str | None = None) -> Any:
        geometry = link.LinkGeometry(**op.params)
        rows = link.sweep_frequency(BAND_HZ[0], BAND_HZ[1], SWEEP_POINTS, geometry)
        optimum = link.optimize_wavelength(geometry, BAND_M)
        return rows, optimum

    def check(self, op: Op, result: Any) -> list[str]:
        rows, (lambda_star, c_star, bound) = result
        if len(rows) != SWEEP_POINTS:
            return [f"{len(rows)} rows, expected {SWEEP_POINTS}"]
        problems = []
        for row in rows:
            if row.flag == "near-field" and op.params["eta_policy"] == "clamp":
                problems.append(f"near-field row under clamp at {row.f_hz!r} Hz")
            problems += check_link_row(row.eta, row.nbar_b, row.c_ase, row.b)
        return problems + check_optimum(
            lambda_star, c_star, bound, bracket=BAND_M, **op.params
        )


# ---------------------------------------------------------------------------
# mc-estimate
# ---------------------------------------------------------------------------

MC_TRIALS = 1_000_000
MC_EPSILON = 0.01
MC_Z_LIMIT = 5.0


class McEstimate(Workload):
    """Fast-mode Monte-Carlo MSE at 1 worker, then at ``nproc`` workers."""

    name = "mc-estimate"
    key = 3
    nominal_cycle_s = 0.29

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = self.rng(seed, k)
        eta1, eta2 = rng.uniform(0.3, 0.95, 2)
        nb1, nb2 = rng.uniform(0.05, 3.0, 2)
        params = {
            "scenario": (float(eta1), float(eta2), float(nb1), float(nb2)),
            "theta": float(rng.uniform(-3.0, 3.0)),
            "num_modes": float(10.0 ** rng.uniform(6.0, 9.0)),
            "mc_seed": int(rng.integers(2**63)),
        }
        return [Op("mc", params)]

    def execute(self, op: Op, spans_path: str | None = None) -> Any:
        p = op.params
        scenario = SensingScenario(*p["scenario"])
        args = (
            scenario, p["theta"], MC_EPSILON, p["num_modes"], MC_TRIALS, p["mc_seed"]
        )
        one = estimation.simulate_heterodyne_mse(*args, workers=1)
        many = estimation.simulate_heterodyne_mse(*args, workers=NPROC)
        return one, many

    def check(self, op: Op, result: Any) -> list[str]:
        (mse, stderr), many = result
        if (mse, stderr) != many:
            return [f"1 worker gave {(mse, stderr)!r}, {NPROC} workers gave {many!r}"]
        # The sampled noise variance is the program's; what is checked is
        # that sampling, estimator and reduction reproduce the exact MSE of
        # the arctangent estimator at that variance.
        p = op.params
        scenario = SensingScenario(*p["scenario"])
        budget = covert_budget(scenario, MC_EPSILON, p["num_modes"])
        stats = estimation.heterodyne_stats(
            scenario, p["theta"], budget.nbar_s, p["num_modes"]
        )
        want = exact.arctan_mse(stats.sigma_het_sq)
        z = (mse - want) / stderr
        if not abs(z) <= MC_Z_LIMIT:
            return [f"MSE {mse!r} is {z:.2f} stderr from the exact {want!r}"]
        return []


# ---------------------------------------------------------------------------
# fock-oracle
# ---------------------------------------------------------------------------

#: One op per stratum and cycle: points drawn from the acceptance-test box
#: until the auto-selected total-photon cutoff is the stratum's.  An odd
#: number of strata puts the median of whole cycles on one stratum (21)
#: rather than between two whose costs differ by a factor of two.
FOCK_CUTOFFS = (15, 18, 21, 24, 27)


class FockOracle(Workload):
    """``oracle_cross_check`` at points of the Fock acceptance-test box."""

    name = "fock-oracle"
    key = 4
    nominal_cycle_s = 15.5

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = self.rng(seed, k)
        ops = []
        for cutoff in FOCK_CUTOFFS:
            while True:
                eta1, eta2 = rng.uniform(0.3, 0.95, 2)
                nb1, nb2 = rng.uniform(0.05, 0.7, 2)
                ns = rng.uniform(0.01, 0.1)
                nlo = rng.uniform(0.05, 0.35)
                theta = rng.uniform(-3.0, 3.0)
                if exact.total_cutoff([nb2, nb1, ns + nlo]) == cutoff:
                    break
            params = {
                "scenario": (float(eta1), float(eta2), float(nb1), float(nb2)),
                "nbar_s": float(ns),
                "nbar_lo": float(nlo),
                "theta": float(theta),
            }
            ops.append(Op(f"cutoff={cutoff}", params))
        return ops

    def execute(self, op: Op, spans_path: str | None = None) -> Any:
        p = op.params
        return fock.oracle_cross_check(
            SensingScenario(*p["scenario"]), p["nbar_s"], p["nbar_lo"], p["theta"]
        )

    def check(self, op: Op, result: Any) -> list[str]:
        return [
            f"{name} = {result[name]!r} > {bound!r}"
            for name, bound in cli.ORACLE_TOLERANCES.items()
            if not result[name] <= bound
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CliCold(), LinkMap(), McEstimate(), FockOracle())
}
