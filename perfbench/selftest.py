"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
The file name keeps these out of the package's own test collection: the
smoke runs spawn interpreters and take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import exact  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _runner(name: str) -> run.Runner:
    return run.Runner(workloads.WORKLOADS[name], [], seed=7)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.cycle(5, 0) == workload.cycle(5, 0)
    assert workload.cycle(5, 1) == workload.cycle(5, 1)
    assert workload.cycle(5, 0) != workload.cycle(6, 0)
    assert workload.cycle(5, 0) != workload.cycle(5, 1)


def test_cycles_cover_the_same_strata_on_every_seed():
    for name, workload in workloads.WORKLOADS.items():
        kinds = {
            tuple(sorted(op.kind for op in workload.cycle(seed, 0)))
            for seed in (1, 2, 3)
        }
        assert len(kinds) == 1, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_at_minimum_size(name):
    runner = _runner(name)
    ops = runner.cycle(0)
    if name != "cli-cold":
        ops = ops[:1]  # one op: the cheapest stratum of fock-oracle
    records = [runner.run_op(op, i, None) for i, op in enumerate(ops)]
    assert [r.problems for r in records] == [[] for _ in records]
    assert all(r.latency_s > 0.0 for r in records)


def test_emitted_metric_names_are_declared():
    declared = {
        0: {m["name"]: m["unit"] for m in DECLARED["end_to_end"]},
        1: {m["name"]: m["unit"] for m in DECLARED["per_layer"]},
    }
    assert declared[0] == metrics.END_TO_END_UNITS
    assert declared[1] == metrics.PER_LAYER_UNITS
    for trace in (0, 1):
        proc = _bench("--workload", "mc-estimate", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared[trace]
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_count_metrics_repeat_for_the_same_seed():
    def counts() -> dict:
        proc = _bench(
            "--workload", "mc-estimate", "--seed", "4", "--seconds", "1", "--trace", "1"
        )
        values = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {name: m["value"] for name, m in values.items() if m["unit"] == "count"}

    assert counts() == counts()


def test_a_perturbed_result_is_counted_as_failed_not_raised():
    link_map = workloads.WORKLOADS["link-map"]
    op = link_map.cycle(1, 0)[0]
    rows, optimum = link_map.execute(op)
    assert link_map.check(op, (rows, optimum)) == []
    index = next(i for i, row in enumerate(rows) if row.valid)
    rows[index] = dataclasses.replace(rows[index], c_ase=rows[index].c_ase * (1 + 1e-5))
    assert link_map.check(op, (rows, optimum))

    fock = workloads.WORKLOADS["fock-oracle"]
    good = {name: 0.0 for name in workloads.cli.ORACLE_TOLERANCES}
    assert fock.check(None, good) == []
    assert fock.check(None, {**good, "willie_qre_err": 2e-4})

    mc = workloads.WORKLOADS["mc-estimate"]
    assert mc.check(None, ((0.1, 0.01), (0.1, 0.010000000000000002)))

    cli_cold = workloads.WORKLOADS["cli-cold"]
    scenario = cli_cold.cycle(1, 0)[0]
    doc = {"command": "scenario", "results": {"willie_error_bound": 0.4}}
    bad = workloads.ChildResult(0, json.dumps(doc).encode(), b"", 0)
    assert cli_cold.check(scenario, bad)
    nan = workloads.ChildResult(0, b'{"command": "scenario", "x": NaN}', b"", 0)
    assert cli_cold.check(scenario, nan)

    # Through the runner: a raising op and a failing check are records, not errors.
    class Raising(workloads.LinkMap):
        def execute(self, op, spans_path=None):
            raise RuntimeError("boom")

    class Perturbed(workloads.LinkMap):
        def execute(self, op, spans_path=None):
            rows, (lambda_star, c_star, bound) = super().execute(op)
            return rows, (lambda_star, c_star * 1.01, bound * 1.01)

    cases = ((Raising(), "RuntimeError: boom"), (Perturbed(), "c_ase"))
    for workload, problem in cases:
        record = run.Runner(workload, [], seed=7).run_op(op, 0, None)
        assert len(record.problems) == 1 and problem in record.problems[0]


def test_exact_mse_tends_to_the_small_noise_expansion():
    # E[phi^2] = s + s^2 + (8/3) s^3 + O(s^4) for noise variance s.
    for s in (1e-4, 1e-3):
        expansion = s + s**2 + 8.0 * s**3 / 3.0
        assert exact.arctan_mse(s) == pytest.approx(expansion, rel=1e-7)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link-map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
