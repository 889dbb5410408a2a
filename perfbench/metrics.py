"""End-to-end metrics from timed ops, per-layer metrics from traced spans.

Every metric carries its unit here; ``BENCHMARK.json`` declares the same
names and units (a self-test keeps the two in step).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from tracer import Tracer

SUBCOMMANDS = ("scenario", "bounds", "sweep", "optimize", "reproduce-paper", "mse-mc")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.import.numpy_ms": "ms",
    "cli.import.covertsense_self_ms": "ms",
    **{f"cli.main_ms.{sub}": "ms" for sub in SUBCOMMANDS},
    "cli.import_share": "ratio",
    "covertness.taylor_coefficients.calls_per_op": "count",
    "covertness.taylor_coefficients.self_us": "us",
    "covertness.covert_budget.calls_per_op": "count",
    "covertness.willie_qre.calls_per_op": "count",
    "covertness.share_of_op": "ratio",
    "link.sweep_frequency.us_per_point": "us",
    "link.sweep_frequency.valid_row_ratio": "ratio",
    "link.c_ase_at.self_us": "us",
    "link.optimize_wavelength.objective_calls": "count",
    "link.optimize_wavelength.ms": "ms",
    "link.reproduce_paper_report.ms": "ms",
    "estimation.simulate_heterodyne_mse.ns_per_trial_1w": "ns",
    "estimation.simulate_heterodyne_mse.ns_per_trial_nw": "ns",
    "estimation.mc.parallel_efficiency": "ratio",
    "estimation.estimation_report.us": "us",
    "estimation.qcrb_ase.calls_per_op": "count",
    "scenario.willie_cm.calls_per_op": "count",
    "scenario.alice_cm.calls_per_op": "count",
    "gaussian.symplectic_spectrum.calls_per_op": "count",
    "gaussian.symplectic_spectrum.self_us": "us",
    "fock.oracle_willie_state.s": "s",
    "fock.oracle_alice_state.s": "s",
    "fock.oracle_qre.ms": "ms",
    "fock.oracle_fidelity.ms": "ms",
    "fock.fock_moments.ms": "ms",
    "fock.cutoff.mean": "count",
    "fock.state_build_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class OpRecord:
    """One executed op: latency is spawn-to-exit for CLI ops.

    ``stdout`` and ``max_rss_kb`` are kept for ops that run a child process.
    """

    op_id: int
    kind: str
    latency_s: float
    problems: list[str]
    stdout: bytes | None = None
    max_rss_kb: int = 0


def median(values: list[float]) -> float:
    """Median, or 0.0 where nothing was measured (a layer never called)."""
    return statistics.median(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile has 10 beyond it; the maximum
    is reported (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(
    records: list[OpRecord], setup_s: list[float], peak_rss_mb: float
) -> tuple[dict[str, float], dict]:
    latencies = [r.latency_s for r in records]
    failed = sum(1 for r in records if r.problems)
    tail_s, percentile = tail(latencies)
    values = {
        "ops_per_s": len(records) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_ops_ratio": 1.0 - failed / len(records),
    }
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.kind].append(1e3 * r.latency_s)
    details = {
        "samples": len(latencies),
        "op_tail_percentile": percentile,
        "p50_ms_by_kind": {kind: statistics.median(v) for kind, v in by_kind.items()},
    }
    return values, details


#: Per-layer metrics that are a plain function of one span name: the name
#: is the metric name without its last component.
CALLS_PER_OP = (
    "covertness.taylor_coefficients",
    "covertness.covert_budget",
    "covertness.willie_qre",
    "estimation.qcrb_ase",
    "scenario.willie_cm",
    "scenario.alice_cm",
    "gaussian.symplectic_spectrum",
)
SELF_US = (
    "covertness.taylor_coefficients",
    "link.c_ase_at",
    "gaussian.symplectic_spectrum",
)
MEDIAN_PER_CALL = (
    "link.optimize_wavelength.ms",
    "link.reproduce_paper_report.ms",
    "estimation.estimation_report.us",
    "fock.oracle_willie_state.s",
    "fock.oracle_alice_state.s",
    "fock.oracle_qre.ms",
    "fock.oracle_fidelity.ms",
    "fock.fock_moments.ms",
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer(
    tracer: Tracer,
    traced: list[OpRecord],
    untraced: list[OpRecord],
    probes: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``traced`` ops.

    ``untraced`` holds the same ops run without wrappers, for the tracing
    overhead.  ``probes`` holds the fresh-interpreter measurements:
    ``interpreter_ms``, ``import_ms`` (set-up probes), ``setup_ms`` and the
    ``-X importtime`` self-time sums ``scipy_ms``, ``numpy_ms`` and
    ``covertsense_self_ms``.
    """
    spans = defaultdict(list, tracer.by_name())
    kind_of = {r.op_id: r.kind for r in traced}
    latency_of = {r.op_id: r.latency_s for r in traced}
    op_wall = sum(latency_of.values())

    def total(name: str) -> float:
        return sum(tracer.duration(s) for s in spans[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in CALLS_PER_OP:
        out[f"{name}.calls_per_op"] = len(spans[name]) / len(traced)
    for name in SELF_US:
        out[f"{name}.self_us"] = median(
            [1e6 * tracer.self_time(s) for s in spans[name]]
        )
    for metric in MEDIAN_PER_CALL:
        name, unit = metric.rsplit(".", 1)
        out[metric] = median([SCALE[unit] * tracer.duration(s) for s in spans[name]])

    # cli: on cli-cold each op is a fresh process; elsewhere the fresh
    # interpreter is the workload's set-up.
    imports = spans["cli.import"]
    out["cli.interpreter_ms"] = probes["interpreter_ms"]
    if imports:
        out["cli.import_ms"] = median([1e3 * tracer.duration(s) for s in imports])
        out["cli.import_share"] = median(
            [tracer.duration(s) / latency_of[tracer.op_id[s]] for s in imports]
        )
    else:
        out["cli.import_ms"] = probes["import_ms"]
        out["cli.import_share"] = probes["import_ms"] / probes["setup_ms"]
    for package in ("scipy", "numpy", "covertsense_self"):
        out[f"cli.import.{package}_ms"] = probes[f"{package}_ms"]
    for sub in SUBCOMMANDS:
        out[f"cli.main_ms.{sub}"] = median(
            [
                1e3 * tracer.duration(s)
                for s in spans["cli.main"]
                if kind_of[tracer.op_id[s]] == sub
            ]
        )

    covertness_self = sum(
        tracer.self_time(s)
        for name, ids in spans.items()
        if name.startswith("covertness.")
        for s in ids
    )
    out["covertness.share_of_op"] = covertness_self / op_wall

    sweeps = spans["link.sweep_frequency"]
    points = sum(tracer.attrs[s]["points"] for s in sweeps)
    valid = sum(tracer.attrs[s]["valid"] for s in sweeps)
    out["link.sweep_frequency.us_per_point"] = ratio(
        1e6 * total("link.sweep_frequency"), points
    )
    out["link.sweep_frequency.valid_row_ratio"] = ratio(valid, points)
    optimizers = set(spans["link.optimize_wavelength"])
    objective_calls = sum(
        1 for s in spans["link.c_ase_at"] if tracer.parent[s] in optimizers
    )
    out["link.optimize_wavelength.objective_calls"] = ratio(
        objective_calls, len(optimizers)
    )

    per_trial: dict[bool, list[float]] = {False: [], True: []}
    workers_nw = 1
    for s in spans["estimation.simulate_heterodyne_mse"]:
        attrs = tracer.attrs[s]
        many = attrs["workers"] > 1
        per_trial[many].append(1e9 * tracer.duration(s) / attrs["trials"])
        if many:
            workers_nw = attrs["workers"]
    ns_1w, ns_nw = median(per_trial[False]), median(per_trial[True])
    out["estimation.simulate_heterodyne_mse.ns_per_trial_1w"] = ns_1w
    out["estimation.simulate_heterodyne_mse.ns_per_trial_nw"] = ns_nw
    out["estimation.mc.parallel_efficiency"] = ratio(ns_1w, ns_nw * workers_nw)

    cutoffs = [tracer.attrs[s]["cutoff"] for s in spans["fock.oracle_cross_check"]]
    out["fock.cutoff.mean"] = ratio(sum(cutoffs), len(cutoffs))
    out["fock.state_build_share"] = ratio(
        total("fock.oracle_willie_state") + total("fock.oracle_alice_state"),
        total("fock.oracle_cross_check"),
    )

    out["trace.overhead_ratio"] = op_wall / sum(r.latency_s for r in untraced)
    return out
