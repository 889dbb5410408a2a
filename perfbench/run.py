"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads: ``cli-cold``, ``link-map``, ``mc-estimate``, ``fock-oracle``
(see ``perfbench/README.md``).  Each is a closed loop with one client: the
next op starts when the previous one has returned.

``--trace 0`` runs whole input cycles until ``--seconds`` have passed and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of
cycles (sized from ``--seconds``) with every op run twice, once plain and
once with spans around every public covertsense function, and reports the
per-layer metrics and the tracing overhead.  Either way ``setup_s`` comes from fresh
interpreters that import the program and build the inputs.

The second-to-last stdout line is a JSON record of the machine and the
sample counts; the last line is the result object.  The same record, and
the spans of a traced run, are written under ``.bench_out/``.  The exit
code is 0 when a result was printed, whether or not every op passed its
check; a missing program is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from common import OUT_DIR, SRC, child_env

WORKLOAD_NAMES = ("cli-cold", "link-map", "mc-estimate", "fock-oracle")
SETUP_PROBES = 5
INTERPRETER_PROBES = 5
IMPORTTIME_PROBES = 3
IMPORTTIME_PACKAGES = {
    "scipy": "scipy_ms",
    "numpy": "numpy_ms",
    "covertsense": "covertsense_self_ms",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(name: str, seed: int, seconds: float):
    """Import the program and build the inputs: the work ``setup_s`` times."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    import covertsense.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[name]
    planned = int(seconds / workload.nominal_cycle_s) + 2
    cycles = [workload.cycle(seed, k) for k in range(planned)]
    return workload, cycles, import_s


def setup_probe(args: argparse.Namespace) -> tuple[float, float]:
    """(spawn-to-ready seconds, import seconds) of one fresh interpreter."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env()) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"setup probe exited with {code}")
    return ready, json.loads(line)["import_s"]


def interpreter_ms() -> float:
    """Median wall time of a bare ``python -c pass``."""
    samples = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        samples.append(1e3 * (time.perf_counter() - start))
    return statistics.median(samples)


def importtime_ms() -> dict[str, float]:
    """Median ``-X importtime`` self-time sums of scipy, numpy and covertsense."""
    runs: dict[str, list[float]] = {key: [] for key in IMPORTTIME_PACKAGES.values()}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import covertsense.cli"],
            capture_output=True, text=True, env=child_env(), check=True, timeout=120,
        )
        sums = dict.fromkeys(runs, 0.0)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not line.startswith("import time:"):
                continue
            self_us = fields[0].rsplit(":", 1)[1].strip()
            package = fields[2].strip().split(".", 1)[0]
            if self_us.isdigit() and package in IMPORTTIME_PACKAGES:
                sums[IMPORTTIME_PACKAGES[package]] += int(self_us) / 1e3
        for key, value in sums.items():
            runs[key].append(value)
    return {key: statistics.median(values) for key, values in runs.items()}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy  # noqa: F401

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


class Runner:
    """Runs ops of one workload as a closed loop and keeps their records."""

    def __init__(self, workload, cycles, seed: int) -> None:
        self.workload = workload
        self.cycles = cycles
        self.seed = seed

    def cycle(self, k: int):
        while k >= len(self.cycles):
            self.cycles.append(self.workload.cycle(self.seed, len(self.cycles)))
        return self.cycles[k]

    def run(self, seconds: float) -> list:
        """Whole cycles, until ``seconds`` have passed."""
        records = []
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            for op in self.cycle(k):
                records.append(self.run_op(op, len(records), None))
            k += 1
        return records

    def run_pairs(self, count: int, tracer) -> tuple[list, list]:
        """``count`` whole cycles; each op runs plain, then traced.

        Running the two back to back keeps host-speed drift out of the
        overhead ratio.  In-process workloads get the wrappers bound only
        around their traced op; a CLI op is traced by its child process.
        """
        from tracer import Installed

        plain, traced = [], []
        for k in range(count):
            for op in self.cycle(k):
                plain.append(self.run_op(op, len(plain), None))
                if self.workload.name == "cli-cold":
                    traced.append(self.run_op(op, len(traced), tracer))
                else:
                    with Installed(tracer):
                        traced.append(self.run_op(op, len(traced), tracer))
        return plain, traced

    def run_op(self, op, op_id: int, tracer):
        from metrics import OpRecord

        spans_path = None
        if tracer is not None:
            if self.workload.name == "cli-cold":
                spans_path = os.path.join(OUT_DIR, f"cli-spans-{os.getpid()}.json")
            else:
                tracer.op = op_id
        start = time.perf_counter()
        try:
            result = self.workload.execute(op, spans_path)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        if problems is None:
            try:
                problems = self.workload.check(op, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                tracer.absorb(json.load(handle), op_id)
            os.remove(spans_path)
        return OpRecord(
            op_id,
            op.kind,
            latency,
            problems,
            stdout=getattr(result, "stdout", None),
            max_rss_kb=getattr(result, "max_rss_kb", 0),
        )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "covertsense", "__init__.py")):
        print(f"perfbench: no covertsense package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, _, import_s = prepare(args.workload, args.seed, args.seconds)
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
    setup_samples = [ready for ready, _ in probes]
    workload, cycles, _ = prepare(args.workload, args.seed, args.seconds)
    import metrics
    from tracer import Tracer

    runner = Runner(workload, cycles, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        records = runner.run(args.seconds)
        if workload.name == "cli-cold":
            peak_kb = max(r.max_rss_kb for r in records)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values, extra = metrics.end_to_end(records, setup_samples, peak_kb / 1024.0)
        details.update(extra)
        units = metrics.END_TO_END_UNITS
    else:
        count = max(1, round(args.seconds / (2.0 * workload.nominal_cycle_s)))
        tracer = Tracer()
        untraced, traced = runner.run_pairs(count, tracer)
        for plain, spanned in zip(untraced, traced):
            if plain.stdout is not None and plain.stdout != spanned.stdout:
                spanned.problems.append("traced stdout differs from the plain CLI's")
        records = untraced + traced
        layer_probes = {
            "interpreter_ms": interpreter_ms(),
            "import_ms": 1e3 * statistics.median(imp for _, imp in probes),
            "setup_ms": 1e3 * statistics.median(setup_samples),
            **importtime_ms(),
        }
        values = metrics.per_layer(tracer, traced, untraced, layer_probes)
        details.update(cycles=count, traced_ops=len(traced), spans=len(tracer))
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.json.gz"))
        units = metrics.PER_LAYER_UNITS

    failures = [f"{r.kind}#{r.op_id}: {p}" for r in records for p in r.problems]
    details["setup_samples_s"] = setup_samples
    details["failures"] = failures[:20]
    details["machine"] = machine_record()
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    path = os.path.join(OUT_DIR, f"result-{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
