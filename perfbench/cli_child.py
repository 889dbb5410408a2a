"""Traced stand-in for ``python -m covertsense.cli``.

Usage: ``python3 perfbench/cli_child.py SPANS_PATH ARGS...``

Times ``import covertsense.cli`` as the span ``cli.import``, binds the
benchmark's wrappers into every covertsense module, runs
``covertsense.cli.main(ARGS)`` and writes the spans to SPANS_PATH as JSON.
Its stdout must equal the plain CLI's byte for byte; the benchmark checks
that on every traced op.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import covertsense.cli

    imported = time.perf_counter()
    # Imported after the timed import, so modules it loads do not make the
    # package import look cheaper.
    from tracer import Installed, Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.record("cli.import", start, imported)
    try:
        with Installed(tracer):
            return covertsense.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.columns(), handle)


if __name__ == "__main__":
    sys.exit(main())
