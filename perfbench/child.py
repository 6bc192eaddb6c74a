"""Fresh-interpreter helpers that run.py starts as subprocesses.

    python3 perfbench/child.py setup WORKLOAD
        Import ``entconc.cli`` and run the workload's warm-up calls; print the
        seconds this took, measured inside the new interpreter.
    python3 perfbench/child.py trace SPANS_JSON -- ENTCONC_ARGS...
        Run one ``entconc`` command with every layer traced, write the spans
        to SPANS_JSON and exit with the command's exit code.

Both expect ``PYTHONPATH`` to point at the ``src`` directory under test.
"""

from __future__ import annotations

import sys
import time


def setup(workload: str) -> int:
    start = time.perf_counter()
    import contextlib
    import io

    import entconc.cli

    from workloads import WARM_UP

    for argv in WARM_UP[workload]:
        with contextlib.redirect_stdout(io.StringIO()):
            if entconc.cli.main(argv) != 0:
                print(f"warm-up {argv} failed", file=sys.stderr)
                return 1
    print(time.perf_counter() - start)
    return 0


def trace(spans_path: str, argv: list[str]) -> int:
    import json

    import entconc.cli

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        return entconc.cli.main(argv)
    finally:
        tracer.op_id = None
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    if sys.argv[1] == "trace" and sys.argv[3] == "--":
        sys.exit(trace(sys.argv[2], sys.argv[4:]))
    sys.exit(f"usage: {sys.argv[0]} setup WORKLOAD | trace SPANS_JSON -- ARGS...")
