"""One pass of one workload, in a fresh single-threaded process.

    python3 -I perfbench/child.py <setup|plain|traced> '<spec as JSON>'

Imports the package from ``src/`` of the checkout this file sits in, then
(except in ``setup`` mode) runs the workload's ops once, timed, with spans
in ``traced`` mode, and then their oracles.  Prints one JSON line: the
monotonic clock reading at which the imports finished and a speed sample
(mean of several) taken right then, and for a pass its op time (raw and at reference speed),
peak RSS, per-op times and failures, and the per-layer metrics.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import catalan_stanley  # noqa: E402  (imports every layer)
import mpmath  # noqa: E402,F401
import numpy  # noqa: E402,F401

READY = time.monotonic()
SPEED_SAMPLES = 8  # speed samples taken right after the imports

import json  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    mode, spec = argv[1], json.loads(argv[2])
    if not Path(catalan_stanley.__file__).resolve().is_relative_to(SRC):
        print(f"imported {catalan_stanley.__file__}, not the package in {SRC}", file=sys.stderr)
        return 2
    speed.sample()  # the first sample in a process pays one-time costs
    report = {"ready": READY, "ready_sample": speed.mean_sample(SPEED_SAMPLES)}
    if mode != "setup":
        ops = workloads.build(spec)
        tracer = tracing.Tracer() if mode == "traced" else None
        if tracer is not None:
            tracer.install()
        try:
            outputs, result = workloads.run_ops(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # peak RSS of the ops alone: the oracles below may allocate more
        report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workloads.check_ops(ops, outputs, result)
        report.update(
            wall_s=result.wall_s,
            ref_wall_s=result.ref_wall_s,
            ops=[op.name for op in ops],
            seconds=result.seconds,
            errors=result.errors,
            wrong=result.wrong,
        )
        if tracer is not None:
            report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
