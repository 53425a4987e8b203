"""Benchmark of the catalan-stanley library and CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of a workload is a fresh
single-threaded child process (``child.py``) that imports the package from
``src/``, runs the workload's ops one after another and checks every output
against an independent exact route.  Passes repeat until the next one would
end after ``--seconds``; there is always at least one.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones: ``setup_s`` (child start until ``catalan_stanley``,
``numpy`` and ``mpmath`` are imported, median over at least five children),
``wall_s`` (first op start to last op end, median over passes),
``peak_rss_mib`` (median over passes) and ``ok_frac`` (ops that neither
failed nor gave a wrong output, over ops attempted); the two times are
scaled to a reference machine speed, see ``speed.py``.  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer ones
of the traced passes plus the tracing overhead.  ``--workload all`` runs
every workload in turn.  Lines above the last one are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402

# Default inputs per workload; README.md says why each exists.  Sizes keep one
# pass between about four and fifteen seconds on one core, so that a run of
# 30 seconds takes the median of two passes or more.
WORKLOADS: dict[str, dict[str, Any]] = {
    "census": {"size": 13, "depths": [1, 2, 3]},
    "exact": {
        "ancestor_sizes": [40, 60, 80],
        "depths": [1, 2, 4],
        "age_sizes": [1000, 2000, 4000, 10000],
        "precision": 60,
        "asym_size": 1000,
        "asym_depth": 2,
    },
    "monte-carlo": {
        "size": 10**4,
        "count": 500,
        "calls": 5,
        "depths": [1, 3],
        "tree_size": 1000,
        "tree_count": 500,
        "cli_size": 2000,
        "cli_count": 100,
    },
    "verify": {"argv": []},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio"}
SETUP_SAMPLES = 5
# A run must end within 180 s; no child may outlive this share of it.
RUN_LIMIT_S = 170.0
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spec_for(workload: str, seed: int) -> dict[str, Any]:
    return {"workload": workload, "seed": seed, **WORKLOADS[workload]}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def _spawn(mode: str, spec: dict[str, Any], deadline: float) -> dict[str, Any]:
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(CHILD), mode, json.dumps(spec)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD_ENV},
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} pass of {spec['workload']} ran out of time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    report["ref_setup_s"] = speed.scaled(report["setup_s"], report["ready_sample"])
    return report


def measure(spec: dict[str, Any], seconds: float, trace: bool):
    """Run passes for about `seconds`.

    Returns the result object, then the reports of the untraced passes, of
    the traced passes and of every child, set-up-only ones included.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while not plain or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        plain.append(_spawn("plain", spec, deadline))
        if trace:
            traced.append(_spawn("traced", spec, deadline))
        longest = max(longest, time.monotonic() - t0)
    children = plain + traced
    while len(children) < SETUP_SAMPLES:
        children.append(_spawn("setup", spec, deadline))

    passes = plain + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["errors"]) + len(p["wrong"]) for p in passes)
    if trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in tracing.metric_names()
        }
        traced_wall = statistics.median(p["ref_wall_s"] for p in traced)
        metrics["tracing.wall_s"] = traced_wall
        metrics["tracing.overhead_s"] = traced_wall - statistics.median(
            p["ref_wall_s"] for p in plain
        )
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(c["ref_setup_s"] for c in children),
            "wall_s": statistics.median(p["ref_wall_s"] for p in plain),
            "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in plain) / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return result, plain, traced, children


def report(spec: dict[str, Any], seconds: float, trace: bool, out) -> dict[str, Any]:
    """Measure one workload, print a summary for people, then the JSON line."""
    result, plain, traced, children = measure(spec, seconds, trace)
    passes = plain + traced
    print(
        f"== {spec['workload']} seed={spec['seed']} trace={int(trace)} "
        f"passes={len(plain)} untraced, {len(traced)} traced; untraced op medians:",
        file=out,
    )
    for name in plain[0]["ops"]:
        median = statistics.median(p["seconds"][name] for p in plain)
        print(f"   {median:10.4f} s  {name}", file=out)
    problems = sorted({(k, v) for p in passes for k, v in {**p["errors"], **p["wrong"]}.items()})
    for name, problem in problems:
        print(f"   FAILED {name}: {problem}", file=out)
    failed, attempted = result["failed"], result["attempted"]
    print(f"   failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} ops)", file=out)
    print(
        f"   as measured: setup_s {statistics.median(c['setup_s'] for c in children):.4f} s, "
        f"wall_s {statistics.median(p['wall_s'] for p in plain):.4f} s; "
        f"speed sample {statistics.median(c['ready_sample'] for c in children):.4f} s "
        f"(reference {speed.REFERENCE_SAMPLE_S} s)",
        file=out,
    )
    for name, metric in result["metrics"].items():
        print(f"   {name} {metric['value']:.6g} {metric['unit']}", file=out)
    print(json.dumps(result), file=out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catalan_stanley" / "__init__.py").is_file():
        print(f"no catalan_stanley package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report(spec_for(name, args.seed), args.seconds, bool(args.trace), sys.stdout)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
