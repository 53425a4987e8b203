"""Self-test of the benchmark at tiny sizes, in about half a minute.

    python3 perfbench/selftest.py

Checks that a run prints every metric named in BENCHMARK.json with its unit,
in both the untraced and the traced mode, and that a deliberately corrupted
output of each workload is counted as a failed op.  The repository's pytest
run does not collect it: its tests live under ``tests/``.
"""

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "census": {"size": 7, "depths": [1, 2, 3]},
    "exact": {
        "ancestor_sizes": [6, 9],
        "depths": [1, 2],
        "age_sizes": [10, 30],
        "precision": 60,
        "asym_size": 1000,
        "asym_depth": 2,
    },
    "monte-carlo": {
        "size": 60,
        "count": 200,
        "calls": 2,
        "depths": [1, 3],
        "tree_size": 12,
        "tree_count": 20,
        "cli_size": 15,
        "cli_count": 5,
    },
    "verify": {"argv": ["--max-size", "6", "--max-r", "2", "--order", "8"]},
}


def tiny_spec(workload: str) -> dict:
    return {"workload": workload, "seed": 7, **TINY[workload]}


def check_metrics_printed() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in declared[section]}
        for workload in TINY:
            out = io.StringIO()
            run.report(tiny_spec(workload), 0.0, trace, out)
            result = json.loads(out.getvalue().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, out.getvalue()
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == wanted, (workload, section, printed)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
                assert f" {name} " in out.getvalue(), name
            if trace:
                check_isolation(workload, {k: m["value"] for k, m in result["metrics"].items()})


def check_isolation(workload: str, layer: dict) -> None:
    """The layers each workload was designed to use, or to leave alone."""
    if workload in ("census", "monte-carlo"):
        assert layer["series.calls"] == 0, (workload, layer)
    if workload == "census":
        assert layer["enumeration.trees_out"] >= 2 * workloads.catalan(5), layer
    if workload == "exact":
        assert layer["enumeration.trees_out"] == 0, layer
        assert layer["stats.pmf_entries"] > 0 and layer["series.terms_out"] > 0, layer
    if workload == "monte-carlo":
        assert layer["enumeration.draws_out"] == 2 * 2 * 200 + 20 + 5, layer
    if workload == "verify":
        # verify reaches stats and series through its own `from .x import`
        # bindings, so these spans exist only if those bindings are wrapped
        assert layer["stats.calls"] > 0 and layer["series.calls"] > 0, layer
        assert layer["verify.checks"] > 0 and layer["verify.failed"] == 0, layer
    assert layer["cli.calls"] >= 1 and layer["cli.bytes_out"] > 0, (workload, layer)


def _bump_last_mass(text: str) -> str:
    lines = text.splitlines()
    value, numerator, denominator = lines[-1].split(",")
    lines[-1] = f"{value},{int(numerator) + 1},{denominator}"
    return "\n".join(lines)


def _swap_first_masses(text: str) -> str:
    header, first, second, *rest = text.splitlines()
    v1, m1 = first.split(",", 1)
    v2, m2 = second.split(",", 1)
    return "\n".join([header, f"{v1},{m2}", f"{v2},{m1}", *rest])


def _drop_a_line(text: str) -> str:
    return "\n".join(text.splitlines()[1:])


def _zero_a_draw(draws):
    draws = draws.copy()
    draws[0] = 0
    return draws


def _one_failed_check(text: str) -> str:
    *body, last = text.splitlines()
    passed = int(last.split()[1])
    return "\n".join([*body, f"passed {passed - 1} failed 1"])


CORRUPTIONS = [
    ("exact", "ancestor --size 9 --depth 1", _bump_last_mass),  # masses no longer sum to 1
    ("exact", "age --size 30", _swap_first_masses),  # sum kept, mean moved
    ("census", "enumerate --size 7", _drop_a_line),
    ("monte-carlo", "sample_reduced_sizes r=3 call=0", _zero_a_draw),
    ("verify", "verify --max-size 6 --max-r 2 --order 8", _one_failed_check),
]


def check_corruption_counted() -> None:
    for workload, target, corrupt in CORRUPTIONS:
        ops = workloads.build(tiny_spec(workload))
        assert target in [op.name for op in ops], (workload, target)
        ops = [
            workloads.Op(op.name, lambda op=op: corrupt(op.run()), op.check)
            if op.name == target
            else op
            for op in ops
        ]
        outputs, result = workloads.run_ops(ops)
        workloads.check_ops(ops, outputs, result)
        assert not result.errors, result.errors
        assert set(result.wrong) == {target}, (target, result.wrong)


def main() -> int:
    check_corruption_counted()
    check_metrics_printed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
