"""Workloads of the benchmark: the ops each one runs and their output oracles.

A workload is a list of ops run one after another in a single process, a
closed loop with one client.  Every op has an oracle that checks its output
through an independent exact route; the oracles run after the timed ops, so
their cost is never measured.  Ops call the package through module
attributes looked up at call time (``cli.run``, ``tree.age``), which is what
lets the traced run substitute its span wrappers.

See README.md in this directory for why each workload exists and which
layer each one stresses.
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath

from catalan_stanley import cli, enumeration, stats, tree, verify

import speed

# Agreement asked of the `constants` output with the published digits.
CONSTANT_DIGITS = 48
# Width of the band, in standard errors, for a Monte-Carlo sample mean.
MEAN_BAND_SE = 5
# Relative agreement asked of an asymptotic estimate at n = 1000, far looser
# than its O(n^-2) or O(n^-3/2) error there.
ASYM_RTOL = 1e-4


class OpFailed(Exception):
    """An op ran to its end but reported failure (a non-zero exit status)."""


@dataclass(frozen=True)
class Op:
    """One timed call and the oracle for its output.

    ``check(output, outputs)`` returns a description of what is wrong, or
    None; ``outputs`` maps every op name of the pass to its output, for
    checks that pool several ops.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict[str, Any]], str | None]


@dataclass
class PassResult:
    wall_s: float  # sum of the op times
    ref_wall_s: float  # the same at the speed sample's reference speed
    seconds: dict[str, float]
    errors: dict[str, str]  # op raised or exited non-zero
    wrong: dict[str, str]  # op finished but its output failed the oracle


def build(spec: dict[str, Any]) -> list[Op]:
    return _BUILDERS[spec["workload"]](spec)


def run_ops(ops: list[Op]) -> tuple[dict[str, Any], PassResult]:
    """Run the ops in order while sampling the machine's speed.

    A failed op counts with the time it ran; time spent sampling does not.
    """
    outputs: dict[str, Any] = {}
    seconds: dict[str, float] = {}
    errors: dict[str, str] = {}
    with speed.Sampler() as sampler:
        for op in ops:
            start, sampling = time.perf_counter(), sampler.busy_s
            try:
                outputs[op.name] = op.run()
            except Exception as exc:  # an op's failure is a result, not a crash
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            seconds[op.name] = time.perf_counter() - start - (sampler.busy_s - sampling)
    wall_s = sum(seconds.values())
    return outputs, PassResult(wall_s, sampler.scaled(wall_s), seconds, errors, {})


def check_ops(ops: list[Op], outputs: dict[str, Any], result: PassResult) -> None:
    """Run every oracle on the outputs of the ops that finished."""
    for op in ops:
        if op.name in result.errors:
            continue
        try:
            problem = op.check(outputs[op.name], outputs)
        except Exception as exc:  # unparsable output is a wrong output
            problem = f"oracle raised {type(exc).__name__}: {exc}"
        if problem:
            result.wrong[op.name] = problem


def catalan(m: int) -> int:
    """C(m) from the binomial formula, independent of the package."""
    return math.comb(2 * m, m) // (m + 1)


def _cli_op(argv: list[str], check) -> Op:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        status = cli.run(argv, out=out, err=err)
        if status != 0:
            raise OpFailed(f"exit {status}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(" ".join(argv), run, check)


# --- census -------------------------------------------------------------


@dataclass
class Census:
    count: int
    roundtrip_failures: int
    ages: Counter
    reductions: Counter  # number of reduce steps down to the single node
    ancestors: dict[int, Counter]  # r -> histogram of r-th ancestor sizes


def _census_pass(n: int, depths: list[int]) -> Census:
    census = Census(0, 0, Counter(), Counter(), {r: Counter() for r in depths})
    for tau in enumeration.enumerate_trees(n):
        census.count += 1
        if tree.dyck_to_tree(tree.tree_to_dyck(tau)) != tau:
            census.roundtrip_failures += 1
        census.ages[tree.age(tau)] += 1
        steps = 0
        node = tau
        while not node.is_leaf:
            node = tree.reduce(node)
            steps += 1
            if steps in census.ancestors:
                census.ancestors[steps][node.size()] += 1
        census.reductions[steps] += 1
        for r, histogram in census.ancestors.items():
            if steps < r:  # past its age a tree stays the single node
                histogram[1] += 1
    return census


def _scaled_counts(table, total: int) -> Counter | None:
    """pmf times the number of trees, or None if that is not integral."""
    counts = Counter()
    for value, mass in zip(table.support, table.masses):
        count = mass * total
        if count.denominator != 1:
            return None
        counts[value] = int(count)
    return counts


def _check_census(n: int, depths: list[int]):
    def check(census: Census, _outputs) -> str | None:
        total = catalan(n - 2)
        if census.count != total:
            return f"{census.count} trees, expected C({n - 2}) = {total}"
        if census.roundtrip_failures:
            return f"{census.roundtrip_failures} trees fail the Dyck round trip"
        expected = _scaled_counts(stats.age_distribution(n), total)
        if census.ages != expected:
            return "age histogram differs from age_distribution"
        if census.reductions != expected:
            return "reduction-count histogram differs from age_distribution"
        for r in depths:
            if census.ancestors[r] != _scaled_counts(
                stats.ancestor_distribution(n, r), total
            ):
                return f"r={r} ancestor histogram differs from ancestor_distribution"
        return None

    return check


def _check_enumerate(n: int):
    def check(text: str, _outputs) -> str | None:
        lines = text.splitlines()
        if len(lines) != catalan(n - 2):
            return f"{len(lines)} lines, expected C({n - 2}) = {catalan(n - 2)}"
        for a, b in zip(lines, lines[1:]):
            if not a < b:
                return f"lines not strictly ascending at {a!r}, {b!r}"
        for line in lines:
            tau = tree.parse_tree(line)
            if tau.size() != n or not tree.is_catalan_stanley(tau):
                return f"{line!r} is not a Catalan-Stanley tree of size {n}"
        return None

    return check


def _build_census(spec) -> list[Op]:
    n, depths = spec["size"], spec["depths"]
    return [
        _cli_op(["enumerate", "--size", str(n)], _check_enumerate(n)),
        Op(
            f"tree pass over enumerate_trees({n})",
            lambda: _census_pass(n, depths),
            _check_census(n, depths),
        ),
    ]


# --- exact --------------------------------------------------------------


def _parse_pmf(text: str) -> dict[int, Fraction]:
    lines = text.splitlines()
    if lines[0] != "value,numerator,denominator":
        raise ValueError(f"unexpected header {lines[0]!r}")
    pmf = {}
    for line in lines[1:]:
        value, numerator, denominator = line.split(",")
        pmf[int(value)] = Fraction(int(numerator), int(denominator))
    return pmf


def _check_pmf(expected_mean: Callable[[], Fraction]):
    def check(text: str, _outputs) -> str | None:
        pmf = _parse_pmf(text)
        total = sum(pmf.values(), Fraction(0))
        if total != 1:
            return f"masses sum to {float(total)!r}, not 1"
        mean = sum((v * m for v, m in pmf.items()), Fraction(0))
        if mean != expected_mean():
            return f"mean {float(mean)!r} differs from the closed form"
        return None

    return check


def _check_constants(text: str, _outputs) -> str | None:
    values = json.loads(text)
    with mpmath.workdps(CONSTANT_DIGITS + 20):
        for i, reference in enumerate(verify.REFERENCE_CONSTANT_DIGITS):
            got, ref = mpmath.mpf(values[f"c{i}"]), mpmath.mpf(reference)
            if abs(got - ref) > abs(ref) * mpmath.mpf(10) ** -CONSTANT_DIGITS:
                return f"c{i} = {values[f'c{i}']} disagrees within {CONSTANT_DIGITS} digits"
    return None


def _parse_estimates(text: str) -> dict[str, float]:
    lines = text.splitlines()
    if lines[0] != "quantity,value,order":
        raise ValueError(f"unexpected header {lines[0]!r}")
    return {q: float(v) for q, v, _order in (line.split(",") for line in lines[1:])}


def _close(estimate: float, exact: Fraction) -> bool:
    return abs(estimate - float(exact)) <= ASYM_RTOL * abs(float(exact))


def _check_age_asym(n: int):
    def check(text: str, _outputs) -> str | None:
        est = _parse_estimates(text)
        if not _close(est["expected"], stats.expected_age(n)):
            return f"expected {est['expected']!r} far from the exact mean"
        if not _close(est["variance"], stats.age_variance(n)):
            return f"variance {est['variance']!r} far from the exact variance"
        return None

    return check


def _check_ancestor_asym(n: int, r: int):
    def check(text: str, _outputs) -> str | None:
        est = _parse_estimates(text)
        if not _close(est["expected"], stats.expected_ancestor_size(n, r)):
            return f"expected {est['expected']!r} far from the exact mean"
        # the variance expansion is only O(1)-accurate: ask for a finite positive
        if not 0 < est["variance"] < math.inf:
            return f"variance {est['variance']!r} is not positive and finite"
        return None

    return check


def _build_exact(spec) -> list[Op]:
    ops = []
    for n in spec["ancestor_sizes"]:
        for r in spec["depths"]:
            ops.append(
                _cli_op(
                    ["ancestor", "--size", str(n), "--depth", str(r)],
                    _check_pmf(lambda n=n, r=r: stats.expected_ancestor_size(n, r)),
                )
            )
    for n in spec["age_sizes"]:
        ops.append(
            _cli_op(
                ["age", "--size", str(n)],
                _check_pmf(lambda n=n: stats.expected_age(n)),
            )
        )
    ops.append(_cli_op(["constants", "--precision", str(spec["precision"])], _check_constants))
    n, r = spec["asym_size"], spec["asym_depth"]
    ops.append(_cli_op(["age", "--size", str(n), "--asym"], _check_age_asym(n)))
    ops.append(
        _cli_op(
            ["ancestor", "--size", str(n), "--depth", str(r), "--asym"],
            _check_ancestor_asym(n, r),
        )
    )
    return ops


# --- monte-carlo --------------------------------------------------------
# Checks are distributional, never pinned to particular draws, so a sampler
# that draws differently from the same seed still passes.


def _reduced_size_name(r: int, i: int) -> str:
    return f"sample_reduced_sizes r={r} call={i}"


def _check_reduced_sizes(n: int, r: int, count: int, calls: int):
    def check(draws, outputs) -> str | None:
        if len(draws) != count:
            return f"{len(draws)} draws, expected {count}"
        top = stats.max_ancestor_size(n, r)
        if min(draws) < 1 or max(draws) > top:
            return f"a draw lies outside [1, {top}]"
        pooled = [
            int(x)
            for i in range(calls)
            for x in outputs.get(_reduced_size_name(r, i), ())
        ]
        mean = statistics.fmean(pooled)
        spread = statistics.stdev(pooled) / math.sqrt(len(pooled))
        exact = float(stats.expected_ancestor_size(n, r))
        if abs(mean - exact) > MEAN_BAND_SE * spread:
            return (
                f"pooled mean {mean:.3f} of {len(pooled)} draws is more than "
                f"{MEAN_BAND_SE} standard errors ({spread:.3f}) from {exact:.3f}"
            )
        return None

    return check


def _check_trees(size: int, count: int):
    def check(trees, _outputs) -> str | None:
        if len(trees) != count:
            return f"{len(trees)} trees, expected {count}"
        for tau in trees:
            if tau.size() != size or not tree.is_catalan_stanley(tau):
                return f"{tau!r} is not a Catalan-Stanley tree of size {size}"
        return None

    return check


def _check_sample_text(size: int, count: int):
    tree_check = _check_trees(size, count)

    def check(text: str, outputs) -> str | None:
        return tree_check([tree.parse_tree(line) for line in text.splitlines()], outputs)

    return check


def _build_monte_carlo(spec) -> list[Op]:
    rng = random.Random(spec["seed"])
    n, count, calls = spec["size"], spec["count"], spec["calls"]
    ops = []
    for r in spec["depths"]:
        for i in range(calls):
            seed = rng.randrange(2**63)
            ops.append(
                Op(
                    _reduced_size_name(r, i),
                    lambda seed=seed, r=r: enumeration.sample_reduced_sizes(
                        n, count, seed=seed, r=r
                    ),
                    _check_reduced_sizes(n, r, count, calls),
                )
            )
    size, many, seed = spec["tree_size"], spec["tree_count"], rng.randrange(2**63)
    ops.append(
        Op(
            f"sample_trees({size}, {many})",
            lambda size=size, many=many, seed=seed: enumeration.sample_trees(
                size, many, seed=seed
            ),
            _check_trees(size, many),
        )
    )
    size, many, seed = spec["cli_size"], spec["cli_count"], rng.randrange(2**63)
    argv = ["sample", "--size", str(size), "--count", str(many), "--seed", str(seed)]
    ops.append(_cli_op(argv, _check_sample_text(size, many)))
    return ops


# --- verify -------------------------------------------------------------


def _check_verify(text: str, _outputs) -> str | None:
    last = text.splitlines()[-1]
    words = last.split()
    if len(words) != 4 or words[0] != "passed" or words[2:] != ["failed", "0"]:
        return f"summary line is {last!r}"
    if int(words[1]) < 1:
        return "no check ran"
    return None


def _build_verify(spec) -> list[Op]:
    return [_cli_op(["verify", *spec["argv"]], _check_verify)]


_BUILDERS = {
    "census": _build_census,
    "exact": _build_exact,
    "monte-carlo": _build_monte_carlo,
    "verify": _build_verify,
}
