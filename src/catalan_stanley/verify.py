"""Cross-module verification harness.

Every closed formula in the package has at least one independent route:
exhaustive enumeration for small sizes, coefficient extraction from the
series engine, the binomial sums, and the sampler.  This module runs all
of those comparisons and reports each as a named check; the CLI `verify`
subcommand maps a failed check to a nonzero exit status.  The checks of
the limit constants compare rationals: printed digits are parsed as
`Fraction`s, and the survival expansion h(r) - g(r)/n is held to its
error term against exact counts.  The sampler checks read their
chi-square p-values from the closed form of the upper tail for integer df.

The tree and stats layers read the census, which is cached per size in
the calling process.  The series, asymptotics and sampler layers read
none of it, so where two CPUs or more are usable, the fork start method
exists and no other thread is alive, `run_verification` runs them in one
forked worker process while the caller runs the census layers, then
appends the worker's checks in their serial order; if the worker dies,
the caller runs its layers.  Otherwise all five run in the caller, one
after another.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import asymptotics
from . import tree as tree_ops
from .enumeration import (
    _ancestor_size_from_tokens,
    count_trees,
    enumerate_trees,
    plane_trees,
    sample_reduced_sizes,
    sample_trees,
)
from .series import (
    BivariateSeries,
    TruncatedSeries,
    phi_apply,
    phi_power,
    series_F_geq,
    series_F_leq,
    series_S,
    series_T,
)
from .stats import (
    _ancestor_counts,
    _survival_counts,
    age_distribution,
    ancestor_distribution,
    age_variance,
    expected_age,
    expected_age_via_survivals,
    expected_ancestor_size,
    max_ancestor_size,
)
from .tree import dyck_to_tree, has_odd_returns, is_catalan_stanley, tree_to_dyck

__all__ = ["Check", "VerifyReport", "run_verification", "REFERENCE_CONSTANT_DIGITS"]

# published 50-digit reference values for c0..c3
REFERENCE_CONSTANT_DIGITS = (
    "2.7182536428679528526648361928219367344585435680344",
    "-4.2220971510158840823821873477600478080816411210406",
    "0.91845604214374797357797147814019496503688953933967",
    "-9.1621753200836274996912436568310268988536534594942",
)

_LADDER = (100, 200, 400, 800)


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    params: str
    passed: bool
    lhs: str
    rhs: str

    def to_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} [{self.params}] lhs={self.lhs} rhs={self.rhs}"


@dataclass
class VerifyReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, params: str, lhs, rhs, passed: bool | None = None) -> None:
        if passed is None:
            passed = lhs == rhs
        self.checks.append(Check(name, params, passed, str(lhs), str(rhs)))

    @property
    def num_passed(self) -> int:
        return sum(c.passed for c in self.checks)

    @property
    def num_failed(self) -> int:
        return len(self.checks) - self.num_passed

    @property
    def ok(self) -> bool:
        return self.num_failed == 0

    def to_text(self) -> str:
        lines = [c.to_line() for c in self.checks]
        lines.append(f"passed {self.num_passed} failed {self.num_failed}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "checks": [asdict(c) for c in self.checks],
                "passed": self.num_passed,
                "failed": self.num_failed,
            }
        )


# the Dyck round trip is checked, and `bijection_roundtrip` reported, up to this size
_ROUNDTRIP_MAX_SIZE = 12


@dataclass(frozen=True)
class _Census:
    """Everything the checks need from one exhaustive enumeration pass.

    `chains` counts reduction chains: for each tree, the sizes after each
    `reduce`, down to the root.  A chain's length is the tree's age and its
    r-th entry the r-th ancestor size, so every depth is read from it.
    `count` counts every tree enumerated; a tree outside the class clears
    `all_valid` and enters no histogram.  `roundtrip_ok` covers sizes up to
    `_ROUNDTRIP_MAX_SIZE` only.
    """

    count: int
    all_valid: bool
    roundtrip_ok: bool
    age_match: bool
    closure_ok: bool
    contraction_ok: bool
    age_formula: Counter
    chains: Counter

    @property
    def age_iterated(self) -> Counter:
        ages: Counter = Counter()
        for chain, k in self.chains.items():
            ages[len(chain)] += k
        return ages

    def ancestor_sizes(self, r: int) -> Counter:
        """Histogram of the r-th ancestor size, r >= 1; past the root it is 1."""
        sizes: Counter = Counter()
        for chain, k in self.chains.items():
            sizes[chain[r - 1] if r <= len(chain) else 1] += k
        return sizes

    def ancestor_sum(self, r: int) -> int:
        return sum(m * k for m, k in self.ancestor_sizes(r).items())


def _contracts(before: int, after: int) -> bool:
    """One reduction takes 2 nodes to 1 and removes at least two otherwise."""
    return after == 1 if before == 2 else after <= before - 2


@functools.cache
def _census(n: int) -> _Census:
    """The census of all trees of size n >= 2, through `reduce`."""
    all_valid = roundtrip_ok = age_match = closure_ok = contraction_ok = True
    age_formula: Counter = Counter()
    chains: Counter = Counter()
    # the chain from each distinct first ancestor down, keyed by its depth
    # string (one character per node); closure and contraction along it are
    # checked once
    chain_from: dict[str, tuple[int, ...]] = {}
    count = 0
    for tau in enumerate_trees(n):
        count += 1
        if n <= _ROUNDTRIP_MAX_SIZE:
            roundtrip_ok &= dyck_to_tree(tree_to_dyck(tau)) == tau
        if not is_catalan_stanley(tau):
            all_valid = False  # `age` and `reduce` are defined on the class only
            continue
        by_formula = tree_ops.age(tau)
        age_formula[by_formula] += 1
        first = tree_ops.reduce(tau)
        key = first._depth_string()
        contraction_ok &= _contracts(n, first.size())
        if key not in chain_from:
            sizes = [first.size()]
            current = first
            # a chain that leaves the class stops there: `reduce` is not defined past it
            while is_catalan_stanley(current) and not current.is_leaf:
                current = tree_ops.reduce(current)
                sizes.append(current.size())
                contraction_ok &= _contracts(sizes[-2], sizes[-1])
            closure_ok &= current.is_leaf
            chain_from[key] = tuple(sizes)
        chain = chain_from[key]
        chains[chain] += 1
        age_match &= by_formula == len(chain)
    return _Census(
        count, all_valid, roundtrip_ok, age_match, closure_ok, contraction_ok, age_formula, chains
    )


def _check_tree_layer(report: VerifyReport, max_size: int) -> None:
    for n in range(2, max_size + 1):
        c = _census(n)
        report.add(f"count({n})", f"n={n}", c.count, count_trees(n))
        report.add(f"enumerated_valid({n})", f"n={n}", c.all_valid, True)
        if n <= _ROUNDTRIP_MAX_SIZE:
            report.add(f"bijection_roundtrip({n})", f"n={n}", c.roundtrip_ok, True)
        report.add(f"closure({n})", f"n={n}", c.closure_ok, True)
        report.add(f"contraction({n})", f"n={n}", c.contraction_ok, True)
        report.add(
            f"age_consistency({n})",
            f"n={n}",
            (c.age_match, sorted(c.age_formula.items())),
            (True, sorted(c.age_iterated.items())),
        )
        ages = c.age_formula  # empty if the stream held no tree of the class
        report.add(
            f"age_bounds({n})",
            f"n={n}",
            (min(ages, default=None), max(ages, default=None)),
            (1, n // 2),
        )
    for n in range(1, min(10, max_size) + 1):
        flags_ok = all(
            is_catalan_stanley(tau) == has_odd_returns(tree_to_dyck(tau))
            for tau in plane_trees(n)
        )
        report.add(f"parity_correspondence({n})", f"n={n}", flags_ok, True)


def _check_stats_layer(report: VerifyReport, max_size: int, max_r: int) -> None:
    survival_series = {
        r: series_F_geq(r, max_size) for r in range(1, max_r + 1)
    }
    for n in range(2, max_size + 1):
        c = _census(n)
        survivals = _survival_counts(n) + [0] * max_r  # f(n, r) is 0 past n/2
        for r in range(1, max_r + 1):
            brute = sum(v for a, v in c.age_formula.items() if a >= r)
            formula = survivals[r - 1]
            report.add(f"f({n},{r})={brute}", f"n={n} r={r}", brute, formula)
            report.add(
                f"f_series({n},{r})",
                f"n={n} r={r}",
                brute,
                survival_series[r].coefficient(n),
            )
        total = c.count
        if not total:
            continue  # no tree to average over; count(n) and f(n, r) fail already
        brute_mean = Fraction(sum(a * v for a, v in c.age_formula.items()), total)
        table = age_distribution(n)
        report.add(
            f"expected_age({n})",
            f"n={n}",
            (expected_age(n), table.mean()),
            (brute_mean, brute_mean),
        )
        brute_second = Fraction(
            sum(a * a * v for a, v in c.age_formula.items()), total
        )
        report.add(
            f"age_variance({n})",
            f"n={n}",
            age_variance(n),
            brute_second - brute_mean * brute_mean,
        )
        brute_pmf = {
            a: Fraction(v, total) for a, v in sorted(c.age_formula.items())
        }
        report.add(
            f"age_pmf({n})",
            f"n={n}",
            dict(zip(table.support, table.masses)),
            brute_pmf,
        )
        for r in range(1, min(3, max_r) + 1):
            brute_mean_r = Fraction(c.ancestor_sum(r), total)
            report.add(
                f"ancestor_mean({n},{r})",
                f"n={n} r={r}",
                expected_ancestor_size(n, r),
                brute_mean_r,
            )
            dist = ancestor_distribution(n, r)
            brute_sizes = {
                m: Fraction(v, total) for m, v in sorted(c.ancestor_sizes(r).items())
            }
            report.add(
                f"ancestor_pmf({n},{r})",
                f"n={n} r={r}",
                dict(zip(dist.support, dist.masses)),
                brute_sizes,
            )
        for r in range(1, max_r + 1):
            sizes = c.ancestor_sizes(r)
            low, high = min(sizes, default=None), max(sizes, default=None)
            upper = n - 2 * (r - 1) - 1
            within = bool(sizes) and low >= 1 and high <= max(upper, 1)
            report.add(
                f"ancestor_bounds({n},{r})",
                f"n={n} r={r}",
                (within, low, high),
                (True, 1, max_ancestor_size(n, r)),
            )
    for n in _LADDER:
        report.add(
            f"expected_age_vs_survivals({n})",
            f"n={n}",
            expected_age(n),
            expected_age_via_survivals(n),
        )


def _check_series_layer(report: VerifyReport, max_r: int, order: int) -> None:
    t = series_T(order)
    report.add(
        "T_functional_equation",
        f"order={order}",
        TruncatedSeries.z(order) + t * t,
        t,
    )
    s = series_S(order)
    diagonal = s.diagonal()
    counts = TruncatedSeries(
        [0] + [count_trees(n) for n in range(1, order + 1)], order
    )
    report.add("S_diagonal_counts", f"order={order}", diagonal, counts)

    fixed_order = min(order, 20)
    s_fixed = series_S(fixed_order)
    report.add(
        "phi_fixed_point", f"order={fixed_order}", phi_apply(s_fixed), s_fixed
    )

    iter_order = min(order, 12)
    inputs = (
        ("z", BivariateSeries.monomial(1, 0, iter_order)),
        ("zt", BivariateSeries.monomial(1, 1, iter_order)),
        ("S", series_S(iter_order)),
    )
    # Phi^r of each input, one application per step
    iterated = [f for _, f in inputs]
    for r in range(0, min(5, max_r) + 1):
        if r:
            iterated = [phi_apply(f) for f in iterated]
        for (label, f), f_r in zip(inputs, iterated):
            report.add(
                f"phi_power_vs_iterated({label},{r})",
                f"r={r} order={iter_order}",
                phi_power(f, r),
                f_r,
            )
    stable_r = order // 2 + 1
    f_leq = [series_F_leq(r, order) for r in range(max(max_r, stable_r) + 1)]
    # [z^(n-k) t^k] of F_leq(a) and of S count the size-n trees with k root branches
    # and age <= a, and all of them; as a (k, age) histogram, ages past max_r at max_r + 1
    for n in range(1, min(10, order) + 1):
        by_series = {}
        for k in range(n + 1):
            at_most = [0] + [f.coefficient(n - k, k) for f in (*f_leq[: max_r + 1], s)]
            for a, (lo, hi) in enumerate(zip(at_most, at_most[1:])):
                if hi != lo:
                    by_series[k, a] = hi - lo
        by_trees = Counter((len(tau.children), min(tree_ops.age(tau), max_r + 1))
                           for tau in enumerate_trees(n) if is_catalan_stanley(tau))
        report.add(f"branch_age_counts({n})", f"n={n} r<={max_r} order={order}",
                   by_series, dict(sorted(by_trees.items())))
    f_leq_diag = [f.diagonal() for f in f_leq]
    monotone = all(
        current.coefficient(n) >= previous.coefficient(n)
        for previous, current in zip(f_leq_diag, f_leq_diag[1 : stable_r + 1])
        for n in range(order + 1)
    )
    report.add("F_leq_monotone", f"order={order}", monotone, True)
    report.add("F_leq_stabilizes", f"order={order}", f_leq_diag[stable_r], diagonal)
    for r in range(1, max_r + 1):
        report.add(
            f"F_geq_identity({r})",
            f"r={r} order={order}",
            series_F_geq(r, order),
            diagonal - f_leq_diag[r - 1],
        )
    # G_0 = S(zv, zv): with no reduction every tree is its own ancestor
    g0_order = min(order, 12)
    diag_ok = all(
        _ancestor_counts(n, 0) == {n: count_trees(n)} for n in range(1, g0_order + 1)
    )
    report.add("G0_is_diagonal", f"order={g0_order}", diag_ok, True)


def _check_asymptotics_layer(report: VerifyReport, max_r: int) -> None:
    for i in range(4):
        computed = asymptotics.constant_digits(i, 30)
        error = abs(Fraction(computed) - Fraction(REFERENCE_CONSTANT_DIGITS[i]))
        report.add(f"constant_c{i}_digits", "digits=30", error < Fraction(1, 10**28), True)

    # f(n,r)/C(n-2) = h(r) - g(r)/n + O(r^5 3^-r n^-2) with constant 1; f is 0 past n/2
    worst = max(
        n * n * 3**r / r**5 * abs(Fraction(f, count_trees(n)) - asymptotics.survival_leading(r)
                                  + asymptotics.survival_correction(r) / n)
        for n in _LADDER for r, f in zip(range(1, max_r + 1), _survival_counts(n) + [0] * max_r)
    )
    report.add("survival_expansion", f"ladder={_LADDER} r<={max_r}", f"{float(worst):.4f}",
               "<=1", worst <= 1)

    c0, c1, c2, c3 = (Fraction(asymptotics.constant_digits(i, 40)) for i in range(4))
    mean_errors = [abs(expected_age(n) - (c0 + c1 / n)) for n in _LADDER]
    var_errors = [abs(age_variance(n) - (c2 + c3 / n)) for n in _LADDER]
    mean_ratios = [float(a / b) for a, b in zip(mean_errors, mean_errors[1:])]
    var_ratios = [float(a / b) for a, b in zip(var_errors, var_errors[1:])]
    report.add(
        "age_mean_convergence",
        f"ladder={_LADDER}",
        all(2.5 <= q <= 6.0 for q in mean_ratios),
        True,
    )
    report.add(
        "age_variance_convergence",
        f"ladder={_LADDER}",
        all(2.5 <= q <= 6.0 for q in var_ratios),
        True,
    )

    ancestor_errors = []
    for n in _LADDER:
        expansion = asymptotics.expected_ancestor_asym(n, 1).value
        ancestor_errors.append(abs(float(expected_ancestor_size(n, 1)) - expansion))
    decays = all(a / b >= 2**1.5 / 2 for a, b in zip(ancestor_errors, ancestor_errors[1:]))
    report.add("ancestor_mean_convergence", f"ladder={_LADDER}", decays, True)


def _chi_square_pvalue(observed: list[int], expected: list[float]) -> float:
    """Upper tail of the chi-square law at the Pearson statistic, df =
    categories - 1, from the closed form for integer df: Q(a, x) for a =
    df/2 starts at erfc(sqrt x) (a = 1/2) or e^-x (a = 1) and steps by
    Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1)."""
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    df = len(observed) - 1
    x = statistic / 2
    if df % 2:
        a, tail, term = 0.5, math.erfc(math.sqrt(x)), 2 * math.sqrt(x / math.pi) * math.exp(-x)
    else:
        a, tail, term = 1, math.exp(-x), x * math.exp(-x)
    while a < df / 2:
        tail += term
        a += 1
        term *= x / a
    return tail


def _check_sampler_layer(report: VerifyReport) -> None:
    first = sample_trees(30, 1, 12345)[0]
    second = sample_trees(30, 1, 12345)[0]
    report.add("sampler_deterministic", "size=30 seed=12345", first.serialize(), second.serialize())

    samples = sample_trees(18, 500, seed=7)
    report.add(
        "sampler_valid",
        "size=18 count=500",
        all(is_catalan_stanley(t) and t.size() == 18 for t in samples),
        True,
    )

    n, draws = 5, 20000
    observed_counter = Counter(t.serialize() for t in sample_trees(n, draws, seed=11))
    keys = [t.serialize() for t in enumerate_trees(n)]
    observed = [observed_counter.get(k, 0) for k in keys]
    expected = [draws / len(keys)] * len(keys)
    p_value = _chi_square_pvalue(observed, expected)
    report.add("sampler_uniform(5)", f"draws={draws}", p_value >= 0.001, True)

    token_census_ok = True
    for n in range(2, 11):
        child_sizes = [[c.size() for c in tau.children] for tau in plane_trees(n - 1)]
        for r in (1, 2, 3):
            via_tokens = Counter(_ancestor_size_from_tokens(s, r) for s in child_sizes)
            if via_tokens != _census(n).ancestor_sizes(r):
                token_census_ok = False
    report.add("reduced_size_bijection", "n<=10 r<=3", token_census_ok, True)

    exact = ancestor_distribution(9, 1)
    draws = 20000
    empirical = Counter(int(x) for x in sample_reduced_sizes(9, draws, seed=99))
    observed = [empirical.get(m, 0) for m in exact.support]
    expected = [float(p) * draws for p in exact.masses]
    leak = draws - sum(observed)
    p_value = _chi_square_pvalue(observed, expected) if leak == 0 else 0.0
    report.add("reduced_size_sampler(9,1)", f"draws={draws}", p_value >= 0.001, True)


def _census_free_checks(max_r: int, order: int) -> list[Check]:
    """The series, asymptotics and sampler layers, which read no census but
    `reduced_size_bijection`'s sizes up to 10."""
    report = VerifyReport()
    _check_series_layer(report, max_r, order)
    _check_asymptotics_layer(report, max_r)
    _check_sampler_layer(report)
    return report.checks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_pool():
    """One forked worker process, or None where the layers should run serially:
    a single usable CPU, no fork start method, or other live threads, which a
    fork can deadlock.  Only a fork carries the module state, patches included,
    into the worker."""
    if _usable_cpus() < 2 or threading.active_count() > 1:
        return None
    # imported here, not with the module: it would add about 18 ms to every import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))


def run_verification(max_size: int = 12, max_r: int = 5, order: int = 16) -> VerifyReport:
    """Run the whole invariant suite; see the CLI `verify` subcommand.

    The checks, their order and any error a layer raises are those of a
    serial run, whichever process ran the layer.
    """
    if max_size < 4:
        raise ValueError("max_size must be at least 4")
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    if order < 4:
        raise ValueError("order must be at least 4")
    report = VerifyReport()
    pool = _fork_pool()
    if pool is None:
        _check_tree_layer(report, max_size)
        _check_stats_layer(report, max_size, max_r)
        report.checks += _census_free_checks(max_r, order)
        return report
    from concurrent.futures import BrokenExecutor

    with pool:
        rest = pool.submit(_census_free_checks, max_r, order)
        _check_tree_layer(report, max_size)
        _check_stats_layer(report, max_size, max_r)
        try:
            report.checks += rest.result()
        except BrokenExecutor:  # the worker died (a signal, say): run its layers here
            report.checks += _census_free_checks(max_r, order)
    return report
