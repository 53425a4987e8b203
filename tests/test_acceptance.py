"""Acceptance suite: one test per criterion, printing one line each.

Run `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Everything except the two statistical checks (criterion 8's Monte-Carlo
band and convergence-ratio windows) is exact integer or rational
arithmetic.  One test is expected to fail and documents a provably
unattainable claim; see its docstring and assertion message.
"""

import time
from fractions import Fraction

import mpmath
import numpy as np

from catalan_stanley.asymptotics import (
    ancestor_variance_asym,
    constant_digits,
)
from catalan_stanley.enumeration import (
    catalan,
    enumerate_trees,
    sample_reduced_sizes,
)
from catalan_stanley.series import (
    BivariateSeries,
    phi_apply,
    phi_power,
    series_F_geq,
    series_S,
)
from catalan_stanley.stats import (
    age_count_geq,
    ancestor_distribution,
    expected_age,
    expected_age_via_survivals,
    expected_ancestor_size,
    max_ancestor_size,
)
from catalan_stanley.tree import dyck_to_tree, tree_to_dyck
from catalan_stanley.verify import REFERENCE_CONSTANT_DIGITS

MAX_SIZE = 14
LADDER = (100, 200, 400, 800)
RATIO_WINDOW = (2.5, 6.0)
MC_SIZE = 10**4
MC_SAMPLES = 10**5
MC_SEED = 20260811
MC_EXTRA_BAND = 5.0


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_1_counting():
    """Exhaustive enumeration of every size up to 14 in under a minute."""
    start = time.perf_counter()
    counts = {n: sum(1 for _ in enumerate_trees(n)) for n in range(2, MAX_SIZE + 1)}
    elapsed = time.perf_counter() - start
    for n, count in counts.items():
        assert count == catalan(n - 2), f"size {n}: {count} != C({n-2})"
    assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"
    report(f"PASS: criterion 1 (counting) sizes 2..{MAX_SIZE} exact, {elapsed:.1f}s")


def test_criterion_2_age_triple_agreement(census):
    """Census = series coefficient = binomial sum, exactly."""
    comparisons = 0
    for n in range(2, MAX_SIZE + 1):
        ages = census(n).age_formula
        survival_series = {r: series_F_geq(r, n) for r in range(1, 8)}
        for r in range(1, 8):
            brute = sum(v for a, v in ages.items() if a >= r)
            assert brute == survival_series[r].coefficient(n), (n, r)
            assert brute == age_count_geq(n, r), (n, r)
            comparisons += 1
    report(f"PASS: criterion 2 (age triple agreement) {comparisons} exact comparisons")


def test_criterion_3_expected_age(census):
    """Closed form vs brute force (n <= 14) and vs survival sums (n <= 800)."""
    assert expected_age(4) == Fraction(3, 2)
    assert expected_age(5) == Fraction(9, 5)
    for n in range(2, MAX_SIZE + 1):
        ages = census(n).age_formula
        total = census(n).count
        brute = Fraction(sum(a * v for a, v in ages.items()), total)
        assert expected_age(n) == brute, n
    for n in range(2, 801):
        assert expected_age(n) == expected_age_via_survivals(n), n
    report("PASS: criterion 3 (expected age) exact for n<=14 brute, n<=800 survivals")


def test_criterion_4_ancestor_statistics(census):
    """Mean formula and full pmf against brute force, exactly."""
    assert expected_ancestor_size(4, 1) == Fraction(3, 2)
    assert expected_ancestor_size(5, 1) == Fraction(9, 5)
    pmf_checks = 0
    for n in range(2, MAX_SIZE + 1):
        total = census(n).count
        for r in (1, 2, 3):
            counter = census(n).ancestor_sizes(r)
            brute_mean = Fraction(
                sum(m * v for m, v in counter.items()), total
            )
            assert expected_ancestor_size(n, r) == brute_mean, (n, r)
            table = ancestor_distribution(n, r)
            assert dict(zip(table.support, table.masses)) == {
                m: Fraction(v, total) for m, v in counter.items()
            }, (n, r)
            pmf_checks += 1
    report(f"PASS: criterion 4 (ancestor statistics) {pmf_checks} exact pmf matches")


def test_criterion_5_operators():
    """Fixed point at order 20; closed-form power vs iteration at order 12."""
    s20 = series_S(20)
    assert phi_apply(s20) == s20
    inputs = {
        "z": BivariateSeries.monomial(1, 0, 12),
        "zt": BivariateSeries.monomial(1, 1, 12),
        "S": series_S(12),
    }
    for label, f in inputs.items():
        iterated = f
        for r in range(6):
            assert phi_power(f, r) == iterated, (label, r)
            iterated = phi_apply(iterated)
    report("PASS: criterion 5 (operators) fixed point @20, powers r<=5 @12, exact")


def test_criterion_6_constants():
    """All four constants to >= 30 decimal places in under 5 seconds."""
    start = time.perf_counter()
    computed = [constant_digits(i, 40) for i in range(4)]
    elapsed = time.perf_counter() - start
    with mpmath.workdps(60):
        for i, digits in enumerate(computed):
            reference = mpmath.mpf(REFERENCE_CONSTANT_DIGITS[i])
            assert abs(mpmath.mpf(digits) - reference) < mpmath.mpf(10) ** -30, f"c{i}"
    assert elapsed < 5.0, f"constants took {elapsed:.2f}s"
    assert constant_digits(0, 30) == "2.71825364286795285266483619282"
    report(f"PASS: criterion 6 (constants) 4 constants to 30+ digits, {elapsed:.2f}s")


def _doubling_ratios(errors):
    return [a / b for a, b in zip(errors, errors[1:])]


def test_criterion_7_age_convergence():
    """Two-term expansions converge at O(1/n^2) on the doubling ladder."""
    with mpmath.workdps(50):
        c0, c1, c2, c3 = (mpmath.mpf(constant_digits(i, 40)) for i in range(4))
        mean_errors = []
        variance_errors = []
        for n in LADDER:
            exact_mean = expected_age(n)
            from catalan_stanley.stats import age_variance

            exact_variance = age_variance(n)
            mean_errors.append(
                abs(mpmath.mpf(exact_mean.numerator) / exact_mean.denominator
                    - (c0 + c1 / n))
            )
            variance_errors.append(
                abs(mpmath.mpf(exact_variance.numerator) / exact_variance.denominator
                    - (c2 + c3 / n))
            )
        low, high = RATIO_WINDOW
        mean_ratios = [float(q) for q in _doubling_ratios(mean_errors)]
        variance_ratios = [float(q) for q in _doubling_ratios(variance_errors)]
    for q in mean_ratios + variance_ratios:
        assert low <= q <= high, (mean_ratios, variance_ratios)
    report(
        "PASS: criterion 7 (age convergence) mean ratios "
        f"{[round(q, 2) for q in mean_ratios]}, variance ratios "
        f"{[round(q, 2) for q in variance_ratios]} within {RATIO_WINDOW}"
    )


def test_criterion_8_ancestor_convergence_and_monte_carlo():
    """Mean error decays at least as n^(-3/2); Monte-Carlo variance at
    n = 10^4 sits inside the four-term prediction within 3 standard
    errors plus an O(1) allowance of 5."""
    errors = []
    for n in LADDER:
        r = 1
        prediction = (
            Fraction(n, 4**r)
            + Fraction(2 * 4**r - 2 * r * r + r - 2, 2 * 4**r)
            + Fraction((2 * r + 1) * (2 * r - 1) * (r - 3) * r, 2 * 4 ** (r + 1)) / n
        )
        errors.append(abs(expected_ancestor_size(n, 1) - prediction))
    decay_floor = 2**1.5 / 2  # claimed rate with slack factor 2
    for a, b in zip(errors, errors[1:]):
        assert float(a) / float(b) >= decay_floor, errors

    sizes = sample_reduced_sizes(MC_SIZE, MC_SAMPLES, seed=MC_SEED)
    sample_variance = sizes.var(ddof=1)
    predicted = ancestor_variance_asym(MC_SIZE, 1).value
    centered = sizes - sizes.mean()
    fourth_moment = float(np.mean(centered**4))
    standard_error = float(
        np.sqrt((fourth_moment - sample_variance**2) / MC_SAMPLES)
    )
    band = 3 * standard_error + MC_EXTRA_BAND
    deviation = abs(sample_variance - predicted)
    assert deviation <= band, (sample_variance, predicted, band)
    report(
        "PASS: criterion 8 (ancestor convergence) mean decay >= n^-3/2; "
        f"MC variance dev {deviation:.3g} <= band {band:.3g}"
    )


def test_criterion_9_bijection_and_bounds(census):
    """Roundtrips up to size 12; age bounds hold and are attained; ancestor
    bounds hold with the lower endpoint attained everywhere, and the largest
    ancestor size is `max_ancestor_size`."""
    for n in range(1, 13):
        for tau in enumerate_trees(n):
            assert dyck_to_tree(tree_to_dyck(tau)) == tau
    for n in range(2, MAX_SIZE + 1):
        ages = sorted(census(n).age_formula)
        assert ages[0] == 1, n
        assert ages[-1] == n // 2, n
        for r in range(1, 8):
            sizes = sorted(census(n).ancestor_sizes(r))
            upper = n - 2 * (r - 1) - 1
            assert sizes[0] == 1, (n, r)
            if r <= n // 2:
                assert sizes[-1] <= upper, (n, r)
                assert sizes[-1] == max_ancestor_size(n, r), (n, r)
            else:
                assert sizes == [1], (n, r)
    report(
        "PASS: criterion 9 (bijection and bounds) roundtrip <=12; age bounds "
        "attained; ancestor bounds hold, lower endpoint attained, upper at "
        "max_ancestor_size"
    )


def test_criterion_9_ancestor_upper_bound_attained_as_stated(census):
    """Faithful rendering of the remaining criterion-9 clause: the upper
    ancestor bound n-2(r-1)-1 is attained for every n <= 14.

    This is provably false: one reduction removes exactly one node only
    from the two-node chain (every other tree loses at least two per
    branch), so a trajectory realizing n-2(r-1)-1 forces n = 2r.  Already
    at n=4, r=1 the two trees of size 4 reduce to sizes 1 and 2, never to
    the bound 3.  The test is kept as stated and is expected to fail; the
    sibling test covers the provable parts.
    """
    failures = []
    for n in range(2, MAX_SIZE + 1):
        for r in range(1, n // 2 + 1):
            upper = n - 2 * (r - 1) - 1
            if max(census(n).ancestor_sizes(r)) != upper:
                failures.append((n, r, max(census(n).ancestor_sizes(r)), upper))
    if failures:
        report(
            f"FAIL: criterion 9 upper-bound attainment: {len(failures)} (n, r) "
            f"pairs never reach n-2(r-1)-1, first few "
            f"{[(n, r, got, bound) for n, r, got, bound in failures[:3]]}"
        )
    assert not failures, (
        "upper ancestor bound n-2(r-1)-1 is not attained at "
        f"{len(failures)} (n, r) pairs, e.g. (n=4, r=1): maximal first-"
        "ancestor size is 2 (chain of 4 -> chain of 2), bound is 3; "
        "attainment would need a reduction step removing exactly one node "
        "from a tree larger than the two-node chain, which cannot happen"
    )
