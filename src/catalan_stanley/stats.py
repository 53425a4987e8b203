"""Exact age and ancestor statistics, computed as integer tree counts.

Every pmf here is a count of trees over the number of trees; a probability
or a moment becomes a Fraction only when it is read (see
`DistributionTable`).  How a pmf is printed is the CLI's concern.

The number f(n,r) of size-n trees of age >= r comes from a finite
alternating binomial sum obtained by coefficient extraction.  With
e_k = 2n-4-k and beta_k = n-1-k (so e-beta = n-3 throughout), the term
for k = j(2r-1) is

    binom(e_k, beta_k) + binom(e_k, beta_k - 1) - 2 binom(e_k, beta_k - 2)

with generalized binomials (negative upper index expands (1+u)^e as a
series); the sum stops once beta_k < 0, i.e. k > n-1.  For n >= 3 every
surviving term has e_k >= 0 and the expression coincides with the
upper-index-symmetric form binom(e, n-3) + binom(e, n-2) - 2 binom(e, n-1)
under the convention binom(a,b) = 0 for b < 0 or b > a.  At n = 2 the one
term, k = 1, has e = -1 and beta = 0: the constant term of (1+u)^-1, so
the table is (1,).

The pmf telescopes: P(D_n = r) = (f(n,r) - f(n,r+1)) / #trees, where
f(n,0) is the number of trees (`_tree_count`), so the single node of size
1 takes the same route as every other size.  The variance is read off
that pmf.  Summing f(n,r) over r collapses, via the signed divisor count
theta(k) = (-1)^(k-1) sigma0_odd(k), to the closed form for the expected
age.

The pmf of the r-th ancestor size is a coefficient of the joint series
G_r(z,v), read as a sum over ancestor shapes of products of univariate
series coefficients (see `_ancestor_counts`); no bivariate series is
built, and a size-n pmf costs about n/(2r+1) products of order n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import series as _series
from .enumeration import catalan

__all__ = [
    "DistributionTable",
    "odd_divisor_count",
    "age_count_geq",
    "age_distribution",
    "expected_age",
    "expected_age_via_survivals",
    "age_variance",
    "expected_ancestor_size",
    "ancestor_distribution",
    "max_ancestor_size",
]


def _tree_count(n: int) -> int:
    """Number of size-n trees: the single node at n = 1, else C(n-2)."""
    return catalan(n - 2) if n > 1 else 1


def _extraction_table(n: int) -> tuple[int, ...]:
    """[u^(n-1-k)] (1 + u - 2u^2) (1+u)^(2n-4-k) for k = 1..n-1 (all later k give 0).

    One running binomial b = binom(e, beta), stepped by the exact ratio
    binom(a-1, b-1) = binom(a, b) * b / a, carries the term: with
    e - beta = n-3 the other two binomials are b*beta/(n-2) and
    b*beta*(beta-1)/((n-2)(n-1)), so the term is
    b * (q + beta(n-1) - 2 beta(beta-1)) / q with q = (n-2)(n-1), an exact
    division.
    """
    if n < 2:
        return ()
    if n == 2:
        return (1,)  # [u^0] (1 + u - 2u^2) (1+u)^(-1)
    q = (n - 2) * (n - 1)
    beta = n - 2  # at k = 1; the upper index stays beta + n - 3
    b = math.comb(2 * n - 5, beta)
    out = []
    for _k in range(1, n):
        out.append(b * (q + beta * (n - 1) - 2 * beta * (beta - 1)) // q)
        if beta:
            b = b * beta // (beta + n - 3)
            beta -= 1
    return tuple(out)


def odd_divisor_count(k: int) -> int:
    """Number of odd divisors of k."""
    if k < 1:
        raise ValueError("k must be positive")
    while k % 2 == 0:
        k //= 2
    count = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            count += 1 if d * d == k else 2
        d += 1
    return count


def age_count_geq(n: int, r: int) -> int:
    """f(n,r): number of size-n Catalan-Stanley trees of age >= r."""
    if n < 1:
        raise ValueError("size must be positive")
    if r < 1:
        raise ValueError("r must be at least 1")
    return _count_geq(_extraction_table(n), r)


def _count_geq(table: tuple[int, ...], r: int) -> int:
    """f(n,r) from the extraction table of size n: the terms at k = j(2r-1)
    with alternating signs."""
    terms = table[2 * r - 2 :: 2 * r - 1]
    return sum(terms[0::2]) - sum(terms[1::2])


def _survival_counts(n: int) -> list[int]:
    """[f(n,1), ..., f(n, floor(n/2))], all read from one extraction table."""
    table = _extraction_table(n)
    return [_count_geq(table, r) for r in range(1, n // 2 + 1)]


def expected_age(n: int) -> Fraction:
    """Closed form: (1/C(n-2)) sum_k (-1)^(k+1) sigma0_odd(k) * term(n,k).

    The sum terminates at k = n-1, beyond which every term vanishes.
    """
    if n < 1:
        raise ValueError("size must be positive")
    table = _extraction_table(n)
    total = 0
    for k in range(1, n):
        term = table[k - 1]
        if term:
            total += (-1) ** (k + 1) * odd_divisor_count(k) * term
    return Fraction(total, _tree_count(n))


def expected_age_via_survivals(n: int) -> Fraction:
    """Independent route: E D_n = sum_r P(D_n >= r)."""
    if n < 1:
        raise ValueError("size must be positive")
    return Fraction(sum(_survival_counts(n)), _tree_count(n))


def age_variance(n: int) -> Fraction:
    """V D_n, read off the exact pmf."""
    return age_distribution(n).variance()


@dataclass(frozen=True, slots=True)
class DistributionTable:
    """Exact pmf of the age or of an ancestor size at one tree size.

    counts[i] is the number of size-n trees whose value is support[i]; the
    counts add up to the number of size-n trees, the denominator of every
    mass.  `masses`, `mean` and `variance` return Fractions.
    """

    size_n: int
    support: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.counts):
            raise ValueError("support and counts differ in length")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")
        if self.size_n < 1:  # `_tree_count` reads 1 there, as at n = 1
            raise ValueError("size_n must be positive")
        if sum(self.counts) != _tree_count(self.size_n):
            raise ValueError("counts must sum to the number of trees of size_n")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be strictly ascending")

    @property
    def masses(self) -> tuple[Fraction, ...]:
        total = _tree_count(self.size_n)
        return tuple(Fraction(c, total) for c in self.counts)

    def mean(self) -> Fraction:
        first = sum(v * c for v, c in zip(self.support, self.counts))
        return Fraction(first, _tree_count(self.size_n))

    def variance(self) -> Fraction:
        total = _tree_count(self.size_n)
        first = sum(v * c for v, c in zip(self.support, self.counts))
        second = sum(v * v * c for v, c in zip(self.support, self.counts))
        return Fraction(total * second - first * first, total * total)


def age_distribution(n: int) -> DistributionTable:
    """P(D_n = r) = (f(n,r) - f(n,r+1)) / #trees over r in [0, floor(n/2)],
    with f(n,0) the number of trees; only the single node has age 0."""
    if n < 1:
        raise ValueError("size must be positive")
    survivals = [_tree_count(n), *_survival_counts(n), 0]
    exact = {r: survivals[r] - survivals[r + 1] for r in range(n // 2 + 1)}
    support = tuple(r for r, c in exact.items() if c)
    return DistributionTable(n, support, tuple(exact[r] for r in support))


def expected_ancestor_size(n: int, r: int) -> Fraction:
    """E X_{n,r} = binom(2n-2r-4, n-2)/C(n-2) + 1.

    Out-of-range binomials (negative or too small upper index) are 0,
    which covers r past floor(n/2) and the single node; the formula
    extends to r = 0, where it returns n exactly.
    """
    if n < 1:
        raise ValueError("size must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    upper = 2 * n - 2 * r - 4
    numerator = math.comb(upper, n - 2) if 0 <= n - 2 <= upper else 0
    return Fraction(numerator, _tree_count(n)) + 1


def max_ancestor_size(n: int, r: int) -> int:
    """Largest attainable r-th ancestor size among size-n trees.

    One reduction removes exactly 1 node only from the 2-chain and at
    least 2 nodes otherwise, while decorations above the active spine
    survive; that forces the maximum to n-2r when n >= 2r+2 (except the
    parity-locked n = 2r+3, where it is 2) and 1 once n <= 2r+1.
    """
    if n < 1:
        raise ValueError("size must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return n
    if n <= 2 * r + 1:
        return 1
    if n == 2 * r + 3:
        return 2
    return n - 2 * r


def _ancestor_counts(n: int, r: int) -> dict[int, int]:
    """{m: number of size-n trees whose r-th ancestor has size m}, nonzero m only.

    The coefficient [z^n v^m] of G_r(z,v) = W S(zv, uv), with
    W = (1+T)/(1+T^{2r+1}) and u = z T^{2r} W, summed over ancestor shapes:
    an ancestor with b branches at its root and m-b plain nodes comes in
    [z^{m-1-b}] D_b shapes, D_b = (1-T^2)^{-b}, and each grows back to size
    n in [z^{n-m+b}] A_b ways, A_b = W u^b.  A_b has valuation b(2r+1), so the
    sum stops once that passes n-1, the highest degree read, and D_b is
    only read up to degree n-1-b(2r+1).  The keys come in ascending order:
    m = 1, then every m up to n-2r at b = 1, which later b only revisit.
    """
    t = _series.series_T(n - 1)
    t_pow = t ** (2 * r)
    w = (1 + t) / (1 + t_pow * t)
    u = (t_pow * w).shift(1)
    one_minus_t_sq = 1 - t * t
    counts = {1: w.coefficient(n - 1)}  # b = 0: the ancestor is the root alone
    a, d = w, _series.TruncatedSeries.constant(1, n - 1)
    for b in range(1, (n - 1) // (2 * r + 1) + 1):
        a, d = a * u, d.truncate(n - 1 - b * (2 * r + 1)) / one_minus_t_sq
        ac, dc = a.coefficients(), d.coefficients()
        for m in range(b + 1, n - 2 * r * b + 1):
            counts[m] = counts.get(m, 0) + dc[m - 1 - b] * ac[n - m + b]
    return {m: c for m, c in counts.items() if c}


def ancestor_distribution(n: int, r: int) -> DistributionTable:
    """Exact pmf of the r-th ancestor size, summed over ancestor shapes."""
    if n < 1:
        raise ValueError("size must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return DistributionTable(n, (n,), (_tree_count(n),))
    counts = _ancestor_counts(n, r)
    return DistributionTable(n, tuple(counts), tuple(counts.values()))
