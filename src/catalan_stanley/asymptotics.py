"""Limiting distribution and asymptotic expansions for large tree size.

The survival probabilities of the age stabilize: P(D_n >= r) is
h(r) - g(r)/n + O(r^5 3^-r n^-2) with the exact rationals

    h(r) = 4 (4^r (3r-1) + 1) / (4^r + 2)^2,
    g(r) = (6*64^r (2r^3-5r^2+4r-1) - 6*16^r (16r^3-24r^2+10r-1)
            + 24*4^r (2r-1) r^2) / (4^r + 2)^4,

so P(D_n = r) telescopes to (h(r)-h(r+1)) - (g(r)-g(r+1))/n + ...  The
error term is checked with constant 1: `verify` asserts n^2 |P(D_n >= r)
- h(r) + g(r)/n| <= r^5 3^-r in exact rationals at n = 100, 200, 400, 800
for r up to its --max-r (the largest ratio is 0.57, at n = 100, r = 3;
the error is 0 at r = 1 and 1/C(n-2) at r = 2).  The
limit constants are the sums

    c0 = sum h(r),             c1 = -sum g(r),
    c2 = sum (2r-1) h(r) - c0^2,
    c3 = -sum (2r-1) g(r) - 2 c0 c1,

with E D_n = c0 + c1/n + O(n^-2) and V D_n = c2 + c3/n + O(n^-2).  One
pass over r, once per process, sums all four series for the largest
precision served, MAX_DIGITS = 60.  Every term is at most 320 r^4 4^-r, so
one geometric majorant bounds all four tails, and the pass stops once it
is below 10^-67.  Each term enters the sums in fixed point, as the integer
floor(term * 10^75), so a sum is off by its tail plus under one unit of
10^-75 per term; each of c0..c3 is then within 10^-65, corrections
included.  `constant_digits` prints the exact rational so obtained,
rounded to the requested digits; no floating point and no global
precision enter the pass.

Ancestor sizes: E X_{n,r} and V X_{n,r} expand in powers of n with
explicit rational (and sqrt(pi)) coefficients; the three resp. four
printed terms are evaluated here with error tags O(n^-3/2) resp. O(1).
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError

__all__ = [
    "AsymptoticEstimate",
    "survival_leading",
    "survival_correction",
    "constant_digits",
    "prob_age_asym",
    "expected_age_asym",
    "age_variance_asym",
    "expected_ancestor_asym",
    "ancestor_variance_asym",
]

MAX_DIGITS = 60
# The expansions are evaluated in double precision: n is exact there up to
# 2**53, and the ancestor variance divides by 16^r, which leaves the float
# range at r = 256.  Both are checked before any power of 4^r is formed.
MAX_ASYM_SIZE = 2**53
MAX_ASYM_DEPTH = 255


@dataclass(frozen=True, slots=True)
class AsymptoticEstimate:
    value: float
    order_tag: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("estimate must be finite")


def survival_leading(r: int) -> Fraction:
    """h(r): limit of P(D_n >= r) as n grows."""
    if r < 1:
        raise ValueError("r must be at least 1")
    p = 4**r
    return Fraction(4 * (p * (3 * r - 1) + 1), (p + 2) ** 2)


def survival_correction(r: int) -> Fraction:
    """g(r): coefficient of -1/n in P(D_n >= r)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    p = 4**r
    numerator = (
        6 * 64**r * (2 * r**3 - 5 * r**2 + 4 * r - 1)
        - 6 * 16**r * (16 * r**3 - 24 * r**2 + 10 * r - 1)
        + 24 * p * (2 * r - 1) * r**2
    )
    return Fraction(numerator, (p + 2) ** 4)


# Every term of the four sums is at most 320 r^4 4^-r (checked in the
# tests), and sum_{r>R} r^4 4^-r <= (R+1)^4 4^-(R+1) sum_k (1+k)^4 4^-k
# = (R+1)^4 4^-(R+1) * 4560/243.
_TAIL_AMPLITUDE = Fraction(320 * 4560, 243)


@functools.cache
def _constants() -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """c0..c3, each within 10^-(MAX_DIGITS+5), from one pass over r.

    The four sums stop together once the shared tail bound is below
    10^-(MAX_DIGITS+7).  A term is added as floor(term * 10^(MAX_DIGITS+15)),
    which loses under one unit of 10^-(MAX_DIGITS+15); the pass takes 131
    terms, so each sum is within 2 * 10^-(MAX_DIGITS+7) of its series, and
    the c0^2 and c0 c1 corrections multiply that by less than 100.
    """
    scale = 10 ** (MAX_DIGITS + 15)
    target = Fraction(1, 10 ** (MAX_DIGITS + 7))
    sums = [0] * 4
    r = 1
    while True:
        h = survival_leading(r)
        g = survival_correction(r)
        for k, term in enumerate((h, g, (2 * r - 1) * h, (2 * r - 1) * g)):
            sums[k] += term.numerator * scale // term.denominator
        if _TAIL_AMPLITUDE * (r + 1) ** 4 / 4 ** (r + 1) < target:
            break
        r += 1
    h_sum, g_sum, h2_sum, g2_sum = (Fraction(s, scale) for s in sums)
    c0, c1 = h_sum, -g_sum
    return (c0, c1, h2_sum - c0 * c0, -g2_sum - 2 * c0 * c1)


def constant_digits(index: int, digits: int) -> str:
    """c0..c3 (by `index`) as a decimal string with `digits` significant
    digits, rounded from one value within 10^-(MAX_DIGITS+5) of the
    constant."""
    if index not in (0, 1, 2, 3):
        raise ValueError("index must be 0..3")
    if digits < 1:
        raise ValueError("digits must be positive")
    if digits > MAX_DIGITS:
        raise CapacityError(
            f"at most {MAX_DIGITS} digits supported (requested {digits})"
        )
    value = _constants()[index]
    # a local context, so no thread's decimal precision is read or set
    rounded = decimal.Context(prec=digits).divide(value.numerator, value.denominator)
    text = format(rounded, "f")
    return text if "." in text else text + "."


def _constants_float() -> tuple[float, float, float, float]:
    return tuple(float(c) for c in _constants())


def _check_size(n: int) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_ASYM_SIZE:
        raise CapacityError(f"n must be at most 2**53 = {MAX_ASYM_SIZE}")


def _check_depth(r: int, smallest: int) -> None:
    if r < smallest:
        raise ValueError(f"r must be at least {smallest}")
    if r > MAX_ASYM_DEPTH:
        raise CapacityError(f"r must be at most {MAX_ASYM_DEPTH}")


def prob_age_asym(n: int, r: int) -> AsymptoticEstimate:
    """Two-term expansion of P(D_n = r)."""
    _check_size(n)
    _check_depth(r, 1)
    leading = survival_leading(r) - survival_leading(r + 1)
    correction = survival_correction(r) - survival_correction(r + 1)
    return AsymptoticEstimate(float(leading) - float(correction) / n, "O(n^-2)")


def expected_age_asym(n: int) -> AsymptoticEstimate:
    """E D_n ~ c0 + c1/n."""
    _check_size(n)
    c0, c1, _, _ = _constants_float()
    return AsymptoticEstimate(c0 + c1 / n, "O(n^-2)")


def age_variance_asym(n: int) -> AsymptoticEstimate:
    """V D_n ~ c2 + c3/n."""
    _check_size(n)
    _, _, c2, c3 = _constants_float()
    return AsymptoticEstimate(c2 + c3 / n, "O(n^-2)")


def expected_ancestor_asym(n: int, r: int) -> AsymptoticEstimate:
    """Three-term expansion of E X_{n,r}; exact (= n) at r = 0."""
    _check_size(n)
    _check_depth(r, 0)
    p = 4**r
    linear = Fraction(n, p)
    const = Fraction(2 * p - 2 * r**2 + r - 2, 2 * p)
    inverse = Fraction((2 * r + 1) * (2 * r - 1) * (r - 3) * r, 2 * 4 ** (r + 1))
    value = float(linear) + float(const) + float(inverse) / n
    return AsymptoticEstimate(value, "O(n^-3/2)")


def ancestor_variance_asym(n: int, r: int) -> AsymptoticEstimate:
    """Four-term expansion of V X_{n,r} (n^2, n^3/2, n, n^1/2); identically
    0 at r = 0."""
    _check_size(n)
    _check_depth(r, 0)
    p4 = 4**r
    p16 = 16**r
    sqrt_pi = math.sqrt(math.pi)
    quadratic = Fraction((2**r + 1) * (2**r - 1), p16)
    n32_coeff = sqrt_pi * (p4 * (3 * r + 1) - 1) / (3 * p16)
    linear = Fraction(
        18 * p4 * r**2 + 3 * p4 * r - 38 * p4 + 36 * r**2 - 42 * r + 38, 18 * p16
    )
    n12_coeff = 5 * sqrt_pi * (p4 * (3 * r + 1) - 1) / (8 * p16)
    value = (
        float(quadratic) * n * n
        - n32_coeff * n**1.5
        + float(linear) * n
        + n12_coeff * math.sqrt(n)
    )
    return AsymptoticEstimate(value, "O(1)")
