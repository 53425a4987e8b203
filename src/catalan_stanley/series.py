"""Truncated formal power series with exact integer coefficients.

Carriers for the generating functions of the growth process: the plane
tree series T(z) with z + T^2 = T, the class series S(z,t) = z +
zt/(1 - t - T^2) where t marks the rightmost leaves in the branches at
the root, the expansion operator Phi(f)(z,t) = f(z, tT^2/(1-t))/(1-t)
together with its closed r-fold form, and the age survival series.  The
ancestor-size pmf needs only univariate series (see
`stats.ancestor_distribution`).

Univariate series hold coefficients 0..N as a dense tuple of Python
ints.  Every series of the process has integer coefficients, because
each denominator it divides by (1-T^2, 1+T^{2r-1}) has constant term 1;
division therefore asks for a constant term of +1 or -1, whose inverse
is itself, and any other coefficient type is refused.

Bivariate series are truncated to the box {z-degree <= N, t-degree <= N}
and stored as rows: row k is the univariate z-series multiplying t^k.
Each bivariate series of the process is a geometric series in t, so it
is built row by row from closed forms in univariate series alone, with
G_r = (1 - T^{2r})/(1 - T^2) = 1 + T^2 + ... + T^{2r-2}:

    [t^k] S          = z/(1 - T^2)^k for k >= 1, and z at k = 0,
                       since zt/(1 - t - T^2) = (z/(1-T^2)) t/(1 - t/(1-T^2));
    [t^k] F_leq(r)   = z G_r^k, since F_leq(r) = Phi^r(z) = z/(1 - t G_r);
    [t^k] Phi^r(f)   = sum_j binom(k, j) T^{2rj} G_r^{k-j} f_j,

where f_j is row j of f.  The last comes from the closed form
Phi^r(f) = W f(z, t T^{2r} W) with W = 1/(1 - t G_r), which is
sum_j f_j T^{2rj} t^j W^{j+1}, and from [t^m] (1 - tb)^{-(j+1)} =
binom(m + j, j) b^m.  At r = 1 it is Phi itself, with G_1 = 1; at r = 0,
G_0 = 0 and it is the identity.  No floating point enters this module.
"""

from __future__ import annotations

import operator
from math import comb

from .enumeration import catalan

__all__ = [
    "TruncatedSeries",
    "BivariateSeries",
    "series_T",
    "series_S",
    "phi_apply",
    "phi_power",
    "series_F_leq",
    "series_F_geq",
]


class TruncatedSeries:
    """Power series in z, exact up to and including degree `order`."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        values = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            values = values[: order + 1] + [0] * (order + 1 - len(values))
        elif not values:
            raise ValueError("empty coefficient list and no order given")
        self._coeffs = tuple(map(operator.index, values))

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls([value], order)

    @classmethod
    def z(cls, order: int) -> "TruncatedSeries":
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"degree {n} outside computed order {self.order}")
        return self._coeffs[n]

    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a series beyond its computed order")
        return TruncatedSeries(self._coeffs, order)

    def _aligned(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = self._aligned(other)
            return TruncatedSeries(
                [a + b for a, b in zip(self._coeffs, other._coeffs)], n
            )
        return self + TruncatedSeries.constant(other, self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            scalar = operator.index(other)
            return TruncatedSeries([c * scalar for c in self._coeffs])
        n = self._aligned(other)
        terms = [(j, b) for j, b in enumerate(other._coeffs[: n + 1]) if b]
        out = [0] * (n + 1)
        for i, a in enumerate(self._coeffs[: n + 1]):
            if a:
                for j, b in terms:
                    if i + j > n:
                        break
                    out[i + j] += a * b
        return TruncatedSeries(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._aligned(other)
        lead = other._coeffs[0]
        if lead not in (1, -1):
            raise ValueError("series division requires a constant term of +1 or -1")
        terms = [(i, b) for i, b in enumerate(other._coeffs[1 : n + 1], 1) if b]
        out = []
        for k, acc in enumerate(self._coeffs[: n + 1]):
            for i, b in terms:
                if i > k:
                    break
                acc -= b * out[k - i]
            out.append(acc * lead)  # lead is its own inverse
        return TruncatedSeries(out, n)

    def __pow__(self, exponent: int):
        """Repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result, base = TruncatedSeries.constant(1, self.order), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k, dropping what leaves the truncation window."""
        if operator.index(k) < 0:
            raise ValueError("shift must be nonnegative")
        # past the order every coefficient leaves the window: pad with at most order + 1 zeros
        return TruncatedSeries([0] * min(k, self.order + 1) + list(self._coeffs), self.order)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries) and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {list(self._coeffs[:8])}...)"


class BivariateSeries:
    """Series in z and t, boxed at degree `order` in each.

    Built from its rows: rows[k] is the TruncatedSeries of order `order`
    that multiplies t^k.  Trailing zero rows are dropped.
    """

    __slots__ = ("_rows", "_order")

    def __init__(self, rows, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        rows = list(rows)
        for row in rows:
            if not isinstance(row, TruncatedSeries):
                raise TypeError(f"a row must be a TruncatedSeries, not {type(row).__name__}")
            if row.order != order:
                raise ValueError(f"row of order {row.order} in a series of order {order}")
        while rows and not any(rows[-1]._coeffs):
            rows.pop()
        self._order = order
        self._rows = tuple(rows)

    @classmethod
    def monomial(cls, i: int, j: int, order: int) -> "BivariateSeries":
        """z^i t^j; the zero series if it lies outside the box."""
        if i < 0 or j < 0:
            raise ValueError(f"negative exponent in monomial ({i}, {j})")
        if i > order or j > order:
            return cls([], order)
        zero = TruncatedSeries([], order)
        return cls([zero] * j + [TruncatedSeries([0] * i + [1], order)], order)

    @property
    def order(self) -> int:
        return self._order

    def coefficient(self, i: int, j: int) -> int:
        if not (0 <= i <= self._order and 0 <= j <= self._order):
            raise ValueError(f"monomial ({i}, {j}) outside computed box {self._order}")
        return self._rows[j]._coeffs[i] if j < len(self._rows) else 0

    def items(self):
        """Nonzero coefficients in sorted monomial order."""
        return [
            ((i, j), row._coeffs[i])
            for i in range(self._order + 1)
            for j, row in enumerate(self._rows)
            if row._coeffs[i]
        ]

    def diagonal(self) -> TruncatedSeries:
        """Set t equal to z."""
        out = TruncatedSeries([], self._order)
        for j, row in enumerate(self._rows):
            out = out + row.shift(j)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BivariateSeries)
            and self._order == other._order
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self._order, self._rows))

    def __repr__(self):
        # `verify` prints this repr; the var='t' field keeps its output stable
        return f"BivariateSeries(order={self._order}, var='t', {len(self.items())} terms)"


def series_T(order: int) -> TruncatedSeries:
    """Plane tree series: [z^n] T = C(n-1) for n >= 1; satisfies z + T^2 = T."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries([0] + [catalan(n - 1) for n in range(1, order + 1)], order)


def _powers(base: TruncatedSeries, top: int) -> list[TruncatedSeries]:
    """base^0, base^1, ..., base^top."""
    out = [TruncatedSeries.constant(1, base.order)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def series_S(order: int) -> BivariateSeries:
    """Catalan-Stanley class series S(z,t) = z + zt/(1 - t - T^2).

    Row k >= 1 is z/(1 - T^2)^k and row 0 is z.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    t = series_T(order)
    den = 1 - t * t
    rows = [TruncatedSeries.z(order)]
    for _ in range(order):
        rows.append(rows[-1] / den)
    return BivariateSeries(rows, order)


def _expand(f: BivariateSeries, a: TruncatedSeries, b: TruncatedSeries) -> BivariateSeries:
    """The series sum_j f_j (ta)^j / (1 - tb)^{j+1}, built row by row.

    Row k is sum_j binom(k, j) a^j b^{k-j} f_j; the zero rows of f are skipped.
    """
    n = f.order
    scaled = []  # (j, a^j f_j) for the rows that survive the truncation
    for j, (row, a_pow) in enumerate(zip(f._rows, _powers(a, len(f._rows) - 1))):
        h = row * a_pow
        if any(h._coeffs):
            scaled.append((j, h))
    b_pow = _powers(b, n)
    rows = []
    for k in range(n + 1):
        acc = TruncatedSeries([], n)
        for j, h in scaled:
            if j > k:
                break
            acc = acc + h * b_pow[k - j] * comb(k, j)
        rows.append(acc)
    return BivariateSeries(rows, n)


def phi_apply(f: BivariateSeries) -> BivariateSeries:
    """Expansion operator: Phi(f)(z,t) = f(z, tT^2/(1-t)) / (1-t).

    Enumerates all trees reducing into the family counted by f.  It is
    `phi_power` at r = 1, where G_1 = 1: row k is sum_j binom(k, j) T^{2j} f_j.
    """
    return phi_power(f, 1)


def phi_power(f: BivariateSeries, r: int) -> BivariateSeries:
    """Closed form of the r-fold expansion.

    Phi^r(f)(z,t) = W * f(z, t T^{2r} W) with W = 1 / (1 - t G_r) and
    G_r = (1-T^{2r})/(1-T^2); row k is sum_j binom(k, j) T^{2rj} G_r^{k-j} f_j.
    At r = 0, G_0 = 0 and this is the identity.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = f.order
    t = series_T(n)
    t_pow = t ** (2 * r)
    return _expand(f, t_pow, (1 - t_pow) / (1 - t * t))


def series_F_leq(r: int, order: int) -> BivariateSeries:
    """Trees of age <= r: F_r = Phi^r(z) = z / (1 - t G_r); row k is z G_r^k."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return phi_power(BivariateSeries.monomial(1, 0, order), r)


def series_F_geq(r: int, order: int) -> TruncatedSeries:
    """Trees of age >= r by size: z(1+T) T^{2r-1} / (1 + T^{2r-1})."""
    if r < 1:
        raise ValueError("r must be at least 1")
    t = series_T(order)
    t_pow = t ** (2 * r - 1)
    numerator = (TruncatedSeries.constant(1, order) + t).shift(1) * t_pow
    return numerator / (TruncatedSeries.constant(1, order) + t_pow)

