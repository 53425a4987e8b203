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
each denominator it divides by (1-t, 1-t-T^2, the denominator of W) has
constant term 1; division therefore asks for a constant term of +1 or
-1, whose inverse is itself, and any other coefficient type is refused.

Bivariate series are truncated to the box {z-degree <= N, t-degree <= N}
and stored as rows: row j is the univariate z-series multiplying t^j, so
every bivariate operation is a loop over the univariate kernels.  All
operations used here (sum, product, division by a unit, substitution of
a series with positive z-valuation) only ever move coefficients to
higher degrees, so every stored coefficient is exact.  No floating point
enters this module.
"""

from __future__ import annotations

import operator

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


_UNIT_ERROR = "series division requires a constant term of +1 or -1"


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

    def valuation(self) -> int | None:
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

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
            raise ValueError(_UNIT_ERROR)
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
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries([0] * k + list(self._coeffs), self.order)

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

    Built from a mapping {(z-degree, t-degree): coefficient}; stored as one
    TruncatedSeries of order `order` per t-degree, without trailing zero
    rows.
    """

    __slots__ = ("_rows", "_order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        rows: dict[int, list] = {}
        for (i, j), c in dict(coeffs).items():
            if not 0 <= i or not 0 <= j:
                raise ValueError(f"negative exponent in monomial ({i}, {j})")
            if i <= order and j <= order:
                rows.setdefault(j, [0] * (order + 1))[i] = c
        self._order = order
        top = max(rows, default=-1)
        self._rows = self._trimmed(
            [TruncatedSeries(rows.get(j, ()), order) for j in range(top + 1)]
        )

    @staticmethod
    def _trimmed(rows: list[TruncatedSeries]) -> tuple[TruncatedSeries, ...]:
        while rows and not any(rows[-1]._coeffs):
            rows.pop()
        return tuple(rows)

    def _with_rows(self, rows: list[TruncatedSeries]) -> "BivariateSeries":
        """A series of this order; rows must have this order."""
        out = object.__new__(BivariateSeries)
        out._order = self._order
        out._rows = self._trimmed(rows)
        return out

    @classmethod
    def constant(cls, value, order: int) -> "BivariateSeries":
        return cls({(0, 0): value}, order)

    @classmethod
    def monomial(cls, i: int, j: int, order: int, value=1) -> "BivariateSeries":
        return cls({(i, j): value}, order)

    @classmethod
    def from_univariate(cls, f: TruncatedSeries, order: int) -> "BivariateSeries":
        row = f.coefficients()[: order + 1]
        return cls({(i, 0): c for i, c in enumerate(row)}, order)

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

    def z_valuation(self) -> int | None:
        vals = (row.valuation() for row in self._rows)
        return min((v for v in vals if v is not None), default=None)

    def _check_compatible(self, other: "BivariateSeries") -> None:
        if self._order != other._order:
            raise ValueError("mixing truncation orders")

    def __add__(self, other):
        if not isinstance(other, BivariateSeries):
            return self + BivariateSeries.constant(other, self._order)
        self._check_compatible(other)
        longer, shorter = sorted((self._rows, other._rows), key=len, reverse=True)
        return self._with_rows(
            [a + b for a, b in zip(longer, shorter)] + list(longer[len(shorter) :])
        )

    __radd__ = __add__

    def __neg__(self):
        return self._with_rows([-row for row in self._rows])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, BivariateSeries):
            scalar = operator.index(other)
            return self._with_rows([row * scalar for row in self._rows])
        self._check_compatible(other)
        n = self._order
        out = [TruncatedSeries([], n)] * (n + 1)
        for i, a in enumerate(self._rows):
            for j, b in enumerate(other._rows[: n + 1 - i], i):
                out[j] = out[j] + a * b
        return self._with_rows(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        self._check_compatible(other)
        den = other._rows
        if not den or den[0]._coeffs[0] not in (1, -1):
            raise ValueError(_UNIT_ERROR)
        zero = TruncatedSeries([], self._order)
        out: list[TruncatedSeries] = []
        # row j of the quotient q solves sum_b den_b * q_{j-b} = self_j
        for j in range(self._order + 1):
            acc = self._rows[j] if j < len(self._rows) else zero
            for b in range(1, min(j, len(den) - 1) + 1):
                acc = acc - den[b] * out[j - b]
            out.append(acc / den[0])
        return self._with_rows(out)

    def substitute_second(self, g: "BivariateSeries") -> "BivariateSeries":
        """Replace t by g(z, t); g needs z-valuation >= 1."""
        self._check_compatible(g)
        val = g.z_valuation()
        if val is not None and val < 1:
            raise ValueError("substitution requires z-valuation >= 1")
        # Horner's rule over the rows, highest power of t first
        result = self._with_rows([])
        for row in reversed(self._rows):
            result = result * g + self._with_rows([row])
        return result

    def diagonal(self) -> TruncatedSeries:
        """Set t equal to z."""
        out = TruncatedSeries([], self._order)
        for j, row in enumerate(self._rows):
            out = out + row.shift(j)
        return out

    def __eq__(self, other):
        return isinstance(other, BivariateSeries) and self.items() == other.items()

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        # `verify` prints this repr; the var='t' field keeps its output stable
        return f"BivariateSeries(order={self._order}, var='t', {len(self.items())} terms)"


def series_T(order: int) -> TruncatedSeries:
    """Plane tree series: [z^n] T = C(n-1) for n >= 1; satisfies z + T^2 = T."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedSeries([0] + [catalan(n - 1) for n in range(1, order + 1)], order)


def series_S(order: int) -> BivariateSeries:
    """Catalan-Stanley class series S(z,t) = z + zt/(1 - t - T^2)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    t_sq = BivariateSeries.from_univariate(series_T(order) ** 2, order)
    den = (
        BivariateSeries.constant(1, order)
        - BivariateSeries.monomial(0, 1, order)
        - t_sq
    )
    return (
        BivariateSeries.monomial(1, 1, order) / den
        + BivariateSeries.monomial(1, 0, order)
    )


def phi_apply(f: BivariateSeries) -> BivariateSeries:
    """Expansion operator: Phi(f)(z,t) = f(z, tT^2/(1-t)) / (1-t).

    Enumerates all trees reducing into the family counted by f.
    """
    n = f.order
    one_minus_t = BivariateSeries.constant(1, n) - BivariateSeries.monomial(0, 1, n)
    t_sq = BivariateSeries.from_univariate(series_T(n) ** 2, n)
    g = BivariateSeries.monomial(0, 1, n) * t_sq / one_minus_t
    return f.substitute_second(g) / one_minus_t


def phi_power(f: BivariateSeries, r: int) -> BivariateSeries:
    """Closed form of the r-fold expansion.

    Phi^r(f)(z,t) = W * f(z, t T^{2r} W) with
    W = 1 / (1 - t(1-T^{2r})/(1-T^2)); Phi^0 is the identity (the closed
    form degenerates to 0/0 there, so r = 0 is special-cased).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return f
    n = f.order
    t = series_T(n)
    t_pow = t ** (2 * r)
    geometric = BivariateSeries.from_univariate((1 - t_pow) / (1 - t * t), n)
    w_den = BivariateSeries.constant(1, n) - BivariateSeries.monomial(0, 1, n) * geometric
    inner = BivariateSeries.monomial(0, 1, n) * BivariateSeries.from_univariate(t_pow, n) / w_den
    return f.substitute_second(inner) / w_den


def series_F_leq(r: int, order: int) -> BivariateSeries:
    """Trees of age <= r: F_r(z,t) = z / (1 - t(1-T^{2r})/(1-T^2))."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    t = series_T(order)
    geometric = BivariateSeries.from_univariate((1 - t ** (2 * r)) / (1 - t * t), order)
    den = (
        BivariateSeries.constant(1, order)
        - BivariateSeries.monomial(0, 1, order) * geometric
    )
    return BivariateSeries.monomial(1, 0, order) / den


def series_F_geq(r: int, order: int) -> TruncatedSeries:
    """Trees of age >= r by size: z(1+T) T^{2r-1} / (1 + T^{2r-1})."""
    if r < 1:
        raise ValueError("r must be at least 1")
    t = series_T(order)
    t_pow = t ** (2 * r - 1)
    numerator = (TruncatedSeries.constant(1, order) + t).shift(1) * t_pow
    return numerator / (TruncatedSeries.constant(1, order) + t_pow)

