"""Truncated formal power series with exact integer coefficients.

Carriers for the generating functions of the growth process: the plane
tree series T(z) with z + T^2 = T, the class series S(z,t) = z +
zt/(1 - t - T^2) where t marks the rightmost leaves in the branches at
the root, the expansion operator Phi(f)(z,t) = f(z, tT^2/(1-t))/(1-t)
together with its closed r-fold form, the age survival series, and the
ancestor-size series G_r(z,v).

Univariate series hold coefficients 0..N as a dense tuple of Python
ints.  Every series of the process has integer coefficients, because
each denominator it divides by (1-t, 1-t-T^2, the denominator of W) has
constant term 1; division therefore asks for a constant term of +1 or
-1, whose inverse is itself, and any other coefficient type is refused.

Bivariate series are truncated to the box {z-degree <= N, second-degree
<= N} and stored as rows: row j is the univariate z-series multiplying
t^j (or v^j), so every bivariate operation is a loop over the univariate
kernels.  All operations used here (sum, product, division by a unit,
substitution of a series with positive z-valuation) only ever move
coefficients to higher degrees, so every stored coefficient is exact.
No floating point enters this module.
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
    "series_G",
]


_UNIT_ERROR = "series division requires a constant term of +1 or -1"


def _power(base, exponent, one):
    """base**exponent by repeated squaring, starting from the unit `one`."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("only nonnegative integer powers are supported")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


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
        return _power(self, exponent, TruncatedSeries.constant(1, self.order))

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
    """Series in z and one marker variable, boxed at degree `order` in each.

    Built from a mapping {(z-degree, second-degree): coefficient}; stored
    as one TruncatedSeries of order `order` per second-degree, without
    trailing zero rows.
    """

    __slots__ = ("_rows", "_order", "_var")

    def __init__(self, coeffs, order: int, var: str = "t"):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if var not in ("t", "v"):
            raise ValueError("second variable must be 't' or 'v'")
        rows: dict[int, list] = {}
        for (i, j), c in dict(coeffs).items():
            if not 0 <= i or not 0 <= j:
                raise ValueError(f"negative exponent in monomial ({i}, {j})")
            if i <= order and j <= order:
                rows.setdefault(j, [0] * (order + 1))[i] = c
        self._order = order
        self._var = var
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
        """A series of this order and variable; rows must have this order."""
        out = object.__new__(BivariateSeries)
        out._order = self._order
        out._var = self._var
        out._rows = self._trimmed(rows)
        return out

    @classmethod
    def constant(cls, value, order: int, var: str = "t") -> "BivariateSeries":
        return cls({(0, 0): value}, order, var)

    @classmethod
    def monomial(cls, i: int, j: int, order: int, var: str = "t", value=1) -> "BivariateSeries":
        return cls({(i, j): value}, order, var)

    @classmethod
    def from_univariate(cls, f: TruncatedSeries, order: int, var: str = "t") -> "BivariateSeries":
        row = f.coefficients()[: order + 1]
        return cls({(i, 0): c for i, c in enumerate(row)}, order, var)

    @property
    def order(self) -> int:
        return self._order

    @property
    def var(self) -> str:
        return self._var

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
        if self._var != other._var:
            raise ValueError(f"mixing variables {self._var!r} and {other._var!r}")
        if self._order != other._order:
            raise ValueError("mixing truncation orders")

    def __add__(self, other):
        if not isinstance(other, BivariateSeries):
            return self + BivariateSeries.constant(other, self._order, self._var)
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

    def __pow__(self, exponent: int):
        return _power(self, exponent, BivariateSeries.constant(1, self._order, self._var))

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
        """Replace the second variable by g(z, second); g needs z-valuation >= 1."""
        self._check_compatible(g)
        val = g.z_valuation()
        if val is not None and val < 1:
            raise ValueError("substitution requires z-valuation >= 1")
        # Horner's rule over the rows, highest power of the second variable first
        result = self._with_rows([])
        for row in reversed(self._rows):
            result = result * g + self._with_rows([row])
        return result

    def diagonal(self) -> TruncatedSeries:
        """Set the second variable equal to z."""
        out = TruncatedSeries([], self._order)
        for j, row in enumerate(self._rows):
            out = out + row.shift(j)
        return out

    def slice_z(self, n: int) -> dict[int, int]:
        """Coefficients of z^n as a map from second-variable degree."""
        if not 0 <= n <= self._order:
            raise ValueError(f"degree {n} outside computed order {self._order}")
        return {j: row._coeffs[n] for j, row in enumerate(self._rows) if row._coeffs[n]}

    def __eq__(self, other):
        return (
            isinstance(other, BivariateSeries)
            and self._var == other._var
            and self.items() == other.items()
        )

    def __hash__(self):
        return hash((self._var, tuple(self.items())))

    def __repr__(self):
        return (
            f"BivariateSeries(order={self._order}, var={self._var!r}, "
            f"{len(self.items())} terms)"
        )


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


def _operator_input(f: BivariateSeries, order: int | None) -> BivariateSeries:
    """f truncated to `order` (default: its own); the operators act on t."""
    if f.var != "t":
        raise ValueError("operator input must use second variable 't'")
    n = f.order if order is None else order
    if n > f.order:
        raise ValueError(
            f"cannot extend a series computed to order {f.order} up to {n}"
        )
    return f if n == f.order else BivariateSeries(dict(f.items()), n, f.var)


def phi_apply(f: BivariateSeries, order: int | None = None) -> BivariateSeries:
    """Expansion operator: Phi(f)(z,t) = f(z, tT^2/(1-t)) / (1-t).

    Enumerates all trees reducing into the family counted by f.
    """
    f = _operator_input(f, order)
    n = f.order
    one_minus_t = BivariateSeries.constant(1, n) - BivariateSeries.monomial(0, 1, n)
    t_sq = BivariateSeries.from_univariate(series_T(n) ** 2, n)
    g = BivariateSeries.monomial(0, 1, n) * t_sq / one_minus_t
    return f.substitute_second(g) / one_minus_t


def _geometric_t_powers(order: int, r: int) -> TruncatedSeries:
    """(1 - T^{2r}) / (1 - T^2) written as the polynomial sum_{k<r} T^{2k}.

    T^{2k} has z-valuation 2k, so it vanishes at this order once 2k > order
    and the sum stops there, however large r is.
    """
    t = series_T(order)
    total = TruncatedSeries.constant(0, order)
    power = TruncatedSeries.constant(1, order)
    t_sq = t * t
    for _ in range(min(r, order // 2 + 1)):
        total = total + power
        power = power * t_sq
    return total


def phi_power(f: BivariateSeries, r: int, order: int | None = None) -> BivariateSeries:
    """Closed form of the r-fold expansion.

    Phi^r(f)(z,t) = W * f(z, t T^{2r} W) with
    W = 1 / (1 - t(1-T^{2r})/(1-T^2)); Phi^0 is the identity (the closed
    form degenerates to 0/0 there, so r = 0 is special-cased).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    f = _operator_input(f, order)
    if r == 0:
        return f
    n = f.order
    geometric = BivariateSeries.from_univariate(_geometric_t_powers(n, r), n)
    w_den = BivariateSeries.constant(1, n) - BivariateSeries.monomial(0, 1, n) * geometric
    t_pow = BivariateSeries.from_univariate(series_T(n) ** (2 * r), n)
    inner = BivariateSeries.monomial(0, 1, n) * t_pow / w_den
    return f.substitute_second(inner) / w_den


def series_F_leq(r: int, order: int) -> BivariateSeries:
    """Trees of age <= r: F_r(z,t) = z / (1 - t(1-T^{2r})/(1-T^2))."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    geometric = BivariateSeries.from_univariate(_geometric_t_powers(order, r), order)
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


def series_G(r: int, order: int) -> BivariateSeries:
    """Joint series of size (z) and r-th ancestor size (v).

    Built from the closed-form expansion applied to S(zv, tv) with t set
    to z afterwards, which collapses to
    G_r(z,v) = W(z) * S(zv, z T^{2r} W(z) v),
    W(z) = 1 / (1 - z(1-T^{2r})/(1-T^2)).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = order
    t = series_T(n)
    w = TruncatedSeries.constant(1, n) / (
        TruncatedSeries.constant(1, n) - _geometric_t_powers(n, r).shift(1)
    )
    u_coeffs = (t ** (2 * r) * w).shift(1).coefficients()
    u = BivariateSeries({(i, 1): c for i, c in enumerate(u_coeffs)}, n, "v")
    t_zv = BivariateSeries({(i, i): c for i, c in enumerate(t.coefficients())}, n, "v")
    zv = BivariateSeries.monomial(1, 1, n, "v")
    den = BivariateSeries.constant(1, n, "v") - u - t_zv * t_zv
    s_at = zv + zv * u / den
    return BivariateSeries.from_univariate(w, n, "v") * s_at
