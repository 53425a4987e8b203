from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import pytest

from catalan_stanley.enumeration import catalan, count_trees, enumerate_trees
from catalan_stanley.series import (
    BivariateSeries,
    TruncatedSeries,
    phi_apply,
    phi_power,
    series_F_geq,
    series_F_leq,
    series_S,
    series_T,
)
from catalan_stanley.stats import _ancestor_counts
from catalan_stanley.tree import age


def ts(*coeffs, order=None):
    return TruncatedSeries(list(coeffs), order)


small_ints = st.integers(min_value=-4, max_value=4)
series_strategy = st.lists(small_ints, min_size=1, max_size=8).map(TruncatedSeries)
units = st.sampled_from([1, -1])


class TestTruncatedSeries:
    def test_basic_arithmetic(self):
        f = ts(1, 2, 3)
        g = ts(0, 1, 1)
        assert (f + g).coefficients() == (1, 3, 4)
        assert (f - g).coefficients() == (1, 1, 2)
        assert (f * g).coefficients() == (0, 1, 3)
        assert (2 * f).coefficients() == (2, 4, 6)

    def test_mixed_orders_truncate(self):
        assert (ts(1, 1, 1) + ts(1, 1)).order == 1

    def test_division_roundtrip(self):
        f = ts(0, 3, 1, 4, 1, 5)
        g = ts(1, -2, 7, 0, 2, -1)
        assert f / g * g == f

    def test_division_requires_unit(self):
        with pytest.raises(ValueError):
            ts(1, 0) / ts(0, 1)

    @given(series_strategy, series_strategy, units)
    @settings(max_examples=60)
    def test_division_property(self, f, g, lead):
        unit = TruncatedSeries((lead,) + g.coefficients()[1:])
        n = min(f.order, unit.order)
        assert (f / unit * unit).coefficients() == f.truncate(n).coefficients()
        if g.coefficients()[0] not in (1, -1):
            with pytest.raises(ValueError):
                f / g

    def test_pow(self):
        t = series_T(8)
        assert t**3 == t * t * t
        assert (t**0).coefficients()[0] == 1

    def test_shift(self):
        assert ts(1, 2, 3).shift(1).coefficients() == (0, 1, 2)

    def test_shift_past_the_order_is_zero_at_once(self):
        # the padding is bounded by the order, not by k
        for k in (3, 4, 10**12):
            assert ts(1, 2, 3).shift(k) == TruncatedSeries([0], 2)
        assert TruncatedSeries([0, 1], 5).shift(10**12) == TruncatedSeries([0], 5)
        with pytest.raises(TypeError):
            ts(1, 2, 3).shift(1e12)

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            ts(1, 2).coefficient(5)

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            ts(1, 2).truncate(9)

    def test_exactness_types(self):
        with pytest.raises(TypeError):
            ts(1, Fraction(1, 3))
        with pytest.raises(TypeError):
            series_T(6) * Fraction(1, 3)
        with pytest.raises(TypeError):
            BivariateSeries([[0, Fraction(1, 3)]], 4)


class TestSeriesT:
    def test_order_zero(self):
        assert series_T(0).coefficients() == (0,)

    def test_first_coefficients(self):
        assert series_T(5).coefficients() == (0, 1, 1, 2, 5, 14)

    def test_matches_catalan(self):
        t = series_T(20)
        assert all(t.coefficient(n) == catalan(n - 1) for n in range(1, 21))

    def test_functional_equation_order_30(self):
        t = series_T(30)
        assert TruncatedSeries.z(30) + t * t == t


class TestSeriesS:
    def test_diagonal_counts(self):
        assert series_S(6).diagonal().coefficients() == (0, 1, 1, 1, 2, 5, 14)

    def test_single_node_and_two_chain_terms(self):
        s = series_S(8)
        assert s.coefficient(1, 0) == 1
        assert s.coefficient(1, 1) == 1
        assert s.coefficient(3, 1) == 1  # the 4-chain: three plain nodes, one mark
        assert s.coefficient(0, 0) == 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            series_S(0)


class TestBivariateConstruction:
    def test_rows_are_the_t_powers(self):
        rows = [ts(0, 1, order=4), ts(order=4), ts(2, 0, 3, order=4)]
        f = BivariateSeries(rows, 4)
        assert f.coefficient(1, 0) == 1
        assert f.coefficient(0, 2) == 2 and f.coefficient(2, 2) == 3
        assert f.items() == [((0, 2), 2), ((1, 0), 1), ((2, 2), 3)]

    def test_trailing_zero_rows_dropped(self):
        zero = ts(order=4)
        assert BivariateSeries([ts(0, 1, order=4), zero, zero], 4) == BivariateSeries(
            [ts(0, 1, order=4)], 4
        )
        assert BivariateSeries([zero, zero], 4) == BivariateSeries([], 4)

    def test_row_of_another_order_refused(self):
        with pytest.raises(ValueError):
            BivariateSeries([ts(0, 1, order=4), ts(1, order=5)], 4)
        with pytest.raises(ValueError):
            BivariateSeries([ts(1, order=3)], 4)

    def test_row_that_is_not_a_series_refused(self):
        with pytest.raises(TypeError):
            BivariateSeries([ts(0, 1, order=4), [1, 2, 3, 4, 5]], 4)
        with pytest.raises(TypeError):
            BivariateSeries([series_S(4)], 4)

    def test_negative_order_refused(self):
        with pytest.raises(ValueError):
            BivariateSeries([], -1)

    def test_monomial(self):
        assert BivariateSeries.monomial(2, 1, 4).items() == [((2, 1), 1)]
        # past the box the monomial is truncated away
        assert BivariateSeries.monomial(5, 0, 4) == BivariateSeries([], 4)
        assert BivariateSeries.monomial(0, 5, 4) == BivariateSeries([], 4)
        for i, j in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                BivariateSeries.monomial(i, j, 4)


class TestBivariateEquality:
    def test_order_is_part_of_equality(self):
        low, high = BivariateSeries.monomial(1, 0, 5), BivariateSeries.monomial(1, 0, 8)
        assert low != high
        assert hash(low) != hash(high)
        assert low == BivariateSeries.monomial(1, 0, 5)
        assert hash(low) == hash(BivariateSeries.monomial(1, 0, 5))


bivariate_strategy = st.lists(
    st.lists(small_ints, max_size=6).map(lambda coeffs: TruncatedSeries(coeffs, 5)),
    max_size=6,
).map(lambda rows: BivariateSeries(rows, 5))


def plus_multiple(f, g, k):
    """f + k g, formed row by row from the coefficients."""
    n = f.order
    return BivariateSeries(
        [
            TruncatedSeries(
                [f.coefficient(i, j) + k * g.coefficient(i, j) for i in range(n + 1)], n
            )
            for j in range(n + 1)
        ],
        n,
    )


class TestPhi:
    def test_on_single_node_class(self):
        expected = BivariateSeries([TruncatedSeries.z(8)] * 9, 8)
        assert phi_apply(BivariateSeries.monomial(1, 0, 8)) == expected

    def test_fixed_point(self):
        s = series_S(14)
        assert phi_apply(s) == s

    def test_chain_insertion_coefficient(self):
        image = phi_apply(BivariateSeries.monomial(1, 1, 6))
        assert image.coefficient(3, 1) == 1

    def test_power_zero_is_identity(self):
        f = series_S(10)
        assert phi_power(f, 0) == f

    def test_power_one_matches_apply(self):
        f = BivariateSeries.monomial(1, 0, 10)
        assert phi_power(f, 1) == phi_apply(f)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_power_matches_iteration(self, r):
        for f in (
            BivariateSeries.monomial(1, 0, 12),
            BivariateSeries.monomial(1, 1, 12),
            series_S(12),
        ):
            iterated = f
            for _ in range(r):
                iterated = phi_apply(iterated)
            assert phi_power(f, r) == iterated

    def test_linearity(self):
        f = BivariateSeries.monomial(2, 1, 10)
        g = BivariateSeries.monomial(1, 2, 10)
        assert phi_apply(plus_multiple(f, g, 3)) == plus_multiple(
            phi_apply(f), phi_apply(g), 3
        )
        assert phi_power(plus_multiple(f, g, 3), 3) == plus_multiple(
            phi_power(f, 3), phi_power(g, 3), 3
        )

    @pytest.mark.parametrize("split", [(1, 1), (2, 1), (2, 3)])
    @given(f=bivariate_strategy)
    @example(f=series_S(10))
    @settings(max_examples=30)
    def test_powers_compose(self, split, f):
        a, b = split
        assert phi_power(phi_power(f, a), b) == phi_power(f, a + b)
        assert phi_power(f, 1) == phi_apply(f)


class TestSurvivalSeries:
    def test_large_r_stops_at_order(self):
        # T^{2k} vanishes mod z^13 once 2k > 12, so r = 7 already gives the sum
        assert series_F_leq(10**6, 12) == series_F_leq(7, 12)

    def test_age_zero_class_is_single_node(self):
        assert series_F_leq(0, 8) == BivariateSeries.monomial(1, 0, 8)

    def test_age_one_diagonal_counts_one_tree_per_size(self):
        diagonal = series_F_leq(1, 8).diagonal()
        assert diagonal.coefficients() == (0,) + (1,) * 8

    def test_coefficients_count_trees_by_branches_and_age(self):
        """[z^(n-k) t^k] S counts the size-n trees with k root branches, and
        [z^(n-k) t^k] F_leq(r) those of them of age <= r."""
        order = 12
        s = series_S(order)
        f_leq = [series_F_leq(r, order) for r in range(6)]
        for n in range(1, order + 1):
            shapes = Counter((len(tau.children), age(tau)) for tau in enumerate_trees(n))
            for k in range(n + 1):
                with_k = {a: v for (b, a), v in shapes.items() if b == k}
                assert s.coefficient(n - k, k) == sum(with_k.values())
                for r, f in enumerate(f_leq):
                    at_most_r = sum(v for a, v in with_k.items() if a <= r)
                    assert f.coefficient(n - k, k) == at_most_r

    def test_stabilizes_at_full_count(self):
        order = 12
        full = series_S(order).diagonal()
        assert series_F_leq(order // 2, order).diagonal() == full

    def test_monotone_in_r(self):
        order = 10
        previous = series_F_leq(0, order).diagonal()
        for r in range(1, 7):
            current = series_F_leq(r, order).diagonal()
            assert all(
                current.coefficient(n) >= previous.coefficient(n)
                for n in range(order + 1)
            )
            previous = current

    def test_geq_counts_all_trees_at_r_one(self):
        assert series_F_geq(1, 6).coefficients() == (0, 0, 1, 1, 2, 5, 14)

    def test_geq_spot_values(self):
        f2 = series_F_geq(2, 6)
        assert f2.coefficient(4) == 1
        assert f2.coefficient(5) == 4

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 7])
    def test_geq_complement_identity(self, r):
        order = 14
        expected = series_S(order).diagonal() - series_F_leq(r - 1, order).diagonal()
        assert series_F_geq(r, order) == expected

    def test_geq_requires_positive_r(self):
        with pytest.raises(ValueError):
            series_F_geq(0, 6)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_geq_matches_census(self, n, r, census):
        brute = sum(v for a, v in census(n).age_formula.items() if a >= r)
        assert series_F_geq(r, n).coefficient(n) == brute


class TestAncestorSeries:
    """[z^n v^m] G_r(z,v), read by `stats._ancestor_counts` as a sum over
    ancestor shapes of products of univariate coefficients."""

    def test_r_zero_diagonal(self):
        # G_0 = S(zv, zv): with no reduction every tree is its own ancestor
        for n in range(1, 13):
            assert _ancestor_counts(n, 0) == {n: count_trees(n)}

    def test_first_reduction_slice_at_size_four(self):
        assert _ancestor_counts(4, 1) == {1: 1, 2: 1}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_total_mass(self, n):
        assert sum(_ancestor_counts(n, 1).values()) == count_trees(n)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_matches_census(self, n, r, census):
        assert _ancestor_counts(n, r) == dict(census(n).ancestor_sizes(r))


def test_process_series_have_int_coefficients():
    # every denominator of the process has constant term 1
    bivariate = [
        series_S(20),
        phi_apply(series_S(12)),
        phi_power(series_S(12), 3),
        series_F_leq(3, 16),
    ]
    values = [c for f in bivariate for _, c in f.items()]
    values += series_F_geq(2, 16).coefficients()
    assert values and all(type(c) is int for c in values)
