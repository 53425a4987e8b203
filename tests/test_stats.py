import time
from fractions import Fraction

import pytest

from catalan_stanley import stats
from catalan_stanley.enumeration import catalan
from catalan_stanley.stats import (
    DistributionTable,
    age_count_geq,
    age_distribution,
    age_variance,
    ancestor_distribution,
    expected_age,
    expected_age_via_survivals,
    expected_ancestor_size,
    max_ancestor_size,
    odd_divisor_count,
)
from catalan_stanley.asymptotics import ancestor_variance_asym


def brute_mean(counter):
    total = sum(counter.values())
    return Fraction(sum(value * weight for value, weight in counter.items()), total)


def brute_variance(counter):
    total = sum(counter.values())
    mean = brute_mean(counter)
    second = Fraction(
        sum(value * value * weight for value, weight in counter.items()), total
    )
    return second - mean * mean


class TestOddDivisors:
    @pytest.mark.parametrize("k,count", [(1, 1), (9, 3), (12, 2), (2, 1), (45, 6)])
    def test_values(self, k, count):
        assert odd_divisor_count(k) == count

    def test_matches_signed_pair_sum(self):
        # theta(k) = sum over j*(2r-1) = k of (-1)^(j-1) equals
        # (-1)^(k-1) times the odd divisor count
        for k in range(1, 61):
            theta = sum(
                (-1) ** (j - 1)
                for j in range(1, k + 1)
                for q in range(1, k + 1)
                if (2 * q - 1) * j == k
            )
            assert theta == (-1) ** (k - 1) * odd_divisor_count(k)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            odd_divisor_count(0)


class TestAgeCountGeq:
    @pytest.mark.parametrize(
        "n,r,value", [(4, 2, 1), (5, 2, 4), (2, 1, 1), (2, 2, 0), (3, 1, 1)]
    )
    def test_spot_values(self, n, r, value):
        assert age_count_geq(n, r) == value

    @pytest.mark.parametrize("n", range(2, 15))
    def test_vanishes_past_half(self, n):
        assert age_count_geq(n, n // 2 + 1) == 0
        assert age_count_geq(n, n // 2 + 5) == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_census(self, n, census):
        for r in range(1, 8):
            brute = sum(v for a, v in census(n).age_formula.items() if a >= r)
            assert age_count_geq(n, r) == brute

    def test_r_one_counts_everything(self):
        for n in range(2, 40):
            assert age_count_geq(n, 1) == catalan(n - 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            age_count_geq(0, 1)
        with pytest.raises(ValueError):
            age_count_geq(5, 0)


class TestAgeDistribution:
    def test_size_four(self):
        table = age_distribution(4)
        assert table.support == (1, 2)
        assert table.masses == (Fraction(1, 2), Fraction(1, 2))

    def test_size_five(self):
        table = age_distribution(5)
        assert dict(zip(table.support, table.masses)) == {
            1: Fraction(1, 5),
            2: Fraction(4, 5),
        }

    def test_size_two_deterministic(self):
        assert age_distribution(2).support == (1,)

    def test_size_one_degenerate(self):
        table = age_distribution(1)
        assert table == DistributionTable(1, (0,), (1,))
        assert table.masses == (Fraction(1),)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_census(self, n, census):
        table = age_distribution(n)
        total = census(n).count
        assert dict(zip(table.support, table.masses)) == {
            a: Fraction(v, total) for a, v in census(n).age_formula.items()
        }

    @pytest.mark.parametrize("n", [2, 7, 30, 101])
    def test_support_inside_bounds(self, n):
        table = age_distribution(n)
        assert table.support[0] >= 1
        assert table.support[-1] <= n // 2

    @pytest.mark.parametrize("n", [40, 60])
    def test_binomial_route_matches_series_beyond_enumeration(self, n):
        """Past exhaustive range the pmf still has two independent exact
        routes: the binomial extraction and the survival series."""
        from catalan_stanley.series import series_F_geq

        table = age_distribution(n)
        pmf = dict(zip(table.support, table.masses))
        total = catalan(n - 2)
        survivals = [series_F_geq(r, n).coefficient(n) for r in range(1, n // 2 + 2)]
        for r in range(1, n // 2 + 1):
            mass = Fraction(survivals[r - 1] - survivals[r], total)
            assert pmf.get(r, 0) == mass

    def test_builds_one_extraction_table(self, monkeypatch):
        # nothing is cached across calls; every r is read from one table
        sizes = []
        build = stats._extraction_table
        monkeypatch.setattr(
            stats, "_extraction_table", lambda n: sizes.append(n) or build(n)
        )
        age_distribution(40)
        age_variance(41)
        age_distribution(40)
        assert sizes == [40, 41, 40]


class TestExpectedAge:
    @pytest.mark.parametrize("n,value", [(2, 1), (4, Fraction(3, 2)), (5, Fraction(9, 5))])
    def test_spot_values(self, n, value):
        assert expected_age(n) == value

    def test_size_one(self):
        assert expected_age(1) == 0
        assert expected_age_via_survivals(1) == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_three_routes_agree(self, n, census):
        mean = brute_mean(census(n).age_formula)
        assert expected_age(n) == mean
        assert expected_age_via_survivals(n) == mean
        assert age_distribution(n).mean() == mean

    @pytest.mark.parametrize("n", [50, 137, 200])
    def test_survival_route_large(self, n):
        assert expected_age(n) == expected_age_via_survivals(n)


class TestAgeVariance:
    @pytest.mark.parametrize(
        "n,value", [(2, 0), (4, Fraction(1, 4)), (5, Fraction(4, 25))]
    )
    def test_spot_values(self, n, value):
        assert age_variance(n) == value

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_census(self, n, census):
        assert age_variance(n) == brute_variance(census(n).age_formula)

    def test_size_one(self):
        assert age_variance(1) == 0


class TestExpectedAncestorSize:
    @pytest.mark.parametrize(
        "n,r,value",
        [(4, 1, Fraction(3, 2)), (5, 1, Fraction(9, 5)), (4, 2, 1), (2, 1, 1)],
    )
    def test_spot_values(self, n, r, value):
        assert expected_ancestor_size(n, r) == value

    @pytest.mark.parametrize("n", [2, 5, 9, 40])
    def test_r_zero_gives_size(self, n):
        assert expected_ancestor_size(n, 0) == n

    def test_deterministic_regime(self):
        for n in range(2, 12):
            for r in range(n // 2 + 1, n + 2):
                assert expected_ancestor_size(n, r) == 1

    def test_size_one(self):
        for r in (0, 1, 2, 3, 10**9):
            assert expected_ancestor_size(1, r) == 1

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_census(self, n, r, census):
        assert expected_ancestor_size(n, r) == brute_mean(census(n).ancestor_sizes(r))

    @pytest.mark.parametrize("n", [100, 400, 800])
    def test_large_sizes_sane(self, n):
        values = [expected_ancestor_size(n, r) for r in range(0, 4)]
        assert values[0] == n
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(1 <= v <= n for v in values)


class TestAncestorDistribution:
    def test_size_four(self):
        table = ancestor_distribution(4, 1)
        assert dict(zip(table.support, table.masses)) == {
            1: Fraction(1, 2),
            2: Fraction(1, 2),
        }

    def test_size_five(self):
        table = ancestor_distribution(5, 1)
        assert dict(zip(table.support, table.masses)) == {
            1: Fraction(1, 5),
            2: Fraction(4, 5),
        }

    def test_size_one(self):
        """The single node is its own r-th ancestor at every r."""
        for r in (0, 1, 2, 10**9):
            assert ancestor_distribution(1, r) == DistributionTable(1, (1,), (1,))

    def test_r_zero_point_mass(self):
        table = ancestor_distribution(7, 0)
        assert table.support == (7,)

    def test_depth_far_past_the_age_is_fast(self):
        start = time.perf_counter()
        table = ancestor_distribution(50, 10**9)
        assert time.perf_counter() - start < 1.0
        assert dict(zip(table.support, table.masses)) == {1: 1}

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_matches_census(self, n, r, census):
        table = ancestor_distribution(n, r)
        total = census(n).count
        assert dict(zip(table.support, table.masses)) == {
            m: Fraction(v, total) for m, v in census(n).ancestor_sizes(r).items()
        }

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_mean_matches_closed_form(self, n, r):
        assert ancestor_distribution(n, r).mean() == expected_ancestor_size(n, r)

    @pytest.mark.parametrize("n,r", [(16, 1), (24, 1), (32, 1), (48, 1), (24, 2), (32, 2)])
    def test_variance_tracks_four_term_expansion(self, n, r):
        # the expansion's error is O(1); the observed gap stays well under 1
        exact = float(ancestor_distribution(n, r).variance())
        predicted = ancestor_variance_asym(n, r).value
        assert abs(exact - predicted) < 1.0


class TestMaxAncestorSize:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_census(self, n, census):
        for r in range(1, 8):
            assert max_ancestor_size(n, r) == max(census(n).ancestor_sizes(r))

    def test_r_zero(self):
        assert max_ancestor_size(9, 0) == 9


class TestDistributionTable:
    def test_mass_lookup(self):
        table = age_distribution(5)
        assert dict(zip(table.support, table.masses)) == {1: Fraction(1, 5), 2: Fraction(4, 5)}

    def test_rejects_bad_masses(self):
        # size 4 has C(2) = 2 trees, so the counts must add up to 2
        with pytest.raises(ValueError):
            DistributionTable(4, (1,), (1,))
        with pytest.raises(ValueError):
            DistributionTable(4, (2, 1), (1, 1))

    @pytest.mark.parametrize("size_n,support,counts", [(0, (7,), (1,)), (-3, (1,), (1,))])
    def test_rejects_sizes_below_one(self, size_n, support, counts):
        # the counts add up to 1, which the tree count reads at every n <= 1
        with pytest.raises(ValueError, match="size_n must be positive"):
            DistributionTable(size_n, support, counts)

    def test_counts_are_tree_counts(self):
        table = age_distribution(5)
        assert table.counts == (1, 4)
        assert all(type(c) is int for c in ancestor_distribution(20, 2).counts)
        assert table.masses == (Fraction(1, 5), Fraction(4, 5))
