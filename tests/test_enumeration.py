import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from catalan_stanley.enumeration import (
    SamplerConfig,
    TreeIterator,
    _ancestor_size_from_tokens,
    _draw_bits,
    _first_tree_size,
    _root_child_sizes,
    _uniform_draws,
    catalan,
    count_trees,
    enumerate_trees,
    plane_trees,
    sample_reduced_sizes,
    sample_tree,
    sample_trees,
)
from catalan_stanley.errors import SamplingError
from catalan_stanley.stats import ancestor_distribution, max_ancestor_size
from catalan_stanley.tree import PlaneTree, age, chain, is_catalan_stanley, star


class TestCatalan:
    @pytest.mark.parametrize("n,value", [(0, 1), (1, 1), (2, 2), (3, 5), (10, 16796)])
    def test_values(self, n, value):
        assert catalan(n) == value

    def test_recurrence(self):
        for n in range(15):
            assert catalan(n + 1) == sum(
                catalan(k) * catalan(n - k) for k in range(n + 1)
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestCountTrees:
    @pytest.mark.parametrize("n,value", [(1, 1), (2, 1), (3, 1), (4, 2), (14, 208012)])
    def test_values(self, n, value):
        assert count_trees(n) == value

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_trees(0)


class TestEnumerate:
    def test_size_one(self):
        assert list(enumerate_trees(1)) == [PlaneTree()]

    def test_size_three_is_the_two_leaf_star(self):
        assert list(enumerate_trees(3)) == [star(3)]
        assert chain(3) not in list(enumerate_trees(3))

    def test_size_five_age_multiset(self):
        ages = sorted(age(t) for t in enumerate_trees(5))
        assert ages == [1, 2, 2, 2, 2]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_filtered_plane_trees(self, n):
        filtered = {t for t in plane_trees(n) if is_catalan_stanley(t)}
        enumerated = list(enumerate_trees(n))
        assert len(enumerated) == len(set(enumerated))
        assert set(enumerated) == filtered

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_trees(n)) == count_trees(n)

    def test_lexicographic_order(self):
        for n in (6, 9):
            words = [t.serialize() for t in enumerate_trees(n)]
            assert words == sorted(words)

    def test_streams_large_sizes(self):
        trees = list(itertools.islice(enumerate_trees(40), 1000))
        words = [t.serialize() for t in trees]
        assert len(words) == 1000
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(t.size() == 40 and is_catalan_stanley(t) for t in trees)

    def test_iterator_protocol(self):
        iterator = enumerate_trees(4)
        assert isinstance(iterator, TreeIterator)
        assert iterator.size == 4
        assert iterator.__length_hint__() == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)


class TestPlaneTrees:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_are_catalan(self, n):
        assert len(plane_trees(n)) == catalan(n - 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_lexicographic_order(self, n):
        words = [t.serialize() for t in plane_trees(n)]
        assert all(a < b for a, b in zip(words, words[1:]))


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(size=0, seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(size=3, seed=-1)
        with pytest.raises(ValueError):
            SamplerConfig(size=3, seed=2**64)
        with pytest.raises(ValueError):
            SamplerConfig(size=3, seed=0, max_rejections=0)


class TestSampleTree:
    def test_size_one_always_root(self):
        for seed in range(5):
            assert sample_tree(SamplerConfig(size=1, seed=seed)) == PlaneTree()

    def test_deterministic(self):
        first = sample_tree(SamplerConfig(size=100, seed=4))
        second = sample_tree(SamplerConfig(size=100, seed=4))
        assert first.serialize() == second.serialize()

    @pytest.mark.parametrize("size", [2, 3, 7, 20, 120])
    def test_samples_are_valid(self, size):
        tau = sample_tree(SamplerConfig(size=size, seed=17))
        assert tau.size() == size
        assert is_catalan_stanley(tau)

    def test_size_four_marginal(self):
        # 2 trees of size 4; binomial 4-sigma band around 1/2 is +-0.02
        star_word = star(4).serialize()
        chain_word = chain(4).serialize()
        hits = Counter(
            sample_tree(SamplerConfig(size=4, seed=s)).serialize()
            for s in range(10000)
        )
        assert set(hits) == {star_word, chain_word}
        assert abs(hits[star_word] / 10000 - 0.5) < 0.02

    def test_rejection_budget_exhausted(self):
        # seed 0 rejects its first draw at size 12
        with pytest.raises(SamplingError, match="accepted 0 of 1 .* size 12 in 1 draws"):
            sample_tree(SamplerConfig(size=12, seed=0, max_rejections=1))


class TestSampleTrees:
    def test_matches_single_sampler_distribution(self):
        trees = sample_trees(6, 300, seed=5)
        assert len(trees) == 300
        assert all(is_catalan_stanley(t) and t.size() == 6 for t in trees)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_uniform_chi_square(self, n):
        draws = 100000
        counts = Counter(t.serialize() for t in sample_trees(n, draws, seed=23))
        keys = sorted(t.serialize() for t in enumerate_trees(n))
        observed = [counts.get(k, 0) for k in keys]
        assert sum(observed) == draws
        _, p_value = scipy.stats.chisquare(observed)
        assert p_value > 0.001

    @pytest.mark.parametrize(
        "args",
        [
            dict(size=0, count=3),
            dict(size=5, count=-1),
            dict(size=5, count=3, seed=-1),
            dict(size=5, count=3, seed=2**64),
            dict(size=5, count=3, max_rejections=0),
            dict(size=5, count=3, batch=0),
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            sample_trees(**args)


class TestSampleReducedSizes:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_token_bijection_census(self, n, r, census):
        """The token-based computation over all plane trees of size n-1
        reproduces the reduce-based ancestor census exactly."""
        via_tokens = Counter(
            _ancestor_size_from_tokens([c.size() for c in tau.children], r)
            for tau in plane_trees(n - 1)
        )
        assert via_tokens == census(n).ancestor_sizes[r]

    def test_r_zero_returns_size(self):
        assert list(sample_reduced_sizes(9, 4, seed=1, r=0)) == [9, 9, 9, 9]

    @pytest.mark.parametrize("size", [1, 2])
    def test_tiny_sizes(self, size):
        assert list(sample_reduced_sizes(size, 3, seed=1)) == [1, 1, 1]

    def test_deterministic(self):
        a = sample_reduced_sizes(50, 40, seed=8)
        b = sample_reduced_sizes(50, 40, seed=8)
        assert list(a) == list(b)

    @pytest.mark.parametrize("n,r", [(8, 1), (10, 2)])
    def test_empirical_matches_exact_pmf(self, n, r, census):
        draws = 60000
        empirical = Counter(int(x) for x in sample_reduced_sizes(n, draws, seed=31, r=r))
        exact = census(n).ancestor_sizes[r]
        total = sum(exact.values())
        support = sorted(exact)
        assert set(empirical) <= set(support)
        observed = [empirical.get(m, 0) for m in support]
        expected = [draws * exact[m] / total for m in support]
        _, p_value = scipy.stats.chisquare(observed, expected)
        assert p_value > 0.001

    def test_expectation_matches_formula(self):
        from catalan_stanley.stats import expected_ancestor_size

        draws = sample_reduced_sizes(40, 60000, seed=13)
        exact = float(expected_ancestor_size(40, 1))
        standard_error = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - exact) < 4 * standard_error

    @pytest.mark.parametrize("forest", [*range(1, 61), 10**4])
    def test_first_tree_law_matches_exact(self, forest):
        """Over all draws the walk returns j with p(j) = C(j-1)C(M-j)/C(M)
        to a relative 2^-46, the residue at the middle included."""
        bits = _draw_bits(forest)
        sizes = range(1, forest + 1) if forest <= 60 else (1, 2, 50, forest // 2, forest)

        def least_rest(k):  # least rest whose low-end walk returns k or more
            lo, hi = 0, 1 << (bits - 1)
            while lo < hi:
                mid = (lo + hi) // 2
                if _first_tree_size(forest, 2 * mid, bits) >= k:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        def from_low_end(k):
            return least_rest(k + 1) - least_rest(k)

        for j in sizes:
            walk = Fraction(from_low_end(j) + from_low_end(forest + 1 - j), 1 << bits)
            exact = Fraction(catalan(j - 1) * catalan(forest - j), catalan(forest))
            assert abs(walk - exact) <= exact / 2**46, (forest, j)

    def test_root_child_sequence_chi_square(self):
        """The whole ordered tuple of root-child sizes follows the plane-tree law."""
        forest, draws = 6, 60000
        bits = _draw_bits(forest)
        rng_draws = _uniform_draws(np.random.default_rng(47), bits)
        empirical = Counter(
            tuple(_root_child_sizes(forest, rng_draws, bits)) for _ in range(draws)
        )
        exact = Counter(tuple(c.size() for c in t.children) for t in plane_trees(forest + 1))
        keys = sorted(exact)
        assert set(empirical) <= set(keys)
        observed = [empirical[k] for k in keys]
        expected = [draws * exact[k] / catalan(forest) for k in keys]
        _, p_value = scipy.stats.chisquare(observed, expected)
        assert p_value > 0.001

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_size_three(self, r):
        bits = _draw_bits(1)
        assert {_first_tree_size(1, d, bits) for d in (0, 1, (1 << bits) - 1)} == {1}
        (only,) = ancestor_distribution(3, r).support
        assert list(sample_reduced_sizes(3, 5, seed=2, r=r)) == [only] * 5

    @pytest.mark.parametrize("r", [1, 3])
    def test_size_one_million(self, r):
        draws = sample_reduced_sizes(10**6, 20, seed=0, r=r)
        assert draws.dtype == np.int64 and len(draws) == 20
        assert 1 <= draws.min() and draws.max() <= max_ancestor_size(10**6, r)
