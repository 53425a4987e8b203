import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import catalan_stanley.enumeration
from catalan_stanley.enumeration import (
    _TAIL,
    _WINDOW,
    _ancestor_size_from_tokens,
    _cycle_lemma_rows,
    _draw_bits,
    _dyck_blocks,
    _first_tree_size,
    _root_child_sizes,
    _rotated_words,
    _sample_words,
    _shuffled_rows,
    _tree_blocks,
    _trees,
    _uniform_draws,
    catalan,
    count_trees,
    enumerate_trees,
    plane_trees,
    sample_reduced_sizes,
    sample_trees,
)
from catalan_stanley.errors import CapacityError, SamplingError
from catalan_stanley.stats import ancestor_distribution, max_ancestor_size
from catalan_stanley.tree import (
    DyckPath,
    PlaneTree,
    age,
    dyck_to_tree,
    has_odd_returns,
    is_catalan_stanley,
    parse_tree,
)

from tree_shapes import chain, depth_string, star


PIN_SEEDS = (0, 7, 2**63 + 5, 2**64 - 1)


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
        with pytest.raises(ValueError):
            enumerate_trees(-1)  # at the call, before the first tree is asked for
        iterator = enumerate_trees(4)
        assert iter(iterator) is iterator
        assert len(list(iterator)) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)

    def test_past_the_depth_string_bound_rejected(self):
        with pytest.raises(CapacityError, match="deeper than 1,114,111"):
            enumerate_trees(0x10FFFF + 2)  # at the call; the walk would climb to depth 1,114,112
        first = next(enumerate_trees(0x10FFFF + 1))
        assert first._depths == "".join(map(chr, range(0x10FFFF + 1)))


def _balanced_words(semilength):
    """Balanced words over {(, )} of the given semilength, in lex order: every
    word of that length from itertools.product, filtered by its prefix sums."""
    for steps in itertools.product((1, -1), repeat=2 * semilength):
        if sum(steps) == 0 and min(itertools.accumulate(steps), default=0) >= 0:
            yield steps


class TestIndependentRoute:
    """The enumerators against a filter of all words, on both sides of the
    cut between the walked steps and the looked-up ones."""

    @pytest.mark.parametrize("m", range(11))
    def test_filtered_product(self, m):
        assert _TAIL < 2 * 10  # the largest words are walked past the cut
        paths = [DyckPath(steps) for steps in _balanced_words(m)]
        words = ["(" + "".join("(" if s == 1 else ")" for s in p.steps) + ")" for p in paths]
        odd = [w for w, p in zip(words, paths) if has_odd_returns(p)]
        assert [t.serialize() for t in plane_trees(m + 1)] == words
        assert [t.serialize() for t in enumerate_trees(m + 1)] == odd

    @pytest.mark.parametrize("tail", [1, 2, 5])
    def test_cut_does_not_change_the_words(self, tail, monkeypatch):
        cases = [(m, odd) for m in (8, 9) for odd in (False, True)]
        expected = [list(_trees(_dyck_blocks(*case))) for case in cases]
        monkeypatch.setattr(catalan_stanley.enumeration, "_TAIL", tail)
        assert [list(_trees(_dyck_blocks(*case))) for case in cases] == expected

    @pytest.mark.parametrize("tail", [1, 2, 5, 10])
    def test_depth_strings_match_the_words(self, tail, monkeypatch):
        """The walk and the table fill each tree's depth string; it is the
        one the word gives, on both sides of the cut."""
        monkeypatch.setattr(catalan_stanley.enumeration, "_TAIL", tail)
        for n in range(1, 13):
            for tau in itertools.chain(enumerate_trees(n), plane_trees(n)):
                assert tau._depths == depth_string(tau._word)

    def test_memory_does_not_grow_with_size(self):
        """The walk holds one prefix; the completion table is fixed at import."""
        tracemalloc.start()
        try:
            consumed = sum(1 for _ in itertools.islice(enumerate_trees(60), 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert consumed == 2000
        assert peak < 2**20


class TestBlocks:
    """The one walk's blocks, which both the tree enumerators and the CLI
    read: a prefix and its tails, on both sides of the cut."""

    @pytest.mark.parametrize("tail", [1, 2, 5, 10])
    def test_blocks_join_to_the_trees(self, tail, monkeypatch):
        monkeypatch.setattr(catalan_stanley.enumeration, "_TAIL", tail)
        for n in range(1, 13):
            for blocks, trees in (
                (_tree_blocks(n), enumerate_trees(n)),
                (_dyck_blocks(n - 1, odd_returns=False), plane_trees(n)),
            ):
                blocks = list(blocks)
                assert all(words and len(words) == len(depths) for _, _, words, depths in blocks)
                joined = [
                    (prefix + w, depth_prefix + d)
                    for prefix, depth_prefix, words, depths in blocks
                    for w, d in zip(words, depths)
                ]
                assert joined == [(tau._word, tau._depths) for tau in trees]
                assert all(d == depth_string(w) for w, d in joined)
                if 2 * (n - 1) <= tail:  # the cut is 0: the table gives whole words
                    assert [block[:2] for block in blocks] == [("(", "\x00")]


class TestPlaneTrees:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_are_catalan(self, n):
        assert len(plane_trees(n)) == catalan(n - 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_lexicographic_order(self, n):
        words = [t.serialize() for t in plane_trees(n)]
        assert all(a < b for a, b in zip(words, words[1:]))


class TestSampleTree:
    """One tree per seed, as `sample` and `verify` draw them."""

    def test_size_one_always_root(self):
        for seed in range(5):
            assert sample_trees(1, 1, seed)[0] == PlaneTree()

    def test_deterministic(self):
        assert sample_trees(100, 1, 4)[0] == sample_trees(100, 1, 4)[0]

    @pytest.mark.parametrize("size", [2, 3, 7, 20, 120])
    def test_samples_are_valid(self, size):
        tau = sample_trees(size, 1, 17)[0]
        assert tau.size() == size
        assert is_catalan_stanley(tau)

    def test_size_four_marginal(self):
        # 2 trees of size 4; binomial 4-sigma band around 1/2 is +-0.02
        star_word = star(4).serialize()
        chain_word = chain(4).serialize()
        hits = Counter(sample_trees(4, 1, s)[0].serialize() for s in range(10000))
        assert set(hits) == {star_word, chain_word}
        assert abs(hits[star_word] / 10000 - 0.5) < 0.02

    def test_rejection_budget_exhausted(self, monkeypatch):
        # seed 0 rejects its first draw at size 12
        monkeypatch.setattr(catalan_stanley.enumeration, "_DRAWS_PER_TREE", 1)
        with pytest.raises(SamplingError, match="accepted 0 of 1 .* size 12 in 1 draws"):
            sample_trees(12, 1, 0)


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
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            sample_trees(**args)

    @pytest.mark.parametrize("size,count,seed", [(3, 4, 0), (12, 1, 3), (40, 7, 2), (1200, 2, 5)])
    def test_prefix_of_longer_run(self, size, count, seed):
        """The trees drawn do not depend on how many more are asked for."""
        assert sample_trees(size, count, seed) == sample_trees(size, count + 5, seed)[:count]

    @pytest.mark.parametrize(
        "args", [(1000, 500, 1), (5, 20000, 11), (18, 500, 7), (30, 1, 12345), (2000, 1, 3)]
    )
    def test_words_are_the_trees_serializations(self, args):
        """The word sampler that `verify` and the CLI read gives the trees'
        words, in order, at the calls they make and over many rounds."""
        assert _sample_words(*args) == [t.serialize() for t in sample_trees(*args)]

    @pytest.mark.parametrize(
        "args,digest",
        [
            ((2, 3, 0), "e98a740256966408b25ef040155674d4404d8a89b0fe76f350348ba9c944ebfa"),
            ((7, 5, 3), "c84c554fac954751107aa58bf5ac5098b6c827209385f5edcdf1ebe6bd4d50b7"),
            ((20, 3, 1), "ea113de337f08d694e94851c6081432dec7f479362417e1b75ee9f36d3c7f099"),
            ((30, 3, 9), "8d388bb8f761d5a61ad0912732ff35cb6b96c6c8173585806fa7ab0199fb5948"),
            ((150, 2, 1), "fce65d752aa6aa4cc8af0acce8370a8e848b21b16ec2a64d8221789db805a7fa"),
            ((400, 1, 2), "54e1a1f6495ae8ca803d77d1417b3e97ef9a900103fa7ec2bbf5bed98e58e319"),
        ],
    )
    def test_pinned_output(self, args, digest):
        """sha256 of the serialized trees, one per line, for (size, count, seed);
        recorded when the sampler drew 1024 paths a round."""
        words = "\n".join(t.serialize() for t in sample_trees(*args))
        assert hashlib.sha256(words.encode()).hexdigest() == digest

    def test_pinned_draws_across_sizes(self):
        """sha256 over the trees of every (size, count, seed) below, count 1
        and more; recorded before the first-child table and the bit-op mask."""
        digest = hashlib.sha256()
        for size, count in {2: 20, 5: 200, 18: 100, 1000: 20, 2000: 10}.items():
            for seed in PIN_SEEDS:
                for c in (1, count):
                    digest.update(repr((size, c, seed)).encode())
                    words = "\n".join(t.serialize() for t in sample_trees(size, c, seed))
                    digest.update(words.encode())
        assert digest.hexdigest() == (
            "5831765ad6288668dfcc8606a77f8b78c2b233d5a861a8cfe78fb0d2b57bfcde"
        )

    def test_pinned_budget_error(self, monkeypatch):
        monkeypatch.setattr(catalan_stanley.enumeration, "_DRAWS_PER_TREE", 3)
        with pytest.raises(SamplingError, match="accepted 2 of 4 .* size 12 in 12 draws"):
            sample_trees(12, 4, 5)

    def test_large_size_memory_is_bounded(self):
        """Two trees of size 10^4 draw only the paths they need; a fixed round of
        1024 paths peaked at about 410 MiB."""
        tracemalloc.start()
        try:
            trees = sample_trees(10**4, 2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [t.size() for t in trees] == [10**4, 10**4]
        assert peak < 32 * 2**20

    def test_pinned_draws_past_int16_heights(self):
        """sha256 over the trees of every (size, count, seed) below: rows of
        32767 steps (int16 heights) and of 32769 and 39999 (int32); recorded
        before the membership step read the unrotated rows."""
        digest = hashlib.sha256()
        for size in (16384, 16385, 20000):
            for seed in PIN_SEEDS:
                for c in (1, 3):
                    digest.update(repr((size, c, seed)).encode())
                    words = "\n".join(t.serialize() for t in sample_trees(size, c, seed))
                    digest.update(words.encode())
        assert digest.hexdigest() == (
            "b0ccab4ec26fc5323e10f14daab0e3901a7282d72e66aa8119530185134700c6"
        )

    def test_pinned_draws_over_many_rounds(self):
        """sha256 over 500 trees of size 1000 for two seeds, 136 and 140
        rounds of at most 16 rows; recorded before the membership step read
        the unrotated rows."""
        digest = hashlib.sha256()
        for seed in (1, 2**64 - 1):
            digest.update(repr((1000, 500, seed)).encode())
            words = "\n".join(t.serialize() for t in sample_trees(1000, 500, seed))
            digest.update(words.encode())
        assert digest.hexdigest() == (
            "407771b63c858ec0dbab5e18e859abf66e98bf78e92dee24a1fd4febb48130c9"
        )

    def test_path_rotation_memory_is_bounded(self):
        """A round of 20000 rows of 9 steps, rotating only the kept rows; an
        int64 rotation index over every step peaked at about 3.8 MiB, and
        rotating every row through a doubled copy at 0.98 MiB before the
        membership mask."""
        tracemalloc.start()
        try:
            padded = _shuffled_rows(np.random.default_rng(0), 4, 20000)
            words = _rotated_words(padded, *_cycle_lemma_rows(padded))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert padded.shape == (20000, _WINDOW + 9)
        assert all(is_catalan_stanley(parse_tree(w)) for w in words)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "semilength,rows",
        [(4, 100), (999, 40), (4, 20000), (20000, 3)],
        ids=["short-rows", "mid-rows", "many-rows", "long-rows"],
    )
    def test_int64_shuffle_matches_one_int8_call(self, semilength, rows):
        """The int64 shuffle draws the rows and leaves the generator as one
        `permuted` call over the int8 rows does; each row is preceded by its
        last _WINDOW steps."""
        length = 2 * semilength + 1
        reference_rng = np.random.default_rng(rows)
        steps = np.full((rows, length), -1, dtype=np.int8)
        steps[:, :semilength] = 1
        reference_rng.permuted(steps, axis=1, out=steps)
        rng = np.random.default_rng(rows)
        padded = _shuffled_rows(rng, semilength, rows)
        assert padded.dtype == np.int8
        assert np.array_equal(padded[:, _WINDOW:], steps)
        assert np.array_equal(padded[:, :_WINDOW], steps[:, length - _WINDOW :])
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("steps", [1, 7, catalan_stanley.enumeration._SHUFFLE_STEPS])
    def test_trees_do_not_depend_on_the_shuffle_chunk(self, steps, monkeypatch):
        """Round caps (_SHUFFLE_STEPS) of one row, of a few short rows that
        bind before the 2^11-step floor, and the default all give the
        pinned trees and budget error."""
        monkeypatch.setattr(catalan_stanley.enumeration, "_SHUFFLE_STEPS", steps)
        self.test_pinned_draws_across_sizes()
        self.test_pinned_draws_over_many_rounds()
        self.test_pinned_draws_past_int16_heights()
        self.test_pinned_budget_error(monkeypatch)

    @pytest.mark.parametrize("low,high", [(1, 1), (2**21, 2**21)], ids=["one-row", "overdrawn"])
    def test_trees_do_not_depend_on_the_round_bounds(self, low, high, monkeypatch):
        """Rounds of one row, and rounds of 2^21 steps that draw far more
        rows than trees are needed, give the pinned trees and budget error."""
        monkeypatch.setattr(catalan_stanley.enumeration, "_ROUND_MIN_STEPS", low)
        monkeypatch.setattr(catalan_stanley.enumeration, "_SHUFFLE_STEPS", high)
        self.test_pinned_draws_across_sizes()
        self.test_pinned_draws_over_many_rounds()
        self.test_pinned_draws_past_int16_heights()
        self.test_pinned_budget_error(monkeypatch)

    def test_whole_call_memory_is_bounded(self):
        """500 trees of size 1000 in rounds of at most 2^15 steps: one
        round's int64 shuffle, rows, heights and masks plus the 1.01 MiB of
        trees returned peak at about 1.27 MiB.  Rounds of up to 2^18 steps
        peaked at 1.96 MiB, and of up to 500 rows (2^21 steps) at 4.77."""
        sample_trees(1000, 1, seed=0)  # keeps first-call imports out of the peak
        tracemalloc.start()
        try:
            trees = sample_trees(1000, 500, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trees) == 500
        assert peak < 1.6 * 2**20

    def test_small_sizes_take_few_rounds(self, monkeypatch):
        """A round draws at least 2^11 steps: 11 rounds for 500 trees of
        size 18 and one for a tree of size 30, where rounds of no more rows
        than trees still needed took 22 and 4."""
        rounds = _round_rows(monkeypatch)
        sample_trees(18, 500, 7)
        assert len(rounds) <= 12
        rounds.clear()
        sample_trees(30, 1, 12345)
        assert len(rounds) == 1

    @pytest.mark.parametrize(
        "size,count",
        [
            (size, count)
            for size in (2, 5, 18, 1000, 10**5)
            for count in (1, 3, 500)
            if (size, count) != (10**5, 500)
        ],
    )
    def test_round_steps_are_bounded(self, size, count, monkeypatch):
        """Every round of more than one row draws at most _SHUFFLE_STEPS steps."""
        rounds = _round_rows(monkeypatch)
        assert len(sample_trees(size, count, seed=size + count)) == count
        cap = catalan_stanley.enumeration._SHUFFLE_STEPS
        assert all(rows == 1 or rows * (2 * size - 1) <= cap for rows in rounds)

    def test_long_row_shuffle_memory_is_bounded(self):
        """One row of 200,001 steps, longer than a round's 2^15: its int64
        array (1.53 MiB) plus the int8 row peaked at 1.72 MiB; the bound
        leaves 16%.  Keeping the int64 array through the rotation peaked at
        3.24 MiB."""
        tracemalloc.start()
        try:
            padded = _shuffled_rows(np.random.default_rng(0), 10**5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert padded.shape == (1, _WINDOW + 2 * 10**5 + 1)
        assert peak < 2 * 2**20

    def test_odd_return_mask_memory_is_bounded(self):
        """The membership step on 20000 rows of 9 steps (about 40000
        returns); int32 positions and heights with a fresh array per step
        over the rotated rows peaked at about 1.98 MiB, and int64 start
        columns beside the returns' windows at 1.72 MiB."""
        padded = _shuffled_rows(np.random.default_rng(0), 4, 20000)
        tracemalloc.start()
        try:
            keep, start = _cycle_lemma_rows(padded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keep.shape == start.shape == (20000,)
        assert peak < 1.25 * 2**20

    @pytest.mark.parametrize("semilength,rows", [(4, 2000), (16383, 3), (16384, 3)])
    def test_odd_return_mask_matches_path_check(self, semilength, rows):
        """Both height widths: int16 below 2^15 steps a row, int32 from there."""
        padded = _shuffled_rows(np.random.default_rng(semilength), semilength, rows)
        _check_membership(padded[:, _WINDOW:].tolist())

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda m: st.lists(st.permutations([1] * m + [-1] * (m + 1)), min_size=1, max_size=6)
        )
    )
    def test_membership_matches_path_check(self, rows):
        """Any rows of m up-steps and m+1 down-steps, m up to 40, so that
        descent runs span several windows (the unshuffled row is one)."""
        _check_membership(rows)

    @pytest.mark.parametrize(
        "row",
        [
            [1, 1, -1, 1, -1, -1, -1],
            [1, -1, -1, 1, -1],
            [-1, -1, 1, 1, -1],
            [1] * 20 + [-1] * 21,
            [1] * 21 + [-1] * 22,
            [-1] * 10 + [1] * 21 + [-1] * 12,
            [-1] * 9 + [1] * 20 + [-1] * 12,
            [-1],
        ],
        ids=[
            "first-minimum-last",
            "odd-return-wrapped",
            "even-return-wrapped",
            "even-run-past-a-window",
            "odd-run-past-a-window",
            "odd-run-past-a-window-and-the-row-start",
            "even-run-past-a-window-and-the-row-start",
            "size-one",
        ],
    )
    def test_membership_of_fixed_rows(self, row):
        """The identity rotation, returns in the wrapped part, and final
        descent runs longer than the kernel's window, also across the
        row's start."""
        _check_membership([row])


def _round_rows(monkeypatch) -> list[int]:
    """The rows of each round `sample_trees` draws from here on, recorded
    by wrapping `_shuffled_rows`."""
    rounds: list[int] = []
    shuffled_rows = catalan_stanley.enumeration._shuffled_rows

    def record(rng, semilength, rows):
        rounds.append(rows)
        return shuffled_rows(rng, semilength, rows)

    monkeypatch.setattr(catalan_stanley.enumeration, "_shuffled_rows", record)
    return rounds


def _check_membership(rows: list[list[int]]) -> None:
    """`_cycle_lemma_rows` and `_rotated_words` on rows of +1/-1 steps
    against the cycle-lemma rotation after the first minimum and
    `has_odd_returns`, one row at a time."""
    steps = np.array(rows, dtype=np.int8)
    padded = np.take(steps, range(-_WINDOW, steps.shape[1]), axis=1, mode="wrap")
    keep, start = _cycle_lemma_rows(padded)
    expected_starts, expected_keep, expected_words = [], [], []
    for row in rows:
        heights = list(itertools.accumulate(row))
        first_min = heights.index(min(heights))
        path = DyckPath(row[first_min + 1 :] + row[:first_min])
        expected_starts.append(first_min + 1)
        expected_keep.append(has_odd_returns(path))
        if expected_keep[-1]:
            expected_words.append(dyck_to_tree(path).serialize())
    assert start.tolist() == expected_starts
    assert keep.tolist() == expected_keep
    assert _rotated_words(padded, keep, start) == expected_words


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
        assert via_tokens == census(n).ancestor_sizes(r)

    def test_pinned_draws(self):
        """sha256 over the draws of every (size, count, seed, r) below;
        recorded before the first-child table."""
        digest = hashlib.sha256()
        for n, count in {3: 50, 9: 2000, 50: 500, 10**4: 100, 10**5: 20}.items():
            for r in (1, 2, 3):
                for seed in PIN_SEEDS:
                    digest.update(repr((n, count, seed, r)).encode())
                    digest.update(sample_reduced_sizes(n, count, seed, r).tobytes())
        assert digest.hexdigest() == (
            "055f3a5e636d17482bbe4658d19eabd7639c0305cec444da07fb64a4988e7e71"
        )

    def test_r_zero_returns_size(self):
        assert list(sample_reduced_sizes(9, 4, seed=1, r=0)) == [9, 9, 9, 9]

    @pytest.mark.parametrize("sampler", [sample_trees, sample_reduced_sizes])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("size", [1, 50])
    def test_seed_outside_64_bits(self, sampler, seed, size):
        """Both samplers take the seeds numpy's generator takes below 2^64,
        and refuse the others with one message, at every size."""
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            sampler(size, 3, seed)

    @pytest.mark.parametrize("size", [1, 2])
    def test_tiny_sizes(self, size):
        assert list(sample_reduced_sizes(size, 3, seed=1)) == [1, 1, 1]

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tiny_sizes_within_support(self, n, seed):
        """At every depth each draw is a size the exact pmf gives mass to,
        and depth 0 is the size itself (the token route would count the
        root of a size-1 tree twice)."""
        for r in range(4):
            draws = sample_reduced_sizes(n, 20, seed, r).tolist()
            assert set(draws) <= set(ancestor_distribution(n, r).support), r
        assert sample_reduced_sizes(n, 5, seed, r=0).tolist() == [n] * 5

    def test_deterministic(self):
        a = sample_reduced_sizes(50, 40, seed=8)
        b = sample_reduced_sizes(50, 40, seed=8)
        assert list(a) == list(b)

    @pytest.mark.parametrize("n,r", [(8, 1), (10, 2)])
    def test_empirical_matches_exact_pmf(self, n, r, census):
        draws = 60000
        empirical = Counter(int(x) for x in sample_reduced_sizes(n, draws, seed=31, r=r))
        exact = census(n).ancestor_sizes(r)
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

    @pytest.mark.parametrize("bits", [56, 64, 80, 104, 120, 128])
    def test_uniform_draws_cut_one_byte_stream(self, bits):
        """The draws are the little-endian bits/8-byte pieces, in order, of
        one stream of `Generator.bytes` blocks of 4096 draws, past the end
        of the first block."""
        width = bits // 8
        rng = np.random.default_rng(61)
        stream = rng.bytes(width * 4096) + rng.bytes(width * 4096)
        expected = [
            int.from_bytes(stream[i : i + width], "little") for i in range(0, len(stream), width)
        ]
        draws = _uniform_draws(np.random.default_rng(61), bits)
        assert list(itertools.islice(draws, 2 * 4096)) == expected

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


def _walk_oracle(forest, draw, bits):
    """The first-tree walk written out plainly: subtract floored masses from
    the low end until the next one does not fit or the middle is reached."""
    rest, j, middle = draw >> 1, 1, (forest + 1) // 2
    mass = ((forest + 1) << (bits - 1)) // (2 * forest - 1)
    while j < middle and rest >= mass:
        rest -= mass
        mass = mass * ((4 * j - 2) * (forest - j + 1)) // ((j + 1) * (4 * (forest - j) - 2))
        j += 1
    return forest + 1 - j if draw & 1 else j


def _oracle_sums(forest, bits):
    """Running sums S_1..S_middle of the walk's floored masses."""
    middle = (forest + 1) // 2
    mass = ((forest + 1) << (bits - 1)) // (2 * forest - 1)
    sums = [mass]
    for j in range(1, middle):
        mass = mass * ((4 * j - 2) * (forest - j + 1)) // ((j + 1) * (4 * (forest - j) - 2))
        sums.append(sums[-1] + mass)
    return sums


class TestFirstChildTable:
    """`_first_tree_size` with a running-sum table gives the plain walk's size."""

    @staticmethod
    def _check_against_walk(forest, cap):
        """Draws with rest at S_j - 1 and S_j, and past the middle, from both
        ends, into no table, one shared table, and partly built ones."""
        bits = _draw_bits(forest)
        middle = (forest + 1) // 2
        full = _oracle_sums(forest, bits)
        steps = range(1, middle + 1) if forest <= 80 else [*range(1, 40), 777, middle - 1, middle]
        rests = {0, (1 << (bits - 1)) - 1, full[-1], full[-1] + 1}
        for j in steps:
            rests |= {full[j - 1] - 1, full[j - 1]}
        draws = [2 * rest + end for rest in sorted(rests) for end in (0, 1)]
        expected = [_walk_oracle(forest, d, bits) for d in draws]
        assert [_first_tree_size(forest, d, bits) for d in draws] == expected
        shared: list[int] = []
        assert [_first_tree_size(forest, d, bits, shared) for d in draws] == expected
        # the last draws pass the middle, so the table is as long as it gets
        assert shared == full[: len(shared)]
        assert min(middle - 1, cap) <= len(shared) <= min(middle, cap)
        pairs = list(zip(draws, expected))
        for partial in [k for k in steps if k <= cap][:: 1 if forest <= 80 else 7]:
            for d, size in pairs[:: 3 if forest <= 80 else 5] + pairs[-4:]:
                table = full[:partial]
                assert _first_tree_size(forest, d, bits, table) == size
                assert table == full[: len(table)] and len(table) <= min(middle, cap)

    @pytest.mark.parametrize("forest", [*range(1, 81), 10**4])
    def test_table_matches_walk(self, forest):
        self._check_against_walk(forest, catalan_stanley.enumeration._TABLE_CAP)

    @pytest.mark.parametrize("forest", [1, 9, 10, 80, 10**4])
    def test_capped_table_matches_walk(self, forest, monkeypatch):
        monkeypatch.setattr(catalan_stanley.enumeration, "_TABLE_CAP", 5)
        self._check_against_walk(forest, 5)

    def test_one_table_a_call_within_its_bounds(self, monkeypatch):
        """One table per call, for the first child only, of at most
        min((forest+1)//2, _TABLE_CAP) entries; at size 10^6 a thousand
        rows fill it to the cap."""
        tables = {}
        walk = catalan_stanley.enumeration._first_tree_size

        def recording(forest, draw, bits, sums=None):
            size = walk(forest, draw, bits, sums)
            if sums is not None:
                tables[id(sums)] = (forest, len(sums))
            return size

        monkeypatch.setattr(catalan_stanley.enumeration, "_first_tree_size", recording)
        cap = catalan_stanley.enumeration._TABLE_CAP
        for n, count in ((3, 20), (9, 2000), (50, 3000), (10**4, 300), (10**6, 1000)):
            tables.clear()
            sample_reduced_sizes(n, count, seed=n)
            ((forest, entries),) = tables.values()
            assert forest == n - 2 and 1 <= entries <= min((forest + 1) // 2, cap)
        assert entries == cap

    def test_memory_does_not_grow_with_count(self):
        """A table for every forest size peaked at about 3.3 MiB on this
        call, and grows with the rows; the first-child table stays near
        1 MiB.  Tracing every big-int step costs about 2.4 ms a row, so
        1000 rows."""
        tracemalloc.start()
        try:
            draws = sample_reduced_sizes(10**4, 1000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(draws) == 1000
        assert peak < 2 * 2**20
