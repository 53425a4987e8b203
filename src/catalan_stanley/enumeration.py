"""Counting, exhaustive generation, and uniform sampling of Catalan-Stanley trees.

There is one tree of size 1 and C(n-2) trees of size n >= 2.  A tree's
serialization is "(" + its Dyck word + ")" with U -> "(" and D -> ")", so
lexicographic tree order is the U<D lex order of Dyck words, and the
Catalan-Stanley trees are the words whose returns to the axis all end odd
descents.  A tree is held as that word, its depth string, or both (see
`tree`), so both routes below make strings, not nodes.  Generation is a
depth-first walk over Dyck words in that order down to the last ten
steps, whose completions it reads from a fixed table of (word tail, depth
tail) pairs, so it yields one block a prefix: the prefix, its depth string
and the table's tuples of tails.  `enumerate_trees` makes each tree of a
block hold both encodings, so `reduce`, `age` and membership derive
nothing; it streams the trees in O(size) memory, at 0.7-0.9 us a tree at
size 13.  The CLI's `enumerate` joins each block's words into its output
and makes no tree, at about 0.13 us a word (noisy 2-vCPU VM).

`sample_trees` is the one tree sampler.  It draws uniform Dyck paths
(balanced-sequence shuffle plus cycle-lemma rotation) and keeps the paths
whose returns all end odd descents, which are the uniform Catalan-Stanley
trees; C(n-2)/C(n-1), about 1/4, of the draws are kept.  It draws in
rounds of at most 2^15 steps (one row, if a row is longer).  A round is
one shuffle of int64 rows, the sampler's largest cost, where numpy's
`permuted` swaps fastest; the swaps and the draws they take are those
of a shuffle of int8 rows, so the trees are too.
Membership is read off the unrotated rows: one prefix-sum pass gives
each row's first minimum and its rotated path's returns, and each
return's descent run is read backwards, eight steps at a time.  Only the
kept rows are rotated, each by one slice of their translated block.  One
tree is `sample_trees(size, 1, seed)[0]`; the CLI's `sample` draws each
tree so.  The sampler proper is `_sample_words`, which returns the kept
rows' words; `sample_trees` makes a tree of each, and its one other
reader, `verify`'s uniformity count, counts the words and makes no tree.

Ancestor sizes need only the root-child sizes of a uniform plane tree on
n-1 nodes, so `sample_reduced_sizes` draws those one by one in a single
loop, each as the first tree of a uniform plane forest, by an exact
fixed-point inverse-CDF walk from both ends of its support; at sizes 1
and 2 the loop draws nothing, and every ancestor at r >= 1 has size 1.
Every row's first child comes from the same forest, so a call keeps that
walk's running sums in one table and reads them by bisection.  The walk's
uniform integers come in blocks of 64 draws, each block converted in one
go and the blocks chained at C level, so a draw costs no generator
resume and, for 8-byte draws, no Python call at all.  A row
costs O(sqrt(n)) integer steps (about 0.025 ms at n = 10^4, 0.15 ms at
10^5 and 0.3-0.7 ms at 10^6), and every size comes out with its exact
probability up to a relative 2^-46.

numpy is imported inside the sampler functions, once a call, so counting
and enumeration run without it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, repeat
from typing import Iterator

from .errors import CapacityError, SamplingError
from .tree import _MAX_DEPTH, PlaneTree

__all__ = [
    "catalan",
    "count_trees",
    "enumerate_trees",
    "plane_trees",
    "sample_trees",
    "sample_reduced_sizes",
]


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n, n)/(n+1), exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def count_trees(n: int) -> int:
    """Number of Catalan-Stanley trees of size n: 1 for n=1, else C(n-2)."""
    if n < 1:
        raise ValueError("size must be positive")
    if n == 1:
        return 1
    return catalan(n - 2)


# The last _TAIL steps of every word are looked up, not walked.
_TAIL = 10


def _completion_table(
    odd_returns: bool,
) -> dict[tuple[int, int, int], tuple[tuple[str, ...], tuple[str, ...]]]:
    """Every way to finish a Dyck word, keyed by (steps left, height, parity
    of the descent run the prefix ends in), for up to _TAIL steps left.

    Each entry is the tuple of word tails and the tuple of their depth
    tails: an up step from height h opens a node at depth h + 1, and a down
    step adds no node, so the key fixes a tail's depth characters.  Each
    word tail carries the root's closing ")".  With odd_returns a return to
    height 0 must end an odd descent run; that is the only rule.  "(" is
    listed before ")", so both tuples are in lex order of the words.
    """
    done = ((")",), ("",))
    table = {(0, 0, 0): done, (0, 0, 1): done}
    for left in range(1, _TAIL + 1):
        for height in range(left % 2, left + 1, 2):
            opened = chr(height + 1)
            for parity in (0, 1):
                ups = table.get((left - 1, height + 1, 0), ((), ()))
                downs = ((), ())
                if height and not (odd_returns and height == 1 and parity):
                    downs = table.get((left - 1, height - 1, 1 - parity), downs)
                table[left, height, parity] = (
                    tuple(["(" + t for t in ups[0]] + [")" + t for t in downs[0]]),
                    tuple([opened + t for t in ups[1]]) + downs[1],
                )
    return table


_COMPLETIONS = {odd: _completion_table(odd) for odd in (False, True)}


# word prefix, depth prefix, word tails, depth tails
_Block = tuple[str, str, tuple[str, ...], tuple[str, ...]]


def _dyck_blocks(semilength: int, odd_returns: bool) -> Iterator[_Block]:
    """Plane trees with semilength+1 nodes, in U<D lex order of their Dyck
    words, as blocks (word prefix, depth prefix, word tails, depth tails):
    each prefix joined to each of its tails is one tree's word, and likewise
    for the depth strings.  A block comes for every prefix with at least one
    completion, and its tails are in lex order.

    A depth-first walk over all but the last _TAIL steps: step up while
    the prefix can still return to height 0, else down; after each prefix,
    backtrack to the last up step that can turn into a down step.  The walk
    keeps the prefix's depth string next to its word: an up step from
    height h appends ``chr(h + 1)``.  Each prefix's tails are the entry
    `_completion_table` lists for its state, shared, not copied, so a
    block costs two joins whatever its number of trees.  With odd_returns a
    step down to height 0 must end an odd descent run; a prefix whose forced
    final descent is even has no completions and no block.  Memory is
    O(semilength) plus the table, which does not depend on the size.
    """
    steps = 2 * semilength
    cut = max(0, steps - _TAIL)
    table = _COMPLETIONS[odd_returns]
    word = ["("]  # the root's "(", then one character per step
    depth = ["\x00"]  # the root, then one node per up step
    runs: list[int] = []  # descent length after each step, 0 after an up step
    height = 0
    while True:
        # before the cut more than _TAIL steps are left, so a forced down
        # step never reaches the axis
        while len(runs) < cut:
            if height < steps - len(runs) - 1:
                word.append("(")
                runs.append(0)
                height += 1
                depth.append(chr(height))
            else:
                word.append(")")
                runs.append(runs[-1] + 1)
                height -= 1
        words, depths = table[steps - cut, height, runs[-1] % 2 if runs else 0]
        if words:
            yield "".join(word), "".join(depth), words, depths
        while True:
            if not runs:
                return
            word.pop()
            if runs.pop():
                height += 1
            else:
                depth.pop()
                height -= 1
                if height and not (odd_returns and height == 1 and runs[-1] % 2):
                    word.append(")")
                    runs.append(runs[-1] + 1)
                    height -= 1
                    break


def _trees(blocks: Iterator[_Block]) -> Iterator[PlaneTree]:
    """The trees of `_dyck_blocks`' blocks, in order: two string
    concatenations and one `PlaneTree` that holds both encodings a tree."""
    tree_of = PlaneTree._of
    return chain.from_iterable(
        map(tree_of, map(prefix.__add__, words), map(depth_prefix.__add__, depths))
        for prefix, depth_prefix, words, depths in blocks
    )


def _tree_blocks(n: int) -> Iterator[_Block]:
    """The blocks of `_dyck_blocks` for the Catalan-Stanley trees of size n;
    the one place that checks n, at the call (see `enumerate_trees`)."""
    if n < 1:
        raise ValueError("size must be positive")
    if n - 1 > _MAX_DEPTH:
        raise CapacityError(f"size {n}: trees deeper than {_MAX_DEPTH:,} have no depth string")
    return _dyck_blocks(n - 1, odd_returns=True)


def plane_trees(n: int) -> tuple[PlaneTree, ...]:
    """All rooted plane trees with n nodes (there are C(n-1) of them), in lex order."""
    if n < 1:
        raise ValueError("size must be positive")
    return tuple(_trees(_dyck_blocks(n - 1, odd_returns=False)))


def enumerate_trees(n: int) -> Iterator[PlaneTree]:
    """Streams every Catalan-Stanley tree of size n exactly once.

    Trees come out in lexicographic order of their parenthesis
    serialization, which pins golden files.  A size below 1, or one whose
    deepest tree has no depth string (n - 1 > 1,114,111), raises at the
    call, not at the first step.
    """
    return _trees(_tree_blocks(n))


# Steps a `sample_trees` round draws at most (one row, if a row is
# longer), shuffled as one int64 array of at most 256 KiB: numpy's
# `permuted` swaps fastest there, and the shuffle and the membership
# step of a round each peak under 0.5 MiB.
_SHUFFLE_STEPS = 2**15

# Steps a `sample_trees` round draws at least while trees are still
# needed: it spares small sizes long runs of rounds of a few rows.
_ROUND_MIN_STEPS = 2**11

# Steps the membership kernel reads at once, as one little-endian uint64:
# each shuffled row is preceded by its own last _WINDOW steps, so the
# _WINDOW steps ending at any step, read cyclically, are contiguous.
_WINDOW = 8

# int8 +1 / -1 steps as the bytes of "(" / ")"
_STEP_CHARS = bytes.maketrans(b"\x01\xff", b"()")


def _shuffled_rows(rng: np.random.Generator, semilength: int, rows: int) -> np.ndarray:
    """Rows of m = semilength up-steps shuffled among m+1 down-steps, as int8
    +1/-1 in columns _WINDOW on; columns 0.._WINDOW-1 repeat the row's last
    _WINDOW steps (cyclically, if the row is shorter).

    numpy's `Generator.permuted` swaps 8-byte items in a fast loop and items
    of every other width through a generic copy, so the rows are shuffled
    as one int64 array and copied into the int8 rows.  The Fisher-Yates
    swaps and the draws they take from the stream do not depend on the item
    width, so the rows and the generator's state afterwards are those of
    one `permuted` call on the int8 rows.  The int64 array takes 8 bytes a
    step: at most 256 KiB in a `sample_trees` round (see _SHUFFLE_STEPS),
    or the steps of one longer row.
    """
    import numpy as np

    m = semilength
    length = 2 * m + 1
    width = _WINDOW + length
    steps = np.empty((rows, length), dtype=np.int64)
    steps[:, :m] = 1
    steps[:, m:] = -1
    rng.permuted(steps, axis=1, out=steps)
    padded = np.empty((rows, width), dtype=np.int8)
    padded[:, _WINDOW:] = steps
    for end in range(_WINDOW, 0, -length):  # the pad, from its end, a row at a time
        fill = min(end, length)
        padded[:, end - fill : end] = padded[:, width - fill :]
    return padded


def _cycle_lemma_rows(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which shuffled rows (see `_shuffled_rows`) rotate to Catalan-Stanley
    paths, and the column of each row's steps where its rotation starts.

    Of the 2m+1 rotations of a row with m up-steps and m+1 down-steps
    exactly one, the one starting right after the first prefix-sum minimum
    k, is a Dyck path followed by a final down-step (the cycle lemma).  Every
    Dyck path has 2m+1 preimages, so the path is uniform.  It is read off
    the unrotated row: after step i its height is h[i] - h[k] for i > k and
    h[i] - h[k] - 1 for i < k, so its returns to the axis are the steps
    i != k with h[i] - (i <= k) == h[k].  A row is kept if the descent run
    ending at each return, read backwards from it and cyclically, is odd
    (see `_odd_runs`).  One int16 prefix-sum pass (int32 from 2^15 steps a
    row) gives both the minimum and the returns; past the comparison that
    finds the returns, every step handles only them.
    """
    import numpy as np

    rows, width = padded.shape
    length = width - _WINDOW
    dtype = np.int16 if length < 2**15 else np.int32
    heights = padded[:, _WINDOW:].cumsum(axis=1, dtype=dtype)
    first_min = heights.argmin(axis=1).astype(dtype)
    low = heights[np.arange(rows), first_min]
    heights -= (np.arange(length, dtype=dtype) <= first_min[:, None]).view(np.int8)
    returns = heights == low[:, None]
    heights = low = None  # each full-size array goes before the next is built
    at = np.flatnonzero(returns)
    returns = None
    # each return's position in padded, less _WINDOW - 1: where the window
    # of steps ending at it starts
    at += at // length * _WINDOW + 1
    # the _WINDOW steps from each byte of padded on, as one word
    windows = np.ndarray((padded.size - _WINDOW + 1,), "<u8", padded, strides=(1,))
    odd, longer = _odd_runs(windows[at])
    longer = np.flatnonzero(longer)
    while len(longer):  # runs of _WINDOW down steps or more: one window back
        start = at[longer]
        row_start = start // width * width
        at[longer] = row_start + (start - row_start - _WINDOW - 1) % length + 1
        odd[longer], down = _odd_runs(windows[at[longer]])
        longer = longer[down]
    keep = np.ones(rows, dtype=bool)
    keep[at[~odd] // width] = False
    return keep, first_min + 1


def _odd_runs(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether the descent run ending at the last step of each window is
    odd, and whether the window holds down steps only; the windows are
    _WINDOW steps each, read as little-endian uint64 words of 0x01 (up) and
    0xff (down) bytes, and are overwritten.

    In a word's complement only up steps' bytes are nonzero, and the
    highest of them is the run's last up step: the run is odd if that
    byte's index is even, that is, if the even bytes outweigh the odd ones.
    A word of down steps only reads as even; the run goes on in the window
    before, and a whole window of down steps keeps its parity.
    """
    import numpy as np

    np.invert(windows, out=windows)
    down = windows == 0
    even = windows & np.uint64(0x00FF00FF00FF00FF)
    windows &= np.uint64(0xFF00FF00FF00FF00)
    return even > windows, down


def _rotated_words(padded: np.ndarray, keep: np.ndarray, start: np.ndarray) -> list[str]:
    """The tree word of each kept row, in row order: "(" and the row's steps
    from `start` on, then those before it.

    The rotation ends with step start-1, the row's final down-step, which
    closes the root.  The kept rows are doubled and translated in one block,
    so each word is one slice of it."""
    import numpy as np

    kept = padded[keep, _WINDOW:]
    length = kept.shape[1]
    text = np.concatenate((kept, kept), axis=1).tobytes().translate(_STEP_CHARS).decode()
    offsets = np.arange(0, len(text), 2 * length) + start[keep]
    return ["(" + text[o : o + length] for o in offsets.tolist()]


def _ancestor_size_from_tokens(child_sizes, r: int) -> int:
    """r-th ancestor size of the Catalan-Stanley tree encoded by a plane tree.

    A size-n Catalan-Stanley tree is, bijectively, a plane tree of size n-1:
    each branch is a spine of tree pairs ending in the marked leaf (branch
    series z*SEQ(T^2)), so flattening the branch sequence and promoting the
    final mark to a root turns the tree into a token word over
    {pair = root child of size >= 2, mark = leaf child}.  One reduction
    deletes each branch's deepest pair and drops bare-mark branches, hence
    after r reductions a branch with pair sizes p_1..p_j contributes
    1 + p_1 + ... + p_{j-r} nodes if r <= j and is gone otherwise.

    One pass over the sizes, holding only the current branch's pair sizes:
    each mark adds its branch and starts the next, and the root closes the
    last one.  `verify`'s `reduced_size_bijection` checks this against the
    tree-level reduce on every tree up to size 10.
    """
    total = 1
    pairs: list[int] = []
    for s in child_sizes:
        if s == 1:
            if r <= len(pairs):
                total += 1 + sum(pairs[: len(pairs) - r])
            pairs = []
        else:
            pairs.append(s)
    if r <= len(pairs):  # the root closes the last branch
        total += 1 + sum(pairs[: len(pairs) - r])
    return total


# Paths `sample_trees` may draw per tree asked for.  A path is kept with
# probability C(n-2)/C(n-1) >= 1/4, so a call runs out of draws with
# probability below (3/4)^1000: the budget only guards against a hang.
_DRAWS_PER_TREE = 1000


def sample_trees(size: int, count: int, seed: int = 0) -> list[PlaneTree]:
    """`count` uniform Catalan-Stanley trees of the given size, deterministic per seed.

    The trees of the words `_sample_words` draws, in order; only `verify`'s
    uniformity count reads the words themselves and makes no tree.
    """
    return list(map(PlaneTree._of, _sample_words(size, count, seed)))


def _sample_words(size: int, count: int, seed: int) -> list[str]:
    """The words of `sample_trees(size, count, seed)`: each tree's serialization.

    Accepted paths are kept in draw order; at most count * _DRAWS_PER_TREE
    paths are drawn.  A round draws as many paths as trees are still
    needed, but at least 2^11 steps and at most 2^15 (one path, if a path
    is longer), so memory stays bounded at every size and small sizes
    take few rounds.  A round is one shuffle (`_shuffled_rows`), and the
    rows of every round come one after another from the same stream, so
    the trees do not depend on how the draws split into rounds.
    Membership is decided on the unrotated rows (`_cycle_lemma_rows`);
    kept rows past the trees still needed are dropped, and only the rest,
    about one in four rows, are rotated and turned into words
    (`_rotated_words`).  Its readers are `sample_trees` and `verify`'s
    uniformity count.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if count < 0:
        raise ValueError("count must be nonnegative")
    import numpy as np

    rng = np.random.default_rng(seed)
    length = 2 * size - 1
    round_floor = _ROUND_MIN_STEPS // length
    round_cap = max(1, _SHUFFLE_STEPS // length)
    out: list[str] = []
    draws = count * _DRAWS_PER_TREE
    draws_left = draws
    while len(out) < count and draws_left > 0:
        needed = count - len(out)
        rows = min(draws_left, max(needed, round_floor), round_cap)
        padded = _shuffled_rows(rng, size - 1, rows)
        draws_left -= rows
        keep, start = _cycle_lemma_rows(padded)
        keep[np.flatnonzero(keep)[needed:]] = False
        out += _rotated_words(padded, keep, start)
    if len(out) < count:
        raise SamplingError(
            f"accepted {len(out)} of {count} Catalan-Stanley trees of size {size} "
            f"in {draws} draws"
        )
    return out


def _draw_bits(forest: int) -> int:
    """Fixed-point width for `_first_tree_size` on forests of up to `forest` nodes.

    The walk's probabilities differ from the exact p(j) by less than
    forest**2 / 4 units of 2**-bits, and every p(j) >= forest**-1.5 / 2
    (from 4^a/sqrt(pi(a+1/2)) <= binom(2a, a) <= 4^a/sqrt(pi a)).  So, with
    forest < 2**b, 4b + 45 bits keep each relative error below 2**-46.
    The width is rounded up to whole bytes, the unit `_uniform_draws` reads.
    """
    return 8 * -(-(4 * forest.bit_length() + 45) // 8)


# Draws `_uniform_draws` reads and converts at once.
_BLOCK_DRAWS = 64


def _uniform_draws(rng: np.random.Generator, bits: int) -> Iterator[int]:
    """Endless independent uniform integers in [0, 2**bits), bits a multiple of 8.

    The draws cut the generator's random bytes, as `Generator.bytes` gives
    them, into bits/8-byte little-endian integers, in order.  They are read
    in blocks of _BLOCK_DRAWS draws through `random_raw`: a block is bits/8
    whole 64-bit outputs, and `Generator.bytes` reads an output's bytes
    little-endian, whole in every call of a multiple of 8 bytes.  Each
    block is converted in one go, 8-byte draws by one `tolist` of the
    outputs and other widths by one `int.from_bytes` a draw, and the blocks
    are chained at C level, so `next` resumes no Python generator.
    """
    import numpy as np

    width = bits // 8
    raw = rng.bit_generator.random_raw
    if width == 8:
        return chain.from_iterable(map(np.ndarray.tolist, map(raw, repeat(_BLOCK_DRAWS))))
    cuts = [slice(i, i + width) for i in range(0, width * _BLOCK_DRAWS, width)]

    def convert(words: np.ndarray) -> list[int]:
        block = words.astype("<u8", copy=False).tobytes()
        return list(map(int.from_bytes, map(block.__getitem__, cuts), repeat("little")))

    return chain.from_iterable(map(convert, map(raw, repeat(width * _BLOCK_DRAWS // 8))))


# Entries of a `_first_tree_size` table: a draw needs min(j, forest+1-j) of
# them, which passes k with probability about 1/sqrt(pi k), so a table left
# uncapped reaches the middle after about sqrt(forest) rows.  2^14 entries
# of at most a few hundred bits stay near 1 MiB and cover forests up to 32767.
_TABLE_CAP = 2**14


def _first_tree_size(forest: int, draw: int, bits: int, sums: list[int] | None = None) -> int:
    """Size j of the first tree of a uniform plane forest on `forest` nodes.

    The law is p(j) = C(j-1) C(forest-j) / C(forest) for j = 1..forest.  It
    is symmetric under j <-> forest+1-j, so the low bit of `draw` picks an
    end of the support and the other bits walk the inverse CDF in from that
    end, in min(j, forest+1-j) steps.  The masses are integers in units of
    2**-bits: p(1) = (forest+1) / (4 forest - 2) and
    p(j+1)/p(j) = (4j-2)(forest-j+1) / ((j+1)(4(forest-j)-2)), each product
    rounded down; the factors step by 4 or 1 with j, and are set up only if
    the walk takes a step.  The draws left over by the rounding go to the
    middle size (when forest is even, to the middle on the side the walk
    started from), so every draw ends in range.  With `draw` uniform in
    [0, 2**bits) and bits at least `_draw_bits(forest)`, every j comes out
    with probability p(j) up to a relative 2**-46.

    `sums`, if given, is a table of the walk's running sums S_1 <= S_2 <= ...
    of the floored masses for this forest and width, shared by the calls
    that draw from the same forest; it is read first and extended only as
    far as this draw needs, to at most min((forest+1)//2, _TABLE_CAP)
    entries.  The walk passes S_i exactly when rest >= S_i, and the masses
    are nonnegative, so its j is min(1 + #{i : S_i <= rest}, middle): one
    bisection whenever the table holds an S_i above rest or reaches the
    middle, and otherwise the walk resumes from the table's last entry.
    """
    middle = (forest + 1) // 2
    if middle == 1 and sums is None:  # one or two nodes: the walk takes no step
        return forest if draw & 1 else 1
    rest = draw >> 1
    if sums:
        j = bisect_right(sums, rest) + 1
        if j <= len(sums) or j >= middle:
            j = min(j, middle)
            return forest + 1 - j if draw & 1 else j
        j = len(sums)
        total = sums[-1]
        mass = total - sums[-2] if j > 1 else total
    else:
        j = 1
        mass = total = ((forest + 1) << (bits - 1)) // (2 * forest - 1)
        if sums is not None:
            sums.append(total)
    if j < middle and rest >= total:
        # the factors of p(j+1)/p(j) but j+1, which is j after the step
        up, left, right = 4 * j - 2, forest - j + 1, 4 * (forest - j) - 2
        while True:
            j += 1
            mass = mass * (up * left) // (j * right)
            total += mass
            if sums is not None and j <= _TABLE_CAP:
                sums.append(total)
            if j == middle or rest < total:
                break
            up += 4
            left -= 1
            right -= 4
    return forest + 1 - j if draw & 1 else j


def _root_child_sizes(
    forest: int, draws: Iterator[int], bits: int, first_sums: list[int] | None = None
) -> Iterator[int]:
    """Root-child subtree sizes, in order, of a uniform plane tree on forest+1
    nodes; none if forest <= 0.

    `first_sums` is the `_first_tree_size` table of `forest`, for the first
    child only; every later child is drawn by the plain walk."""
    while forest > 0:
        size = _first_tree_size(forest, next(draws), bits, first_sums)
        yield size
        forest -= size
        first_sums = None


def sample_reduced_sizes(size: int, count: int, seed: int = 0, r: int = 1) -> np.ndarray:
    """Sizes of the r-th ancestors of `count` uniform trees of the given size.

    Uses the pair-spine bijection with plane trees of one node fewer (see
    _ancestor_size_from_tokens), so every draw is accepted and no tree is
    materialized.  The bijection reads only the root-child subtree sizes,
    and those are drawn directly, one child after another, as the first
    tree of the forest of nodes not yet placed (`_first_tree_size`); the
    first child's walk reads one running-sum table shared by all rows.  A
    row costs O(sqrt(size)) integer steps: about 0.025 ms at size 10^4,
    0.15 ms at 10^5 and 0.3-0.7 ms at 10^6 (depending on the seed) on a
    2-vCPU VM.  Each child size is drawn
    from its exact conditional law up to a relative 2^-46 per value, from
    fixed-point integers and uniform random bytes; no floating point is
    involved.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    import numpy as np

    if r == 0:
        return np.full(count, size, dtype=np.int64)
    forest = size - 2  # root children of a plane tree on size-1 nodes
    bits = _draw_bits(forest)
    draws = _uniform_draws(np.random.default_rng(seed), bits)
    first_sums: list[int] = []  # every row's first child is drawn from `forest`
    return np.fromiter(
        (
            _ancestor_size_from_tokens(_root_child_sizes(forest, draws, bits, first_sums), r)
            for _ in range(count)
        ),
        dtype=np.int64,
        count=count,
    )
