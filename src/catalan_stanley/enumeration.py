"""Counting, exhaustive generation, and uniform sampling of Catalan-Stanley trees.

There is one tree of size 1 and C(n-2) trees of size n >= 2.  A tree's
serialization is "(" + its Dyck word + ")" with U -> "(" and D -> ")", so
lexicographic tree order is the U<D lex order of Dyck words, and the
Catalan-Stanley trees are the words whose returns to the axis all end odd
descents.  Generation is a depth-first walk over Dyck words in that order,
pruned to the words that can still be completed; it streams the trees in
O(size) memory.

Sampling draws a uniform plane tree of the target size through a uniform
Dyck path (balanced-sequence shuffle plus cycle-lemma rotation) and accepts
iff the tree is Catalan-Stanley; the acceptance rate tends to 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SamplingError
from .tree import DyckPath, PlaneTree, dyck_to_tree

__all__ = [
    "catalan",
    "count_trees",
    "TreeIterator",
    "enumerate_trees",
    "plane_trees",
    "SamplerConfig",
    "sample_tree",
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


def _dyck_trees(semilength: int, odd_returns: bool) -> Iterator[PlaneTree]:
    """Plane trees with semilength+1 nodes, in U<D lex order of their Dyck words.

    A depth-first walk: step up while the prefix can still be completed,
    else down; after each word, backtrack to the last up step that can turn
    into a down step.  A down step closes a node and builds its subtree,
    shared by every word that extends the prefix.  Memory is O(semilength).

    With odd_returns a step is taken only if the new prefix completes to a
    word whose returns all end odd descents.  Away from the axis the only
    stuck prefixes are those with no up step left and an even descent
    ahead, and those with one up step left at height 1 right after an odd
    descent (up then down twice, or down at once, both return evenly).
    """
    kids: list[list[PlaneTree]] = [[]]  # children so far of each open node, root first
    closed: list[list[PlaneTree]] = []  # children of the nodes closed so far
    runs: list[int] = []  # descent length after each step, 0 after an up step

    def can_step(up: bool) -> bool:
        height = len(kids) if up else len(kids) - 2
        ups_left = semilength - (len(runs) + 1 + height) // 2
        if height < 0 or ups_left < 0:
            return False
        if not odd_returns:
            return True
        run = 0 if up else runs[-1] + 1
        if height == 0 or ups_left == 0:
            return (run + height) % 2 == 1
        return ups_left > 1 or height > 1 or run % 2 == 0

    def step_down() -> None:
        closed.append(kids.pop())
        kids[-1].append(PlaneTree(tuple(closed[-1])))
        runs.append(runs[-1] + 1)

    while True:
        while len(runs) < 2 * semilength:
            if can_step(up=True):
                kids.append([])
                runs.append(0)
            else:
                step_down()
        yield PlaneTree(tuple(kids[0]))
        while True:
            if not runs:
                return
            if runs.pop():
                kids[-1].pop()
                kids.append(closed.pop())
            else:
                kids.pop()
                if can_step(up=False):
                    step_down()
                    break


def plane_trees(n: int) -> tuple[PlaneTree, ...]:
    """All rooted plane trees with n nodes (there are C(n-1) of them), in lex order."""
    if n < 1:
        raise ValueError("size must be positive")
    return tuple(_dyck_trees(n - 1, odd_returns=False))


class TreeIterator:
    """Streams every Catalan-Stanley tree of one size exactly once.

    Trees come out in lexicographic order of their parenthesis
    serialization, which pins golden files.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be positive")
        self.size = size
        self._trees = _dyck_trees(size - 1, odd_returns=True)

    def __iter__(self) -> "TreeIterator":
        return self

    def __next__(self) -> PlaneTree:
        return next(self._trees)

    def __length_hint__(self) -> int:
        return count_trees(self.size)


def enumerate_trees(n: int) -> TreeIterator:
    return TreeIterator(n)


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    size: int
    seed: int
    max_rejections: int = 1000

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be at least 1")


def _draw_plane_paths(rng: np.random.Generator, semilength: int, batch: int) -> np.ndarray:
    """Uniform Dyck paths of the given semilength, one per row.

    Shuffle m up-steps among m+1 down-steps; of the 2m+1 rotations of such
    a word exactly one, the one starting right after the first prefix-sum
    minimum, is a Dyck path followed by a final down-step.  Every Dyck path
    has the same number (2m+1) of preimages, so the draw is uniform.
    """
    m = semilength
    length = 2 * m + 1
    arr = np.full((batch, length), -1, dtype=np.int8)
    arr[:, :m] = 1
    rng.permuted(arr, axis=1, out=arr)
    prefix = arr.cumsum(axis=1, dtype=np.int32)
    first_min = prefix.argmin(axis=1)
    idx = (first_min[:, None] + 1 + np.arange(length)) % length
    rotated = np.take_along_axis(arr, idx, axis=1)
    return rotated[:, : 2 * m]


def _path_stats(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefix heights, index of the latest up-step so far, and validity mask.

    A row is valid iff every maximal descent run ending at height 0 has odd
    length; the run ending at position i has length i - (last up index <= i).
    """
    n_steps = paths.shape[1]
    heights = paths.cumsum(axis=1, dtype=np.int32)
    pos = np.arange(n_steps, dtype=np.int32)
    last_up = np.maximum.accumulate(np.where(paths == 1, pos, -1), axis=1)
    bad = (heights == 0) & (((pos - last_up) % 2) == 0)
    return heights, last_up, ~bad.any(axis=1)


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
    Verified against the tree-level reduce by exhaustive enumeration.
    """
    branches: list[list[int]] = []
    current: list[int] = []
    for s in child_sizes:
        if s == 1:
            branches.append(current)
            current = []
        else:
            current.append(int(s))
    branches.append(current)  # the root closes the last branch
    total = 1
    for pairs in branches:
        if r <= len(pairs):
            total += 1 + sum(pairs[: len(pairs) - r])
    return total


def sample_tree(cfg: SamplerConfig) -> PlaneTree:
    """Uniformly random Catalan-Stanley tree of cfg.size, deterministic per seed."""
    return sample_trees(cfg.size, 1, cfg.seed, cfg.max_rejections, batch=1)[0]


def sample_trees(
    size: int, count: int, seed: int = 0, max_rejections: int = 1000, batch: int = 1024
) -> list[PlaneTree]:
    """`count` uniform trees from one generator, drawn `batch` paths at a time.

    Accepted paths are kept in draw order; at most count * max_rejections
    paths are drawn.
    """
    SamplerConfig(size, seed, max_rejections)  # validates the shared arguments
    if count < 0:
        raise ValueError("count must be nonnegative")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if size == 1:
        return [PlaneTree()] * count
    rng = np.random.default_rng(seed)
    out: list[PlaneTree] = []
    draws = count * max_rejections
    draws_left = draws
    while len(out) < count and draws_left > 0:
        rows = min(batch, draws_left)
        paths = _draw_plane_paths(rng, size - 1, rows)
        _, _, valid = _path_stats(paths)
        draws_left -= rows
        for row in paths[valid]:
            out.append(dyck_to_tree(DyckPath(tuple(int(s) for s in row))))
            if len(out) == count:
                break
    if len(out) < count:
        raise SamplingError(
            f"accepted {len(out)} of {count} Catalan-Stanley trees of size {size} "
            f"in {draws} draws"
        )
    return out


def sample_reduced_sizes(
    size: int, count: int, seed: int = 0, r: int = 1, batch: int = 256
) -> np.ndarray:
    """Sizes of the r-th ancestors of `count` uniform trees of the given size.

    Uses the pair-spine bijection with plane trees of one node fewer (see
    _ancestor_size_from_tokens), so every draw is accepted and no tree is
    materialized; usable at sizes where building each sample would dominate.
    The needed data are just the root-child subtree sizes of the drawn
    plane tree, i.e. the excursion lengths of its path, which are read off
    the unrotated word: with first prefix-sum minimum at position k, the
    rotated path returns to 0 exactly at later re-hits of the minimum and,
    past the wrap, where the prefix sits one above it.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if r == 0:
        return np.full(count, size, dtype=np.int64)
    if size <= 2:
        return np.ones(count, dtype=np.int64)
    semilength = size - 2  # underlying plane tree has size-1 nodes
    length = 2 * semilength + 1
    rng = np.random.default_rng(seed)
    out = np.empty(count, dtype=np.int64)
    filled = 0
    template = np.full(length, -1, dtype=np.int8)
    template[:semilength] = 1
    while filled < count:
        rows = min(batch, count - filled)
        words = np.broadcast_to(template, (rows, length)).copy()
        rng.permuted(words, axis=1, out=words)
        prefix = words.cumsum(axis=1, dtype=np.int32)
        first_min = prefix.argmin(axis=1)
        min_value = np.take_along_axis(prefix, first_min[:, None], axis=1)
        at_min = prefix == min_value
        above_min = prefix == min_value + 1
        for i in range(rows):
            k = int(first_min[i])
            tail = np.flatnonzero(at_min[i, k + 1 :])
            head = np.flatnonzero(above_min[i, :k]) + (length - 1 - k)
            boundaries = np.concatenate(([-1], tail, head))
            child_sizes = np.diff(boundaries) >> 1
            out[filled] = _ancestor_size_from_tokens(child_sizes, r)
            filled += 1
    return out
