"""Rooted plane trees, Dyck paths, and the Catalan-Stanley reduction.

A Catalan-Stanley tree is a rooted plane tree in which the rightmost leaf
of every branch attached to the root (the branch's marked leaf) sits at
odd depth.  Under the glove bijection these trees correspond exactly to
Dyck paths all of whose maximal terminal descents ending on the x-axis
have odd length.

The reduction operator acts on every branch at once: a branch whose
rightmost leaf is a child of the root is deleted outright; otherwise all
subtrees of the rightmost leaf's grandparent are deleted, which shortens
that branch's rightmost path by two.  The age of a tree is the number of
reductions needed to reach the single-node tree.

A tree is held as its balanced-parentheses word and a Dyck path as its word
over ``(`` (+1) and ``)`` (-1), and every operation reads those words: the
glove bijection drops or adds the root's pair, and a root branch's marked
leaf sits at the depth of the run of ``)`` that closes the branch.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MalformedPathError, NotCatalanStanleyError, TreeParseError

__all__ = [
    "PlaneTree",
    "DyckPath",
    "parse_tree",
    "is_catalan_stanley",
    "tree_to_dyck",
    "dyck_to_tree",
    "reduce",
    "age",
    "ancestor",
    "has_odd_returns",
]

_new = object.__new__
_UD = str.maketrans("()", "UD")  # a path's word as a word over {U, D}


class PlaneTree:
    """Immutable rooted ordered tree, held as its balanced-parentheses word.

    The word has one ``()`` pair per node, in preorder, and a node's children
    are the balanced factors between its parentheses.  Equality, hashing and
    size are string operations, so they work on arbitrarily deep trees.
    """

    __slots__ = ("_word",)

    def __init__(self, children: Iterable["PlaneTree"] = ()):
        self._word = "(" + "".join(c._word for c in children) + ")"

    @staticmethod
    def _of(word: str) -> "PlaneTree":
        """The tree of a word already known to be balanced with one root."""
        tau = _new(PlaneTree)
        tau._word = word
        return tau

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return self._word == other._word

    def __hash__(self) -> int:
        return hash(self._word)

    def size(self) -> int:
        """Number of nodes."""
        return len(self._word) // 2

    def serialize(self) -> str:
        """Balanced-parentheses word; one ``()`` pair per node, preorder."""
        return self._word

    @property
    def children(self) -> tuple["PlaneTree", ...]:
        """Root-child subtrees, left to right: the word split at its returns to the root."""
        word = self._word
        out = []
        start = 1
        height = 0
        for i in range(1, len(word) - 1):
            height += 1 if word[i] == "(" else -1
            if not height:
                out.append(PlaneTree._of(word[start : i + 1]))
                start = i + 1
        return tuple(out)

    @property
    def is_leaf(self) -> bool:
        return self._word == "()"

    def __repr__(self) -> str:
        return f"PlaneTree({self._word!r})"


class DyckPath:
    """Sequence over {+1, -1} with nonnegative prefix sums and total sum 0.

    The path is held as its word over ``(`` for +1 and ``)`` for -1, which
    is the word of its tree under the glove bijection without the root's
    pair.  ``steps`` rebuilds the sequence; equality and hashing are the
    word's, so paths built from any iterable of the same steps are equal.
    """

    __slots__ = ("_word",)

    def __init__(self, steps: Iterable[int] = ()):
        chars = []
        height = 0
        for i, s in enumerate(steps):
            if s == 1:
                height += 1
                chars.append("(")
            elif s == -1:
                height -= 1
                if height < 0:
                    raise MalformedPathError(f"prefix sum drops below 0 at step {i}")
                chars.append(")")
            else:
                raise MalformedPathError(f"step {i} is {s!r}, expected +1 or -1")
        if height:
            raise MalformedPathError("total sum is nonzero")
        self._word = "".join(chars)

    @staticmethod
    def _of(word: str) -> "DyckPath":
        """The path of a word already known to be balanced."""
        path = _new(DyckPath)
        path._word = word
        return path

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(1 if ch == "(" else -1 for ch in self._word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyckPath):
            return NotImplemented
        return self._word == other._word

    def __hash__(self) -> int:
        return hash(self._word)

    def __repr__(self) -> str:
        return f"DyckPath(steps={self.steps!r})"

    @classmethod
    def from_string(cls, text: str) -> "DyckPath":
        """Parse a word over {U, D}."""
        for i, ch in enumerate(text):
            if ch != "U" and ch != "D":
                raise MalformedPathError(f"character {ch!r} at position {i}, expected U or D")
        return cls(1 if ch == "U" else -1 for ch in text)

    def to_string(self) -> str:
        return self._word.translate(_UD)


def parse_tree(text: str) -> PlaneTree:
    """Parse a balanced-parentheses word into a tree.

    The word must be nonempty and describe a single root.
    """
    if not text:
        raise TreeParseError("empty input", 0)
    if text[0] != "(":
        raise TreeParseError(f"expected '(', found {text[0]!r}", 0)
    height = 0
    for i, ch in enumerate(text):
        if ch == "(":
            height += 1
        elif ch == ")":
            height -= 1
            if height == 0:
                if i != len(text) - 1:
                    raise TreeParseError("trailing input after root closes", i + 1)
                return PlaneTree._of(text)
        else:
            raise TreeParseError(f"unexpected character {ch!r}", i)
    raise TreeParseError("unclosed '('", len(text))


def is_catalan_stanley(tau: PlaneTree) -> bool:
    """True iff every root branch's rightmost leaf has odd depth.

    The single-node tree belongs to the class.  One scan of the word stops
    at the first run of ``)`` that returns to the root with even length.
    """
    height = run = 0
    for ch in tau._word[1:-1]:
        if ch == "(":
            height += 1
            run = 0
        else:
            height -= 1
            run += 1
            if not height and not run % 2:
                return False
    return True


def tree_to_dyck(tau: PlaneTree) -> DyckPath:
    """Glove bijection: the tree's word without the root's pair.

    A tree's word is balanced, so the path is not checked again.
    """
    return DyckPath._of(tau._word[1:-1])


def dyck_to_tree(path: DyckPath) -> PlaneTree:
    """Inverse glove bijection; the result has semilength+1 nodes."""
    return PlaneTree._of("(" + path._word + ")")


def has_odd_returns(path: DyckPath) -> bool:
    """True iff every maximal descent run ending on the x-axis has odd length."""
    height = 0
    run = 0
    for ch in path._word:
        if ch == "(":
            height += 1
            run = 0
        else:
            height -= 1
            run += 1
            if height == 0 and run % 2 == 0:
                return False
    return True


_NOT_MEMBER = "tree is not Catalan-Stanley (a branch's rightmost leaf has even depth)"


def reduce(tau: PlaneTree) -> PlaneTree:
    """One growth step backwards.

    Branches whose marked leaf is a child of the root disappear; in every
    other branch the marked leaf's grandparent loses all its subtrees and
    becomes the new marked leaf.  The single-node tree is a fixed point.

    On the word, a branch closed by d ``)`` keeps its characters up to the
    grandparent's ``(``, then ``()``, then the d-3 ``)`` above the grandparent.
    One forward scan records the last ``(`` at each height, which is where
    the grandparent opens when its branch closes, and checks membership at
    each return to the root.
    """
    word = tau._word
    opens = [0] * (len(word) // 2)  # opens[h]: index of the last "(" that rose to height h
    out, start = ["("], 1
    height = run = 0
    for i in range(1, len(word) - 1):
        if word[i] == "(":
            height += 1
            run = 0
            opens[height] = i
        else:
            height -= 1
            run += 1
            if not height:
                if not run % 2:
                    raise NotCatalanStanleyError(_NOT_MEMBER)
                if run > 1:
                    out += word[start : opens[run - 2]], "()", ")" * (run - 3)
                start = i + 1
    out.append(")")
    return PlaneTree._of("".join(out))


def age(tau: PlaneTree) -> int:
    """Number of reductions until the single-node tree is reached.

    Equals (1 + d)/2 where d is the maximum depth of the marked leaves.  One
    scan of the word finds d, the longest run of ``)`` that returns to the
    root, and raises at the first even one.
    """
    deepest = height = run = 0
    for ch in tau._word[1:-1]:
        if ch == "(":
            height += 1
            run = 0
        else:
            height -= 1
            run += 1
            if not height:
                if not run % 2:
                    raise NotCatalanStanleyError(_NOT_MEMBER)
                if run > deepest:
                    deepest = run
    return (1 + deepest) // 2


def ancestor(tau: PlaneTree, r: int) -> PlaneTree:
    """r-fold reduction; ancestor(tau, 0) is tau itself.

    Past its age a tree has reached the single-node tree, a fixed point.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    for _ in range(min(r, age(tau))):
        tau = reduce(tau)
    return tau
