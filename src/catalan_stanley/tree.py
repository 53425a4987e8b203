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

A tree has two encodings, and holds one of them or both.  Its word has one
``()`` pair per node in preorder; its depth string has one character per
node in preorder, ``chr(depth)``, so the root is ``"\\x00"``.  Each is
derived from the other on first use and then kept.  Neither is ever empty,
so ``==``, ``!=``, hashing, `is_leaf`, the glove bijection, membership,
`age` and `reduce` each read the one they need with one attribute access,
``tau._word or tau.serialize()`` or ``tau._depths or tau._depth_string()``,
derive it only when it is missing and build their result object in place:
on a tree that holds what they read, they call no other function of the
package.  The word serves output, ``==``, ``!=``, hashing and the glove
bijection, which drops or adds the root's pair; a Dyck path is held as its
word over ``(`` (+1) and ``)`` (-1).  `size` and `is_leaf` answer from
whichever encoding is held.  The depth string serves membership, `age` and
`reduce`: splitting it after the first root child at every ``"\\x01"``
gives each root branch's nodes below its root child, the last of them is
the branch's marked leaf, and the leaf's grandparent is the last node
before it at two levels up.

``chr`` stops at 0x10FFFF, so membership, `age` and `reduce` raise
`CapacityError` on a tree deeper than 1,114,111; its word, and with it
``serialize``, ``==``, ``!=``, ``hash``, ``size`` and ``is_leaf``, work at
any depth.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapacityError, MalformedPathError, NotCatalanStanleyError, TreeParseError

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
    """Immutable rooted ordered tree, held as its word, its depth string or both.

    The word has one ``()`` pair per node, in preorder, and a node's children
    are the balanced factors between its parentheses.  The depth string has
    one character per node, in preorder, ``chr`` of its depth.  A missing
    encoding is derived from the other on first use and kept; a race between
    threads only stores the same string twice.  Equality and hashing are the
    word's, and size and `is_leaf` read whichever encoding is held, so they
    are string operations that work on arbitrarily deep trees.
    """

    __slots__ = ("_word", "_depths")

    def __init__(self, children: Iterable["PlaneTree"] = ()):
        self._word = "(" + "".join(c.serialize() for c in children) + ")"
        self._depths = None

    @staticmethod
    def _of(word: str | None, depths: str | None = None) -> "PlaneTree":
        """The tree of a word known to be balanced with one root, of a depth
        string known to be a preorder level sequence, or of both."""
        tau = _new(PlaneTree)
        tau._word = word
        tau._depths = depths
        return tau

    def _depth_string(self) -> str:
        """One character per node in preorder, ``chr`` of its depth."""
        depths = self._depths
        if depths is None:
            chars = []
            depth = 0
            try:
                for ch in self._word:
                    if ch == "(":
                        chars.append(chr(depth))
                        depth += 1
                    else:
                        depth -= 1
            except ValueError:
                raise CapacityError(
                    f"tree is deeper than {_MAX_DEPTH:,}, the largest depth a depth string holds"
                ) from None
            depths = self._depths = "".join(chars)
        return depths

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return (self._word or self.serialize()) == (other._word or other.serialize())

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return (self._word or self.serialize()) != (other._word or other.serialize())

    def __hash__(self) -> int:
        return hash(self._word or self.serialize())

    def size(self) -> int:
        """Number of nodes."""
        depths = self._depths
        return len(self._word) // 2 if depths is None else len(depths)

    def serialize(self) -> str:
        """Balanced-parentheses word; one ``()`` pair per node, preorder."""
        word = self._word
        if word is None:
            # before a node at depth d opens, the last node (at depth `above`)
            # and its ancestors down to depth d close
            parts = []
            above = -1
            for depth in map(ord, self._depths):
                parts.append(")" * (above + 1 - depth) + "(")
                above = depth
            parts.append(")" * (above + 1))
            word = self._word = "".join(parts)
        return word

    @property
    def children(self) -> tuple["PlaneTree", ...]:
        """Root-child subtrees, left to right: the word split at its returns to the root."""
        word = self.serialize()
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
        """True iff the tree is the single node, read off the held encoding."""
        depths = self._depths
        return self._word == "()" if depths is None else depths == "\x00"

    def __repr__(self) -> str:
        return f"PlaneTree({self.serialize()!r})"


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

    The single-node tree belongs to the class.  A branch's rightmost leaf is
    the last node of its piece of the depth string: the string after the
    root and the first root child, split at every root child (``"\\x01"``).
    An empty piece is a leaf child, at depth 1.
    """
    for piece in (tau._depths or tau._depth_string())[2:].split("\x01"):
        if piece and not ord(piece[-1]) % 2:
            return False
    return True


def tree_to_dyck(tau: PlaneTree) -> DyckPath:
    """Glove bijection: the tree's word without the root's pair.

    A tree's word is balanced, so the path is not checked again.
    """
    path = _new(DyckPath)
    path._word = (tau._word or tau.serialize())[1:-1]
    return path


def dyck_to_tree(path: DyckPath) -> PlaneTree:
    """Inverse glove bijection; the result has semilength+1 nodes."""
    tau = _new(PlaneTree)
    tau._word = "(" + path._word + ")"
    tau._depths = None
    return tau


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

# the largest depth `chr` encodes
_MAX_DEPTH = 0x10FFFF


def reduce(tau: PlaneTree) -> PlaneTree:
    """One growth step backwards.

    Branches whose marked leaf is a child of the root disappear; in every
    other branch the marked leaf's grandparent loses all its subtrees and
    becomes the new marked leaf.  The single-node tree is a fixed point.

    On the depth string, a branch whose marked leaf has depth d keeps its
    nodes up to the last one at depth d - 2, the grandparent, since the
    nodes after it in preorder are its descendants.  At d = 3 the
    grandparent is the root child, which no piece holds, so ``rfind``
    gives -1 and the branch keeps only its root child.  The result holds
    only its depth string.
    """
    kept = ["\x00"]
    for piece in (tau._depths or tau._depth_string())[2:].split("\x01"):
        if piece:
            d = ord(piece[-1])
            if not d % 2:
                raise NotCatalanStanleyError(_NOT_MEMBER)
            kept.append(piece[: piece.rfind(chr(d - 2)) + 1])
    out = _new(PlaneTree)
    out._word = None
    out._depths = "\x01".join(kept)
    return out


def age(tau: PlaneTree) -> int:
    """Number of reductions until the single-node tree is reached.

    Equals (1 + d)/2 where d is the maximum depth of the marked leaves, the
    last characters of the depth string's pieces (see `is_catalan_stanley`);
    raises at the first even one.
    """
    depths = tau._depths or tau._depth_string()
    if len(depths) == 1:
        return 0
    deepest = 1
    for piece in depths[2:].split("\x01"):
        if piece:
            d = ord(piece[-1])
            if not d % 2:
                raise NotCatalanStanleyError(_NOT_MEMBER)
            if d > deepest:
                deepest = d
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
