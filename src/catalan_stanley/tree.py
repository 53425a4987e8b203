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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True, eq=False)
class PlaneTree:
    """Immutable rooted ordered tree; a leaf has an empty children tuple.

    Equality and hashing are iterative, so they work on arbitrarily deep trees.
    """

    children: tuple["PlaneTree", ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaneTree):
            return NotImplemented
        # matching preorder walks; shared subtrees are equal without a visit
        left, right = [self], [other]
        while left:
            a, b = left.pop(), right.pop()
            if a is b:
                continue
            if len(a.children) != len(b.children):
                return False
            left.extend(a.children)
            right.extend(b.children)
        return True

    def __hash__(self) -> int:
        return hash(self.serialize())

    def size(self) -> int:
        """Number of nodes."""
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children)
        return total

    def serialize(self) -> str:
        """Balanced-parentheses word; one ``()`` pair per node, preorder."""
        out = ["("]
        # (node, next child index); iterative to cope with deep chains
        stack: list[tuple[PlaneTree, int]] = [(self, 0)]
        while stack:
            node, i = stack[-1]
            if i < len(node.children):
                stack[-1] = (node, i + 1)
                out.append("(")
                stack.append((node.children[i], 0))
            else:
                out.append(")")
                stack.pop()
        return "".join(out)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"PlaneTree({self.serialize()!r})"


@dataclass(frozen=True, slots=True)
class DyckPath:
    """Sequence over {+1, -1} with nonnegative prefix sums and total sum 0."""

    steps: tuple[int, ...] = ()

    def __post_init__(self):
        height = 0
        for i, s in enumerate(self.steps):
            if s not in (1, -1):
                raise MalformedPathError(f"step {i} is {s!r}, expected +1 or -1")
            height += s
            if height < 0:
                raise MalformedPathError(f"prefix sum drops below 0 at step {i}")
        if height != 0:
            raise MalformedPathError("total sum is nonzero")

    @classmethod
    def from_string(cls, text: str) -> "DyckPath":
        """Parse a word over {U, D}."""
        steps = []
        for i, ch in enumerate(text):
            if ch == "U":
                steps.append(1)
            elif ch == "D":
                steps.append(-1)
            else:
                raise MalformedPathError(f"character {ch!r} at position {i}, expected U or D")
        return cls(tuple(steps))

    def to_string(self) -> str:
        return "".join("U" if s == 1 else "D" for s in self.steps)


def parse_tree(text: str) -> PlaneTree:
    """Parse a balanced-parentheses word into a tree.

    The word must be nonempty and describe a single root.
    """
    if not text:
        raise TreeParseError("empty input", 0)
    if text[0] != "(":
        raise TreeParseError(f"expected '(', found {text[0]!r}", 0)
    stack: list[list[PlaneTree]] = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append([])
        elif ch == ")":
            if not stack:
                raise TreeParseError("unbalanced ')'", i)
            node = PlaneTree(tuple(stack.pop()))
            if stack:
                stack[-1].append(node)
            elif i != len(text) - 1:
                raise TreeParseError("trailing input after root closes", i + 1)
            else:
                return node
        else:
            raise TreeParseError(f"unexpected character {ch!r}", i)
    raise TreeParseError("unclosed '('", len(text))


def _rightmost_path(branch: PlaneTree) -> list[PlaneTree]:
    """Nodes from a root branch down to its rightmost leaf (last-child walk).

    The list length equals the depth of the rightmost leaf relative to the
    whole tree's root (the branch root itself is at depth 1).
    """
    path = [branch]
    while path[-1].children:
        path.append(path[-1].children[-1])
    return path


def is_catalan_stanley(tau: PlaneTree) -> bool:
    """True iff every root branch's rightmost leaf has odd depth.

    The single-node tree belongs to the class.
    """
    return all(len(_rightmost_path(b)) % 2 == 1 for b in tau.children)


def tree_to_dyck(tau: PlaneTree) -> DyckPath:
    """Glove bijection: preorder walk of the edges, +1 down / -1 up."""
    steps: list[int] = []
    stack: list[tuple[PlaneTree, int]] = [(tau, 0)]
    while stack:
        node, i = stack[-1]
        if i < len(node.children):
            stack[-1] = (node, i + 1)
            steps.append(1)
            stack.append((node.children[i], 0))
        else:
            stack.pop()
            if stack:
                steps.append(-1)
    return DyckPath(tuple(steps))


def dyck_to_tree(path: DyckPath) -> PlaneTree:
    """Inverse glove bijection; the result has semilength+1 nodes."""
    return _steps_to_tree(path.steps)


def _steps_to_tree(steps) -> PlaneTree:
    """`dyck_to_tree` on +1/-1 steps already known to form a Dyck path."""
    stack: list[list[PlaneTree]] = [[]]
    for s in steps:
        if s == 1:
            stack.append([])
        else:
            node = PlaneTree(tuple(stack.pop()))
            stack[-1].append(node)
    return PlaneTree(tuple(stack[0]))


def has_odd_returns(path: DyckPath) -> bool:
    """True iff every maximal descent run ending on the x-axis has odd length."""
    height = 0
    run = 0
    for s in path.steps:
        if s == 1:
            height += 1
            run = 0
        else:
            height -= 1
            run += 1
            if height == 0 and run % 2 == 0:
                return False
    return True


def _require_catalan_stanley(tau: PlaneTree) -> None:
    if not is_catalan_stanley(tau):
        raise NotCatalanStanleyError(
            "tree is not Catalan-Stanley (a branch's rightmost leaf has even depth)"
        )


def reduce(tau: PlaneTree) -> PlaneTree:
    """One growth step backwards.

    Branches whose marked leaf is a child of the root disappear; in every
    other branch the marked leaf's grandparent loses all its subtrees and
    becomes the new marked leaf.  The single-node tree is a fixed point.
    """
    _require_catalan_stanley(tau)
    new_children = []
    for branch in tau.children:
        path = _rightmost_path(branch)
        depth = len(path)
        if depth == 1:
            continue
        # grandparent of the leaf sits at depth-2; rebuild the spine above it
        node = PlaneTree()
        for ancestor_node in reversed(path[: depth - 3]):
            node = PlaneTree(ancestor_node.children[:-1] + (node,))
        new_children.append(node)
    return PlaneTree(tuple(new_children))


def age(tau: PlaneTree) -> int:
    """Number of reductions until the single-node tree is reached.

    Equals (1 + d)/2 where d is the maximum depth of the marked leaves.
    """
    _require_catalan_stanley(tau)
    if tau.is_leaf:
        return 0
    return (1 + max(len(_rightmost_path(b)) for b in tau.children)) // 2


def ancestor(tau: PlaneTree, r: int) -> PlaneTree:
    """r-fold reduction; ancestor(tau, 0) is tau itself."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    _require_catalan_stanley(tau)
    for _ in range(r):
        if tau.is_leaf:
            break
        tau = reduce(tau)
    return tau
