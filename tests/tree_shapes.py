"""Hand-built tree shapes that the tests use as fixed examples."""

import itertools

from catalan_stanley.tree import PlaneTree, parse_tree


def chain(n: int) -> PlaneTree:
    """Path with n >= 1 nodes."""
    node = PlaneTree()
    for _ in range(n - 1):
        node = PlaneTree((node,))
    return node


def star(n: int) -> PlaneTree:
    """Root with n-1 leaf children."""
    return PlaneTree((PlaneTree(),) * (n - 1))


def broom(handle: int, bristles: int) -> PlaneTree:
    """Chain of `handle` nodes, root first, whose last node has `bristles` leaf children.

    Built from its word, so that shapes of 10^5 nodes cost O(size).
    """
    return parse_tree("(" * handle + "()" * bristles + ")" * handle)


def marked_leaf_depths(tau: PlaneTree) -> list[int]:
    """Depth of each root branch's rightmost leaf, found by following last children."""
    depths = []
    for branch in tau.children:
        depth, node = 1, branch
        while not node.is_leaf:
            node = node.children[-1]
            depth += 1
        depths.append(depth)
    return depths


def reference_reduce(tau: PlaneTree) -> PlaneTree:
    """One reduction by the paper's node-level definition, through `children`.

    Every root branch's marked leaf is found by following last children.  A
    branch whose marked leaf is a child of the root is deleted; otherwise the
    leaf's grandparent loses all its subtrees, and the branch is rebuilt
    bottom-up along its rightmost path.  Raises ValueError if a marked leaf
    sits at even depth.
    """
    kept = []
    for branch in tau.children:
        path = [branch]  # the branch's rightmost path, depth 1 down to its marked leaf
        while not path[-1].is_leaf:
            path.append(path[-1].children[-1])
        if len(path) % 2 == 0:
            raise ValueError(f"marked leaf at even depth {len(path)}")
        if len(path) == 1:
            continue
        node = PlaneTree()  # the grandparent, stripped of its subtrees
        for above in reversed(path[:-3]):
            node = PlaneTree(above.children[:-1] + (node,))
        kept.append(node)
    return PlaneTree(kept)


def depth_string(word: str) -> str:
    """A word's depth string, from its prefix sums: the node whose "(" sits
    at position i has the depth the word has climbed to before i."""
    heights = itertools.accumulate((1 if ch == "(" else -1 for ch in word), initial=0)
    return "".join(chr(h) for ch, h in zip(word, heights) if ch == "(")
