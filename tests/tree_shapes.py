"""Hand-built tree shapes that the tests use as fixed examples."""

from catalan_stanley.tree import PlaneTree


def chain(n: int) -> PlaneTree:
    """Path with n >= 1 nodes."""
    node = PlaneTree()
    for _ in range(n - 1):
        node = PlaneTree((node,))
    return node


def star(n: int) -> PlaneTree:
    """Root with n-1 leaf children."""
    return PlaneTree((PlaneTree(),) * (n - 1))
