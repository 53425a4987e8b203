"""Exception types shared across the package."""

__all__ = [
    "TreeParseError",
    "MalformedPathError",
    "NotCatalanStanleyError",
    "SamplingError",
    "CapacityError",
]


class TreeParseError(ValueError):
    """Raised for malformed balanced-parentheses input.

    ``offset`` is the 0-based position of the first offending character
    (``len(text)`` if the input ended too early).
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class MalformedPathError(ValueError):
    """Raised for step sequences that are not Dyck paths."""


class NotCatalanStanleyError(ValueError):
    """Raised when an operation defined only on Catalan-Stanley trees
    receives a tree outside the class."""


class SamplingError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


class CapacityError(ValueError):
    """Raised when a request exceeds a configured capacity: constant
    precision, the size and depth caps of the asymptotic expansions, or any
    size, count, order or depth cap of a CLI command."""
