"""Shared exhaustive-enumeration fixture.

`census(n)` is the census that `verify` runs over all Catalan-Stanley trees
of size n: the structural flags (validity, bijection roundtrip up to size
12, closure, contraction), the age histogram by formula, and a histogram of
reduction chains that gives the age by iterated reduction and the ancestor
sizes at every depth.  `verify` caches it per size, so a test session builds
each size once, and a `verify` run in the same process reuses it.
"""

import pytest

from catalan_stanley import verify


@pytest.fixture(scope="session")
def census():
    return verify._census
