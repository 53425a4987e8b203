"""Shared exhaustive-enumeration fixtures.

One pass over all Catalan-Stanley trees of each size collects everything
the oracle-style tests need: age histograms (by formula and by iterated
reduction), ancestor-size histograms for every reduction depth, and the
structural flags (validity, bijection roundtrip, closure, contraction).
The pass is the census that `verify` runs, shared through a session cache.
"""

import pytest

from catalan_stanley.verify import _build_census, _Census

MAX_R = 7


@pytest.fixture(scope="session")
def census():
    cache: dict[int, _Census] = {}

    def get(n: int) -> _Census:
        if n not in cache:
            cache[n] = _build_census(n, MAX_R)
        return cache[n]

    return get
