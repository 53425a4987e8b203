"""Each public entry point refuses out-of-range input with its own error type
and message, before doing any work."""

import pytest

from catalan_stanley import (
    BivariateSeries,
    DistributionTable,
    PlaneTree,
    TruncatedSeries,
    ancestor_distribution,
    expected_age,
    expected_age_via_survivals,
    expected_ancestor_size,
    max_ancestor_size,
    phi_power,
    plane_trees,
    sample_reduced_sizes,
    series_F_leq,
    series_T,
)
from catalan_stanley.asymptotics import survival_correction, survival_leading

SERIES = TruncatedSeries([1, 1], 3)
# (id, call, error type, message)
REFUSALS = [
    ("survival_leading r=0", lambda: survival_leading(0), ValueError, "r must be at least 1"),
    ("survival_correction r=0", lambda: survival_correction(0), ValueError,
     "r must be at least 1"),
    ("plane_trees n=0", lambda: plane_trees(0), ValueError, "size must be positive"),
    ("sample_reduced_sizes size=0", lambda: sample_reduced_sizes(0, 1), ValueError,
     "size must be positive"),
    ("sample_reduced_sizes r=-1", lambda: sample_reduced_sizes(5, 1, r=-1), ValueError,
     "r must be nonnegative"),
    ("sample_reduced_sizes count=-1", lambda: sample_reduced_sizes(5, -1), ValueError,
     "count must be nonnegative"),
    ("TruncatedSeries order=-1", lambda: TruncatedSeries([1], -1), ValueError,
     "order must be nonnegative"),
    ("TruncatedSeries empty", lambda: TruncatedSeries([]), ValueError,
     "empty coefficient list and no order given"),
    ("series / 2", lambda: SERIES / 2, TypeError,
     "unsupported operand type(s) for /: 'TruncatedSeries' and 'int'"),
    ("series ** -1", lambda: SERIES**-1, ValueError,
     "only nonnegative integer powers are supported"),
    ("series shift -1", lambda: SERIES.shift(-1), ValueError, "shift must be nonnegative"),
    ("BivariateSeries outside box", lambda: BivariateSeries([], 2).coefficient(3, 0),
     ValueError, "monomial (3, 0) outside computed box 2"),
    ("series_T order=-1", lambda: series_T(-1), ValueError, "order must be nonnegative"),
    ("phi_power r=-1", lambda: phi_power(BivariateSeries([], 2), -1), ValueError,
     "r must be nonnegative"),
    ("series_F_leq r=-1", lambda: series_F_leq(-1, 4), ValueError, "r must be nonnegative"),
    ("expected_age n=0", lambda: expected_age(0), ValueError, "size must be positive"),
    ("expected_age_via_survivals n=0", lambda: expected_age_via_survivals(0), ValueError,
     "size must be positive"),
    ("DistributionTable lengths", lambda: DistributionTable(3, (1, 2), (1,)), ValueError,
     "support and counts differ in length"),
    ("DistributionTable negative count", lambda: DistributionTable(3, (1, 2), (2, -1)),
     ValueError, "negative count"),
    ("expected_ancestor_size n=0", lambda: expected_ancestor_size(0, 1), ValueError,
     "size must be positive"),
    ("expected_ancestor_size r=-1", lambda: expected_ancestor_size(3, -1), ValueError,
     "r must be nonnegative"),
    ("max_ancestor_size n=0", lambda: max_ancestor_size(0, 1), ValueError,
     "size must be positive"),
    ("max_ancestor_size r=-1", lambda: max_ancestor_size(3, -1), ValueError,
     "r must be nonnegative"),
    ("ancestor_distribution r=-1", lambda: ancestor_distribution(3, -1), ValueError,
     "r must be nonnegative"),
]


@pytest.mark.parametrize(
    "call,error,message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_refusal(call, error, message):
    with pytest.raises(Exception) as excinfo:
        call()
    assert (excinfo.type, str(excinfo.value)) == (error, message)


def test_plane_tree_is_unequal_to_its_word():
    # `!=` is derived from `__eq__`, which answers NotImplemented here
    assert not PlaneTree() == "()"
    assert PlaneTree() != "()"
