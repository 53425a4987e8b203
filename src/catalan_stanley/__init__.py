"""Catalan-Stanley tree growth process: exact enumeration, generating
functions, and asymptotic statistics, with brute-force oracles throughout."""

from .asymptotics import (
    AsymptoticEstimate,
    age_variance_asym,
    ancestor_variance_asym,
    constant_digits,
    expected_age_asym,
    expected_ancestor_asym,
    prob_age_asym,
)
from .enumeration import (
    catalan,
    count_trees,
    enumerate_trees,
    plane_trees,
    sample_reduced_sizes,
    sample_trees,
)
from .errors import (
    CapacityError,
    MalformedPathError,
    NotCatalanStanleyError,
    SamplingError,
    TreeParseError,
)
from .series import (
    BivariateSeries,
    TruncatedSeries,
    phi_apply,
    phi_power,
    series_F_geq,
    series_F_leq,
    series_S,
    series_T,
)
from .stats import (
    DistributionTable,
    age_count_geq,
    age_distribution,
    age_variance,
    ancestor_distribution,
    expected_age,
    expected_age_via_survivals,
    expected_ancestor_size,
    max_ancestor_size,
    odd_divisor_count,
)
from .tree import (
    DyckPath,
    PlaneTree,
    age,
    ancestor,
    dyck_to_tree,
    has_odd_returns,
    is_catalan_stanley,
    parse_tree,
    reduce,
    tree_to_dyck,
)
from .verify import Check, VerifyReport, run_verification

__version__ = "0.1.0"
