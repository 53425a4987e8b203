import hashlib
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from catalan_stanley import asymptotics, series, verify
from catalan_stanley import tree as tree_ops
from catalan_stanley.cli import MAX_VERIFY_ORDER, MAX_VERIFY_R
from catalan_stanley.enumeration import enumerate_trees
from catalan_stanley.tree import parse_tree
from catalan_stanley.verify import _census, _chi_square_pvalue, run_verification

# sha256 of `run_verification(14, 5, 16).to_text()`, the `verify --max-size 14`
# report; a rewrite of the census or of a check must leave it byte-identical.
# Both pins were re-recorded when `reduced_size_bijection` joined the tree
# layer: the same lines and passed count, that one line moved up to follow
# the `parity_correspondence` lines.
LARGE_SCOPE_TEXT_SHA256 = "fd2654e1bdd6c739151c02ebb84978381df46bf8054e66e8fc405ca3ce3c0089"
# sha256 of `run_verification(4, 40, 80).to_text()`, the series layer at the
# `--order` and `--max-r` caps
ORDER_CAP_TEXT_SHA256 = "8d06fa8fb3f09aabb887126a23131b6f3cfab823cd0648f41b2df4e7d1a6c64a"


class TestChiSquareHelper:
    @pytest.mark.parametrize(
        "observed",
        [
            [10, 12, 9, 11, 8],
            [100, 90, 110, 95, 105, 100],
            [3, 3, 3],
            [40, 60],  # df 1: the erfc term alone
            [12, 9, 15, 8, 11, 10, 7, 13, 14, 6],  # df 9
        ],
    )
    def test_matches_scipy(self, observed):
        expected = [sum(observed) / len(observed)] * len(observed)
        ours = _chi_square_pvalue(observed, expected)
        _, reference = scipy.stats.chisquare(observed, expected)
        assert ours == pytest.approx(reference, rel=1e-9)

    def test_nonuniform_expected(self):
        rng = np.random.default_rng(2)
        expected = [20.0, 30.0, 50.0]
        observed = list(rng.multinomial(100, [0.2, 0.3, 0.5]))
        ours = _chi_square_pvalue(observed, expected)
        _, reference = scipy.stats.chisquare(observed, expected)
        assert ours == pytest.approx(reference, rel=1e-9)


class TestFullScope:
    def test_large_scope_run_is_clean(self):
        """The documented large scope: every check passes and the report is
        big enough to be meaningful."""
        report = run_verification(max_size=14, max_r=5, order=16)
        assert report.ok, [c.to_line() for c in report.checks if not c.passed]
        assert len(report.checks) >= 25
        names = {c.name for c in report.checks}
        assert any(name.startswith("f(14,5)=") for name in names)
        assert "phi_fixed_point" in names
        assert "constant_c0_digits" in names
        assert hashlib.sha256(report.to_text().encode()).hexdigest() == LARGE_SCOPE_TEXT_SHA256

    def test_order_cap_run_is_unchanged(self):
        report = run_verification(max_size=4, max_r=MAX_VERIFY_R, order=MAX_VERIFY_ORDER)
        assert report.ok, [c.to_line() for c in report.checks if not c.passed]
        assert hashlib.sha256(report.to_text().encode()).hexdigest() == ORDER_CAP_TEXT_SHA256


class TestCensus:
    def test_depends_on_size_alone(self):
        run_verification(max_size=6, max_r=2, order=8)
        misses = _census.cache_info().misses
        run_verification(max_size=6, max_r=5, order=8)
        assert _census.cache_info().misses == misses

    @pytest.mark.parametrize("n", range(2, 11))
    def test_past_the_age_bound_every_ancestor_is_the_root(self, n):
        census = _census(n)
        for r in range(n // 2 + 1, n + 2):
            assert census.ancestor_sizes(r) == {1: census.count}


def _failed(report) -> list[str]:
    return [c.name for c in report.checks if not c.passed]


class TestMutations:
    """A wrong formula that two routes would share fails against trees or exact counts."""

    def test_wrong_geometric_factor_fails_the_tree_counts(self, monkeypatch):
        def shifted_phi_power(f, r):
            # G_{r+1} = (1 - T^{2r+2})/(1 - T^2) where Phi^r has G_r
            t = series.series_T(f.order)
            return series._expand(f, t ** (2 * r), (1 - t ** (2 * r + 2)) / (1 - t * t))

        # series_F_leq and verify's own phi_power both see the wrong G_r
        monkeypatch.setattr(series, "phi_power", shifted_phi_power)
        monkeypatch.setattr(verify, "phi_power", shifted_phi_power)
        failed = _failed(run_verification(6, 3, 8))
        assert "branch_age_counts(2)" in failed

    def test_survival_count_off_by_one_fails_against_the_census(self, monkeypatch):
        healthy = verify.age_count_geq
        monkeypatch.setattr(
            verify, "age_count_geq", lambda n, r: healthy(n, r) + ((n, r) == (6, 2))
        )
        failed = _failed(run_verification(6, 3, 8))
        assert [name for name in failed if name.startswith("f(")] == [
            f"f(6,2)={healthy(6, 2)}"
        ]

    @pytest.fixture
    def fresh_constants(self):
        asymptotics._constants.cache_clear()
        yield
        asymptotics._constants.cache_clear()

    def test_perturbed_survival_limit_fails_the_expansion(self, monkeypatch, fresh_constants):
        healthy = asymptotics.survival_leading

        def perturbed(r):
            return healthy(r) + (Fraction(1, 1000) if r == 3 else 0)

        monkeypatch.setattr(asymptotics, "survival_leading", perturbed)
        failed = _failed(run_verification(4, 5, 8))
        assert "survival_expansion" in failed

    # the census checks: each patch breaks one tree operation for one shape
    # of size 6 (the first in lex order) and must fail its check at size 6
    SHAPE = next(enumerate_trees(6)).serialize()

    @pytest.fixture
    def fresh_census(self):
        _census.cache_clear()
        yield
        _census.cache_clear()

    def test_reduce_that_keeps_one_shape_fails_contraction(self, monkeypatch, fresh_census):
        """A `reduce` that returns its input never reaches the root; the
        census stops that chain at the step that did not contract."""
        healthy = tree_ops.reduce
        monkeypatch.setattr(
            tree_ops, "reduce", lambda tau: tau if tau.serialize() == self.SHAPE else healthy(tau)
        )
        failed = _failed(run_verification(6, 2, 8))
        assert {"contraction(6)", "closure(6)"} & set(failed)

    def test_age_one_too_old_for_one_shape_fails_consistency(self, monkeypatch, fresh_census):
        healthy = tree_ops.age
        monkeypatch.setattr(
            tree_ops, "age", lambda tau: healthy(tau) + (tau.serialize() == self.SHAPE)
        )
        failed = _failed(run_verification(6, 2, 8))
        assert "age_consistency(6)" in failed

    def test_dyck_to_tree_that_adds_a_leaf_fails_the_roundtrip(self, monkeypatch, fresh_census):
        healthy = verify.dyck_to_tree
        monkeypatch.setattr(
            verify, "dyck_to_tree", lambda path: parse_tree(healthy(path).serialize()[:-1] + "())")
        )
        failed = _failed(run_verification(6, 2, 8))
        assert "bijection_roundtrip(6)" in failed
