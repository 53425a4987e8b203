import hashlib

import numpy as np
import pytest
import scipy.stats

from catalan_stanley.verify import _census, _chi_square_pvalue, run_verification

# sha256 of `run_verification(14, 5, 16).to_text()`, the `verify --max-size 14`
# report; a rewrite of the census or of a check must leave it byte-identical
LARGE_SCOPE_TEXT_SHA256 = "f642153e7d330f9c7ac25527c71e474713a292851cb4078b2dcf3379c928b815"
# sha256 of `run_verification(4, 32, 64).to_text()`, the series layer at the
# `--order` and `--max-r` caps, recorded while the bivariate series were still
# built by a general bivariate product, division and substitution
ORDER_CAP_TEXT_SHA256 = "83e818907dd12c54563bcb0e1ae86a973e5418d30a716c6560ea38b2f89cd84d"


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
        report = run_verification(max_size=4, max_r=32, order=64)
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
