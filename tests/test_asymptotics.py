import hashlib
import math
import time
from fractions import Fraction

import mpmath
import pytest

from catalan_stanley.asymptotics import (
    AsymptoticEstimate,
    age_variance_asym,
    ancestor_variance_asym,
    constant_digits,
    expected_age_asym,
    expected_ancestor_asym,
    prob_age_asym,
    survival_correction,
    survival_leading,
)
from catalan_stanley.errors import CapacityError
from catalan_stanley.stats import (
    age_distribution,
    age_variance,
    expected_age,
    expected_ancestor_size,
)
from catalan_stanley.verify import REFERENCE_CONSTANT_DIGITS


class TestConstants:
    @pytest.mark.parametrize("index", range(4))
    def test_fifty_digit_agreement(self, index):
        computed = constant_digits(index, 50)
        with mpmath.workdps(70):
            difference = abs(
                mpmath.mpf(computed) - mpmath.mpf(REFERENCE_CONSTANT_DIGITS[index])
            )
            assert difference < mpmath.mpf(10) ** -48

    def test_thirty_digit_strings(self):
        assert constant_digits(0, 30) == "2.71825364286795285266483619282"
        assert constant_digits(1, 30) == "-4.22209715101588408238218734776"
        assert constant_digits(2, 30) == "0.918456042143747973577971478140"

    def test_all_digit_strings_pinned(self):
        # sha256 of the 240 strings constant_digits(i, d), i = 0..3 and
        # d = 1..60, newline-joined; recorded while each constant was summed
        # in a pass of its own, and unchanged since all precisions round
        # one pass at 60 digits
        strings = "\n".join(
            constant_digits(i, d) for i in range(4) for d in range(1, 61)
        )
        assert hashlib.sha256(strings.encode()).hexdigest() == (
            "d65405eaf6a2ee6347e8a5b0d6d1797fca9ca32e713794b94e7a7f49a84292b6"
        )

    def test_runtime_budget(self):
        start = time.perf_counter()
        for index in range(4):
            constant_digits(index, 50)
        assert time.perf_counter() - start < 5.0

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            constant_digits(0, 61)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            constant_digits(4, 10)
        with pytest.raises(ValueError):
            constant_digits(0, 0)

    def test_tail_majorants_dominate_terms(self):
        for r in range(1, 301):
            assert survival_leading(r) <= Fraction(16 * r, 4**r)
            assert abs(survival_correction(r)) <= Fraction(160 * r**3, 4**r)
            assert (2 * r - 1) * survival_leading(r) <= Fraction(32 * r**2, 4**r)
            assert abs((2 * r - 1) * survival_correction(r)) <= Fraction(
                320 * r**4, 4**r
            )
            # the one tail bound the summation of c0..c3 relies on
            h, g = survival_leading(r), abs(survival_correction(r))
            assert max(h, g, (2 * r - 1) * h, (2 * r - 1) * g) <= Fraction(
                320 * r**4, 4**r
            )

    def test_second_moment_consistency(self):
        # sum (2r-1) h(r) must equal c2 + c0^2 (Abel summation of the pmf)
        with mpmath.workdps(60):
            second = mpmath.mpf(0)
            for r in range(1, 200):
                term = (2 * r - 1) * survival_leading(r)
                second += mpmath.mpf(term.numerator) / mpmath.mpf(term.denominator)
            c0 = mpmath.mpf(constant_digits(0, 40))
            c2 = mpmath.mpf(constant_digits(2, 40))
            assert abs(second - c0 * c0 - c2) < mpmath.mpf(10) ** -25


class TestBracketIdentities:
    """The two-term pmf expansion is assembled from shifted survival terms;
    these identities pin the shift against the expanded polynomials."""

    @pytest.mark.parametrize("r", range(1, 51))
    def test_leading_shift(self, r):
        p = 4 ** (r + 1)
        assert survival_leading(r + 1) == Fraction(4 * (p * (3 * r + 2) + 1), (p + 2) ** 2)

    @pytest.mark.parametrize("r", range(1, 51))
    def test_correction_shift(self, r):
        numerator = (
            6 * 64 ** (r + 1) * (2 * r**3 + r**2)
            - 6 * 16 ** (r + 1) * (16 * r**3 + 24 * r**2 + 10 * r + 1)
            + 24 * 4 ** (r + 1) * (2 * r**3 + 5 * r**2 + 4 * r + 1)
        )
        assert survival_correction(r + 1) == Fraction(
            numerator, (4 ** (r + 1) + 2) ** 4
        )


class TestLimitingPmf:
    def test_leading_masses_telescope_to_one(self):
        total = sum(
            float(survival_leading(r) - survival_leading(r + 1)) for r in range(1, 501)
        )
        assert abs(total - 1.0) < 1e-10

    def test_survival_leading_starts_at_one(self):
        assert survival_leading(1) == 1

    def test_age_one_mass_vanishes(self):
        # only one tree per size has age 1, so the limit mass at r=1 is 0;
        # both expansion terms vanish there identically
        assert survival_leading(1) - survival_leading(2) == 0
        assert survival_correction(1) == survival_correction(2) == 0
        assert prob_age_asym(400, 1).value == 0.0

    def test_matches_exact_at_fixed_r(self):
        table = age_distribution(1000)
        exact = dict(zip(table.support, table.masses))
        for r in (2, 3, 4):
            estimate = prob_age_asym(1000, r)
            assert abs(estimate.value - float(exact[r])) < 5e-6

    def test_error_scales_as_inverse_square(self):
        errors = []
        for n in (250, 500, 1000):
            table = age_distribution(n)
            exact = float(dict(zip(table.support, table.masses))[2])
            errors.append(abs(prob_age_asym(n, 2).value - exact))
        assert errors[0] / errors[1] == pytest.approx(4, rel=0.5)
        assert errors[1] / errors[2] == pytest.approx(4, rel=0.5)

    def test_estimate_metadata(self):
        estimate = prob_age_asym(100, 3)
        assert estimate.order_tag == "O(n^-2)"


class TestAgeMoments:
    def test_value_is_two_term_expansion(self):
        n = 100
        c0 = float(mpmath.mpf(constant_digits(0, 30)))
        c1 = float(mpmath.mpf(constant_digits(1, 30)))
        assert expected_age_asym(n).value == pytest.approx(c0 + c1 / n, abs=1e-14)

    def test_relative_error_at_800(self):
        exact = float(expected_age(800))
        assert abs(expected_age_asym(800).value - exact) / exact < 1e-4

    def test_error_halves_four_fold(self):
        errors = [
            abs(expected_age_asym(n).value - float(expected_age(n)))
            for n in (100, 200, 400, 800)
        ]
        for a, b in zip(errors, errors[1:]):
            assert 2.5 <= a / b <= 6.0

    def test_variance_ladder(self):
        errors = [
            abs(age_variance_asym(n).value - float(age_variance(n)))
            for n in (100, 200, 400, 800)
        ]
        for a, b in zip(errors, errors[1:]):
            assert 2.5 <= a / b <= 6.0


class TestAncestorMoments:
    def test_r_zero_is_exact_size(self):
        assert expected_ancestor_asym(7, 0).value == 7.0
        assert ancestor_variance_asym(7, 0).value == 0.0

    def test_spot_value(self):
        assert expected_ancestor_asym(5, 1).value == pytest.approx(1.8375, abs=1e-12)

    def test_leading_variance_coefficient(self):
        n = 10**10
        leading = ancestor_variance_asym(n, 2).value / n**2
        assert leading == pytest.approx(15 / 256, rel=1e-4)

    def test_mean_error_decays_three_halves(self):
        errors = []
        for n in (100, 200, 400, 800):
            errors.append(
                abs(expected_ancestor_asym(n, 1).value - float(expected_ancestor_size(n, 1)))
            )
        for a, b in zip(errors, errors[1:]):
            assert a / b >= 2**1.5 / 2  # at least n^(-3/2), slack factor 2

    def test_order_tags(self):
        assert expected_ancestor_asym(10, 2).order_tag == "O(n^-3/2)"
        assert ancestor_variance_asym(10, 2).order_tag == "O(1)"

    def test_sqrt_pi_not_hardcoded(self):
        n, r = 10**8, 1
        value = ancestor_variance_asym(n, r).value
        reconstructed = (
            3 / 16 * n**2
            - math.sqrt(math.pi) * 15 / 48 * n**1.5
            - 36 / 288 * n
            + 5 * math.sqrt(math.pi) * 15 / 128 * math.sqrt(n)
        )
        assert value == pytest.approx(reconstructed, rel=1e-12)


class TestEstimateType:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsymptoticEstimate(float("nan"), "O(1)")

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            expected_age_asym(1)
        with pytest.raises(ValueError):
            prob_age_asym(10, 0)
        with pytest.raises(ValueError):
            expected_ancestor_asym(10, -1)
