"""Tests for coincidence probabilities, information content, and microstates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvschmidt import (
    DomainError,
    coincidence_probability,
    effective_microstates,
    entanglement_entropy,
    info_report,
    schmidt_information,
    schmidt_number_from_rho,
    shannon_mi_gaussian,
)

REFERENCE_K = 2.29415733870562


class TestCoincidenceProbability:
    def test_pure_state_always_coincides(self):
        for n in (1, 2, 10):
            assert coincidence_probability(1.0, n) == 1.0

    def test_reference_single_round_value(self):
        p = coincidence_probability(schmidt_number_from_rho(0.9), 1)
        assert abs(p - math.sqrt(0.19)) <= 1e-15

    def test_power_of_two_case_is_exact(self):
        assert coincidence_probability(2.0, 10) == 2.0 ** -10

    def test_strictly_decreasing_in_rounds(self):
        values = [coincidence_probability(REFERENCE_K, n) for n in range(1, 12)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("K,n", [(0.5, 1), (math.inf, 1), (2.0, 0), (2.0, -3),
                                     # Counts that operator.index refuses.
                                     (3.0, 2.5), (3.0, 3.0), (3.0, np.float64(3.0)),
                                     (3.0, "3"), (3.0, None)])
    def test_invalid_arguments_rejected(self, K, n):
        with pytest.raises(DomainError):
            coincidence_probability(K, n)


class TestSchmidtInformation:
    @pytest.mark.parametrize("base", [10, "10", 2.5, "E", None])
    def test_base_other_than_2_or_e_rejected(self, base):
        with pytest.raises(DomainError, match="log base must be 2 or 'e'"):
            schmidt_information(2.0, 1, base)

    def test_two_level_state_carries_one_bit(self):
        assert schmidt_information(2.0, 1, 2) == 1.0

    def test_matches_gaussian_mutual_information(self):
        K = schmidt_number_from_rho(0.9)
        assert abs(schmidt_information(K, 1) - shannon_mi_gaussian(0.9)) <= 1e-14

    def test_scales_linearly_with_rounds(self):
        K = schmidt_number_from_rho(0.9)
        assert schmidt_information(K, 5) == 5.0 * schmidt_information(K, 1)
        assert schmidt_information(K, 5, 2) == pytest.approx(
            5.0 * schmidt_information(K, 1, 2), rel=1e-15)

    def test_matches_uniform_spectrum_entropy(self):
        for m in (2, 3, 8, 17):
            assert schmidt_information(float(m), 1, 2) == pytest.approx(
                entanglement_entropy([1.0 / m] * m, 2), rel=1e-12)

    @given(st.floats(min_value=1.0001, max_value=1e6),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_bit_and_nat_scales_are_consistent(self, K, n):
        bits = schmidt_information(K, n, 2)
        nats = schmidt_information(K, n)
        assert bits * math.log(2.0) == pytest.approx(nats, rel=1e-14)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_additive_over_rounds(self, n1, n2):
        K = 3.7
        total = schmidt_information(K, n1 + n2)
        assert total == pytest.approx(
            schmidt_information(K, n1) + schmidt_information(K, n2), rel=1e-14)

    def test_monotone_in_schmidt_number(self):
        values = [schmidt_information(K, 1) for K in (1.0, 1.5, 2.0, 10.0, 1e4)]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEffectiveMicrostates:
    def test_pure_state_has_one_microstate(self):
        assert effective_microstates(1.0, 5) == (1.0, False)

    def test_reference_two_round_count(self):
        count, log_space = effective_microstates(schmidt_number_from_rho(0.9), 2)
        assert not log_space
        assert count == pytest.approx(1.0 / 0.19, rel=1e-14)

    def test_reciprocal_matches_coincidence_probability(self):
        rng_values = [(1.0 + 0.37 * i, 1 + (7 * i) % 9) for i in range(20)]
        for K, n in rng_values:
            count, log_space = effective_microstates(K, n)
            assert not log_space
            assert 1.0 / count == pytest.approx(
                coincidence_probability(K, n), rel=1e-14)

    def test_switches_to_log_space_before_overflow(self):
        direct, direct_flag = effective_microstates(2.0, 1000)
        assert not direct_flag and math.isfinite(direct)
        value, flag = effective_microstates(2.0, 1100)
        assert flag
        assert value == pytest.approx(1100.0 * math.log(2.0), rel=1e-15)
        assert value == schmidt_information(2.0, 1100)


class TestInfoReport:
    def test_reference_report(self):
        K = schmidt_number_from_rho(0.9)
        report = info_report(K, 2)
        assert report.n_symbols == 2
        assert report.I_nats == pytest.approx(2.0 * math.log(K), rel=1e-15)
        assert report.I_bits * math.log(2.0) == pytest.approx(report.I_nats, rel=1e-14)
        assert not report.w_log_space
        assert report.W == pytest.approx(1.0 / 0.19, rel=1e-14)
        assert report.p_coincidence == 1.0 / report.W
        assert math.log(report.W) == pytest.approx(report.I_nats, rel=1e-14)

    def test_log_space_report(self):
        report = info_report(2.0, 1100)
        assert report.w_log_space
        assert report.W == report.I_nats
        assert report.p_coincidence == 0.0

    @pytest.mark.parametrize("n", [0, 2.5, 3.0])
    def test_rounds_must_be_a_positive_integer(self, n):
        # A count of 2.5 would give I_nats = 2.5 ln 3 beside W = 3**2.
        with pytest.raises(DomainError):
            info_report(3.0, n)

    def test_integer_like_counts_are_accepted(self):
        assert info_report(3.0, np.int64(2)) == info_report(3.0, 2)
        assert info_report(3.0, True) == info_report(3.0, 1)

    @pytest.mark.parametrize("K, n", [
        (2.0, 10 ** 400),  # n does not convert to float
        (1.0, 10 ** 400),  # n ln K = 0, but n still does not convert
        (1e300, 10 ** 306),  # n ln K overflows to inf
        (1e300, 22 * 10 ** 304),  # n ln K is finite, n log2 K is not
    ])
    def test_rounds_whose_information_leaves_the_float_range_are_rejected(self, K, n):
        for f in (info_report, schmidt_information, effective_microstates, coincidence_probability):
            with pytest.raises(DomainError, match="n \\* log2 K must be a finite float"):
                f(K, n)

    def test_largest_finite_information_is_reported(self):
        report = info_report(1e300, 18 * 10 ** 304)
        assert math.isfinite(report.I_bits) and report.I_bits > 1.79e308
        assert report.w_log_space and report.p_coincidence == 0.0
