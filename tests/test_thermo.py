"""Tests for the effective-temperature maps and oscillator entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvschmidt import (
    DomainError,
    K_from_beta,
    analytic_weights,
    beta_from_K,
    closed_form_entropy,
    oscillator_entropy,
    rho_squared_from_beta,
    rho_squared_from_K,
    schmidt_number_from_rho,
)

REFERENCE_K = 2.29415733870562


class TestBetaFromK:
    def test_two_level_point(self):
        assert beta_from_K(2.0) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_reference_boltzmann_factor_matches_weight_ratio(self):
        K = schmidt_number_from_rho(0.9)
        w = analytic_weights(K, 2)
        assert math.exp(-beta_from_K(K)) == pytest.approx(w[1] / w[0], rel=1e-14)
        assert abs(math.exp(-beta_from_K(K)) - 0.392864458385019) <= 1e-14

    def test_strictly_decreasing_in_schmidt_number(self):
        values = [beta_from_K(K) for K in np.linspace(1.001, 100.0, 60)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("K", [1.0, 0.5, math.nan, math.inf])
    def test_requires_schmidt_number_above_one(self, K):
        with pytest.raises(DomainError):
            beta_from_K(K)


class TestKFromBeta:
    def test_two_level_point(self):
        assert K_from_beta(math.log(3.0)) == pytest.approx(2.0, rel=1e-15)

    def test_limits(self):
        assert K_from_beta(100.0) >= 1.0
        assert K_from_beta(100.0) == pytest.approx(1.0, abs=1e-15)
        assert K_from_beta(1e-12) > 1e11
        assert K_from_beta(1e-300) == pytest.approx(2e300, rel=1e-15)

    def test_strictly_decreasing(self):
        values = [K_from_beta(b) for b in np.geomspace(1e-3, 30.0, 60)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_requires_positive_beta(self, beta):
        with pytest.raises(DomainError):
            K_from_beta(beta)

    @given(st.floats(min_value=1.0 + 1e-6, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_from_schmidt_number(self, K):
        assert K_from_beta(beta_from_K(K)) == pytest.approx(K, rel=1e-13)


class TestRhoSquaredFromBeta:
    def test_matches_schmidt_number_identity(self):
        rng = np.random.default_rng(31)
        for beta in rng.uniform(1e-3, 30.0, size=100):
            direct = rho_squared_from_beta(beta)
            via_K = rho_squared_from_K(K_from_beta(beta))
            assert abs(direct - via_K) <= 1e-14

    def test_range_and_monotonicity(self):
        values = [rho_squared_from_beta(b) for b in np.geomspace(1e-6, 50.0, 80)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_cold_limit_vanishes(self):
        assert rho_squared_from_beta(50.0) < 1e-20


class TestOscillatorEntropy:
    def test_two_level_point_value(self):
        expected = math.log(1.5) + 0.5 * math.log(3.0)
        assert abs(oscillator_entropy(math.log(3.0)) - expected) <= 1e-13

    def test_matches_closed_form_entropy_at_reference(self):
        beta = beta_from_K(schmidt_number_from_rho(0.9))
        assert abs(oscillator_entropy(beta)
                   - closed_form_entropy(schmidt_number_from_rho(0.9))) <= 1e-13

    def test_matches_closed_form_entropy_across_sweep(self):
        worst = max(
            abs(oscillator_entropy(beta) - closed_form_entropy(K_from_beta(beta)))
            for beta in np.geomspace(1e-3, 50.0, 200))
        assert worst <= 1e-12

    def test_cold_limit_vanishes(self):
        assert oscillator_entropy(100.0) <= 1e-40

    def test_strictly_decreasing_in_beta(self):
        values = [oscillator_entropy(b) for b in np.geomspace(1e-3, 30.0, 60)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_base_two_conversion(self):
        beta = 0.7
        assert oscillator_entropy(beta, 2) == pytest.approx(
            oscillator_entropy(beta) / math.log(2.0), rel=1e-14)

    def test_requires_positive_beta(self):
        with pytest.raises(DomainError):
            oscillator_entropy(0.0)


class TestBetaContract:
    @pytest.mark.parametrize("beta", [0.0, -0.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("beta_map", [K_from_beta, rho_squared_from_beta,
                                          oscillator_entropy])
    def test_every_map_requires_positive_finite_beta(self, beta_map, beta):
        with pytest.raises(DomainError, match="positive and finite"):
            beta_map(beta)

    @pytest.mark.parametrize("beta", [1e-308, 1e-310, 5e-324])
    def test_schmidt_number_beyond_the_float_range_rejected(self, beta):
        with pytest.raises(DomainError, match="overflows"):
            K_from_beta(beta)
        assert rho_squared_from_beta(beta) == 1.0
        assert math.isfinite(oscillator_entropy(beta))
