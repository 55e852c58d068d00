"""Tests for the coincidence Monte Carlo sampler."""

import math

import numpy as np
import pytest

from cvschmidt import (
    DomainError,
    coincidence_probability,
    run_coincidence_experiment,
    sample_stream,
    schmidt_number,
    schmidt_number_from_rho,
    truncated_weights,
)
from cvschmidt import epr_sim
from cvschmidt.epr_sim import MAX_SYMBOL_PAIRS

# Upper 0.001 quantile of chi-square with one degree of freedom, used for
# the product-structure consistency check.
CHI2_CRITICAL = 10.828


class TestSampleStream:
    def test_single_symbol_source_is_constant(self):
        assert np.all(sample_stream([1.0], 500, seed=1) == 0)

    def test_deterministic_for_fixed_seed(self):
        a = sample_stream([0.3, 0.7], 1000, seed=42)
        b = sample_stream([0.3, 0.7], 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_the_stream(self):
        a = sample_stream([0.3, 0.7], 1000, seed=42)
        b = sample_stream([0.3, 0.7], 1000, seed=43)
        assert np.any(a != b)

    def test_fair_coin_frequency(self):
        n = 1_000_000
        stream = sample_stream([0.5, 0.5], n, seed=7)
        p_hat = float(np.mean(stream == 0))
        std_err = math.sqrt(0.25 / n)
        assert abs(p_hat - 0.5) <= 4.0 * std_err

    def test_categorical_frequencies(self):
        weights = [0.2, 0.3, 0.5]
        n = 200_000
        stream = sample_stream(weights, n, seed=11)
        for symbol, p in enumerate(weights):
            p_hat = float(np.mean(stream == symbol))
            std_err = math.sqrt(p * (1.0 - p) / n)
            assert abs(p_hat - p) <= 4.0 * std_err

    def test_symbols_stay_in_range(self):
        stream = sample_stream([0.25, 0.25, 0.25, 0.25], 10_000, seed=3)
        assert stream.min() >= 0
        assert stream.max() <= 3

    @pytest.mark.parametrize("weights", [[], [0.5, 0.6], [-0.1, 1.1], [math.nan, 1.0]])
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(DomainError):
            sample_stream(weights, 10, seed=0)

    def test_stream_length_must_be_positive(self):
        with pytest.raises(DomainError):
            sample_stream([1.0], 0, seed=0)


class TestCoincidenceExperiment:
    def test_pure_source_always_coincides(self):
        report = run_coincidence_experiment([1.0], 3, 1000, seed=5)
        assert report.hits == 1000
        assert report.p_hat == 1.0
        assert report.p_theory == 1.0

    def test_report_is_reproducible(self):
        weights = truncated_weights(schmidt_number_from_rho(0.8))
        a = run_coincidence_experiment(weights, 2, 50_000, seed=12)
        b = run_coincidence_experiment(weights, 2, 50_000, seed=12)
        assert a == b

    def test_uniform_four_symbol_pairs(self):
        report = run_coincidence_experiment([0.25] * 4, 2, 1_000_000, seed=8)
        assert report.p_theory == pytest.approx(1.0 / 16.0, rel=1e-14)
        assert abs(report.p_hat - 1.0 / 16.0) <= 4.0 * report.std_err

    def test_single_round_rate_estimates_inverse_schmidt_number(self):
        weights = truncated_weights(schmidt_number_from_rho(0.9))
        report = run_coincidence_experiment(weights, 1, 200_000, seed=21)
        assert abs(report.p_hat - 1.0 / schmidt_number(weights)) <= 4.0 * report.std_err

    def test_report_fields_are_consistent(self):
        weights = truncated_weights(schmidt_number_from_rho(0.7))
        report = run_coincidence_experiment(weights, 2, 40_000, seed=9)
        assert 0 <= report.hits <= report.trials
        assert report.p_hat == report.hits / report.trials
        assert report.std_err == pytest.approx(
            math.sqrt(report.p_hat * (1.0 - report.p_hat) / report.trials), rel=1e-15)
        assert report.p_theory == coincidence_probability(schmidt_number(weights), 2)
        assert report.n_symbols == 2
        assert report.seed == 9

    def test_multi_round_rate_is_product_of_single_round_rates(self):
        # Consistency of p_hat(n=3) with p_hat(n=1)^3 via a one-degree
        # chi-square statistic at the 0.001 level.
        weights = truncated_weights(schmidt_number_from_rho(0.9))
        single = run_coincidence_experiment(weights, 1, 400_000, seed=31)
        triple = run_coincidence_experiment(weights, 3, 400_000, seed=37)
        predicted = single.p_hat ** 3
        var_single = single.p_hat * (1.0 - single.p_hat) / single.trials
        var_predicted = (3.0 * single.p_hat ** 2) ** 2 * var_single
        var_triple = triple.p_hat * (1.0 - triple.p_hat) / triple.trials
        statistic = (triple.p_hat - predicted) ** 2 / (var_triple + var_predicted)
        assert statistic <= CHI2_CRITICAL

    @pytest.mark.parametrize("n, trials", [(1, MAX_SYMBOL_PAIRS + 1),
                                           (MAX_SYMBOL_PAIRS + 1, 1)])
    def test_draw_budget_rejected_before_drawing(self, monkeypatch, n, trials):
        def no_draws(*args):
            raise AssertionError("drew before checking the budget")

        monkeypatch.setattr(epr_sim, "_draw", no_draws)
        with pytest.raises(DomainError, match="exceeds the budget"):
            run_coincidence_experiment([0.5, 0.5], n, trials, seed=0)

    def test_draw_budget_admits_its_limit(self, monkeypatch):
        class Drawing(Exception):
            pass

        def stop(*args):
            raise Drawing

        monkeypatch.setattr(epr_sim, "_draw", stop)
        with pytest.raises(Drawing):
            run_coincidence_experiment([0.5, 0.5], 4, MAX_SYMBOL_PAIRS // 4, seed=0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(DomainError):
            run_coincidence_experiment([0.5, 0.5], 0, 100, seed=0)
        with pytest.raises(DomainError):
            run_coincidence_experiment([0.5, 0.5], 1, 0, seed=0)
        with pytest.raises(DomainError):
            run_coincidence_experiment([0.5, 0.6], 1, 100, seed=0)
