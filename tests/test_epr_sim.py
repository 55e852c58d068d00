"""Tests for the coincidence Monte Carlo sampler."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from cvschmidt.util import validate_weights

_CHUNK = epr_sim._CHUNK_SYMBOLS
_RHO_0999 = truncated_weights(schmidt_number_from_rho(0.999))


def geometric(rho):
    return truncated_weights(schmidt_number_from_rho(rho))


def flat(m):
    return [1.0 / m] * m


def one_shot_hits(weights, n, trials, seed):
    """The experiment's hit count drawn all at once: both sources from one
    default_rng(seed) stream, first (trials, n) then (trials, n)."""
    w = validate_weights(weights)
    cum = np.cumsum(w)
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    first = np.searchsorted(cum, rng.random((trials, n)), side="right")
    second = np.searchsorted(cum, rng.random((trials, n)), side="right")
    return int(np.sum(np.all(first == second, axis=1)))


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

    @pytest.mark.parametrize("weights", [
        flat(7), flat(300), geometric(0.9), geometric(0.999), geometric(0.9999),
        [0.0, 0.0, 0.5, 0.5], [0.4, 0.0, 0.0, 0.6], [0.3, 0.7, 0.0, 0.0],
        [1.0], [0.0, 1.0, 0.0],
    ])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_stream_matches_plain_searchsorted(self, weights, seed):
        cum = np.cumsum(validate_weights(weights))
        cum[-1] = 1.0
        want = np.searchsorted(cum, np.random.default_rng(seed).random(100_000), side="right")
        got = sample_stream(weights, 100_000, seed)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


_BELOW_HALF = float(np.nextafter(0.5, 0.0))
_ABOVE_HALF = float(np.nextafter(0.5, 1.0))


def lookup_probes(cum, cells):
    """Uniforms in [0, 1) at and beside every cell edge and cumulative
    weight, plus the extremes and 10^5 seeded draws."""
    edges = np.arange(cells) / cells
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0),
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
        [0.0, np.nextafter(1.0, 0.0)],
        np.random.default_rng(99).random(100_000),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


class TestGuideTable:
    """The guide-table lookup is np.searchsorted(cum, u, side="right")."""

    WEIGHTS = {
        "rho 0.9": geometric(0.9),
        "rho 0.99": geometric(0.99),
        "rho 0.999": geometric(0.999),
        "rho 0.9995": geometric(0.9995),
        "rho 0.9999": geometric(0.9999),
        "flat 5": flat(5),
        "flat 437": flat(437),
        "zeros at the head": [0.0, 0.0, 0.0, 0.25, 0.75],
        "zeros in the middle": [0.25, 0.0, 0.0, 0.0, 0.75],
        "zeros at the tail": [0.25, 0.75, 0.0, 0.0, 0.0],
        "single weight": [1.0],
        "boundaries on cell edges": [0.25, 0.25, 0.0, 0.5],
        "boundary one ulp below a cell edge": [_BELOW_HALF, 1.0 - _BELOW_HALF],
        "boundary one ulp above a cell edge": [_ABOVE_HALF, 1.0 - _ABOVE_HALF],
        "sum above 1 within the tolerance": [0.3, 0.7 + 5e-11, 0.0],
        "cap leaves most cells dirty": flat(200_000),
    }

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_lookup_matches_searchsorted(self, name):
        cum = epr_sim._cumulative(validate_weights(self.WEIGHTS[name]))
        table = epr_sim._guide_table(cum)
        u = lookup_probes(cum, table[0].size)
        got = epr_sim._symbols(cum, table, u)
        want = np.searchsorted(cum, u, side="right")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_lookup_of_a_strided_block(self, name):
        cum = epr_sim._cumulative(validate_weights(self.WEIGHTS[name]))
        u = np.random.default_rng(3).random((500, 7))[::2, 1:5]
        got = epr_sim._symbols(cum, epr_sim._guide_table(cum), u)
        np.testing.assert_array_equal(got, np.searchsorted(cum, u, side="right"))

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_table_size_and_clean_cells(self, name):
        cum = epr_sim._cumulative(validate_weights(self.WEIGHTS[name]))
        guide, clean = epr_sim._guide_table(cum)
        cells = guide.size
        m = cum.size
        assert cells & (cells - 1) == 0
        assert cells == min(2**16, max(16, 2 ** math.ceil(math.log2(16 * m))))
        assert guide.nbytes + clean.nbytes == 9 * cells <= 9 * 2**16
        # A cell is clean exactly when no cumulative weight lies inside it.
        edges = np.arange(cells + 1) / cells
        inside = (np.searchsorted(cum, edges[1:], side="left")
                  > np.searchsorted(cum, edges[:-1], side="right"))
        np.testing.assert_array_equal(clean, ~inside)
        # Only the m - 1 boundaries below cum[-1] = 1 can make a cell dirty.
        assert np.count_nonzero(~clean) <= m - 1
        if name == "cap leaves most cells dirty":
            assert np.count_nonzero(~clean) > cells // 2


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

    def test_negative_seed_rejected_before_drawing(self, monkeypatch):
        def no_generator(*args):
            raise AssertionError("built a generator before checking the seed")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for draw in (lambda: sample_stream([0.5, 0.5], 3, -1),
                     lambda: run_coincidence_experiment([0.5, 0.5], 2, 10, -1)):
            with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
                draw()

    def test_invalid_arguments_rejected(self):
        with pytest.raises(DomainError):
            run_coincidence_experiment([0.5, 0.5], 0, 100, seed=0)
        with pytest.raises(DomainError):
            run_coincidence_experiment([0.5, 0.5], 1, 0, seed=0)
        with pytest.raises(DomainError):
            run_coincidence_experiment([0.5, 0.6], 1, 100, seed=0)


class TestChunkedExperiment:
    """The block-wise filtered experiment counts exactly the one-shot hits."""

    @pytest.mark.parametrize("weights, n, trials, seed", [
        ([0.0, 0.0, 0.6, 0.4], 3, 20_000, 1),
        ([0.3, 0.0, 0.0, 0.7], 3, 20_000, 2),
        ([0.5, 0.5, 0.0, 0.0], 3, 20_000, 3),
        ([0.0, 0.2, 0.0, 0.8, 0.0], 5, 20_000, 4),
        ([1.0], 3, 1_000, 5),
        ([1.0, 0.0], 7, 1_000, 6),
        ([0.0, 1.0], 7, 1_000, 7),
        ([0.25] * 4, 1, _CHUNK - 1, 8),
        ([0.25] * 4, 1, _CHUNK, 9),
        ([0.25] * 4, 1, _CHUNK + 1, 10),
        ([0.9, 0.1], 4, _CHUNK // 4 - 1, 11),
        ([0.9, 0.1], 4, _CHUNK // 4, 12),
        ([0.9, 0.1], 4, _CHUNK // 4 + 1, 13),
        ([0.9, 0.1], 4, 3 * (_CHUNK // 4) + 5, 14),
        (_RHO_0999, 4, 1_000, 15),
        (_RHO_0999, 1, 50_000, 16),
        ([0.999, 0.001], _CHUNK + 3, 4, 17),
        (geometric(0.9), 1, 50_000, 18),
        (geometric(0.9), 4, 50_000, 19),
        (geometric(0.99), 1, 50_000, 20),
        (geometric(0.99), 4, 50_000, 21),
        (geometric(0.9995), 1, 50_000, 22),
        (geometric(0.9995), 4, 50_000, 23),
        (geometric(0.9999), 1, 50_000, 24),
        (geometric(0.9999), 4, 50_000, 25),
        (flat(300), 2, 50_000, 26),
        (geometric(0.9), _CHUNK + 5, 3, 27),
    ])
    def test_hits_match_one_shot_draw(self, weights, n, trials, seed):
        report = run_coincidence_experiment(weights, n, trials, seed)
        assert report.hits == one_shot_hits(weights, n, trials, seed)

    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=6)
        .filter(lambda w: sum(w) > 0.0).map(lambda w: [x / math.fsum(w) for x in w]),
        n=st.integers(1, 12),
        trials=st.integers(1, 60),
        chunk=st.integers(1, 40),
        seed=st.integers(0, 2**32),
    )
    @example(weights=[0.97, 0.03], n=21, trials=300, chunk=8, seed=3)
    @example(weights=[1.0], n=21, trials=30, chunk=8, seed=3)
    @settings(max_examples=200, deadline=None)
    def test_any_block_size_matches_one_shot_draw(self, weights, n, trials, chunk, seed):
        # Small blocks also split single trials across several pieces.
        with mock.patch.object(epr_sim, "_CHUNK_SYMBOLS", chunk):
            hits = run_coincidence_experiment(weights, n, trials, seed).hits
        assert hits == one_shot_hits(weights, n, trials, seed)

    @pytest.mark.parametrize("weights, u1, u2, hit", [
        ([0.5, 0.5], 0.5, 0.5, True),
        ([0.5, 0.5], 0.0, 0.0, True),
        ([0.5, 0.5], np.nextafter(0.5, 0.0), 0.5, False),
        ([0.5, 0.5], 0.5, np.nextafter(0.5, 0.0), False),
        ([0.5, 0.0, 0.5], 0.5, 0.5, True),
        ([0.0, 1.0], 0.0, 0.0, True),
    ])
    def test_bucket_edges_follow_searchsorted(self, monkeypatch, weights, u1, u2, hit):
        # A draw equal to a cumulative weight belongs to the bucket above it.
        uniforms = iter([u1, u2])
        monkeypatch.setattr(epr_sim, "_draw", lambda rng, shape: np.full(shape, next(uniforms)))
        assert run_coincidence_experiment(weights, 1, 3, seed=0).hits == (3 if hit else 0)

    def test_every_uniform_goes_through_draw(self, monkeypatch):
        drawn = []
        real = epr_sim._draw

        def counting(rng, shape):
            drawn.append(int(np.prod(shape)))
            return real(rng, shape)

        monkeypatch.setattr(epr_sim, "_draw", counting)
        report = run_coincidence_experiment(_RHO_0999, 4, 100_000, seed=2)
        assert sum(drawn) == 2 * 100_000 * 4
        assert report.hits == one_shot_hits(_RHO_0999, 4, 100_000, seed=2)

    def test_memory_is_bounded_by_the_block(self):
        # The one-shot draw peaks at ~92 MB for this run.
        tracemalloc.start()
        try:
            run_coincidence_experiment(_RHO_0999, 4, 1_000_000, seed=70001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
