"""Tests for the closed-form correlated Gaussian model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvschmidt import (
    DomainError,
    GaussianParams,
    GeometricSpectrum,
    analytic_mode,
    analytic_weights,
    build_grid,
    closed_form_entropy,
    density,
    hermite_function,
    rho_squared_from_K,
    schmidt_number_from_rho,
    shannon_mi_gaussian,
    synthesize_wavefunction,
    truncated_weights,
    wavefunction,
)
from cvschmidt import gaussian_model as gm
from cvschmidt.gaussian_model import hermite_functions
from oracles import analytic_mode_pair, plain_exp_density

REFERENCE_K = 2.29415733870562
REFERENCE_WEIGHTS = (
    0.607135541614981,
    0.238521975722865,
    0.0937068068052879,
    0.036814073902549,
    0.014462941204671,
    0.0056819755630274,
)


class TestGaussianParams:
    def test_defaults_are_standard_uncorrelated(self):
        params = GaussianParams()
        assert params.m1 == params.m2 == 0.0
        assert params.sigma1 == params.sigma2 == 1.0
        assert params.rho == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"sigma1": 0.0},
        {"sigma2": -1.0},
        {"rho": 1.0},
        {"rho": -1.0},
        {"rho": 1.5},
        {"m1": math.nan},
        {"sigma1": math.inf},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GaussianParams(**kwargs)

    def test_schmidt_number_property(self, reference_params):
        assert reference_params.schmidt_number == schmidt_number_from_rho(0.9)


class TestDensity:
    def test_standard_normal_peak(self):
        assert density(GaussianParams(), 0.0, 0.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-15)

    def test_correlated_peak(self, reference_params):
        expected = 1.0 / (2.0 * math.pi * 2.0 * 1.0 * math.sqrt(0.19))
        assert density(reference_params, 1.0, -1.0) == pytest.approx(
            expected, rel=1e-14)

    def test_nonnegative_everywhere(self, reference_params):
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-20.0, 20.0, size=10_000)
        x2 = rng.uniform(-20.0, 20.0, size=10_000)
        assert np.all(density(reference_params, x1, x2) >= 0.0)

    def test_total_probability_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = GaussianParams(
                m1=rng.uniform(-3, 3), m2=rng.uniform(-3, 3),
                sigma1=rng.uniform(0.3, 3), sigma2=rng.uniform(0.3, 3),
                rho=rng.uniform(-0.95, 0.95))
            n = 400
            x1 = np.linspace(params.m1 - 8 * params.sigma1,
                             params.m1 + 8 * params.sigma1, n + 1)
            x2 = np.linspace(params.m2 - 8 * params.sigma2,
                             params.m2 + 8 * params.sigma2, n + 1)
            mid1 = 0.5 * (x1[:-1] + x1[1:])
            mid2 = 0.5 * (x2[:-1] + x2[1:])
            mass = float(np.sum(density(params, mid1[:, None], mid2[None, :]))
                         * (x1[1] - x1[0]) * (x2[1] - x2[0]))
            assert abs(mass - 1.0) <= 1e-8

    def test_marginals_are_univariate_normals(self, reference_params):
        params = reference_params
        edges = np.linspace(params.m2 - 10 * params.sigma2,
                            params.m2 + 10 * params.sigma2, 4001)
        mid2 = 0.5 * (edges[:-1] + edges[1:])
        dx2 = edges[1] - edges[0]
        for x1 in (params.m1 - 2.5, params.m1, params.m1 + 1.0):
            integral = float(np.sum(density(params, x1, mid2)) * dx2)
            expected = math.exp(-0.5 * ((x1 - params.m1) / params.sigma1) ** 2) / (
                params.sigma1 * math.sqrt(2.0 * math.pi))
            assert abs(integral - expected) <= 1e-8

    def test_wavefunction_squared_equals_density(self, reference_params):
        rng = np.random.default_rng(5)
        x1 = rng.uniform(-8.0, 10.0, size=10_000)
        x2 = rng.uniform(-6.0, 4.0, size=10_000)
        psi = wavefunction(reference_params, x1, x2)
        assert np.allclose(psi ** 2, density(reference_params, x1, x2),
                           rtol=1e-14, atol=0.0)

    def test_wavefunction_standard_peak(self):
        assert wavefunction(GaussianParams(), 0.0, 0.0) == pytest.approx(
            math.sqrt(1.0 / (2.0 * math.pi)), rel=1e-15)


_COORDINATE = st.floats(-40.0, 40.0)


@st.composite
def _density_arguments(draw):
    """x1, x2 as scalars, 0-d arrays, broadcast axis vectors or a full meshgrid."""
    kind = draw(st.sampled_from(["scalar", "0-d", "broadcast", "meshgrid", "vectors"]))
    if kind == "scalar":
        return draw(_COORDINATE), draw(_COORDINATE)
    if kind == "0-d":
        return np.array(draw(_COORDINATE)), np.array(draw(_COORDINATE))
    axis1 = np.array(draw(st.lists(_COORDINATE, min_size=1, max_size=7)))
    axis2 = np.array(draw(st.lists(_COORDINATE, min_size=1, max_size=7)))
    if kind == "broadcast":
        return axis1[:, None], axis2[None, :]
    if kind == "meshgrid":
        return np.meshgrid(axis1, axis2, indexing="ij")
    return axis1, draw(_COORDINATE)


class TestInPlaceEvaluation:
    @given(
        params=st.builds(GaussianParams, m1=st.floats(-3.0, 3.0), m2=st.floats(-3.0, 3.0),
                         sigma1=st.floats(0.1, 5.0), sigma2=st.floats(0.1, 5.0),
                         rho=st.floats(-0.99999, 0.99999)),
        arguments=_density_arguments(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_single_expression(self, params, arguments):
        x1, x2 = arguments
        want = plain_exp_density(params, x1, x2)
        got = density(params, x1, x2)
        psi = wavefunction(params, x1, x2)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert type(psi) is type(np.sqrt(want))
        assert np.array_equal(psi, np.sqrt(want))

class TestMaskedExp:
    """The exp runs block by block, masked where the exponent is below -746;
    every density and wavefunction byte stays that of one plain exp."""

    @staticmethod
    def assert_same_bytes(params, x1, x2):
        want = plain_exp_density(params, x1, x2)
        got = density(params, x1, x2)
        psi = wavefunction(params, x1, x2)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(psi) is type(np.sqrt(want))
        assert np.asarray(psi).tobytes() == np.sqrt(want).tobytes()

    @pytest.mark.parametrize("rho, span", [(0.88, 8.0), (0.9, 8.0), (0.92, 8.0), (0.998, 10.0),
                                           (0.9995, 10.0), (-0.9995, 10.0)])
    def test_grid_bands_at_n_1000(self, rho, span):
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=rho)
        grid = build_grid(params, 1000, span=span)
        self.assert_same_bytes(params, grid.midpoints1[:, None], grid.midpoints2[None, :])

    def test_blocks_mixing_the_plain_and_masked_paths(self):
        # Exponent -x^2 / 2: the first block stays above -708 (plain exp),
        # later ones reach past -746 (masked), through the subnormal range.
        x = np.linspace(0.0, 60.0, 3 * gm._EXP_BLOCK)
        exponents = -0.5 * x * x
        blocks = [exponents[i:i + gm._EXP_BLOCK] for i in range(0, x.size, gm._EXP_BLOCK)]
        assert blocks[0].min() >= -708.0
        assert blocks[1].min() < -746.0 and blocks[1].max() > -708.0
        assert np.any((exponents > -745.0) & (exponents < -708.0))
        self.assert_same_bytes(GaussianParams(), x, 0.0)

    @pytest.mark.parametrize("x1, x2", [
        (np.linspace(-40.0, 40.0, 300)[:, None, None], np.linspace(-9.0, 9.0, 250)[None, :, None]
         * np.array([1.0, -2.0, 0.5])),
        (np.linspace(-30.0, 30.0, 70_001), np.array([[0.0], [3.0]])),
        (0.25, -0.5),
        (np.array(40.0), 0.0),
        (np.empty((0, 3)), 1.0),
    ])
    def test_broadcast_shapes_and_scalars(self, x1, x2):
        self.assert_same_bytes(GaussianParams(m1=0.5, sigma1=0.7, rho=0.999), x1, x2)


class TestSchmidtNumberMaps:
    def test_uncorrelated_gives_unit_schmidt_number(self):
        assert schmidt_number_from_rho(0.0) == 1.0

    def test_reference_value(self):
        assert abs(schmidt_number_from_rho(0.9) - REFERENCE_K) <= 1e-12

    def test_even_in_correlation_sign(self):
        for rho in np.linspace(0.0, 0.999, 50):
            assert schmidt_number_from_rho(rho) == schmidt_number_from_rho(-rho)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.2, math.nan])
    def test_invalid_correlation_rejected(self, rho):
        with pytest.raises(DomainError):
            schmidt_number_from_rho(rho)

    def test_rho_squared_at_unit_schmidt_number(self):
        assert rho_squared_from_K(1.0) == 0.0

    def test_rho_squared_reference(self):
        assert abs(rho_squared_from_K(schmidt_number_from_rho(0.9)) - 0.81) <= 1e-14

    def test_rho_squared_monotone_and_bounded(self):
        values = [rho_squared_from_K(K) for K in np.linspace(1.0, 400.0, 200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rho_squared_requires_K_at_least_one(self):
        with pytest.raises(DomainError):
            rho_squared_from_K(0.999)

    @given(st.floats(min_value=-0.999999, max_value=0.999999))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_recovers_rho_squared(self, rho):
        assert abs(rho_squared_from_K(schmidt_number_from_rho(rho)) - rho * rho) <= 1e-14


class TestGeometricWeights:
    def test_reference_leading_weights(self):
        weights = analytic_weights(schmidt_number_from_rho(0.9), 6)
        for got, want in zip(weights, REFERENCE_WEIGHTS):
            assert abs(got - want) <= 1e-13

    def test_unit_schmidt_number_is_pure(self):
        assert list(analytic_weights(1.0, 4)) == [1.0, 0.0, 0.0, 0.0]

    def test_weights_sum_to_one(self):
        total = math.fsum(analytic_weights(schmidt_number_from_rho(0.9), 200))
        assert abs(total - 1.0) <= 1e-15

    def test_strictly_decreasing_for_entangled_state(self):
        weights = analytic_weights(3.0, 50)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    @given(st.floats(min_value=1.0001, max_value=80.0),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_partial_sum_identity(self, K, count):
        spectrum = GeometricSpectrum.from_K(K)
        partial = math.fsum(analytic_weights(K, count))
        assert abs(partial - (1.0 - spectrum.q ** count)) <= 1e-12

    def test_count_must_be_positive(self):
        with pytest.raises(DomainError):
            analytic_weights(2.0, 0)

    def test_truncated_weights_renormalized(self):
        weights = truncated_weights(schmidt_number_from_rho(0.9))
        assert abs(math.fsum(weights) - 1.0) <= 1e-15
        assert weights[-1] > 0.0
        # The folded remainder makes the final entry larger than the plain
        # geometric term it replaces.
        assert weights[-1] > analytic_weights(
            schmidt_number_from_rho(0.9), len(weights))[-1]

    def test_truncated_weights_pure_state(self):
        assert list(truncated_weights(1.0)) == [1.0]

    def test_truncated_weights_respects_tail_bound(self):
        K = schmidt_number_from_rho(0.9)
        spectrum = GeometricSpectrum.from_K(K)
        count = len(truncated_weights(K))
        assert spectrum.q ** count < 1e-12
        assert spectrum.q ** (count - 1) >= 1e-12

    def test_truncated_weights_count_is_checked_before_allocating(self, monkeypatch):
        def K_for_count(count):
            # The K whose ceil(log(1e-12) / log(q)) is `count`, from mid-interval.
            q = math.exp(math.log(1e-12) / (count - 0.5))
            return (1.0 + q) / (1.0 - q)

        counts = []

        def allocate(K, count):
            counts.append(count)
            if count > budget:
                raise AssertionError("allocated past the budget")
            return [0.0]

        budget = gm._MAX_TRUNCATED_WEIGHTS
        monkeypatch.setattr(gm, "analytic_weights", allocate)
        truncated_weights(K_for_count(budget))
        assert counts == [budget]
        for K in (K_for_count(budget + 1), 1e17):
            with pytest.raises(DomainError, match="above the budget of 1000000"):
                truncated_weights(K)
        assert counts == [budget]

    @pytest.mark.parametrize("K_map", [
        closed_form_entropy,
        rho_squared_from_K,
        truncated_weights,
        lambda K: analytic_weights(K, 3),
        lambda K: analytic_mode(0, 0.0, 1.0, K, 0.5),
    ])
    def test_infinite_schmidt_number_is_rejected(self, K_map):
        with pytest.raises(DomainError, match="Schmidt number must be finite, got inf"):
            K_map(math.inf)


class TestSchmidtModes:
    def test_peak_value_matches_closed_form_prefactor(self):
        for m, sigma, K in [(0.0, 1.0, 1.0), (1.0, 2.0, REFERENCE_K), (-2.0, 0.5, 7.0)]:
            expected = (K / (2.0 * math.pi * sigma * sigma)) ** 0.25
            assert analytic_mode(0, m, sigma, K, m) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_modes_are_normalized(self, k):
        m, sigma, K = 1.0, 2.0, schmidt_number_from_rho(0.9)
        norm, _ = quad(lambda x: analytic_mode(k, m, sigma, K, x) ** 2,
                       m - 10 * sigma, m + 10 * sigma, limit=200)
        assert abs(norm - 1.0) <= 1e-10

    def test_modes_are_orthonormal(self):
        m, sigma, K = -1.0, 1.0, schmidt_number_from_rho(0.9)
        x = np.linspace(m - 10 * sigma, m + 10 * sigma, 20_001)
        dx = x[1] - x[0]
        curves = [analytic_mode(k, m, sigma, K, x) for k in range(7)]
        for i in range(7):
            for j in range(7):
                overlap = float(np.trapezoid(curves[i] * curves[j], dx=dx))
                assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-10

    @given(st.integers(min_value=0, max_value=40),
           st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_hermite_parity(self, k, u):
        left = hermite_function(k, -u)
        right = hermite_function(k, u)
        assert left == pytest.approx((-1.0) ** k * right, rel=1e-12, abs=1e-300)

    def test_hermite_generator_items_match_hermite_function(self):
        u = np.array([-30.0, -2.5, -0.0, 0.0, 1e-300, 0.75, 4.0, 30.0])
        for k, h in zip(range(300), hermite_functions(u)):
            assert h.tobytes() == hermite_function(k, u).tobytes()

    def test_hermite_recurrence_stable_at_high_order(self):
        values = hermite_function(511, np.array([0.0, 5.0, 30.0]))
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_mode_width_must_be_positive(self, sigma):
        with pytest.raises(DomainError, match="sigma must be positive"):
            analytic_mode(0, 0.0, sigma, 2.0, 0.0)

    def test_mode_order_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            analytic_mode(-1, 0.0, 1.0, 2.0, 0.0)

    def test_pair_carries_sign_for_negative_correlation(self):
        pos = GaussianParams(rho=0.6)
        neg = GaussianParams(rho=-0.6)
        x = np.linspace(-3.0, 3.0, 11)
        for k in range(4):
            f1_pos, f2_pos = analytic_mode_pair(pos, k, x, x)
            f1_neg, f2_neg = analytic_mode_pair(neg, k, x, x)
            np.testing.assert_array_equal(f1_pos, f1_neg)
            expected = -f2_pos if k % 2 else f2_pos
            np.testing.assert_allclose(f2_neg, expected, rtol=0.0, atol=1e-15)

    # 2 sigma^2 underflows to 0; is subnormal; is normal, but K / (2 sigma^2)
    # overflows.
    @pytest.mark.parametrize("sigma, K", [(1e-300, 2.0), (1e-160, 2.0), (1e-150, 1e10)])
    def test_sigma_without_a_finite_prefactor_is_rejected(self, sigma, K):
        with pytest.raises(DomainError, match="prefactor .* is not finite"):
            analytic_mode(0, 0.0, sigma, K, 0.0)

    def test_mode_walk_rejects_a_sigma_whose_square_underflows(self):
        params = GaussianParams(m2=1e-320, sigma2=1e-300, rho=-0.9999999999999999)
        with pytest.raises(DomainError, match="prefactor .* is not finite"):
            next(gm.analytic_modes(params, 2, 0.0))

    def test_every_other_sigma_keeps_its_prefactor(self):
        for sigma in (1e-150, 1e-3, 0.5):
            assert analytic_mode(0, 0.0, sigma, 2.0, 0.0) == (
                (2.0 / (2.0 * sigma * sigma)) ** 0.25 * math.pi ** -0.25)

    @pytest.mark.parametrize("axis", [0, 3, -1, 1.5])
    def test_mode_walk_rejects_an_axis_other_than_1_or_2(self, axis):
        with pytest.raises(DomainError, match="axis must be 1 or 2"):
            next(gm.analytic_modes(GaussianParams(rho=-0.6), axis, 0.5))


class TestSynthesis:
    def _check(self, params, tol, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(params.m1 - 6 * params.sigma1,
                         params.m1 + 6 * params.sigma1, size=1000)
        x2 = rng.uniform(params.m2 - 6 * params.sigma2,
                         params.m2 + 6 * params.sigma2, size=1000)
        rebuilt = synthesize_wavefunction(params, x1, x2)
        exact = wavefunction(params, x1, x2)
        assert float(np.max(np.abs(rebuilt - exact))) <= tol

    def test_reproduces_reference_wavefunction(self, reference_params):
        self._check(reference_params, 1e-8, seed=23)

    def test_reproduces_anticorrelated_wavefunction(self):
        self._check(GaussianParams(m1=0.5, m2=2.0, sigma1=1.5, sigma2=0.7,
                                   rho=-0.85), 1e-8, seed=29)

    def test_scalar_input_gives_a_python_float(self, reference_params):
        value = synthesize_wavefunction(reference_params, 1.5, -0.5)
        assert type(value) is float
        assert value == pytest.approx(wavefunction(reference_params, 1.5, -0.5), abs=1e-13)

    def test_uncorrelated_state_is_a_single_product_term(self):
        params = GaussianParams(m1=1.0, m2=-2.0, sigma1=2.0, sigma2=0.5)
        x1 = np.linspace(-5.0, 7.0, 101)
        x2 = np.linspace(-4.0, 0.0, 101)
        rebuilt = synthesize_wavefunction(params, x1[:, None], x2[None, :])
        exact = wavefunction(params, x1[:, None], x2[None, :])
        np.testing.assert_allclose(rebuilt, exact, rtol=0.0, atol=1e-15)


class TestClosedFormEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert closed_form_entropy(1.0) == 0.0

    def test_matches_series_at_reference(self):
        K = schmidt_number_from_rho(0.9)
        weights = analytic_weights(K, 400)
        series = -math.fsum(w * math.log(w) for w in weights if w > 0.0)
        assert abs(closed_form_entropy(K) - series) <= 1e-10

    def test_strictly_increasing_in_schmidt_number(self):
        values = [closed_form_entropy(K) for K in np.linspace(1.0, 50.0, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_base_two_conversion(self):
        K = schmidt_number_from_rho(0.9)
        assert closed_form_entropy(K, 2) == pytest.approx(
            closed_form_entropy(K) / math.log(2.0), rel=1e-14)

    def test_requires_K_at_least_one(self):
        with pytest.raises(DomainError):
            closed_form_entropy(0.5)


class TestGaussianMutualInformation:
    def test_zero_for_uncorrelated(self):
        assert shannon_mi_gaussian(0.0) == 0.0

    def test_equals_log_schmidt_number(self):
        assert abs(shannon_mi_gaussian(0.9)
                   - math.log(schmidt_number_from_rho(0.9))) <= 1e-14

    def test_even_in_correlation_sign(self):
        for rho in np.linspace(0.0, 0.99, 50):
            assert shannon_mi_gaussian(rho) == shannon_mi_gaussian(-rho)

    def test_base_two_conversion(self):
        assert shannon_mi_gaussian(0.9, 2) == pytest.approx(
            shannon_mi_gaussian(0.9) / math.log(2.0), rel=1e-14)
