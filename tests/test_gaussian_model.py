"""Tests for the closed-form correlated Gaussian model."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvschmidt import (
    DomainError,
    GaussianParams,
    GeometricSpectrum,
    GridSpec,
    analytic_mode,
    analytic_weights,
    build_grid,
    closed_form_entropy,
    density,
    hermite_function,
    rho_squared_from_K,
    sample_state,
    schmidt_number_from_rho,
    shannon_mi_gaussian,
    synthesize_wavefunction,
    truncated_weights,
    wavefunction,
)
from cvschmidt import gaussian_model as gm
from cvschmidt.discretize import _BLOCK_CELLS, _row_blocks
from cvschmidt.gaussian_model import hermite_functions
from oracles import analytic_mode_pair, plain_exp_amplitude, plain_exp_density

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
        want_psi = plain_exp_amplitude(params, x1, x2)
        got = density(params, x1, x2)
        psi = wavefunction(params, x1, x2)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert type(psi) is type(want_psi)
        assert np.array_equal(psi, want_psi)

class TestMaskedExp:
    """Each call takes a plain exp or one masked where the exponent is below
    -746; every density and wavefunction byte stays that of one plain exp."""

    @staticmethod
    def assert_same_bytes(params, x1, x2):
        want = plain_exp_density(params, x1, x2)
        want_psi = plain_exp_amplitude(params, x1, x2)
        got = density(params, x1, x2)
        psi = wavefunction(params, x1, x2)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(psi) is type(want_psi)
        assert np.asarray(psi).tobytes() == np.asarray(want_psi).tobytes()

    @pytest.mark.parametrize("shape, rho, span, shift", [
        ((1000, 1000), 0.88, 8.0, 0.0), ((1000, 1000), 0.9, 8.0, 0.0),
        ((1000, 1000), 0.92, 8.0, 0.0), ((1000, 1000), -0.92, 8.0, 0.0),
        ((1000, 1000), 0.998, 10.0, 0.0), ((1000, 1000), 0.9995, 10.0, 0.0),
        ((1000, 1000), -0.9995, 10.0, 0.0),
        ((999, 999), 0.998, 10.0, 0.0), ((999, 999), -0.88, 8.0, 0.0),
        ((256, 300), 0.9999, 10.0, 0.0), ((700, 1000), -0.998, 10.0, 0.0),
        ((1000, 1000), 0.9995, 10.0, 1.0), ((301, 301), -0.9999, 10.0, -1.5),
    ])
    def test_sampled_grids(self, shape, rho, span, shift):
        # Grids as `build_grid` makes them, rectangular ones cut from its
        # box, and boxes moved off the means by `shift` sigmas; the whole
        # grid, each of `sample_state`'s row blocks and the sampled state.
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=rho)
        box = build_grid(params, shape[0], span=span)
        grid = GridSpec(n1=shape[0], n2=shape[1],
                        lo1=box.lo1 + shift * params.sigma1, hi1=box.hi1 + shift * params.sigma1,
                        lo2=box.lo2 - shift * params.sigma2, hi2=box.hi2 - shift * params.sigma2)
        x1, x2 = grid.midpoints1[:, None], grid.midpoints2[None, :]
        self.assert_same_bytes(params, x1, x2)
        for rows, _ in _row_blocks(np.empty(shape)):
            self.assert_same_bytes(params, x1[rows], x2)
        state = sample_state(lambda a, b: wavefunction(params, a, b), grid)
        want = sample_state(lambda a, b: plain_exp_amplitude(params, a, b), grid)
        assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert state.raw_norm == want.raw_norm

    def test_row_blocks_mixing_the_plain_and_masked_paths(self):
        # Exponent -(x1^2 + x2^2) / 2 over three row blocks: the first stays
        # above -708 (plain exp), the second reaches past -746 (masked)
        # through the subnormal range, the third lies wholly below -746.
        params = GaussianParams()
        grid = GridSpec(n1=3 * (_BLOCK_CELLS // 2), n2=2, lo1=0.0, hi1=60.0, lo2=-0.5, hi2=0.5)
        x1, x2 = grid.midpoints1[:, None], grid.midpoints2[None, :]
        exponents = -0.5 * (x1 * x1 + x2 * x2)
        blocks = [exponents[rows] for rows, _ in _row_blocks(exponents)]
        assert len(blocks) == 3
        assert blocks[0].min() >= -708.0
        assert blocks[1].min() < -746.0 and blocks[1].max() > -708.0
        assert np.any((blocks[1] > -745.0) & (blocks[1] < -708.0))
        assert blocks[2].max() < -746.0
        state = sample_state(lambda a, b: wavefunction(params, a, b), grid)
        want = sample_state(lambda a, b: plain_exp_amplitude(params, a, b), grid)
        assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert state.raw_norm == want.raw_norm
        self.assert_same_bytes(params, x1, x2)

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

    @pytest.mark.parametrize("params, x1, x2", [
        (GaussianParams(rho=-0.9995), np.linspace(-9.0, 9.0, 40)[:, None],
         np.linspace(9.0, -9.0, 50)[None, :]),
        (GaussianParams(rho=1.0 - 2.0 ** -50), np.linspace(-1e6, 1e6, 40)[:, None],
         np.linspace(-1e6, 1e6, 50)[None, :]),
        (GaussianParams(sigma1=1e-300), np.array([[-2.0 / 3.0], [0.0], [2.0 / 3.0]]),
         np.array([[-1e300, 0.0, 1e300]])),
        # Rows whose own density exponent -t1^2 / 2 - log(norm) is below
        # -760: every cell underflows.
        (GaussianParams(rho=0.9), np.array([[40.0], [45.0]]), np.linspace(-50.0, 50.0, 101)[None, :]),
        (GaussianParams(rho=0.9), np.array([[-45.0], [-40.0]]), np.linspace(-50.0, 50.0, 101)[None, :]),
    ], ids=["decreasing-x2", "large-t", "out-of-range", "rows-past-reach", "rows-before-reach"])
    def test_edge_inputs(self, params, x1, x2):
        # The out-of-range case has NaN and inf cells, compared as equal.
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(density(params, x1, x2), plain_exp_density(params, x1, x2),
                                  equal_nan=True)
            assert np.array_equal(wavefunction(params, x1, x2),
                                  plain_exp_amplitude(params, x1, x2), equal_nan=True)



class TestAmplitudeAccuracy:
    """The amplitude and the density against a correctly rounded
    decimal.Decimal reference (np.longdouble is only a double on some
    platforms), on the cells above 1e-8 of the peak of n = 1000 grids on
    both bands and both signs of rho, evaluated in row blocks as
    `sample_state` calls.

    The bound is `_density_array`'s: the form's rounding moves the exponent
    by at most eps (t1^2 / 8 + |row| + 5.5 d^2 + 1.5 K T |d|), the rounding
    of t = (x - m) / sigma adds eps (T^2 / 2 + 2 K T |d|), that of log(norm)
    at most eps (N + 1) and exp's own at most 2 eps, which the bound
    eps (4 K T |d| + 2 T^2 + 6 d^2 + 2 N + 4) covers, with |row| <= T^2 / 4
    + N / 2 and N the sum of |log| of 2 pi, sigma1, sigma2 and 1 - rho^2.
    The expanded form t1^2 - 2 rho t1 t2 + t2^2, whose rounding grows like
    eps K^2 T^2, fails it from |rho| 0.998 on."""

    # Decimal has no pi.
    PI = Decimal("3.14159265358979323846264338327950288419716939937511")

    @pytest.mark.parametrize("rho, span", [(0.9, 8.0), (0.998, 10.0), (0.9995, 10.0),
                                           (-0.9999, 10.0)])
    def test_relative_error_within_the_rounding_bound(self, rho, span):
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=rho)
        grid = build_grid(params, 1000, span=span)
        x1, x2 = grid.midpoints1[:, None], grid.midpoints2[None, :]
        psi, p = np.empty((1000, 1000)), np.empty((1000, 1000))
        for rows, _ in _row_blocks(psi):
            psi[rows] = wavefunction(params, x1[rows], x2)
            p[rows] = density(params, x1[rows], x2)
        cells = np.flatnonzero(psi >= 1e-8 * psi.max())
        cells = cells[::max(1, cells.size // 3000)]
        eps = np.finfo(float).eps
        K = schmidt_number_from_rho(rho)
        T = max(np.max(np.abs(x1 - params.m1)) / params.sigma1,
                np.max(np.abs(x2 - params.m2)) / params.sigma2)
        N = sum(abs(math.log(v)) for v in (2.0 * math.pi, params.sigma1, params.sigma2,
                                           (1.0 - rho) * (1.0 + rho)))
        with localcontext() as ctx:
            ctx.prec = 40
            m1, m2, s1, s2, r = map(Decimal, (params.m1, params.m2, params.sigma1,
                                              params.sigma2, rho))
            one_minus_r2 = 1 - r * r
            half_log_norm = (2 * self.PI * s1 * s2 * one_minus_r2.sqrt()).ln() / 2
            scale = 2 * one_minus_r2.sqrt()
            for i, j in zip(*np.unravel_index(cells, psi.shape)):
                t1 = (Decimal(x1[i, 0]) - m1) / s1
                t2 = (Decimal(x2[0, j]) - m2) / s2
                d = (t2 - r * t1) / scale
                exact = (-t1 * t1 / 4 - d * d - half_log_norm).exp()
                bound = eps * (4 * K * T * abs(float(d)) + 2 * T * T + 6 * float(d) ** 2
                               + 2 * N + 4)
                error = float(abs(Decimal(psi[i, j]) - exact) / exact)
                assert error <= bound, (i, j, error, bound)
                error = float(abs(Decimal(p[i, j]) - exact * exact) / (exact * exact))
                assert error <= 2 * bound, (i, j, error, 2 * bound)


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

    def test_mode_walk_gives_the_paired_modes_bit_for_bit(self):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=-0.95)
        x1, x2 = np.linspace(-9.0, 11.0, 7), np.linspace(-6.0, 4.0, 5)
        walks = zip(gm.analytic_modes(params, 1, x1), gm.analytic_modes(params, 2, x2))
        for k, (mode1, mode2) in zip(range(12), walks):
            pair = analytic_mode_pair(params, k, x1, x2)
            assert mode1.tobytes() == pair[0].tobytes()
            assert mode2.tobytes() == pair[1].tobytes()

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
