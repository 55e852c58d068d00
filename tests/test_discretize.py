"""Tests for grid construction, state sampling, joint tables, and state files."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvschmidt import (
    DiscretizedState,
    DomainError,
    GaussianParams,
    GridSpec,
    StateFileError,
    build_grid,
    decompose,
    density,
    entanglement_entropy,
    marginals,
    read_state_file,
    sample_state,
    schmidt_number,
    shannon_mi_gaussian,
    shannon_mi_numeric,
    wavefunction,
    write_state_file,
)
from cvschmidt import discretize
from cvschmidt.discretize import MAX_GRID_CELLS
from cvschmidt.util import format_float
from oracles import gauss_legendre_cell_joint


_HEADER_KEYS = ("n1", "n2", "lo1", "hi1", "lo2", "hi2")
_MISSING = object()
_ANY_JSON_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(),
    st.integers(-3, 5),
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, 10**400, -10**400]),
)


@st.composite
def _headers(draw):
    """A valid header with up to three fields replaced by any JSON scalar or removed."""
    lo1, lo2 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    header = {
        "n1": draw(st.integers(2, 5)),
        "n2": draw(st.integers(2, 5)),
        "lo1": lo1,
        "hi1": lo1 + draw(st.floats(0.1, 10.0)),
        "lo2": lo2,
        "hi2": lo2 + draw(st.floats(0.1, 10.0)),
    }
    for key in draw(st.lists(st.sampled_from(_HEADER_KEYS), max_size=3, unique=True)):
        value = draw(st.one_of(st.just(_MISSING), _ANY_JSON_SCALAR))
        if value is _MISSING:
            del header[key]
        else:
            header[key] = value
    return header


def gaussian_state(params, n, span=6.0):
    grid = build_grid(params, n, span=span)
    return sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)


class TestGridSpec:
    def test_reference_box_bounds(self, reference_params):
        grid = build_grid(reference_params, 100)
        assert (grid.lo1, grid.hi1) == (-11.0, 13.0)
        assert (grid.lo2, grid.hi2) == (-7.0, 5.0)
        assert grid.n1 == grid.n2 == 100

    def test_spacing_and_midpoints(self, reference_params):
        grid = build_grid(reference_params, 30)
        assert grid.dx1 == pytest.approx(0.8, rel=1e-15)
        assert grid.midpoints1[0] == pytest.approx(-11.0 + 0.5 * grid.dx1, rel=1e-15)
        assert grid.midpoints1.size == 30
        assert grid.cell_area == pytest.approx(grid.dx1 * grid.dx2, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"n1": 1}, {"n2": 0}, {"lo1": 2.0, "hi1": 2.0}, {"lo2": 1.0, "hi2": 0.0},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        base = {"n1": 4, "n2": 4, "lo1": -1.0, "hi1": 1.0, "lo2": -1.0, "hi2": 1.0}
        base.update(kwargs)
        with pytest.raises(DomainError):
            GridSpec(**base)

    def test_build_grid_validates_arguments(self, reference_params):
        with pytest.raises(DomainError):
            build_grid(reference_params, 1)
        with pytest.raises(DomainError):
            build_grid(reference_params, 50, span=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"lo1": -math.inf}, "lo1 must be finite"),
        ({"hi2": math.nan}, "hi2 must be finite"),
        ({"lo1": -1e308, "hi1": 1e308}, "hi1 - lo1"),
        ({"lo2": -1e308, "hi2": 1e308}, "hi2 - lo2"),
        ({"lo1": 0.0, "hi1": 1e308, "lo2": 0.0, "hi2": 1e308}, "cell area"),
        ({"lo1": 0.0, "hi1": 5e-324}, "cell area"),
        ({"n2": 10**400}, "cell count"),
    ])
    def test_nonfinite_bounds_or_width_rejected(self, kwargs, message):
        base = {"n1": 4, "n2": 4, "lo1": -1.0, "hi1": 1.0, "lo2": -1.0, "hi2": 1.0}
        base.update(kwargs)
        with pytest.raises(DomainError, match=message):
            GridSpec(**base)

    @pytest.mark.parametrize("sigma1, message", [(2.0, "lo1 must be finite"),
                                                 (1.0, "hi1 - lo1")])
    def test_build_grid_rejects_overflowing_box(self, sigma1, message):
        params = GaussianParams(sigma1=sigma1)
        with pytest.raises(DomainError, match=message):
            build_grid(params, 10, span=1e308)


    @pytest.mark.parametrize("n1, n2", [(673, 24929), (4097, 4096)])
    def test_cell_budget(self, n1, n2):
        assert n1 * n2 > MAX_GRID_CELLS == 2**24
        with pytest.raises(DomainError, match="budget of 16777216"):
            GridSpec(n1=n1, n2=n2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)

    def test_cell_budget_itself_is_admitted(self):
        # A grid spec allocates nothing, so the budget itself can be built.
        assert GridSpec(n1=4096, n2=4096, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0).n1 == 4096


class TestSampleState:
    def test_reference_state_is_nearly_normalized_before_rescale(self, reference_params):
        state = gaussian_state(reference_params, 100)
        assert abs(state.raw_norm - 1.0) <= 1e-6
        # Cross-check the pre-rescale norm against a direct box integral of
        # the density on a much finer grid.
        fine = build_grid(reference_params, 800)
        mass = float(np.sum(density(reference_params,
                                    fine.midpoints1[:, None],
                                    fine.midpoints2[None, :])) * fine.cell_area)
        assert abs(state.raw_norm ** 2 - mass) <= 1e-9

    def test_amplitudes_are_unit_frobenius(self, reference_params):
        state = gaussian_state(reference_params, 64)
        assert abs(math.fsum(state.amplitudes.ravel() ** 2) - 1.0) <= 1e-12

    def test_constant_function_gives_uniform_amplitudes(self):
        grid = GridSpec(n1=6, n2=9, lo1=0.0, hi1=1.0, lo2=0.0, hi2=2.0)
        state = sample_state(lambda x1, x2: 2.5, grid)
        np.testing.assert_allclose(state.amplitudes, 1.0 / math.sqrt(6 * 9),
                                   rtol=0.0, atol=1e-15)

    def test_scale_invariance(self, reference_params):
        grid = build_grid(reference_params, 40)
        base = sample_state(lambda x1, x2: wavefunction(reference_params, x1, x2), grid)
        # 1e-170 and 1e200 push the squared norm out of the float range.
        for factor in (1e-170, 1e-6, 3.7, 1e6, 1e200):
            scaled = sample_state(
                lambda x1, x2: factor * wavefunction(reference_params, x1, x2), grid)
            assert float(np.max(np.abs(scaled.amplitudes - base.amplitudes))) <= 1e-12

    def test_separable_function_has_rank_one(self):
        grid = GridSpec(n1=24, n2=16, lo1=-2.0, hi1=2.0, lo2=-3.0, hi2=3.0)
        state = sample_state(lambda x1, x2: np.exp(-x1 ** 2) * (1.0 + x2 ** 2), grid)
        singular = np.linalg.svd(state.amplitudes, compute_uv=False)
        assert singular[1] <= 1e-14

    def test_scalar_valued_function_is_broadcast(self):
        grid = GridSpec(n1=3, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        state = sample_state(lambda x1, x2: 1.0, grid)
        assert state.amplitudes.shape == (3, 4)

    def test_nonvectorized_function_falls_back_to_loop(self):
        grid = GridSpec(n1=5, n2=5, lo1=-1.0, hi1=1.0, lo2=-1.0, hi2=1.0)

        def scalar_only(x1, x2):
            return math.exp(-float(x1) ** 2 - float(x2) ** 2)

        state = sample_state(scalar_only, grid)
        vectorized = sample_state(lambda x1, x2: np.exp(-x1 ** 2 - x2 ** 2), grid)
        np.testing.assert_array_equal(state.amplitudes, vectorized.amplitudes)

    @pytest.mark.parametrize("shape, message", [
        ((3,), r"returned shape \(3,\), which does not broadcast to the grid shape \(4, 4\)"),
        ((4, 4, 2), r"returned shape \(4, 4, 2\), which does not broadcast to the grid shape "
                    r"\(4, 4\)"),
    ])
    def test_result_that_does_not_broadcast_to_the_grid_is_rejected(self, shape, message):
        grid = GridSpec(n1=4, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        calls = []

        def wrong_shape(x1, x2):
            calls.append((x1, x2))
            return np.ones(shape)

        with pytest.raises(DomainError, match=message):
            sample_state(wrong_shape, grid)
        assert len(calls) == 1  # no cell-by-cell retry

    @pytest.mark.parametrize("result", ["abc", (0.5, "x"), np.array([1.0, 2.0]), {}])
    def test_scalar_only_function_must_return_one_number(self, result):
        grid = GridSpec(n1=4, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)

        def scalar_only(x1, x2):
            float(x1)  # refuses arrays, so the grid is evaluated cell by cell
            return result

        with pytest.raises(DomainError, match=r"at \(0.125, 0.125\), not one number"):
            sample_state(scalar_only, grid)

    def test_zero_function_rejected(self):
        grid = GridSpec(n1=4, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError):
            sample_state(lambda x1, x2: 0.0, grid)

    def test_nonfinite_values_rejected(self):
        grid = GridSpec(n1=4, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                sample_state(lambda x1, x2: 1.0 / (x1 - x1), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("peak", [1.0, 1e200])
    def test_nonfinite_value_is_reported_without_a_warning(self, bad, peak):
        # No errstate here: the suite turns any floating-point warning into a
        # failure, so the non-finite value must reach the message silently.
        grid = GridSpec(n1=2, n2=2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        values = np.array([[peak, 0.5], [0.5, bad]])
        with pytest.raises(DomainError,
                           match="^amplitude function must be finite on the grid$"):
            sample_state(lambda x1, x2: values, grid)

    @pytest.mark.parametrize("factor", [1.0, 1e-170, 1e200])
    def test_matches_the_out_of_place_normalization(self, reference_params, factor):
        # 1e-170 and 1e200 take the peak-rescale fallback.
        grid = build_grid(reference_params, 300, span=8.0)
        values = factor * wavefunction(reference_params, grid.midpoints1[:, None],
                                       grid.midpoints2[None, :])
        returned = values.copy()
        state = sample_state(lambda x1, x2: returned, grid)
        with np.errstate(over="ignore", under="ignore"):
            scaled = values * math.sqrt(grid.cell_area)
            raw_norm = math.sqrt(discretize._sum_of_squares(scaled))
        if factor == 1.0:
            assert 0.0 < raw_norm < math.inf
            amplitudes = scaled / raw_norm
        else:
            assert raw_norm in (0.0, math.inf)
            peak = float(np.max(np.abs(values)))
            unit = values / peak
            unit_norm = math.sqrt(discretize._sum_of_squares(unit))
            raw_norm = peak * math.sqrt(grid.cell_area) * unit_norm
            amplitudes = unit / unit_norm
        assert np.array_equal(state.amplitudes, amplitudes)
        assert state.raw_norm == raw_norm
        # The array the amplitude function returned is left as it was.
        assert np.array_equal(returned, values)

    def test_peak_memory_at_n1000(self, reference_params):
        grid = build_grid(reference_params, 1000, span=8.0)
        tracemalloc.start()
        try:
            state = sample_state(lambda x1, x2: wavefunction(reference_params, x1, x2), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The amplitude function's result and the state, ~2.07 times the
        # state; with full-size temporaries the peak was 4.0 times.
        assert peak <= 2.5 * state.amplitudes.nbytes


class TestMarginals:
    def test_uniform_two_by_two(self):
        p1, p2 = marginals(np.full((2, 2), 0.25))
        np.testing.assert_array_equal(p1, [0.5, 0.5])
        np.testing.assert_array_equal(p2, [0.5, 0.5])

    def test_product_joint_recovers_factors(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 1.0, size=6)
        b = rng.uniform(0.1, 1.0, size=9)
        a /= a.sum()
        b /= b.sum()
        p1, p2 = marginals(np.outer(a, b))
        np.testing.assert_allclose(p1, a, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(p2, b, rtol=0.0, atol=1e-15)

    def test_gaussian_marginals_match_univariate_normals(self, reference_params):
        state = gaussian_state(reference_params, 256, span=8.0)
        grid = state.grid
        p1, p2 = marginals(state.probabilities())
        pdf1 = np.exp(-0.5 * ((grid.midpoints1 - reference_params.m1)
                              / reference_params.sigma1) ** 2) / (
            reference_params.sigma1 * math.sqrt(2.0 * math.pi))
        pdf2 = np.exp(-0.5 * ((grid.midpoints2 - reference_params.m2)
                              / reference_params.sigma2) ** 2) / (
            reference_params.sigma2 * math.sqrt(2.0 * math.pi))
        assert float(np.max(np.abs(p1 - pdf1 * grid.dx1))) <= 1e-6
        assert float(np.max(np.abs(p2 - pdf2 * grid.dx2))) <= 1e-6

    @pytest.mark.parametrize("joint", [
        np.array([[0.5, -0.1], [0.3, 0.3]]),
        np.array([[0.4, 0.4], [0.4, 0.4]]),
        np.array([0.5, 0.5]),
    ])
    def test_invalid_joint_rejected(self, joint):
        with pytest.raises(DomainError):
            marginals(joint)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_joint_rejected(self, bad):
        with pytest.raises(DomainError, match="must be finite"):
            marginals(np.array([[bad, 0.25], [0.25, 0.25]]))


class TestShannonMiNumeric:
    def test_product_joint_has_zero_information(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.01, 1.0, size=8)
        b = rng.uniform(0.01, 1.0, size=5)
        a /= a.sum()
        b /= b.sum()
        assert shannon_mi_numeric(np.outer(a, b)) == 0.0

    def test_perfectly_correlated_pair(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert shannon_mi_numeric(joint) == pytest.approx(math.log(2.0), rel=1e-15)
        assert shannon_mi_numeric(joint, 2) == pytest.approx(1.0, rel=1e-15)

    def test_reference_gaussian_matches_analytic_value(self, reference_params):
        state = gaussian_state(reference_params, 200, span=8.0)
        mi = shannon_mi_numeric(state.probabilities())
        assert abs(mi - shannon_mi_gaussian(reference_params.rho)) <= 1e-4

    def test_midpoint_joint_is_converged_at_moderate_sizes(self, reference_params):
        # Midpoint sampling converges faster than any power of the spacing
        # here, so every tested size already sits at the box-truncation
        # floor, far below the headline tolerance.
        exact = shannon_mi_gaussian(reference_params.rho)
        for n in (100, 200, 400):
            state = gaussian_state(reference_params, n, span=8.0)
            assert abs(shannon_mi_numeric(state.probabilities()) - exact) <= 1e-12

    def test_cell_averaged_joint_error_shrinks_under_refinement(self, reference_params):
        # Cell-averaged tables have a resolvable second-order discretization
        # error, so each halving of the spacing divides it by about 4
        # (measured 3.86, 3.96, 3.99).
        exact = shannon_mi_gaussian(reference_params.rho)
        errors = [abs(shannon_mi_numeric(
            gauss_legendre_cell_joint(reference_params, n, span=8.0)) - exact)
            for n in (50, 100, 200, 400)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios

    def test_nonnegative_for_random_joints(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            shape = (rng.integers(2, 12), rng.integers(2, 12))
            joint = rng.uniform(0.0, 1.0, size=shape)
            joint /= joint.sum()
            joint = joint / math.fsum(joint.ravel())
            assert shannon_mi_numeric(joint) >= 0.0

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(43)
        joint = rng.uniform(0.0, 1.0, size=(7, 11))
        joint /= math.fsum(joint.ravel())
        assert shannon_mi_numeric(joint) == pytest.approx(
            shannon_mi_numeric(joint.T), abs=1e-14)

    def test_base_two_conversion(self, reference_params):
        joint = gaussian_state(reference_params, 64).probabilities()
        joint = joint / math.fsum(joint.ravel())
        assert shannon_mi_numeric(joint, 2) == pytest.approx(
            shannon_mi_numeric(joint) / math.log(2.0), rel=1e-14)

    def test_cell_alone_in_its_row_and_column_gives_the_exact_information(self):
        # p1 * p2 = 1e-640 vanishes, but no ratio p / (p1 * p2) is formed:
        # the entropy identity gives p log(1 / p) = 1e-320 ln 1e320.
        joint = np.array([[1e-320, 0.0], [0.0, 1.0]])
        assert shannon_mi_numeric(joint) == pytest.approx(
            1e-320 * 320.0 * math.log(10.0), rel=1e-14)

    def test_underflowing_marginal_product_is_accepted(self):
        # p1 * p2 = 1e-340 would underflow; the entropy identity forms no product.
        joint = np.array([[1e-170, 0.0], [0.0, 1.0 - 1e-170]])
        assert shannon_mi_numeric(joint) == pytest.approx(
            1e-170 * 170.0 * math.log(10.0), rel=1e-14)

    def test_invalid_joint_rejected(self):
        with pytest.raises(DomainError):
            shannon_mi_numeric(np.array([[0.7, 0.2], [0.2, -0.1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_joint_rejected(self, bad):
        with pytest.raises(DomainError, match="must be finite"):
            shannon_mi_numeric(np.array([[bad, 0.25], [0.25, 0.25]]))

    @pytest.mark.parametrize("rho", [0.9, 0.9995])
    def test_pairwise_sum_matches_exact_sum_at_n1000(self, rho):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
        p = gaussian_state(params, 1000, span=8.0).probabilities()
        # The library's terms, summed exactly: only the accumulation differs.
        p1, p2 = p.sum(axis=1), p.sum(axis=0)
        mask = p > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (p / p1[:, None]) / p2[None, :]
        exact = math.fsum(p[mask] * np.log(ratio[mask]))
        mi = shannon_mi_numeric(p)
        assert abs(mi - exact) <= 1e-14
        assert abs(mi - shannon_mi_gaussian(rho)) <= 1e-12

    def test_peak_memory_at_n1000(self, reference_params):
        p = gaussian_state(reference_params, 1000, span=8.0).probabilities()
        tracemalloc.start()
        try:
            shannon_mi_numeric(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One row-block buffer and the marginals, ~0.6 MB; the full-grid
        # ratio, mask and terms peaked at ~33 MB.
        assert peak <= 2**20

    def test_check_order_holds_across_row_blocks(self):
        # Rows 0 and 150 of a 200 x 1000 joint fall in different row blocks.
        joint = np.full((200, 1000), 1.0 / 200_000)
        joint[0, 0] = -joint[0, 0]
        joint[150, 3] = math.nan
        for check in (marginals, shannon_mi_numeric):
            with pytest.raises(DomainError, match="must be finite"):
                check(joint)
        joint[150, 3] = 1.0 / 200_000
        with pytest.raises(DomainError, match="negative entries"):
            shannon_mi_numeric(joint)

    def test_overflowing_finite_joint_fails_its_sum_check(self):
        with pytest.raises(DomainError, match="sums to inf"):
            shannon_mi_numeric(np.array([[1e308, 1e308], [0.0, 0.0]]))


class TestStateFiles:
    def test_round_trip_preserves_state(self, tmp_path, reference_params):
        state = gaussian_state(reference_params, 32)
        path = tmp_path / "state.csv"
        write_state_file(path, state)
        loaded = read_state_file(path)
        assert loaded.grid == state.grid
        assert float(np.max(np.abs(loaded.amplitudes - state.amplitudes))) <= 1e-15

    def test_header_is_json_with_grid_fields(self, tmp_path, reference_params):
        state = gaussian_state(reference_params, 8)
        path = tmp_path / "state.csv"
        write_state_file(path, state)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"n1": 8, "n2": 8, "lo1": -11.0, "hi1": 13.0,
                          "lo2": -7.0, "hi2": 5.0}

    def test_reader_normalizes_arbitrary_scale(self, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n7.0,7.0\n7.0,7.0\n")
        state = read_state_file(path)
        np.testing.assert_allclose(state.amplitudes, 0.5, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("value", ["1e-300", "1e300", "1.7e308"])
    def test_reader_normalizes_values_whose_squared_norm_leaves_float_range(
            self, tmp_path, value):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + f"\n{value},{value}\n{value},{value}\n")
        state = read_state_file(path)
        np.testing.assert_allclose(state.amplitudes, 0.5, rtol=0.0, atol=1e-15)
        assert state.raw_norm == pytest.approx(float(value), rel=1e-15)

    def test_bad_header_reports_position(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("{n1: 2}\n1.0,2.0\n")
        with pytest.raises(StateFileError) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1
        assert excinfo.value.column is not None

    def test_header_that_is_not_an_object_fails_at_line_one(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("[1, 2]\n0.5,0.5\n0.5,0.5\n")
        with pytest.raises(StateFileError, match="JSON header must be an object") as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1

    def test_missing_header_field_rejected(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text('{"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0, "lo2": 0.0}\n')
        with pytest.raises(StateFileError):
            read_state_file(path)

    def test_invalid_grid_values_rejected(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text('{"n1": 1, "n2": 2, "lo1": 0.0, "hi1": 1.0, '
                        '"lo2": 0.0, "hi2": 1.0}\n1.0,1.0\n')
        with pytest.raises(StateFileError):
            read_state_file(path)

    @pytest.mark.parametrize("fields, message", [
        ({"n1": 2.7}, "header field n1 must be an integer"),
        ({"n1": 2.0}, "header field n1 must be an integer"),
        ({"n1": True}, "header field n1 must be an integer"),
        ({"n2": False}, "header field n2 must be an integer"),
        ({"n2": "2"}, "header field n2 must be an integer"),
        ({"lo1": "0.0"}, "header field lo1 must be a number"),
        ({"hi2": None}, "header field hi2 must be a number"),
        ({"lo1": -1e308, "hi1": 1e308}, "hi1 - lo1"),
        ({"lo2": -1e308, "hi2": 1e308}, "hi2 - lo2"),
        ({"lo1": math.nan}, "lo1 must be finite"),
        ({"hi2": math.inf}, "hi2 must be finite"),
        ({"n1": 4097, "n2": 4096}, "budget of 16777216"),
    ])
    def test_header_values_must_be_exact(self, tmp_path, fields, message):
        header = {"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0, "lo2": 0.0, "hi2": 1.0}
        header.update(fields)
        path = tmp_path / "state.csv"
        path.write_text(json.dumps(header) + "\n0.5,0.5\n0.5,0.5\n")
        with pytest.raises(StateFileError, match=message) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1

    @given(header=_headers())
    @example(header={"n1": 3, "n2": 2, "lo1": -1, "hi1": 1.0, "lo2": 0.0, "hi2": 5.0})
    @example(header={"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1e308, "lo2": 0.0, "hi2": 1e308})
    @example(header={"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 5e-324, "lo2": 0.0, "hi2": 1.0})
    @example(header={"n1": 2, "n2": 2, "lo1": -10**400, "hi1": 1.0, "lo2": 0.0, "hi2": 1.0})
    @example(header={"n1": 2, "n2": 10**400, "lo1": 0.0, "hi1": 1.0, "lo2": 0.0, "hi2": 1.0})
    @example(header={"n1": 7, "n2": 2, "lo1": 0.0, "hi1": 1.0, "lo2": 0.0, "hi2": 1.0})
    @settings(max_examples=300, deadline=None)
    def test_any_json_header_loads_or_fails_at_line_one(self, tmp_path_factory, header):
        n1, n2 = header.get("n1"), header.get("n2")
        body_fits = type(n1) is int and type(n2) is int and 2 <= n1 <= 5 and 2 <= n2 <= 5
        if not body_fits:
            n1 = n2 = 2
        path = tmp_path_factory.getbasetemp() / "fuzzed_header.csv"
        path.write_text(json.dumps(header) + "\n" + ("0.5," * (n2 - 1) + "0.5\n") * n1)
        try:
            state = read_state_file(path)
        except StateFileError as exc:
            # A valid header for a grid larger than the 2 x 2 body written
            # here can only fail the body's row or value count.
            assert exc.line == 1 or (not body_fits and (
                "amplitude rows" in str(exc) or "values per row" in str(exc)))
        else:
            assert state.grid == GridSpec(**{key: header[key] for key in _HEADER_KEYS})

    @pytest.mark.parametrize("header", [
        '{"n1": ' + "1" * 5000 + ', "n2": 2, "lo1": 0, "hi1": 1, "lo2": 0, "hi2": 1}',
        "[" * 100000 + "]" * 100000,
    ])
    def test_header_beyond_parser_limits_fails_at_line_one(self, tmp_path, header):
        path = tmp_path / "state.csv"
        path.write_text(header + "\n0.5,0.5\n0.5,0.5\n")
        with pytest.raises(StateFileError, match="parser's limits") as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1

    def test_row_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 3, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(StateFileError) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 4

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 3, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(StateFileError) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 3

    def test_bad_token_reports_line_and_column(self, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(StateFileError) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 3
        assert excinfo.value.column == 2

    def test_nonfinite_token_rejected(self, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n1.0,nan\n3.0,4.0\n")
        with pytest.raises(StateFileError):
            read_state_file(path)

    def test_all_zero_body_rejected(self, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n0.0,0.0\n0.0,0.0\n")
        with pytest.raises(DomainError):
            read_state_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("")
        with pytest.raises(StateFileError) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1

    def test_writer_prints_each_value_as_format_float(self, tmp_path):
        grid = GridSpec(n1=2, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        amp = np.array([[-0.0, 5e-324, 1e-310, 0.1], [1 / 3, -2 / 3, 0.0, 1e-5]])
        state = DiscretizedState(grid=grid, amplitudes=amp / np.linalg.norm(amp))
        path = tmp_path / "state.csv"
        write_state_file(path, state)
        samples = state.amplitudes / math.sqrt(grid.cell_area)
        body = "".join(",".join(format_float(v) for v in row) + "\n" for row in samples)
        assert path.read_text(encoding="utf-8").split("\n", 1)[1] == body

    @pytest.mark.parametrize("bounds, header", [
        ((-1.5, 1.5, 0.25, 2.25),
         '{"n1": 3, "n2": 2, "lo1": -1.5, "hi1": 1.5, "lo2": 0.25, "hi2": 2.25}'),
        ((-1, 2, 0, 2), '{"n1": 3, "n2": 2, "lo1": -1, "hi1": 2, "lo2": 0, "hi2": 2}'),
    ])
    def test_writer_bytes(self, tmp_path, bounds, header):
        # Unit cells, so the body is the amplitudes themselves.
        grid = GridSpec(3, 2, *bounds)
        amp = np.array([[0.5, -0.5], [0.1, 5e-324], [-0.0, 0.7]])
        path = tmp_path / "state.csv"
        write_state_file(path, DiscretizedState(grid=grid, amplitudes=amp))
        assert path.read_bytes() == (header + "\n0.5,-0.5\n"
                                     "0.10000000000000001,4.9406564584124654e-324\n"
                                     "-0,0.69999999999999996\n").encode()

    @pytest.mark.parametrize("separator", [
        "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ])
    def test_rows_split_as_str_splitlines_splits(self, tmp_path, separator):
        header = json.dumps({"n1": 3, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        text = separator.join([header, "1.0,2.0", "3.0,4.0", "5.0,6.0"]) + separator
        path = tmp_path / "state.csv"
        path.write_text(text, encoding="utf-8", newline="")
        state = read_state_file(path)
        expected = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(state.amplitudes, expected / np.linalg.norm(expected))
        # A separator inside a row also ends a line, as in str.splitlines.
        path.write_text(header + "\n1.0,2.0" + separator + "3.0,4.0\n5.0,6.0\n7.0,8.0\n",
                        encoding="utf-8", newline="")
        with pytest.raises(StateFileError, match="expected 3 amplitude rows, found 4") as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 6

    @pytest.mark.parametrize("body, message, line", [
        ("1.0,oops\n3.0,4.0\n", "expected 3 amplitude rows, found 2", 4),
        ("1.0,2.0,3.0\n3.0,4.0\n", "expected 3 amplitude rows, found 2", 4),
        ("1.0,nan\n1,2\n3,4\n5,6\n", "expected 3 amplitude rows, found 4", 6),
        ("1.0,2.0\n\n3.0,4.0\n\n \n", "expected 2 values per row, found 1", 3),
        ("1.0,2.0\n\n3.0,4.0\n4.0,5.0\n", "expected 3 amplitude rows, found 4", 6),
        ("1.0,2.0\n3.0,x\n\n", "expected 3 amplitude rows, found 2", 4),
    ])
    def test_row_count_error_takes_precedence(self, tmp_path, body, message, line):
        header = json.dumps({"n1": 3, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path = tmp_path / "state.csv"
        path.write_text(header + "\n" + body)
        with pytest.raises(StateFileError, match=message) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == line

    def test_reader_memory_does_not_grow_with_extra_rows(self, tmp_path):
        # Reading the whole file first peaked at ~14 MB here.
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path = tmp_path / "state.csv"
        path.write_text(header + "\n" + "0.5,0.5\n" * 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(StateFileError,
                               match="expected 2 amplitude rows, found 200000") as excinfo:
                read_state_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.line == 200_002
        assert peak < 2**20

    @pytest.mark.parametrize("body, line", [
        (b"\xe9\n1,2\n", 2),
        (b"1,2\n3,4\xe9\n", 3),
        ("1,2\u20283,".encode() + b"4\xe9\n", 3),
        (b"1,2\r3,4\n\n\n\xff\n", 6),
    ])
    def test_non_utf8_byte_reports_its_line(self, tmp_path, body, line):
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path = tmp_path / "state.csv"
        path.write_bytes(header.encode() + b"\n" + body)
        with pytest.raises(StateFileError, match="is not UTF-8 text") as excinfo:
            read_state_file(path)
        assert excinfo.value.line == line

    def test_non_utf8_header_fails_at_line_one(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_bytes(b'{"n1": 2, "n2": 2, "lo1": 0, "hi1": 1, "lo2": 0, "hi2": 1, '
                         b'"note": "\xe9"}\n1,2\n3,4\n')
        with pytest.raises(StateFileError, match="byte 0xe9 is not UTF-8 text") as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1


class TestDiscretizedState:
    def test_normalized_flag_enforced(self):
        grid = GridSpec(n1=2, n2=2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError):
            DiscretizedState(grid=grid, amplitudes=np.full((2, 2), 0.9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_amplitudes_rejected_before_the_norm_check(self, bad):
        grid = GridSpec(n1=2, n2=2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError, match="amplitudes must be finite"):
            DiscretizedState(grid=grid, amplitudes=np.array([[0.5, 1e200], [0.5, bad]]))

    def test_overflowing_squares_fail_the_norm_check(self):
        grid = GridSpec(n1=2, n2=2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError, match="squared norm inf"):
            DiscretizedState(grid=grid, amplitudes=np.array([[0.5, 1e200], [0.5, 0.5]]))

    def test_amplitudes_are_a_read_only_view_of_the_callers_array(self):
        grid = GridSpec(n1=2, n2=2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        caller = np.full((2, 2), 0.5)
        state = DiscretizedState(grid=grid, amplitudes=caller)
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes *= 2.0
        assert np.shares_memory(state.amplitudes, caller)
        caller[0, 0] = 0.25
        assert state.amplitudes[0, 0] == 0.25

    def test_sampled_amplitudes_are_read_only(self, reference_params):
        state = gaussian_state(reference_params, 20)
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0, 0] = 0.0

    def test_shape_must_match_grid(self):
        grid = GridSpec(n1=2, n2=3, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError, match="does not match grid"):
            DiscretizedState(grid=grid, amplitudes=np.full((3, 2), 1 / math.sqrt(6)))

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_sum_to_one(self, n1, n2):
        grid = GridSpec(n1=n1, n2=n2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        state = sample_state(
            lambda x1, x2: np.sin(3 * x1) * np.cos(2 * x2) + 1.5, grid)
        assert abs(math.fsum(state.probabilities().ravel()) - 1.0) <= 1e-12


# Run in a child process, since the BLAS thread count is fixed when numpy loads:
# prints the raw norm of an n = 1000 state, writes its state file to argv[1],
# then runs `cvschmidt mutual-info --n 1000`.
_GRID_STAGES = """
import sys
from cvschmidt import GaussianParams, build_grid, sample_state, wavefunction, write_state_file
from cvschmidt.cli import main
params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9)
grid = build_grid(params, 1000, span=8.0)
state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
print(state.raw_norm.hex(), flush=True)
write_state_file(sys.argv[1], state)
sys.exit(main(["mutual-info", "--n", "1000"]))
"""


class TestGridSizedSums:
    def test_grid_stages_give_the_same_bytes_at_any_blas_thread_count(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        children = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=pythonpath)
            children[threads] = subprocess.Popen(
                [sys.executable, "-c", _GRID_STAGES, str(tmp_path / f"state-{threads}.csv")],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        runs = []
        for threads, child in children.items():
            out, err = child.communicate(timeout=120)
            assert (child.returncode, err) == (0, "")
            runs.append((out, (tmp_path / f"state-{threads}.csv").read_bytes()))
        (out1, file1), (out2, file2) = runs
        raw_norm_hex, mutual_info = out1.split("\n", 1)
        assert raw_norm_hex.startswith("0x1.") and mutual_info.startswith("quantity,value\n")
        assert out1 == out2
        assert file1 == file2

    def test_exact_summation_only_sees_weight_vectors(self, monkeypatch, reference_params):
        exact_fsum = math.fsum
        sizes = []

        def recording_fsum(items):
            items = list(items)
            sizes.append(len(items))
            return exact_fsum(items)

        monkeypatch.setattr(math, "fsum", recording_fsum)
        n = 300
        state = gaussian_state(reference_params, n, span=8.0)
        weights = decompose(state).weights
        schmidt_number(weights)
        entanglement_entropy(weights)
        shannon_mi_numeric(state.probabilities())
        marginals(state.probabilities())
        assert sizes
        assert max(sizes) <= n

    @pytest.mark.parametrize("offset", [2e-12, -2e-12])
    def test_norm_check_fires_just_outside_tolerance(self, reference_params, offset):
        state = gaussian_state(reference_params, 300, span=8.0)
        with pytest.raises(DomainError, match="squared norm"):
            DiscretizedState(grid=state.grid,
                             amplitudes=state.amplitudes * math.sqrt(1.0 + offset))
        DiscretizedState(grid=state.grid,
                         amplitudes=state.amplitudes * math.sqrt(1.0 + offset / 4))

    @pytest.mark.parametrize("offset", [2e-12, -2e-12])
    def test_joint_sum_check_fires_just_outside_tolerance(self, reference_params, offset):
        joint = gaussian_state(reference_params, 300, span=8.0).probabilities()
        for check in (marginals, shannon_mi_numeric):
            with pytest.raises(DomainError, match="sums to"):
                check(joint * (1.0 + offset))
            check(joint * (1.0 + offset / 4))
