"""Tests for grid construction, state sampling, joint tables, and state files."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvschmidt import (
    DiscretizedState,
    DomainError,
    GaussianParams,
    GridSpec,
    StateFileError,
    build_grid,
    density,
    marginals,
    read_state_file,
    sample_state,
    shannon_mi_gaussian,
    shannon_mi_numeric,
    wavefunction,
    write_state_file,
)
from oracles import gauss_legendre_cell_joint


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


class TestSampleState:
    def test_reference_state_is_nearly_normalized_before_rescale(self, reference_params):
        state = gaussian_state(reference_params, 100)
        assert state.norm_applied
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
        for factor in (1e-6, 3.7, 1e6):
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

    def test_zero_function_rejected(self):
        grid = GridSpec(n1=4, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError):
            sample_state(lambda x1, x2: 0.0, grid)

    def test_nonfinite_values_rejected(self):
        grid = GridSpec(n1=4, n2=4, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                sample_state(lambda x1, x2: 1.0 / (x1 - x1), grid)


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
        # error, so refinement must reduce it monotonically.
        exact = shannon_mi_gaussian(reference_params.rho)
        errors = [abs(shannon_mi_numeric(
            gauss_legendre_cell_joint(reference_params, n, span=8.0)) - exact)
            for n in (50, 100, 200, 400)]
        assert all(b < a for a, b in zip(errors, errors[1:]))

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

    def test_zero_marginal_cell_rejected(self):
        joint = np.array([[1e-320, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            shannon_mi_numeric(joint)

    def test_invalid_joint_rejected(self):
        with pytest.raises(DomainError):
            shannon_mi_numeric(np.array([[0.7, 0.2], [0.2, -0.1]]))


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

    def test_bad_header_reports_position(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("{n1: 2}\n1.0,2.0\n")
        with pytest.raises(StateFileError) as excinfo:
            read_state_file(path)
        assert excinfo.value.line == 1
        assert excinfo.value.column is not None

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
    ])
    def test_header_values_must_be_exact(self, tmp_path, fields, message):
        header = {"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0, "lo2": 0.0, "hi2": 1.0}
        header.update(fields)
        path = tmp_path / "state.csv"
        path.write_text(json.dumps(header) + "\n0.5,0.5\n0.5,0.5\n")
        with pytest.raises(StateFileError, match=message) as excinfo:
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


class TestDiscretizedState:
    def test_normalized_flag_enforced(self):
        grid = GridSpec(n1=2, n2=2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError):
            DiscretizedState(grid=grid, amplitudes=np.full((2, 2), 0.9),
                             norm_applied=True)

    def test_shape_must_match_grid(self):
        grid = GridSpec(n1=2, n2=3, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        with pytest.raises(DomainError):
            DiscretizedState(grid=grid, amplitudes=np.full((3, 2), 0.5),
                             norm_applied=False)

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_sum_to_one(self, n1, n2):
        grid = GridSpec(n1=n1, n2=n2, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
        state = sample_state(
            lambda x1, x2: np.sin(3 * x1) * np.cos(2 * x2) + 1.5, grid)
        assert abs(math.fsum(state.probabilities().ravel()) - 1.0) <= 1e-12
