"""Tests for the SVD-based Schmidt decomposition and derived quantities."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cvschmidt import (
    DiscretizedState,
    DomainError,
    GaussianParams,
    GeometricSpectrum,
    GridSpec,
    NumericalError,
    analytic_mode,
    analytic_weights,
    build_grid,
    closed_form_entropy,
    decompose,
    entanglement_entropy,
    reconstruct,
    rho_squared_from_K,
    sample_state,
    schmidt_number,
    schmidt_number_from_rho,
    wavefunction,
)
from cvschmidt import discretize
from cvschmidt import gaussian_model as gm
from cvschmidt import schmidt as schmidt_module
from oracles import analytic_mode_pair

REFERENCE_K = 2.29415733870562


def gaussian_state(params, n, span=6.0):
    grid = build_grid(params, n, span=span)
    return sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)


@pytest.fixture
def svd_calls(monkeypatch):
    """The shape and keyword arguments of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((a.shape, kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every np.linalg.eigvalsh argument."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def cholesky_qr_pass(y, shifted):
    """Y L^-T with L L^T = Y^T Y, plus 11 (m n + n (n + 1)) eps tr(Y^T Y) I when shifted."""
    gram = y.T @ y
    if shifted:
        m, n = y.shape
        gram[np.diag_indices(n)] += 11.0 * (m * n + n * (n + 1)) * np.finfo(float).eps * np.trace(gram)
    return y @ np.linalg.inv(np.linalg.cholesky(gram)).T


def unit_square_state(amplitudes):
    amplitudes = np.asarray(amplitudes, dtype=float)
    grid = GridSpec(n1=amplitudes.shape[0], n2=amplitudes.shape[1],
                    lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0)
    return DiscretizedState(grid=grid, amplitudes=amplitudes)


class TestDecompose:
    def test_rank_one_state(self):
        a = np.array([3.0, 4.0])
        b = np.array([1.0, 2.0, 2.0])
        matrix = np.outer(a, b)
        state = unit_square_state(matrix / np.linalg.norm(matrix))
        spectrum = decompose(state)
        assert spectrum.weights[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(spectrum.weights[1:] <= 1e-14)
        assert abs(schmidt_number(spectrum.weights) - 1.0) <= 1e-12

    def test_uniform_two_by_two(self):
        spectrum = decompose(unit_square_state(np.full((2, 2), 0.5)))
        np.testing.assert_allclose(spectrum.weights, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(spectrum.modes1[:, 0],
                                   [1.0 / math.sqrt(2.0)] * 2, atol=1e-14)
        np.testing.assert_allclose(spectrum.modes2[:, 0],
                                   [1.0 / math.sqrt(2.0)] * 2, atol=1e-14)

    def test_reference_weights_at_default_box(self, reference_params):
        spectrum = decompose(gaussian_state(reference_params, 100))
        theory = analytic_weights(reference_params.schmidt_number, 6)
        assert float(np.max(np.abs(spectrum.weights[:6] - theory))) <= 1e-6

    def test_weight_ratio_estimates_decay_factor(self, reference_params):
        spectrum = decompose(gaussian_state(reference_params, 100))
        q = GeometricSpectrum.from_K(reference_params.schmidt_number).q
        for k in range(4):
            ratio = spectrum.weights[k + 1] / spectrum.weights[k]
            assert abs(ratio - q) <= 1e-6

    def test_schmidt_number_matches_closed_form_for_random_correlations(self):
        rng = np.random.default_rng(2026)
        for rho in rng.uniform(0.0, 0.95, size=10):
            params = GaussianParams(rho=float(rho))
            spectrum = decompose(gaussian_state(params, 100))
            assert abs(schmidt_number(spectrum.weights)
                       - schmidt_number_from_rho(rho)) <= 1e-6

    def test_numeric_modes_match_analytic_modes(self, reference_params):
        state = gaussian_state(reference_params, 100)
        spectrum = decompose(state)
        grid = state.grid
        K = reference_params.schmidt_number
        for k in range(4):
            for modes, mid, dx, m, sigma in (
                (spectrum.modes1, grid.midpoints1, grid.dx1,
                 reference_params.m1, reference_params.sigma1),
                (spectrum.modes2, grid.midpoints2, grid.dx2,
                 reference_params.m2, reference_params.sigma2),
            ):
                expected = analytic_mode(k, m, sigma, K, mid) * math.sqrt(dx)
                column = modes[:, k]
                if float(np.dot(column, expected)) < 0.0:
                    column = -column
                assert float(np.max(np.abs(column - expected))) <= 1e-4

    def test_sign_convention_anchors_first_half_peak_entry_positive(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            matrix = rng.standard_normal((rng.integers(2, 10), rng.integers(2, 10)))
            state = unit_square_state(matrix / np.linalg.norm(matrix))
            spectrum = decompose(state)
            for k in range(spectrum.rank):
                column = spectrum.modes1[:, k]
                magnitude = np.abs(column)
                anchor = np.flatnonzero(magnitude >= 0.5 * magnitude.max())[0]
                assert column[anchor] >= 0.0

    @pytest.mark.parametrize("n, rho, span", [(100, -0.95, 6.0), (100, 0.9, 6.0),
                                              (400, 0.999, 10.0), (1000, 0.9, 8.0),
                                              (1000, -0.95, 8.0)])
    def test_mode_signs_survive_a_rounding_perturbation(self, n, rho, span):
        # A near-antisymmetric mode has two peaks of almost equal magnitude;
        # a 1e-13 relative change of the state must not flip any mode pair
        # whose weight is at least 1e-6.
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=rho)
        state = gaussian_state(params, n, span=span)
        base = decompose(state)
        keep = int(np.sum(base.weights >= 1e-6))
        rng = np.random.default_rng(7)
        for _ in range(3):
            noise = 1e-13 * rng.standard_normal(state.amplitudes.shape)
            other = decompose(DiscretizedState(grid=state.grid,
                                               amplitudes=state.amplitudes * (1.0 + noise)))
            for mine, theirs in ((base.modes1, other.modes1), (base.modes2, other.modes2)):
                overlaps = np.sum(mine[:, :keep] * theirs[:, :keep], axis=0)
                assert np.all(overlaps > 0.5), np.flatnonzero(overlaps <= 0.5)

    def test_joint_sign_flip_leaves_reconstruction_unchanged(self, reference_params):
        state = gaussian_state(reference_params, 24)
        spectrum = decompose(state)
        flipped1 = spectrum.modes1.copy()
        flipped2 = spectrum.modes2.copy()
        flipped1[:, 1] *= -1.0
        flipped2[:, 1] *= -1.0
        original = (spectrum.modes1 * np.sqrt(spectrum.weights)) @ spectrum.modes2.T
        flipped = (flipped1 * np.sqrt(spectrum.weights)) @ flipped2.T
        np.testing.assert_array_equal(original, flipped)

    def test_transpose_swaps_mode_roles(self, reference_params):
        state = gaussian_state(reference_params, 32)
        grid = state.grid
        swapped_grid = GridSpec(n1=grid.n2, n2=grid.n1, lo1=grid.lo2, hi1=grid.hi2,
                                lo2=grid.lo1, hi2=grid.hi1)
        swapped = DiscretizedState(grid=swapped_grid, amplitudes=state.amplitudes.T)
        spectrum = decompose(state)
        spectrum_t = decompose(swapped)
        np.testing.assert_allclose(spectrum_t.weights, spectrum.weights, atol=1e-12)
        for k in range(8):
            if spectrum.weights[k] < 1e-8:
                break
            sign = 1.0 if float(np.dot(spectrum_t.modes1[:, k],
                                       spectrum.modes2[:, k])) >= 0.0 else -1.0
            np.testing.assert_allclose(spectrum_t.modes1[:, k],
                                       sign * spectrum.modes2[:, k], atol=1e-10)
            np.testing.assert_allclose(spectrum_t.modes2[:, k],
                                       sign * spectrum.modes1[:, k], atol=1e-10)

    def test_svd_failure_is_reported_as_numerical_error(self, monkeypatch, reference_params):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        noise = np.random.default_rng(5).standard_normal((300, 300))
        cases = [
            # Dense SVD of a small grid.
            (unit_square_state(np.full((2, 2), 0.5)), ("svd",)),
            # The sketch basis: CholeskyQR and its Householder QR fallback.
            (gaussian_state(reference_params, 300), ("cholesky", "qr")),
            # The sketch weights, eigenvalues of the block's Gram matrix.
            (gaussian_state(reference_params, 300), ("eigvalsh",)),
            # Gram eigenvalues after the sketch gave up.
            (unit_square_state(noise / np.linalg.norm(noise)), ("eigvalsh",)),
        ]
        for state, names in cases:
            with monkeypatch.context() as patch:
                for name in names:
                    patch.setattr(np.linalg, name, failing)
                with pytest.raises(NumericalError):
                    decompose(state)
        # The SVDs that the Gram and sketch routes defer to the first mode
        # read; a failed read leaves the next one to try again.
        for state in (unit_square_state(noise / np.linalg.norm(noise)),
                      gaussian_state(reference_params, 300)):
            spectrum = decompose(state)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", failing)
                with pytest.raises(NumericalError):
                    spectrum.modes1
                with pytest.raises(NumericalError):
                    reconstruct(spectrum, rank=1)
            assert spectrum.modes1.shape == (300, spectrum.rank)


CERTIFIED_CASES = [(n, rho) for n in (300, 1000) for rho in (0.9, 0.998, 0.9995)]
CERTIFIED_CASES += [(1000, 0.97), (1000, 0.99)]
# Cases whose tail decays fast enough for the randomized factorization
# (n = 1000 at rho 0.97 and 0.99 takes two blocks); the others need more
# than min(n1, n2) // 4 columns and take the Gram eigenvalues, with the
# modes deferred to a dense SVD.
SKETCHED = {(300, 0.9), (1000, 0.9), (1000, 0.97), (1000, 0.99)}


@pytest.fixture(scope="module", params=CERTIFIED_CASES, ids=lambda c: f"n{c[0]}-rho{c[1]}")
def certified(request):
    n, rho = request.param
    params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
    state = gaussian_state(params, n, span=10.0)
    dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
    return request.param, state, decompose(state), dense


class TestCertificate:
    def test_path_and_discarded_weight(self, certified, monkeypatch):
        case, state, spectrum, _ = certified
        n = case[0]
        if case in SKETCHED:
            assert spectrum.rank < n
            assert 0.0 <= spectrum.discarded_weight <= 1e-14
        else:
            assert spectrum.rank == n
            assert spectrum.discarded_weight == 0.0
            # The Gram route computes the weights without any SVD.
            monkeypatch.setattr(np.linalg, "svd", None)
            assert decompose(state).weights.tobytes() == spectrum.weights.tobytes()

    def test_kept_weights_match_dense_svd(self, certified):
        _, _, spectrum, dense = certified
        gap = np.abs(spectrum.weights - dense[:spectrum.rank])
        assert float(np.max(gap)) <= spectrum.discarded_weight + 1e-14

    def test_modes_are_orthonormal(self, certified):
        _, _, spectrum, _ = certified
        eye = np.eye(spectrum.rank)
        for modes in (spectrum.modes1, spectrum.modes2):
            assert float(np.max(np.abs(modes.T @ modes - eye))) <= 1e-10

    def test_reconstruction_residual_is_the_discarded_weight(self, certified):
        _, state, spectrum, _ = certified
        rebuilt = reconstruct(spectrum, rank=spectrum.rank)
        residual = float(np.sum((rebuilt - state.amplitudes) ** 2))
        assert abs(residual - spectrum.discarded_weight) <= 1e-14

    def test_repeated_calls_are_bit_identical(self, certified):
        _, state, spectrum, _ = certified
        again = decompose(state)
        assert again.discarded_weight == spectrum.discarded_weight
        for a, b in ((again.weights, spectrum.weights), (again.modes1, spectrum.modes1),
                     (again.modes2, spectrum.modes2)):
            assert a.tobytes() == b.tobytes()

    def test_sketch_peak_memory_at_n1000(self, reference_params):
        state = gaussian_state(reference_params, 1000, span=8.0)
        tracemalloc.start()
        try:
            spectrum = decompose(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.rank < 1000 and 0.0 < spectrum.discarded_weight <= 1e-14
        # The basis, the block Q^T A and the test matrix, ~0.29 times the
        # state; the certificate's grid-sized residual Q B - A peaked at ~1.26.
        assert peak <= 0.4 * state.amplitudes.nbytes

    @pytest.mark.parametrize("offset", [5e-13, -5e-13])
    def test_leftover_starts_from_the_states_own_norm(self, reference_params, offset):
        # A squared norm of 1 - 5e-13 passes the state's 1e-12 check; a
        # leftover tracked from 1.0 would stall near 5e-13 and give up.
        state = gaussian_state(reference_params, 400, span=8.0)
        shifted = DiscretizedState(grid=state.grid,
                                   amplitudes=state.amplitudes * math.sqrt(1.0 + offset))
        spectrum = decompose(shifted)
        assert spectrum.rank == 64
        assert 0.0 < spectrum.discarded_weight <= 1e-14

    def test_full_rank_state_falls_back_after_one_block(self, monkeypatch):
        noise = np.random.default_rng(17).standard_normal((300, 300))
        blocks = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            blocks.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        spectrum = decompose(unit_square_state(noise / np.linalg.norm(noise)))
        assert spectrum.rank == 300
        assert spectrum.discarded_weight == 0.0
        # The first 16 columns predict the fallback; no step takes QR.
        assert len(blocks) == 0

    def test_one_sum_of_squares_per_sketched_decompose(self, reference_params, monkeypatch):
        calls = []
        sum_of_squares = discretize._sum_of_squares

        def counting(a, *args):
            calls.append(a.shape)
            return sum_of_squares(a, *args)

        monkeypatch.setattr(discretize, "_sum_of_squares", counting)
        monkeypatch.setattr(schmidt_module, "_sum_of_squares", counting, raising=False)
        state = gaussian_state(reference_params, 400, span=8.0)
        # The raw norm before the rescale; the walk that rescales sums the
        # squares the state checks, with the bits of a walk of their own.
        assert calls == [(400, 400)]
        assert state._squared_norm == sum_of_squares(state.amplitudes)
        spectrum = decompose(state)
        spectrum.modes1
        assert calls == [(400, 400)]
        assert spectrum.rank < 400
        # The sketch fed a squared norm summed again from the amplitudes.
        weights, factor, discarded = schmidt_module._sketch(state.amplitudes,
                                                            sum_of_squares(state.amplitudes))
        u, _, v = factor()
        assert spectrum.weights.tobytes() == weights.tobytes()
        assert spectrum.modes1.tobytes() == u.tobytes()
        assert spectrum.modes2.tobytes() == v.tobytes()
        assert spectrum.discarded_weight == discarded


class TestModesAgainstTheOracle:
    """Modes of every route against the Hermite modes, within Wedin's bound.

    Let A_hat = U_hat S V_hat^T be the oracle on the grid: the first `count`
    analytic modes scaled by sqrt(dx), orthonormalized (which changes the
    first tens of them by rounding only), with s_k = sqrt(lambda_k).  Its
    singular vectors are those columns.  The numerical modes are exact
    singular vectors of A_num = U S V^T, the spectrum's own synthesis, up
    to the orthonormality defects D of U and V.  With eps = ||A - A_hat||_F
    + ||A - A_num||_F + ||D_U||_F + ||D_V||_F, every numerical singular
    value lies within eps of the oracle's (Weyl), so mode k is separated
    from the others by at least delta_k = s_k - s_{k+1} - eps, where
    s_k - s_{k+1} = lambda_k (1 - q) / (s_k + s_{k+1}).  Wedin's sin theta
    theorem then puts each sign-aligned mode within 2 eps / delta_k of the
    oracle's singular vector, and that within the orthonormalization's
    change of the analytic mode.  The modes of the oracle left out past
    `count` (at most one per grid cell) count in ||A - A_hat||_F.
    """

    @pytest.mark.parametrize("n, span, rho, rank, discarded, least_checked", [
        # Dense route: grids below 256 cells per axis.
        (100, 6.0, 0.9, 100, 0.0, 15),
        (100, 6.0, -0.95, 100, 0.0, 15),
        # Sketch route: one or two 64-column blocks.
        (1000, 10.0, 0.9, 64, 1e-14, 40),
        (1000, 10.0, -0.95, 64, 1e-14, 40),
        (1000, 10.0, 0.97, 128, 1e-14, 40),
        # Gram route: the modes come from the dense SVD of the whole state.
        (1000, 10.0, 0.999, 1000, 0.0, 400),
        (1000, 10.0, -0.9995, 1000, 0.0, 400),
    ])
    def test_modes_lie_within_the_wedin_bound(self, n, span, rho, rank, discarded,
                                              least_checked):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
        state = gaussian_state(params, n, span=span)
        spectrum = decompose(state)
        assert spectrum.rank == rank
        if discarded:
            assert 0.0 < spectrum.discarded_weight <= discarded
        else:
            assert spectrum.discarded_weight == 0.0
        grid = state.grid
        spec = GeometricSpectrum.from_K(params.schmidt_number)
        # Past this many modes the oracle's left-out weight is below 1e-40.
        count = min(n, math.ceil(math.log(1e-40) / math.log(spec.q)))
        singular = np.sqrt(spec.lambda0 * spec.q ** np.arange(count + 1))
        # One recurrence walk per axis; item k is analytic_mode_pair's pair.
        sampled = [np.column_stack(list(itertools.islice(gm.analytic_modes(params, axis, x),
                                                         count))) * math.sqrt(dx)
                   for axis, x, dx in ((1, grid.midpoints1, grid.dx1),
                                       (2, grid.midpoints2, grid.dx2))]
        exact = []
        for modes in sampled:
            q, r = np.linalg.qr(modes)
            exact.append(q * np.sign(np.diag(r)))
        oracle = (exact[0] * singular[:count]) @ exact[1].T
        numeric = (spectrum.modes1, spectrum.modes2)
        eps = (np.linalg.norm(state.amplitudes - oracle)
               + np.linalg.norm(state.amplitudes - reconstruct(spectrum, rank))
               + sum(np.linalg.norm(m.T @ m - np.eye(rank)) for m in numeric))
        checked = 0
        for k in range(rank):
            gap = (singular[k] ** 2 * (1.0 - spec.q) / (singular[k] + singular[k + 1])
                   - eps)
            shift = max(float(np.max(np.abs(e[:, k] - m[:, k])))
                        for e, m in zip(exact, sampled))
            bound = 2.0 * eps / gap + shift if gap > 0.0 else math.inf
            if bound >= 1.0:
                break
            for modes, reference in zip(numeric, sampled):
                column = modes[:, k]
                if float(np.dot(column, reference[:, k])) < 0.0:
                    column = -column
                assert float(np.max(np.abs(column - reference[:, k]))) <= bound
            checked += 1
        assert checked >= least_checked


class TestRouteProbe:
    """The first block is taken in two steps: its first 16 test columns,
    whose decay may start the Gram route at once, then the other 48."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        return calls

    @staticmethod
    def probe_leftover(state):
        """The weight left outside the span of the first 16 sketch columns."""
        a = state.amplitudes
        y = a @ schmidt_module._test_matrix(a.shape[1], 0, 16)
        q = schmidt_module._orthonormal(y, schmidt_module._SHIFTS, np.empty((a.shape[0], 0)))
        return state._squared_norm - float(np.sum(np.square(q.T @ a)))

    def test_probe_sends_a_highk_state_to_the_gram_route(self, qr_calls, monkeypatch,
                                                          eigvalsh_shapes):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        state = gaussian_state(params, 1000, span=10.0)
        steps = []
        hashed = []
        orthonormal = schmidt_module._orthonormal
        test_matrix = schmidt_module._test_matrix

        def spy(y, shifts, q):
            steps.append(y.shape)
            return orthonormal(y, shifts, q)

        def test_matrix_spy(rows, start, count):
            hashed.append((rows, start, count))
            return test_matrix(rows, start, count)

        monkeypatch.setattr(schmidt_module, "_orthonormal", spy)
        monkeypatch.setattr(schmidt_module, "_test_matrix", test_matrix_spy)
        ritz = schmidt_module._sketch(state.amplitudes, state._squared_norm)
        # The 16 columns alone: no QR, no step with the other 48 and none of
        # their test columns hashed.  The Ritz value handed on is the top
        # eigenvalue of the 16 x 16 Gram matrix of B = Q^T A.
        assert steps == [(1000, 16)] and hashed == [(1000, 0, 16)]
        assert eigvalsh_shapes == [(16, 16)]
        assert isinstance(ritz, float) and ritz > 0.0
        spectrum = decompose(state)
        assert spectrum.rank == 1000 and spectrum.discarded_weight == 0.0
        assert qr_calls == []
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        assert ritz <= dense[0]
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14

    def test_test_columns_keep_their_hash_in_any_step(self):
        # Each column hashes its position in its 64-column block, so the
        # probe's 16 columns and the other 48 are the block's own columns.
        rows = 300
        block = schmidt_module._test_matrix(rows, 64, 64)
        parts = (schmidt_module._test_matrix(rows, 64, 16), schmidt_module._test_matrix(rows, 80, 48))
        assert np.hstack(parts).tobytes() == block.tobytes()
        mask = (1 << 64) - 1

        def splitmix64(z):
            z = z * 0x9E3779B97F4A7C15 & mask
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
            return (z ^ z >> 31) >> 11

        for i, j in ((0, 0), (7, 3), (299, 63)):
            position = (1 * rows + i) * 64 + j
            assert block[i, j] == splitmix64(position) * 2.0 ** -52 - 1.0

    @pytest.mark.parametrize("rho", [0.88, 0.9, -0.92])
    def test_lowk_state_keeps_the_two_step_block_bytes(self, rho, qr_calls):
        # The block is the test matrix's first 16 columns, orthonormalized by
        # two shifted and two plain CholeskyQR passes, then its other 48,
        # projected against them like a later block.
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=rho)
        state = gaussian_state(params, 1000, span=8.0)
        a = state.amplitudes
        spectrum = decompose(state)
        assert qr_calls == []
        test = schmidt_module._test_matrix(1000, 0, 64)
        first = a @ test[:, :16]
        for shifted in (True, True, False, False):
            first = cholesky_qr_pass(first, shifted)
        y = a @ test[:, 16:]
        for _ in range(2):
            y -= first @ (first.T @ y)
        for shifted in (True, True, False, False):
            y = cholesky_qr_pass(y, shifted)
        y -= first @ (first.T @ y)
        y = cholesky_qr_pass(y, False)
        q = np.hstack((first, y))
        b = np.vstack((first.T @ a, y.T @ a))
        weights = np.maximum(np.linalg.eigvalsh(b @ b.T)[::-1], 0.0)
        u, _, v = schmidt_module._lifted(q, b)
        assert spectrum.rank == 64 and 0.0 < spectrum.discarded_weight <= 1e-14
        assert spectrum.weights.tobytes() == weights.tobytes()
        assert spectrum.modes1.tobytes() == u.tobytes()
        assert spectrum.modes2.tobytes() == v.tobytes()

    @pytest.mark.parametrize("rho", [0.95, -0.96])
    def test_one_block_margin_keeps_the_sketch_route(self, rho):
        # At n = 256 the cap is one block.  The 16 columns capture less than
        # the top 16 modes and predict more than 64 columns, but not more
        # than 128; one block then certifies the state.
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
        state = gaussian_state(params, 256, span=8.0)
        leftover = self.probe_leftover(state)
        decay = leftover / state._squared_norm
        steps = math.ceil(math.log(1e-14 / leftover) / math.log(decay))
        assert 64 < 16 + 16 * steps <= 128
        spectrum = decompose(state)
        assert spectrum.rank == 64 and 0.0 < spectrum.discarded_weight <= 1e-14

    def test_rank_deficient_state_takes_qr_per_step(self, qr_calls):
        # A rank-8 state: the 16 columns' Gram matrix is singular, and so is
        # that of the other 48 once they are projected.  Each step takes QR,
        # the second beside the 16 columns, so that the directions it fills
        # in are orthogonal to them.
        state = unit_square_state(np.eye(300)[:, :8] @ np.eye(8, 300) / math.sqrt(8.0))
        spectrum = decompose(state)
        assert qr_calls == [(300, 16), (300, 64)]
        assert spectrum.rank == 64 and spectrum.discarded_weight <= 1e-14
        np.testing.assert_allclose(spectrum.weights[:8], 0.125, atol=1e-14)
        for modes in (spectrum.modes1, spectrum.modes2):
            assert float(np.max(np.abs(modes.T @ modes - np.eye(64)))) <= 1e-14

    def test_certificate_waits_for_a_whole_block(self):
        # 16 columns leave less than 1e-14 of this state (the CLI's default
        # box); the sketch still completes the block, so the 64 modes that
        # `modes --n 400 --rho 0.5 --count 64` asks for are kept.
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.5)
        state = gaussian_state(params, 400)
        assert self.probe_leftover(state) <= 1e-14
        spectrum = decompose(state)
        assert spectrum.rank == 64 and 0.0 <= spectrum.discarded_weight <= 1e-14

    def test_only_a_rank_deficient_block_takes_householder_qr(self, qr_calls):
        # A lowk block's Cholesky factors all exist; a rank-8 state's are
        # singular in both steps of its block, which fall back to QR.
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=0.9)
        assert decompose(gaussian_state(params, 1000, span=8.0)).rank == 64
        assert qr_calls == []
        decompose(unit_square_state(np.eye(300)[:, :8] @ np.eye(8, 300) / math.sqrt(8.0)))
        assert qr_calls == [(300, 16), (300, 64)]


class TestDeferredSketchModes:
    """On the sketch route the weights cost the eigenvalues of the r x r Gram
    matrix B B^T, and the modes cost one SVD of the r x n2 block B, on first
    read."""

    @pytest.fixture(scope="class", params=[(400, 0.9), (1000, 0.97)],
                    ids=lambda c: f"n{c[0]}-rho{c[1]}")
    def state(self, request):
        n, rho = request.param
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
        return gaussian_state(params, n, span=8.0)

    def test_weights_cost_no_singular_vectors(self, state, svd_calls):
        spectrum = decompose(state)
        schmidt_number(spectrum.weights)
        entanglement_entropy(spectrum.weights)
        r = spectrum.rank
        assert r < state.grid.n1 and spectrum.discarded_weight <= 1e-14
        assert svd_calls == []

    def test_modes_cost_one_svd_of_the_block_on_first_read(self, state, svd_calls):
        spectrum = decompose(state)
        del svd_calls[:]
        spectrum.modes1
        r = spectrum.rank
        assert svd_calls == [((r, state.grid.n2), {"full_matrices": False})]
        spectrum.modes2
        reconstruct(spectrum, rank=r)
        assert len(svd_calls) == 1

    def test_modes_and_reconstruct_come_from_the_svd_of_the_block(self, state):
        spectrum = decompose(state)
        weights, factor, discarded = schmidt_module._sketch(state.amplitudes,
                                                            state._squared_norm)
        q, b = factor.args
        ub, s, vt = np.linalg.svd(b, full_matrices=False)
        u, s, v = schmidt_module._sign_fixed(q @ ub, s, vt)
        r = spectrum.rank
        assert spectrum.weights.tobytes() == weights.tobytes()
        assert spectrum.discarded_weight == discarded
        assert spectrum.modes1.tobytes() == u.tobytes()
        assert spectrum.modes2.tobytes() == v.tobytes()
        rebuilt = (u[:, :r] * s[:r]) @ v[:, :r].T
        assert reconstruct(spectrum, rank=r).tobytes() == rebuilt.tobytes()
        # The weights are the Gram eigenvalues of B; they match s**2 to rounding.
        values = np.maximum(np.linalg.eigvalsh(b @ b.T)[::-1], 0.0)
        assert weights.tobytes() == values.tobytes()
        assert float(np.max(np.abs(weights - s * s))) <= 1e-14


class TestDeferredModes:
    """On the Gram route the weights cost no SVD and the modes cost one, on first read."""

    @pytest.fixture(scope="class")
    def state(self):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        return gaussian_state(params, 300, span=10.0)

    def test_modes_cost_one_svd_on_first_read(self, state, svd_calls):
        spectrum = decompose(state)
        schmidt_number(spectrum.weights)
        entanglement_entropy(spectrum.weights)
        assert len(svd_calls) == 0
        spectrum.modes1
        assert len(svd_calls) == 1
        spectrum.modes2
        assert len(svd_calls) == 1

    def test_weights_match_the_svd(self, state):
        spectrum = decompose(state)
        assert spectrum.rank == 300 and spectrum.discarded_weight == 0.0
        w = spectrum.weights
        assert np.all(w >= 0.0) and np.all(np.diff(w) <= 0.0)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        assert float(np.max(np.abs(w - dense))) <= 1e-14

    def test_full_rank_reconstruction(self, state):
        rebuilt = reconstruct(decompose(state), rank=300)
        assert float(np.sum((rebuilt - state.amplitudes) ** 2)) <= 1e-14

    def test_reconstruct_pairs_modes_with_their_singular_values(self):
        # Rank 100 of 300: the Gram route reads the 200 zero weights as
        # rounding noise, whose square roots (~1e-9) do not belong to the
        # SVD's modes; the SVD's own singular values rebuild the state.
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((300, 100)))
        v, _ = np.linalg.qr(rng.standard_normal((300, 100)))
        matrix = (u * np.sqrt(np.r_[0.9, np.full(99, 0.1 / 99)])) @ v.T
        state = unit_square_state(matrix / np.linalg.norm(matrix))
        spectrum = decompose(state)
        assert spectrum.rank == 300 and float(np.sum(spectrum.weights[100:])) > 0.0
        rebuilt = reconstruct(spectrum, rank=300)
        assert float(np.sum((rebuilt - state.amplitudes) ** 2)) <= 1e-24

    @pytest.mark.parametrize("shape", [(256, 300), (300, 256)])
    def test_rectangular_states_use_the_smaller_gram(self, shape):
        noise = np.random.default_rng(23).standard_normal(shape)
        state = unit_square_state(noise / np.linalg.norm(noise))
        spectrum = decompose(state)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        assert spectrum.rank == 256 and spectrum.discarded_weight == 0.0
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14
        assert spectrum.modes1.shape == (shape[0], 256)
        assert spectrum.modes2.shape == (shape[1], 256)
        rebuilt = reconstruct(spectrum, rank=256)
        assert float(np.sum((rebuilt - state.amplitudes) ** 2)) <= 1e-14

    def test_repeated_calls_are_bit_identical(self, state):
        first, again = decompose(state), decompose(state)
        for a, b in ((first.weights, again.weights), (first.modes1, again.modes1),
                     (first.modes2, again.modes2)):
            assert a.tobytes() == b.tobytes()


def ritz_of(state):
    """The Ritz value that the sketch hands to the Gram route, or 0.0 for a
    state that it certifies."""
    found = schmidt_module._sketch(state.amplitudes, state._squared_norm)
    return found if isinstance(found, float) else 0.0


def window_of(state):
    return schmidt_module._window(state.amplitudes, state._squared_norm, ritz_of(state))[0][:2]


def cut_budget(state):
    """The most mass the Gram route's window may cut from the state."""
    eps = float(np.finfo(float).eps)
    return max(eps * state._squared_norm, 0.5 * min(state.amplitudes.shape) * eps * ritz_of(state))


def removed_mass(a, window):
    """Squared norm of the cells of `a` outside `window`, summed directly."""
    outside = np.ones(a.shape, dtype=bool)
    outside[window] = False
    return math.fsum(a[outside] ** 2)


class TestGramWindow:
    """The Gram route takes its eigenvalues from the window left after cutting
    edge rows and columns that hold at most
    max(eps * total, min(n1, n2) * eps * ritz / 2) of the squared norm, for
    the sketch's Ritz value ritz <= lambda_0."""

    EPS = float(np.finfo(float).eps)

    @pytest.fixture(scope="class")
    def gaussian(self):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        state = gaussian_state(params, 1000, span=10.0)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        return state, decompose(state), dense

    @pytest.fixture(scope="class")
    def off_centre(self):
        # The box of the `gaussian` fixture moved by one sigma on each axis:
        # not centrosymmetric, so the window's single Gram matrix is used.
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        grid = GridSpec(n1=1000, n2=1000, lo1=-17.0, hi1=23.0, lo2=-10.0, hi2=10.0)
        state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        return state, dense

    def test_full_support_window_is_the_whole_matrix(self):
        noise = np.random.default_rng(29).standard_normal((300, 300))
        state = unit_square_state(noise / np.linalg.norm(noise))
        a = state.amplitudes
        assert window_of(state) == (slice(0, 300), slice(0, 300))
        spectrum = decompose(state)
        expected = np.maximum(np.linalg.eigvalsh(a.T @ a)[::-1], 0.0)
        assert spectrum.weights.tobytes() == expected.tobytes()

    def test_gram_is_summed_over_the_nonzero_bands(self, off_centre, monkeypatch):
        state, dense = off_centre
        a = state.amplitudes
        seen = {}
        window = schmidt_module._window
        eigvalsh = np.linalg.eigvalsh

        def window_spy(*args):
            seen["window"] = window(*args)
            return seen["window"]

        def eigvalsh_spy(gram, *args, **kwargs):
            seen["gram"] = gram.copy()
            return eigvalsh(gram, *args, **kwargs)

        monkeypatch.setattr(schmidt_module, "_window", window_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        weights = decompose(state).weights
        assert float(np.max(np.abs(weights - dense))) <= 1e-14
        (rows, cols, bands), mirrored = seen["window"]
        assert not mirrored
        w = a[rows, cols]
        m1, m2 = w.shape
        assert m2 <= m1
        # The products cover every nonzero square and no all-zero column
        # range: each band's first and last columns hold a nonzero square.
        covered = np.zeros(w.shape, dtype=bool)
        multiplied = 0
        for band_rows, band_cols in bands:
            squares = w[band_rows, band_cols] ** 2
            assert np.any(squares[:, 0] > 0.0) and np.any(squares[:, -1] > 0.0)
            covered[band_rows, band_cols] = True
            multiplied += squares.size
        assert not np.any(w[~covered] ** 2 > 0.0)
        assert multiplied < 0.5 * m1 * m2
        # The Gram matrix is the sum of the bands' products, band by band.
        assert seen["gram"].tobytes() == single_gram(w, bands).tobytes()
        assert float(np.max(np.abs(seen["gram"] - w.T @ w))) <= 1e-15

    @pytest.mark.parametrize("shape, box", [
        ((600, 700), (-17.0, 23.0, -10.0, 10.0)), ((700, 600), (-17.0, 23.0, -10.0, 10.0)),
        ((256, 256), (-17.0, 23.0, -9.0, 9.0)), ((256, 256), None),
    ], ids=["600x700-off-centre", "700x600-off-centre", "256x256-off-centre-wide",
            "256x256-centred"])
    def test_gram_squares_the_tall_side(self, shape, box, eigvalsh_shapes):
        # Two boxes moved off the means like the `off_centre` one; a square
        # off-centre box whose axis-2 side spans 18 sigma against axis 1's
        # 20, so that its window is wider than tall; and a centred square
        # state, whose hull is square.  The Gram matrix is W^T W over the row
        # bands of the window of the state transposed to its tall side,
        # whichever side of that window is longer.
        centred = box is None
        if centred:
            state = centred_state(shape, 0.9995)
        else:
            params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
            grid = GridSpec(shape[0], shape[1], *box)
            state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
        a = oriented(state.amplitudes)
        assert a.shape == (max(shape), min(shape))
        (rows, cols, bands), mirrored = schmidt_module._window(a, state._squared_norm,
                                                               ritz_of(state))
        assert mirrored == centred
        w = a[rows, cols]
        m = w.shape[1]
        if shape == (256, 256):
            assert m == w.shape[0] if centred else m > w.shape[0]
        covered = np.zeros(w.shape, dtype=bool)
        for band_rows, band_cols in bands:
            covered[band_rows, band_cols] = True
        assert not np.any(w[~covered] ** 2 > 0.0)
        del eigvalsh_shapes[:]
        weights = decompose(state).weights
        # The sketch's 16 x 16 Ritz problem, then the Gram matrix of size m,
        # or its even and odd blocks.
        halves = [((m + 1) // 2,) * 2, (m // 2,) * 2] if centred else [(m, m)]
        assert eigvalsh_shapes == [(16, 16)] + halves
        assert weights.size == min(shape)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        assert float(np.max(np.abs(weights - dense))) <= 1e-14

    def test_gaussian_window_drops_at_most_its_budget(self, gaussian):
        state, spectrum, dense = gaussian
        a = state.amplitudes
        rows, cols = window_of(state)
        assert rows.stop - rows.start < 1000 and cols.stop - cols.start < 1000
        assert removed_mass(a, (rows, cols)) <= cut_budget(state)
        kept = min(rows.stop - rows.start, cols.stop - cols.start)
        assert np.all(spectrum.weights[kept:] == 0.0)
        assert spectrum.rank == 1000 and spectrum.discarded_weight == 0.0
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14

    def test_cut_stays_within_half_the_accuracy_at_the_ritz_value(self, gaussian):
        state, _, dense = gaussian
        a, total = state.amplitudes, state._squared_norm
        ritz = ritz_of(state)
        # The top eigenvalue of B B^T for the sketch's 16 columns: a Ritz
        # value, at most lambda_0.
        assert 0.5 * dense[0] < ritz <= dense[0]
        rows, cols = window_of(state)
        cut = removed_mass(a, (rows, cols))
        # The Ritz rule, not eps * total, sets this state's cut, and the
        # window is smaller than the one that eps * total alone leaves.
        assert self.EPS * total < cut <= 0.5 * 1000 * self.EPS * ritz
        (eps_rows, eps_cols, _), _ = schmidt_module._window(a, total, 0.0)
        assert eps_rows.stop - eps_rows.start > rows.stop - rows.start
        assert eps_cols.stop - eps_cols.start > cols.stop - cols.start
        # Interlacing: each weight of the window lies at most the cut below
        # the state's, up to the two SVDs' rounding.
        kept = np.linalg.svd(a[rows, cols], compute_uv=False) ** 2
        drops = dense[:kept.size] - kept
        assert float(np.min(drops)) >= -1e-15 and float(np.max(drops)) <= cut + 1e-15

    def test_mean_near_a_corner_cuts_the_far_edges(self, eigvalsh_shapes):
        # The box runs from 2 sigma below the mean to 18 above it on each
        # axis, so only the far rows and columns hold less than eps.
        params = GaussianParams(m1=0.0, m2=0.0, sigma1=1.0, sigma2=1.0, rho=0.9995)
        grid = GridSpec(n1=300, n2=300, lo1=-2.0, hi1=18.0, lo2=-2.0, hi2=18.0)
        state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
        a = state.amplitudes
        rows, cols = window_of(state)
        assert rows.start == 0 and cols.start == 0
        assert rows.stop < 300 and cols.stop < 300
        assert removed_mass(a, (rows, cols)) <= cut_budget(state)
        del eigvalsh_shapes[:]
        spectrum = decompose(state)
        assert spectrum.rank == 300 and spectrum.discarded_weight == 0.0
        kept = cols.stop
        # The sketch's 16 x 16 Ritz problem, then the Gram matrix of the
        # window's columns (the state is square, so it is not transposed).
        assert eigvalsh_shapes == [(16, 16), (kept, kept)]
        assert np.all(spectrum.weights[kept:] == 0.0)
        dense = np.linalg.svd(a, compute_uv=False) ** 2
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14

    def test_rectangular_window_uses_its_smaller_gram(self, eigvalsh_shapes):
        # A box of 10 sigma on each side of the mean, on 256 x 300 cells,
        # moved by one sigma on each axis so that it is not centrosymmetric.
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        grid = GridSpec(n1=256, n2=300, lo1=-17.0, hi1=23.0, lo2=-10.0, hi2=10.0)
        state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
        a = state.amplitudes
        rows, cols = window_of(state)
        m1, m2 = rows.stop - rows.start, cols.stop - cols.start
        assert m1 < 256 and m2 < 300
        assert removed_mass(a, (rows, cols)) <= cut_budget(state)
        del eigvalsh_shapes[:]
        spectrum = decompose(state)
        assert spectrum.rank == 256 and spectrum.discarded_weight == 0.0
        assert eigvalsh_shapes == [(16, 16), (min(m1, m2), min(m1, m2))]
        assert np.all(spectrum.weights[min(m1, m2):] == 0.0)
        dense = np.linalg.svd(a, compute_uv=False) ** 2
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14


    def test_gram_route_peak_memory_at_n1000(self, gaussian):
        state = gaussian[0]
        tracemalloc.start()
        try:
            spectrum = decompose(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.rank == 1000 and spectrum.discarded_weight == 0.0
        # Three quadrants of the hull's ~790 x 790 Gram matrix and one band's
        # product, ~0.55 times the state; the whole Gram matrix and one band's
        # product peaked at 0.74 times.
        assert peak <= 0.65 * state.amplitudes.nbytes


def oriented(a):
    """`a`, transposed if it is wide: the matrix whose window the Gram route
    squares, W^T W."""
    return a.T if a.shape[1] > a.shape[0] else a


def single_gram(w, bands):
    """W^T W, each band's product added to its square of columns in turn."""
    gram = np.zeros((w.shape[1], w.shape[1]))
    for band_rows, band_cols in bands:
        part = w[band_rows, band_cols]
        gram[band_cols, band_cols] += part.T @ part
    return gram


def single_gram_weights(a, window):
    """The Gram eigenvalues of the window of the oriented `a`, summed band
    by band, as the Gram route computed them before the parity split,
    padded with zeros."""
    rows, cols, bands = window
    gram = single_gram(a[rows, cols], bands)
    weights = np.zeros(min(a.shape))
    weights[:gram.shape[0]] = np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0)
    return weights


def centred_state(shape, rho, span=10.0):
    """A Gaussian state on a box of `span` sigmas about the means, which is
    centrosymmetric up to rounding."""
    params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
    box = build_grid(params, shape[0], span=span)
    grid = GridSpec(n1=shape[0], n2=shape[1], lo1=box.lo1, hi1=box.hi1, lo2=box.lo2, hi2=box.hi2)
    return sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)


def antisymmetric_bump(shape):
    """X - J X J for X = 1 on two patches that a centred Gaussian state of
    rho near +-1 leaves at 0: the rows of the middle against columns near
    the right edge, and the columns of the middle against rows near the
    bottom.  It keeps every row and column mass mirrored but couples the
    even and odd sectors of both Gram matrices."""
    n1, n2 = shape
    x = np.zeros(shape)
    x[n1 // 2 - 5:n1 // 2 + 5, n2 - 60:n2 - 40] = 1.0
    x[n1 - 60:n1 - 40, n2 // 2 - 5:n2 // 2 + 5] = 1.0
    return x - x[::-1, ::-1]


def even_odd_cross(gram):
    """||E||_F for the block E between the even and odd blocks of `gram`:
    P^T J P = diag(I, -I) for the even/odd basis P, so P^T (G - J G J) P
    holds 2 E and 2 E^T off its diagonal and ||G - J G J||_F = sqrt(8) ||E||_F."""
    return float(np.linalg.norm(gram - gram[::-1, ::-1])) / math.sqrt(8.0)


def even_odd_basis(m):
    """The orthogonal P whose first (m + 1) // 2 columns are the even
    vectors (e_k + e_(m-1-k)) / sqrt(2), with e_(m // 2) for an odd m, and
    whose others are the odd vectors (e_k - e_(m-1-k)) / sqrt(2)."""
    h = (m + 1) // 2
    basis = np.zeros((m, m))
    for k in range(m // 2):
        basis[[k, m - 1 - k], k] = math.sqrt(0.5)
        basis[[k, m - 1 - k], h + k] = (math.sqrt(0.5), -math.sqrt(0.5))
    if m % 2:
        basis[m // 2, m // 2] = 1.0
    return basis


def lambda_floor(gram, ritz):
    """The larger of `ritz` and the Rayleigh quotient of `gram`'s even block
    S at S's diagonal, both at most the largest eigenvalue of `gram`."""
    even = even_odd_basis(gram.shape[0])[:, :(gram.shape[0] + 1) // 2]
    block = even.T @ gram @ even
    u = block.diagonal()
    return max(ritz, float(u @ block @ u / (u @ u)))


def hull_of(state):
    """The centrosymmetric hull W of the oriented state, its bands, the
    sketch's Ritz value and the budget m * eps * f that the split's ||E||_F
    is held to, for f the `lambda_floor` of the hull's Gram matrix."""
    a = oriented(state.amplitudes)
    ritz = ritz_of(state)
    (rows, cols, bands), mirrored = schmidt_module._window(a, state._squared_norm, ritz)
    assert mirrored
    w = a[rows, cols]
    floor = lambda_floor(single_gram(w, bands), ritz)
    return w, bands, ritz, w.shape[1] * TestGramWindow.EPS * floor


def split_at(w, bands, ritz):
    """`_parity_split` of the hull's quadrants, with the Ritz value `ritz`."""
    return schmidt_module._parity_split(
        *schmidt_module._quadrants(w, bands, (w.shape[1] + 1) // 2), ritz)


def ritz_for(budget, m):
    """The Ritz value that sets the split's budget of an m x m Gram matrix
    to `budget`, when the even block's floor is below it."""
    return budget / (m * TestGramWindow.EPS)


def split_of(state):
    """The parity split of the centrosymmetric hull of the oriented state,
    held to no budget: the weights, ||E||_F from the hull's Gram matrix, the
    budget it is held to and the hull's Gram eigenvalues without the split."""
    w, bands, _, budget = hull_of(state)
    gram = single_gram(w, bands)
    return split_at(w, bands, math.inf), even_odd_cross(gram), budget, schmidt_module._eigenvalues(gram)


def corner_state():
    """The mean near a corner of the box (see TestGramWindow)."""
    params = GaussianParams(m1=0.0, m2=0.0, sigma1=1.0, sigma2=1.0, rho=0.9995)
    grid = GridSpec(n1=300, n2=300, lo1=-2.0, hi1=18.0, lo2=-2.0, hi2=18.0)
    return sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)


def noise_state():
    noise = np.random.default_rng(5).standard_normal((256, 300))
    return unit_square_state(noise / np.linalg.norm(noise))


def curved_state():
    """tests/test_paper_claims.py's parabola at s = 0.25: symmetric in x1
    only, so its row masses mirror and its column masses do not."""
    grid = GridSpec(n1=400, n2=400, lo1=-6.0, hi1=6.0, lo2=-6.0, hi2=14.0)
    return sample_state(lambda x1, x2: np.exp(-x1 ** 2 / 4 - (x2 - x1 ** 2) ** 2 / 0.25), grid)


class TestParitySplit:
    """A centrosymmetric state's Gram matrix splits into an even and an odd
    block; the block between them is dropped when its norm is certified
    inside the route's accuracy."""

    # The two eigensolvers' own rounding, beside the certified ||E||_F: it
    # added at most 4.9e-16 over the 62 split states of a 152-state sweep.
    ROUNDING = 1e-15

    @pytest.fixture(scope="class", params=[
        ((1000, 1000), 0.998), ((1000, 1000), -0.9995), ((999, 999), 0.999),
        ((999, 999), -0.998), ((256, 300), 0.998), ((256, 300), -0.998),
    ], ids=lambda c: f"{c[0][0]}x{c[0][1]}-rho{c[1]}")
    def centred(self, request):
        state = centred_state(*request.param)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        return state, dense

    def test_split_weights_lie_within_the_certified_bound(self, centred, eigvalsh_shapes):
        state, dense = centred
        a = oriented(state.amplitudes)
        spectrum = decompose(state)
        (rows, cols, _), mirrored = schmidt_module._window(a, state._squared_norm, ritz_of(state))
        assert mirrored
        m = cols.stop - cols.start
        # The sketch's 16 x 16 Ritz problem, then two half-size
        # eigenproblems, the even one holding a middle vector.
        assert eigvalsh_shapes[:3] == [(16, 16), ((m + 1) // 2, (m + 1) // 2), (m // 2, m // 2)]
        # The hull cuts each pair of opposite edges alike, within the budget.
        n1, n2 = a.shape
        assert rows.start == n1 - rows.stop and cols.start == n2 - cols.stop
        assert removed_mass(a, (rows, cols)) <= cut_budget(state)
        weights, cross, budget, single = split_of(state)
        assert 0.0 < cross <= budget
        assert spectrum.rank == min(n1, n2) and spectrum.discarded_weight == 0.0
        assert spectrum.weights[:m].tobytes() == weights.tobytes()
        assert np.all(spectrum.weights[m:] == 0.0)
        # Weyl: dropping E moves each eigenvalue by at most ||E||_2 <= ||E||_F.
        assert float(np.max(np.abs(weights - single))) <= cross + self.ROUNDING
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14

    def test_quadrants_hold_the_gram_bits(self, centred):
        state, _ = centred
        a = oriented(state.amplitudes)
        (rows, cols, bands), _ = schmidt_module._window(a, state._squared_norm, ritz_of(state))
        w = a[rows, cols]
        m = w.shape[1]
        gram, bottom, corner = schmidt_module._quadrants(w, bands, m)
        assert bottom.shape == (0, 0) and corner.shape == (m, 0)
        assert gram.tobytes() == single_gram(w, bands).tobytes()
        h = (m + 1) // 2
        top, bottom, corner = schmidt_module._quadrants(w, bands, h)
        assert top.tobytes() == gram[:h, :h].tobytes()
        assert bottom.tobytes() == gram[h:, h:].tobytes()
        assert corner.tobytes() == gram[:h, h:].tobytes()

    @pytest.mark.parametrize("m", [7, 8])
    def test_blocks_are_the_even_odd_change_of_basis(self, m):
        # A symmetric G far from J G J = G, so E is not rounding noise.
        x = np.random.default_rng(m).standard_normal((m, m))
        gram = x @ x.T
        h = (m + 1) // 2
        basis = even_odd_basis(m)
        np.testing.assert_allclose(basis.T @ basis, np.eye(m), rtol=0.0, atol=1e-15)
        rotated = basis.T @ gram @ basis
        cross = even_odd_cross(gram)
        assert cross == pytest.approx(float(np.linalg.norm(rotated[:h, h:])), rel=1e-12)

        def quadrants():
            return gram[:h, :h].copy(), gram[h:, h:].copy(), gram[:h, h:].copy()

        # Refused just below ||E||_F, kept just above it: the even block's
        # floor, at most ~4 m, sets a budget far below ||E||_F.
        assert m * TestGramWindow.EPS * lambda_floor(gram, 0.0) < 1e-3 * cross
        below, above = (ritz_for(cross * (1.0 + t), m) for t in (-1e-12, 1e-12))
        assert schmidt_module._parity_split(*quadrants(), below) is None
        weights = schmidt_module._parity_split(*quadrants(), above)
        blocks = np.r_[np.linalg.eigvalsh(rotated[:h, :h]), np.linalg.eigvalsh(rotated[h:, h:])]
        np.testing.assert_allclose(weights, np.sort(blocks)[::-1], rtol=1e-12)

    @pytest.mark.parametrize("shape", [(300, 300), (256, 300)])
    def test_antisymmetric_perturbation_above_the_budget_is_refused(self, shape,
                                                                    eigvalsh_shapes):
        a = centred_state(shape, 0.998).amplitudes
        for scale, refused in ((1e-16, False), (1e-14, True)):
            perturbed = a + scale * antisymmetric_bump(shape)
            state = unit_square_state(perturbed / np.linalg.norm(perturbed))
            b = oriented(state.amplitudes)
            weights, cross, budget, single = split_of(state)
            assert (cross > budget) == refused
            w, bands, _, _ = hull_of(state)
            m = w.shape[1]
            if refused:
                # Refused just below ||E||_F and kept just above it.
                below, above = (ritz_for(cross * (1.0 + t), m) for t in (-1e-12, 1e-12))
                assert split_at(w, bands, below) is None
                assert split_at(w, bands, above).tobytes() == weights.tobytes()
            else:
                # Kept on the even block's floor alone.
                assert split_at(w, bands, 0.0).tobytes() == weights.tobytes()
            window = schmidt_module._window(b, state._squared_norm, ritz_of(state))[0]
            expected = single_gram_weights(b, window)
            del eigvalsh_shapes[:]
            got = decompose(state).weights
            if refused:
                # No half-size eigensolve: the sketch's 16 x 16 Ritz problem,
                # then the hull's single Gram matrix.
                assert eigvalsh_shapes == [(16, 16), (m, m)]
                assert got.tobytes() == expected.tobytes()
            else:
                assert eigvalsh_shapes == [(16, 16), ((m + 1) // 2,) * 2, (m // 2,) * 2]
                assert got[:weights.size].tobytes() == weights.tobytes()
                assert float(np.max(np.abs(weights - single))) <= cross + self.ROUNDING
            dense = np.linalg.svd(b, compute_uv=False) ** 2
            assert float(np.max(np.abs(got - dense))) <= 1e-14

    def test_split_over_the_ritz_budget_is_kept_on_the_even_floor(self, eigvalsh_shapes):
        # At rho 0.9999 the sketch's 16-column Ritz value is ~0.72 lambda_0
        # and the even block's floor ~0.83 lambda_0; an antisymmetric
        # perturbation inside the state's support puts ||E||_F between the
        # two budgets, so the split is kept.
        a = centred_state((600, 600), 0.9999).amplitudes
        x = a * np.random.default_rng(7).standard_normal(a.shape)
        perturbed = a + 1.05e-14 * (x - x[::-1, ::-1])
        state = unit_square_state(perturbed / np.linalg.norm(perturbed))
        w, bands, ritz, _ = hull_of(state)
        m = w.shape[1]
        weights, cross, budget, single = split_of(state)
        assert m * TestGramWindow.EPS * ritz < cross <= budget
        assert lambda_floor(single_gram(w, bands), ritz) <= single[0]
        del eigvalsh_shapes[:]
        got = decompose(state).weights
        assert eigvalsh_shapes == [(16, 16), ((m + 1) // 2,) * 2, (m // 2,) * 2]
        assert got[:m].tobytes() == weights.tobytes()
        assert float(np.max(np.abs(weights - single))) <= cross + self.ROUNDING

    def test_zero_even_block_splits_without_a_warning(self):
        # G = [[A, -A J], [-J A, J A J]] is odd under J: its even block comes
        # out 0 to the last bit, so the even block's floor is 0, not 0 / 0.
        x = np.random.default_rng(3).standard_normal((4, 4))
        a = x @ x.T
        weights = schmidt_module._parity_split(a.copy(), a[::-1, ::-1].copy(), -a[:, ::-1], 0.0)
        gram = np.block([[a, -a[:, ::-1]], [-a[::-1, :], a[::-1, ::-1]]])
        assert np.all(weights[4:] == 0.0)
        np.testing.assert_allclose(weights, np.sort(np.linalg.eigvalsh(gram))[::-1],
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("make", [corner_state, noise_state, curved_state],
                             ids=["corner-mean", "noise", "curved"])
    def test_other_states_keep_the_single_gram_bytes(self, make):
        state = make()
        a, total, ritz = oriented(state.amplitudes), state._squared_norm, ritz_of(state)
        window, mirrored = schmidt_module._window(a, total, ritz)
        assert not mirrored
        expected = single_gram_weights(a, window)
        got = schmidt_module._gram_weights(state.amplitudes, total, ritz)
        assert got.tobytes() == expected.tobytes()
        if make is not curved_state:  # the curved state takes the sketch route
            assert decompose(state).weights.tobytes() == expected.tobytes()


class TestSchmidtNumber:
    def test_pure_spectrum(self):
        assert schmidt_number([1.0]) == 1.0

    @pytest.mark.parametrize("m", [2, 3, 7, 16])
    def test_uniform_spectrum(self, m):
        assert schmidt_number([1.0 / m] * m) == pytest.approx(m, rel=1e-12)

    def test_geometric_spectrum_reproduces_reference_value(self):
        weights = analytic_weights(schmidt_number_from_rho(0.9), 200)
        assert abs(schmidt_number(weights) - REFERENCE_K) <= 1e-12

    @pytest.mark.parametrize("weights", [
        [], [0.5, 0.4], [0.5, 0.5, 0.1], [1.1, -0.1], [0.0, 0.0], [math.nan, 1.0],
    ])
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(DomainError):
            schmidt_number(weights)

    def test_tiny_negative_rounding_is_clamped(self):
        assert schmidt_number([1.0, -5e-15]) == pytest.approx(1.0, abs=1e-12)


class TestEntanglementEntropy:
    def test_pure_spectrum_has_zero_entropy(self):
        assert entanglement_entropy([1.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_uniform_spectrum(self, m):
        assert entanglement_entropy([1.0 / m] * m) == pytest.approx(
            math.log(m), rel=1e-12)
        assert entanglement_entropy([1.0 / m] * m, 2) == pytest.approx(
            math.log2(m), rel=1e-12)

    def test_matches_closed_form_for_geometric_weights(self):
        K = schmidt_number_from_rho(0.9)
        weights = analytic_weights(K, 400)
        assert abs(entanglement_entropy(weights) - closed_form_entropy(K)) <= 1e-10

    def test_entropy_of_numeric_decomposition(self, reference_params):
        spectrum = decompose(gaussian_state(reference_params, 100))
        K = reference_params.schmidt_number
        assert abs(entanglement_entropy(spectrum.weights)
                   - closed_form_entropy(K)) <= 1e-6

    def test_strongly_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            entanglement_entropy([1.0, -1e-13])


class TestReconstruct:
    def test_full_rank_reconstruction_is_exact(self, reference_params):
        state = gaussian_state(reference_params, 48)
        spectrum = decompose(state)
        rebuilt = reconstruct(spectrum, rank=spectrum.rank)
        assert float(np.max(np.abs(rebuilt - state.amplitudes))) <= 1e-10

    def test_rank_one_input_needs_one_term(self):
        matrix = np.outer([1.0, 2.0], [2.0, 1.0, 2.0])
        state = unit_square_state(matrix / np.linalg.norm(matrix))
        rebuilt = reconstruct(decompose(state), rank=1)
        assert float(np.max(np.abs(rebuilt - state.amplitudes))) <= 1e-14

    def test_truncation_error_matches_discarded_weight(self, reference_params):
        state = gaussian_state(reference_params, 64)
        spectrum = decompose(state)
        for rank in (1, 2, 5, 10):
            rebuilt = reconstruct(spectrum, rank=rank)
            residual = float(np.linalg.norm(rebuilt - state.amplitudes))
            discarded = math.fsum(spectrum.weights[rank:].tolist())
            assert abs(residual ** 2 - discarded) <= 1e-10

    def test_residual_decreases_with_rank(self, reference_params):
        state = gaussian_state(reference_params, 40)
        spectrum = decompose(state)
        residuals = [float(np.linalg.norm(reconstruct(spectrum, rank=r)
                                          - state.amplitudes))
                     for r in range(1, 11)]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_partial_reconstruction_is_an_unnormalized_matrix(self, reference_params):
        spectrum = decompose(gaussian_state(reference_params, 16))
        rebuilt = reconstruct(spectrum, rank=1)
        assert isinstance(rebuilt, np.ndarray) and rebuilt.shape == (16, 16)
        assert float(np.linalg.norm(rebuilt)) == pytest.approx(
            math.sqrt(spectrum.weights[0]), rel=1e-12)

    def test_invalid_rank_rejected(self, reference_params):
        spectrum = decompose(gaussian_state(reference_params, 8))
        with pytest.raises(DomainError):
            reconstruct(spectrum, rank=0)
        with pytest.raises(DomainError):
            reconstruct(spectrum, rank=9)
