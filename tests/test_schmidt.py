"""Tests for the SVD-based Schmidt decomposition and derived quantities."""

import math

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

    def test_sign_convention_anchors_largest_entry_positive(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            matrix = rng.standard_normal((rng.integers(2, 10), rng.integers(2, 10)))
            state = unit_square_state(matrix / np.linalg.norm(matrix))
            spectrum = decompose(state)
            for k in range(spectrum.rank):
                column = spectrum.modes1[:, k]
                assert column[np.argmax(np.abs(column))] >= 0.0

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
        # The 16-column probe predicts the fallback before any block's QR.
        assert len(blocks) == 0

    def test_one_sum_of_squares_per_sketched_decompose(self, reference_params, monkeypatch):
        calls = []
        sum_of_squares = discretize._sum_of_squares

        def counting(a):
            calls.append(a.shape)
            return sum_of_squares(a)

        monkeypatch.setattr(discretize, "_sum_of_squares", counting)
        monkeypatch.setattr(schmidt_module, "_sum_of_squares", counting, raising=False)
        state = gaussian_state(reference_params, 400, span=8.0)
        # The raw norm before the rescale, and the unit-norm check after it.
        assert calls == [(400, 400)] * 2
        spectrum = decompose(state)
        spectrum.modes1
        assert calls == [(400, 400)] * 2
        assert spectrum.rank < 400
        # The sketch fed a squared norm summed again from the amplitudes.
        weights, factor, discarded = schmidt_module._sketch(state.amplitudes,
                                                            sum_of_squares(state.amplitudes))
        u, _, v = factor()
        assert spectrum.weights.tobytes() == weights.tobytes()
        assert spectrum.modes1.tobytes() == u.tobytes()
        assert spectrum.modes2.tobytes() == v.tobytes()
        assert spectrum.discarded_weight == discarded


class TestSketchModesAgainstTheOracle:
    """Sketch-route modes against the Hermite modes, within Wedin's bound.

    Let A_hat = U_hat S V_hat^T be the oracle on the grid: the analytic modes
    scaled by sqrt(dx), orthonormalized (which changes the first tens of
    them by rounding only), with s_k = sqrt(lambda_k).  Its singular vectors
    are those columns.  The sketch's modes are exact singular vectors of
    A_num = U S V^T, the spectrum's own synthesis, up to the orthonormality
    defects D of U and V.  With eps = ||A - A_hat||_F + ||A - A_num||_F
    + ||D_U||_F + ||D_V||_F, every numerical singular value lies within eps
    of the oracle's (Weyl), so mode k is separated from the others by at
    least delta_k = s_k - s_{k+1} - eps, where s_k - s_{k+1} =
    lambda_k (1 - q) / (s_k + s_{k+1}).  Wedin's sin theta theorem then
    puts each sign-aligned mode within 2 eps / delta_k of the oracle's
    singular vector, and that within the orthonormalization's change of
    the analytic mode.
    """

    @pytest.mark.parametrize("rho, rank", [(0.9, 64), (-0.95, 64), (0.97, 128)])
    def test_modes_lie_within_the_wedin_bound(self, rho, rank):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
        state = gaussian_state(params, 1000, span=10.0)
        spectrum = decompose(state)
        assert spectrum.rank == rank and 0.0 < spectrum.discarded_weight <= 1e-14
        grid = state.grid
        spec = GeometricSpectrum.from_K(params.schmidt_number)
        # Past this many modes the oracle's left-out weight is below 1e-40.
        count = math.ceil(math.log(1e-40) / math.log(spec.q))
        singular = np.sqrt(spec.lambda0 * spec.q ** np.arange(count + 1))
        pairs = [analytic_mode_pair(params, k, grid.midpoints1, grid.midpoints2)
                 for k in range(count)]
        sampled = [np.column_stack([pair[axis] for pair in pairs]) * math.sqrt(dx)
                   for axis, dx in ((0, grid.dx1), (1, grid.dx2))]
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
        assert checked >= 40


class TestRouteProbe:
    """Before the first block, 16 sketch columns predict the column count;
    past the cap by more than one block the Gram route starts at once."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        return calls

    def test_probe_sends_a_highk_state_to_the_gram_route(self, qr_calls):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        state = gaussian_state(params, 1000, span=10.0)
        assert schmidt_module._sketch(state.amplitudes, state._squared_norm) is None
        spectrum = decompose(state)
        assert spectrum.rank == 1000 and spectrum.discarded_weight == 0.0
        assert qr_calls == []

    @pytest.mark.parametrize("rho", [0.88, 0.9, -0.92])
    def test_lowk_state_keeps_the_single_block_bytes(self, rho, qr_calls):
        # The probe's 16 columns are the first 16 of the block's test matrix;
        # the block, its two shifted and two plain CholeskyQR passes and the
        # Gram eigenvalues are those of one 64-column block.
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=rho)
        state = gaussian_state(params, 1000, span=8.0)
        a = state.amplitudes
        spectrum = decompose(state)
        assert qr_calls == []
        y = a @ schmidt_module._test_matrix(1000, 0)
        for shifted in (True, True, False, False):
            y = cholesky_qr_pass(y, shifted)
        b = y.T @ a
        weights = np.maximum(np.linalg.eigvalsh(b @ b.T)[::-1], 0.0)
        u, _, v = schmidt_module._lifted(y, b)
        assert spectrum.rank == 64 and 0.0 < spectrum.discarded_weight <= 1e-14
        assert spectrum.weights.tobytes() == weights.tobytes()
        assert spectrum.modes1.tobytes() == u.tobytes()
        assert spectrum.modes2.tobytes() == v.tobytes()

    @pytest.mark.parametrize("rho", [0.95, -0.96])
    def test_one_block_margin_keeps_the_sketch_route(self, rho):
        # At n = 256 the cap is one block.  The probe captures less than the
        # top 16 modes and predicts more than 64 columns, but not more than
        # 128; one block then certifies the state.
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=rho)
        state = gaussian_state(params, 256, span=8.0)
        a, total = state.amplitudes, state._squared_norm
        probe = a @ schmidt_module._test_matrix(256, 0)[:, :16]
        assert schmidt_module._probe_gives_up(a, probe, total, 0)
        assert not schmidt_module._probe_gives_up(a, probe, total, 64)
        spectrum = decompose(state)
        assert spectrum.rank == 64 and 0.0 < spectrum.discarded_weight <= 1e-14

    def test_rank_deficient_probe_leaves_the_route_to_the_blocks(self, qr_calls):
        # A rank-8 state: the probe's 16 x 16 Gram matrix is singular.
        state = unit_square_state(np.eye(300)[:, :8] @ np.eye(8, 300) / math.sqrt(8.0))
        probe = state.amplitudes @ schmidt_module._test_matrix(300, 0)[:, :16]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(probe.T @ probe)
        spectrum = decompose(state)
        assert qr_calls[0] == (300, 64)
        assert spectrum.rank == 64 and spectrum.discarded_weight <= 1e-14
        np.testing.assert_allclose(spectrum.weights[:8], 0.125, atol=1e-14)

    def test_only_a_rank_deficient_block_takes_householder_qr(self, qr_calls):
        # A lowk block's Cholesky factors all exist; a rank-8 block's
        # unshifted Gram matrix is singular, so that block falls back to QR.
        params = GaussianParams(m1=0.3, m2=-0.2, sigma1=1.7, sigma2=0.8, rho=0.9)
        assert decompose(gaussian_state(params, 1000, span=8.0)).rank == 64
        assert qr_calls == []
        decompose(unit_square_state(np.eye(300)[:, :8] @ np.eye(8, 300) / math.sqrt(8.0)))
        assert qr_calls == [(300, 64)]


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


def window_of(state):
    return schmidt_module._window(state.amplitudes, state._squared_norm)[:2]


def removed_mass(a, window):
    """Squared norm of the cells of `a` outside `window`, summed directly."""
    outside = np.ones(a.shape, dtype=bool)
    outside[window] = False
    return math.fsum(a[outside] ** 2)


class TestGramWindow:
    """The Gram route takes its eigenvalues from the window left after cutting
    edge rows and columns that hold at most eps of the squared norm."""

    EPS = float(np.finfo(float).eps)

    @pytest.fixture
    def eigvalsh_shapes(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return shapes

    @pytest.fixture(scope="class")
    def gaussian(self):
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        state = gaussian_state(params, 1000, span=10.0)
        dense = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
        return state, decompose(state), dense

    def test_full_support_window_is_the_whole_matrix(self):
        noise = np.random.default_rng(29).standard_normal((300, 300))
        state = unit_square_state(noise / np.linalg.norm(noise))
        a = state.amplitudes
        assert window_of(state) == (slice(0, 300), slice(0, 300))
        spectrum = decompose(state)
        expected = np.maximum(np.linalg.eigvalsh(a.T @ a)[::-1], 0.0)
        assert spectrum.weights.tobytes() == expected.tobytes()

    def test_gram_is_summed_over_the_nonzero_bands(self, gaussian, monkeypatch):
        state, _, dense = gaussian
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
        rows, cols, bands = seen["window"]
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
        expected = np.zeros((m2, m2))
        for band_rows, band_cols in bands:
            part = w[band_rows, band_cols]
            expected[band_cols, band_cols] += part.T @ part
        assert seen["gram"].tobytes() == expected.tobytes()
        assert float(np.max(np.abs(seen["gram"] - w.T @ w))) <= 1e-15

    def test_wide_window_sums_column_bands(self, gaussian):
        # The fixture's window is 830 x 829, so its transpose's is wide:
        # W W^T is summed over column slices whose rows cover their squares.
        state, _, dense = gaussian
        a = np.ascontiguousarray(state.amplitudes.T)
        total = discretize._sum_of_squares(a)
        rows, cols, bands = schmidt_module._window(a, total)
        w = a[rows, cols]
        assert w.shape[1] > w.shape[0]
        column_bands = schmidt_module._column_bands(bands, w.shape[1])
        covered = np.zeros(w.shape, dtype=bool)
        for band_cols, band_rows in column_bands:
            assert not np.any(covered[:, band_cols])
            covered[band_rows, band_cols] = True
        assert not np.any(w[~covered] ** 2 > 0.0)
        assert np.count_nonzero(covered) < 0.5 * w.size
        weights = schmidt_module._gram_weights(a, total)
        assert float(np.max(np.abs(weights - dense))) <= 1e-14

    def test_gaussian_window_drops_at_most_eps(self, gaussian):
        state, spectrum, dense = gaussian
        a = state.amplitudes
        rows, cols = window_of(state)
        assert rows.stop - rows.start < 1000 and cols.stop - cols.start < 1000
        assert removed_mass(a, (rows, cols)) <= self.EPS
        kept = min(rows.stop - rows.start, cols.stop - cols.start)
        assert np.all(spectrum.weights[kept:] == 0.0)
        assert spectrum.rank == 1000 and spectrum.discarded_weight == 0.0
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14

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
        assert removed_mass(a, (rows, cols)) <= self.EPS
        spectrum = decompose(state)
        assert spectrum.rank == 300 and spectrum.discarded_weight == 0.0
        kept = min(rows.stop, cols.stop)
        assert eigvalsh_shapes == [(kept, kept)]
        assert np.all(spectrum.weights[kept:] == 0.0)
        dense = np.linalg.svd(a, compute_uv=False) ** 2
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14

    def test_rectangular_window_uses_its_smaller_gram(self, eigvalsh_shapes):
        # A box of 10 sigma on each side of the mean, on 256 x 300 cells.
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9995)
        grid = GridSpec(n1=256, n2=300, lo1=-19.0, hi1=21.0, lo2=-11.0, hi2=9.0)
        state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
        a = state.amplitudes
        rows, cols = window_of(state)
        m1, m2 = rows.stop - rows.start, cols.stop - cols.start
        assert m1 < 256 and m2 < 300
        assert removed_mass(a, (rows, cols)) <= self.EPS
        spectrum = decompose(state)
        assert spectrum.rank == 256 and spectrum.discarded_weight == 0.0
        assert eigvalsh_shapes == [(min(m1, m2), min(m1, m2))]
        assert np.all(spectrum.weights[min(m1, m2):] == 0.0)
        dense = np.linalg.svd(a, compute_uv=False) ** 2
        assert float(np.max(np.abs(spectrum.weights - dense))) <= 1e-14


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
