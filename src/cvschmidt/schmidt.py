"""Schmidt spectrum extraction for discretized bipartite states.

For a matrix, the Schmidt decomposition is the singular value
decomposition: weights are squared singular values and the paired mode
columns are the left/right singular vectors.

`decompose` takes one of three routes, chosen from the grid size and from
how fast the spectrum decays:

- Grids where one 64-column sketch block exceeds min(n1, n2) // 4 (fewer
  than 256 cells on an axis) run the dense SVD.
- Larger grids are first factored by a blocked randomized range finder
  (Halko, Martinsson & Tropp, SIAM Rev. 53:217, 2011; the fixed-precision
  blocked form of Yu, Gu & Li, SIAM J. Matrix Anal. Appl. 39:1339, 2018).
  It grows an orthonormal basis Q of axis-1 vectors, 64 columns of a fixed
  pseudo-random sketch at a time, and stops once the residual
  ||A - Q Q^T A||_F^2, computed directly, is at most 1e-14.  A block Y of
  m rows and n = 64 columns is orthonormalized by CholeskyQR: a pass
  replaces Y by Y L^-T with L L^T = Y^T Y, two BLAS-3 products around a
  64 x 64 Cholesky factor.  A sketch block has numerical rank ~35 of 64
  on a typical state, so Y^T Y is singular to rounding; the first two
  passes add 11 (m n + n (n + 1)) eps tr(Y^T Y) to its diagonal, which
  keeps it positive definite, and two plain passes follow (shifted
  CholeskyQR; Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa, SIAM J.
  Sci. Comput. 42:A477, 2020).  The basis is then orthonormal to ~5e-15,
  and at n = 1000 on 2 CPUs the four passes take 1-3 ms where Householder
  QR took 5-6 ms.  A block that is exactly rank-deficient, such as one of
  a rank-8 state, still makes a Cholesky factorization fail; that block
  alone takes Householder QR (`np.linalg.qr`).  Each block after the first
  is projected twice against Q, orthonormalized, then projected once more
  and given one more plain pass: orthonormalizing a rank-deficient block
  fills its missing directions with columns that need not be orthogonal
  to Q.  Until then the leftover is tracked as the state's own row-blocked
  squared norm minus the squares of each block of Q^T A.  The state has unit norm, so that
  residual is exactly the Schmidt weight the truncation drops; it is
  reported as `discarded_weight`.  The kept weights are the eigenvalues
  of the r x r Gram matrix B B^T of the small r x n2 block B = Q^T A, read
  as on the Gram route below (0.4 ms at r = 64, where the values-only SVD
  of B's R factor took 3 ms).  The modes are not computed until one is
  first read; that read runs the thin SVD of B, lifts its axis-1 vectors
  by Q and keeps the factors.  Their singular values, which `reconstruct`
  uses, differ from the square roots of the weights by rounding: over 142
  sketched states (n 256 to 1500, rho -0.95 to 0.9995, spans 8 and 10)
  the weights and the squared singular values differed by at most
  2.0e-15, and the weights and the dense SVD's by at most 1.7e-15.  By
  interlacing, in exact arithmetic every kept weight lies within
  `discarded_weight` below the dense one, far inside every tolerance
  downstream.
- When the leftover weight decays so slowly per block that more than
  min(n1, n2) // 4 columns would be needed, the sketch gives up and the
  weights are Gram eigenvalues, in non-increasing order with negative
  rounding dust set to 0.  Most such states are seen before the first
  block: a probe of its first 16 columns Y = A Omega takes the leftover
  total - ||L^-1 Y^T A||_F^2 with Y^T Y = L L^T (the Cholesky factor, so no
  QR), and when its decay per 16 columns predicts more than one block past
  the cap, the Gram route starts at once.  Otherwise the first block is
  the probe's columns beside the product with the other 48; with numpy
  2.4 on OpenBLAS 0.3.31 that gives the bits of one 64-column product, so
  the sketch's weights and modes are unchanged.  At n = 1000 on 2 CPUs the
  probe takes 2-3 ms where the discarded block took 11-16 ms.  Forming a Gram matrix squares the condition
  number, so each weight is accurate only to about
  min(n1, n2) * eps * lambda_0 absolute (Golub & Van Loan, Matrix
  Computations, section 8.6).  The Gram matrix is that of a window W of
  the state: one row-blocked pass sums the squares of each row and
  column, and leading and trailing rows and columns are cut, the smallest
  mass first, while the cut masses total at most eps times the state's
  squared norm.  W is a submatrix, so by Cauchy interlacing each weight
  drops by at most the cut mass, and the drops sum to it; a unit-norm
  state has lambda_0 >= 1 / min(n1, n2), so that is inside the accuracy
  above.  The eigenvalues of the smaller of W^T W and W W^T are padded
  with exact zeros to min(n1, n2), so the weights past the window are 0.
  That Gram matrix is summed over bands: the same row-blocked pass gives
  each block's span of columns with a nonzero square, and each block
  adds only the product over its span.  Leaving out the zero squares
  leaves out products with amplitudes below ~1.5e-162, which moves each
  Gram entry by at most max(n1, n2) * 1.5e-162.  A highly correlated
  state's blocks span 60-310 of the window's ~830 columns, and the
  product takes 3-4 ms instead of 9-11 ms; a window whose blocks all span
  every column is one product.  Against the dense SVD the gap measured
  at most 4e-16 (33 states, n = 400 and 1000, rho 0.99 to 0.9999, spans
  6 to 10), so weights below ~1e-16 are rounding noise.  As on the sketch route, the modes are not
  computed until one is first read; here that read runs the dense SVD of
  the whole state once and keeps its factors, whose singular values
  differ from the square roots of the weights by rounding.  Nothing is
  left out of the modes or of `reconstruct`, so `discarded_weight` is
  0.0.  Past min(n1, n2) // 4 sketch columns the Gram eigenvalues are the
  cheaper route: at n = 1000 on 2 CPUs `decompose` takes 51-65 ms for rho
  0.998 to 0.9995 at span 10, where the window is about 830 x 830 and
  `eigvalsh` alone takes 40-50 ms, against ~120 ms for 192 sketch columns
  and ~205 ms for 320.

Sign fixing: each weight's mode pair is flipped jointly so that the
axis-1 column's largest-magnitude entry is positive.  A joint flip leaves
the reconstruction and all weight-derived quantities unchanged; anchoring
on one side only is deliberate, since no convention can force both
columns positive-dominant for every real matrix.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial

import numpy as np

from .discretize import DiscretizedState, GridSpec, _row_blocks
from .errors import DomainError, NumericalError
from .util import log_divisor, validate_weights

# Randomized factorization: sketch columns per block, the certified
# discarded weight, and the share 1 / _CAP_DIVISOR of min(n1, n2) beyond
# which the sketch gives up (a grid whose share is below one block is not
# sketched at all).
_BLOCK = 64
_TAIL = 1e-14
_CAP_DIVISOR = 4
# Sketch columns of the probe that may send a grid to the Gram route
# before the first block is factored (see `_probe_gives_up`).
_PROBE = 16
# CholeskyQR passes of a sketch block, shifted or not (see `_orthonormal`):
# two shifted passes make a rank-deficient block well conditioned, and two
# plain ones make it orthonormal to rounding.
_SHIFTS = (True, True, False, False)
# Float64 machine epsilon: the CholeskyQR shift's unit and the Gram window's cut.
_EPS = float(np.finfo(float).eps)


class SchmidtSpectrum:
    """Sorted Schmidt weights with paired discrete modes, as built by `decompose`.

    Attributes
    ----------
    weights : ndarray, shape (r,)
        Non-increasing, nonnegative, summing to 1 for a normalized input.
    modes1 : ndarray, shape (n1, r)
        Column k samples the axis-1 mode of weight k at grid midpoints;
        columns are orthonormal in the discrete inner product.  Except on
        the dense route, the first read of `modes1`, `modes2` or
        `reconstruct` computes the modes and keeps them: the sketch route
        runs the SVD of its r x n2 block Q^T A, which it holds with Q, and
        the Gram route runs the dense SVD of the state's amplitude matrix.
        The Gram route holds that matrix by reference; it is read-only
        through the state, but a state built from a caller's array shares
        that array, so the caller must not write to it before a mode read.
    modes2 : ndarray, shape (n2, r)
        Likewise for axis 2.
    grid : GridSpec
        Grid the state was sampled on.
    discarded_weight : float
        Squared Frobenius norm of the state minus its rank-r synthesis,
        i.e. the Schmidt weight beyond the r kept ones: at most 1e-14 when
        the randomized factorization was used, 0.0 otherwise.
    """

    def __init__(self, weights, grid: GridSpec, discarded_weight: float = 0.0, *, factor):
        # `factor()` returns the sign-fixed (u, s, v) of the modes; it is
        # called when a mode is first read, and its result is kept.
        self.weights = weights
        self.grid = grid
        self.discarded_weight = discarded_weight
        self._factor = factor
        self._factors = None

    @property
    def modes1(self) -> np.ndarray:
        return self._factored()[0]

    @property
    def modes2(self) -> np.ndarray:
        return self._factored()[2]

    @property
    def rank(self) -> int:
        return int(self.weights.size)

    def _factored(self):
        """Sign-fixed (u, s, v): singular vectors and the singular values that go with them."""
        # Two threads reading first may both factor; both store the same bits.
        if self._factors is None:
            with _numerical_errors():
                self._factors = self._factor()
        return self._factors


def decompose(state: DiscretizedState) -> SchmidtSpectrum:
    """Schmidt decomposition of a discretized state.

    Returns squared singular values as weights and sign-fixed singular
    vector columns as modes.  The weights plus `discarded_weight` sum to 1
    within 1e-12; see the module docstring for the three routes, when
    weights are discarded and when the modes are deferred.
    """
    a = state.amplitudes
    total = state._squared_norm
    with _numerical_errors():
        if _BLOCK > min(a.shape) // _CAP_DIVISOR:
            factors = _dense(a)
            s = factors[1]
            return SchmidtSpectrum(s * s, state.grid, factor=lambda: factors)
        found = _sketch(a, total)
        if found is None:
            return SchmidtSpectrum(_gram_weights(a, total), state.grid,
                                   factor=partial(_dense, a))
    weights, factor, discarded = found
    return SchmidtSpectrum(weights, state.grid, discarded, factor=factor)


@contextmanager
def _numerical_errors():
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Schmidt factorization failed: {exc}") from exc


def _dense(a: np.ndarray):
    """Sign-fixed thin SVD factors (u, s, v) of `a`."""
    return _sign_fixed(*np.linalg.svd(a, full_matrices=False))


def _lifted(q: np.ndarray, b: np.ndarray):
    """Sign-fixed thin SVD factors (u, s, v) of Q B, for Q with orthonormal columns."""
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return _sign_fixed(q @ ub, s, vt)


def _sign_fixed(u: np.ndarray, s: np.ndarray, vt: np.ndarray):
    """(u, s, v) with each column pair flipped jointly; anchor on the axis-1 mode."""
    v = vt.T
    anchor = np.argmax(np.abs(u), axis=0)
    flip = u[anchor, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return u, s, v


def _gram_weights(a: np.ndarray, total: float) -> np.ndarray:
    """Squared singular values of `a`, non-increasing, from the smaller Gram
    matrix of its edge-trimmed window and padded with zeros to min(n1, n2).

    `total` is the squared norm of `a` that its state checked.  The Gram
    matrix is summed band by band (see `_window`).
    """
    rows, cols, bands = _window(a, total)
    window = a[rows, cols]
    m1, m2 = window.shape
    if m2 <= m1:
        gram = np.zeros((m2, m2))
        for band_rows, band_cols in bands:
            part = window[band_rows, band_cols]
            gram[band_cols, band_cols] += part.T @ part
    else:
        gram = np.zeros((m1, m1))
        for band_cols, band_rows in _column_bands(bands, m2):
            part = window[band_rows, band_cols]
            gram[band_rows, band_rows] += part @ part.T
    weights = np.zeros(min(a.shape))
    weights[:gram.shape[0]] = _eigenvalues(gram)
    return weights


def _column_bands(bands, width: int):
    """The column slices that partition a window of `width` columns, each
    with the rows of the row `bands` that span it, for W W^T = sum W_c W_c^T.

    Between consecutive span ends every row band either spans all of a
    column slice or none of it; the slice's rows run from the first band
    that spans it to the last.
    """
    ends = sorted({0, width}.union(*((c.start, c.stop) for _, c in bands)))
    column_bands = []
    for lo, hi in zip(ends, ends[1:]):
        spanning = [rows for rows, cols in bands if cols.start <= lo and hi <= cols.stop]
        if spanning:
            _add_band(column_bands, slice(lo, hi), slice(spanning[0].start, spanning[-1].stop))
    return column_bands


def _add_band(bands, along: slice, across: slice) -> None:
    """Append the band (along, across), or extend the last band over `along`
    when it has the same `across` and ends where `along` starts."""
    if bands and bands[-1][1] == across and bands[-1][0].stop == along.start:
        bands[-1] = (slice(bands[-1][0].start, along.stop), across)
    else:
        bands.append((along, across))


def _window(a: np.ndarray, total: float):
    """Row and column slices of `a` left once leading and trailing rows and
    columns are cut, smallest mass first, while the cut masses sum to at
    most eps * total; and the window's bands.

    The row and column masses come from one row-blocked pass, with no BLAS
    call, so the window is the same at any thread count.  The cut rows and
    columns share their corner cells, so the mass outside the window is at
    most the sum of the cut masses.  The cut never reaches the last row or
    column: they hold all but about eps of `total`.

    A band is a pair of row and column slices of the window: the window's
    rows of one row block, or of a run of consecutive blocks with the same
    span, and the span of columns where those blocks have a nonzero
    square.  Every nonzero square of the window lies in a band, so summing
    the bands' own W^T W (or, through `_column_bands`, W W^T) gives that of
    the window, except for products with an amplitude whose square
    underflows to 0 (below ~1.5e-162 in magnitude): each Gram entry moves
    by at most max(n1, n2) * 1.5e-162.  A window whose every block spans
    all of its columns is one band, and its Gram matrix one product.
    """
    n1, n2 = a.shape
    rows = np.empty(n1)
    block_cols = []
    spans = []
    for block, squares in _row_blocks(a):
        np.multiply(a[block], a[block], out=squares)
        np.sum(squares, axis=1, out=rows[block])
        block_cols.append(np.sum(squares, axis=0))
        nonzero = np.flatnonzero(block_cols[-1])
        if nonzero.size:
            spans.append((block, int(nonzero[0]), int(nonzero[-1]) + 1))
    cols = np.sum(block_cols, axis=0)
    # Edges in the order top, bottom, left, right, each read from the outside in.
    edges = (rows.tolist(), rows[::-1].tolist(), cols.tolist(), cols[::-1].tolist())
    cuts = [0, 0, 0, 0]
    heads = [masses[0] for masses in edges]
    budget = _EPS * total
    spent = 0.0
    while True:
        mass = min(heads)
        if spent + mass > budget:
            break
        edge = heads.index(mass)
        spent += mass
        cuts[edge] += 1
        heads[edge] = edges[edge][cuts[edge]]
    top, bottom, left, right = cuts[0], n1 - cuts[1], cuts[2], n2 - cuts[3]
    bands = []
    for block, lo, hi in spans:
        start, stop = max(block.start, top) - top, min(block.stop, bottom) - top
        lo, hi = max(lo, left) - left, min(hi, right) - left
        if start < stop and lo < hi:
            _add_band(bands, slice(start, stop), slice(lo, hi))
    return slice(top, bottom), slice(left, right), bands


def _test_matrix(rows: int, start: int) -> np.ndarray:
    """Columns start .. start + _BLOCK - 1 of a fixed pseudo-random test matrix.

    Entries are uniform in [-1, 1), each a splitmix64 hash of its position,
    so every call returns the same bits on every platform.  Any independent
    zero-mean entries serve the range finder, and the stopping test does not
    depend on them; numpy.random is avoided because importing it costs about
    6 MB of resident memory in processes that never draw from it.
    """
    z = np.arange(start * rows, (start + _BLOCK) * rows, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(float) * 2.0 ** -52 - 1.0).reshape(rows, _BLOCK)


def _sketch(a: np.ndarray, total: float):
    """Randomized factorization certified to leave out at most _TAIL, or None.

    `total` is the squared norm of `a` that its state checked.  Returns the
    kept weights, a function that returns the sign-fixed factors (u, s, v)
    of the modes, and the discarded weight.  Returns None, holding nothing,
    once the per-block decay of the leftover weight predicts that more than
    min(n1, n2) // _CAP_DIVISOR columns are needed, or when the probe of
    `_probe_gives_up` predicts more than one block beyond that.
    """
    n1, n2 = a.shape
    cap = min(n1, n2) // _CAP_DIVISOR
    test = _test_matrix(n2, 0)
    probe = a @ test[:, :_PROBE]
    if _probe_gives_up(a, probe, total, cap):
        return None
    y = np.hstack((probe, a @ test[:, _PROBE:]))
    del probe, test  # not held through the blocks
    q = np.empty((n1, 0))
    b = np.empty((0, n2))
    leftover = total
    while True:
        shifts = _SHIFTS
        if q.shape[1]:
            for _ in range(2):
                y -= q @ (q.T @ y)
            # Orthonormalizing a rank-deficient block fills its missing
            # directions with columns that need not be orthogonal to q; one
            # more projection and CholeskyQR pass keep the basis orthonormal.
            y = _orthonormal(y, shifts)
            y -= q @ (q.T @ y)
            shifts = (False,)
        y = _orthonormal(y, shifts)
        block = y.T @ a
        q = np.hstack((q, y))
        b = np.vstack((b, block))
        previous = leftover
        leftover -= float(np.sum(np.square(block)))
        if leftover <= _TAIL:
            # The tracked leftover cancels to rounding noise; certify directly.
            residual = q @ b
            residual -= a
            leftover = float(np.sum(np.square(residual, out=residual)))
            del residual
            if leftover <= _TAIL:
                break
        decay = leftover / previous
        if decay >= 1.0:
            return None
        blocks = math.ceil(math.log(_TAIL / leftover) / math.log(decay))
        if q.shape[1] + _BLOCK * blocks > cap:
            return None
        y = a @ _test_matrix(n2, q.shape[1])
    return _eigenvalues(b @ b.T), partial(_lifted, q, b), leftover


def _orthonormal(y: np.ndarray, shifts) -> np.ndarray:
    """Orthonormal columns spanning those of `y`: one CholeskyQR pass per
    entry of `shifts`, or, when a Cholesky factorization fails, the Q of
    `np.linalg.qr(y)`.

    A pass replaces Y by Y L^-T with L L^T = Y^T Y + s I; a shifted pass
    takes s = 11 (m n + n (n + 1)) eps tr(Y^T Y) for an m x n block, which
    keeps the Gram matrix positive definite however rank-deficient Y is
    (Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa, SIAM J. Sci.
    Comput. 42:A477, 2020).
    """
    basis = y
    try:
        for shifted in shifts:
            gram = basis.T @ basis
            if shifted:
                m, n = basis.shape
                gram[np.diag_indices(n)] += 11.0 * (m * n + n * (n + 1)) * _EPS * np.trace(gram)
            basis = basis @ np.linalg.inv(np.linalg.cholesky(gram)).T
    except np.linalg.LinAlgError:
        basis, _ = np.linalg.qr(y)
    return basis


def _eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric `gram`, non-increasing, with negative
    rounding dust set to 0."""
    return np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0)


def _probe_gives_up(a: np.ndarray, probe: np.ndarray, total: float, cap: int) -> bool:
    """Whether the first _PROBE sketch columns `probe` = A Omega predict more
    than cap + _BLOCK columns.

    The leftover weight of the probe's span is total - ||L^-1 Y^T A||_F^2,
    with Y^T Y = L L^T (CholeskyQR, without forming the basis), and its
    decay per _PROBE columns predicts the column count as the sketch's own
    rule does per block.  A probe captures less than the top _PROBE modes,
    so the prediction is pessimistic: without the margin of one block,
    states at n = 256 and 300 with rho near 0.95 that one block certifies
    would go to the Gram route.  A rank-deficient probe, whose Cholesky
    factorization fails, predicts nothing and leaves the decision to the
    blocks.
    """
    try:
        lower = np.linalg.cholesky(probe.T @ probe)
    except np.linalg.LinAlgError:
        return False
    captured = np.linalg.inv(lower) @ (probe.T @ a)
    leftover = total - float(np.sum(np.square(captured, out=captured)))
    decay = leftover / total
    if not (leftover > _TAIL and decay < 1.0):
        return False
    steps = math.ceil(math.log(_TAIL / leftover) / math.log(decay))
    return _PROBE * (1 + steps) > cap + _BLOCK


def schmidt_number(weights) -> float:
    """Effective mode count K = 1 / sum(lambda_k^2).

    1 for a single-mode spectrum, m for m equal weights, and between 1 and
    the number of nonzero weights in general.  Rounding can push the raw
    ratio below the mathematical floor of 1 by an ulp; that is clamped so
    downstream maps defined for K >= 1 always accept the result.
    """
    return _schmidt_number(validate_weights(weights))


def _schmidt_number(w: np.ndarray) -> float:
    # `w` has already passed validate_weights.
    return max(1.0, 1.0 / math.fsum(w * w))


def entanglement_entropy(weights, log_base=math.e) -> float:
    """Shannon entropy -sum(lambda_k log lambda_k) of the weights.

    Zero-weight terms contribute 0; negative float dust within tolerance is
    clamped before evaluation.
    """
    divisor = log_divisor(log_base)
    w = validate_weights(weights)
    positive = w[w > 0.0]
    entropy = -math.fsum(positive * np.log(positive))
    return max(entropy, 0.0) / divisor


def reconstruct(spectrum: SchmidtSpectrum, rank: int) -> np.ndarray:
    """Rank-truncated synthesis sum_{k<rank} s_k u_k x v_k as a matrix.

    s_k are the singular values of the factorization that gave the modes,
    so s_k**2 = lambda_k on the dense route.  On the sketch and Gram routes
    the weights are Gram eigenvalues (of the sketch block, or of a window)
    and differ by rounding: the square root of a ~1e-17 eigenvalue would
    not pair with its singular vectors.  The result is not renormalized: its Frobenius distance to the
    original amplitude matrix is the truncated tail, squared residual =
    sum_{k>=rank} lambda_k + discarded_weight.
    """
    if not 1 <= rank <= spectrum.rank:
        raise DomainError(f"rank must be in [1, {spectrum.rank}], got {rank}")
    u, s, v = spectrum._factored()
    return (u[:, :rank] * s[:rank]) @ v[:, :rank].T
