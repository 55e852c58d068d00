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
  pseudo-random sketch at a time (see `_sketch`), each block
  orthonormalized by shifted CholeskyQR (see `_orthonormal`), and stops
  once the residual ||A - Q Q^T A||_F^2, computed one row block at a time
  so that no temporary is as large as A, is at most 1e-14.  The state has
  unit norm, so that residual is exactly the Schmidt weight the truncation
  drops; it is reported as `discarded_weight`, and by interlacing every
  kept weight lies within it below the dense one.  The kept weights are
  the eigenvalues of the r x r Gram matrix B B^T of B = Q^T A.  The modes
  are computed when one is first read, by the thin SVD of B lifted by Q;
  their singular values differ from the square roots of the weights by
  rounding.
- When the leftover weight decays so slowly that more than
  min(n1, n2) // 4 columns would be needed, the sketch gives up, and the
  weights are Gram eigenvalues, non-increasing with negative rounding dust
  set to 0: past that many columns they are the cheaper route.  Forming a
  Gram matrix squares the condition number, so each weight is accurate
  only to about min(n1, n2) * eps * lambda_0 absolute (Golub & Van Loan,
  Matrix Computations, section 8.6).  A wide state is transposed first, so
  the Gram matrix is always W^T W, for W the edge-trimmed window of the
  state's tall side, cut within half that accuracy at the sketch's Ritz
  value ritz <= lambda_0, so that by Cauchy interlacing the cut bounds
  each weight's drop (see `_window`).  The eigenvalues of W^T W are padded
  with exact zeros to min(n1, n2); when W is wider than tall, those past
  its row count are rounding dust >= 0.  The modes are computed when one
  is first read, by the dense SVD of the whole state, so
  `discarded_weight` is 0.0.
- The Gram route splits by parity.  A state that `build_grid` and
  `sample_state` make is centrosymmetric up to rounding, A = J A J with J
  the reversal of each axis, because its box is centred on the means (the
  paper's Schmidt mode k has parity (-1)^k).  Its Gram matrix G then
  commutes with J, and the change to the even and odd vectors
  (e_k +- e_(m-1-k)) / sqrt(2) makes it block diagonal, with two blocks of
  half the size (Cantoni & Butler, Linear Algebra Appl. 13:275, 1976).
  When the window's row and column masses match their mirror images, the
  window is widened to its centrosymmetric hull and the weights are the
  eigenvalues of the two blocks of its G (see `_parity_split`).  Dropping
  the block E between them moves each weight by at most ||E||_F (Weyl), so
  the split is kept only when ||E||_F <= m * eps * f for an m x m G, with
  f <= lambda_0 the even block's Rayleigh quotient at its own diagonal:
  inside the route's accuracy.  A refused split runs no eigensolve of its
  blocks, and the whole G is taken.

Sign fixing: each weight's mode pair is flipped jointly so that the
axis-1 column's first entry whose magnitude is at least half the column's
largest is positive.  Anchoring on the largest entry itself would be
ill-conditioned: a near-antisymmetric mode has two peaks of almost equal
magnitude and opposite sign, and rounding decides which one is larger.  A
joint flip leaves the reconstruction and all weight-derived quantities
unchanged; anchoring on one side only is deliberate, since no convention
can force both columns positive-dominant for every real matrix.
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
# Sketch columns of the first block's first step, whose decay may send a
# grid to the Gram route before the rest of the block is formed.
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
        if isinstance(found, float):
            return SchmidtSpectrum(_gram_weights(a, total, found), state.grid,
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
    """(u, s, v) with each column pair flipped jointly so that the axis-1
    mode's first entry of at least half its largest magnitude is positive."""
    v = vt.T
    magnitude = np.abs(u)
    anchor = np.argmax(magnitude >= 0.5 * magnitude.max(axis=0), axis=0)
    flip = u[anchor, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return u, s, v


def _gram_weights(a: np.ndarray, total: float, ritz: float) -> np.ndarray:
    """Squared singular values of `a`, non-increasing, from the Gram matrix
    of its edge-trimmed window and padded with zeros to min(n1, n2).

    `total` is the squared norm of `a` that its state checked, and `ritz`
    a lower bound on its largest weight, which sets the window's cut.  A
    wide `a` is transposed first, so the Gram matrix is W^T W over the
    window of the state's tall side (see `_window`).  When the state may be
    centrosymmetric, the weights are those of its even and odd blocks if
    the block E between them has ||E||_F <= m * eps * f, for f <= lambda_0
    the even block's Rayleigh quotient (see `_parity_split`); else, as for
    every other state, they are those of the whole Gram matrix.
    """
    if a.shape[1] > a.shape[0]:
        a = a.T
    (rows, cols, bands), mirrored = _window(a, total, ritz)
    w = a[rows, cols]
    m = w.shape[1]
    weights = None
    if mirrored:
        weights = _parity_split(*_quadrants(w, bands, (m + 1) // 2))
    if weights is None:
        weights = _eigenvalues(_quadrants(w, bands, m)[0])
    padded = np.zeros(min(a.shape))
    padded[:weights.size] = weights
    return padded


def _quadrants(w: np.ndarray, bands, h: int):
    """G[:h, :h], G[h:, h:] and G[:h, h:] of G = W^T W, summed over the
    bands of W; every entry gets the same bits whatever h is, and h = m2
    gives G itself.  The lower-left quadrant, the transpose of the
    upper-right one, is not formed."""
    m = w.shape[1]
    top, bottom, corner = np.zeros((h, h)), np.zeros((m - h, m - h)), np.zeros((h, m - h))
    for band_rows, band_cols in bands:
        part = w[band_rows, band_cols]
        product = part.T @ part
        lo, hi = band_cols.start, band_cols.stop
        mid = min(max(lo, h), hi)  # the band's columns below h end here
        k = mid - lo
        top[lo:mid, lo:mid] += product[:k, :k]
        if mid < hi:
            bottom[mid - h:hi - h, mid - h:hi - h] += product[k:, k:]
            corner[lo:mid, mid - h:hi - h] += product[:k, k:]
    return top, bottom, corner


def _parity_split(top: np.ndarray, bottom: np.ndarray, corner: np.ndarray):
    """Eigenvalues of the even and odd blocks of a Gram matrix G given by
    its quadrants (see `_quadrants`), merged non-increasing, or None when
    the Frobenius norm of the block E between them exceeds m * eps * f, for
    f the Rayleigh quotient u^T S u / u^T u of the even block S at its
    diagonal u (0 when u is): that of P^T G P at (u, 0), so at most
    lambda_0 whatever E is.  Overwrites `top` and `bottom`.

    With J the reversal of the m = h + q columns (q = floor(m / 2)), the
    even vectors (e_k + e_(m-1-k)) / sqrt(2) and the odd vectors
    (e_k - e_(m-1-k)) / sqrt(2), k < q, with the middle unit vector e_q
    among the even ones when m is odd, are the columns of an orthogonal P.
    P^T G P has the eigenvalues of G; from A = G[:q, :q],
    B = J G[h:, h:] J and C = G[:q, h:] J its even block is
    (A + B + C + C^T) / 2, its odd block (A + B - C - C^T) / 2 and the block
    between them E = (A - B - C + C^T) / 2, plus, for an odd m, one more
    even row and column and one more row of E from the middle row of G.
    E = 0 when the window W is centrosymmetric, since then J G J = G.  The
    doubled blocks are formed in the memory of A and of G[h:, h:] one row
    block at a time, summing ||E||_F, so a refused split runs no eigensolve.
    """
    q, h = bottom.shape[0], top.shape[0]
    a = top[:q, :q]
    b = bottom[::-1, ::-1]
    c = corner[:q, ::-1]
    c_t = c.T
    cross = []
    for rows, e in _row_blocks(a):
        np.subtract(a[rows], b[rows], out=e)
        e -= c[rows]
        e += c_t[rows]
        cross.append(np.sum(np.square(e, out=e)))
        np.add(c[rows], c_t[rows], out=e)
        a[rows] += b[rows]
        np.subtract(a[rows], e, out=b[rows])
        a[rows] += e
    if h > q:
        middle, mirror = top[q, :q], corner[q, ::-1]
        cross.append(2.0 * np.sum(np.square(middle - mirror)))
        middle += mirror
        middle *= math.sqrt(2.0)
        top[:q, q] = middle
        top[q, q] *= 2.0
    # The Rayleigh quotient of the even block's diagonal u, at most lambda_0.
    u = top.diagonal()
    norm = float(u @ u)
    floor = 0.5 * float(u @ top @ u) / norm if norm > 0.0 else 0.0
    if 0.5 * math.sqrt(float(np.sum(cross))) > (h + q) * _EPS * floor:
        return None
    return 0.5 * np.sort(np.concatenate((_eigenvalues(top), _eigenvalues(bottom))))[::-1]


def _window(a: np.ndarray, total: float, ritz: float):
    """The window of `a` left once leading and trailing rows and columns are
    cut, as (rows, cols, bands), and whether the state's masses mirror;
    when they do, the window is widened to its centrosymmetric hull.

    Each edge, read from the outside in, is cut while its own mass is at
    most a quarter of max(eps * total, min(n1, n2) * eps * ritz / 2), for
    `ritz` at most the largest weight lambda_0 (the sketch's Ritz value, or
    0).  So the four cuts hold at most half of the Gram route's accuracy
    min(n1, n2) * eps * lambda_0 (eps * total is inside it, since
    lambda_0 >= total / min(n1, n2)); they include the mass outside the
    window, and by interlacing each weight drops by at most their sum.
    Opposite cuts hold at most half that, less than `total`, so they never
    meet.  The masses come from one row-blocked pass, with no BLAS call, so
    the window is the same at any thread count.

    A band is a pair of row and column slices of the window: the window's
    rows of one row block, or of a run of consecutive blocks with the same
    span, and the span of columns where those blocks have a nonzero
    square.  Every nonzero square of the window lies in a band, so summing
    the bands' own W^T W gives that of the window, except for products
    with an amplitude whose square underflows to 0 (below ~1.5e-162 in
    magnitude): each Gram entry moves by at most max(n1, n2) * 1.5e-162.
    A window whose every block spans all of its columns is one band, and
    its Gram matrix one product.

    The masses mirror when the row masses and the column masses each match
    their mirror images to within min(n1, n2) * eps * total, summed over
    the axis: a test, before any product, that the state may be
    centrosymmetric.  The hull keeps the smaller cut of each opposite pair
    of edges, so it contains the window and leaves out at most the same
    mass.
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
    # The top, bottom, left and right cuts, each edge read from the outside in.
    quarter = 0.25 * max(_EPS * total, 0.5 * min(n1, n2) * _EPS * ritz)
    cuts = [int(np.searchsorted(np.cumsum(masses), quarter, side="right"))
            for masses in (rows, rows[::-1], cols, cols[::-1])]
    mirror = min(n1, n2) * _EPS * total
    if (np.sum(np.abs(rows - rows[::-1])) <= mirror
            and np.sum(np.abs(cols - cols[::-1])) <= mirror):
        edge, side = min(cuts[:2]), min(cuts[2:])
        return _banded(spans, slice(edge, n1 - edge), slice(side, n2 - side)), True
    return _banded(spans, slice(cuts[0], n1 - cuts[1]), slice(cuts[2], n2 - cuts[3])), False


def _banded(spans, rows: slice, cols: slice):
    """(rows, cols, bands): the window a[rows, cols] and the bands that the
    row blocks' column `spans` give it (see `_window`)."""
    bands = []
    for block, lo, hi in spans:
        start, stop = max(block.start, rows.start) - rows.start, min(block.stop, rows.stop) - rows.start
        lo, hi = max(lo, cols.start) - cols.start, min(hi, cols.stop) - cols.start
        if start < stop and lo < hi:
            # A block with the same columns as the last band, right below
            # it, extends that band.
            if bands and bands[-1][1] == slice(lo, hi) and bands[-1][0].stop == start:
                start = bands.pop()[0].start
            bands.append((slice(start, stop), slice(lo, hi)))
    return rows, cols, bands


def _test_matrix(rows: int, start: int, count: int) -> np.ndarray:
    """Columns start .. start + count - 1 of a fixed pseudo-random test
    matrix, all inside one block of _BLOCK columns.

    Entries are uniform in [-1, 1), each a splitmix64 hash of its position:
    entry i of column c = b * _BLOCK + j hashes (b * rows + i) * _BLOCK + j,
    so a column has the same bits in every call that asks for it, on every
    platform.  Any independent zero-mean entries serve the range finder,
    and the stopping test does not depend on them; numpy.random is avoided
    because importing it costs about 6 MB of resident memory in processes
    that never draw from it.
    """
    first = start // _BLOCK * _BLOCK * rows + start % _BLOCK
    z = np.add.outer(np.arange(rows, dtype=np.uint64) * np.uint64(_BLOCK),
                     np.arange(first, first + count, dtype=np.uint64))
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0 ** -52 - 1.0


def _sketch(a: np.ndarray, total: float):
    """Randomized factorization certified to leave out at most _TAIL, or
    the Ritz value that starts the Gram route.

    `total` is the squared norm of `a` that its state checked.  Returns the
    kept weights, a function that returns the sign-fixed factors (u, s, v)
    of the modes, and the discarded weight.  Once the decay of the leftover
    weight predicts that more than min(n1, n2) // _CAP_DIVISOR columns are
    needed, returns instead, as a float and holding nothing, the largest
    eigenvalue of B B^T for the block B = Q^T A formed so far: the largest
    squared singular value of the orthonormal Q's projection of A, which by
    interlacing is at most the largest weight lambda_0.

    The first block is taken in two steps: its first _PROBE columns, then
    the other 48, projected against them like a later block.  After each
    step the leftover's decay per column since the current block began
    predicts the column count.  After the probe's columns the prediction
    may pass the cap by one block, since they capture less than the top
    _PROBE modes.  The certificate is checked only at whole blocks, so the
    kept rank is a multiple of _BLOCK.
    """
    n1, n2 = a.shape
    cap = min(n1, n2) // _CAP_DIVISOR
    y = a @ _test_matrix(n2, 0, _PROBE)
    q = np.empty((n1, 0))
    b = np.empty((0, n2))
    start = leftover = total  # `start`: the leftover when the current block began
    while True:
        shifts = _SHIFTS
        if q.shape[1]:
            for _ in range(2):
                y -= q @ (q.T @ y)
            # Shifted CholeskyQR of a rank-deficient block fills its missing
            # directions with columns that need not be orthogonal to q; one
            # more projection and CholeskyQR pass keep the basis orthonormal.
            y = _orthonormal(y, shifts, q)
            y -= q @ (q.T @ y)
            shifts = (False,)
        y = _orthonormal(y, shifts, q)
        block = y.T @ a
        q = np.hstack((q, y))
        b = np.vstack((b, block))
        leftover -= float(np.sum(np.square(block)))
        columns = q.shape[1]
        probed = columns % _BLOCK  # _PROBE after the probe's step, 0 at a whole block
        if not probed and leftover <= _TAIL:
            # The tracked leftover cancels to rounding noise; certify directly.
            leftover = _residual(a, q, b)
            if leftover <= _TAIL:
                break
        if leftover > _TAIL:
            decay = leftover / start
            steps = (math.ceil(math.log(_TAIL / leftover) / math.log(decay))
                     if decay < 1.0 else math.inf)
            if columns + (probed or _BLOCK) * steps > cap + (_BLOCK if probed else 0):
                return float(_eigenvalues(b @ b.T)[0])
        if probed:
            y = a @ _test_matrix(n2, probed, _BLOCK - probed)
        else:
            start = leftover
            y = a @ _test_matrix(n2, columns, _BLOCK)
    return _eigenvalues(b @ b.T), partial(_lifted, q, b), leftover


def _residual(a: np.ndarray, q: np.ndarray, b: np.ndarray) -> float:
    """||A - Q B||_F^2, formed and summed one row block of `a` at a time, so
    that no temporary is as large as `a`."""
    sums = []
    for rows, residual in _row_blocks(a):
        np.matmul(q[rows], b, out=residual)
        residual -= a[rows]
        sums.append(np.sum(np.square(residual, out=residual)))
    return float(np.sum(sums))


def _orthonormal(y: np.ndarray, shifts, q: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning those of `y`: one CholeskyQR pass per
    entry of `shifts`, or, when a Cholesky factorization fails, the columns
    that follow q's in the Q of `np.linalg.qr([q, y])` for the basis `q`
    built so far.  Those are orthogonal to q even where they fill the
    missing directions of a rank-deficient `y`.

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
        basis = np.linalg.qr(np.hstack((q, y)))[0][:, q.shape[1]:]
    return basis


def _eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric `gram`, non-increasing, with negative
    rounding dust set to 0."""
    return np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0)


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
    not pair with its singular vectors.  The result is not renormalized: its
    Frobenius distance to the original amplitude matrix is the truncated
    tail, squared residual = sum_{k>=rank} lambda_k + discarded_weight.
    """
    if not 1 <= rank <= spectrum.rank:
        raise DomainError(f"rank must be in [1, {spectrum.rank}], got {rank}")
    u, s, v = spectrum._factored()
    return (u[:, :rank] * s[:rank]) @ v[:, :rank].T
