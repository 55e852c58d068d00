"""Uniform grids and midpoint discretization of bipartite amplitudes.

A continuous amplitude f(x1, x2) becomes a matrix by sampling at cell
midpoints and scaling by sqrt(cell area), then rescaling so the Frobenius
norm is exactly 1.  The exact rescale makes the downstream Schmidt weights
sum to 1 identically instead of approximately; the pre-rescale norm is kept
on the state for diagnostics.  Its square is the midpoint-rule sum of |f|^2
over the grid box: it approximates the probability mass in the box, but on
an undersampled grid aliasing can push it above 1.

Also provides discrete marginals, the discrete Shannon mutual information,
and a plain-text state file format (JSON header line plus CSV body) for
feeding externally produced amplitude matrices to the decomposition CLI.
"""

from __future__ import annotations

import dataclasses
import json
import math
import mmap
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StateFileError
from .gaussian_model import GaussianParams
from .util import _FLOAT_SPEC, log_divisor

# Validation tolerances for probability inputs.  Grid-sized sums use numpy's
# pairwise summation, not math.fsum: fsum's cost per item grows with the
# number of exact partials it carries, which grows with the exponent spread
# of the items, and Gaussian tails spread the cells over hundreds of binary
# exponents.  The pairwise error (~eps * log2(n1 * n2)) sits far inside 1e-12.
_TOTAL_TOL = 1e-12
_NORM_TOL = 1e-12

# Grid-sized passes (the squared norm of a state, the joint checks and the
# mutual-information terms) run over blocks of whole rows of about this many
# cells, so their temporaries are one 512 KB buffer, not n1 x n2 arrays.
# Each block is summed pairwise, and so are the block sums.
_BLOCK_CELLS = 2**16
# The smallest normal float.
_TINY = float(np.finfo(float).tiny)

# Most cells a grid may have (n = 4096 per axis): a dense state of this size
# holds 128 MB of float64 before any factorization workspace.
MAX_GRID_CELLS = 2**24

# The anonymous mapping of the last state's array to be freed, kept for the
# next state of the same byte size (see `_state_buffer`): at most one, so at
# most one grid budget (128 MB) is held.  A list, so that the pop that takes
# it and the slice assignment that replaces it are each one atomic call.
_spare: list[mmap.mmap] = []
# Private, so that a forked child that reuses an inherited mapping writes
# copies of its pages, not the pages of the parent's live state.
_MAP_FLAGS = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}

@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: n cells per axis over [lo, hi]."""

    n1: int
    n2: int
    lo1: float
    hi1: float
    lo2: float
    hi2: float

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise DomainError("grid needs at least 2 cells per axis")
        for name in ("lo1", "hi1", "lo2", "hi2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.hi1 > self.lo1 and self.hi2 > self.lo2):
            raise DomainError("grid bounds must satisfy hi > lo on each axis")
        for axis in ("1", "2"):
            if not math.isfinite(getattr(self, "hi" + axis) - getattr(self, "lo" + axis)):
                raise DomainError(f"grid width hi{axis} - lo{axis} overflows")
        try:
            cell_area = self.cell_area
        except OverflowError as exc:
            raise DomainError("grid cell count n1 or n2 overflows a float") from exc
        if not 0.0 < cell_area < math.inf:
            raise DomainError(f"grid cell area dx1 * dx2 = {cell_area!r} is not a "
                              "positive finite number")
        if self.n1 * self.n2 > MAX_GRID_CELLS:
            raise DomainError(f"grid has n1 * n2 = {self.n1 * self.n2} cells, above the "
                              f"budget of {MAX_GRID_CELLS}")

    @property
    def dx1(self) -> float:
        return (self.hi1 - self.lo1) / self.n1

    @property
    def dx2(self) -> float:
        return (self.hi2 - self.lo2) / self.n2

    @property
    def cell_area(self) -> float:
        return self.dx1 * self.dx2

    @property
    def midpoints1(self) -> np.ndarray:
        return self.lo1 + (np.arange(self.n1) + 0.5) * self.dx1

    @property
    def midpoints2(self) -> np.ndarray:
        return self.lo2 + (np.arange(self.n2) + 0.5) * self.dx2


# State-file header fields, in GridSpec field order: accepted JSON types and
# the stored type.
_HEADER_TYPES = {
    field.name: (int, int) if field.type == "int" else ((int, float), float)
    for field in dataclasses.fields(GridSpec)
}


@dataclass(frozen=True, eq=False)
class DiscretizedState:
    """Normalized amplitude matrix on a grid.

    Attributes
    ----------
    grid : GridSpec
    amplitudes : ndarray, shape (n1, n2)
        Midpoint samples scaled by sqrt(cell area), with unit Frobenius norm
        (checked on construction); a read-only view of the array passed in.
        `sample_state` and `read_state_file` pass an array in an anonymous
        mapping that is recycled: once this view and every other view of
        the array are gone, it is kept as the one spare for the next state
        of the same size, so at most one freed array (at most 128 MB, the
        grid budget) is held.
    raw_norm : float or None
        Frobenius norm before the exact rescale.  From `sample_state`,
        raw_norm**2 is the midpoint-rule sum of |f|^2 over the grid box,
        which aliasing on an undersampled grid can push above 1: it is
        1 + 1.03e-4 for the Gaussian at rho 0.9999, span 10, n = 1000.
    """

    grid: GridSpec
    amplitudes: np.ndarray
    raw_norm: float | None = None
    # The row-blocked sum of squares checked on construction, kept so that
    # the decomposition does not sum the read-only amplitudes again.
    _squared_norm: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self, total: float | None = None):
        # A read-only view, not a copy: the checked norm cannot be broken by
        # writing through the state, and the caller's array stays writable.
        amp = np.asarray(self.amplitudes, dtype=float).view()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (self.grid.n1, self.grid.n2):
            raise DomainError(
                f"amplitude shape {amp.shape} does not match grid "
                f"({self.grid.n1}, {self.grid.n2})"
            )
        if total is None:
            total = _sum_of_squares(amp)
        # A non-finite sum has a non-finite amplitude or squares that overflow.
        if not math.isfinite(total) and not np.all(np.isfinite(amp)):
            raise DomainError("amplitudes must be finite")
        if abs(total - 1.0) > _NORM_TOL:
            raise DomainError(f"normalized state has squared norm {total!r}, not 1")
        object.__setattr__(self, "_squared_norm", total)

    @classmethod
    def _summed(cls, grid: GridSpec, amplitudes: np.ndarray, raw_norm: float,
                total: float) -> "DiscretizedState":
        """The state of `amplitudes`, checked against `total`, their squared
        norm as a `_sum_of_squares` walk summed it, instead of a new walk."""
        state = cls.__new__(cls)
        for name, value in (("grid", grid), ("amplitudes", amplitudes), ("raw_norm", raw_norm)):
            object.__setattr__(state, name, value)
        state.__post_init__(total)
        return state

    def probabilities(self) -> np.ndarray:
        """Joint probability matrix amplitudes**2."""
        return self.amplitudes * self.amplitudes


def build_grid(params: GaussianParams, n: int, span: float = 6.0) -> GridSpec:
    """Grid covering [m_i - span*sigma_i, m_i + span*sigma_i] with n cells per axis.

    The default span of 6 standard deviations leaves less than 1e-8 of
    Gaussian mass outside the box.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if span <= 0.0:
        raise DomainError(f"span must be positive, got {span}")
    return GridSpec(
        n1=n,
        n2=n,
        lo1=params.m1 - span * params.sigma1,
        hi1=params.m1 + span * params.sigma1,
        lo2=params.m2 - span * params.sigma2,
        hi2=params.m2 + span * params.sigma2,
    )


def _state_buffer(n1: int, n2: int) -> np.ndarray:
    """An uninitialized (n1, n2) float array for a state; the caller writes
    every cell before use.

    The array lives in an anonymous mapping, outside malloc's heap.  Once
    the array and every view of it are gone, the mapping becomes the one
    spare; the next request of the same byte size takes it, so a loop of
    same-shape states faults its pages in once, not once per state.  Any
    other request maps fresh memory and lets the spare go.
    """
    nbytes = n1 * n2 * np.dtype(float).itemsize
    try:
        buffer = _spare.pop()
    except IndexError:
        buffer = None
    if buffer is None or len(buffer) != nbytes:
        buffer = mmap.mmap(-1, nbytes, **_MAP_FLAGS)
    flat = np.frombuffer(buffer, dtype=float)
    # numpy collapses a view's base only as far as `flat`, whose base is not
    # an array, so `flat` dies with the last view of the state's bytes.
    weakref.finalize(flat, _keep_spare, buffer).atexit = False
    return flat.reshape(n1, n2)


def _keep_spare(buffer: mmap.mmap) -> None:
    _spare[:] = [buffer]


def sample_state(f, grid: GridSpec) -> DiscretizedState:
    """Sample an amplitude function at cell midpoints into a normalized state.

    The matrix is f at midpoints times sqrt(cell area), rescaled to unit
    Frobenius norm.  The output is invariant under scaling f by any positive
    constant.

    `f` must be pointwise and accept broadcasting arrays: it is called once
    per block of whole rows (about 2**16 cells) with x1 of shape (r, 1) and
    x2 of shape (1, n2), and its result must broadcast to (r, n2).  Wrap a
    function of scalars in `np.vectorize`.  Each block is written straight
    into the state's array and its squares are summed while it is in cache,
    so the state is the only grid-sized array.  That array reuses the
    mapping of the last freed state of the same size, if any (see
    `_state_buffer`), so a loop of same-shape states does not fault in
    fresh pages for each.
    """
    x1 = grid.midpoints1[:, None]
    x2 = grid.midpoints2[None, :]
    values = _state_buffer(grid.n1, grid.n2)

    def fill(rows: slice) -> None:
        _evaluate_block(f, x1[rows], x2, values[rows])

    return _normalized_state(
        grid, values, "amplitude function is zero everywhere on the grid; cannot normalize",
        fill)


def _evaluate_block(f, x1: np.ndarray, x2: np.ndarray, out: np.ndarray) -> None:
    """Write f(x1, x2) into the row block `out`, to whose shape it must broadcast."""
    rule = ("it is called once per block of rows, with x1 of shape {} and x2 of shape {}, "
            "so it must be pointwise and broadcast; wrap a function of scalars in np.vectorize")
    try:
        result = f(x1, x2)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"amplitude function failed on arrays ({exc}): "
                          + rule.format(x1.shape, x2.shape)) from exc
    try:
        values = np.asarray(result, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"amplitude function returned {result!r:.80}, not numbers") from exc
    try:
        out[...] = np.broadcast_to(values, out.shape)
    except ValueError:
        raise DomainError(f"amplitude function returned shape {values.shape}, which does not "
                          f"broadcast to the row block shape {out.shape}: "
                          + rule.format(x1.shape, x2.shape)) from None


def _normalized_state(grid: GridSpec, values: np.ndarray, zero_message: str,
                      fill=None) -> DiscretizedState:
    """Scale `values` by sqrt(cell area) and rescale to unit norm, in place.

    `values` belongs to the caller, who gives it up: it becomes the state's
    array.  With `fill`, each row block of `values` is first written by
    fill(rows) (see `_sum_of_squares`).  Non-finite values are looked for
    only when the norm is not a positive finite number.  The norms are
    row-blocked sums with no BLAS call, so the state has the same bits at
    any BLAS thread count.  The rescale, one multiply per row block, is the
    fill of the `_sum_of_squares` walk whose sum the state checks.
    """
    scale = math.sqrt(grid.cell_area)
    squared = _sum_of_squares(values, scale, fill)
    # A square below the normal range keeps only some of its bits; a sum
    # that such squares could make up takes the peak-scaled path below.
    if values.size * _TINY < squared < math.inf:
        raw_norm = math.sqrt(squared)
        factor = scale / raw_norm
    else:
        # NaN propagates through max and min, so a non-finite value shows here.
        high, low = float(np.max(values)), float(np.min(values))
        if not (math.isfinite(high) and math.isfinite(low)):
            raise DomainError("amplitude function must be finite on the grid")
        peak = max(high, -low)
        if peak == 0.0:
            raise DomainError(zero_message)
        # The squared norm left the float range, or the normal range of each
        # square; the normalized state is scale-invariant, so normalize the
        # peak-scaled values instead.
        with np.errstate(under="ignore"):
            values /= peak
        unit_norm = math.sqrt(_sum_of_squares(values))
        factor = 1.0 / unit_norm
        raw_norm = peak * scale * unit_norm

    def rescale(rows: slice) -> None:
        np.multiply(values[rows], factor, out=values[rows])

    with np.errstate(under="ignore"):
        total = _sum_of_squares(values, fill=rescale)
    return DiscretizedState._summed(grid, values, raw_norm, total)


def _row_blocks(a: np.ndarray):
    """Consecutive blocks of whole rows of the matrix `a`, about _BLOCK_CELLS
    cells each: yields each block's row slice and a scratch array of the
    block's shape (views of one buffer, reused from block to block)."""
    n1, n2 = a.shape
    size = max(1, min(n1, _BLOCK_CELLS // max(n2, 1)))
    buffer = np.empty((size, n2))
    for start in range(0, n1, size):
        rows = slice(start, min(start + size, n1))
        yield rows, buffer[:rows.stop - start]


def _sum_of_squares(a: np.ndarray, scale: float | None = None, fill=None) -> float:
    """Row-blocked pairwise sum of the squares of `a`, or of `a * scale`;
    inf when they overflow.

    With `fill`, fill(rows) first writes each block of rows of `a` (its
    samples, or their rescale to unit norm), so that the block is summed
    while it is in cache.
    """
    sums = []
    for rows, squares in _row_blocks(a):
        if fill is not None:
            fill(rows)
        with np.errstate(over="ignore", under="ignore"):
            if scale is None:
                np.multiply(a[rows], a[rows], out=squares)
            else:
                np.multiply(a[rows], scale, out=squares)
                np.multiply(squares, squares, out=squares)
            sums.append(np.sum(squares))
    with np.errstate(over="ignore"):
        return float(np.sum(sums))


def marginals(p_joint) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a joint probability matrix; each sums to 1.

    The joint must be a finite, nonnegative matrix whose entries sum to 1
    within 1e-12; anything else raises DomainError.
    """
    p1, p2, _ = _joint_walk(p_joint, entropy=False)
    return p1, p2


def _joint_walk(p_joint, entropy: bool, squared: bool = False):
    """One row-blocked pass over a joint probability matrix: its checks (see
    `marginals`), its row and column sums and, when `entropy` is set, the
    sum of p log p over its cells with p > 0 (else None).

    With `squared`, `p_joint` holds amplitudes and the joint is their
    squares, formed one row block at a time in a block-sized buffer.  Each
    block has the bits of the same rows of the squared matrix, so the
    results are those of the walk over `amplitudes**2`.
    """
    p = np.asarray(p_joint, dtype=float)
    if p.ndim != 2:
        raise DomainError(f"joint distribution must be a matrix, got ndim={p.ndim}")
    rows = np.empty(p.shape[0])
    cols = np.zeros(p.shape[1])
    terms_sums = []
    negative = False
    squares = None
    with np.errstate(over="ignore"):
        for block_rows, terms in _row_blocks(p):
            block = p[block_rows]
            if squared:
                # The first block is the largest.
                squares = np.empty_like(terms) if squares is None else squares
                block = np.multiply(block, block, out=squares[:len(terms)])
            row_sums = rows[block_rows]
            np.sum(block, axis=1, out=row_sums)
            # A non-finite sum has a non-finite entry or entries that overflow.
            if not np.all(np.isfinite(row_sums)) and not np.all(np.isfinite(block)):
                raise DomainError("joint distribution must be finite")
            smallest = np.min(block, initial=math.inf)
            negative = negative or smallest < 0.0
            cols += np.sum(block, axis=0)
            if entropy:
                terms_sums.append(_plogp_sum(block, terms, smallest > 0.0))
        total = float(np.sum(rows))
    if negative:
        raise DomainError("joint distribution has negative entries")
    if abs(total - 1.0) > _TOTAL_TOL:
        raise DomainError(f"joint distribution sums to {total!r}, not 1")
    return rows, cols, float(np.sum(terms_sums)) if entropy else None


def _plogp_sum(p: np.ndarray, terms: np.ndarray, positive: bool) -> float:
    """Pairwise sum of p log p over the entries p > 0 of the nonnegative
    `p`, formed in `terms` (an array of its shape); zero entries add an
    exact 0.  `positive` says that every entry is above 0."""
    if positive:
        np.log(p, out=terms)
    else:
        terms.fill(0.0)
        np.log(p, out=terms, where=p > 0.0)
    np.multiply(terms, p, out=terms)
    return np.sum(terms)


def shannon_mi_numeric(p_joint, log_base=math.e) -> float:
    """Discrete mutual information sum p*log(p/(p1*p2)) over cells.

    Evaluated as sum p log p - sum p1 log p1 - sum p2 log p2, with cells
    and marginal entries equal to 0 contributing an exact 0, so no ratio is
    formed and nothing can overflow.  The checks of `marginals`, the row
    and column sums and sum p log p share one walk over blocks of whole
    rows (about 2**16 cells each, so the only temporaries are one
    block-sized buffer and the marginals): numpy's pairwise sum inside each
    block and again over the block sums.  The result is a difference of
    entropies of up to ~10 nats, so its rounding error is about eps times
    those.  It is deterministic for a fixed numpy build.  Tiny negative
    float residue on product joints is clamped to 0.
    """
    return _mutual_information(p_joint, log_base)


def _mutual_information(p_joint, log_base=math.e, squared: bool = False) -> float:
    """`shannon_mi_numeric`; with `squared`, that of the joint
    `p_joint**2`, with the same bits, formed one row block at a time (see
    `_joint_walk`), so a state's amplitudes give its mutual information
    without a grid-sized copy."""
    divisor = log_divisor(log_base)
    p1, p2, total = _joint_walk(p_joint, entropy=True, squared=squared)
    for marginal in (p1, p2):
        positive = np.min(marginal, initial=math.inf) > 0.0
        total -= float(_plogp_sum(marginal, np.empty_like(marginal), positive))
    if total < -1e-9:
        raise DomainError(f"mutual information evaluated to {total}, below any float residue")
    return max(total, 0.0) / divisor


def write_state_file(path, state: DiscretizedState) -> None:
    """Write a state file: one JSON header line, then n1 CSV rows of n2 samples.

    The body holds plain midpoint samples (amplitudes divided by
    sqrt(cell area)); scale is irrelevant on load since reading normalizes.
    """
    grid = state.grid
    scale = math.sqrt(grid.cell_area)
    # One format string per row, printing what format_float prints; each row
    # is divided as it is formatted, so no grid-sized copy is made.
    row_format = ",".join(["%" + _FLOAT_SPEC] * grid.n2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dataclasses.asdict(grid)) + "\n")
        for row in state.amplitudes:
            fh.write(row_format % tuple((row / scale).tolist()))


def _logical_lines(fh):
    """Lines of a UTF-8 file opened in binary mode, split as str.splitlines
    splits the whole text; StateFileError names the line of a byte that is
    not UTF-8."""
    line = 0
    for physical in fh:
        try:
            lines = physical.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            before = physical[:exc.start].decode("utf-8")
            raise StateFileError(f"byte 0x{physical[exc.start]:02x} is not UTF-8 text",
                                 line=line + len((before + "x").splitlines())) from exc
        line += len(lines)
        yield from lines


def _read_header(text: str) -> GridSpec:
    if not text.strip():
        raise StateFileError("missing JSON header", line=1)
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"invalid JSON header: {exc.msg}", line=1, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        # Integer literals past the interpreter's digit limit, or nesting past
        # its recursion limit.
        raise StateFileError("invalid JSON header: exceeds the parser's limits", line=1) from exc
    if not isinstance(header, dict):
        raise StateFileError("JSON header must be an object", line=1)
    missing = [key for key in _HEADER_TYPES if key not in header]
    if missing:
        raise StateFileError(f"header is missing keys: {', '.join(missing)}", line=1)
    fields = {}
    for key, (kinds, cast) in _HEADER_TYPES.items():
        value = header[key]
        # bool is an int subclass, but JSON true/false is not a grid value.
        if isinstance(value, bool) or not isinstance(value, kinds):
            kind = "an integer" if cast is int else "a number"
            raise StateFileError(f"header field {key} must be {kind}, got {value!r}", line=1)
        try:
            fields[key] = cast(value)
        except OverflowError as exc:
            raise StateFileError(f"header field {key} is outside the float range", line=1) from exc
    try:
        return GridSpec(**fields)
    except DomainError as exc:
        raise StateFileError(f"invalid header values: {exc}", line=1) from exc


def _parse_row(text: str, n2: int, line_no: int) -> list[float]:
    """One CSV row of n2 finite floats; StateFileError names the first bad field."""
    fields = text.split(",")
    if len(fields) != n2:
        raise StateFileError(f"expected {n2} values per row, found {len(fields)}", line=line_no)
    try:
        row = list(map(float, fields))
    except ValueError:
        pass
    else:
        if all(map(math.isfinite, row)):
            return row
    # A bad row: the token loop raises at the first offending field.
    for j, token in enumerate(fields):
        try:
            value = float(token)
        except ValueError as exc:
            raise StateFileError(
                f"invalid number {token.strip()!r}", line=line_no, column=j + 1
            ) from exc
        if not math.isfinite(value):
            raise StateFileError(
                f"non-finite amplitude {token.strip()!r}", line=line_no, column=j + 1
            )


def read_state_file(path) -> DiscretizedState:
    """Parse a state file and return the normalized state.

    The body may be unnormalized; normalization is applied on load.  Raises
    StateFileError with 1-based line/column for malformed content and
    DomainError for an all-zero body.  The body is streamed: memory holds
    the n1 * n2 parsed samples, in a recycled state array as in
    `sample_state`, and one line, however long the file is.  A
    wrong row count is reported before any malformed row; a byte that is not
    UTF-8 is reported where it is read.
    """
    with open(path, "rb") as fh:
        lines = _logical_lines(fh)
        grid = _read_header(next(lines, ""))
        samples = _state_buffer(grid.n1, grid.n2)
        rows = 0  # body lines up to the last non-blank one
        seen = 0  # body lines read
        error = None  # first malformed row among rows 1..min(rows, n1)
        try:
            for text in lines:
                seen += 1
                if not text.strip():
                    continue
                if error is None and seen > rows + 1:
                    # A blank line before this one is a row with one empty field.
                    error = StateFileError(f"expected {grid.n2} values per row, found 1",
                                           line=rows + 2)
                rows = seen
                if error is None and rows <= grid.n1:
                    try:
                        samples[rows - 1] = _parse_row(text, grid.n2, rows + 1)
                    except StateFileError as exc:
                        error = exc
            if rows != grid.n1:
                error = StateFileError(f"expected {grid.n1} amplitude rows, found {rows}",
                                       line=rows + 2)
            if error is not None:
                raise error
        except StateFileError:
            # The error's traceback holds this frame in a reference cycle;
            # without `samples` in it, the state's mapping goes back to the
            # spare now rather than when the garbage collector runs.
            del samples
            raise
    return _normalized_state(grid, samples, "state file is zero everywhere; cannot normalize")
