"""Uniform grids and midpoint discretization of bipartite amplitudes.

A continuous amplitude f(x1, x2) becomes a matrix by sampling at cell
midpoints and scaling by sqrt(cell area), then rescaling so the Frobenius
norm is exactly 1.  The exact rescale makes the downstream Schmidt weights
sum to 1 identically instead of approximately; the pre-rescale norm is kept
on the state for diagnostics, since it estimates the square root of the
probability mass captured by the grid box.

Also provides discrete marginals, the discrete Shannon mutual information,
and a plain-text state file format (JSON header line plus CSV body) for
feeding externally produced amplitude matrices to the decomposition CLI.
"""

from __future__ import annotations

import dataclasses
import json
import math
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

# Most cells a grid may have (n = 4096 per axis): a dense state of this size
# holds 128 MB of float64 before any factorization workspace.
MAX_GRID_CELLS = 2**24

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
    raw_norm : float or None
        Frobenius norm before the exact rescale; close to 1 when the grid
        box captures nearly all probability mass.
    """

    grid: GridSpec
    amplitudes: np.ndarray
    raw_norm: float | None = None
    # The row-blocked sum of squares checked on construction, kept so that
    # the decomposition does not sum the read-only amplitudes again.
    _squared_norm: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
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
        total = _sum_of_squares(amp)
        # A non-finite sum has a non-finite amplitude or squares that overflow.
        if not math.isfinite(total) and not np.all(np.isfinite(amp)):
            raise DomainError("amplitudes must be finite")
        if abs(total - 1.0) > _NORM_TOL:
            raise DomainError(f"normalized state has squared norm {total!r}, not 1")
        object.__setattr__(self, "_squared_norm", total)

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


def _evaluate_on_grid(f, grid: GridSpec) -> np.ndarray:
    x1 = grid.midpoints1
    x2 = grid.midpoints2
    shape = (grid.n1, grid.n2)
    try:
        values = np.asarray(f(x1[:, None], x2[None, :]), dtype=float)
    except (TypeError, ValueError):
        # Fall back for amplitude functions that only accept scalars.
        return np.array([[_cell_value(f, a, b) for b in x2] for a in x1])
    try:
        # A read-only view, not a copy: nothing downstream writes into `values`.
        return np.broadcast_to(values, shape)
    except ValueError:
        raise DomainError(f"amplitude function returned shape {values.shape}, which does "
                          f"not broadcast to the grid shape {shape}") from None


def _cell_value(f, a, b) -> float:
    """f(a, b) for an amplitude function that only accepts scalars; one number."""
    value = f(a, b)
    try:
        return float(np.asarray(value, dtype=float).reshape(()))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"amplitude function returned {value!r} at ({a}, {b}), "
                          "not one number") from exc


def sample_state(f, grid: GridSpec) -> DiscretizedState:
    """Sample an amplitude function at cell midpoints into a normalized state.

    The matrix is f at midpoints times sqrt(cell area), rescaled to unit
    Frobenius norm.  The output is invariant under scaling f by any positive
    constant.
    """
    return _normalized_state(
        grid, _evaluate_on_grid(f, grid),
        "amplitude function is zero everywhere on the grid; cannot normalize"
    )


def _normalized_state(grid: GridSpec, values: np.ndarray, zero_message: str) -> DiscretizedState:
    """Scale midpoint values by sqrt(cell area) and rescale to unit norm.

    `values` may belong to the caller (an amplitude function's result), so
    only the arrays made here are rescaled in place.  Non-finite values are
    looked for only when the norm is not a positive finite number.  The
    norms are row-blocked sums with no BLAS call, so the state has the same
    bits at any BLAS thread count.
    """
    with np.errstate(over="ignore", under="ignore"):
        scaled = values * math.sqrt(grid.cell_area)
        raw_norm = math.sqrt(_sum_of_squares(scaled))
    if 0.0 < raw_norm < math.inf:
        scaled /= raw_norm
        return DiscretizedState(grid=grid, amplitudes=scaled, raw_norm=raw_norm)
    if not np.all(np.isfinite(values)):
        raise DomainError("amplitude function must be finite on the grid")
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        raise DomainError(zero_message)
    # The squared norm left the float range; the normalized state is
    # scale-invariant, so normalize the peak-scaled values instead.
    unit = values / peak
    unit_norm = math.sqrt(_sum_of_squares(unit))
    raw_norm = peak * math.sqrt(grid.cell_area) * unit_norm
    unit /= unit_norm
    return DiscretizedState(grid=grid, amplitudes=unit, raw_norm=raw_norm)


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


def _sum_of_squares(a: np.ndarray) -> float:
    """Row-blocked pairwise sum of the squares of `a`; inf when they overflow."""
    sums = []
    with np.errstate(over="ignore"):
        for rows, squares in _row_blocks(a):
            np.multiply(a[rows], a[rows], out=squares)
            sums.append(np.sum(squares))
        return float(np.sum(sums))


def marginals(p_joint) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a joint probability matrix; each sums to 1.

    The joint must be a finite, nonnegative matrix whose entries sum to 1
    within 1e-12; anything else raises DomainError.
    """
    p1, p2, _ = _joint_walk(p_joint, entropy=False)
    return p1, p2


def _joint_walk(p_joint, entropy: bool):
    """One row-blocked pass over a joint probability matrix: its checks (see
    `marginals`), its row and column sums and, when `entropy` is set, the
    sum of p log p over its cells with p > 0 (else None)."""
    p = np.asarray(p_joint, dtype=float)
    if p.ndim != 2:
        raise DomainError(f"joint distribution must be a matrix, got ndim={p.ndim}")
    rows = np.empty(p.shape[0])
    cols = np.zeros(p.shape[1])
    terms_sums = []
    negative = False
    with np.errstate(over="ignore"):
        for block_rows, terms in _row_blocks(p):
            block = p[block_rows]
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
    those: over 192 Gaussian grids (n 256 to 1500, rho -0.95 to 0.9995)
    it was within 3.0e-15 of the ratio form sum p log(p / (p1 p2)) summed
    the same way.  It is deterministic for a fixed numpy build.  Tiny
    negative float residue on product joints is clamped to 0.
    """
    divisor = log_divisor(log_base)
    p1, p2, total = _joint_walk(p_joint, entropy=True)
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
    samples = state.amplitudes / math.sqrt(grid.cell_area)
    # One format string per row, printing what format_float prints.
    row_format = ",".join(["%" + _FLOAT_SPEC] * grid.n2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dataclasses.asdict(grid)) + "\n")
        for row in samples:
            fh.write(row_format % tuple(row.tolist()))


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
    the n1 * n2 parsed samples and one line, however long the file is.  A
    wrong row count is reported before any malformed row; a byte that is not
    UTF-8 is reported where it is read.
    """
    with open(path, "rb") as fh:
        lines = _logical_lines(fh)
        grid = _read_header(next(lines, ""))
        samples = np.empty((grid.n1, grid.n2))
        rows = 0  # body lines up to the last non-blank one
        seen = 0  # body lines read
        error = None  # first malformed row among rows 1..min(rows, n1)
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
        raise StateFileError(f"expected {grid.n1} amplitude rows, found {rows}", line=rows + 2)
    if error is not None:
        raise error
    return _normalized_state(grid, samples, "state file is zero everywhere; cannot normalize")
