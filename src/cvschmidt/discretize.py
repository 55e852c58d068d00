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

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StateFileError
from .gaussian_model import GaussianParams
from .util import format_float, log_divisor

# Validation tolerances for probability inputs.
_TOTAL_TOL = 1e-12
_NORM_TOL = 1e-12

# State-file header fields: accepted JSON types and the stored type.
_HEADER_TYPES = {
    "n1": (int, int),
    "n2": (int, int),
    "lo1": ((int, float), float),
    "hi1": ((int, float), float),
    "lo2": ((int, float), float),
    "hi2": ((int, float), float),
}


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


@dataclass(frozen=True, eq=False)
class DiscretizedState:
    """Normalized amplitude matrix on a grid.

    Attributes
    ----------
    grid : GridSpec
    amplitudes : ndarray, shape (n1, n2)
        Midpoint samples scaled by sqrt(cell area); unit Frobenius norm
        when `norm_applied` is true.
    norm_applied : bool
        False for raw synthesis output (e.g. truncated reconstructions).
    raw_norm : float or None
        Frobenius norm before the exact rescale; close to 1 when the grid
        box captures nearly all probability mass.
    """

    grid: GridSpec
    amplitudes: np.ndarray
    norm_applied: bool = True
    raw_norm: float | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (self.grid.n1, self.grid.n2):
            raise DomainError(
                f"amplitude shape {amp.shape} does not match grid "
                f"({self.grid.n1}, {self.grid.n2})"
            )
        if not np.all(np.isfinite(amp)):
            raise DomainError("amplitudes must be finite")
        if self.norm_applied:
            total = math.fsum((amp * amp).reshape(-1))
            if abs(total - 1.0) > _NORM_TOL:
                raise DomainError(f"normalized state has squared norm {total!r}, not 1")

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
    try:
        values = np.asarray(f(x1[:, None], x2[None, :]), dtype=float)
        if values.shape != (grid.n1, grid.n2):
            values = np.broadcast_to(values, (grid.n1, grid.n2)).copy()
    except (TypeError, ValueError):
        # Fall back for amplitude functions that only accept scalars.
        values = np.array([[float(f(a, b)) for b in x2] for a in x1])
    return values


def sample_state(f, grid: GridSpec) -> DiscretizedState:
    """Sample an amplitude function at cell midpoints into a normalized state.

    The matrix is f at midpoints times sqrt(cell area), rescaled to unit
    Frobenius norm.  The output is invariant under scaling f by any positive
    constant.
    """
    values = _evaluate_on_grid(f, grid)
    if not np.all(np.isfinite(values)):
        raise DomainError("amplitude function must be finite on the grid")
    scaled = values * math.sqrt(grid.cell_area)
    raw_norm = float(np.linalg.norm(scaled))
    if raw_norm == 0.0:
        raise DomainError("amplitude function is zero everywhere on the grid; cannot normalize")
    return DiscretizedState(grid=grid, amplitudes=scaled / raw_norm, raw_norm=raw_norm)


def _validate_joint(p_joint) -> np.ndarray:
    p = np.asarray(p_joint, dtype=float)
    if p.ndim != 2:
        raise DomainError(f"joint distribution must be a matrix, got ndim={p.ndim}")
    if np.any(p < 0.0):
        raise DomainError("joint distribution has negative entries")
    total = math.fsum(p.reshape(-1))
    if abs(total - 1.0) > _TOTAL_TOL:
        raise DomainError(f"joint distribution sums to {total!r}, not 1")
    return p


def marginals(p_joint) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a joint probability matrix; each sums to 1."""
    p = _validate_joint(p_joint)
    return p.sum(axis=1), p.sum(axis=0)


def shannon_mi_numeric(p_joint, log_base=math.e) -> float:
    """Discrete mutual information sum p*log(p/(p1*p2)) over cells.

    Cells with p = 0 contribute 0.  Accumulated with exact summation so the
    result is deterministic and accurate to a few ulp; tiny negative float
    residue on product joints is clamped to 0.
    """
    divisor = log_divisor(log_base)
    p = _validate_joint(p_joint)
    p1, p2 = p.sum(axis=1), p.sum(axis=0)
    mask = p > 0.0
    denom = p1[:, None] * p2[None, :]
    if np.any(denom[mask] == 0.0):
        raise DomainError("joint has positive mass where a marginal product vanishes")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (p / p1[:, None]) / p2[None, :]
    terms = p[mask] * np.log(ratio[mask])
    total = math.fsum(terms)
    if total < -1e-9:
        raise DomainError(f"mutual information evaluated to {total}, below any float residue")
    return max(total, 0.0) / divisor


def write_state_file(path, state: DiscretizedState) -> None:
    """Write a state file: one JSON header line, then n1 CSV rows of n2 samples.

    The body holds plain midpoint samples (amplitudes divided by
    sqrt(cell area)); scale is irrelevant on load since reading normalizes.
    """
    grid = state.grid
    header = {
        "n1": grid.n1,
        "n2": grid.n2,
        "lo1": grid.lo1,
        "hi1": grid.hi1,
        "lo2": grid.lo2,
        "hi2": grid.hi2,
    }
    samples = state.amplitudes / math.sqrt(grid.cell_area)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in samples:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def read_state_file(path) -> DiscretizedState:
    """Parse a state file and return the normalized state.

    The body may be unnormalized; normalization is applied on load.  Raises
    StateFileError with 1-based line/column for malformed content and
    DomainError for an all-zero body.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise StateFileError("missing JSON header", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise StateFileError(f"invalid JSON header: {exc.msg}", line=1, column=exc.colno) from exc
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
        fields[key] = cast(value)
    try:
        grid = GridSpec(**fields)
    except DomainError as exc:
        raise StateFileError(f"invalid header values: {exc}", line=1) from exc

    body_lines = lines[1:]
    while body_lines and not body_lines[-1].strip():
        body_lines.pop()
    if len(body_lines) != grid.n1:
        raise StateFileError(
            f"expected {grid.n1} amplitude rows, found {len(body_lines)}",
            line=len(body_lines) + 2,
        )
    rows = []
    for i, text in enumerate(body_lines):
        line_no = i + 2
        fields = text.split(",")
        if len(fields) != grid.n2:
            raise StateFileError(
                f"expected {grid.n2} values per row, found {len(fields)}", line=line_no
            )
        row = []
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
            row.append(value)
        rows.append(row)
    samples = np.array(rows, dtype=float)
    scaled = samples * math.sqrt(grid.cell_area)
    raw_norm = float(np.linalg.norm(scaled))
    if raw_norm == 0.0:
        raise DomainError("state file is zero everywhere; cannot normalize")
    return DiscretizedState(grid=grid, amplitudes=scaled / raw_norm, raw_norm=raw_norm)
