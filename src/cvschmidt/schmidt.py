"""Schmidt spectrum extraction for discretized bipartite states.

For a matrix, the Schmidt decomposition is the singular value
decomposition: weights are squared singular values and the paired mode
columns are the left/right singular vectors.  A dense SVD is exact for
this purpose and stays trivially fast at the few-hundred-point grids this
package targets, so no iterative or partial factorization is used.

Sign fixing: each weight's mode pair is flipped jointly so that the
axis-1 column's largest-magnitude entry is positive.  A joint flip leaves
the reconstruction and all weight-derived quantities unchanged; anchoring
on one side only is deliberate, since no convention can force both
columns positive-dominant for every real matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import DiscretizedState, GridSpec
from .errors import DomainError, NumericalError
from .util import log_divisor, validate_weights


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Sorted Schmidt weights with paired discrete modes.

    Attributes
    ----------
    weights : ndarray, shape (r,)
        Non-increasing, nonnegative, summing to 1 for a normalized input.
    modes1 : ndarray, shape (n1, r)
        Column k samples the axis-1 mode of weight k at grid midpoints;
        columns are orthonormal in the discrete inner product.
    modes2 : ndarray, shape (n2, r)
        Likewise for axis 2.
    grid : GridSpec
        Grid the state was sampled on.
    """

    weights: np.ndarray
    modes1: np.ndarray
    modes2: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m1 = np.asarray(self.modes1, dtype=float)
        m2 = np.asarray(self.modes2, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "modes1", m1)
        object.__setattr__(self, "modes2", m2)
        if w.ndim != 1 or m1.shape != (self.grid.n1, w.size) or m2.shape != (self.grid.n2, w.size):
            raise DomainError("mode matrices must have one column per weight")
        if np.any(np.diff(w) > 1e-12):
            raise DomainError("weights must be sorted non-increasing")

    @property
    def rank(self) -> int:
        return int(self.weights.size)


def decompose(state: DiscretizedState) -> SchmidtSpectrum:
    """Schmidt decomposition of a normalized discretized state.

    Returns squared singular values as weights (they sum to 1 within
    1e-12) and sign-fixed singular vector columns as modes.
    """
    if not state.norm_applied:
        raise DomainError("state must be normalized before decomposition")
    try:
        u, s, vt = np.linalg.svd(state.amplitudes, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    weights = s * s
    v = vt.T
    # Joint sign flip per column; anchor on the axis-1 mode.
    anchor = np.argmax(np.abs(u), axis=0)
    flip = u[anchor, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SchmidtSpectrum(weights=weights, modes1=u, modes2=v, grid=state.grid)


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


def reconstruct(spectrum: SchmidtSpectrum, rank: int) -> DiscretizedState:
    """Rank-truncated synthesis sum_{k<rank} sqrt(lambda_k) u_k x v_k.

    The result is not renormalized: its Frobenius distance to the original
    matrix is the truncated tail, squared residual = sum_{k>=rank} lambda_k.
    """
    if not 1 <= rank <= spectrum.rank:
        raise DomainError(f"rank must be in [1, {spectrum.rank}], got {rank}")
    scale = np.sqrt(spectrum.weights[:rank])
    matrix = (spectrum.modes1[:, :rank] * scale) @ spectrum.modes2[:, :rank].T
    return DiscretizedState(
        grid=spectrum.grid,
        amplitudes=matrix,
        norm_applied=False,
        raw_norm=float(np.linalg.norm(matrix)),
    )
