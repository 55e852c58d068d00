"""Small helpers shared by the public modules."""

import math

import numpy as np

from .errors import DomainError

_LN2 = math.log(2.0)

# Floating-point dust from squaring singular values; anything more negative
# is treated as caller error.
_NEGATIVE_WEIGHT_TOL = -1e-14
_WEIGHT_SUM_TOL = 1e-10


def log_divisor(log_base) -> float:
    """Return the factor that converts natural log to the requested base.

    Accepted bases are 2 and e, given as the integer 2, the string "2",
    the string "e", or math.e.
    """
    if log_base == 2 or log_base == "2":
        return _LN2
    if log_base == "e" or log_base == math.e:
        return 1.0
    raise DomainError(f"log base must be 2 or 'e', got {log_base!r}")


def validate_weights(weights) -> np.ndarray:
    """Check a probability vector and return it as a flat float array.

    The vector must be non-empty and finite, with an exact sum within 1e-10
    of 1.  Entries down to -1e-14 are rounding dust and come back as 0;
    anything more negative raises DomainError.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise DomainError("weight list is empty")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    if np.any(w < _NEGATIVE_WEIGHT_TOL):
        raise DomainError(f"weight below {_NEGATIVE_WEIGHT_TOL} is not a rounding artifact")
    w = np.where(w < 0.0, 0.0, w)
    total = math.fsum(w)
    if total == 0.0:
        raise DomainError("weights are all zero")
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise DomainError(f"weights sum to {total!r}, not 1")
    return w


def format_float(value: float) -> str:
    """Serialize a float with 17 significant digits (lossless round trip)."""
    return format(float(value), ".17g")
