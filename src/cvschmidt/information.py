"""Schmidt information and coincidence-probability calculus.

For n perfectly correlated symbol pairs drawn from a spectrum with Schmidt
number K, the accidental all-match probability is K^(-n), the information
content is n log K, and the equivalent equiprobable-microstate count is
W = K^n.  W outgrows double range around n ln K ~ 700, so it is carried in
log space past that point, with an explicit flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .util import _LN2, log_divisor, require_schmidt_number, require_symbol_count

# Past this, exp(x) exceeds double range (overflow near 709.8).
_LOG_SPACE_THRESHOLD = 700.0


@dataclass(frozen=True)
class InfoReport:
    """All derived information quantities for one (K, n_symbols) pair.

    I_nats = ln W and p_coincidence = 1/W always hold; when `w_log_space`
    is true the W field stores ln W (so it equals I_nats) and
    p_coincidence underflows toward 0.
    """

    K: float
    n_symbols: int
    I_bits: float
    I_nats: float
    W: float
    p_coincidence: float
    w_log_space: bool = False


def _validate(K: float, n: int) -> None:
    require_schmidt_number(K)
    require_symbol_count(n, K)


def coincidence_probability(K: float, n: int) -> float:
    """Accidental coincidence probability K**(-n) for n independent pairs."""
    _validate(K, n)
    return float(K) ** (-int(n))


def schmidt_information(K: float, n: int, log_base=math.e) -> float:
    """Information n*log(K) in the requested base; 0 iff K = 1."""
    _validate(K, n)
    return n * math.log(K) / log_divisor(log_base)


def effective_microstates(K: float, n: int) -> tuple[float, bool]:
    """Equivalent equiprobable-state count W = K**n, log-space guarded.

    Returns (K**n, False) while representable; (n*ln K, True) once the
    direct value would overflow double range.
    """
    _validate(K, n)
    ln_w = n * math.log(K)
    if ln_w > _LOG_SPACE_THRESHOLD:
        return ln_w, True
    return float(K) ** int(n), False


def info_report(K: float, n_symbols: int) -> InfoReport:
    """Assemble the full InfoReport for one spectrum and sample size."""
    w, log_space = effective_microstates(K, n_symbols)
    i_nats = n_symbols * math.log(K)
    return InfoReport(
        K=float(K),
        n_symbols=int(n_symbols),
        I_bits=i_nats / _LN2,
        I_nats=i_nats,
        W=w,
        p_coincidence=math.exp(-i_nats) if log_space else 1.0 / w,
        w_log_space=log_space,
    )
