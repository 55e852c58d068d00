"""Thermal-oscillator bridge for the geometric Schmidt spectrum.

A geometric spectrum with ratio q is the level occupation of a harmonic
oscillator in a thermal state: q = exp(-beta) with beta the dimensionless
ratio of oscillator quantum to temperature.  Only that single ratio ever
appears, so no unit plumbing (hbar, omega, theta separately) exists here.

Maps provided: beta <-> K, beta -> rho^2, and the oscillator entropy,
which coincides with the entanglement entropy of the Gaussian state at
K = coth(beta/2).  All formulas use expm1/log1p style evaluation; the
naive forms lose precision for beta below ~1e-8 and overflow above ~700.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .util import log_divisor


def _require_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")


def beta_from_K(K: float) -> float:
    """Inverse temperature ratio beta = log((K+1)/(K-1)), so exp(-beta) = q.

    Defined for finite K > 1 only; beta diverges as K -> 1 (no
    entanglement) and would be 0, outside every map's domain, at K = inf.
    """
    if not 1.0 < K < math.inf:
        raise DomainError(f"beta is positive and finite only for 1 < K < inf, got {K}")
    return math.log1p(2.0 / (K - 1.0))


def K_from_beta(beta: float) -> float:
    """Schmidt number K = coth(beta/2); large for hot, -> 1 for cold.

    K ~ 2/beta leaves the float range for beta below ~1.1e-308, which is
    rejected.
    """
    _require_beta(beta)
    t = math.tanh(0.5 * beta)
    if t == 0.0 or (K := 1.0 / t) == math.inf:
        raise DomainError(f"K = coth(beta/2) overflows for beta = {beta}")
    return K


def rho_squared_from_beta(beta: float) -> float:
    """Squared correlation rho^2 = 1/cosh^2(beta/2).

    Evaluated as 4t/(1+t)^2 with t = exp(-beta), which stays in range for
    every positive finite beta.
    """
    _require_beta(beta)
    t = math.exp(-beta)
    return 4.0 * t / ((1.0 + t) * (1.0 + t))


def oscillator_entropy(beta: float, log_base=math.e) -> float:
    """Thermal oscillator entropy S = -log(1 - e^-beta) + beta/(e^beta - 1).

    Written with u = 1 - e^-beta = -expm1(-beta):  S = -log(u) + beta(1-u)/u,
    accurate for small beta and free of overflow for large beta.  Equals the
    geometric-spectrum entanglement entropy at K = coth(beta/2).
    """
    _require_beta(beta)
    divisor = log_divisor(log_base)
    u = -math.expm1(-beta)
    entropy = -math.log(u) + beta * (1.0 - u) / u
    return max(entropy, 0.0) / divisor
