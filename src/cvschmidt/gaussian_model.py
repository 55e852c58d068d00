"""Closed-form model of a correlated bivariate Gaussian pure state.

A bivariate normal density p(x1, x2) defines the real nonnegative
wavefunction psi = sqrt(p).  Everything about that state is available in
closed form: the Schmidt spectrum is a geometric progression, the Schmidt
modes are Hermite functions, and the entanglement entropy and mutual
information reduce to elementary expressions in the Schmidt number

    K = 1 / sqrt(1 - rho^2).

This module evaluates those closed forms.  The numerical pipeline
(`discretize` + `schmidt`) is validated against them, so precision here is
treated as a contract: formulas are written in cancellation-free form and
the mode normalization constants are derived analytically rather than
computed by quadrature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .util import log_divisor

# Mode sums are cut off below double precision relevance.
WEIGHT_FLOOR = 1e-15
MAX_MODES = 512


@dataclass(frozen=True)
class GaussianParams:
    """Parameters of the bivariate normal density.

    Attributes
    ----------
    m1, m2 : float
        Means of the two variables.
    sigma1, sigma2 : float
        Standard deviations, strictly positive.
    rho : float
        Pearson correlation coefficient, strictly inside (-1, 1); the
        density is singular at |rho| = 1.
    """

    m1: float = 0.0
    m2: float = 0.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        for name in ("m1", "m2", "sigma1", "sigma2", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.sigma1 > 0.0 and self.sigma2 > 0.0):
            raise DomainError("sigma1 and sigma2 must be positive")
        if not abs(self.rho) < 1.0:
            raise DomainError("rho must lie strictly inside (-1, 1)")

    @property
    def schmidt_number(self) -> float:
        return schmidt_number_from_rho(self.rho)


@dataclass(frozen=True)
class GeometricSpectrum:
    """Geometric Schmidt spectrum lambda_k = lambda0 * q**k.

    lambda0 = 2/(K+1) and q = (K-1)/(K+1), so the full series sums to 1.
    """

    K: float
    lambda0: float
    q: float

    @classmethod
    def from_K(cls, K: float) -> "GeometricSpectrum":
        if not K >= 1.0:
            raise DomainError(f"Schmidt number must be >= 1, got {K}")
        return cls(K=K, lambda0=2.0 / (K + 1.0), q=(K - 1.0) / (K + 1.0))

    def tail_mass(self, count: int) -> float:
        """Total weight beyond the first `count` terms, q**count exactly."""
        return self.q**count


def density(params: GaussianParams, x1, x2):
    """Bivariate normal density p(x1, x2).

    Accepts scalars or numpy arrays (broadcast together); returns a float
    for scalar input.  Integrates to 1 over the plane.
    """
    t1 = (np.asarray(x1, dtype=float) - params.m1) / params.sigma1
    t2 = (np.asarray(x2, dtype=float) - params.m2) / params.sigma2
    one_minus_r2 = (1.0 - params.rho) * (1.0 + params.rho)
    z = t1 * t1 - 2.0 * params.rho * t1 * t2 + t2 * t2
    norm = 2.0 * math.pi * params.sigma1 * params.sigma2 * math.sqrt(one_minus_r2)
    out = np.exp(-z / (2.0 * one_minus_r2)) / norm
    if out.ndim == 0:
        return float(out)
    return out


def wavefunction(params: GaussianParams, x1, x2):
    """Real nonnegative amplitude sqrt(density)."""
    return np.sqrt(density(params, x1, x2))


def schmidt_number_from_rho(rho: float) -> float:
    """Schmidt number K = 1/sqrt(1 - rho^2); K = 1 iff rho = 0."""
    if not abs(rho) < 1.0:
        raise DomainError("rho must lie strictly inside (-1, 1)")
    return 1.0 / math.sqrt((1.0 - rho) * (1.0 + rho))


def rho_squared_from_K(K: float) -> float:
    """Squared correlation rho^2 = 1 - 1/K^2, the inverse map up to sign."""
    if not K >= 1.0:
        raise DomainError(f"Schmidt number must be >= 1, got {K}")
    return (K - 1.0) * (K + 1.0) / (K * K)


def analytic_weights(K: float, count: int) -> list[float]:
    """First `count` Schmidt weights [lambda0, lambda0*q, ...].

    Strictly decreasing when K > 1; [1, 0, 0, ...] at K = 1.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    spec = GeometricSpectrum.from_K(K)
    return [spec.lambda0 * spec.q**k for k in range(count)]


def truncated_weights(K: float, tail_mass: float = 1e-12) -> list[float]:
    """Geometric weights truncated once the remaining tail is below `tail_mass`.

    The residual mass is folded into the last entry so the result sums to 1
    within floating-point accuracy; the bias is below statistical resolution
    for any sampling use.
    """
    spec = GeometricSpectrum.from_K(K)
    if spec.q == 0.0:
        return [1.0]
    if not 0.0 < tail_mass < 1.0:
        raise DomainError(f"tail_mass must be in (0, 1), got {tail_mass}")
    count = max(1, math.ceil(math.log(tail_mass) / math.log(spec.q)))
    weights = analytic_weights(K, count)
    weights[-1] += 1.0 - math.fsum(weights)
    return weights


def hermite_functions(u):
    """Yield the orthonormal Hermite functions h_0(u), h_1(u), ... without end.

    h_k is orthonormal with weight exp(-u^2/2) and is evaluated by the scaled
    three-term recurrence

        h_0 = pi^(-1/4) exp(-u^2/2)
        h_{k+1} = sqrt(2/(k+1)) u h_k - sqrt(k/(k+1)) h_{k-1}

    which carries the Gaussian factor through every step, so intermediate
    values stay inside double range up to k of several hundred where the
    raw Hermite polynomials would overflow near k ~ 160.  Items are arrays
    shaped like u (0-d for scalar u); each step costs one pass over u.
    """
    u = np.asarray(u, dtype=float)
    h_prev = np.zeros_like(u)
    h = math.pi ** (-0.25) * np.exp(-0.5 * u * u)
    for j in itertools.count():
        yield h
        h, h_prev = math.sqrt(2.0 / (j + 1)) * u * h - math.sqrt(j / (j + 1)) * h_prev, h


def hermite_function(k: int, u):
    """Orthonormal Hermite function h_k(u), item k of `hermite_functions`."""
    if k < 0:
        raise DomainError(f"mode index must be >= 0, got {k}")
    h = next(itertools.islice(hermite_functions(u), k, None))
    if h.ndim == 0:
        return float(h)
    return h


def _mode_argument(m: float, sigma: float, K: float, x):
    """Scaled coordinate u and prefactor with psi_k(x) = prefactor * h_k(u)."""
    u = ((np.asarray(x, dtype=float) - m) / sigma) * math.sqrt(0.5 * K)
    return u, (K / (2.0 * sigma * sigma)) ** 0.25


def analytic_mode(k: int, m: float, sigma: float, K: float, x):
    """Orthonormal Schmidt mode psi_k of one axis, evaluated at x.

    psi_k(x) = (K/(2 sigma^2))^(1/4) h_k(u) with u = ((x-m)/sigma) sqrt(K/2),
    normalized so the integral of psi_k^2 over the line is 1.
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if not K >= 1.0:
        raise DomainError(f"Schmidt number must be >= 1, got {K}")
    u, prefactor = _mode_argument(m, sigma, K, x)
    return prefactor * hermite_function(k, u)


def analytic_mode_pair(params: GaussianParams, k: int, x1, x2):
    """Paired modes (psi_k on axis 1, psi_k on axis 2) oriented for synthesis.

    For rho < 0 the axis-2 mode carries the factor (-1)^k so that
    sum_k sqrt(lambda_k) psi_k(x1) psi_k(x2) reproduces the wavefunction
    for either sign of the correlation.
    """
    K = schmidt_number_from_rho(params.rho)
    mode1 = analytic_mode(k, params.m1, params.sigma1, K, x1)
    mode2 = analytic_mode(k, params.m2, params.sigma2, K, x2)
    if params.rho < 0.0 and k % 2 == 1:
        mode2 = -mode2
    return mode1, mode2


def analytic_modes(params: GaussianParams, axis: int, x):
    """Yield the modes psi_0, psi_1, ... of one axis (1 or 2) at the points x.

    Item k equals analytic_mode_pair(params, k, ...)[axis - 1] bit for bit,
    but one recurrence walk serves every k, so the first `count` modes cost
    `count` steps instead of count^2 / 2.
    """
    K = schmidt_number_from_rho(params.rho)
    m, sigma = (params.m1, params.sigma1) if axis == 1 else (params.m2, params.sigma2)
    u, prefactor = _mode_argument(m, sigma, K, x)
    flip_odd = axis == 2 and params.rho < 0.0
    for k, h in enumerate(hermite_functions(u)):
        mode = prefactor * h
        yield -mode if flip_odd and k % 2 == 1 else mode


def synthesize_wavefunction(
    params: GaussianParams,
    x1,
    x2,
    sqrt_weight_floor: float = 1e-12,
    max_modes: int = MAX_MODES,
):
    """Truncated Schmidt synthesis sum_k sqrt(lambda_k) psi_k(x1) psi_k(x2).

    Terms are added until sqrt(lambda_k) drops below `sqrt_weight_floor` or
    `max_modes` terms have been used.  Converges to wavefunction(x1, x2); the
    truncation error is bounded by the remaining sqrt-weight tail times the
    mode amplitude bound.
    """
    K = schmidt_number_from_rho(params.rho)
    spec = GeometricSpectrum.from_K(K)
    u1, pref1 = _mode_argument(params.m1, params.sigma1, K, x1)
    u2, pref2 = _mode_argument(params.m2, params.sigma2, K, x2)
    if params.rho < 0.0:
        # h_k(-u) = (-1)^k h_k(u) gives the axis-2 orientation for rho < 0.
        u2 = -u2
    sqrt_q = math.sqrt(spec.q)
    sqrt_lam = math.sqrt(spec.lambda0)

    total = np.zeros(np.broadcast(u1, u2).shape)
    modes = zip(hermite_functions(u1), hermite_functions(u2))
    for _, (h1, h2) in zip(range(max_modes), modes):
        if sqrt_lam < sqrt_weight_floor:
            break
        total = total + sqrt_lam * (pref1 * h1) * (pref2 * h2)
        sqrt_lam *= sqrt_q
        if sqrt_lam == 0.0:
            break
    if total.ndim == 0:
        return float(total)
    return total


def closed_form_entropy(K: float, log_base=math.e) -> float:
    """Entanglement entropy of the geometric spectrum.

    S = log((K+1)/2) + ((K-1)/2) log((K+1)/(K-1)), written in log1p form to
    stay accurate near K = 1, where the limit is 0.
    """
    if not K >= 1.0:
        raise DomainError(f"Schmidt number must be >= 1, got {K}")
    divisor = log_divisor(log_base)
    if K == 1.0:
        return 0.0
    half = 0.5 * (K - 1.0)
    s_nats = math.log1p(half) + half * math.log1p(1.0 / half)
    return s_nats / divisor


def shannon_mi_gaussian(rho: float, log_base=math.e) -> float:
    """Mutual information of the bivariate normal, log(K) in the given base.

    Equals the Schmidt information per symbol pair; 0 at rho = 0, even in
    rho, and computed as -(1/2) log(1 - rho^2) without cancellation.
    """
    if not abs(rho) < 1.0:
        raise DomainError("rho must lie strictly inside (-1, 1)")
    nats = -0.5 * (math.log1p(-rho) + math.log1p(rho))
    return max(nats, 0.0) / log_divisor(log_base)
