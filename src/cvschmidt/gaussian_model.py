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
from .util import log_divisor, require_count, require_schmidt_number

# Mode sums stop once sqrt(lambda_k) falls below this floor or after this
# many terms; sampling spectra stop once the geometric tail is below
# _TAIL_MASS, and may have at most _MAX_TRUNCATED_WEIGHTS entries (a Python
# list of about 32 MB, reached near K = 7.2e4, i.e. rho = 1 - 9.5e-11).
_SQRT_WEIGHT_FLOOR = 1e-12
_MAX_MODES = 512
_TAIL_MASS = 1e-12
_MAX_TRUNCATED_WEIGHTS = 1_000_000


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
        _require_rho(self.rho)

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
        require_schmidt_number(K)
        return cls(K=K, lambda0=2.0 / (K + 1.0), q=(K - 1.0) / (K + 1.0))


def density(params: GaussianParams, x1, x2):
    """Bivariate normal density p(x1, x2).

    Accepts scalars or numpy arrays (broadcast together); returns a float
    for scalar input.  Integrates to 1 over the plane.
    """
    out = _density_array(params, x1, x2)
    if out.ndim == 0:
        return float(out)
    return out


def wavefunction(params: GaussianParams, x1, x2):
    """Real nonnegative amplitude sqrt(density)."""
    out = _density_array(params, x1, x2)
    np.sqrt(out, out=out)
    return out[()] if out.ndim == 0 else out


@np.errstate(over="ignore", invalid="ignore")
def _density_array(params: GaussianParams, x1, x2) -> np.ndarray:
    """The density as an array of the broadcast shape.

    Only the output is full-size: the exponent is built in it in place, in
    the order exp(-(t1^2 - 2 rho t1 t2 + t2^2) / (2 (1 - rho^2))) / norm
    evaluates, with -z / c computed as z / -c, which IEEE arithmetic rounds
    identically.

    A call whose exponents all lie at or above -708 takes a plain exp; any
    other call takes it only where the exponent is at least -746 and clamps
    the rest to 0.0, which is what exp returns for them, so the bits are
    those of one plain exp.  exp costs ~1 ns per normal result but ~20 ns
    per result that underflows to 0.0, so on a highly correlated grid the
    masked exp is the faster one; `sample_state` calls once per row block,
    so the choice is made per block.

    Overflow and invalid operations raise no warning: an overflowing
    exponent gives exp(-inf) = 0.0, the density's underflowed value, and
    the inf or NaN cells of parameters at the float limits are returned as
    they are (`sample_state` rejects them).
    """
    t1 = (np.asarray(x1, dtype=float) - params.m1) / params.sigma1
    t2 = (np.asarray(x2, dtype=float) - params.m2) / params.sigma2
    one_minus_r2 = (1.0 - params.rho) * (1.0 + params.rho)
    norm = 2.0 * math.pi * params.sigma1 * params.sigma2 * math.sqrt(one_minus_r2)
    out = np.empty(np.broadcast_shapes(t1.shape, t2.shape))
    np.multiply(2.0 * params.rho * t1, t2, out=out)
    np.subtract(t1 * t1, out, out=out)
    np.add(out, t2 * t2, out=out)
    np.divide(out, -(2.0 * one_minus_r2), out=out)
    if out.min(initial=0.0) >= -708.0:
        np.exp(out, out=out)
    else:
        # exp rounds to 0.0 below about -745.13, so clamping the skipped
        # exponents to 0.0 gives its bits; NaN fails the mask and survives
        # the clamp, as it survives exp.
        np.exp(out, out=out, where=out >= -746.0)
        np.maximum(out, 0.0, out=out)
    np.divide(out, norm, out=out)
    return out


def _require_rho(rho: float) -> None:
    if not abs(rho) < 1.0:
        raise DomainError("rho must lie strictly inside (-1, 1)")


def schmidt_number_from_rho(rho: float) -> float:
    """Schmidt number K = 1/sqrt(1 - rho^2); K = 1 iff rho = 0."""
    _require_rho(rho)
    return 1.0 / math.sqrt((1.0 - rho) * (1.0 + rho))


def rho_squared_from_K(K: float) -> float:
    """Squared correlation rho^2 = 1 - 1/K^2, the inverse map up to sign."""
    require_schmidt_number(K)
    return (K - 1.0) * (K + 1.0) / (K * K)


def analytic_weights(K: float, count: int) -> list[float]:
    """First `count` Schmidt weights [lambda0, lambda0*q, ...].

    Strictly decreasing when K > 1; [1, 0, 0, ...] at K = 1.
    """
    require_count(count)
    spec = GeometricSpectrum.from_K(K)
    return [spec.lambda0 * spec.q**k for k in range(count)]


def truncated_weights(K: float) -> list[float]:
    """Geometric weights truncated once the remaining tail is below _TAIL_MASS.

    The residual mass is folded into the last entry so the result sums to 1
    within floating-point accuracy; the bias is below statistical resolution
    for any sampling use.  A K that needs more than _MAX_TRUNCATED_WEIGHTS
    entries is rejected with DomainError before anything is allocated.
    """
    spec = GeometricSpectrum.from_K(K)
    if spec.q == 0.0:
        return [1.0]
    # q rounds to 1 (no finite count) once K passes ~1e16.
    count = (max(1, math.ceil(math.log(_TAIL_MASS) / math.log(spec.q)))
             if spec.q < 1.0 else math.inf)
    if count > _MAX_TRUNCATED_WEIGHTS:
        raise DomainError(f"K = {K!r} needs {count} weights to leave a tail below "
                          f"{_TAIL_MASS!r}, above the budget of {_MAX_TRUNCATED_WEIGHTS}")
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
    """Scaled coordinate u and prefactor with psi_k(x) = prefactor * h_k(u).

    A sigma so small that K / (2 sigma^2) is not finite (2 sigma^2 underflows
    to 0, or K / (2 sigma^2) overflows: sigma below about 5e-155 sqrt(K))
    raises DomainError.
    """
    twice_variance = 2.0 * sigma * sigma
    ratio = K / twice_variance if twice_variance > 0.0 else math.inf
    if ratio == math.inf:
        raise DomainError(f"sigma = {sigma!r} is too small: the mode prefactor "
                          f"(K / (2 sigma^2))^(1/4) is not finite")
    u = ((np.asarray(x, dtype=float) - m) / sigma) * math.sqrt(0.5 * K)
    return u, ratio ** 0.25


def analytic_mode(k: int, m: float, sigma: float, K: float, x):
    """Orthonormal Schmidt mode psi_k of one axis, evaluated at x.

    psi_k(x) = (K/(2 sigma^2))^(1/4) h_k(u) with u = ((x-m)/sigma) sqrt(K/2),
    normalized so the integral of psi_k^2 over the line is 1.
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    require_schmidt_number(K)
    u, prefactor = _mode_argument(m, sigma, K, x)
    return prefactor * hermite_function(k, u)


def analytic_modes(params: GaussianParams, axis: int, x):
    """Yield the modes psi_0, psi_1, ... of one axis (1 or 2) at the points x.

    Item k is analytic_mode(k, m, sigma, K, x) of that axis bit for bit,
    except that for rho < 0 the odd modes of axis 2 are negated, so that
    sum_k sqrt(lambda_k) psi_k(x1) psi_k(x2) reproduces the wavefunction for
    either sign of the correlation.  One recurrence walk serves every k, so
    the first `count` modes cost `count` steps instead of count^2 / 2.  Any
    other axis raises DomainError when the first mode is requested.
    """
    if axis not in (1, 2):
        raise DomainError(f"axis must be 1 or 2, got {axis!r}")
    K = schmidt_number_from_rho(params.rho)
    m, sigma = (params.m1, params.sigma1) if axis == 1 else (params.m2, params.sigma2)
    u, prefactor = _mode_argument(m, sigma, K, x)
    flip_odd = axis == 2 and params.rho < 0.0
    for k, h in enumerate(hermite_functions(u)):
        mode = prefactor * h
        yield -mode if flip_odd and k % 2 == 1 else mode


def synthesize_wavefunction(params: GaussianParams, x1, x2):
    """Truncated Schmidt synthesis sum_k sqrt(lambda_k) psi_k(x1) psi_k(x2).

    Terms are added until sqrt(lambda_k) drops below _SQRT_WEIGHT_FLOOR or
    _MAX_MODES terms have been used.  Converges to wavefunction(x1, x2); the truncation
    error is bounded by the remaining sqrt-weight tail times the mode
    amplitude bound.
    """
    spec = GeometricSpectrum.from_K(params.schmidt_number)
    sqrt_q = math.sqrt(spec.q)
    sqrt_lam = math.sqrt(spec.lambda0)

    total = np.zeros(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
    modes = zip(analytic_modes(params, 1, x1), analytic_modes(params, 2, x2))
    for _, (mode1, mode2) in zip(range(_MAX_MODES), modes):
        if sqrt_lam < _SQRT_WEIGHT_FLOOR:
            break
        total = total + sqrt_lam * mode1 * mode2
        sqrt_lam *= sqrt_q
    if total.ndim == 0:
        return float(total)
    return total


def closed_form_entropy(K: float, log_base=math.e) -> float:
    """Entanglement entropy of the geometric spectrum.

    S = log((K+1)/2) + ((K-1)/2) log((K+1)/(K-1)), written in log1p form to
    stay accurate near K = 1, where the limit is 0.
    """
    require_schmidt_number(K)
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
    _require_rho(rho)
    nats = -0.5 * (math.log1p(-rho) + math.log1p(rho))
    return max(nats, 0.0) / log_divisor(log_base)
