"""Monte Carlo check of the accidental-coincidence law.

Two independent sources each emit strings of n symbols, every symbol drawn
from the same categorical distribution {lambda_k}.  The probability that
two independent strings agree at every position is (sum lambda_k^2)^n,
i.e. K^(-n) in terms of the Schmidt number.  This module estimates that
probability empirically with a seedable generator so every report is
bit-reproducible.

Sampling is inverse-CDF on the cumulative weights, which keeps the draw a
single vectorized searchsorted regardless of spectrum length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .information import coincidence_probability
from .schmidt import _schmidt_number
from .util import validate_weights

# Most symbol pairs (trials * n, two draws each) one experiment may
# materialize: 100 times a 10^6-trial run at n = 4.
MAX_SYMBOL_PAIRS = 400_000_000


@dataclass(frozen=True)
class CoincidenceReport:
    """Outcome of one coincidence experiment.

    p_hat estimates p_theory = K^(-n_symbols); std_err is the binomial
    standard error sqrt(p_hat(1-p_hat)/trials).
    """

    n_symbols: int
    trials: int
    hits: int
    p_hat: float
    p_theory: float
    std_err: float
    seed: int


def _cumulative(w: np.ndarray) -> np.ndarray:
    cum = np.cumsum(w)
    # Guard the u ~ 1 edge against rounding in the cumulative sum.
    cum[-1] = 1.0
    return cum


def _draw(rng: np.random.Generator, cum: np.ndarray, shape) -> np.ndarray:
    return np.searchsorted(cum, rng.random(shape), side="right")


def sample_stream(weights, n: int, seed: int) -> np.ndarray:
    """Draw n independent symbols from the categorical distribution.

    Deterministic for a fixed seed; returns an integer index array.
    """
    if n < 1:
        raise DomainError(f"stream length must be >= 1, got {n}")
    cum = _cumulative(validate_weights(weights))
    rng = np.random.default_rng(seed)
    return _draw(rng, cum, n)


def run_coincidence_experiment(weights, n: int, trials: int, seed: int) -> CoincidenceReport:
    """Estimate the probability that two independent n-strings fully match.

    Each trial draws an n-string for each source; a hit requires agreement
    at every position.  p_theory is K^(-n) with K from the weights.
    Identical arguments produce a bit-identical report.  All draws are
    held at once, so trials * n is capped at MAX_SYMBOL_PAIRS.
    """
    if n < 1:
        raise DomainError(f"stream length must be >= 1, got {n}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    pairs = int(trials) * int(n)
    if pairs > MAX_SYMBOL_PAIRS:
        raise DomainError(f"trials * n = {pairs} exceeds the budget of "
                          f"{MAX_SYMBOL_PAIRS} symbol pairs")
    w = validate_weights(weights)
    cum = _cumulative(w)
    K = _schmidt_number(w)
    rng = np.random.default_rng(seed)
    first = _draw(rng, cum, (trials, n))
    second = _draw(rng, cum, (trials, n))
    hits = int(np.sum(np.all(first == second, axis=1)))
    p_hat = hits / trials
    return CoincidenceReport(
        n_symbols=int(n),
        trials=int(trials),
        hits=hits,
        p_hat=p_hat,
        p_theory=coincidence_probability(K, n),
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        seed=int(seed),
    )
