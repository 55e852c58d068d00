"""The paper's claims about K as a dependence measure and about where
Schmidt and Shannon information agree, checked on discretized states.

Every amplitude function here is pointwise, as `sample_state` requires.
"""

import functools
import math

import numpy as np
import pytest

from cvschmidt import (
    GridSpec,
    decompose,
    rho_squared_from_K,
    sample_state,
    schmidt_number,
    shannon_mi_numeric,
)
from cvschmidt import discretize

# psi ~ exp(-x1^2 / 4 - (x2 - x1^2)^2 / (4 s^2)): x2 follows the parabola
# x1^2, so the two variables are dependent but, by the x1 -> -x1 symmetry,
# uncorrelated.
CURVED_GRID = GridSpec(n1=400, n2=400, lo1=-6.0, hi1=6.0, lo2=-6.0, hi2=14.0)
# s, rho_squared_from_K(K), numeric MI and log K (nats), to the digits shown.
CURVED = [
    (1.0, 0.501, 0.428, 0.348),
    (0.5, 0.728, 0.801, 0.651),
    (0.25, 0.875, 1.270, 1.041),
]


@functools.cache
def curved_state(s):
    # States are read-only, so the two tests of each s share one.
    return sample_state(lambda x1, x2: np.exp(-x1 ** 2 / 4 - (x2 - x1 ** 2) ** 2 / (4 * s * s)),
                        CURVED_GRID)


def pearson(state):
    """Pearson correlation of the grid midpoints under the joint amplitudes**2."""
    grid = state.grid
    p = state.probabilities()
    x1, x2 = grid.midpoints1, grid.midpoints2
    p1, p2 = p.sum(axis=1), p.sum(axis=0)
    d1, d2 = x1 - p1 @ x1, x2 - p2 @ x2
    cov = float(d1 @ p @ d2)
    return cov / math.sqrt(float(p1 @ d1 ** 2) * float(p2 @ d2 ** 2))


@pytest.mark.parametrize("s, rho_squared, mi, log_K", CURVED)
def test_uncorrelated_curved_state_is_dependent_by_K(s, rho_squared, mi, log_K):
    # Pearson's coefficient sees nothing; the K-based measure sees the
    # dependence, and it grows as the parabola narrows.
    state = curved_state(s)
    assert abs(pearson(state)) <= 1e-15
    K = schmidt_number(decompose(state).weights)
    assert rho_squared_from_K(K) == pytest.approx(rho_squared, abs=1e-3)
    assert math.log(K) == pytest.approx(log_K, abs=1e-3)


@pytest.mark.parametrize("s, rho_squared, mi, log_K", CURVED)
def test_curved_state_has_more_shannon_than_schmidt_information(s, rho_squared, mi, log_K):
    # Schmidt and Shannon information agree only for equal weights and for
    # Gaussians; this non-Gaussian state sits well above log K.
    state = curved_state(s)
    numeric = shannon_mi_numeric(state.probabilities())
    assert numeric == pytest.approx(mi, abs=1e-3)
    assert numeric - math.log(schmidt_number(decompose(state).weights)) >= 0.07


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n", [240, 300])
def test_equal_blocks_give_K_m_and_mutual_information_log_m(m, n):
    # m equal diagonal blocks, each a product state: the Schmidt weights are
    # m times 1/m, and the block index is all that the two sides share.
    n -= n % m
    grid = GridSpec(n1=n, n2=n, lo1=0.0, hi1=float(m), lo2=0.0, hi2=float(m))

    def blocks(x1, x2):
        inside = np.floor(x1) == np.floor(x2)
        return inside * np.exp(-(x1 % 1.0 - 0.5) ** 2) * np.exp(-3.0 * (x2 % 1.0 - 0.3) ** 2)

    state = sample_state(blocks, grid)
    spectrum = decompose(state)
    assert schmidt_number(spectrum.weights) == pytest.approx(m, abs=1e-12)
    np.testing.assert_allclose(spectrum.weights[:m], 1.0 / m, rtol=0.0, atol=1e-12)
    for mi in (shannon_mi_numeric(state.probabilities()),
               discretize._mutual_information(state.amplitudes, squared=True)):
        assert mi == pytest.approx(math.log(m), abs=1e-12)
