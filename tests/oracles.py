"""Independent numerical oracles used by the test suite.

These helpers deliberately avoid the library's own discretization path so
that convergence claims are checked against a second construction.
"""

import math

import numpy as np

from cvschmidt import analytic_mode, build_grid, density, schmidt_number_from_rho


def gauss_legendre_cell_joint(params, n, span):
    """Joint probability table with cell-averaged (not point-sampled) entries.

    Integrates the probability density over every grid cell with a 5-point
    Gauss-Legendre rule per axis, then renormalizes.  Unlike midpoint
    sampling of the wavefunction, the discretization error of this table
    decreases at a measurable rate under grid refinement, which makes it a
    usable probe of refinement behavior.
    """
    grid = build_grid(params, n, span=span)
    nodes, weights = np.polynomial.legendre.leggauss(5)
    # Map the rule from [-1, 1] onto each cell.
    x1 = grid.midpoints1[:, None] + 0.5 * grid.dx1 * nodes[None, :]
    x2 = grid.midpoints2[:, None] + 0.5 * grid.dx2 * nodes[None, :]
    values = density(params, x1.reshape(-1)[:, None], x2.reshape(-1)[None, :])
    values = values.reshape(n, 5, n, 5)
    cell = np.einsum("iajb,a,b->ij", values, weights, weights)
    cell *= 0.25 * grid.dx1 * grid.dx2
    return cell / cell.sum()


def analytic_mode_pair(params, k: int, x1, x2):
    """Paired modes (psi_k on axis 1, psi_k on axis 2) oriented for synthesis.

    For rho < 0 the axis-2 mode carries the factor (-1)^k so that
    sum_k sqrt(lambda_k) psi_k(x1) psi_k(x2) reproduces the wavefunction
    for either sign of the correlation.  Each mode comes from analytic_mode,
    independently of the library's one-walk analytic_modes.
    """
    K = schmidt_number_from_rho(params.rho)
    mode1 = analytic_mode(k, params.m1, params.sigma1, K, x1)
    mode2 = analytic_mode(k, params.m2, params.sigma2, K, x2)
    if params.rho < 0.0 and k % 2 == 1:
        mode2 = -mode2
    return mode1, mode2


def trapezoid_norm_error(values, x):
    """Absolute deviation of the trapezoid-rule norm of a sampled mode from 1."""
    return abs(float(np.trapezoid(np.asarray(values) ** 2, np.asarray(x))) - 1.0)


def plain_exp_density(params, x1, x2):
    """The bivariate normal density as one expression with full-size
    temporaries and one plain np.exp over the whole exponent: the reference
    that the library's in-place, block-masked evaluation must match bit for
    bit.  Returns a float for scalar input."""
    t1 = (np.asarray(x1, dtype=float) - params.m1) / params.sigma1
    t2 = (np.asarray(x2, dtype=float) - params.m2) / params.sigma2
    one_minus_r2 = (1.0 - params.rho) * (1.0 + params.rho)
    z = t1 * t1 - 2.0 * params.rho * t1 * t2 + t2 * t2
    norm = 2.0 * math.pi * params.sigma1 * params.sigma2 * math.sqrt(one_minus_r2)
    out = np.exp(-z / (2.0 * one_minus_r2)) / norm
    if out.ndim == 0:
        return float(out)
    return out
