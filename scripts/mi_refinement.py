"""Mutual-information error of the discretized Gaussian under refinement.

Compares two joint-table constructions against the closed-form value
log(K):

  midpoint   probabilities of the midpoint-sampled wavefunction; the error
             falls faster than any power of the spacing and lands on the
             box-truncation floor almost immediately,
  averaged   cell integrals of the density (5-point Gauss-Legendre per
             axis, the joint of tests/oracles.py); a second-order method
             whose error is still resolvable, so the expected factor-of-4
             decay per halving is visible.

Usage: python3 scripts/mi_refinement.py --span 8 --grids 50,100,200,400
"""

import argparse
import sys
from pathlib import Path

from cvschmidt import (
    GaussianParams,
    build_grid,
    sample_state,
    shannon_mi_gaussian,
    shannon_mi_numeric,
    wavefunction,
)

# The cell-averaged joint is the test suite's independent oracle.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import gauss_legendre_cell_joint  # noqa: E402


def midpoint_mi(params, n, span):
    grid = build_grid(params, n, span=span)
    state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
    return shannon_mi_numeric(state.probabilities())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--m1", type=float, default=1.0)
    parser.add_argument("--m2", type=float, default=-1.0)
    parser.add_argument("--sigma1", type=float, default=2.0)
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--span", type=float, default=8.0)
    parser.add_argument("--grids", default="50,100,200,400")
    args = parser.parse_args()

    params = GaussianParams(m1=args.m1, m2=args.m2, sigma1=args.sigma1,
                            sigma2=args.sigma2, rho=args.rho)
    exact = shannon_mi_gaussian(params.rho)
    print(f"log K = {exact!r}   (span = {args.span} sigma)")
    print("    n   |midpoint - logK|   |averaged - logK|   averaged ratio")
    previous = None
    for n in (int(g) for g in args.grids.split(",")):
        err_mid = abs(midpoint_mi(params, n, args.span) - exact)
        err_avg = abs(shannon_mi_numeric(gauss_legendre_cell_joint(params, n, args.span))
                      - exact)
        ratio = "" if previous is None else f"{previous / err_avg:14.2f}"
        print(f"{n:5d}   {err_mid:17.3e}   {err_avg:17.3e} {ratio}")
        previous = err_avg


if __name__ == "__main__":
    main()
