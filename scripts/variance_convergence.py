#!/usr/bin/env python3
"""Finite-size convergence of the entropy variance at f = 1/2.

Prints the exact finite-N variance for N = 8..256 against the
thermodynamic limit (3/4 - log 2)/2, plus a Monte Carlo check at N = 8.
"""

import math

import numpy as np

from gausspage import ensembles, formulas
from gausspage.linalg import RngStream

LIMIT = (0.75 - math.log(2.0)) / 2.0

if __name__ == "__main__":
    print(f"# thermodynamic limit: {LIMIT:.10f}")
    print("N,variance_finite,excess")
    for n in (8, 16, 32, 64, 128, 256):
        v = formulas.variance_finite_N(n, n // 2)
        print(f"{n},{v:.10f},{v - LIMIT:.3e}")

    gen = RngStream(20210701).generator()
    s = ensembles.gaussian_entropies(8, 4, 200_000, gen)
    print(f"# MC check N=8: var = {np.var(s, ddof=1):.6f} "
          f"(exact {formulas.variance_finite_N(8, 4):.6f})")
