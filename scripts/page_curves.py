#!/usr/bin/env python3
"""Reproduce the main average-entropy curves.

Writes CSV tables (via the gausspage CLI machinery) comparing the exact
Gaussian ensemble average, the Haar-pure (Page) average, and Monte Carlo
estimates for a few system sizes, plus the quadrature curve at N = 40 and
the level density at (40, 10), which pin the Jacobi-kernel route's bits.
Output lands in scripts/out/.
"""

import pathlib
import sys

from gausspage.cli import main

OUT = pathlib.Path(__file__).resolve().parent / "out"


def run(tag, args):
    path = OUT / f"{tag}.csv"
    code = main(args + ["--out", str(path)])
    if code != 0:
        sys.exit(f"{tag}: exit code {code}")
    print(f"wrote {path}")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)

    # exact curves: Gaussian ensemble vs Haar-pure baseline
    for n in (10, 20, 40):
        run(f"gaussian_exact_N{n}", ["page-curve", "--N", str(n), "--ensemble", "gaussian", "--mode", "exact"])
        run(f"page_exact_N{n}", ["page-curve", "--N", str(n), "--ensemble", "haar-pure", "--mode", "exact"])

    # the Jacobi-kernel route, pinned to the bit: the quadrature curve and one level density
    run("gaussian_quadrature_N40", ["page-curve", "--N", "40", "--ensemble", "gaussian", "--mode", "quadrature"])
    run("density_N40_NA10", ["density", "--N", "40", "--NA", "10", "--points", "201"])

    # Monte Carlo cross-checks at moderate size
    run("gaussian_mc_N10", ["page-curve", "--N", "10", "--ensemble", "gaussian", "--mode", "mc", "--samples", "20000"])
    run(
        "hamiltonian_mc_N10",
        ["page-curve", "--N", "10", "--ensemble", "hamiltonian", "--mode", "mc", "--samples", "20000"],
    )
    run(
        "haar_pure_mc_N10",
        ["page-curve", "--N", "10", "--ensemble", "haar-pure", "--mode", "mc", "--samples", "5000"],
    )
