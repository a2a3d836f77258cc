"""The route table ``formulas.ROUTES``: which cells it fills, and that every filled cell agrees with the exact one.

The comparisons are generated from the table: each filled (route, ensemble)
cell is checked against the exact cell of its ensemble on a fixed (N, k)
grid, and the exact cell against ``page-curve --mode mc``.  A new cell is
compared without new test code, once the missing-cell lists below say it is
there.
"""

import math

import pytest

from gausspage import ensembles, stats
from gausspage.cli import ENSEMBLES, MODES, _SAMPLERS, main
from gausspage.formulas import ROUTES

ANALYTIC_ROUTES = tuple(route for route in MODES if route != "mc")
MISSING = {("exact", "number-conserving"), ("quadrature", "haar-pure"), ("quadrature", "number-conserving")}
NO_VARIANCE = {("exact", "haar-pure"), ("quadrature", "gaussian"), ("quadrature", "hamiltonian"),
               ("limit", "number-conserving")}

GRID = [(N, k) for N in range(8, 65) for k in range(1, N // 2 + 1)]
QUADRATURE_TOL = 1e-8  # criterion 2
# Largest gap between the exact and the limit cell on GRID, as a function of N, for the mean and the variance.
# Measured worst cases: Gaussian law N |gap| 0.0662 (mean) and 0.0129 (variance); Page |gap| 2.28e-3 (mean).
GAUSSIAN_LAW_GAP = (lambda N: 0.07 / N, lambda N: 0.014 / N)
LIMIT_GAP = {"gaussian": GAUSSIAN_LAW_GAP, "hamiltonian": GAUSSIAN_LAW_GAP, "haar-pure": (lambda N: 2.5e-3, None)}
MC_POINTS = [(8, 3), (10, 5)]
MC_SAMPLES, MC_SEED = 8_000, 4117


def test_missing_cells_and_variances_are_pinned():
    assert set(ROUTES) == {(r, e) for r in ANALYTIC_ROUTES for e in ENSEMBLES} - MISSING
    assert {cell for cell, (_, variance) in ROUTES.items() if variance is None} == NO_VARIANCE


def test_hamiltonian_follows_the_gaussian_law():
    # criterion 4: eigenstates of random quadratic Hamiltonians have the Haar Gaussian entropy law
    assert all(ROUTES[route, "hamiltonian"] == ROUTES[route, "gaussian"] for route in ANALYTIC_ROUTES
               if (route, "gaussian") in ROUTES)


def _gap_bounds(route, ens, N):
    if route == "quadrature":
        return QUADRATURE_TOL, QUADRATURE_TOL
    mean_gap, variance_gap = LIMIT_GAP[ens]
    return mean_gap(N), variance_gap(N) if variance_gap else None


@pytest.mark.parametrize(
    "route, ens", sorted(cell for cell in ROUTES if cell[0] != "exact" and ("exact", cell[1]) in ROUTES)
)
def test_cell_agrees_with_the_exact_cell(route, ens):
    exact, cell = ROUTES["exact", ens], ROUTES[route, ens]
    with_variance = exact[1] is not None and cell[1] is not None
    for N, k in GRID:
        mean_tol, variance_tol = _gap_bounds(route, ens, N)
        assert abs(cell[0](N, k) - exact[0](N, k)) <= mean_tol, (N, k)
        if with_variance:
            assert abs(cell[1](N, k) - exact[1](N, k)) <= variance_tol, (N, k)


def _mc_row(ens, N, k, capsys):
    argv = ["page-curve", "--mode", "mc", "--ensemble", ens, "--N", str(N), "--NA", str(k),
            "--samples", str(MC_SAMPLES), "--seed", str(MC_SEED)]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()[1:]
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("ens", [ens for ens in ENSEMBLES if ("exact", ens) in ROUTES])
def test_exact_cell_agrees_with_monte_carlo(ens, capsys):
    mean, variance = ROUTES["exact", ens]
    for N, k in MC_POINTS:
        row = _mc_row(ens, N, k, capsys)
        assert abs(float(row["value"]) - mean(N, k)) <= 3 * float(row["std_error"]), (N, k)
        if variance is not None:
            # the same blocks as the CLI row, for the standard error of its variance
            sampler = getattr(ensembles, _SAMPLERS[ens])
            est = stats.mc_estimate(lambda gen, count: sampler(N, k, count, gen), MC_SAMPLES, MC_SEED)
            assert (est.mean, math.sqrt(est.variance)) == (float(row["value"]), float(row["std"]))
            assert abs(est.variance - variance(N, k)) <= 3 * est.variance_std_error(), (N, k)
