"""Jacobi-ensemble analytics for the restricted spectrum of [J]_A.

The N_A paired singular values x_i of the sub-block of a Haar-random
complex structure form a determinantal process on [0, 1] with projection
kernel K(x, y) = sum_j psi_j(x) psi_j(y) built from even-degree Jacobi
polynomials with symmetric weight exponent Delta = N_B - N_A:

    psi_j(x) = (1 - x^2)^{Delta/2} / sqrt(c_j) * P^{(Delta,Delta)}_{2j}(x),
    c_j = 2^{2 Delta} [(2j+Delta)!]^2 / ((2j)! (2j+2Delta)! (4j+2Delta+1)).

The psi_j are orthonormal on [0, 1] directly (verified at context build; no
interval rescaling is needed).  Averages of sum_i s(x_i) reduce to
one-dimensional integrals against the level density rho = K(x,x)/N_A.

By the quadratic transformation P^{(Delta,Delta)}_{2j}(x) ~ P^{(Delta,-1/2)}_j(t),
t = 2x^2 - 1 (Szego, Orthogonal Polynomials, 4.1), psi_j = 2^{Delta/2 + 3/4}
(1 - x^2)^{Delta/2} p_j(t) with p_j orthonormal for (1 - t)^Delta (1 + t)^{-1/2}.
One recurrence in t yields the psi_j a row at a time from psi_0, so K(x, x) is
a running sum in O(len(x)) memory and no degree x nodes table is built.

psi_i psi_j (i, j < j_max) is a polynomial of degree 4(j_max-1) + 2 Delta,
exact under n Gauss-Legendre nodes once 2n - 1 reaches it.  Integrals of
s(x) psi_i psi_j use ``special.unit_interval_rule(n)`` with n = 2 j_max +
Delta + 16 (rounded up to a multiple of 32 so cached rules are shared).
Only its n nodes on each of the two panels below x = 3/4 are exact for the
polynomial part; the n/2 nodes on each graded panel above are not (they are
exact to degree n - 1), and are accurate there only because the polynomial
varies slowly near x = 1.  So every s(x) integral rests on the check of n
against 2n, not on exactness.
``ctx.quadrature`` is one panel on [0, 1] at that order: it only meets
polynomial integrands (Gram matrix, K(x, x), K(z, x) K(z, y)), exactly.

This module holds only the kernel and its quadrature.  The finite-N variance
needs no kernel: it is the closed-form series ``formulas.variance_finite_N``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from gausspage.linalg import InvalidArgument
from gausspage.gstates import ConsistencyError, mode_entropy
from gausspage.special import QuadratureRule, gauss_legendre, jacobi_orthonormal, panel_rule, unit_interval_rule

ORTHONORMALITY_TOL = 1e-10
QUADRATURE_TOL = 1e-10  # |integral(2n) - integral(n)| that ends the order doubling
_MAX_DOUBLINGS = 6
_CHUNK_ELEMENTS = 1 << 20  # largest array of one density_cdf chunk, points x 24 nodes, in words


@dataclass(frozen=True)
class JacobiKernelCtx:
    """Immutable precomputed state for kernel/density evaluations."""

    n_a: int
    delta: int
    quadrature: QuadratureRule


def _rows(delta: int, x: np.ndarray, jmax: int) -> Iterator[np.ndarray]:
    """psi_0..psi_{jmax-1} at x, one row at a time (see the module docstring)."""
    # psi_0 = (1 - x^2)^{Delta/2} / sqrt(c_0), with c_0 = sqrt(pi) Delta! / (2 Gamma(Delta + 3/2))
    scale = math.sqrt(2.0 / math.sqrt(math.pi)) * math.exp(0.5 * (math.lgamma(delta + 1.5) - math.lgamma(delta + 1.0)))
    return jacobi_orthonormal(jmax, delta, -0.5, 2.0 * x * x - 1.0, scale * (1.0 - x * x) ** (0.5 * delta))


def wavefunctions(ctx: JacobiKernelCtx, x: np.ndarray, jmax: int | None = None) -> np.ndarray:
    """psi_0..psi_{jmax-1} evaluated at x, shape (jmax, len(x)); jmax (default N_A) may exceed N_A."""
    x = np.asarray(x, dtype=float)
    jmax = ctx.n_a if jmax is None else jmax
    out = np.empty((jmax, x.size))
    for j, row in enumerate(_rows(ctx.delta, x, jmax)):
        out[j] = row
    return out


def _panel_order(jmax: int, delta: int) -> int:
    """Order n of the graded rule for s(x) psi_i psi_j, i, j < jmax (see the module docstring)."""
    return 32 * math.ceil((2 * jmax + delta + 16) / 32)


def build_kernel_ctx(n_a: int, delta: int) -> JacobiKernelCtx:
    """Precompute the quadrature; verifies orthonormality."""
    if n_a < 1 or delta < 0:
        raise InvalidArgument(f"need N_A >= 1 and Delta >= 0, got ({n_a}, {delta})")
    ctx = JacobiKernelCtx(n_a=n_a, delta=delta, quadrature=panel_rule(_panel_order(n_a, delta), [(0.0, 1.0)]))
    psi = wavefunctions(ctx, ctx.quadrature.nodes)
    gram = (psi * ctx.quadrature.weights) @ psi.T
    err = np.max(np.abs(gram - np.eye(n_a)))
    if err > ORTHONORMALITY_TOL:
        raise ConsistencyError(f"wavefunction orthonormality violated: {err:.3e}")
    return ctx


def kernel(ctx: JacobiKernelCtx, x, y) -> float | np.ndarray:
    """Projection kernel K(x, y) = sum_{j<N_A} psi_j(x) psi_j(y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    kx = wavefunctions(ctx, x)
    ky = kx if y is x or (x.shape == y.shape and np.array_equal(x, y)) else wavefunctions(ctx, y)
    val = np.einsum("ja,jb->ab", kx, ky)
    return float(val[0, 0]) if val.size == 1 else val


def level_density(ctx: JacobiKernelCtx, x) -> float | np.ndarray:
    """Level density rho(x) = K(x, x)/N_A, normalized to unit integral."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = sum(row * row for row in _rows(ctx.delta, x, ctx.n_a)) / ctx.n_a  # K(x, x), summed row by row
    return float(val[0]) if val.size == 1 else val


def density_cdf(ctx: JacobiKernelCtx, grid: np.ndarray) -> np.ndarray:
    """CDF of the level density at the given sorted grid points.

    A 24-node Gauss-Legendre rule per interval from 0 through the grid, in
    chunks whose largest array, points x 24 nodes, stays below 2^20 words,
    summed cumulatively; accurate to quadrature level for one-sample KS tests.
    """
    base = gauss_legendre(24)
    edges = np.concatenate([[0.0], np.asarray(grid, dtype=float)])
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pieces = np.empty(half.size)
    chunk = max(1, _CHUNK_ELEMENTS // base.nodes.size)
    for start in range(0, half.size, chunk):
        h, m = half[start : start + chunk, None], mid[start : start + chunk, None]
        rho = level_density(ctx, (h * base.nodes + m).ravel())
        pieces[start : start + chunk] = h[:, 0] * (rho.reshape(-1, base.nodes.size) @ base.weights)
    return np.cumsum(pieces)


def _entropy_integral(ctx: JacobiKernelCtx, order: int) -> float:
    rule = unit_interval_rule(order)
    return ctx.n_a * rule.integrate(mode_entropy(rule.nodes) * level_density(ctx, rule.nodes))


def _converged(integral, order: int, what: str) -> float:
    """integral(2n) once it is within QUADRATURE_TOL of integral(n), doubling n from order."""
    value = integral(order)
    for _ in range(_MAX_DOUBLINGS):
        order *= 2
        refined = integral(order)
        if abs(refined - value) < QUADRATURE_TOL:
            return refined
        value = refined
    raise ConsistencyError(f"{what} quadrature did not converge")


def average_entropy_quadrature(ctx: JacobiKernelCtx) -> float:
    """Ensemble-average entropy N_A * integral of s(x) rho(x) dx."""
    order = _panel_order(ctx.n_a, ctx.delta)
    return _converged(lambda n: _entropy_integral(ctx, n), order, "entropy")


def s_ij_quadrature(ctx: JacobiKernelCtx, i: int, j: int) -> float:
    """Matrix element s_ij = integral of s(x) psi_i(x) psi_j(x) dx.

    The basis index may exceed N_A, as j >= N_A does in the variance series.
    """
    if i < 0 or j < 0:
        raise InvalidArgument("indices must be non-negative")
    jmax = max(i, j) + 1

    def integral(order: int) -> float:
        rule = unit_interval_rule(order)
        psi = {k: row for k, row in enumerate(_rows(ctx.delta, rule.nodes, jmax)) if k in (i, j)}  # two rows held
        return rule.integrate(mode_entropy(rule.nodes) * psi[i] * psi[j])

    return _converged(integral, _panel_order(jmax, ctx.delta), "matrix-element")
