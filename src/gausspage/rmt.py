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

psi_i psi_j (i, j < j_max) is a polynomial of degree 4(j_max-1) + 2 Delta,
exact under n Gauss-Legendre nodes once 2n - 1 reaches it.  Integrals of
s(x) psi_i psi_j use 2 j_max + Delta + 16 nodes per graded panel (rounded up
to a multiple of 32 so cached rules are shared) and check n against 2n.
``ctx.quadrature`` is one panel on [0, 1] at that order: it only meets
polynomial integrands (Gram matrix, K(x, x), K(z, x) K(z, y)), exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gausspage.linalg import InvalidArgument
from gausspage.gstates import ConsistencyError, mode_entropy
from gausspage.special import QuadratureRule, gauss_legendre, jacobi_all, panel_rule, unit_interval_rule
from gausspage.formulas import log_gamma, s2_closed_form


class AccuracyError(RuntimeError):
    """Quadrature or series truncation failed to reach the target accuracy."""


ORTHONORMALITY_TOL = 1e-10
_MAX_DOUBLINGS = 6
_CHUNK_ELEMENTS = 1 << 22  # largest array of one density_cdf chunk, in words


def _log_c(j: int, delta: int) -> float:
    return (
        2.0 * delta * math.log(2.0)
        + 2.0 * log_gamma(2.0 * j + delta + 1.0)
        - log_gamma(2.0 * j + 1.0)
        - log_gamma(2.0 * j + 2.0 * delta + 1.0)
        - math.log(4.0 * j + 2.0 * delta + 1.0)
    )


@dataclass(frozen=True)
class JacobiKernelCtx:
    """Immutable precomputed state for kernel/density evaluations."""

    n_a: int
    delta: int
    log_c: np.ndarray  # log normalizations, length n_a
    quadrature: QuadratureRule

    @property
    def c(self) -> np.ndarray:
        return np.exp(self.log_c)


def wavefunctions(ctx: JacobiKernelCtx, x: np.ndarray, jmax: int | None = None) -> np.ndarray:
    """psi_0..psi_{jmax-1} evaluated at x, shape (jmax, len(x))."""
    if jmax is None:
        jmax = ctx.n_a
    x = np.asarray(x, dtype=float)
    poly = jacobi_all(2 * (jmax - 1), ctx.delta, ctx.delta, x)[0 :: 2]
    log_c = ctx.log_c[:jmax] if jmax <= ctx.n_a else np.array([_log_c(j, ctx.delta) for j in range(jmax)])
    weight = (1.0 - x * x) ** (0.5 * ctx.delta)
    return poly * weight[None, :] / np.exp(0.5 * log_c)[:, None]


def _panel_order(jmax: int, delta: int) -> int:
    """Nodes per panel for s(x) psi_i psi_j, i, j < jmax (see the module docstring)."""
    return 32 * math.ceil((2 * jmax + delta + 16) / 32)


def build_kernel_ctx(n_a: int, delta: int) -> JacobiKernelCtx:
    """Precompute normalizations and quadrature; verifies orthonormality."""
    if n_a < 1 or delta < 0:
        raise InvalidArgument(f"need N_A >= 1 and Delta >= 0, got ({n_a}, {delta})")
    ctx = JacobiKernelCtx(
        n_a=n_a,
        delta=delta,
        log_c=np.array([_log_c(j, delta) for j in range(n_a)]),
        quadrature=panel_rule(_panel_order(n_a, delta), [(0.0, 1.0)]),
    )
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
    psi = wavefunctions(ctx, x)
    val = np.sum(psi * psi, axis=0) / ctx.n_a
    return float(val[0]) if val.size == 1 else val


def density_cdf(ctx: JacobiKernelCtx, grid: np.ndarray) -> np.ndarray:
    """CDF of the level density at the given sorted grid points.

    A 24-node Gauss-Legendre rule per interval from 0 through the grid, in
    chunks whose largest array stays below 2^22 words, summed cumulatively;
    accurate to quadrature level for use in one-sample KS tests.
    """
    base = gauss_legendre(24)
    edges = np.concatenate([[0.0], np.asarray(grid, dtype=float)])
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pieces = np.empty(half.size)
    chunk = max(1, _CHUNK_ELEMENTS // (base.nodes.size * (2 * ctx.n_a - 1)))
    for start in range(0, half.size, chunk):
        h, m = half[start : start + chunk, None], mid[start : start + chunk, None]
        rho = level_density(ctx, (h * base.nodes + m).ravel())
        pieces[start : start + chunk] = h[:, 0] * (rho.reshape(-1, base.nodes.size) @ base.weights)
    return np.cumsum(pieces)


def _entropy_integral(ctx: JacobiKernelCtx, order: int) -> float:
    rule = unit_interval_rule(order)
    psi = wavefunctions(ctx, rule.nodes)
    density_times_na = np.sum(psi * psi, axis=0)
    return rule.integrate(mode_entropy(rule.nodes) * density_times_na)


def _converged(integral, order: int, tol: float, what: str) -> float:
    """integral(2n) once it is within tol of integral(n), doubling n from order."""
    value = integral(order)
    for _ in range(_MAX_DOUBLINGS):
        order *= 2
        refined = integral(order)
        if abs(refined - value) < tol:
            return refined
        value = refined
    raise AccuracyError(f"{what} quadrature did not converge")


def average_entropy_quadrature(ctx: JacobiKernelCtx, tol: float = 1e-10) -> float:
    """Ensemble-average entropy N_A * integral of s(x) rho(x) dx."""
    order = _panel_order(ctx.n_a, ctx.delta)
    return _converged(lambda n: _entropy_integral(ctx, n), order, tol, "entropy")


def s_ij_quadrature(ctx: JacobiKernelCtx, i: int, j: int, tol: float = 1e-10) -> float:
    """Matrix element s_ij = integral of s(x) psi_i(x) psi_j(x) dx.

    The basis index may exceed N_A (needed for the variance sum); the
    normalizations are extended on demand.
    """
    if i < 0 or j < 0:
        raise InvalidArgument("indices must be non-negative")
    jmax = max(i, j) + 1

    def integral(order: int) -> float:
        rule = unit_interval_rule(order)
        psi = wavefunctions(ctx, rule.nodes, jmax=jmax)
        return rule.integrate(mode_entropy(rule.nodes) * psi[i] * psi[j])

    return _converged(integral, _panel_order(jmax, ctx.delta), tol, "matrix-element")


def variance_finite_N(ctx: JacobiKernelCtx, tail_tol: float = 1e-10) -> float:
    """Finite-N entropy variance: sum_{i<N_A} sum_{j>=N_A} s^2_ij.

    Uses the closed form for s^2_ij.  Each row is truncated once the
    geometric extrapolation of the running term falls below tail_tol; the
    observed decay ratio is checked before the bound is trusted.
    """
    if tail_tol <= 0:
        raise InvalidArgument("tail_tol must be positive")
    n_a, delta = ctx.n_a, ctx.delta
    per_row_tol = tail_tol / n_a
    total = 0.0
    for i in range(n_a - 1, -1, -1):
        row = 0.0
        prev = math.inf
        j = n_a
        while True:
            term = s2_closed_form(i, j, delta)
            row += term
            ratio = term / prev if prev > 0 else 0.0
            if j > n_a + 4 and ratio < 1.0:
                tail_bound = term * ratio / (1.0 - ratio)
                if tail_bound < per_row_tol:
                    break
            if j - n_a > 100_000:
                raise AccuracyError("variance tail is not decreasing")
            prev = term
            j += 1
        total += row
        if row < per_row_tol and i < n_a - 4:
            # rows decay away from the i = N_A - 1 edge; remaining ones are dust
            break
    return total
