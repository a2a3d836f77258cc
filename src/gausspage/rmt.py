"""Jacobi-ensemble analytics for the restricted spectrum of [J]_A.

The N_A paired singular values x_i of the sub-block of a Haar-random
complex structure form a determinantal process on [0, 1] with projection
kernel K(x, y) = sum_j psi_j(x) psi_j(y) built from even-degree Jacobi
polynomials with symmetric weight exponent Delta = N_B - N_A:

    psi_j(x) = (1 - x^2)^{Delta/2} / sqrt(c_j) * P^{(Delta,Delta)}_{2j}(x),
    c_j = 2^{2 Delta} [(2j+Delta)!]^2 / ((2j)! (2j+2Delta)! (4j+2Delta+1)).

By the quadratic transformation P^{(Delta,Delta)}_{2j}(x) ~ P^{(Delta,-1/2)}_j(t),
t = 2x^2 - 1 (Szego, Orthogonal Polynomials, 4.1), psi_j = 2^{Delta/2 + 3/4}
(1 - x^2)^{Delta/2} p_j(t) with p_j orthonormal for (1 - t)^Delta (1 + t)^{-1/2}.
One recurrence in t yields the psi_j a row at a time from psi_0, so K(x, x) is
a running sum in O(len(x)) memory and no degree x nodes table is built.

Every finite-N quantity is one matrix over this basis (``gram``),
G(g)_ij = integral over [0, 1] of g(x) psi_i(x) psi_j(x) dx, i, j < N_A:
G(1) = I (the psi_j are orthonormal on [0, 1] directly, checked at context
build); <S_A> = tr G(s), s = ``mode_entropy``, which the mean takes from the
streamed K(x, x) = N_A rho(x) with no table; Var S_A = tr G(s^2) - ||G(s)||_F^2,
as the kernel is a projection; E exp(i t S_A) = det G(exp(i t s)) (Andreief).
The variance served is the closed form ``formulas.variance_finite_N``; the
Gram form is its independent check in the tests.

psi_i psi_j (i, j < j_max) is a polynomial of degree 4(j_max-1) + 2 Delta,
exact under n Gauss-Legendre nodes once 2n - 1 reaches it.  Integrals of
g(x) psi_i psi_j use ``special.unit_interval_rule(n)`` with n = 2 j_max +
Delta + 16 (rounded up to a multiple of 32 so cached rules are shared).
Only its n nodes on each of the two panels below x = 3/4 are exact for the
polynomial part; the graded panels above are not, as panel k gets
n >> (k // 2) nodes (halved every two panels, at least 8), and are accurate
there only because the polynomial varies ever more slowly toward x = 1.  So
every such integral rests on the check of n against 2n (``_converged``, on
the largest entry), not on exactness; the panels held at 8 nodes, which that
check does not refine, carry only the logarithmic factor of s (tested at 16).
Every check takes its two orders at once: ``_converged`` hands it the rules
of n and 2n, and it returns both integrals.  The mean evaluates them in one
pass of the recurrence over the two rules' nodes: it is elementwise, so each
order keeps its bits.
``ctx.quadrature`` is one panel on [0, 1] at that order (cached in ``special``
by order): it only meets polynomial integrands (G(1), K(x, x), K(z, x) K(z, y)),
exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from gausspage.linalg import InvalidArgument
from gausspage.gstates import ConsistencyError, mode_entropy
from gausspage.special import QuadratureRule, gauss_legendre, jacobi_orthonormal, unit_interval_rule, unit_panel_rule

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
    ctx = JacobiKernelCtx(n_a=n_a, delta=delta, quadrature=unit_panel_rule(_panel_order(n_a, delta)))
    err = np.max(np.abs(_gram_on(ctx, ctx.quadrature, np.ones_like, n_a) - np.eye(n_a)))
    if not err <= ORTHONORMALITY_TOL:  # a NaN fails it
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
    rows = _rows(ctx.delta, x, ctx.n_a)
    row = next(rows)
    val = row * row  # K(x, x), summed in place row by row
    for row in rows:
        val += row * row
    val /= ctx.n_a
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


def _converged(check, order: int, what: str):
    """I(2n) once its largest entry is within QUADRATURE_TOL of I(n)'s, doubling n from order.

    ``check(unit_interval_rule(n), unit_interval_rule(2 * n))`` returns (I(n), I(2n)).
    """
    for _ in range(_MAX_DOUBLINGS):
        value, refined = check(unit_interval_rule(order), unit_interval_rule(2 * order))
        if np.max(np.abs(refined - value)) < QUADRATURE_TOL:
            return refined
        order *= 2
    raise ConsistencyError(f"{what} quadrature did not converge")


def _gram_on(ctx: JacobiKernelCtx, rule: QuadratureRule, g, jmax: int) -> np.ndarray:
    """G(g)_ij = sum over the rule's nodes of w g psi_i psi_j, i, j < jmax."""
    psi = wavefunctions(ctx, rule.nodes, jmax)
    return (psi * (rule.weights * g(rule.nodes))) @ psi.T


def gram(ctx: JacobiKernelCtx, g, jmax: int | None = None) -> np.ndarray:
    """The converged jmax x jmax matrix G(g)_ij = integral of g psi_i psi_j on [0, 1] (a jmax x nodes table).

    g maps an array of nodes to its values there; jmax (default N_A) may exceed N_A.
    """
    jmax = ctx.n_a if jmax is None else jmax
    if jmax < 1:
        raise InvalidArgument(f"need jmax >= 1, got {jmax}")
    return _converged(lambda rule, double: (_gram_on(ctx, rule, g, jmax), _gram_on(ctx, double, g, jmax)),
                      _panel_order(jmax, ctx.delta), "Gram")


def average_entropy_quadrature(ctx: JacobiKernelCtx) -> float:
    """Ensemble-average entropy tr G(s) = N_A * integral of s(x) rho(x) dx, from the streamed K(x, x).

    Each check's two orders are evaluated in one pass over both rules' nodes.  s(x) K(x, x) is elementwise,
    so each half has the bits of a pass of its own.
    """

    def trace(rule: QuadratureRule, double: QuadratureRule) -> tuple[float, float]:
        nodes = np.concatenate([rule.nodes, double.nodes])
        values = mode_entropy(nodes) * level_density(ctx, nodes)
        cut = rule.nodes.size
        return ctx.n_a * rule.integrate(values[:cut]), ctx.n_a * double.integrate(values[cut:])

    return _converged(trace, _panel_order(ctx.n_a, ctx.delta), "entropy")
