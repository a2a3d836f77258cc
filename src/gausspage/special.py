"""Special functions: digamma, Jacobi polynomials, quadrature.

The digamma implementation follows the classic recipe (upward recurrence to
argument >= 10, then the Bernoulli asymptotic series through B14), which is
uniformly accurate to ~1e-12 on (0, 1e6] and keeps improving for larger
arguments.  Jacobi polynomials are evaluated by the three-term recurrence
only; closed forms with factorial ratios are unstable at the degrees we need
(up to ~500).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from gausspage.linalg import InvalidArgument

# -B_{2n}/(2n) for 2n = 2..14
_DIGAMMA_ASYMPT = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(z: float) -> float:
    """Digamma function Psi(z) = Gamma'(z)/Gamma(z) for z > 0."""
    if not z > 0:
        raise InvalidArgument(f"digamma requires z > 0, got {z}")
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0
    power = inv2
    for coeff in _DIGAMMA_ASYMPT:
        series += coeff * power
        power *= inv2
    return acc + math.log(z) - 0.5 / z + series


def jacobi_all(nmax: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """All Jacobi polynomials P_0..P_nmax at points x, shape (nmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for n in range(2, nmax + 1):
        c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + a + b - 1.0) * (2.0 * n + a + b) * (2.0 * n + a + b - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        out[n] = ((c2 + c3 * x) * out[n - 1] - c4 * out[n - 2]) / c1
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integration over a fixed interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):  # rules are cached and shared between callers
        self.nodes.flags.writeable = self.weights.flags.writeable = False

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values taken at ``self.nodes``."""
        return float(np.dot(self.weights, values))


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 2n-1 (cached)."""
    if n < 1:
        raise InvalidArgument(f"node count must be >= 1, got {n}")
    return _gauss_legendre(n)


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> QuadratureRule:
    return QuadratureRule(*leggauss(n))


def panel_rule(n: int, panels: list[tuple[float, float]]) -> QuadratureRule:
    """Composite Gauss-Legendre rule with n nodes on each given panel."""
    base = gauss_legendre(n)
    a, b = np.asarray(panels, dtype=float).T[:, :, None]
    half = 0.5 * (b - a)
    return QuadratureRule((half * base.nodes + 0.5 * (a + b)).ravel(), (half * base.weights).ravel())


def unit_interval_rule(n: int) -> QuadratureRule:
    """Composite rule on [0, 1] with dyadic panels graded toward x = 1.

    The integrands of interest carry a logarithmic derivative singularity at
    x = 1; dyadic grading [1 - 2^-k, 1 - 2^-(k+1)] resolves it to near
    machine precision with moderate per-panel order.  The rule stops at
    1 - 2^-48: pushing panels closer to 1 would round nodes onto the
    endpoint itself, and the omitted mass is below double rounding error for
    any integrand with at worst a logarithmic singularity there.
    A polynomial factor of degree d needs n of about d/2 per panel (``rmt``
    uses 2 j_max + Delta + 16, rounded up to 32).  Cached and read-only.
    """
    return _unit_interval_rule(n)


@functools.lru_cache(maxsize=16)
def _unit_interval_rule(n: int) -> QuadratureRule:
    return panel_rule(n, [(0.0, 0.5)] + [(1.0 - 2.0 ** (-k), 1.0 - 2.0 ** (-(k + 1))) for k in range(1, 48)])
