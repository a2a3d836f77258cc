"""Special functions: digamma, trigamma, Jacobi polynomials, quadrature.

Digamma and trigamma shift up to argument >= 10, then sum the Bernoulli
asymptotic series (through B14 and B16); digamma is accurate to ~1e-12 on
(0, 1e6].  Their differences Psi(a + n) - Psi(a) and Psi_1(a) - Psi_1(a + n)
are summed term by term, each asymptotic term c x^-p as c a^-p (1 - (a /
(a + n))^p) = -c a^-p expm1(-p log1p(n / a)), so nothing cancels where n << a;
so is (a - 1) [Psi_1(a) - Psi_1(a + n)] - [Psi(a + n) - Psi(a)], shifted to
a >= 20, whose two leading parts cancel where n << a and are summed as one.
Orthonormal Jacobi polynomials for any weight (a, b) come from their
recurrence a row at a time, with no degree x points table (``rmt`` uses
(Delta, -1/2) in t = 2x^2 - 1); factorial-ratio closed forms are unstable.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from gausspage.linalg import InvalidArgument

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)  # B_2, B_4, ..., B_16
# (p, c): the terms c x^-p of the asymptotic series of Psi(x) - log(x) through B_14, and of Psi_1(x) through B_16
_DIGAMMA_TERMS = ((1, -0.5),) + tuple((2 * j, -b / (2 * j)) for j, b in enumerate(_BERNOULLI[:7], 1))
_TRIGAMMA_TERMS = ((1, 1.0), (2, 0.5)) + tuple((2 * j + 1, b) for j, b in enumerate(_BERNOULLI, 1))


def _positive(name: str, z: float) -> float:
    if not z > 0:
        raise InvalidArgument(f"{name} requires a positive argument, got {z}")
    return float(z)


def digamma(z: float) -> float:
    """Digamma function Psi(z) = Gamma'(z)/Gamma(z) for z > 0."""
    z = _positive("digamma", z)
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    return acc + math.log(z) + sum(c * z**-p for p, c in _DIGAMMA_TERMS)


def trigamma(z: float) -> float:
    """Trigamma function Psi_1(z) = Psi'(z) for z > 0."""
    z = _positive("trigamma", z)
    acc = 0.0
    while z < 10.0:
        acc += 1.0 / (z * z)
        z += 1.0
    return acc + sum(c * z**-p for p, c in _TRIGAMMA_TERMS)


def digamma_difference(a: float, n: float) -> float:
    """Psi(a + n) - Psi(a) for a > 0 and n >= 0, to a few ulps of itself even where n << a."""
    a = _positive("digamma_difference", a)
    acc = 0.0
    while a < 10.0:
        acc += n / (a * (a + n))  # 1/a - 1/(a + n)
        a += 1.0
    u = math.log1p(n / a)
    return acc + u + sum(c * a**-p * math.expm1(-p * u) for p, c in _DIGAMMA_TERMS)


def trigamma_difference(a: float, n: float) -> float:
    """Psi_1(a) - Psi_1(a + n) for a > 0 and n >= 0, to a few ulps of itself even where n << a."""
    a = _positive("trigamma_difference", a)
    acc = 0.0
    while a < 10.0:
        acc += n * (2.0 * a + n) / (a * (a + n)) ** 2  # 1/a^2 - 1/(a + n)^2
        a += 1.0
    u = math.log1p(n / a)
    return acc - sum(c * a**-p * math.expm1(-p * u) for p, c in _TRIGAMMA_TERMS)


def trigamma_digamma_difference(a: float, n: float) -> float:
    """(a - 1) [Psi_1(a) - Psi_1(a + n)] - [Psi(a + n) - Psi(a)] for a > 0 and n >= 0, to a few ulps of itself.

    Both differences are near n/a where n << a, while their combination is of order (n/a)^2.  The shift goes
    to a >= 20, not 10, as the combination amplifies the truncation of the asymptotic series by up to 20 at
    a = 10; the weight stays a - 1 of the a given.  The two leading parts, a (1/a - 1/(a + n)) = w and
    log(1 + n/a) = -log1p(-w) with w = n/(a + n), are then summed as one, sum_(j >= 2) w^j / j (as a series
    below w = 1/8, to j = 21), and each other asymptotic term as c a^-p (1 - (1 - w)^p).
    """
    a0 = a = _positive("trigamma_digamma_difference", a)
    acc = 0.0
    while a < 20.0:  # (a0 - 1) [1/a^2 - 1/(a + n)^2] - [1/a - 1/(a + n)]
        acc += (a0 - 1.0) * n * (2.0 * a + n) / (a * (a + n)) ** 2 - n / (a * (a + n))
        a += 1.0
    w, u = n / (a + n), math.log1p(n / a)  # u = -log1p(-w), without the rounding of 1 - w where n >> a
    lead = math.fsum(w**j / j for j in range(2, 22)) if w < 0.125 else u - w

    def tail(terms, shift: int) -> float:  # sum of c a^(shift - p) (1 - (1 - w)^p)
        return sum(c * a ** (shift - p) * -math.expm1(-p * u) for p, c in terms)

    # weight a0 - 1 = a - (1 + a - a0): a times the trigamma difference (its first term w is in lead), less the rest
    return (acc - lead + tail(_TRIGAMMA_TERMS[1:], 1) - (1.0 + a - a0) * tail(_TRIGAMMA_TERMS, 0)
            + tail(_DIGAMMA_TERMS, 0))


def jacobi_orthonormal(count: int, a: float, b: float, t: np.ndarray, row0: np.ndarray) -> Iterator[np.ndarray]:
    """Rows f p_0, ..., f p_{count-1} at t, each a new array, from row0 = f p_0 (of t's shape) for any factor f.

    p_n are the orthonormal Jacobi polynomials for the weight (1 - t)^a (1 + t)^b on [-1, 1], with positive
    leading coefficients: p_0 = 1 / sqrt(integral of the weight), and
    t p_n = sqrt(beta_{n+1}) p_{n+1} + alpha_n p_n + sqrt(beta_n) p_{n-1}.
    Each row is built in place on the one array it is yielded as, by the same operations in the same order as
    ((t - alpha_n) p_n - sqrt(beta_n) p_{n-1}) / sqrt(beta_{n+1}), so with the same bits.
    """
    t = np.asarray(t, dtype=float)
    prev, row, sqrt_beta = 0.0, np.asarray(row0, dtype=float), 0.0
    for n in range(count):
        yield row
        if n + 1 == count:
            return
        s, m = 2.0 * n + a + b, n + 1.0
        if n == 0:  # the general forms below are 0/0 at a + b = 0 (alpha_0) and a + b = -1 (beta_1)
            alpha, beta = (b - a) / (s + 2.0), 4.0 * (a + 1.0) * (b + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
        else:
            alpha = (b * b - a * a) / (s * (s + 2.0))
            beta = 4.0 * m * (m + a) * (m + b) * (m + a + b) / ((s + 2.0) ** 2 * (s + 3.0) * (s + 1.0))
        nxt = t - alpha
        nxt *= row
        nxt -= sqrt_beta * prev
        sqrt_beta = math.sqrt(beta)
        nxt /= sqrt_beta
        prev, row = row, nxt


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


@functools.lru_cache(maxsize=64)  # a page-curve sweep of N = 16..192 touches 24 orders, with their doubles
def _gauss_legendre(n: int) -> QuadratureRule:
    return QuadratureRule(*leggauss(n))


def panel_rule(n: int, panels: Sequence[tuple[float, float]]) -> QuadratureRule:
    """Composite Gauss-Legendre rule with n nodes on each given panel."""
    base = gauss_legendre(n)
    a, b = np.asarray(panels, dtype=float).T[:, :, None]
    half = 0.5 * (b - a)
    return QuadratureRule((half * base.nodes + 0.5 * (a + b)).ravel(), (half * base.weights).ravel())


# [0, 1/2], then [1 - 2^-k, 1 - 2^-(k+1)] for k = 1..47: two panels below x = 3/4 and 46 above
UNIT_INTERVAL_PANELS = ((0.0, 0.5),) + tuple((1.0 - 2.0 ** (-k), 1.0 - 2.0 ** (-(k + 1))) for k in range(1, 48))
_FLOOR_NODES = 8  # fewest nodes on a panel: enough for a logarithmic end-point factor on a dyadic panel


def unit_interval_rule(n: int) -> QuadratureRule:
    """Composite rule on [0, 1] with dyadic panels graded toward x = 1.

    The integrands of interest carry a logarithmic derivative singularity at
    x = 1; dyadic grading [1 - 2^-k, 1 - 2^-(k+1)] resolves it to near
    machine precision with moderate per-panel order.  The rule stops at
    1 - 2^-48: pushing panels closer to 1 would round nodes onto the
    endpoint itself, and the omitted mass is below double rounding error for
    any integrand with at worst a logarithmic singularity there.

    A polynomial factor of degree d needs about d/2 nodes on [0, 1/2]
    (``rmt`` takes n = 2 j_max + Delta + 16, rounded up to 32).  Near x = 1
    it varies more slowly: in theta = arccos(x) it is a cosine polynomial of
    degree d, and as 1 - x is about theta^2 / 2 there, a panel of width w
    next to x = 1 spans a theta range of order sqrt(2 w), so it varies like
    a polynomial of degree about d sqrt(2 w).  [0, 1/2] spans 0.52 of theta,
    [1/2, 3/4] 0.32, and panel k >= 2 of ``UNIT_INTERVAL_PANELS`` (from
    [3/4, 7/8] on) 0.22 / sqrt(2)^(k-2), which asks for about
    0.83 n / 2^(k/2) nodes.  So the first two panels get n nodes and panel
    k >= 2 gets n >> (k // 2), never fewer than that need, nor than 8:
    about 4n nodes plus 8 per floor panel, 1,172 at n = 224 (48n with n on
    every panel).  Every panel above the floor of 8 at least doubles from n
    to 2n, so a caller that checks n against 2n refines them; the floor
    panels, where only the logarithmic factor is left to resolve, do not.
    Cached and read-only.
    """
    return _unit_interval_rule(n)


@functools.lru_cache(maxsize=16)
def _unit_interval_rule(n: int) -> QuadratureRule:
    orders = [n, n] + [max(_FLOOR_NODES, n >> (k // 2)) for k in range(2, len(UNIT_INTERVAL_PANELS))]
    parts = [panel_rule(order, [panel]) for order, panel in zip(orders, UNIT_INTERVAL_PANELS)]
    return QuadratureRule(np.concatenate([p.nodes for p in parts]), np.concatenate([p.weights for p in parts]))


@functools.lru_cache(maxsize=16)
def unit_panel_rule(n: int) -> QuadratureRule:
    """n Gauss-Legendre nodes on [0, 1] as one panel, exact for polynomials of degree 2n - 1 (cached, read-only)."""
    return panel_rule(n, [(0.0, 1.0)])
