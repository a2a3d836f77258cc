"""Closed-form averages, variances and their thermodynamic limits.

Two families of exact results: the classic Page curve for Haar pure states
(digamma closed form, exponential asymptotics) and its Gaussian-state
analogue (digamma closed form, algebraic asymptotics, order-one variance).
Every factorial ratio is evaluated in log space.  The finite-N Gaussian
variance is the series of the closed-form terms s^2_ij over i < N_A <= j,
summed as arrays, every row until its geometric tail estimate is small.
"""

from __future__ import annotations

import math

import numpy as np

from gausspage import rmt
from gausspage.gstates import ConsistencyError
from gausspage.linalg import InvalidArgument
from gausspage.special import digamma

# Above this N the digamma arguments 2^N are replaced by their (machine
# exact) asymptotics Psi(2^N + 1) = N log 2 + O(2^-N).
_PAGE_ASYMPT_N = 50
VARIANCE_TAIL_TOL = 1e-10  # bound on the truncated tails of the variance series, summed over rows
_MAX_COLUMNS = 4096  # columns of one variance row before its tail counts as not decreasing
_ROW_BLOCK = (1 << 20) // _MAX_COLUMNS  # rows per variance block, so no array exceeds 2^20 words


def _digamma_pow2_plus1(k: int) -> float:
    """Psi(2^k + 1) without forming 2^k when it would lose precision."""
    if k <= _PAGE_ASYMPT_N:
        return digamma(2.0**k + 1.0)
    return k * math.log(2.0)


def page_average_exact(N: int, N_A: int) -> float:
    """Average entanglement entropy over Haar pure states (nats).

    Psi(2^N+1) - Psi(2^{N-N_A}+1) - (2^{N_A}-1)/2^{N-N_A+1}, valid for
    N_A <= N - N_A (the smaller subsystem, by convention).
    """
    if not (0 <= N_A <= N - N_A):
        raise InvalidArgument(f"need 0 <= N_A <= N/2, got N_A={N_A}, N={N}")
    if N > 1024:
        raise InvalidArgument(f"N is limited to 1024, got {N}")
    correction = 2.0 ** (2 * N_A - N - 1) - 2.0 ** (N_A - N - 1)
    return _digamma_pow2_plus1(N) - _digamma_pow2_plus1(N - N_A) - correction


def page_thermo(N: int, f: float) -> float:
    """Two-term thermodynamic asymptotic of the Page average."""
    if not (0.0 < f <= 0.5):
        raise InvalidArgument(f"need 0 < f <= 1/2, got {f}")
    return f * N * math.log(2.0) - 0.5 * math.exp(-(1.0 - 2.0 * f) * N * math.log(2.0))


def page_std_thermo(N: int, f: float) -> float:
    """Asymptotic standard deviation of the Page ensemble (piecewise in f)."""
    if not (0.0 < f <= 0.5):
        raise InvalidArgument(f"need 0 < f <= 1/2, got {f}")
    if f == 0.5:
        return 2.0 ** (-0.5 * N - 1.0)
    return 2.0 ** (-(1.0 - f) * N - 0.5)


def gaussian_average_exact(N: int, N_A: int) -> float:
    """Average entanglement entropy over Haar fermionic Gaussian states (nats).

    (N-1/2)Psi(2N) + (1/2+N_A-N)Psi(2N-2N_A) + (1/4-N_A)Psi(N)
      - (1/4)Psi(N-N_A) - N_A.
    """
    if not (0 <= N_A <= N):
        raise InvalidArgument(f"need 0 <= N_A <= N, got N_A={N_A}, N={N}")
    N_A = min(N_A, N - N_A)  # S_A = S_B for pure states; the form holds for N_A <= N/2, and gives exactly 0 at 0
    return (
        (N - 0.5) * digamma(2.0 * N)
        + (0.5 + N_A - N) * digamma(2.0 * (N - N_A))
        + (0.25 - N_A) * digamma(float(N))
        - 0.25 * digamma(float(N - N_A))
        - N_A
    )


def gaussian_thermo(N: int, f: float) -> float:
    """Gaussian-ensemble average through order one in the large-N expansion."""
    if not (0.0 < f < 1.0):
        raise InvalidArgument(f"need 0 < f < 1, got {f}")
    return (
        N * ((math.log(2.0) - 1.0) * f + (f - 1.0) * math.log(1.0 - f))
        + 0.5 * f
        + 0.25 * math.log(1.0 - f)
    )


def gaussian_variance_limit(f: float) -> float:
    """Large-N entropy variance of the Gaussian ensemble (a constant), (f + f^2 + log(1 - f)) / 2."""
    if not (0.0 < f <= 0.5):
        raise InvalidArgument(f"need 0 < f <= 1/2, got {f}")
    return 0.5 * (f + f * f + math.log(1.0 - f))


def lrv_density(f: float) -> float:
    """Leading-order entropy per mode, (log2 - 1) f + (f - 1) log(1 - f)."""
    if not (0.0 <= f <= 0.5):
        raise InvalidArgument(f"need 0 <= f <= 1/2, got {f}")
    if f == 0.0:
        return 0.0
    return (math.log(2.0) - 1.0) * f + (f - 1.0) * math.log(1.0 - f)


def sbar_lk(l: int, k: int, f: float) -> float:
    """Limit of the squared entropy matrix element s^2_{N_A-1-l, N_A+k}."""
    if l < 0 or k < 0:
        raise InvalidArgument("indices must be non-negative")
    if not (0.0 < f < 1.0):
        raise InvalidArgument(f"need 0 < f < 1, got {f}")
    m = k + l + 1
    ratio = 1.0 / f - 1.0
    num = (2.0 * k + 2.0 * l + 3.0 - 4.0 * f * m) ** 2
    den = 4.0 * m * m * (2.0 * k + 2.0 * l + 1.0) ** 2 * (2.0 * k + 2.0 * l + 3.0) ** 2
    return ratio ** (-2.0 * m) * num / den


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma of each element, one call per element of x as given (not as broadcast)."""
    return np.asarray(np.frompyfunc(math.lgamma, 1, 1)(x), dtype=float)


def s2_closed_form(i, j, delta: int) -> float | np.ndarray:
    """Closed form of the squared entropy matrix element s^2_ij, for i < j.

    i and j are integers or broadcastable integer arrays, and the result has
    their broadcast shape (a float for two scalars).  Evaluated as a sum of
    log-gamma terms, each on its own index array, so an (i, j) grid costs
    O(rows + columns) lgamma calls; the raw factorials reach order (4N)!
    and would overflow immediately.
    """
    i, j = np.asarray(i), np.asarray(j)
    if np.any(i >= j):
        raise InvalidArgument(f"closed form requires i < j, got i={i}, j={j}")
    if np.any(i < 0) or delta < 0:
        raise InvalidArgument("indices must be non-negative")
    d = float(delta)
    i, j = i.astype(float), j.astype(float)
    k = j - i  # |2i - 2j + 1| = 2k - 1
    poly = (1.0 + d - 2.0 * d * d) * i - 2.0 * (d - 1.0) * i * i + (d + 1.0) * (2.0 * j + 1.0) * (d + j)
    log_num = (
        _lgamma(2.0 * j + 1.0) + np.log(2.0 * d + 4.0 * i + 1.0) + np.log(d + j + 1.0) + np.log(2.0 * d + 2.0 * j + 1.0)
        + np.log(2.0 * d + 4.0 * j + 1.0) + _lgamma(2.0 * (d + i) + 1.0) + 2.0 * np.log(np.abs(poly))
    )
    log_den = (
        math.log(2.0) + _lgamma(2.0 * i + 1.0) + 2.0 * np.log(2.0 * k - 1.0) + 2.0 * np.log(k)
        + 2.0 * np.log(2.0 * k + 1.0) + _lgamma(2.0 * (d + j + 1.0) + 1.0) + 2.0 * np.log(d + i + j)
        + 2.0 * np.log(d + i + j + 1.0) + 2.0 * np.log(2.0 * d + 2.0 * i + 2.0 * j + 1.0)
    )
    s2 = np.exp(log_num - log_den)
    return float(s2) if s2.ndim == 0 else s2


def _block_sum(i: np.ndarray, n_a: int, delta: int, per_row_tol: float) -> float:
    """sum_{N_A<=j<N_A+K} s^2_ij over the rows i, each row with the first K from 32, 64, ... that bounds its tail.

    A row's tail estimate is its last term times r/(1 - r), r the ratio of its
    last two terms (0 where the earlier one underflowed).  K depends on the row
    alone, so the sum does not depend on how rows are grouped.
    """
    total, columns = 0.0, 32
    while i.size:
        if columns > _MAX_COLUMNS:
            raise ConsistencyError("variance tail is not decreasing")
        terms = s2_closed_form(i[:, None], n_a + np.arange(columns), delta)
        last, prev = terms[:, -1], terms[:, -2]
        ratio = np.divide(last, prev, out=np.zeros_like(last), where=prev > 0.0)
        done = last * ratio < per_row_tol * (1.0 - ratio)  # r < 1 and last * r / (1 - r) < tol
        total += terms[done].sum()
        i = i[~done]
        columns *= 2
    return total


def variance_finite_N(N: int, N_A: int) -> float:
    """Finite-N entropy variance of the Gaussian ensemble: sum_{i<N_A<=j} of the closed-form s^2_ij.

    S_A = S_B, so N_A > N/2 is taken as N - N_A and N_A in {0, N} gives 0.
    Every row i < N_A is summed over its first K columns, K the first power of
    two from 32 at which the row's geometric tail estimate is below
    VARIANCE_TAIL_TOL / N_A; a row that needs more than _MAX_COLUMNS raises.
    Rows go in blocks of _ROW_BLOCK, so no array exceeds 2^20 words.
    """
    if not 0 <= N_A <= N:
        raise InvalidArgument(f"need 0 <= N_A <= N, got N_A={N_A}, N={N}")
    n_a = min(N_A, N - N_A)
    blocks = (np.arange(start, min(start + _ROW_BLOCK, n_a)) for start in range(0, n_a, _ROW_BLOCK))
    return float(sum(_block_sum(i, n_a, N - 2 * n_a, VARIANCE_TAIL_TOL / n_a) for i in blocks))


# The routes to S_A by (route, ensemble): (mean(N, k), variance(N, k)) at 1 <= k <= N/2, variance None where the route
# has none yet; Monte Carlo serves every ensemble.  Lambdas look names up when called, so a patched one is called.
ROUTES = {
    ("exact", "gaussian"): (lambda N, k: gaussian_average_exact(N, k), lambda N, k: variance_finite_N(N, k)),
    ("exact", "haar-pure"): (lambda N, k: page_average_exact(N, k), None),
    ("quadrature", "gaussian"): (lambda N, k: rmt.average_entropy_quadrature(rmt.build_kernel_ctx(k, N - 2 * k)), None),
    ("limit", "gaussian"): (lambda N, k: gaussian_thermo(N, k / N), lambda N, k: gaussian_variance_limit(k / N)),
    ("limit", "haar-pure"): (lambda N, k: page_thermo(N, k / N), lambda N, k: page_std_thermo(N, k / N) ** 2),
    ("limit", "number-conserving"): (lambda N, k: N * lrv_density(k / N), None),
}
# Eigenstates of random quadratic Hamiltonians follow the Haar Gaussian law (acceptance criterion 4).
ROUTES.update({(route, "hamiltonian"): cell for (route, ens), cell in list(ROUTES.items()) if ens == "gaussian"})
