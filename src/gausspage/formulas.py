"""Closed-form averages, variances and their thermodynamic limits.

Two families of exact results: the classic Page curve for Haar pure states
(digamma closed form, exponential asymptotics) and its Gaussian-state
analogue (digamma closed form, algebraic asymptotics, order-one variance).
Every factorial ratio is evaluated in log space.
"""

from __future__ import annotations

import math

from gausspage.linalg import InvalidArgument
from gausspage.special import digamma

# Above this N the digamma arguments 2^N are replaced by their (machine
# exact) asymptotics Psi(2^N + 1) = N log 2 + O(2^-N).
_PAGE_ASYMPT_N = 50


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
    if N_A == 0:
        return 0.0
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
    N_A = min(N_A, N - N_A)  # S_A = S_B for pure states; the form holds for N_A <= N/2
    if N_A == 0:
        return 0.0
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


def gaussian_std_limit(f: float) -> float:
    """Large-N standard deviation of the Gaussian ensemble (a constant)."""
    if not (0.0 < f <= 0.5):
        raise InvalidArgument(f"need 0 < f <= 1/2, got {f}")
    return math.sqrt(0.5 * (f + f * f + math.log(1.0 - f)))


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


def s2_closed_form(i: int, j: int, delta: int) -> float:
    """Closed form of the squared entropy matrix element s^2_ij, for i < j.

    Evaluated as a sum of log-gamma terms; the raw factorials reach order
    (4N)! and would overflow immediately.
    """
    if i >= j:
        raise InvalidArgument(f"closed form requires i < j, got i={i}, j={j}")
    if i < 0 or delta < 0:
        raise InvalidArgument("indices must be non-negative")
    d = float(delta)
    poly = (1.0 + d - 2.0 * d * d) * i - 2.0 * (d - 1.0) * i * i + (d + 1.0) * (2 * j + 1) * (d + j)
    log_num = (
        math.lgamma(2.0 * j + 1.0)
        + math.log(2.0 * d + 4.0 * i + 1.0)
        + math.log(d + j + 1.0)
        + math.log(2.0 * d + 2.0 * j + 1.0)
        + math.log(2.0 * d + 4.0 * j + 1.0)
        + math.lgamma(2.0 * (d + i) + 1.0)
        + 2.0 * math.log(abs(poly))
    )
    log_den = (
        math.log(2.0)
        + math.lgamma(2.0 * i + 1.0)
        + 2.0 * math.log(abs(2.0 * i - 2.0 * j + 1.0))
        + 2.0 * math.log(float(j - i))
        + 2.0 * math.log(abs(2.0 * j - 2.0 * i + 1.0))
        + math.lgamma(2.0 * (d + j + 1.0) + 1.0)
        + 2.0 * math.log(d + i + j)
        + 2.0 * math.log(d + i + j + 1.0)
        + 2.0 * math.log(2.0 * d + 2.0 * i + 2.0 * j + 1.0)
    )
    return math.exp(log_num - log_den)
