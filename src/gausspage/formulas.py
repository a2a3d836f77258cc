"""Closed-form averages, variances and their thermodynamic limits.

Two families of exact results: the classic Page curve for Haar pure states
(digamma closed form, exponential asymptotics) and its Gaussian-state
analogue (digamma closed form, algebraic asymptotics, order-one variance).
Every factorial ratio is evaluated in log space.  The finite-N Gaussian mean
and variance (a closed form found by fitting) sum digamma and trigamma differences.
"""

from __future__ import annotations

import math

from gausspage import rmt
from gausspage.linalg import InvalidArgument
from gausspage.special import digamma, digamma_difference, trigamma, trigamma_difference, trigamma_digamma_difference

# Above this N, Psi(2^N + 1) is replaced by its (machine exact) asymptotics N log 2 + O(2^-N).
_PAGE_ASYMPT_N = 50
# Below this f, the Gaussian variance limit is summed as a power series: its closed form cancels there.
_VARIANCE_SERIES_F = 2.0**-10


def _digamma_pow2_plus1(k: int) -> float:
    """Psi(2^k + 1) without forming 2^k when it would lose precision."""
    if k <= _PAGE_ASYMPT_N:
        return digamma(2.0**k + 1.0)
    return k * math.log(2.0)


def smaller_side(N: int, N_A: int) -> int:
    """k = min(N_A, N - N_A) of N >= 1 modes, 0 <= N_A <= N: S_A = S_B for a pure state, and the analytics take k."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    if not 0 <= N_A <= N:
        raise InvalidArgument(f"need 0 <= N_A <= N, got N_A={N_A}, N={N}")
    return min(N_A, N - N_A)


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

    (N-1/2)Psi(2N) + (1/2+N_A-N)Psi(2N-2N_A) + (1/4-N_A)Psi(N) - (1/4)Psi(N-N_A) - N_A, taken for
    k = min(N_A, N - N_A) as (N-1/2) D(2N-2k; 2k) + k D(N; N-2k) + D(N-k; k)/4 - k, D(a; n) = Psi(a+n) - Psi(a).
    """
    k = smaller_side(N, N_A)  # the form holds for N_A <= N/2, and gives exactly 0 at 0
    return (
        (N - 0.5) * digamma_difference(2 * (N - k), 2 * k) + k * digamma_difference(N, N - 2 * k)
        + 0.25 * digamma_difference(N - k, k) - k
    )


def gaussian_thermo(N: int, f: float) -> float:
    """Gaussian-ensemble average through order one in the large-N expansion."""
    if not (0.0 < f < 1.0):
        raise InvalidArgument(f"need 0 < f < 1, got {f}")
    return (
        N * ((math.log(2.0) - 1.0) * f + (f - 1.0) * math.log1p(-f))
        + 0.5 * f
        + 0.25 * math.log1p(-f)
    )


def gaussian_variance_limit(f: float) -> float:
    """Large-N entropy variance of the Gaussian ensemble (a constant), (f + f^2 + log(1 - f)) / 2.

    The closed form cancels to about f^2/4: at f = 1e-8 it would be negative.
    Below f = 2^-10 the sum is the series f^2/4 - sum_(j >= 3) f^j/(2j), to
    j = 7, beyond which the terms are below 2e-19 of it.  At f >= 2^-10 the
    closed form is kept as written; it loses about eps/f^2 relative there, up
    to 1.1e-10 at f = 2^-10.
    """
    if not (0.0 < f <= 0.5):
        raise InvalidArgument(f"need 0 < f <= 1/2, got {f}")
    if f < _VARIANCE_SERIES_F:
        return f * f * (0.25 - f * (1.0 / 6.0 + f * (0.125 + f * (0.1 + f * (1.0 / 12.0 + f / 14.0)))))
    return 0.5 * (f + f * f + math.log(1.0 - f))


def lrv_density(f: float) -> float:
    """Leading-order entropy per mode, (log2 - 1) f + (f - 1) log(1 - f)."""
    if not (0.0 <= f <= 0.5):
        raise InvalidArgument(f"need 0 <= f <= 1/2, got {f}")
    if f == 0.0:
        return 0.0
    return (math.log(2.0) - 1.0) * f + (f - 1.0) * math.log1p(-f)


def variance_finite_N(N: int, N_A: int) -> float:
    """Finite-N entropy variance of the Gaussian ensemble, at O(1) cost; with k = min(N_A, N - N_A) it is

    -(N - 1/2) Psi_1(2N) + (N - k - 1/2) Psi_1(2N - 2k) + (k/2 - 1/8 + k(k - 1/2)/(2N - 1)) Psi_1(N)
      + Psi_1(N - k)/8 - [Psi(2N) - Psi(2N - 2k)]/2, 0 at k = 0: found by fitting and verified, not derived
    (the tests hold it to the series sum_{i<N_A<=j} s^2_ij of the reference ``s2_closed_form`` in
    ``tests/reference.py``, to the Gram variance and to mpmath).  Summed from ``special``'s differences, with
    Psi_1(N)/2 - Psi_1(2N) = [Psi_1(N) - Psi_1(N + 1/2)]/4.  Its differences (N - k - 1/2) [Psi_1(2N - 2k) -
    Psi_1(2N)] and [Psi(2N) - Psi(2N - 2k)]/2, both near k/(2N) on a result near k^2/(4N^2), are summed as one
    ``trigamma_digamma_difference``, whose leading parts cancel analytically: full relative precision at N_A << N.
    """
    k = smaller_side(N, N_A)
    return (
        0.5 * trigamma_digamma_difference(2 * (N - k), 2 * k)
        + 0.125 * trigamma_difference(N - k, k) + 0.25 * k * trigamma_difference(N, 0.5)
        + k * (k - 0.5) / (2 * N - 1) * trigamma(N)
    )


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
