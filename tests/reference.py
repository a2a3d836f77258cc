"""Test references that the runtime does not serve.

* The dense number-conserving sampler: the A rows of a Haar unitary drawn as a
  complex Haar frame and uniform occupations, whose restricted correlation
  matrix C_A is diagonalised.  ``ensembles.number_conserving_entropies`` draws
  the beta-Jacobi (CS) model of its spectrum, and the tests hold the model's
  law to this one.
* Stacks of Haar orthogonal matrices, for the laws that the tests check on
  many draws at once; the runtime draws one at a time
  (``linalg.haar_orthogonal``).
* The dense random-Hamiltonian eigenstate sampler: a 2N x 2N h a sample, its
  oriented mode planes and the checked restriction of the eigenstate.
  The CLI's ``hamiltonian`` ensemble draws ``ensembles.gaussian_entropies``,
  the Gaussian CS model, and the tests hold the model's law to this one.
* The exact number-conserving mean, at a fixed particle number and over the
  Binomial(N, 1/2) particle numbers of uniform occupations.
* Kolmogorov-Smirnov statistics and their critical values at level
  ``KS_ALPHA``, for the tests' checks of laws.
* The squared entropy matrix elements s^2_ij in closed form, whose series
  sum_{i<N_A<=j} s^2_ij the tests hold ``formulas.variance_finite_N`` to, and
  their large-N limits ``sbar_lk``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gausspage import ensembles
from gausspage.gstates import SystemSplit, clip_unit, mode_entropy, restrict_blocks, subsystem_indices
from gausspage.linalg import InvalidArgument, _haar_q, _mode_planes
from gausspage.stats import _require_finite

KS_ALPHA = 0.01  # significance level of the KS critical values
_KS_C = np.sqrt(-0.5 * np.log(KS_ALPHA / 2.0))


def haar_orthogonal_stack(dim: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` Haar O(dim) samples, stacked: the Q factors of a real dim x dim Ginibre stack."""
    return _haar_q(gen.standard_normal((count, dim, dim)))


def correlation_block(v: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """C_A = V^+ diag(n) V for V = U_A^+, the A rows of the unitary U as a frame."""
    return (np.swapaxes(v.conj(), -2, -1) * occ[..., None, :]) @ v


def number_conserving_dense_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies sum_i s(2 lambda_i - 1) of dense number-conserving eigenstates.

    lambda are the eigenvalues of C_A = U_A diag(n) U_A^+ for uniform
    occupations n; the A rows of the Haar unitary U are drawn as a complex Haar
    frame V = U_A^+.  Real parts, imaginary parts and occupations each come
    from their own ``ensembles._kinds`` child of ``gen``.
    """
    SystemSplit(N, N_A)
    re_gen, im_gen, occ_gen = ensembles._kinds(gen, 3)
    re, im = (part.standard_normal((count, N, N_A)) for part in (re_gen, im_gen))
    occ = occ_gen.integers(0, 2, size=(count, N))
    v = _haar_q(ensembles._complex(re, im))
    lam = clip_unit(np.linalg.eigvalsh(correlation_block(v, occ)), "correlation spectrum")
    return mode_entropy(2.0 * lam - 1.0).sum(axis=1)


def hamiltonian_dense_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of dense random-Hamiltonian eigenstates with uniform occupations.

    (u1, u2) are the oriented mode planes of h, ascending in omega.  Up to a
    rotation within each plane they are the row pairs of the diagonalizer M of
    ``ensembles.eigenstate_structure``, so [M^T D M]_A = pair_block(u1_A, u2_A, 1 - 2*occ).
    h and the occupations each come from their own ``ensembles._kinds`` child
    of ``gen``, in batches of ``ensembles._in_batches``.  N < 1 is refused
    before any draw.
    """
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    idx = subsystem_indices(SystemSplit(N, N_A))
    h_gen, occ_gen = ensembles._kinds(gen, 2)

    def draw(b):
        return h_gen.standard_normal((b, 2 * N, 2 * N)), occ_gen.integers(0, 2, size=(b, N))

    def reduce(g, occ):
        u1, u2, _ = _mode_planes(ensembles._antisym(g))
        blocks = ensembles.pair_block(u1[:, idx], u2[:, idx], 1.0 - 2.0 * occ)
        return mode_entropy(restrict_blocks(blocks)).sum(axis=1)

    return ensembles._in_batches(count, 8 * N * N, draw, reduce)


def _harmonic_numbers(N: int, exact: bool) -> list:
    """H_0, ..., H_N, as Fractions or as floats."""
    h = [Fraction(0) if exact else 0.0]
    for j in range(1, N + 1):
        h.append(h[-1] + (Fraction(1, j) if exact else 1.0 / j))
    return h


def number_conserving_mean(N: int, N_A: int, N_p: int, exact: bool = True, h: list | None = None):
    """<S_A> over number-conserving eigenstates of N_p particles, in the harmonic numbers H_n.

    With N_A -> min(N_A, N - N_A), N_p -> min(N_p, N - N_p), and then the two
    swapped so that N_A <= N_p:
    N H_N - (N - N_A) H_(N - N_A) - (N_A N_p / N) H_(N_p) - (N_A (N - N_p) / N) H_(N - N_p) - N_A (N - 1) / N.
    A Fraction if ``exact``, else a float; ``h`` may hold H_0, ..., H_N of that kind.
    """
    h = _harmonic_numbers(N, exact) if h is None else h
    over_n = (lambda x: Fraction(x, N)) if exact else (lambda x: x / N)
    a, p = sorted((min(N_A, N - N_A), min(N_p, N - N_p)))
    return N * h[N] - (N - a) * h[N - a] - over_n(a * p) * h[p] - over_n(a * (N - p)) * h[N - p] - over_n(a * (N - 1))


def number_conserving_mixture_mean(N: int, N_A: int, exact: bool | None = None):
    """<S_A> with uniform occupations: :func:`number_conserving_mean` over N_p ~ Binomial(N, 1/2).

    In Fractions up to N = 64 unless ``exact`` says otherwise; in floats
    beyond, with the binomial weights from ``math.lgamma``.
    """
    exact = N <= 64 if exact is None else exact
    h = _harmonic_numbers(N, exact)
    if exact:
        return sum(Fraction(math.comb(N, p), 2**N) * number_conserving_mean(N, N_A, p, True, h) for p in range(N + 1))
    log_norm = math.lgamma(N + 1) - N * math.log(2.0)
    weights = [math.exp(log_norm - math.lgamma(p + 1) - math.lgamma(N - p + 1)) for p in range(N + 1)]
    return math.fsum(w * number_conserving_mean(N, N_A, p, False, h) for p, w in enumerate(weights) if w > 0.0)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup distance of ECDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidArgument("samples must be non-empty")
    _require_finite(a, b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_statistic_one_sample(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """One-sample KS statistic given the model CDF at the *sorted* samples."""
    samples, cdf_values = np.asarray(samples, dtype=float), np.asarray(cdf_values, dtype=float)
    n = samples.size
    if n == 0:
        raise InvalidArgument("samples must be non-empty")
    _require_finite(samples, cdf_values)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(ecdf_hi - cdf_values)), np.max(np.abs(cdf_values - ecdf_lo))))


def ks_two_sample_critical(n: int, m: int) -> float:
    """Critical value of the two-sample KS statistic at level KS_ALPHA."""
    return float(_KS_C * np.sqrt((n + m) / (n * m)))


def ks_one_sample_critical(n: int) -> float:
    """Critical value of the one-sample KS statistic at level KS_ALPHA."""
    return float(_KS_C / np.sqrt(n))


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
