"""Monte Carlo harness: streaming moments, KS statistics, histograms.

``mc_estimate`` partitions the sample budget across RNG streams derived
from (seed, stream id), draws them one after another and merges moments in
fixed stream order, so a run is bit-reproducible for a given (seed, workers).
The streams fix the result; the samplers run each batch's linear algebra on
the available cores, and the output does not depend on their number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gausspage.linalg import InvalidArgument, RngStream

# Entropy-producing procedure: maps (generator, count) to `count` samples.
Sampler = Callable[[np.random.Generator, int], np.ndarray]

_CHUNK = 50_000


@dataclass(frozen=True)
class MCEstimate:
    """Result of a Monte Carlo run."""

    mean: float
    variance: float  # unbiased (n-1) estimator
    std_error: float
    n: int
    seed: int
    workers: int
    fourth_central: float = float("nan")

    def variance_std_error(self) -> float:
        """Standard error of the variance estimate (via the fourth moment)."""
        n = self.n
        m2 = self.variance * (n - 1) / n
        var_of_var = (self.fourth_central - m2 * m2 * (n - 3) / (n - 1)) / n
        return float(np.sqrt(max(var_of_var, 0.0)))


@dataclass
class _Moments:
    """Count, mean and central sums M_k = sum (x - mean)^k for k = 2, 3, 4."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    def add_chunk(self, x: np.ndarray) -> None:
        mean = float(np.mean(x))
        d = x - mean
        self.merge(_Moments(x.size, mean, *(float(np.sum(d**k)) for k in (2, 3, 4))))

    def merge(self, o: "_Moments") -> None:
        """Exact pairwise update of all central sums (Pebay 2008, eqs. 2.1-2.3)."""
        if o.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2, self.m3, self.m4 = o.n, o.mean, o.m2, o.m3, o.m4
            return
        na, nb = self.n, o.n
        n = na + nb
        d = o.mean - self.mean
        m2 = self.m2 + o.m2 + d * d * na * nb / n
        m3 = self.m3 + o.m3 + d**3 * na * nb * (na - nb) / n**2 + 3.0 * d * (na * o.m2 - nb * self.m2) / n
        m4 = (
            self.m4
            + o.m4
            + d**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
            + 6.0 * d * d * (na * na * o.m2 + nb * nb * self.m2) / n**2
            + 4.0 * d * (na * o.m3 - nb * self.m3) / n
        )
        self.mean += d * nb / n
        self.n, self.m2, self.m3, self.m4 = n, m2, m3, m4


def mc_estimate(sampler: Sampler, n: int, seed: int, workers: int = 1) -> MCEstimate:
    """Streaming Monte Carlo estimate of mean and variance.

    The sampler is called with a per-stream generator and a count and must
    return that many samples.  Stream w receives n//workers samples plus one
    of the remainder; streams are merged in increasing stream id.
    """
    if n < 2:
        raise InvalidArgument(f"need n >= 2 samples, got {n}")
    if workers < 1:
        raise InvalidArgument("need at least one worker")
    base, rem = divmod(n, workers)
    moments = _Moments()
    for w in range(workers):
        count = base + (1 if w < rem else 0)
        if count == 0:
            continue
        gen = RngStream(seed, w).generator()
        done = 0
        stream_moments = _Moments()
        while done < count:
            b = min(_CHUNK, count - done)
            stream_moments.add_chunk(np.asarray(sampler(gen, b), dtype=float))
            done += b
        moments.merge(stream_moments)
    variance = moments.m2 / (moments.n - 1)
    return MCEstimate(
        mean=moments.mean,
        variance=variance,
        std_error=float(np.sqrt(variance / moments.n)),
        n=moments.n,
        seed=seed,
        workers=workers,
        fourth_central=moments.m4 / moments.n,
    )


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup distance of ECDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidArgument("samples must be non-empty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_statistic_one_sample(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """One-sample KS statistic given the model CDF at the *sorted* samples."""
    n = samples.size
    if n == 0:
        raise InvalidArgument("samples must be non-empty")
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(ecdf_hi - cdf_values)), np.max(np.abs(cdf_values - ecdf_lo))))


def ks_two_sample_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Critical value of the two-sample KS statistic at level alpha."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


def ks_one_sample_critical(n: int, alpha: float = 0.01) -> float:
    """Critical value of the one-sample KS statistic at level alpha."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c / np.sqrt(n))


@dataclass(frozen=True)
class Histogram:
    """Fixed-range histogram with explicit out-of-range counters."""

    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int
    total: int


def histogram(samples: np.ndarray, bins: int, range_: tuple[float, float]) -> Histogram:
    """Left-closed binning of samples on [lo, hi); the last bin includes hi."""
    lo, hi = range_
    if bins < 1:
        raise InvalidArgument("need at least one bin")
    if not hi > lo:
        raise InvalidArgument(f"empty range ({lo}, {hi})")
    samples = np.asarray(samples, dtype=float)
    under = int(np.sum(samples < lo))
    over = int(np.sum(samples > hi))
    counts, edges = np.histogram(samples[(samples >= lo) & (samples <= hi)], bins=bins, range=(lo, hi))
    return Histogram(
        edges=edges,
        counts=counts,
        underflow=under,
        overflow=over,
        total=samples.size,
    )
