"""Monte Carlo harness: sample streams, their moments, KS statistics, histograms.

``draw_streams`` partitions the sample budget across RNG streams derived
from (seed, stream id), runs up to one stream per core at a time and
concatenates their samples in stream order, so a draw is bit-reproducible
for a given (seed, workers).  The streams fix the result; which thread runs
a stream, how many run at once and the cores each batch's linear algebra
runs on do not change it.  A sampler may therefore be called concurrently,
once per stream, each time on a distinct generator.  ``mc_estimate`` takes
the mean and the central moments of those samples in two passes.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gausspage.ensembles import _cores
from gausspage.linalg import InvalidArgument, RngStream

# Entropy-producing procedure: maps (generator, count) to `count` samples.
Sampler = Callable[[np.random.Generator, int], np.ndarray]

KS_ALPHA = 0.01  # significance level of the KS critical values
_KS_C = np.sqrt(-0.5 * np.log(KS_ALPHA / 2.0))


@dataclass(frozen=True)
class MCEstimate:
    """Result of a Monte Carlo run."""

    mean: float
    variance: float  # unbiased (n-1) estimator
    std_error: float
    n: int
    fourth_central: float = float("nan")

    def variance_std_error(self) -> float:
        """Standard error of the variance estimate (via the fourth moment)."""
        n = self.n
        m2 = self.variance * (n - 1) / n
        var_of_var = (self.fourth_central - m2 * m2 * (n - 3) / (n - 1)) / n
        return float(np.sqrt(max(var_of_var, 0.0)))


@functools.cache
def _stream_pool():
    """One stream thread per core beyond the caller's; None on one core.

    Stream threads wait on the piece pool of :mod:`gausspage.ensembles`,
    whose threads never wait, so they are kept apart from it.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at import, which it would slow by ~8 ms

    cores = _cores()
    return ThreadPoolExecutor(cores - 1, thread_name_prefix="gausspage-stream") if cores > 1 else None


if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's stream threads
    os.register_at_fork(after_in_child=_stream_pool.cache_clear)


class _Streams:
    """Streams 0..count-1, started in increasing id by each thread that calls :meth:`work`.

    Each finished stream's samples are kept in its own slot, so their order
    does not depend on which thread ran which stream.  Once a stream has
    failed no further stream starts; every stream below it has started by
    then, so the lowest failing stream is the one a serial run would report.
    """

    def __init__(self, run: Callable[[int], np.ndarray], count: int):
        self._run, self._count = run, count
        self._changed = threading.Condition()
        self._next = 0  # the next stream to start
        self._running = 0
        self.samples: list[np.ndarray | None] = [None] * count
        self.errors: dict[int, BaseException] = {}

    def work(self) -> None:
        """Run streams until none is left to start; never raises."""
        while True:
            with self._changed:
                if self._next == self._count or self.errors:
                    return
                w = self._next
                self._next += 1
                self._running += 1
            error = None
            try:
                self.samples[w] = self._run(w)
            except BaseException as e:  # re-raised by draw_streams once every started stream has ended
                error = e
            with self._changed:
                self._running -= 1
                if error is not None:
                    self.errors[w] = error
                self._changed.notify_all()

    def join(self) -> None:
        """Start no further stream, and wait until every started one has ended."""
        with self._changed:
            self._count = self._next
            self._changed.wait_for(lambda: self._running == 0)


def draw_streams(sampler: Sampler, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """The n samples of streams 0..workers-1, concatenated in stream order.

    Stream w is one ``sampler(RngStream(seed, w).generator(), count)`` call,
    with n//workers samples plus one of the remainder.  Streams past the
    n-th would draw nothing, so at most n are visited, and stream 0 always
    is, so that a sampler refuses its arguments even at n = 0.  Up to one
    stream per core runs at a time, one on the calling thread and the rest
    on stream threads, so the sampler may be called concurrently, once per
    stream, on distinct generators.  Every stream started has ended when
    this returns or raises; a failure raises the error of the lowest
    failing stream.
    """
    if n < 0:
        raise InvalidArgument(f"need n >= 0 samples, got {n}")
    if workers < 1:
        raise InvalidArgument("need at least one worker")
    base, rem = divmod(n, workers)

    def stream(w: int) -> np.ndarray:
        return np.asarray(sampler(RngStream(seed, w).generator(), base + (1 if w < rem else 0)), dtype=float)

    visited = max(1, min(workers, n))
    streams = _Streams(stream, visited)
    pool = _stream_pool() if visited > 1 else None
    for _ in range(min(visited, _cores()) - 1 if pool else 0):
        # no one waits on these: a helper that starts late finds no stream left and returns
        pool.submit(streams.work)
    try:
        streams.work()
    finally:
        streams.join()
    if streams.errors:
        raise streams.errors[min(streams.errors)]
    return streams.samples[0] if visited == 1 else np.concatenate(streams.samples)  # one stream: no copy


def mc_estimate(sampler: Sampler, n: int, seed: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo estimate of mean and variance from the n samples of :func:`draw_streams`.

    The mean and the central sums of the second and fourth powers are
    two-pass sums over the drawn array, which holds 8 bytes per sample; its
    deviations from the mean take as much again while they are summed.
    """
    if n < 2:
        raise InvalidArgument(f"need n >= 2 samples, got {n}")
    x = draw_streams(sampler, n, seed, workers)
    mean = float(np.mean(x))
    d = x - mean
    del x  # so that at most two arrays of n samples are held at once
    variance = float(np.sum(d**2)) / (n - 1)
    return MCEstimate(
        mean=mean,
        variance=variance,
        std_error=float(np.sqrt(variance / n)),
        n=n,
        fourth_central=float(np.sum(d**4)) / n,
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


def ks_two_sample_critical(n: int, m: int) -> float:
    """Critical value of the two-sample KS statistic at level KS_ALPHA."""
    return float(_KS_C * np.sqrt((n + m) / (n * m)))


def ks_one_sample_critical(n: int) -> float:
    """Critical value of the one-sample KS statistic at level KS_ALPHA."""
    return float(_KS_C / np.sqrt(n))


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
