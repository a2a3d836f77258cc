"""Monte Carlo harness: seeded sample blocks, their moments, histograms.

``draw_streams`` draws n samples in blocks of ``_BLOCK``: block b is one
sampler call on the RNG stream (seed, b), so a draw is bit-reproducible for
a given (seed, n), and nothing else changes it.  The blocks run on one pool
of ``_cores()`` threads and are concatenated in block order; which thread
runs a block and how many run at once do not change the result.  Memory is
bounded by construction: at most ``_cores()`` blocks run at once, and each
holds one batch of its sampler, of about 1 MB in its largest array, plus
the temporaries of that batch's reduction (:mod:`gausspage.ensembles`),
besides the 8 bytes per sample of the drawn blocks.  ``mc_estimate`` takes
the mean and the central moments of those samples in two passes.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gausspage.linalg import InvalidArgument, RngStream

# Entropy-producing procedure: maps (generator, count) to `count` samples.
Sampler = Callable[[np.random.Generator, int], np.ndarray]


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


_BLOCK = 1024  # samples of one seeded block


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool():
    """One block thread per core."""
    from concurrent.futures import ThreadPoolExecutor  # here, not at import, which it would slow by ~8 ms

    return ThreadPoolExecutor(_cores(), thread_name_prefix="gausspage")


if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def draw_streams(sampler: Sampler, n: int, seed: int) -> np.ndarray:
    """The n samples of blocks 0, 1, ..., concatenated in block order.

    Block b is one ``sampler(RngStream(seed, b).generator(), count)`` call
    for samples [b _BLOCK, (b + 1) _BLOCK) of the n.  Block 0 is called even
    at n = 0, so that a sampler refuses its arguments then too.  One block
    runs on the calling thread; more run on the pool, so the sampler may be
    called concurrently, once per block, on distinct generators.  Once a
    block has failed no later block starts.  Every started block has ended
    when this returns or raises; a failure raises the error of the lowest
    failing block, as a serial run would.
    """
    if n < 0:
        raise InvalidArgument(f"need n >= 0 samples, got {n}")
    failed: list[int] = []  # the blocks that have failed

    def block(b: int) -> np.ndarray | None:
        if any(f < b for f in failed):  # a serial run would have stopped before this block
            return None
        try:
            return np.asarray(sampler(RngStream(seed, b).generator(), min(_BLOCK, n - b * _BLOCK)), dtype=float)
        except BaseException:
            failed.append(b)
            raise

    if n <= _BLOCK:
        return block(0)  # no thread and no copy
    from concurrent.futures import wait

    futures = [_pool().submit(block, b) for b in range(-(-n // _BLOCK))]
    try:
        return np.concatenate([future.result() for future in futures])  # raises at the lowest failing block
    finally:  # start no further block, and wait for the running ones
        for future in futures:
            future.cancel()
        wait(futures)


def mc_estimate(sampler: Sampler, n: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of mean and variance from the n samples of :func:`draw_streams`.

    The mean and the central sums of the second and fourth powers are
    two-pass sums over the drawn array, which holds 8 bytes per sample; its
    deviations from the mean take as much again while they are summed.
    """
    if n < 2:
        raise InvalidArgument(f"need n >= 2 samples, got {n}")
    x = draw_streams(sampler, n, seed)
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


def _require_finite(*arrays: np.ndarray) -> None:
    """Refuse a NaN or an infinity, which would sort or compare to a meaningless statistic."""
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise InvalidArgument("samples must be finite")


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
    _require_finite(samples)  # a NaN would be in no bin and no out-of-range count
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
