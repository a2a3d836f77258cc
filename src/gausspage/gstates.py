"""Fermionic Gaussian state algebra.

A pure Gaussian state of N fermionic modes is labeled by its complex
structure J: a real, antisymmetric, orthogonal 2N x 2N matrix (so J^2 = -1).
Majorana indices use the split ordering: the first N indices are the
"position-like" Majoranas of modes 1..N, the last N the "momentum-like"
ones.  Subsystem A consists of the first N_A modes, i.e. Majorana indices
{0..N_A-1} and {N..N+N_A-1}.

The entanglement entropy of subsystem A is sum_i s(x_i) over the N_A paired
singular values x_i of the sub-block [J]_A, with

    s(x) = -((1-x)/2) log((1-x)/2) - ((1+x)/2) log((1+x)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gausspage.linalg import InvalidArgument


class ConsistencyError(RuntimeError):
    """A numerically verified identity (pairing, [0,1] range, orthonormality) failed."""


PAIR_TOL = 1e-8
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class SystemSplit:
    """Bipartition bookkeeping for N modes split into A (N_A) and B (rest)."""

    N: int
    N_A: int

    def __post_init__(self):
        if not (0 <= self.N_A <= self.N):
            raise InvalidArgument(f"need 0 <= N_A <= N, got N_A={self.N_A}, N={self.N}")

    @property
    def N_B(self) -> int:
        return self.N - self.N_A

    @property
    def delta(self) -> int:
        return self.N_B - self.N_A

    @property
    def f(self) -> float:
        return self.N_A / self.N


def mode_entropy(x):
    """Single-mode entropy s(x) in nats, vectorized, with s(1) = 0 exactly."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * x)
        mask = p > 0.0
        out = out - np.where(mask, p * np.log(np.where(mask, p, 1.0)), 0.0)
    return out if out.shape else float(out)


def reference_structure(N: int) -> np.ndarray:
    """Reference complex structure [[0, 1], [-1, 0]] in N x N blocks."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    j0 = np.zeros((2 * N, 2 * N))
    j0[:N, N:] = np.eye(N)
    j0[N:, :N] = -np.eye(N)
    return j0


def conjugate(j0: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Complex structure of the Bogoliubov-rotated state: J = M J0 M^T."""
    if j0.shape != m.shape:
        raise InvalidArgument(f"shape mismatch: {j0.shape} vs {m.shape}")
    return m @ j0 @ m.T


def subsystem_indices(split: SystemSplit) -> np.ndarray:
    """Majorana indices of subsystem A in the split ordering."""
    return np.concatenate([np.arange(split.N_A), split.N + np.arange(split.N_A)])


def restrict_blocks(blocks: np.ndarray) -> np.ndarray:
    """Paired singular values of a stack of antisymmetric 2n x 2n blocks [J]_A.

    Returns shape (..., n), descending, in [0, 1].  The spectrum of B^T B is
    {x_i^2} with multiplicity two.  The pairing is checked on those
    eigenvalues, whose absolute error is about eps for any x; the square
    root of a pair near 0 would magnify its split to about sqrt(eps).
    """
    ev = np.linalg.eigvalsh(np.swapaxes(blocks, -2, -1) @ blocks)[..., ::-1]
    hi, lo = ev[..., 0::2], ev[..., 1::2]
    if hi.size and np.max(np.abs(hi - lo)) > PAIR_TOL:
        raise ConsistencyError("singular values of the antisymmetric block do not pair up")
    x = np.sqrt(np.maximum(0.5 * (hi + lo), 0.0))
    if x.size and np.max(x) > 1.0 + CLAMP_TOL:
        raise ConsistencyError(f"restricted spectrum escapes [0,1]: max {np.max(x)}")
    return np.minimum(x, 1.0)


def restrict(j: np.ndarray, split: SystemSplit) -> np.ndarray:
    """Spectrum x_1 >= ... >= x_{N_A} of the sub-block [J]_A, in [0, 1]."""
    if split.N_A < 1:
        raise InvalidArgument("restriction requires N_A >= 1")
    idx = subsystem_indices(split)
    return restrict_blocks(j[np.ix_(idx, idx)][None])[0]


def entropy_from_spectrum(x: np.ndarray) -> float:
    """Entanglement entropy sum_i s(x_i) in nats."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -CLAMP_TOL) or np.any(x > 1.0 + CLAMP_TOL):
        raise InvalidArgument("spectrum values must lie in [0, 1]")
    return float(np.sum(mode_entropy(np.clip(x, 0.0, 1.0))))
