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
    """A numerical check failed: pairing, orthonormality, a [0, 1] range, or an accuracy target."""


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


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise, with 0 log 0 = 0."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def mode_entropy(x):
    """Single-mode entropy s(x) in nats, vectorized, with s(1) = 0 exactly."""
    x = np.asarray(x, dtype=float)
    out = 0.0 - _xlogx(0.5 * (1.0 + x)) - _xlogx(0.5 * (1.0 - x))  # 0.0 - 0.0: s(1) is +0.0, not -0.0
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


def clip_unit(values: np.ndarray, what: str) -> np.ndarray:
    """Computed ``values`` clipped to [0, 1]; one more than CLAMP_TOL outside, or a NaN, raises ConsistencyError."""
    if values.size and not (np.min(values) >= -CLAMP_TOL and np.max(values) <= 1.0 + CLAMP_TOL):
        raise ConsistencyError(f"{what} escapes [0,1]: range [{np.min(values)}, {np.max(values)}]")
    return np.clip(values, 0.0, 1.0)


def subsystem_indices(split: SystemSplit) -> np.ndarray:
    """Majorana indices of subsystem A in the split ordering."""
    return np.concatenate([np.arange(split.N_A), split.N + np.arange(split.N_A)])


def restrict_blocks(blocks: np.ndarray) -> np.ndarray:
    """Paired singular values of a stack of antisymmetric 2n x 2n blocks [J]_A.

    Returns shape (..., n), descending, in [0, 1].  The spectrum of B^T B is
    {x_i^2} with multiplicity two.  The pairing and range are checked on those
    eigenvalues, whose absolute error is about eps for any x; the square root
    of a pair near 0 would magnify its split to about sqrt(eps).  A NaN fails
    both checks.
    """
    ev = np.linalg.eigvalsh(np.swapaxes(blocks, -2, -1) @ blocks)[..., ::-1]
    hi, lo = ev[..., 0::2], ev[..., 1::2]
    if hi.size and not np.max(np.abs(hi - lo)) <= PAIR_TOL:
        raise ConsistencyError("singular values of the antisymmetric block do not pair up")
    return np.sqrt(clip_unit(0.5 * (hi + lo), "squared restricted spectrum"))


def restrict(j: np.ndarray, split: SystemSplit) -> np.ndarray:
    """Spectrum x_1 >= ... >= x_{N_A} of the sub-block [J]_A, in [0, 1]; the block must be finite."""
    if split.N_A < 1:
        raise InvalidArgument("restriction requires N_A >= 1")
    if np.shape(j) != (2 * split.N, 2 * split.N):
        raise InvalidArgument(f"need a {2 * split.N}x{2 * split.N} J for N={split.N}, got shape {np.shape(j)}")
    idx = subsystem_indices(split)
    block = j[np.ix_(idx, idx)]
    if not np.all(np.isfinite(block)):
        raise InvalidArgument("[J]_A has a non-finite entry")
    return restrict_blocks(block[None])[0]


def entropy_from_spectrum(x: np.ndarray) -> float:
    """Entanglement entropy sum_i s(x_i) in nats."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -CLAMP_TOL) & (x <= 1.0 + CLAMP_TOL)):  # a NaN fails both
        raise InvalidArgument("spectrum values must lie in [0, 1]")
    return float(np.sum(mode_entropy(np.clip(x, 0.0, 1.0))))
