"""Dense linear algebra on small matrices.

Haar-orthogonal and Haar-unitary sampling, and the canonical
(block-diagonal) form of real antisymmetric matrices, always through the
Hermitian eigendecomposition of i*h (:func:`_positive_modes`).  Everything
here is a pure function of its inputs; random draws are pure functions of an
:class:`RngStream`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidArgument(ValueError):
    """Raised when an operation precondition is violated."""


@dataclass(frozen=True)
class RngStream:
    """Reproducible RNG label: identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, self.stream))))


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q factor of a stack of (real or complex, square or tall) Ginibre matrices.

    QR of a Ginibre matrix alone is *not* Haar distributed; the decomposition
    is made unique (and the law exactly Haar) by forcing the diagonal of R to
    be positive.  For tall input the reduced Q is a Haar frame: the leading
    columns of a Haar matrix.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_orthogonal(dim: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Sample from the Haar measure on the full orthogonal group O(dim)."""
    return haar_orthogonal_batch(dim, 1, rng.generator() if isinstance(rng, RngStream) else rng)[0]


def haar_orthogonal_batch(
    dim: int, count: int, gen: np.random.Generator, cols: int | None = None
) -> np.ndarray:
    """Stacked Haar O(dim) samples, or only their leading ``cols`` columns.

    Shape (count, dim, cols), ``cols`` defaulting to ``dim``; fewer columns
    draw and factor only a dim x cols Ginibre stack.
    """
    return _haar_q(_real_ginibre(dim, count, gen, cols))


def _real_ginibre(dim: int, count: int, gen: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """The Ginibre stack whose :func:`_haar_q` is :func:`haar_orthogonal_batch`."""
    cols = dim if cols is None else cols
    if dim < 2 or dim % 2 != 0 or not 0 <= cols <= dim:
        raise InvalidArgument(f"need even dim >= 2 and 0 <= cols <= dim, got dim={dim}, cols={cols}")
    return gen.standard_normal((count, dim, cols))


def haar_unitary_batch(dim: int, count: int, gen: np.random.Generator, cols: int) -> np.ndarray:
    """Leading ``cols`` columns of stacked Haar U(dim) samples, shape (count, dim, cols)."""
    return _haar_q(_complex_ginibre(dim, count, gen, cols))


def _complex_ginibre(dim: int, count: int, gen: np.random.Generator, cols: int) -> np.ndarray:
    """The Ginibre stack whose :func:`_haar_q` is :func:`haar_unitary_batch`."""
    if not 0 <= cols <= dim:
        raise InvalidArgument(f"need 0 <= cols <= dim, got dim={dim}, cols={cols}")
    shape = (count, dim, cols)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def _positive_modes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive half (omega, v) of ``eigh(1j * h)`` for a stack of real antisymmetric h.

    omega (..., n/2) is ascending; the columns v = p + i*q (..., n, n/2) obey
    h p = omega q and h q = -omega p, and for omega > 0 the vectors sqrt(2) q,
    sqrt(2) p of all modes are orthonormal.
    """
    w, v = np.linalg.eigh(1j * h)
    n = h.shape[-1] // 2
    return w[..., n:], v[..., n:]


def antisym_canonical(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of a real antisymmetric matrix of even dimension.

    Returns (M, omega) with M orthogonal and omega the dim/2 non-negative
    block coefficients sorted descending, such that

        M @ h @ M.T = direct_sum_i [[0, omega_i], [-omega_i, 0]].

    Row pair i of M is sqrt(2) q_i^T, sqrt(2) p_i^T for the eigenvector
    p_i + i*q_i of i*h (:func:`_positive_modes`).  One QR of M^T, diag R >= 0,
    makes M orthogonal to rounding, also when h has zero modes (last in M):
    eigh splits the kernel into vectors whose p and q need not be orthonormal.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2 != 0 or h.shape[0] == 0:
        raise InvalidArgument("input must be square with even dimension")
    n = h.shape[0]
    scale = max(np.max(np.abs(h)), 1.0)
    if np.max(np.abs(h + h.T)) > 1e-10 * scale:
        raise InvalidArgument("matrix is not antisymmetric within tolerance")
    omega, v = _positive_modes(h)
    m_t = np.stack([v.imag, v.real], axis=-1)[:, ::-1].reshape(n, n)  # columns q, p per mode, omega descending
    q, r = np.linalg.qr(np.sqrt(2.0) * m_t)
    return (q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)).T, np.maximum(omega[::-1], 0.0)
