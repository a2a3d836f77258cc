"""Dense linear algebra on small matrices.

Haar-orthogonal and Haar-unitary sampling, and the invariant planes of real
antisymmetric matrices h, by one of two routes:

* :func:`antisym_canonical` takes the Hermitian eigendecomposition of i*h.
  It serves caller-given Hamiltonians (direct calls, and
  :func:`gausspage.ensembles.from_particle_basis`), which may have exactly
  degenerate modes (zero modes, or eps_k = eps_-k on a translation-invariant
  ring), and it splits them into orthonormal planes all the same.
* :func:`_mode_planes` takes the real eigendecomposition of h h^T for every
  random draw, single or batched: a Gaussian random h, whose spectrum is
  simple with probability one.  It takes one real eigensolve in
  place of a complex one, and a mode near omega = 0 costs it no accuracy.
  Two modes i, j are told apart only to about
  eps*|h|^2/|omega_i^2 - omega_j^2|, against eps*|h|/|omega_i - omega_j|
  through i*h: its one weak case is a close pair of small modes.

Everything here is a pure function of its inputs; random draws are pure
functions of an :class:`RngStream`.
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


def _mode_planes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oriented invariant planes (u1, u2), each (..., n, n/2), and omega of a stack of real antisymmetric h.

    h h^T = -h^2 has each omega_k^2 twice, so the eigenvector pairs of
    ``eigh(h @ h^T)`` span the plane of mode k, in ascending omega as in the
    positive half of ``eigh(1j * h)``.  u2_k is flipped where u1_k^T h u2_k < 0,
    so that h u2_k = omega_k u1_k and h u1_k = -omega_k u2_k.  [u1, u2] is
    orthogonal to rounding, and nothing divides by omega; omega_k = |u1_k^T h u2_k|.
    """
    u = np.linalg.eigh(h @ np.swapaxes(h, -2, -1))[1]
    u1, u2 = u[..., 0::2], u[..., 1::2]
    w = np.sum(u1 * (h @ u2), axis=-2)
    sigma = np.where(w < 0.0, -1.0, 1.0)
    return u1, u2 * sigma[..., None, :], np.abs(w)


def antisym_canonical(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of a real antisymmetric matrix of even dimension.

    Returns (M, omega) with M orthogonal and omega the dim/2 non-negative
    block coefficients sorted descending, such that

        M @ h @ M.T = direct_sum_i [[0, omega_i], [-omega_i, 0]].

    Row pair i of M is sqrt(2) q_i^T, sqrt(2) p_i^T for the eigenvector
    p_i + i*q_i of i*h with eigenvalue omega_i >= 0, so that h p_i = omega_i q_i
    and h q_i = -omega_i p_i.  One QR of M^T, diag R >= 0, makes M orthogonal
    to rounding, also when h has zero modes (last in M): eigh splits the
    kernel into vectors whose p and q need not be orthonormal.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2 != 0 or h.shape[0] == 0:
        raise InvalidArgument("input must be square with even dimension")
    n = h.shape[0]
    scale = max(np.max(np.abs(h)), 1.0)
    if np.max(np.abs(h + h.T)) > 1e-10 * scale:
        raise InvalidArgument("matrix is not antisymmetric within tolerance")
    w, v = np.linalg.eigh(1j * h)
    omega, v = w[n // 2 :], v[:, n // 2 :]  # the positive half, ascending
    m_t = np.stack([v.imag, v.real], axis=-1)[:, ::-1].reshape(n, n)  # columns q, p per mode, omega descending
    q, r = np.linalg.qr(np.sqrt(2.0) * m_t)
    return (q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)).T, np.maximum(omega[::-1], 0.0)
