"""Dense real linear algebra on small matrices.

Haar-orthogonal sampling, symmetric eigendecomposition and the canonical
(block-diagonal) form of real antisymmetric matrices.  Everything here is a
pure function of its inputs; random draws are pure functions of an
:class:`RngStream`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


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
    cols = dim if cols is None else cols
    if dim < 2 or dim % 2 != 0 or not 0 <= cols <= dim:
        raise InvalidArgument(f"need even dim >= 2 and 0 <= cols <= dim, got dim={dim}, cols={cols}")
    return _haar_q(gen.standard_normal((count, dim, cols)))


def haar_unitary_batch(dim: int, count: int, gen: np.random.Generator, cols: int) -> np.ndarray:
    """Leading ``cols`` columns of stacked Haar U(dim) samples, shape (count, dim, cols)."""
    if not 0 <= cols <= dim:
        raise InvalidArgument(f"need 0 <= cols <= dim, got dim={dim}, cols={cols}")
    shape = (count, dim, cols)
    return _haar_q(gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def sym_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns,
    satisfying ``S @ V = V @ diag(lam)`` to 1e-10 relative.
    """
    s = np.asarray(s, dtype=float)
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.T)) > 1e-10 * scale:
        raise InvalidArgument("matrix is not symmetric within tolerance")
    lam, v = np.linalg.eigh(s)
    return lam[::-1].copy(), v[:, ::-1].copy()


def antisym_canonical(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of a real antisymmetric matrix of even dimension.

    Returns (M, omega) with M orthogonal and omega the dim/2 non-negative
    block coefficients sorted descending, such that

        M @ h @ M.T = direct_sum_i [[0, omega_i], [-omega_i, 0]].

    Implemented via the real Schur decomposition, whose 2x2 blocks for a
    normal antisymmetric matrix are exactly the canonical rotations; blocks
    are then sign-fixed and sorted.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if h.ndim != 2 or h.shape[0] != h.shape[1] or n % 2 != 0 or n == 0:
        raise InvalidArgument("input must be square with even dimension")
    scale = max(np.max(np.abs(h)), 1.0)
    if np.max(np.abs(h + h.T)) > 1e-10 * scale:
        raise InvalidArgument("matrix is not antisymmetric within tolerance")
    # h = Z T Z^T with T block upper-triangular; antisymmetry makes T
    # block-diagonal up to roundoff.
    t, z = scipy.linalg.schur(h, output="real")
    m = z.T.copy()
    omega = np.empty(n // 2)
    for k in range(n // 2):
        w = t[2 * k, 2 * k + 1]
        if w < 0:
            w = -w
            m[[2 * k, 2 * k + 1]] = m[[2 * k + 1, 2 * k]]
        omega[k] = w
    order = np.argsort(-omega, kind="stable")
    omega = omega[order]
    rows = np.empty(n, dtype=int)
    rows[0::2] = 2 * order
    rows[1::2] = 2 * order + 1
    return m[rows], omega
