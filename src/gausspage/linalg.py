"""Dense linear algebra on small matrices.

Haar-orthogonal and Haar-unitary sampling, and the invariant planes of real
antisymmetric matrices h by one route, :func:`_mode_planes`, for random
draws (single or batched) and caller-given Hamiltonians
(:func:`antisym_canonical`) alike.  It takes the real eigendecomposition of
h h^T, whose eigenvector pairs span the plane of each mode, and measures how
far each plane is from invariant under h.  Only where a matrix has exactly
or nearly degenerate modes (eps_k = eps_-k on a translation-invariant ring,
or two close small modes) does a Hermitian eigendecomposition of i*h run,
restricted to the span of the planes it flagged.  A zero mode costs the
route no accuracy, and nothing divides by omega.

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

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise InvalidArgument(f"need a seed and a stream >= 0, got seed={self.seed}, stream={self.stream}")

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


# A plane is split anew where max|h u2_k - w_k u1_k| > PLANE_TOL |h|; a generic h stays below 1e-13 |h|.
PLANE_TOL = 1e-11


def _mode_planes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oriented invariant planes (u1, u2), each (..., n, n/2), and omega of a stack of real antisymmetric h.

    h h^T = -h^2 has each omega_k^2 twice, so the eigenvector pairs of
    ``eigh(h @ h^T)`` span the plane of mode k, in ascending omega as in the
    positive half of ``eigh(1j * h)``.  u2_k is flipped where u1_k^T h u2_k < 0,
    so that h u2_k = omega_k u1_k and h u1_k = -omega_k u2_k.  [u1, u2] is
    orthogonal to rounding, and nothing divides by omega; omega_k = |u1_k^T h u2_k|.
    The planes of one h with a residual above ``PLANE_TOL`` |h| (equal or close omega) span an
    h-invariant V; the positive half p + i*q (h p = omega q) of the eigenvectors of i V^T h V
    replaces them, orthonormal near omega = 0 after one QR of [q, p] with diag R >= 0.
    """
    lam, u = np.linalg.eigh(h @ np.swapaxes(h, -2, -1))
    u1, u2 = u[..., 0::2], u[..., 1::2]
    hu2 = h @ u2
    prod = u1 * hu2
    w = np.sum(prod, axis=-2)
    hu2 -= np.multiply(u1, w[..., None, :], out=prod)  # the residual h u2 - w u1, in place
    tol = PLANE_TOL * np.sqrt(np.abs(lam[..., -1:]))  # |h| = sqrt of the largest eigenvalue of h h^T
    if np.abs(hu2, out=hu2).max() > tol.min():  # one pass over the stack when no plane is off
        bad = hu2.max(axis=-2) > tol
        for i in map(tuple, np.argwhere(bad.any(axis=-1))):
            v = np.concatenate([u1[i][:, bad[i]], u2[i][:, bad[i]]], axis=1)
            e, z = np.linalg.eigh(1j * (v.T @ h[i] @ v))
            m = len(e) // 2
            q, r = np.linalg.qr(np.stack([z.imag, z.real], axis=-1)[:, : m - 1 : -1].reshape(2 * m, 2 * m))
            q = v @ (q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0))  # columns q, p per mode, omega descending
            u1[i][:, bad[i]], u2[i][:, bad[i]], w[i][bad[i]] = q[:, -2::-2], q[:, ::-2], np.maximum(e[m:], 0.0)
    sigma = np.where(w < 0.0, -1.0, 1.0)
    return u1, u2 * sigma[..., None, :], np.abs(w)


def antisym_canonical(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of a real antisymmetric matrix of even dimension.

    Returns (M, omega) with M orthogonal and omega the dim/2 non-negative
    block coefficients sorted descending, such that

        M @ h @ M.T = direct_sum_i [[0, omega_i], [-omega_i, 0]].

    Row pair i of M is (u1_i, u2_i) of :func:`_mode_planes`, for any spectrum.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2 != 0 or h.shape[0] == 0:
        raise InvalidArgument("input must be square with even dimension")
    top = np.maximum(h.max(), -h.min())  # max|h|: nan or inf unless h is finite
    if not np.isfinite(top) or np.max(np.abs(h + h.T)) > 1e-10 * max(top, 1.0):
        raise InvalidArgument("matrix must have finite entries and be antisymmetric within tolerance")
    u1, u2, omega = _mode_planes(h)
    order = np.argsort(-omega, kind="stable")  # exactly descending, also among zero modes' rounding-level omega
    return np.stack([u1.T[order], u2.T[order]], axis=1).reshape(h.shape), omega[order]
