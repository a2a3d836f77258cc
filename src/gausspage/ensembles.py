"""Samplers for the four state ensembles.

* Haar fermionic Gaussian states (orthogonal-group conjugation of J0),
* eigenstates of random quadratic Hamiltonians,
* eigenstates of number-conserving random Hamiltonians (entropies only),
* Haar pure states of the full 2^N Hilbert space (small-N oracle).

All samplers are pure functions of an :class:`RngStream`; batched variants
take a live generator and are used by the Monte Carlo harness.  They are
restriction-only: they draw or keep only the rows that lie in A and build the
block [J]_A (or C_A) directly, never a full 2N x 2N structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gausspage.linalg import (
    InvalidArgument,
    RngStream,
    _positive_modes,
    antisym_canonical,
    haar_orthogonal,
    haar_orthogonal_batch,
    haar_unitary_batch,
)
from gausspage.gstates import (
    SystemSplit,
    conjugate,
    mode_entropy,
    reference_structure,
    restrict_blocks,
    subsystem_indices,
)

HAAR_PURE_MAX_MODES = 14


class ResourceLimit(RuntimeError):
    """Raised when a request would exceed the configured size guards."""


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Random quadratic Hamiltonian in Majorana form, H = i sum h_uv xi_u xi_v.

    ``M`` block-diagonalizes h (M h M^T = direct sum of [[0, w_i], [-w_i, 0]])
    and ``omega`` holds the non-negative block coefficients, descending.  The
    many-body excitation energies are 2*omega per mode (the factor two comes
    from the Majorana normalization xi^2 = 1/2).
    """

    N: int
    h: np.ndarray
    M: np.ndarray
    omega: np.ndarray


def split_to_interleaved(N: int) -> np.ndarray:
    """Index permutation from split Majorana ordering to interleaved pairs.

    ``interleaved[i] = split[perm[i]]`` with perm = (0, N, 1, N+1, ...).
    """
    perm = np.empty(2 * N, dtype=int)
    perm[0::2] = np.arange(N)
    perm[1::2] = N + np.arange(N)
    return perm


def _interleaved_structure(signs: np.ndarray) -> np.ndarray:
    """Block-diagonal complex structure with per-mode blocks sign*[[0,1],[-1,0]]."""
    n = signs.size
    d = np.zeros((2 * n, 2 * n))
    idx = 2 * np.arange(n)
    d[idx, idx + 1] = signs
    d[idx + 1, idx] = -signs
    return d


def sample_gaussian_state(N: int, rng: RngStream) -> np.ndarray:
    """Complex structure of a Haar-random pure fermionic Gaussian state."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    return conjugate(reference_structure(N), haar_orthogonal(2 * N, rng))


def sample_random_hamiltonian(N: int, rng: RngStream) -> QuadraticHamiltonian:
    """Random quadratic Hamiltonian with O(2N)-invariant Gaussian coefficients."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    gen = rng.generator()
    g = gen.standard_normal((2 * N, 2 * N))
    h = 0.5 * (g - g.T)
    m, omega = antisym_canonical(h)
    return QuadraticHamiltonian(N=N, h=h, M=m, omega=omega)


def eigenstate_structure(ham: QuadraticHamiltonian, occ: np.ndarray) -> np.ndarray:
    """Complex structure of the energy eigenstate with given mode occupations.

    In the diagonalizer's interleaved basis the eigenstate's complex
    structure is block diagonal: the vacuum block [[0,1],[-1,0]] for empty
    modes, sign-flipped for occupied ones.  Conjugating back with M gives
    the structure in the original Majorana basis.
    """
    occ = np.asarray(occ, dtype=int)
    if occ.shape != (ham.N,):
        raise InvalidArgument(f"occupation pattern must have length {ham.N}")
    d = _interleaved_structure(1.0 - 2.0 * occ)
    return ham.M.T @ d @ ham.M


def from_particle_basis(A: np.ndarray, B: np.ndarray) -> QuadraticHamiltonian:
    """Majorana form of H = sum A_ij a+_i a_j + (sum B_ij a+_i a+_j + h.c.).

    A must be Hermitian (that term is self-adjoint as written); the h.c.
    applies to the pair-creation part.  Returns the real antisymmetric h
    with H = i sum h_uv xi_u xi_v up to an additive constant.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise InvalidArgument("A and B must be square matrices of equal shape")
    if np.max(np.abs(A - A.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
        raise InvalidArgument("A must be Hermitian")
    if np.max(np.abs(B + B.T)) > 1e-10 * max(1.0, np.max(np.abs(B))):
        raise InvalidArgument("B must be antisymmetric")
    top, bot = slice(0, n), slice(n, 2 * n)
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    # a+_i a_j = (xi_i xi_j + i xi_i xi_{N+j} - i xi_{N+i} xi_j + xi_{N+i} xi_{N+j}) / 2
    c[top, top] += 0.5 * A
    c[top, bot] += 0.5j * A
    c[bot, top] += -0.5j * A
    c[bot, bot] += 0.5 * A
    # a+_i a+_j = (xi_i xi_j - i xi_i xi_{N+j} - i xi_{N+i} xi_j - xi_{N+i} xi_{N+j}) / 2
    c[top, top] += 0.5 * B
    c[top, bot] += -0.5j * B
    c[bot, top] += -0.5j * B
    c[bot, bot] += -0.5 * B
    # h.c. term: sum conj(B)_ij a_j a_i
    bh = B.conj().T
    c[top, top] += 0.5 * bh
    c[top, bot] += 0.5j * bh
    c[bot, top] += 0.5j * bh
    c[bot, bot] += -0.5 * bh
    # symmetric part only shifts the constant; i*h is the antisymmetric part
    k = 0.5 * (c - c.T)
    h = -1j * k
    if np.max(np.abs(h.imag)) > 1e-10 * max(1.0, np.max(np.abs(h))):
        raise InvalidArgument("inconsistent (A, B): Majorana coefficients not real")
    h = h.real
    m, omega = antisym_canonical(h)
    return QuadraticHamiltonian(N=n, h=h, M=m, omega=omega)


def many_body_spectrum(ham: QuadraticHamiltonian) -> np.ndarray:
    """All 2^N eigenenergies sum_i 2*omega_i*(n_i - 1/2), ascending."""
    energies = np.zeros(1)
    for w in ham.omega:
        energies = np.concatenate([energies - w, energies + w])
    return np.sort(energies)


def sample_haar_pure_state(N: int, rng: RngStream) -> np.ndarray:
    """Haar-random unit vector in the full 2^N-dimensional Hilbert space."""
    if N > HAAR_PURE_MAX_MODES:
        raise ResourceLimit(f"haar pure states limited to N <= {HAAR_PURE_MAX_MODES}")
    gen = rng.generator()
    v = gen.standard_normal(2**N) + 1j * gen.standard_normal(2**N)
    return v / np.linalg.norm(v)


def entanglement_entropy_pure(psi: np.ndarray, N_A: int) -> float:
    """Von Neumann entropy (nats) of the first N_A qubit-modes of psi."""
    dim = psi.size
    N = int(round(np.log2(dim)))
    if N_A > N:
        raise InvalidArgument(f"N_A={N_A} exceeds N={N}")
    mat = psi.reshape(2**N_A, 2 ** (N - N_A))
    lam = np.linalg.eigvalsh(mat @ mat.conj().T)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def sample_number_conserving_eigenstate(N: int, N_A: int, rng: RngStream) -> float:
    """Entropy of one random eigenstate of a number-conserving Hamiltonian."""
    if N < 2:
        raise InvalidArgument(f"need N >= 2, got {N}")
    return float(number_conserving_entropies(N, N_A, 1, rng.generator())[0])


# ---------------------------------------------------------------------------
# Batched entropy samplers (Monte Carlo workhorses)
# ---------------------------------------------------------------------------

_BATCH = 2048
# Cap on the 8-byte words in the largest array of one batch (32 MB).
_BATCH_ELEMENTS = 1 << 22


def _in_batches(count: int, per_sample: int, draw) -> np.ndarray:
    """Concatenate ``draw(b)`` (b entropies each) over batches covering ``count``."""
    batch = max(1, min(_BATCH, _BATCH_ELEMENTS // per_sample))
    out = np.empty(count)
    for start in range(0, count, batch):
        b = min(batch, count - start)
        out[start : start + b] = draw(b)
    return out


def frame_block(rows: np.ndarray) -> np.ndarray:
    """[J]_A of J = O J0 O^T from the A rows R = [P S] of O: R J0 R^T = P S^T - S P^T."""
    n = rows.shape[-1] // 2
    y = rows[..., :n] @ np.swapaxes(rows[..., n:], -2, -1)
    return y - np.swapaxes(y, -2, -1)


def eigenstate_block(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """[M^T D M]_A = 2 (q_A S p_A^T - p_A S q_A^T) of eigenstates, S = diag(1 - 2*occ).

    v = p + i*q are the A rows of the positive-half eigenvectors of i*h; the
    diagonalizer M of :func:`eigenstate_structure` has the rows sqrt(2) q^T, sqrt(2) p^T.
    """
    y = 2.0 * (v.imag * signs[..., None, :]) @ np.swapaxes(v.real, -2, -1)
    return y - np.swapaxes(y, -2, -1)


def correlation_block(v: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """C_A = V^+ diag(n) V for V = U_A^+, the A rows of the unitary U as a frame."""
    return (np.swapaxes(v.conj(), -2, -1) * occ[..., None, :]) @ v


def gaussian_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of `count` Haar Gaussian states; the A rows of O are a Haar frame."""
    SystemSplit(N, N_A)

    def draw(b):
        rows = np.swapaxes(haar_orthogonal_batch(2 * N, b, gen, cols=2 * N_A), -2, -1)
        return mode_entropy(restrict_blocks(frame_block(rows))).sum(axis=1)

    return _in_batches(count, 4 * N * max(N_A, 1), draw)


def hamiltonian_eigenstate_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random-Hamiltonian eigenstates with uniform occupations."""
    idx = subsystem_indices(SystemSplit(N, N_A))

    def draw(b):
        g = gen.standard_normal((b, 2 * N, 2 * N))
        h = 0.5 * (g - np.swapaxes(g, -2, -1))
        v = _positive_modes(h)[1][:, idx]
        signs = 1.0 - 2.0 * gen.integers(0, 2, size=(b, N))
        return mode_entropy(restrict_blocks(eigenstate_block(v, signs))).sum(axis=1)

    return _in_batches(count, 8 * N * N, draw)


def haar_pure_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of Haar pure states on the full 2^N Hilbert space."""
    if N > HAAR_PURE_MAX_MODES:
        raise ResourceLimit(f"haar pure states limited to N <= {HAAR_PURE_MAX_MODES}")
    SystemSplit(N, N_A)
    da, db = 2**N_A, 2 ** (N - N_A)

    def draw(b):
        psi = gen.standard_normal((b, da, db)) + 1j * gen.standard_normal((b, da, db))
        psi /= np.linalg.norm(psi.reshape(b, -1), axis=1)[:, None, None]
        if da > db:  # psi^+ psi has the nonzero spectrum of psi psi^+ (S_A = S_B) on the smaller side
            psi = np.swapaxes(psi, -2, -1)
        lam = np.clip(np.linalg.eigvalsh(psi @ np.swapaxes(psi.conj(), -2, -1)), 0.0, 1.0)
        return -np.sum(lam * np.log(np.where(lam > 0, lam, 1.0)), axis=1)

    return _in_batches(count, 2 * da * db, draw)


def number_conserving_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random number-conserving eigenstates, sum_i s(2 lambda_i - 1).

    lambda are the eigenvalues of C_A = U_A diag(n) U_A^+ for uniform occupations
    n; the A rows of the Haar unitary U are drawn as a complex Haar frame V = U_A^+.
    """
    SystemSplit(N, N_A)

    def draw(b):
        v = haar_unitary_batch(N, b, gen, N_A)
        occ = gen.integers(0, 2, size=(b, N))
        lam = np.clip(np.linalg.eigvalsh(correlation_block(v, occ)), 0.0, 1.0)  # rounding may leave [0, 1]
        return mode_entropy(2.0 * lam - 1.0).sum(axis=1)

    return _in_batches(count, 2 * N * max(N_A, 1), draw)
