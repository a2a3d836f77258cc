"""Samplers for the four state ensembles.

* Haar fermionic Gaussian states (orthogonal-group conjugation of J0),
* eigenstates of random quadratic Hamiltonians,
* eigenstates of number-conserving random Hamiltonians (entropies only),
* Haar pure states of the full 2^N Hilbert space (small-N oracle).

Every complex structure comes from one builder, :func:`pair_block`: a Haar
state O J0 O^T and an eigenstate M^T D M are both an orthogonal frame applied
to a block-diagonal reference, with the occupation signs of D absorbed into
the frame.  The batched samplers take a live generator and are used by the
Monte Carlo harness.  They are restriction-only: they draw or keep only the
rows that lie in A and build the block [J]_A (or C_A) directly, never a full
2N x 2N structure.  Each batch is drawn serially, and its linear algebra then
runs on the available cores in row pieces; a sample's entropy does not depend
on its piece, so the output is the same for any core count.  The single-draw
functions are pure functions of an :class:`RngStream` and draw a batch of one
through the same helpers.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from gausspage.linalg import (
    InvalidArgument,
    RngStream,
    _complex_ginibre,
    _haar_q,
    _positive_modes,
    _real_ginibre,
    antisym_canonical,
    haar_orthogonal,
)
from gausspage.gstates import SystemSplit, mode_entropy, restrict_blocks, subsystem_indices

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


def pair_block(a: np.ndarray, b: np.ndarray, signs: np.ndarray | None = None) -> np.ndarray:
    """sum_k s_k (a_k b_k^T - b_k a_k^T) over the columns a_k, b_k of stacked a and b.

    J = O J0 O^T is ``pair_block(O[:, :N], O[:, N:])``, and M^T D M with
    blocks s_k [[0, 1], [-1, 0]] in D is ``pair_block(M[0::2].T, M[1::2].T, s)``.
    Passing only the rows of a and b that lie in A gives [J]_A.
    """
    if signs is not None:
        a = a * signs[..., None, :]
    y = a @ np.swapaxes(b, -2, -1)
    return y - np.swapaxes(y, -2, -1)


def _random_antisym(N: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` O(2N)-invariant Gaussian antisymmetric 2N x 2N matrices."""
    g = gen.standard_normal((count, 2 * N, 2 * N))
    return 0.5 * (g - np.swapaxes(g, -2, -1))


def sample_gaussian_state(N: int, rng: RngStream) -> np.ndarray:
    """Complex structure of a Haar-random pure fermionic Gaussian state."""
    o = haar_orthogonal(2 * N, rng)
    return pair_block(o[:, :N], o[:, N:])


def sample_random_hamiltonian(N: int, rng: RngStream) -> QuadraticHamiltonian:
    """Random quadratic Hamiltonian with O(2N)-invariant Gaussian coefficients."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    h = _random_antisym(N, 1, rng.generator())[0]
    m, omega = antisym_canonical(h)
    return QuadraticHamiltonian(N=N, h=h, M=m, omega=omega)


def eigenstate_structure(ham: QuadraticHamiltonian, occ: np.ndarray) -> np.ndarray:
    """Complex structure M^T D M of the energy eigenstate with given mode occupations.

    D is block diagonal in the diagonalizer's interleaved basis: the vacuum
    block [[0,1],[-1,0]] for empty modes, sign-flipped for occupied ones.
    """
    occ = np.asarray(occ, dtype=int)
    if occ.shape != (ham.N,):
        raise InvalidArgument(f"occupation pattern must have length {ham.N}")
    return pair_block(ham.M[0::2].T, ham.M[1::2].T, 1.0 - 2.0 * occ)


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
    # a = w xi with w = [I, iI]/sqrt(2) = kron(u, I)/sqrt(2), u = (1, i), so H = xi^T c xi
    # with c = w^+ A w + w^+ B conj(w) + w^T B^+ w: one Kronecker product per term
    u = np.array([1.0, 1j])
    c = np.kron(np.outer(u.conj(), u), A) + np.kron(np.outer(u.conj(), u.conj()), B)
    c = 0.5 * (c + np.kron(np.outer(u, u), B.conj().T))
    # symmetric part only shifts the constant; i*h is the antisymmetric part
    h = -0.5j * (c - c.T)
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


def _haar_pure_states(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` Haar pure states of N modes, each as a 2^N_A x 2^(N - N_A) matrix."""
    if N > HAAR_PURE_MAX_MODES:
        raise ResourceLimit(f"haar pure states limited to N <= {HAAR_PURE_MAX_MODES}")
    SystemSplit(N, N_A)
    shape = (count, 2**N_A, 2 ** (N - N_A))
    psi = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    psi /= np.linalg.norm(psi.reshape(count, 2**N), axis=1)[:, None, None]
    return psi


def _pure_entropies(psi: np.ndarray) -> np.ndarray:
    """Entropies -sum lambda log lambda of a stack of pure states psi (..., d_A, d_B).

    lambda is the spectrum of the Gram matrix on the smaller side: psi^+ psi
    has the nonzero spectrum of psi psi^+ (S_A = S_B).  Rounding may leave
    [0, 1], so lambda is clipped to it.
    """
    if psi.shape[-2] > psi.shape[-1]:
        psi = np.swapaxes(psi, -2, -1)
    lam = np.clip(np.linalg.eigvalsh(psi @ np.swapaxes(psi.conj(), -2, -1)), 0.0, 1.0)
    return -np.sum(lam * np.log(np.where(lam > 0, lam, 1.0)), axis=-1)


def sample_haar_pure_state(N: int, rng: RngStream) -> np.ndarray:
    """Haar-random unit vector in the full 2^N-dimensional Hilbert space."""
    return _haar_pure_states(N, N, 1, rng.generator()).reshape(-1)


def entanglement_entropy_pure(psi: np.ndarray, N_A: int) -> float:
    """Von Neumann entropy (nats) of the first N_A qubit-modes of psi."""
    N = int(round(np.log2(psi.size)))
    SystemSplit(N, N_A)
    return float(_pure_entropies(psi.reshape(1, 2**N_A, 2 ** (N - N_A)))[0])


# ---------------------------------------------------------------------------
# Batched entropy samplers (Monte Carlo workhorses)
# ---------------------------------------------------------------------------

_BATCH = 2048
# Cap on the 8-byte words in the largest array of one batch (32 MB).
_BATCH_ELEMENTS = 1 << 22
# A batch is reduced in at most _MAX_PIECES row pieces of at least 1 MB of its largest
# array: smaller pieces slow the cheap samplers and strand temporaries in per-thread arenas.
_PIECE_ELEMENTS = 1 << 17
_MAX_PIECES = 16


@functools.cache
def _pool():
    """One reduction thread per core this process may run on, at most _MAX_PIECES; None on one core."""
    from concurrent.futures import ThreadPoolExecutor  # here, not at import, which it would slow by ~8 ms

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return ThreadPoolExecutor(min(cores, _MAX_PIECES), thread_name_prefix="gausspage") if cores > 1 else None


if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's pool threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _in_batches(count: int, per_sample: int, draw, reduce) -> np.ndarray:
    """Entropies ``reduce(*draw(b))`` over batches covering ``count``.

    ``draw(b)`` makes all RNG calls of a batch and returns arrays of b rows;
    ``reduce`` maps each row to its entropy alone, so row pieces of a batch are
    reduced on the pool.  A piece's error is raised once every piece is done.
    """
    batch = max(1, min(_BATCH, _BATCH_ELEMENTS // per_sample))
    piece = -(-_PIECE_ELEMENTS // per_sample)  # fewest rows in a piece
    out = np.empty(count)
    for start in range(0, count, batch):
        b = min(batch, count - start)
        inputs = draw(b)
        pieces = min(_MAX_PIECES, b // piece)
        pool = _pool() if pieces > 1 else None
        if pool is None:
            out[start : start + b] = reduce(*inputs)
            continue
        cuts = [b * i // pieces for i in range(pieces + 1)]

        def reduce_piece(lo: int, hi: int) -> None:
            out[start + lo : start + hi] = reduce(*(x[lo:hi] for x in inputs))

        futures = [pool.submit(reduce_piece, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        errors = [future.exception() for future in futures]  # waits for every piece
        for error in filter(None, errors):
            raise error
    return out


def correlation_block(v: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """C_A = V^+ diag(n) V for V = U_A^+, the A rows of the unitary U as a frame."""
    return (np.swapaxes(v.conj(), -2, -1) * occ[..., None, :]) @ v


def gaussian_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of `count` Haar Gaussian states; the A rows of O are a Haar frame."""
    SystemSplit(N, N_A)

    def reduce(g):
        rows = np.swapaxes(_haar_q(g), -2, -1)
        return mode_entropy(restrict_blocks(pair_block(rows[..., :N], rows[..., N:]))).sum(axis=1)

    return _in_batches(count, 4 * N * max(N_A, 1), lambda b: (_real_ginibre(2 * N, b, gen, 2 * N_A),), reduce)


def hamiltonian_eigenstate_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random-Hamiltonian eigenstates with uniform occupations.

    v = p + i*q are the A rows of the positive-half eigenvectors of i*h; the
    diagonalizer M of :func:`eigenstate_structure` has the rows sqrt(2) q^T,
    sqrt(2) p^T, so [M^T D M]_A = 2 pair_block(q_A, p_A, 1 - 2*occ).
    """
    idx = subsystem_indices(SystemSplit(N, N_A))

    def draw(b):
        return _random_antisym(N, b, gen), gen.integers(0, 2, size=(b, N))

    def reduce(h, occ):
        v = _positive_modes(h)[1][:, idx]
        return mode_entropy(restrict_blocks(2.0 * pair_block(v.imag, v.real, 1.0 - 2.0 * occ))).sum(axis=1)

    return _in_batches(count, 8 * N * N, draw, reduce)


def haar_pure_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of Haar pure states on the full 2^N Hilbert space."""
    _haar_pure_states(N, N_A, 0, gen)  # the size guards, also for count = 0; draws nothing
    return _in_batches(count, 2 ** (N + 1), lambda b: (_haar_pure_states(N, N_A, b, gen),), _pure_entropies)


def number_conserving_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random number-conserving eigenstates, sum_i s(2 lambda_i - 1).

    lambda are the eigenvalues of C_A = U_A diag(n) U_A^+ for uniform occupations
    n; the A rows of the Haar unitary U are drawn as a complex Haar frame V = U_A^+.
    """
    SystemSplit(N, N_A)

    def draw(b):
        return _complex_ginibre(N, b, gen, N_A), gen.integers(0, 2, size=(b, N))

    def reduce(g, occ):
        lam = np.clip(np.linalg.eigvalsh(correlation_block(_haar_q(g), occ)), 0.0, 1.0)  # rounding may leave [0, 1]
        return mode_entropy(2.0 * lam - 1.0).sum(axis=1)

    return _in_batches(count, 2 * N * max(N_A, 1), draw, reduce)
