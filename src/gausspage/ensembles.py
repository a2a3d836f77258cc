"""Samplers for the four state ensembles.

* Haar fermionic Gaussian states: the single state conjugates J0 by a Haar
  orthogonal matrix, and the batched sampler draws the beta-Jacobi (CS)
  matrix model of the restricted spectrum (Edelman and Sutton, Found.
  Comput. Math. 8, 2008), whose cost depends on min(N_A, N - N_A) only,
* eigenstates of random quadratic Hamiltonians,
* eigenstates of number-conserving random Hamiltonians (entropies only),
* Haar pure states of the full 2^N Hilbert space: the batched sampler draws
  the Laguerre bidiagonal model of their reduced density matrix (Dumitriu and
  Edelman, J. Math. Phys. 43, 5830, 2002), whose cost depends on
  2^min(N_A, N - N_A) only; the single-state functions hold 2^N amplitudes.

Every complex structure comes from one builder, :func:`pair_block`: a Haar
state O J0 O^T and an eigenstate M^T D M are both an orthogonal frame applied
to a block-diagonal reference, with the occupation signs of D absorbed into
the frame.  The batched samplers take a live generator and are used by the
Monte Carlo harness.  Those of the two eigenstate ensembles are
restriction-only: they keep only the rows that lie in A and build the block
[J]_A (or C_A) directly, never a full 2N x 2N structure.  Each kind of draw
comes from its own generator: a batched sampler draws each kind (the four
gamma families of the Gaussian model; h and the occupations; real parts,
imaginary parts and occupations; the diagonal and the subdiagonal of the
Page model) from a child generator seeded by the one it is given
(:func:`_kinds`).  Each kind's draws are then sequential in one
generator, so the entropies do not depend on how the samples are split into
batches.  Each batch is drawn, and then reduced in row slices of about 1 MB,
on the calling thread; the draw makes only RNG calls, and every operation on
the draws, even the antisymmetric part of a Hamiltonian, the Beta ratios of
the Gaussian model or the normalisation of the Page model, is part of the
reduction.  A sample's entropy depends neither on its slice nor on its batch,
so the output is the same for any core count.  A batched sampler may be
called concurrently, once per Monte Carlo block, on distinct generators.
Batch memory is bounded by construction, with no lock:
:func:`gausspage.stats.draw_streams` runs at most ``_cores()`` blocks at
once, and a block holds one batch at a time, of at most
``_BATCH_ELEMENTS // _cores()`` words, plus the temporaries of one slice,
since each batch is freed before the next is drawn.  So the batches in
flight hold at most ``_BATCH_ELEMENTS`` words between them.  The one
exception is a sample larger than a core's share, which is drawn alone: then
each running block holds that one sample.
The single-draw functions are pure functions of an :class:`RngStream`.
A single Hamiltonian draws a batch of one through the same helpers and the
same child generator; a Gaussian state and a Haar pure state are drawn
whole, not as batches of one of their models, and the tests hold each
model's law against them.  Every h, random or a caller's (A, B) written as
four real blocks by :func:`from_particle_basis`, has its modes from the real
eigenvectors of h h^T, in oriented planes (:func:`gausspage.linalg._mode_planes`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from gausspage.linalg import (
    InvalidArgument,
    RngStream,
    _haar_q,
    _mode_planes,
    antisym_canonical,
    haar_orthogonal,
)
from gausspage.gstates import SystemSplit, _xlogx, clip_unit, mode_entropy, restrict_blocks, subsystem_indices

# Dense Haar pure states (sample_haar_pure_state) hold 2^N amplitudes.
HAAR_PURE_MAX_MODES = 14
# The batched haar-pure sampler diagonalises one m x m matrix a sample, m = 2^min(N_A, N - N_A), up to
# m = 2^HAAR_PURE_MAX_SIDE = 128; and N is that of page_average_exact, its exact mean.
HAAR_PURE_MAX_SIDE = 7
HAAR_PURE_MAX_N = 1024


class ResourceLimit(RuntimeError):
    """Raised when a request would exceed the configured size guards."""


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic Hamiltonian in Majorana form, H = i sum h_uv xi_u xi_v, random or caller-given.

    ``M`` block-diagonalizes h (M h M^T = direct sum of [[0, w_i], [-w_i, 0]]) and
    ``omega`` holds the non-negative block coefficients, descending, both from
    :func:`gausspage.linalg.antisym_canonical`.  The many-body excitation energies
    are 2*omega per mode (the factor two comes from the Majorana normalization xi^2 = 1/2).
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


def _antisym(g: np.ndarray) -> np.ndarray:
    """Antisymmetric part 0.5 (g - g^T): O(2N)-invariant for a (stack of) standard normal 2N x 2N g."""
    return 0.5 * (g - np.swapaxes(g, -2, -1))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + 1j*im, the same bits, with no temporary 1j*im."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def sample_gaussian_state(N: int, rng: RngStream) -> np.ndarray:
    """Complex structure of a Haar-random pure fermionic Gaussian state."""
    o = haar_orthogonal(2 * N, rng)
    return pair_block(o[:, :N], o[:, N:])


def sample_random_hamiltonian(N: int, rng: RngStream) -> QuadraticHamiltonian:
    """Random quadratic Hamiltonian with O(2N)-invariant Gaussian coefficients."""
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    h = _antisym(_kinds(rng.generator(), 1)[0].standard_normal((2 * N, 2 * N)))  # as the batch of one draws h
    return QuadraticHamiltonian(N, h, *antisym_canonical(h))


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
    with H = i sum h_uv xi_u xi_v up to an additive constant: for
    a_j = (xi_j + i xi_{N+j})/sqrt(2), its real N x N blocks are
    h = [[Im A/2 + Im B, Re A/2 - Re B], [-Re A/2 - Re B, Im A/2 - Im B]].
    Its modes come from :func:`antisym_canonical`, as for a random h.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise InvalidArgument("A and B must be square matrices of equal shape")
    n = A.shape[0]
    if n < 1 or not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise InvalidArgument(f"need N >= 1 and A and B with finite entries, got N={n}")
    if np.max(np.abs(A - A.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
        raise InvalidArgument("A must be Hermitian")
    if np.max(np.abs(B + B.T)) > 1e-10 * max(1.0, np.max(np.abs(B))):
        raise InvalidArgument("B must be antisymmetric")
    h = np.block([[A.imag / 2 + B.imag, A.real / 2 - B.real], [-A.real / 2 - B.real, A.imag / 2 - B.imag]])
    h = 0.5 * (h - h.T)  # antisymmetric also where A and B have their symmetry only within the tolerance above
    m, omega = antisym_canonical(h)
    return QuadraticHamiltonian(N=n, h=h, M=m, omega=omega)


def many_body_spectrum(ham: QuadraticHamiltonian) -> np.ndarray:
    """All 2^N eigenenergies sum_i 2*omega_i*(n_i - 1/2), ascending."""
    energies = np.zeros(1)
    for w in ham.omega:
        energies = np.concatenate([energies - w, energies + w])
    return np.sort(energies)


def _kinds(gen: np.random.Generator, kinds: int) -> list[np.random.Generator]:
    """One generator for each of ``kinds`` kinds of draw, seeded by 128 bits of ``gen``.

    Kind k is child k of ``SeedSequence(entropy).spawn``, as ``Generator.spawn``
    (numpy >= 1.25) would make it, so it does not depend on ``kinds``.  Each
    kind's draws are then sequential in its own generator, so any split of the
    samples into batches draws the same bits.
    """
    entropy = int.from_bytes(gen.bytes(16), "little")
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(k,)))) for k in range(kinds)]


def _spectrum_entropies(lam: np.ndarray) -> np.ndarray:
    """-sum lambda log lambda over the last axis of computed reduced density spectra.

    Rounding may leave [0, 1], so lambda is clipped to it within ``CLAMP_TOL``.
    """
    return -np.sum(_xlogx(clip_unit(lam, "reduced density spectrum")), axis=-1)


def sample_haar_pure_state(N: int, rng: RngStream) -> np.ndarray:
    """Haar-random unit vector in the full 2^N-dimensional Hilbert space, for N <= HAAR_PURE_MAX_MODES.

    Its 2^N complex Gaussian amplitudes, normalised, have their real and
    imaginary parts from two :func:`_kinds` of the stream's generator.
    """
    if N > HAAR_PURE_MAX_MODES:
        raise ResourceLimit(f"dense haar pure states limited to N <= {HAAR_PURE_MAX_MODES}")
    SystemSplit(N, N)
    psi = _complex(*(part.standard_normal(2**N) for part in _kinds(rng.generator(), 2)))
    return psi / np.linalg.norm(psi)


def entanglement_entropy_pure(psi: np.ndarray, N_A: int) -> float:
    """Von Neumann entropy (nats) of the first N_A qubit-modes of psi.

    lambda is the spectrum of the Gram matrix on the smaller side: psi^+ psi
    has the nonzero spectrum of psi psi^+ (S_A = S_B).
    """
    N = psi.size.bit_length() - 1
    if psi.size != 2**N:  # also for size 0: 2**-1 = 0.5
        raise InvalidArgument(f"need a vector of 2^N amplitudes, got {psi.size}")
    SystemSplit(N, N_A)
    if not np.all(np.isfinite(psi)):
        raise InvalidArgument("psi must have finite amplitudes")
    mat = np.reshape(psi, (2**N_A, 2 ** (N - N_A)))
    if N_A > N - N_A:
        mat = mat.T
    return float(_spectrum_entropies(np.linalg.eigvalsh(mat @ mat.conj().T)))


# ---------------------------------------------------------------------------
# Batched entropy samplers (Monte Carlo workhorses)
# ---------------------------------------------------------------------------

# Cap on the 8-byte words of all batches in flight in the process (16 MB): one batch takes at most a
# core's share of it, counted in its largest array, and at most _cores() blocks draw at once.
_BATCH_ELEMENTS = 1 << 21
# A batch is reduced in row slices of about 1 MB of its largest array, which keeps the temporaries
# of the reduction small and the freed memory in the allocator's hands.
_PIECE_ELEMENTS = 1 << 17


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_batches(count: int, per_sample: int, draw, reduce) -> np.ndarray:
    """Entropies ``reduce(*draw(b))`` over batches covering ``count``.

    ``draw(b)`` makes the RNG calls of a batch and nothing else, and returns
    arrays of b rows; ``reduce`` does all the arithmetic and maps each row to
    its entropy alone, so a batch is reduced in row slices of about
    _PIECE_ELEMENTS words.  Each kind of draw is sequential in its own
    generator, so the entropies depend neither on the batch size nor on the
    slices.  A batch holds at most _BATCH_ELEMENTS // _cores() words (at
    least one sample), and it is reduced and freed before the next is drawn.
    """
    batch = max(1, _BATCH_ELEMENTS // _cores() // per_sample)
    rows = -(-_PIECE_ELEMENTS // per_sample)  # rows of a slice
    out = np.empty(count)
    for start in range(0, count, batch):
        part = out[start : start + batch]
        inputs = draw(len(part))
        for lo in range(0, len(part), rows):
            part[lo : lo + rows] = reduce(*(x[lo : lo + rows] for x in inputs))
        del inputs  # freed before the next batch is drawn
    return out


def _tridiagonal_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric tridiagonal matrices: diagonals (b, m), subdiagonals (b, m - 1)."""
    b, m = diag.shape
    t = np.zeros((b, m, m))  # its lower triangle, which eigvalsh reads
    flat = t.reshape(b, m * m)
    flat[:, :: m + 1] = diag
    flat[:, m :: m + 1] = off
    return np.linalg.eigvalsh(t)


def correlation_block(v: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """C_A = V^+ diag(n) V for V = U_A^+, the A rows of the unitary U as a frame."""
    return (np.swapaxes(v.conj(), -2, -1) * occ[..., None, :]) @ v


def gaussian_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of `count` Haar Gaussian states, through the beta-Jacobi (CS) matrix model of their restriction.

    The squares y = x^2 of the paired singular values of [J]_A are a beta = 2
    Jacobi ensemble of m = min(N_A, N - N_A) levels, with weight
    y^(-1/2) (1 - y)^Delta and Delta = |N - 2 N_A|.  Its CS model (Edelman and
    Sutton, Found. Comput. Math. 8, 2008, with a = -1/2 and b = Delta) has y as
    the squared singular values of the upper bidiagonal B with diagonal
    c_m, c_(m-1) s'_(m-1), ..., c_1 s'_1 and superdiagonal
    -s_m c'_(m-1), ..., -s_2 c'_1, where c_k^2 ~ Beta(k - 1/2, Delta + k) and
    c'_k^2 ~ Beta(k, Delta + k + 1/2), independent, and s^2 = 1 - c^2.  Each
    Beta pair is drawn as U/(U + V) and V/(U + V) of two gamma variates, four
    :func:`_kinds` in all, so that 1 - c^2 is never formed; y are the
    eigenvalues of the tridiagonal B B^T.  A draw costs 4m - 2 gamma variates
    and one m x m eigensolve, whatever N is.
    """
    SystemSplit(N, N_A)
    m, delta = min(N_A, N - N_A), abs(N - 2 * N_A)
    k = np.arange(m, 0, -1.0)  # c_m, ..., c_1; then c'_(m-1), ..., c'_1
    shapes = (k - 0.5, delta + k, k[1:], delta + k[1:] + 0.5)
    kinds = _kinds(gen, 4)

    def draw(b):
        return tuple(kind.standard_gamma(shape, size=(b, len(shape))) for kind, shape in zip(kinds, shapes))

    def reduce(u, v, up, vp):
        total, total_p = u + v, up + vp
        diag = u / total  # B_00^2 = c_m^2, and B_jj^2 = c_(m-j)^2 s'_(m-j)^2
        diag[:, 1:] *= vp / total_p
        sup = v[:, :-1] / total[:, :-1] * (up / total_p)  # B_j(j+1)^2 = s_(m-j)^2 c'_(m-j-1)^2
        off = np.sqrt(sup * diag[:, 1:])  # |(B B^T)_(j+1)j| = |B_j(j+1)| B_(j+1)(j+1)
        diag[:, :-1] += sup  # (B B^T)_jj = B_jj^2 + B_j(j+1)^2
        y = clip_unit(_tridiagonal_eigvalsh(diag, off), "squared restricted spectrum")
        return mode_entropy(np.sqrt(y)).sum(axis=1)

    return _in_batches(count, max(m, 1) ** 2, draw, reduce)


def hamiltonian_eigenstate_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random-Hamiltonian eigenstates with uniform occupations.

    (u1, u2) are the oriented mode planes of h, ascending in omega.  Up to a
    rotation within each plane they are the row pairs of the diagonalizer M of
    :func:`eigenstate_structure`, so [M^T D M]_A = pair_block(u1_A, u2_A, 1 - 2*occ).
    """
    idx = subsystem_indices(SystemSplit(N, N_A))
    h_gen, occ_gen = _kinds(gen, 2)

    def draw(b):
        return h_gen.standard_normal((b, 2 * N, 2 * N)), occ_gen.integers(0, 2, size=(b, N))

    def reduce(g, occ):
        u1, u2, _ = _mode_planes(_antisym(g))
        return mode_entropy(restrict_blocks(pair_block(u1[:, idx], u2[:, idx], 1.0 - 2.0 * occ))).sum(axis=1)

    return _in_batches(count, 8 * N * N, draw, reduce)


def haar_pure_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of Haar pure states on the full 2^N Hilbert space, through their Laguerre bidiagonal model.

    With k = min(N_A, N - N_A), m = 2^k and n = 2^(N - k), a Haar pure state is
    G/|G| for an m x n complex Ginibre G, and G G^+ has the law of B B^T, where
    B is lower bidiagonal with diagonal chi_2n, chi_2(n-1), ..., chi_2(n-m+1) and
    subdiagonal chi_2(m-1), ..., chi_2 (Dumitriu and Edelman, J. Math. Phys. 43,
    5830, 2002).  The draw is their squares over two, Gamma(n - j) and
    Gamma(m - 1 - j), from two :func:`_kinds`; lambda are the eigenvalues of the
    tridiagonal T = B B^T over its trace.  The squares are divided by n before T
    is formed, so that T does not overflow at large n.  A draw costs 2m - 1
    gamma variates and one m x m eigensolve, whatever N is.  The size guards
    come first, and draw nothing.
    """
    SystemSplit(N, N_A)
    k = min(N_A, N - N_A)
    if k > HAAR_PURE_MAX_SIDE or N > HAAR_PURE_MAX_N:
        raise ResourceLimit(
            f"haar pure sampling limited to min(N_A, N - N_A) <= {HAAR_PURE_MAX_SIDE} and N <= {HAAR_PURE_MAX_N},"
            f" got N={N}, N_A={N_A}"
        )
    m = 2**k
    n = 2.0 ** min(N - k, 1023)  # 2^1024 overflows; it is met only at k = 0, where lambda = [1] whatever is drawn
    diag_gen, sub_gen = _kinds(gen, 2)

    def draw(b):
        return (diag_gen.standard_gamma(n - np.arange(m), size=(b, m)),
                sub_gen.standard_gamma(np.arange(m - 1.0, 0.0, -1.0), size=(b, m - 1)))

    def reduce(diag, sub):
        diag, sub = diag / n, sub / n
        trace = diag.sum(axis=1, keepdims=True) + sub.sum(axis=1, keepdims=True)
        diag /= trace
        sub /= trace
        off = np.sqrt(diag[:, :-1] * sub)  # (B B^T)_(j+1)j = c_j b_j
        diag[:, 1:] += sub  # (B B^T)_jj = b_j^2 + c_(j-1)^2
        return _spectrum_entropies(_tridiagonal_eigvalsh(diag, off))

    return _in_batches(count, m * m, draw, reduce)


def number_conserving_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random number-conserving eigenstates, sum_i s(2 lambda_i - 1).

    lambda are the eigenvalues of C_A = U_A diag(n) U_A^+ for uniform occupations
    n; the A rows of the Haar unitary U are drawn as a complex Haar frame V = U_A^+.
    """
    SystemSplit(N, N_A)
    re_gen, im_gen, occ_gen = _kinds(gen, 3)

    def draw(b):
        re, im = (part.standard_normal((b, N, N_A)) for part in (re_gen, im_gen))
        return re, im, occ_gen.integers(0, 2, size=(b, N))

    def reduce(re, im, occ):
        v = _haar_q(_complex(re, im))
        lam = clip_unit(np.linalg.eigvalsh(correlation_block(v, occ)), "correlation spectrum")
        return mode_entropy(2.0 * lam - 1.0).sum(axis=1)

    return _in_batches(count, 2 * N * max(N_A, 1), draw, reduce)
