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
2N x 2N structure.  Each kind of draw comes from its own generator: a sampler
that draws one kind (the Gaussian frame) draws it from the stream's
generator, and one that draws several (h and the occupations; real parts,
imaginary parts and occupations) draws each from a child generator seeded by
the stream's (:func:`_kinds`).  Each kind's draws are then sequential in one
generator, so the entropies do not depend on how the samples are split into
batches.  Each batch is drawn serially, and the draw makes only RNG calls:
every operation on the draws, even the antisymmetric part of a Hamiltonian or
the normalisation of a Haar pure state, runs with the linear algebra on the
available cores in row pieces.  A sample's entropy depends neither on its
piece nor on its batch, so the output is the same for any core count.  A
batched sampler may be called concurrently, once per Monte Carlo stream, on
distinct generators: the piece pool is shared, its threads never wait, and
the batches of all streams draw from one in-flight budget of
``_BATCH_ELEMENTS`` words.  A batch takes at most a core's share of that
budget, so one batch per core fits in it at once, and concurrent streams hold
no more batch memory than the budget.  Each batch is freed before the next is
drawn.  The single-draw functions are pure functions of an
:class:`RngStream` and draw a batch of one through the same helpers and the
same child generators.  Every h, random or a caller's (A, B) written as four
real blocks by :func:`from_particle_basis`, has its modes from the real
eigenvectors of h h^T, in oriented planes (:func:`gausspage.linalg._mode_planes`).
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from gausspage.linalg import (
    InvalidArgument,
    RngStream,
    _haar_q,
    _mode_planes,
    _real_ginibre,
    antisym_canonical,
    haar_orthogonal,
)
from gausspage.gstates import SystemSplit, _xlogx, clip_unit, mode_entropy, restrict_blocks, subsystem_indices

HAAR_PURE_MAX_MODES = 14


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


def _haar_pure_draw(N: int, N_A: int, gen: np.random.Generator):
    """``draw(count)``: real and imaginary parts, each (count, 2^N_A, 2^(N - N_A)), of ``count`` unnormalised states.

    The size guards come first, and draw nothing; the parts come from two
    :func:`_kinds` of ``gen``.
    """
    if N > HAAR_PURE_MAX_MODES:
        raise ResourceLimit(f"haar pure states limited to N <= {HAAR_PURE_MAX_MODES}")
    SystemSplit(N, N_A)
    shape = (2**N_A, 2 ** (N - N_A))
    re_gen, im_gen = _kinds(gen, 2)
    return lambda count: (re_gen.standard_normal((count, *shape)), im_gen.standard_normal((count, *shape)))


def _haar_pure_states(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Haar pure states re + i*im of a :func:`_haar_pure_draw`, normalised in place."""
    flat_re, flat_im = re.reshape(len(re), -1), im.reshape(len(im), -1)
    norm = np.sqrt(np.einsum("ij,ij->i", flat_re, flat_re) + np.einsum("ij,ij->i", flat_im, flat_im))[:, None, None]
    re /= norm
    im /= norm
    return re, im


def _pure_entropies(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Entropies -sum lambda log lambda of a stack of pure states re + i*im, each (..., d_A, d_B).

    lambda is the spectrum of the Gram matrix on the smaller side: psi^+ psi
    has the nonzero spectrum of psi psi^+ (S_A = S_B).  It is formed in real
    arithmetic, psi psi^+ = re re^T + im im^T + i (im re^T - re im^T), with no
    complex copy of psi.  Rounding may leave [0, 1], so lambda is clipped to
    it within ``CLAMP_TOL``.
    """
    if re.shape[-2] > re.shape[-1]:
        re, im = np.swapaxes(re, -2, -1), np.swapaxes(im, -2, -1)
    x = im @ np.swapaxes(re, -2, -1)
    gram = _complex(re @ np.swapaxes(re, -2, -1) + im @ np.swapaxes(im, -2, -1), x - np.swapaxes(x, -2, -1))
    lam = clip_unit(np.linalg.eigvalsh(gram), "reduced density spectrum")
    return -np.sum(_xlogx(lam), axis=-1)


def sample_haar_pure_state(N: int, rng: RngStream) -> np.ndarray:
    """Haar-random unit vector in the full 2^N-dimensional Hilbert space."""
    return _complex(*_haar_pure_states(*_haar_pure_draw(N, N, rng.generator())(1))).reshape(-1)


def entanglement_entropy_pure(psi: np.ndarray, N_A: int) -> float:
    """Von Neumann entropy (nats) of the first N_A qubit-modes of psi."""
    N = psi.size.bit_length() - 1
    if psi.size != 2**N:  # also for size 0: 2**-1 = 0.5
        raise InvalidArgument(f"need a vector of 2^N amplitudes, got {psi.size}")
    SystemSplit(N, N_A)
    re, im = (np.ascontiguousarray(part).reshape(1, 2**N_A, 2 ** (N - N_A)) for part in (psi.real, psi.imag))
    return float(_pure_entropies(re, im)[0])


# ---------------------------------------------------------------------------
# Batched entropy samplers (Monte Carlo workhorses)
# ---------------------------------------------------------------------------

_BATCH = 2048
# Cap on the 8-byte words of all batches in flight in the process (32 MB), whichever streams
# they belong to; one batch takes at most a core's share of it, counted in its largest array.
_BATCH_ELEMENTS = 1 << 22
# A batch is reduced in at most _MAX_PIECES row pieces of at least 1 MB of its largest
# array: smaller pieces slow the cheap samplers and strand temporaries in per-thread arenas.
_PIECE_ELEMENTS = 1 << 17
_MAX_PIECES = 16


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool():
    """One reduction thread per core, at most _MAX_PIECES; None on one core.  Its threads never wait."""
    from concurrent.futures import ThreadPoolExecutor  # here, not at import, which it would slow by ~8 ms

    cores = _cores()
    return ThreadPoolExecutor(min(cores, _MAX_PIECES), thread_name_prefix="gausspage") if cores > 1 else None


class _Budget:
    """Words of batch arrays in flight in this process, at most _BATCH_ELEMENTS unless one batch alone is larger."""

    def __init__(self):
        self._free = threading.Condition()
        self.words = 0

    @contextlib.contextmanager
    def take(self, words: int):
        with self._free:
            self._free.wait_for(lambda: self.words == 0 or self.words + words <= _BATCH_ELEMENTS)
            self.words += words
        try:
            yield
        finally:
            with self._free:
                self.words -= words
                self._free.notify_all()


@functools.cache
def _budget() -> _Budget:
    """The one in-flight budget that the batches of every concurrent stream share."""
    return _Budget()


if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's threads, and may inherit a held lock
    os.register_at_fork(after_in_child=lambda: (_pool.cache_clear(), _budget.cache_clear()))


def _in_batches(count: int, per_sample: int, draw, reduce) -> np.ndarray:
    """Entropies ``reduce(*draw(b))`` over batches covering ``count``.

    ``draw(b)`` makes the RNG calls of a batch and nothing else, and returns
    arrays of b rows; ``reduce`` does all the arithmetic and maps each row to
    its entropy alone, so row pieces of a batch are reduced on the pool.  A
    piece's error is raised once every piece is done.  Each kind of draw is
    sequential in its own generator, so the entropies do not depend on the
    batch size.  A batch holds at most _BATCH_ELEMENTS // _cores() words (at
    least one sample, at most _BATCH), so one batch per core, whichever
    streams they belong to, fits in the shared budget at once.  It takes its
    b * per_sample words from the budget before its draw and gives them back
    once it is reduced and freed, so concurrent streams hold at most
    _BATCH_ELEMENTS words between them (a lone batch always runs).
    """
    batch = max(1, min(_BATCH, _BATCH_ELEMENTS // _cores() // per_sample))
    piece = -(-_PIECE_ELEMENTS // per_sample)  # fewest rows in a piece
    out = np.empty(count)
    for start in range(0, count, batch):
        b = min(batch, count - start)
        with _budget().take(b * per_sample):
            _reduce_batch(out[start : start + b], draw(b), reduce, min(_MAX_PIECES, b // piece))
    return out


def _reduce_batch(out: np.ndarray, inputs: tuple, reduce, pieces: int) -> None:
    """out = reduce(*inputs), in ``pieces`` row pieces on the pool; the inputs are freed on return."""
    pool = _pool() if pieces > 1 else None
    if pool is None:
        out[:] = reduce(*inputs)
        return
    cuts = [len(out) * i // pieces for i in range(pieces + 1)]

    def reduce_piece(lo: int, hi: int) -> None:
        out[lo:hi] = reduce(*(x[lo:hi] for x in inputs))

    futures = [pool.submit(reduce_piece, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    errors = [future.exception() for future in futures]  # waits for every piece
    for error in filter(None, errors):
        raise error


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
    """Entropies of Haar pure states on the full 2^N Hilbert space."""
    draw = _haar_pure_draw(N, N_A, gen)

    def reduce(re, im):
        return _pure_entropies(*_haar_pure_states(re, im))

    return _in_batches(count, 2 ** (N + 1), draw, reduce)


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
