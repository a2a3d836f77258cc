"""Samplers for the four state ensembles.

* Haar fermionic Gaussian states: the single state conjugates J0 by a Haar
  orthogonal matrix, and the batched sampler draws the beta-Jacobi (CS)
  matrix model of the restricted spectrum (Edelman and Sutton, Found.
  Comput. Math. 8, 2008), whose cost depends on min(N_A, N - N_A) only,
* eigenstates of random quadratic Hamiltonians: their law is the Haar
  Gaussian one, so the batched sampler is the Gaussian one,
* eigenstates of number-conserving random Hamiltonians, with uniform
  occupations: the batched sampler (there is no single-state one) draws the
  particle number and then the beta-Jacobi (CS) model of the spectrum of
  C_A, padded to min(N_A, N - N_A) levels, so its cost depends on
  min(N_A, N - N_A) only,
* Haar pure states of the full 2^N Hilbert space: the batched sampler draws
  the Laguerre bidiagonal model of their reduced density matrix (Dumitriu and
  Edelman, J. Math. Phys. 43, 5830, 2002), whose cost depends on
  2^min(N_A, N - N_A) only; the single-state functions hold 2^N amplitudes.

Every complex structure comes from one builder, :func:`pair_block`: a Haar
state O J0 O^T and an eigenstate M^T D M are both an orthogonal frame applied
to a block-diagonal reference, with the occupation signs of D absorbed into
the frame.  The batched samplers take a live generator and are used by the
Monte Carlo harness.  Each kind of draw comes from its own generator: a
batched sampler draws each kind (the four gamma families of the Gaussian
model; the particle number and the four gamma families of the
number-conserving model; the diagonal and the subdiagonal of the Page
model) from a child generator seeded by the one it is given
(:func:`_kinds`).  Each kind's draws are then sequential in one
generator, so the entropies do not depend on how the samples are split into
batches.  Each batch, of about 1 MB, is drawn and then reduced whole on the
calling thread; the draw makes only RNG calls (and, for the
number-conserving model, derives their shapes from the particle number),
and every operation on the draws, even the Beta ratios of the CS models or
the normalisation of the Page model, is part of the reduction.  A sample's
entropy does not depend on its batch, and batch sizes do not depend on the
core count, so the output is the same for any core count.
A batched sampler may be called concurrently, once per Monte Carlo block, on
distinct generators.
Batch memory is bounded by construction, with no lock:
:func:`gausspage.stats.draw_streams` runs at most ``_cores()`` blocks at
once, and a block holds one batch at a time, of about ``_BATCH_ELEMENTS``
words in its largest array, plus the temporaries of its reduction, since
each batch is reduced and freed before the next is drawn.  A sample larger
than a batch is drawn alone: then each running block holds that one sample.
The single-draw functions are pure functions of an :class:`RngStream`.
A Gaussian state, a random Hamiltonian and a Haar pure state are drawn
whole, not as batches of one of a model.  The tests hold each model's law
against dense draws: the Gaussian model against Haar states and against
Hamiltonian eigenstates, the number-conserving model against a dense frame
sampler, and the Page model against Haar pure states.  Every h, random or
a caller's (A, B) written as four real blocks by :func:`from_particle_basis`,
has its modes from the real eigenvectors of h h^T, in oriented planes
(:func:`gausspage.linalg._mode_planes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gausspage.linalg import InvalidArgument, RngStream, antisym_canonical, haar_orthogonal
from gausspage.gstates import SystemSplit, _xlogx, clip_unit, mode_entropy

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
    h = _antisym(_kinds(rng.generator(), 1)[0].standard_normal((2 * N, 2 * N)))  # h from the stream's first child
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
    return 0.0 - np.sum(_xlogx(clip_unit(lam, "reduced density spectrum")), axis=-1)  # 0, not -0, for a pure state


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

# A batch is drawn and reduced whole: about 1 MB, 1 << 17 8-byte words, of its largest array, at least one sample.
_BATCH_ELEMENTS = 1 << 17


def _in_batches(count: int, per_sample: int, draw, reduce) -> np.ndarray:
    """Entropies ``reduce(*draw(b))`` over batches covering ``count``.

    ``draw(b)`` makes the RNG calls of a batch and nothing else, and returns
    arrays of b rows, the largest of ``per_sample`` words a row; ``reduce``
    does all the arithmetic and maps each row to its entropy.  A batch has
    ceil(_BATCH_ELEMENTS / per_sample) rows, so about _BATCH_ELEMENTS words
    and at least one sample, and it is reduced and freed before the next is
    drawn.  Each kind of draw is sequential in its own generator, so the
    entropies do not depend on the batch size.
    """
    rows = -(-_BATCH_ELEMENTS // per_sample)
    out = np.empty(count)
    for start in range(0, count, rows):
        out[start : start + rows] = reduce(*draw(min(rows, count - start)))
    return out


def _tridiagonal_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric tridiagonal matrices: diagonals (b, m), subdiagonals (b, m - 1)."""
    b, m = diag.shape
    t = np.zeros((b, m, m))  # its lower triangle, which eigvalsh reads
    flat = t.reshape(b, m * m)
    flat[:, :: m + 1] = diag
    flat[:, m :: m + 1] = off
    return np.linalg.eigvalsh(t)


def _cs_levels(u: np.ndarray, v: np.ndarray, up: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """Levels y of stacked beta-Jacobi (CS) models, from the gamma pairs of their Beta entries.

    With c_k^2 = U/(U + V) and s_k^2 = V/(U + V) for the columns k = m, ..., 1 of
    (u, v), and c'_k^2, s'_k^2 likewise for the columns k = m - 1, ..., 1 of
    (up, vp), B is upper bidiagonal with diagonal c_m, c_(m-1) s'_(m-1), ...,
    c_1 s'_1 and superdiagonal -s_m c'_(m-1), ..., -s_2 c'_1 (Edelman and
    Sutton, Found. Comput. Math. 8, 2008); y are the eigenvalues of the
    tridiagonal B B^T, in [0, 1] by ``clip_unit``'s range check.  1 - c^2 is
    never formed.  Where u is 0 in the leading columns and up from the same
    column on, those rows of B are 0, and each adds a level y = 0 exactly.
    """
    total, total_p = u + v, up + vp
    diag = u / total  # B_00^2 = c_m^2, and B_jj^2 = c_(m-j)^2 s'_(m-j)^2
    diag[:, 1:] *= vp / total_p
    sup = v[:, :-1] / total[:, :-1] * (up / total_p)  # B_j(j+1)^2 = s_(m-j)^2 c'_(m-j-1)^2
    off = np.sqrt(sup * diag[:, 1:])  # |(B B^T)_(j+1)j| = |B_j(j+1)| B_(j+1)(j+1)
    diag[:, :-1] += sup  # (B B^T)_jj = B_jj^2 + B_j(j+1)^2
    return clip_unit(_tridiagonal_eigvalsh(diag, off), "CS model spectrum")


def gaussian_entropies(N: int, N_A: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Entropies of `count` Haar Gaussian states, through the beta-Jacobi (CS) matrix model of their restriction.

    The squares y = x^2 of the paired singular values of [J]_A are a beta = 2
    Jacobi ensemble of m = min(N_A, N - N_A) levels, with weight
    y^(-1/2) (1 - y)^Delta and Delta = |N - 2 N_A|.  Its CS model
    (:func:`_cs_levels`, with a = -1/2 and b = Delta) has
    c_k^2 ~ Beta(k - 1/2, Delta + k) and c'_k^2 ~ Beta(k, Delta + k + 1/2),
    independent.  Each Beta pair is drawn as U/(U + V) and V/(U + V) of two
    gamma variates, four :func:`_kinds` in all.  A draw costs 4m - 2 gamma
    variates and one m x m eigensolve, whatever N is.
    """
    SystemSplit(N, N_A)
    m, delta = min(N_A, N - N_A), abs(N - 2 * N_A)
    k = np.arange(m, 0, -1.0)  # c_m, ..., c_1; then c'_(m-1), ..., c'_1
    shapes = (k - 0.5, delta + k, k[1:], delta + k[1:] + 0.5)
    kinds = _kinds(gen, 4)

    def draw(b):
        return tuple(kind.standard_gamma(shape, size=(b, len(shape))) for kind, shape in zip(kinds, shapes))

    def reduce(u, v, up, vp):
        return mode_entropy(np.sqrt(_cs_levels(u, v, up, vp))).sum(axis=1)

    return _in_batches(count, max(m, 1) ** 2, draw, reduce)


def hamiltonian_eigenstate_entropies(
    N: int, N_A: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Entropies of random-Hamiltonian eigenstates with uniform occupations: :func:`gaussian_entropies`.

    h has the law of O h O^T for every orthogonal O, and the eigenstate
    structure J(h, occ) = M^T D M obeys J(O h O^T, occ) = O J(h, occ) O^T, so
    the law of J is O(2N)-invariant.  The pure Gaussian states are one O(2N)
    orbit, so that law is the Haar one, whatever the occupations.  N < 1 is
    refused before any draw.
    """
    if N < 1:
        raise InvalidArgument(f"need N >= 1, got {N}")
    return gaussian_entropies(N, N_A, count, gen)


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
    """Entropies of random number-conserving eigenstates, through the beta-Jacobi (CS) model of C_A.

    With uniform occupations the particle number is N_p ~ Binomial(N, 1/2).
    At fixed N_p the eigenvalues t of C_A = U_A diag(n) U_A^+ (U Haar) are
    N_A - m levels of exactly 0 or 1 and a beta = 2 Jacobi ensemble of
    m = min(N_A, N_p, N - N_A, N - N_p) levels with weight t^a (1 - t)^b,
    a = |N_p - N_A| and b = |N - N_A - N_p|.  Its CS model (:func:`_cs_levels`)
    has c_k^2 ~ Beta(a + k, b + k) and c'_k^2 ~ Beta(k, a + b + 1 + k), and
    S_A = sum_i s(2 t_i - 1).  N_p comes from one :func:`_kinds` child and the
    four gamma families from four more.  Every sample is padded to
    m_max = min(N_A, N - N_A) levels: the numerator shape of c_k is 0 for
    k > m and that of c'_k for k >= m, and ``standard_gamma(0)`` is exactly 0,
    so the padding adds levels t = 0 of zero entropy.  A draw costs at most
    4 m_max - 2 gamma variates and one m_max x m_max eigensolve, whatever N is.
    """
    SystemSplit(N, N_A)
    m_max = min(N_A, N - N_A)
    k = np.arange(m_max, 0, -1.0)  # c_m_max, ..., c_1; then c'_(m_max - 1), ..., c'_1
    np_gen, *kinds = _kinds(gen, 5)

    def draw(rows):  # the RNG calls, and the shapes they take from N_p
        n_p = np_gen.binomial(N, 0.5, size=(rows, 1))
        m = np.minimum(np.minimum(n_p, N - n_p), m_max)
        a, b = np.abs(n_p - N_A), np.abs(N - N_A - n_p)
        shapes = (np.where(k <= m, a + k, 0.0), b + k, np.where(k[1:] < m, k[1:], 0.0), a + b + 1.0 + k[1:])
        return tuple(kind.standard_gamma(shape) for kind, shape in zip(kinds, shapes))

    def reduce(u, v, up, vp):
        return mode_entropy(2.0 * _cs_levels(u, v, up, vp) - 1.0).sum(axis=1)

    return _in_batches(count, max(m_max, 1) ** 2, draw, reduce)
