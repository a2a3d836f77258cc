import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from gausspage.linalg import InvalidArgument, RngStream, _haar_q, _mode_planes, haar_orthogonal
from gausspage.gstates import (
    SystemSplit,
    conjugate,
    entropy_from_spectrum,
    mode_entropy,
    reference_structure,
    restrict,
    restrict_blocks,
    subsystem_indices,
)
from gausspage.ensembles import (
    HAAR_PURE_MAX_MODES,
    HAAR_PURE_MAX_N,
    HAAR_PURE_MAX_SIDE,
    ResourceLimit,
    eigenstate_structure,
    entanglement_entropy_pure,
    from_particle_basis,
    gaussian_entropies,
    hamiltonian_eigenstate_entropies,
    haar_pure_entropies,
    many_body_spectrum,
    number_conserving_entropies,
    pair_block,
    sample_gaussian_state,
    sample_haar_pure_state,
    sample_random_hamiltonian,
)
from gausspage import cli, ensembles, formulas, rmt, stats
from reference import (
    correlation_block,
    hamiltonian_dense_entropies,
    ks_one_sample_critical,
    ks_statistic,
    ks_statistic_one_sample,
    ks_two_sample_critical,
    number_conserving_dense_entropies,
    number_conserving_mean,
    number_conserving_mixture_mean,
)


def fock_annihilation_operators(N):
    """Jordan-Wigner matrices of a_1..a_N on the 2^N Fock space."""
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    ops = []
    for i in range(N):
        m = np.eye(1, dtype=complex)
        for k in range(N):
            m = np.kron(m, sz if k < i else (lower if k == i else eye))
        ops.append(m)
    return ops


def fock_hamiltonian(a_mat, b_mat):
    """sum A_ij a+_i a_j + (sum B_ij a+_i a+_j + h.c.) on the 2^N Fock space."""
    N = len(a_mat)
    ops = fock_annihilation_operators(N)
    return sum(
        a_mat[i, j] * ops[i].conj().T @ ops[j]
        + b_mat[i, j] * ops[i].conj().T @ ops[j].conj().T
        + np.conj(b_mat[i, j]) * ops[j] @ ops[i]
        for i in range(N)
        for j in range(N)
    )


class TestGaussianSampler:
    def test_structure_invariants(self):
        j = sample_gaussian_state(4, RngStream(0))
        assert np.max(np.abs(j @ j.T - np.eye(8))) <= 1e-10
        assert np.max(np.abs(j + j.T)) <= 1e-10

    def test_half_log_mean_small_system(self):
        # exact average at N=2, N_A=1 is 1/2
        gen = RngStream(1).generator()
        s = gaussian_entropies(2, 1, 100_000, gen)
        se = s.std(ddof=1) / np.sqrt(s.size)
        assert abs(s.mean() - 0.5) <= 3 * se

    def test_deterministic(self):
        a = sample_gaussian_state(3, RngStream(5, 1))
        b = sample_gaussian_state(3, RngStream(5, 1))
        assert np.array_equal(a, b)


class TestGaussianModel:
    """The batched Gaussian sampler draws the beta-Jacobi (CS) model; the dense single state is its reference."""

    @pytest.mark.parametrize("N, N_A", [(2, 1), (5, 2), (9, 5), (16, 11), (200, 50), (10**5, 3)])
    def test_draws_are_the_gaussian_model(self, N, N_A):
        # each entropy is sum s(x) over the singular values x of the upper bidiagonal B (Edelman and Sutton,
        # a = -1/2, b = Delta) whose c_k^2 and c'_k^2 are U/(U + V) of the four kinds' gamma draws
        m, delta = min(N_A, N - N_A), abs(N - 2 * N_A)
        seed = RngStream(70 + N + N_A)
        kinds = ensembles._kinds(seed.generator(), 4)
        k = np.arange(m, 0, -1.0)
        u, v = kinds[0].standard_gamma(k - 0.5, size=(5, m)), kinds[1].standard_gamma(delta + k, size=(5, m))
        up = kinds[2].standard_gamma(k[1:], size=(5, m - 1))
        vp = kinds[3].standard_gamma(delta + k[1:] + 0.5, size=(5, m - 1))
        for i, entropy in enumerate(gaussian_entropies(N, N_A, 5, seed.generator())):
            c = dict(zip(range(m, 0, -1), np.sqrt(u[i] / (u[i] + v[i]))))
            s = dict(zip(range(m, 0, -1), np.sqrt(v[i] / (u[i] + v[i]))))
            cp = dict(zip(range(m - 1, 0, -1), np.sqrt(up[i] / (up[i] + vp[i]))))
            sp = dict(zip(range(m - 1, 0, -1), np.sqrt(vp[i] / (up[i] + vp[i]))))
            b = np.zeros((m, m))
            b[0, 0] = c[m]
            for j in range(1, m):
                b[j, j] = c[m - j] * sp[m - j]
                b[j - 1, j] = -s[m - j + 1] * cp[m - j]
            x = np.linalg.svd(b, compute_uv=False)
            assert abs(entropy - entropy_from_spectrum(x)) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(4, 2), (9, 4), (12, 5), (16, 11)])
    def test_model_has_the_law_of_the_dense_states(self, N, N_A):
        # two-sample KS: 2000 restrictions of dense Haar states against 2000 model draws; (16, 11) has
        # N_A > N/2 and odd Delta
        split = SystemSplit(N, N_A)
        dense = [entropy_from_spectrum(restrict(sample_gaussian_state(N, RngStream(N, i)), split)) for i in range(2000)]
        model = gaussian_entropies(N, N_A, 2000, RngStream(N + 1).generator())
        assert ks_statistic(np.array(dense), model) <= ks_two_sample_critical(2000, 2000)

    @pytest.mark.parametrize("N, N_A, count", [(2000, 40, 10_000), (10**5, 3, 20_000)])
    def test_mean_beyond_the_dense_limit(self, N, N_A, count):
        # a dense draw would QR-factor a 2N x 2N_A frame; a model draw costs m = N_A levels, whatever N is
        s = gaussian_entropies(N, N_A, count, RngStream(N_A + 80).generator())
        se = s.std(ddof=1) / np.sqrt(s.size)
        assert abs(s.mean() - formulas.gaussian_average_exact(N, N_A)) <= 3 * se

    def test_variance_is_the_finite_N_closed_form(self):
        est = stats.mc_estimate(lambda gen, n: gaussian_entropies(64, 32, n, gen), 100_000, 81)
        assert abs(est.variance - formulas.variance_finite_N(64, 32)) <= 3 * est.variance_std_error()

    def test_pooled_spectrum_has_the_kernel_density(self, monkeypatch):
        # one-sample KS of the pooled x at (8, 2) against the CDF of rmt's level density: Monte Carlo tied to
        # quadrature directly, as criterion 9 ties the dense frames
        pooled, real = [], ensembles.mode_entropy

        def recorded(x):
            pooled.append(x.ravel())
            return real(x)

        monkeypatch.setattr(ensembles, "mode_entropy", recorded)
        gaussian_entropies(8, 2, 100_000, RngStream(82).generator())
        xs = np.sort(np.concatenate(pooled))
        assert xs.size == 200_000
        ks = ks_statistic_one_sample(xs, rmt.density_cdf(rmt.build_kernel_ctx(2, 4), xs))
        assert ks < ks_one_sample_critical(xs.size)


class TestNumberConservingModel:
    """The number-conserving sampler draws the beta-Jacobi (CS) model of C_A; the dense frame path is its reference."""

    @staticmethod
    def model_rows(N, N_A, count, gen):
        # N_p from the first of five kinds, then each sample's four gamma rows, one sample after another, padded
        # to m_max levels with numerator shape 0 past its own m: the bits of the sampler's batched calls
        m_max = min(N_A, N - N_A)
        np_gen, u_gen, v_gen, up_gen, vp_gen = ensembles._kinds(gen, 5)
        for n_p in np_gen.binomial(N, 0.5, size=(count, 1))[:, 0]:
            m, a, b = min(N_A, n_p, N - N_A, N - n_p), abs(n_p - N_A), abs(N - N_A - n_p)
            k = np.arange(m_max, 0, -1.0)
            u = u_gen.standard_gamma(np.where(k <= m, a + k, 0.0))
            v = v_gen.standard_gamma(b + k)
            up = up_gen.standard_gamma(np.where(k[1:] < m, k[1:], 0.0))
            vp = vp_gen.standard_gamma(a + b + 1.0 + k[1:])
            yield n_p, m, u, v, up, vp

    @pytest.mark.parametrize("N, N_A", [(2, 1), (7, 3), (6, 5), (16, 5), (2000, 40)])
    def test_draws_are_the_number_conserving_model(self, N, N_A):
        # each entropy is sum s(2 sigma^2 - 1) over the singular values sigma of the upper bidiagonal B (Edelman
        # and Sutton, a = |N_p - N_A|, b = |N - N_A - N_p|) whose c_k^2 and c'_k^2 are U/(U + V) of the gamma draws
        m_max = min(N_A, N - N_A)
        seed = RngStream(90 + N + N_A)
        rows = self.model_rows(N, N_A, 6, seed.generator())
        for entropy, (n_p, m, u, v, up, vp) in zip(number_conserving_entropies(N, N_A, 6, seed.generator()), rows):
            assert np.all(u[: m_max - m] == 0.0) and np.all(up[: m_max - m] == 0.0)  # the padded levels
            c = dict(zip(range(m_max, 0, -1), np.sqrt(u / (u + v))))
            s = dict(zip(range(m_max, 0, -1), np.sqrt(v / (u + v))))
            cp = dict(zip(range(m_max - 1, 0, -1), np.sqrt(up / (up + vp))))
            sp = dict(zip(range(m_max - 1, 0, -1), np.sqrt(vp / (up + vp))))
            b = np.zeros((m_max, m_max))
            b[0, 0] = c[m_max]
            for j in range(1, m_max):
                b[j, j] = c[m_max - j] * sp[m_max - j]
                b[j - 1, j] = -s[m_max - j + 1] * cp[m_max - j]
            sigma = np.linalg.svd(b, compute_uv=False)
            assert abs(entropy - np.sum(mode_entropy(2.0 * sigma**2 - 1.0))) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(8, 4), (8, 3), (12, 5), (7, 2), (16, 6), (9, 6)])
    def test_model_has_the_law_of_the_dense_states(self, N, N_A):
        # two-sample KS over the Binomial(N, 1/2) mixture: 20 000 dense frames against 20 000 model draws; (9, 6)
        # has N_A > N/2
        dense = number_conserving_dense_entropies(N, N_A, 20_000, RngStream(100 + N, N_A).generator())
        model = number_conserving_entropies(N, N_A, 20_000, RngStream(101 + N, N_A).generator())
        assert ks_statistic(dense, model) <= ks_two_sample_critical(dense.size, model.size)

    @pytest.mark.parametrize("N, N_A, count", [(8, 4, 400_000), (2000, 40, 20_000)])
    def test_mean_is_the_mixture_mean(self, N, N_A, count):
        # the fixed-N_p harmonic-number mean over N_p ~ Binomial(N, 1/2); (2000, 40) is far beyond the dense path
        s = number_conserving_entropies(N, N_A, count, RngStream(110 + N_A).generator())
        se = s.std(ddof=1) / np.sqrt(s.size)
        assert abs(s.mean() - float(number_conserving_mixture_mean(N, N_A))) <= 3 * se

    def test_exact_means(self):
        # the fixed-N_p mean and its Binomial(N, 1/2) mixture; the float sum, served beyond N = 64, against Fractions
        assert number_conserving_mean(8, 4, 4) == Fraction(331, 210)
        assert number_conserving_mixture_mean(8, 4) == Fraction(12113, 8960)
        for N, N_A in [(60, 20), (64, 31)]:
            exact = number_conserving_mixture_mean(N, N_A)
            assert abs(number_conserving_mixture_mean(N, N_A, exact=False) - exact) <= 1e-13 * exact

    def test_dense_reference_has_the_mixture_mean(self):
        s = number_conserving_dense_entropies(8, 4, 100_000, RngStream(112).generator())
        se = s.std(ddof=1) / np.sqrt(s.size)
        assert abs(s.mean() - float(number_conserving_mixture_mean(8, 4))) <= 3 * se

    @pytest.mark.parametrize("N, N_A", [(2, 1), (3, 2), (5, 2)])
    def test_no_particle_or_a_full_system_gives_exact_zeros(self, N, N_A):
        # N_p = 0 or N leaves m = 0: every level is padding, and the entropy is exactly 0
        s = number_conserving_entropies(N, N_A, 400, RngStream(113 + N).generator())
        n_p = np.array([row[0] for row in self.model_rows(N, N_A, 400, RngStream(113 + N).generator())])
        empty = (n_p == 0) | (n_p == N)
        assert 0 < empty.sum() < 400
        assert np.all(s[empty] == 0.0) and np.all(s[~empty] > 0.0)

    @pytest.mark.parametrize("N", [1, 4, 7])
    def test_whole_system_or_none_gives_exact_zeros(self, N):
        for N_A in (0, N):
            assert np.array_equal(number_conserving_entropies(N, N_A, 50, RngStream(116).generator()), np.zeros(50))


class TestRestrictionOnlyBlocks:
    """Each sampler's subsystem block equals the one cut from the full construction."""

    @pytest.mark.parametrize("N, N_A", [(2, 1), (5, 2), (8, 8), (12, 5)])
    def test_gaussian_frame_rows(self, N, N_A):
        o = haar_orthogonal(2 * N, RngStream(31, N))
        idx = subsystem_indices(SystemSplit(N, N_A))
        full = conjugate(reference_structure(N), o)[np.ix_(idx, idx)]
        rows = o[idx]
        assert np.max(np.abs(pair_block(rows[:, :N], rows[:, N:]) - full)) <= 1e-12
        # the single draw is the same builder on all rows of the same O
        j = sample_gaussian_state(N, RngStream(31, N))
        assert np.max(np.abs(j[np.ix_(idx, idx)] - full)) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(2, 1), (5, 2), (8, 8), (12, 5)])
    def test_hamiltonian_a_rows(self, N, N_A):
        # M from the oriented planes of h h^T (modes by descending omega), eigenvectors
        # of i*h from eigh (positive half ascending): same modes, reversed order
        ham = sample_random_hamiltonian(N, RngStream(32, N))
        occ = RngStream(33, N).generator().integers(0, 2, size=N)
        # reference M^T D M, D with blocks (1 - 2*occ_k) [[0, 1], [-1, 0]] on the diagonal
        k = 2 * np.arange(N)
        d = np.zeros((2 * N, 2 * N))
        d[k, k + 1] = 1.0 - 2.0 * occ
        d[k + 1, k] = -d[k, k + 1]
        idx = subsystem_indices(SystemSplit(N, N_A))
        full = (ham.M.T @ d @ ham.M)[np.ix_(idx, idx)]
        assert np.max(np.abs(eigenstate_structure(ham, occ)[np.ix_(idx, idx)] - full)) <= 1e-12
        v = np.linalg.eigh(1j * ham.h)[1][idx, N:]
        signs = (1.0 - 2.0 * occ)[::-1]
        assert np.max(np.abs(2.0 * pair_block(v.imag, v.real, signs) - full)) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(2, 1), (6, 3), (9, 9), (16, 5)])
    def test_number_conserving_frame(self, N, N_A):
        gen = RngStream(34, N).generator()
        u = _haar_q(ensembles._complex(*gen.standard_normal((2, 1, N, N))))[0]
        occ = gen.integers(0, 2, size=N)
        ua = u[:N_A, :]
        per_sample = (ua * occ) @ ua.conj().T
        assert np.max(np.abs(correlation_block(ua.conj().T, occ) - per_sample)) <= 1e-12

    @pytest.mark.parametrize(
        "sampler", [gaussian_entropies, hamiltonian_eigenstate_entropies, number_conserving_entropies]
    )
    def test_trivial_bipartitions(self, sampler):
        gen = RngStream(35).generator()
        assert np.array_equal(sampler(4, 0, 3, gen), np.zeros(3))
        assert np.array_equal(sampler(4, 4, 3, gen), np.zeros(3))
        for n_a in (-1, 5):
            with pytest.raises(InvalidArgument):
                sampler(4, n_a, 3, gen)


class TestRealModePlanes:
    """The dense Hamiltonian reference's real route: oriented planes of h h^T, no 1/omega."""

    N, N_A = 8, 3

    def planted(self, omega, seed):
        # h = M^T W M for a Haar M and the ascending omega in W: helper and reference index modes alike
        N = self.N
        m = haar_orthogonal(2 * N, RngStream(seed))
        signs = 1.0 - 2.0 * RngStream(seed, 1).generator().integers(0, 2, size=N)
        k = 2 * np.arange(N)
        w = np.zeros((2 * N, 2 * N))
        w[k, k + 1] = omega
        d = np.zeros((2 * N, 2 * N))
        d[k, k + 1] = signs
        idx = subsystem_indices(SystemSplit(N, self.N_A))
        u1, u2, _ = _mode_planes(m.T @ (w - w.T) @ m)
        block = pair_block(u1[idx], u2[idx], signs)
        return block, (m.T @ (d - d.T) @ m)[np.ix_(idx, idx)]

    @staticmethod
    def pairing_split(block):
        ev = np.linalg.eigvalsh(block.T @ block)[::-1]
        return np.max(np.abs(ev[0::2] - ev[1::2]))

    @pytest.mark.parametrize(
        "low, bound",
        [
            ((), 1e-12),  # a generic spectrum
            ((1e-12,), 1e-12),  # one mode near zero: through eigh(1j * h), off by about 1e-8 at these seeds
            ((1e-3, 1e-3 + 1e-7), 1e-9),  # two close small modes: their planes are split in complex arithmetic
        ],
    )
    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_block_against_the_planted_eigenstate(self, low, bound, seed):
        omega = np.sort(RngStream(seed, 2).generator().uniform(0.2, 2.0, self.N))
        omega[: len(low)] = low
        block, ref = self.planted(omega, seed)
        assert np.max(np.abs(block - ref)) <= bound
        assert self.pairing_split(block) <= 1e-14

    def test_exact_zero_modes_keep_an_orientation(self):
        # u1^T h u2 = 0 exactly: a sign of 0 would erase the plane and leave no complex structure
        h = np.zeros((2, 6, 6))
        h[1, 0, 1], h[1, 1, 0] = 1.0, -1.0
        u1, u2, _ = _mode_planes(h)
        j = pair_block(u1, u2)
        assert np.max(np.abs(j @ np.swapaxes(j, -2, -1) - np.eye(6))) <= 1e-15
        assert np.max(np.abs(j[1][:2, :2] - [[0.0, 1.0], [-1.0, 0.0]])) <= 1e-15

    @pytest.mark.parametrize("N", [2, 5, 8, 12])
    def test_sampler_against_the_complex_route(self, N):
        # the same draws through eigh(1j * h), as in test_hamiltonian_a_rows; h and the occupations
        # each come from their own child of the stream's generator
        for N_A in sorted({0, 1, N // 2, N}):
            s = hamiltonian_dense_entropies(N, N_A, 64, RngStream(56, N).generator())
            h_gen, occ_gen = ensembles._kinds(RngStream(56, N).generator(), 2)
            g = h_gen.standard_normal((64, 2 * N, 2 * N))
            occ = occ_gen.integers(0, 2, size=(64, N))
            idx = subsystem_indices(SystemSplit(N, N_A))
            ref = []
            for h, n in zip(0.5 * (g - np.swapaxes(g, 1, 2)), occ):
                v = np.linalg.eigh(1j * h)[1][idx, N:]
                block = 2.0 * pair_block(v.imag, v.real, 1.0 - 2.0 * n)
                ref.append(entropy_from_spectrum(restrict_blocks(block[None])[0]))
            assert np.max(np.abs(s - ref)) <= 1e-12


class TestRandomHamiltonian:
    @pytest.mark.parametrize("N", [1, 2, 6, 32, 128])
    def test_antisymmetry_and_canonical(self, N):
        ham = sample_random_hamiltonian(N, RngStream(2))
        assert np.array_equal(ham.h, -ham.h.T)
        assert np.all(ham.omega >= 0)
        assert np.all(np.diff(ham.omega) <= 0.0)
        assert np.max(np.abs(ham.M @ ham.M.T - np.eye(2 * N))) <= 1e-12
        blocks = np.zeros((2 * N, 2 * N))
        for k, w in enumerate(ham.omega):
            blocks[2 * k, 2 * k + 1] = w
            blocks[2 * k + 1, 2 * k] = -w
        assert np.max(np.abs(ham.M @ ham.h @ ham.M.T - blocks)) <= 1e-9 * np.max(np.abs(ham.h))

    @pytest.mark.parametrize("N, N_A", [(1, 1), (5, 2), (12, 6), (40, 17)])
    def test_single_draw_is_a_batch_of_one(self, N, N_A):
        # the dense reference draws h from its first child generator and occupations, by ascending omega, from
        # its second; the single draw takes h from the same first child, and orders modes by descending omega
        for seed in (60, 61, 62):
            s = hamiltonian_dense_entropies(N, N_A, 1, RngStream(seed).generator())
            occ = ensembles._kinds(RngStream(seed).generator(), 2)[1].integers(0, 2, size=(1, N))[0, ::-1]
            j = eigenstate_structure(sample_random_hamiltonian(N, RngStream(seed)), occ)
            assert abs(entropy_from_spectrum(restrict(j, SystemSplit(N, N_A))) - s[0]) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(1, 1), (2, 1), (7, 3), (9, 6), (16, 11), (2000, 40)])
    def test_sampler_is_the_gaussian_model(self, N, N_A):
        # the eigenstates' law is the Haar Gaussian one, so the sampler draws the same bits as the Gaussian
        # sampler on an equal generator; (9, 6) and (16, 11) have N_A > N/2
        a = hamiltonian_eigenstate_entropies(N, N_A, 300, np.random.default_rng(N + N_A))
        assert np.array_equal(a, gaussian_entropies(N, N_A, 300, np.random.default_rng(N + N_A)))

    def test_no_mode_is_refused_before_any_draw(self):
        # N = 0 would be 0 words a sample: the batched sampler refuses it as the single draw does, and draws nothing
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(InvalidArgument, match="need N >= 1"):
            hamiltonian_eigenstate_entropies(0, 0, 3, gen)
        assert gen.bit_generator.state == state
        with pytest.raises(InvalidArgument, match="need N >= 1"):
            sample_random_hamiltonian(0, RngStream(0))

    def test_omega_matches_singular_values(self):
        # canonical coefficients are the paired singular values of h
        stream = RngStream(3)
        omegas = []
        svs = []
        for k in range(1000):
            ham = sample_random_hamiltonian(50, RngStream(3, k))
            omegas.append(ham.omega)
            sv = np.linalg.svd(ham.h, compute_uv=False)
            svs.append(0.5 * (sv[0::2] + sv[1::2]))
        a = np.concatenate(omegas)
        b = np.concatenate(svs)
        assert np.allclose(np.sort(a), np.sort(b), atol=1e-9)
        assert ks_statistic(a, b) < ks_two_sample_critical(a.size, b.size)


class TestEigenstateStructure:
    def test_valid_structures_all_occupations(self):
        ham = sample_random_hamiltonian(3, RngStream(4))
        for bits in range(8):
            occ = np.array([(bits >> k) & 1 for k in range(3)])
            j = eigenstate_structure(ham, occ)
            assert np.max(np.abs(j @ j.T - np.eye(6))) <= 1e-10
            assert np.max(np.abs(j + j.T)) <= 1e-10

    def test_energy_ladder(self):
        # state energy (1/2) tr(h J) must equal sum_i 2 w_i (n_i - 1/2)
        ham = sample_random_hamiltonian(4, RngStream(6))
        for bits in range(16):
            occ = np.array([(bits >> k) & 1 for k in range(4)])
            j = eigenstate_structure(ham, occ)
            energy = 0.5 * np.trace(ham.h @ j)
            expected = np.sum(2.0 * ham.omega * (occ - 0.5))
            assert abs(energy - expected) <= 1e-9

    def test_ground_state_mean_small_system(self):
        gen = RngStream(7).generator()
        n = 20_000
        vals = np.empty(n)
        split = SystemSplit(2, 1)
        # ground states only (all-zero occupation); same Haar ensemble
        for i in range(n):
            g = gen.standard_normal((4, 4))
            h = 0.5 * (g - g.T)
            from gausspage.linalg import antisym_canonical

            m, _ = antisym_canonical(h)
            d = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
            j = m.T @ d @ m
            vals[i] = entropy_from_spectrum(restrict(j, split))
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_ensemble_equivalence_finite_size(self):
        # entropy law of random eigenstates == Haar Gaussian law at (6, 3): the sampler, which draws the
        # Gaussian CS model, against dense eigenstates of 2N x 2N random h
        gen_a = RngStream(8).generator()
        gen_b = RngStream(9).generator()
        a = hamiltonian_eigenstate_entropies(6, 3, 10_000, gen_a)
        b = hamiltonian_dense_entropies(6, 3, 10_000, gen_b)
        assert ks_statistic(a, b) < ks_two_sample_critical(a.size, b.size)

    def test_scale_invariance_of_entropy_law(self):
        # rescaling h leaves eigenstate entropy statistics unchanged
        def entropies(scale, seed):
            gen = RngStream(seed).generator()
            n = 5000
            out = np.empty(n)
            split = SystemSplit(4, 2)
            from gausspage.linalg import antisym_canonical

            for i in range(n):
                g = scale * gen.standard_normal((8, 8))
                h = 0.5 * (g - g.T)
                m, _ = antisym_canonical(h)
                occ = gen.integers(0, 2, size=4)
                signs = 1.0 - 2.0 * occ
                d = np.zeros((8, 8))
                idx = 2 * np.arange(4)
                d[idx, idx + 1] = signs
                d[idx + 1, idx] = -signs
                out[i] = entropy_from_spectrum(restrict(m.T @ d @ m, split))
            return out

        a = entropies(1.0, 10)
        b = entropies(10.0, 11)
        assert ks_statistic(a, b) < ks_two_sample_critical(a.size, b.size)


class TestParticleBasis:
    def test_zero(self):
        ham = from_particle_basis(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(ham.h, np.zeros((4, 4)))

    def test_single_mode_spectrum(self):
        ham = from_particle_basis(np.array([[1.3]]), np.zeros((1, 1)))
        spec = many_body_spectrum(ham)
        assert np.allclose(spec - spec.min(), [0.0, 1.3], atol=1e-10)

    def test_many_body_spectrum_against_fock_oracle(self):
        gen = np.random.default_rng(12)
        N = 3
        a_mat = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
        a_mat = 0.5 * (a_mat + a_mat.conj().T)
        b_mat = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
        b_mat = 0.5 * (b_mat - b_mat.T)
        ham = from_particle_basis(a_mat, b_mat)
        exact = np.linalg.eigvalsh(fock_hamiltonian(a_mat, b_mat))
        spec = many_body_spectrum(ham)
        assert np.max(np.abs((exact - exact.mean()) - (spec - spec.mean()))) <= 1e-8

    def test_singular_hopping_gives_valid_structures(self):
        # rank-one A and B = 0: h has zero modes, which M must still span
        u = np.array([1.0, 0.5j, -0.3])
        ham = from_particle_basis(np.outer(u, u.conj()), np.zeros((3, 3)))
        assert np.max(np.abs(ham.M @ ham.M.T - np.eye(6))) <= 1e-12
        for bits in range(8):
            occ = np.array([(bits >> k) & 1 for k in range(3)])
            j = eigenstate_structure(ham, occ)
            assert np.max(np.abs(j @ j.T - np.eye(6))) <= 1e-10
            assert np.max(np.abs(j + j.T)) <= 1e-10
            energy = 0.5 * np.trace(ham.h @ j)
            assert abs(energy - np.sum(2.0 * ham.omega * (occ - 0.5))) <= 1e-9

    @pytest.mark.parametrize("N, zero", [(3, None), (3, "A"), (3, "B"), (1, None)])
    def test_majorana_elements_against_fock_operators(self, N, zero):
        # i sum h_uv xi_u xi_v is the Fock H up to a constant, element by element:
        # the spectrum alone would also accept any O h O^T
        gen = np.random.default_rng(19)
        a_mat = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
        a_mat = 0.0 * a_mat if zero == "A" else 0.5 * (a_mat + a_mat.conj().T)
        b_mat = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
        b_mat = 0.0 * b_mat if zero == "B" else 0.5 * (b_mat - b_mat.T)
        h = from_particle_basis(a_mat, b_mat).h
        ops = fock_annihilation_operators(N)
        h_fock = fock_hamiltonian(a_mat, b_mat)
        xi = [(a + a.conj().T) / np.sqrt(2.0) for a in ops] + [-1j * (a - a.conj().T) / np.sqrt(2.0) for a in ops]
        h_maj = 1j * sum(h[u, v] * xi[u] @ xi[v] for u in range(2 * N) for v in range(2 * N))
        diff = h_maj - h_fock
        shift = np.trace(diff) / 2**N
        assert np.max(np.abs(diff - shift * np.eye(2**N))) <= 1e-12

    @pytest.mark.parametrize("N", [3, 4, 5, 16, 64, 128])
    @pytest.mark.parametrize("pairing", [0.0, 0.5])
    def test_translation_invariant_ring(self, N, pairing):
        # circulant hopping -t (S + S^T) - mu and p-wave pairing (d/2)(S - S^T) for the cyclic shift S:
        # each k != 0, pi has eps_k = eps_-k, a doubly degenerate mode with 2 omega = |eps_k|,
        # eps_k = sqrt((2t cos k + mu)^2 + (2d sin k)^2)
        t, mu = 1.0, 0.3
        shift = np.roll(np.eye(N), 1, axis=1)
        a_mat = -t * (shift + shift.T) - mu * np.eye(N)
        b_mat = 0.5 * pairing * (shift - shift.T)
        ham = from_particle_basis(a_mat, b_mat)
        k = 2.0 * np.pi * np.arange(N) / N
        eps = np.sqrt((2.0 * t * np.cos(k) + mu) ** 2 + (2.0 * pairing * np.sin(k)) ** 2)
        assert np.max(np.abs(ham.omega - np.sort(0.5 * eps)[::-1])) <= 1e-12
        canonical = np.zeros((2 * N, 2 * N))
        idx = 2 * np.arange(N)
        canonical[idx, idx + 1], canonical[idx + 1, idx] = ham.omega, -ham.omega
        scale = max(np.max(np.abs(ham.h)), 1.0)
        assert np.max(np.abs(ham.M @ ham.h @ ham.M.T - canonical)) <= 1e-9 * scale
        if N <= 5:
            # the energy 1/2 tr(h J) of each eigenstate structure is a level of the Fock Hamiltonian
            energies = []
            for occ in itertools.product((0, 1), repeat=N):
                energies.append(0.5 * np.trace(ham.h @ eigenstate_structure(ham, np.array(occ))))
            exact = np.linalg.eigvalsh(fock_hamiltonian(a_mat, b_mat))
            assert np.max(np.abs(np.sort(energies) - (exact - exact.mean()))) <= 1e-10

    def test_rejects_bad_symmetry(self):
        with pytest.raises(Exception):
            from_particle_basis(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("A, B", [(1.0, 1.0), (np.eye(2), 1.0), (np.ones(2), np.ones(2))])
    def test_rejects_a_scalar_or_vector_hamiltonian(self, A, B):
        # a 0-d A, a 0-d B and a 1-d A
        with pytest.raises(InvalidArgument, match="square matrices"):
            from_particle_basis(A, B)

    def test_rejects_an_empty_or_non_finite_hamiltonian(self):
        with pytest.raises(InvalidArgument, match="need N >= 1"):
            from_particle_basis(np.zeros((0, 0)), np.zeros((0, 0)))
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidArgument, match="finite entries"):
                from_particle_basis(np.array([[0.0, bad], [bad, 0.0]]), np.zeros((2, 2)))
            with pytest.raises(InvalidArgument, match="finite entries"):
                from_particle_basis(np.eye(2), np.array([[0.0, bad], [-bad, 0.0]]))


class TestHaarPure:
    def test_unit_norm(self):
        psi = sample_haar_pure_state(5, RngStream(13))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_resource_guard(self):
        with pytest.raises(ResourceLimit):
            sample_haar_pure_state(HAAR_PURE_MAX_MODES + 1, RngStream(0))

    def test_third_mean_small_system(self):
        gen = RngStream(14).generator()
        s = haar_pure_entropies(2, 1, 100_000, gen)
        se = s.std(ddof=1) / np.sqrt(s.size)
        assert abs(s.mean() - 1.0 / 3.0) <= 3 * se

    def test_larger_side_uses_the_smaller_reduced_matrix(self):
        # N_A = N is a 1 x 2^N state: its entropy needs no 2^N x 2^N matrix, in the model or in the dense path
        s = haar_pure_entropies(HAAR_PURE_MAX_N, HAAR_PURE_MAX_N, 3, RngStream(50).generator())
        assert np.all(np.abs(s) <= 1e-12)
        # the model of N_A and of N - N_A is the same m x m matrix, drawn from the same bits
        a = haar_pure_entropies(6, 4, 5, RngStream(51).generator())
        assert np.array_equal(a, haar_pure_entropies(6, 2, 5, RngStream(51).generator()))
        # the dense entropy of N_A = 4 of 6 is that of the 16 x 16 A-side reduced matrix
        for seed in range(5):
            psi = sample_haar_pure_state(6, RngStream(51, seed)).reshape(16, 4)
            lam = np.clip(np.linalg.eigvalsh(psi @ psi.conj().T), 1e-300, 1.0)
            assert abs(entanglement_entropy_pure(psi.ravel(), 4) + np.sum(lam * np.log(lam))) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(2, 1), (5, 2), (6, 4), (7, 7), (9, 0), (10, 8)])
    def test_draws_are_the_bidiagonal_model(self, N, N_A):
        # each entropy is that of the squared singular values of the lower bidiagonal B drawn from the two kinds
        k = min(N_A, N - N_A)
        m, n = 2**k, 2 ** (N - k)
        diag_gen, sub_gen = ensembles._kinds(RngStream(60 + N + N_A).generator(), 2)
        diag = diag_gen.standard_gamma(n - np.arange(m), size=(5, m))
        sub = sub_gen.standard_gamma(np.arange(m - 1.0, 0.0, -1.0), size=(5, m - 1))
        for entropy, d, c in zip(haar_pure_entropies(N, N_A, 5, RngStream(60 + N + N_A).generator()), diag, sub):
            s2 = np.linalg.svd(np.diag(np.sqrt(d)) + np.diag(np.sqrt(c), -1), compute_uv=False) ** 2
            lam = s2 / s2.sum()
            assert abs(entropy + np.sum(lam * np.log(lam))) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(8, 2), (10, 5), (12, 6)])
    def test_model_has_the_law_of_the_dense_states(self, N, N_A):
        # two-sample KS: the entropies of 2000 dense 2^N-amplitude states against 2000 draws of the model
        dense = [entanglement_entropy_pure(sample_haar_pure_state(N, RngStream(N, i)), N_A) for i in range(2000)]
        model = haar_pure_entropies(N, N_A, 2000, RngStream(N + 1).generator())
        assert ks_statistic(np.array(dense), model) <= ks_two_sample_critical(2000, 2000)

    def test_mean_beyond_the_dense_limit(self):
        # (40, 4): m = 16 and n = 2^36, far beyond the 2^14 amplitudes of a dense state
        s = haar_pure_entropies(40, 4, 20_000, RngStream(53).generator())
        se = s.std(ddof=1) / np.sqrt(s.size)
        assert abs(s.mean() - formulas.page_average_exact(40, 4)) <= 3 * se

    def test_largest_request_is_finite(self):
        # (1024, 7): the largest m and n; the draws are divided by n before T = B B^T is formed, so nothing overflows
        s = haar_pure_entropies(HAAR_PURE_MAX_N, HAAR_PURE_MAX_SIDE, 64, RngStream(54).generator())
        assert np.all(np.isfinite(s))
        assert abs(s.mean() - formulas.page_average_exact(HAAR_PURE_MAX_N, HAAR_PURE_MAX_SIDE)) <= 1e-12

    def test_whole_system_at_the_size_limit(self):
        # the reduced matrix of N_A = N is 1 x 1, not 2^N x 2^N
        psi = sample_haar_pure_state(HAAR_PURE_MAX_MODES, RngStream(52))
        assert abs(entanglement_entropy_pure(psi, HAAR_PURE_MAX_MODES)) <= 1e-12

    def test_rejects_a_vector_of_no_qubit_dimension(self):
        for size in (0, 3, 6, 12):
            with pytest.raises(InvalidArgument, match="2\\^N amplitudes"):
                entanglement_entropy_pure(np.full(size, 1.0 / np.sqrt(max(size, 1))), 1)

    @pytest.mark.parametrize("N, N_A, index, bad", [(4, 2, 5, np.nan), (2, 1, 0, np.nan), (3, 1, 2, np.inf)])
    def test_rejects_non_finite_amplitudes(self, N, N_A, index, bad):
        # refused before the eigensolve, which would raise LinAlgError or fail the spectrum's range check
        psi = np.full(2**N, 2 ** (-N / 2), dtype=complex)
        psi[index] = bad
        with pytest.raises(InvalidArgument, match="finite"):
            entanglement_entropy_pure(psi, N_A)

    def test_product_state_entropy(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        assert entanglement_entropy_pure(psi, 1) <= 1e-12

    def test_bell_pair(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        assert abs(entanglement_entropy_pure(psi, 1) - np.log(2.0)) <= 1e-12

    def test_schmidt_symmetry(self):
        # S_A = S_B for any pure state
        psi = sample_haar_pure_state(6, RngStream(15))
        mat = psi.reshape(4, 16)
        la = np.linalg.eigvalsh(mat @ mat.conj().T)
        lb = np.linalg.eigvalsh(mat.conj().T @ mat)
        la, lb = la[la > 1e-15], lb[lb > 1e-15]
        sa = -np.sum(la * np.log(la))
        sb = -np.sum(lb * np.log(lb))
        assert abs(sa - sb) <= 1e-9


class TestNumberConserving:
    def test_vacuum_is_product(self):
        # all-zero occupations give zero entropy; force by checking min over draws
        gen = RngStream(16).generator()
        vals = number_conserving_entropies(6, 3, 64, gen)
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= 3 * np.log(2.0) + 1e-9)

    def test_scalar_sampler(self):
        v = number_conserving_entropies(10, 5, 1, RngStream(17).generator())[0]
        assert 0.0 <= v <= 5 * np.log(2.0) + 1e-9

    def test_thermodynamic_density(self):
        gen = RngStream(18).generator()
        vals = number_conserving_entropies(400, 200, 200, gen) / 400.0
        assert abs(vals.mean() - 0.19315) <= 0.005


BATCHED = [gaussian_entropies, hamiltonian_eigenstate_entropies, number_conserving_entropies, haar_pure_entropies]


@pytest.fixture
def as_on_cores(monkeypatch):
    """``as_on_cores(k)``: the process may run on k cores, whatever this machine has."""

    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: k)
        assert stats._cores() == k

    return use


class TestBatchInvariance:
    """Each kind of draw is sequential in its own generator, so no batch split changes a bit."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("elements", [1, 3000, 1 << 22])
    @pytest.mark.parametrize(
        "sampler, N, N_A",
        [
            (gaussian_entropies, 9, 5),  # 4^2 words, from four kinds
            (hamiltonian_eigenstate_entropies, 5, 2),  # the Gaussian model: 2^2 words, from four kinds
            (number_conserving_entropies, 10, 6),  # 4^2 words, from five kinds
            (haar_pure_entropies, 6, 2),  # 4^2 words
        ],
    )
    def test_any_batch_split_draws_the_same_bits(self, sampler, N, N_A, elements, cores, monkeypatch, as_on_cores):
        # 300 samples in one batch, against batches of 1, of 15 or 188, or of all 300 samples, as _BATCH_ELEMENTS allows
        with monkeypatch.context() as m:
            m.setattr(ensembles, "_BATCH_ELEMENTS", 1 << 30)
            expected = sampler(N, N_A, 300, np.random.default_rng(N))
        monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", elements)
        as_on_cores(cores)
        assert np.array_equal(sampler(N, N_A, 300, np.random.default_rng(N)), expected)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("batch", [1, 7, 299])
    @pytest.mark.parametrize(
        "sampler, N, N_A, words",
        [
            (gaussian_entropies, 9, 5, 16),  # m^2 words for m = 4
            (hamiltonian_eigenstate_entropies, 5, 2, 4),  # the Gaussian model: m^2 words for m = 2
            (number_conserving_entropies, 10, 6, 16),  # m_max^2 words for m_max = 4
            (haar_pure_entropies, 6, 2, 16),  # m^2 words for m = 4
        ],
    )
    def test_a_batch_is_the_fewest_rows_that_reach_the_bound(
        self, sampler, N, N_A, words, batch, cores, monkeypatch, as_on_cores
    ):
        # batch * words is the largest bound that gives batches of `batch` samples of `words` words, and one word
        # more gives batches of batch + 1; the same on one core and on two
        with monkeypatch.context() as m:
            m.setattr(ensembles, "_BATCH_ELEMENTS", 1 << 30)
            expected = sampler(N, N_A, 300, np.random.default_rng(N))
        sizes, real = [], ensembles._in_batches

        def counted(count, per_sample, draw, reduce):
            def draw_batch(b):
                sizes.append(b)
                return draw(b)

            assert per_sample == words
            return real(count, per_sample, draw_batch, reduce)

        monkeypatch.setattr(ensembles, "_in_batches", counted)
        as_on_cores(cores)
        for bound, rows in ((batch * words, batch), (batch * words + 1, batch + 1)):
            sizes.clear()
            monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", bound)
            assert np.array_equal(sampler(N, N_A, 300, np.random.default_rng(N)), expected)
            assert sizes == [rows] * (300 // rows) + [300 % rows] * (300 % rows > 0)


@pytest.fixture
def reduced_rows(monkeypatch):
    """The row count of each batch that a batched sampler reduces, in call order."""
    rows, real = [], ensembles._in_batches

    def counted(count, per_sample, draw, reduce):
        def reduce_batch(*inputs):
            rows.append(len(inputs[0]))
            return reduce(*inputs)

        return real(count, per_sample, draw, reduce_batch)

    monkeypatch.setattr(ensembles, "_in_batches", counted)
    return rows


class TestBatches:
    """Each batch is drawn and then reduced whole on the calling thread."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("N, N_A, count", [(6, 0, 303), (6, 6, 303), (7, 5, 303), (5, 2, 2049)])
    @pytest.mark.parametrize("sampler", BATCHED)
    def test_batches_match_one_whole_batch(self, sampler, N, N_A, count, rows, reduced_rows, monkeypatch):
        # N_A = 0, N_A = N, N_A > N/2, and 2049 samples: batches of `rows` rows and a shorter last one
        with monkeypatch.context() as m:
            m.setattr(ensembles, "_BATCH_ELEMENTS", 1 << 40)
            whole = sampler(N, N_A, count, np.random.default_rng(N + count))
        assert reduced_rows == [count]
        counted = ensembles._in_batches

        def in_batches_of_rows(count, per_sample, draw, reduce):
            monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", rows * per_sample)
            return counted(count, per_sample, draw, reduce)

        monkeypatch.setattr(ensembles, "_in_batches", in_batches_of_rows)
        batched = sampler(N, N_A, count, np.random.default_rng(N + count))
        assert reduced_rows[1:] == [rows] * (count // rows) + [count % rows] * (count % rows > 0)
        assert np.array_equal(batched, whole)

    @pytest.mark.parametrize(
        "sampler, N, N_A, count, rows",
        [
            (gaussian_entropies, 2000, 40, 700, [82] * 8 + [44]),  # 40^2 words a sample
            (hamiltonian_eigenstate_entropies, 2000, 40, 700, [82] * 8 + [44]),  # the Gaussian model's 40^2 words
            (number_conserving_entropies, 64, 30, 1500, [146] * 10 + [40]),  # 30^2 words a sample
            (haar_pure_entropies, 12, 6, 300, [32] * 9 + [12]),  # 64^2 words a sample
            (gaussian_entropies, 8, 4, 1000, [1000]),  # 4^2 words a sample: a batch of 8192 rows holds them all
        ],
    )
    def test_default_batches(self, sampler, N, N_A, count, rows, reduced_rows, monkeypatch):
        # batches of ceil(_BATCH_ELEMENTS / words) rows, about 1 MB of the largest array
        batched = sampler(N, N_A, count, np.random.default_rng(count))
        assert reduced_rows == rows
        monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", 1 << 40)
        assert np.array_equal(batched, sampler(N, N_A, count, np.random.default_rng(count)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self):
        # a child forked after the block pool exists must not wait for the parent's threads
        code = """if True:
            import os, signal, numpy as np
            from gausspage import ensembles, stats
            os.sched_getaffinity = lambda pid: {0, 1}  # two cores, so that blocks run at once
            def run():  # three blocks on the pool
                return stats.mc_estimate(lambda gen, n: ensembles.gaussian_entropies(5, 2, n, gen), 3000, 1)

            a = run()
            r, w = os.pipe()
            if os.fork() == 0:
                signal.alarm(20)  # a child that hangs dies without writing
                b = run()
                os.write(w, b"same" if a == b else b"different")
                os._exit(0)
            os.close(w)
            os.wait()
            print(os.read(r, 16).decode())
        """
        src = os.path.dirname(os.path.dirname(ensembles.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "same"

    def test_each_batch_is_freed_before_the_next_draw(self, reduced_rows, monkeypatch):
        # haar-pure (10, 3) counts 8^2 words a sample: batches of 1024 samples, each drawing 15 words a sample.
        # No array of a batch is alive when the next is drawn, and four batches peak above one only by the
        # output's 8 bytes a sample, well below half a drawn batch
        monkeypatch.setattr(ensembles, "_BATCH_ELEMENTS", 1024 * 8**2)
        drawn, real = [], ensembles._in_batches

        def watched(count, per_sample, draw, reduce):
            def draw_batch(b):
                assert all(ref() is None for ref in drawn)
                arrays = draw(b)
                drawn.extend(weakref.ref(x) for x in arrays)
                return arrays

            return real(count, per_sample, draw_batch, reduce)

        monkeypatch.setattr(ensembles, "_in_batches", watched)

        def peak(count):
            tracemalloc.start()
            try:
                haar_pure_entropies(10, 3, count, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_batch = peak(1024)
        assert peak(4 * 1024) - one_batch <= 3 * 1024 * 8 + 1024 * 15 * 8 // 2
        assert reduced_rows == [1024] * 5 and len(drawn) == 2 * 5

    def test_error_in_one_batch_reaches_the_cli(self, monkeypatch, capsys):
        # hamiltonian (2000, 40) draws batches of 82 samples: 700 samples are 9 batches, and in the second the
        # eigensolve returns a level above 1, which the CS model's range check refuses
        calls = itertools.count()
        real = ensembles._tridiagonal_eigvalsh

        def fails_in_the_second_batch(diag, off):
            levels = real(diag, off)
            if next(calls) == 1:
                levels[0, -1] = 1.0 + 1e-6
            return levels

        monkeypatch.setattr(ensembles, "_tridiagonal_eigvalsh", fails_in_the_second_batch)
        argv = ["page-curve", "--mode", "mc", "--ensemble", "hamiltonian", "--N", "2000", "--NA", "40", "--samples", "700"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert "CS model spectrum escapes [0,1]" in capsys.readouterr().err
        assert next(calls) == 2  # no batch after the failing one was reduced

    @pytest.mark.parametrize("N, N_A", [(16, 8), (HAAR_PURE_MAX_N + 1, 1)])
    def test_haar_pure_size_guard_comes_before_any_draw(self, N, N_A, reduced_rows):
        # m = 2^8 is beyond HAAR_PURE_MAX_SIDE, and N = 1025 beyond the exact mean's range
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(ResourceLimit):
            haar_pure_entropies(N, N_A, 10, gen)
        assert gen.bit_generator.state == state and reduced_rows == []
