import numpy as np
import pytest

from gausspage.linalg import InvalidArgument, RngStream, haar_orthogonal, haar_unitary_batch
from gausspage.gstates import (
    SystemSplit,
    conjugate,
    entropy_from_spectrum,
    reference_structure,
    restrict,
    subsystem_indices,
)
from gausspage.ensembles import (
    HAAR_PURE_MAX_MODES,
    ResourceLimit,
    correlation_block,
    eigenstate_block,
    frame_block,
    eigenstate_structure,
    entanglement_entropy_pure,
    from_particle_basis,
    gaussian_entropies,
    hamiltonian_eigenstate_entropies,
    haar_pure_entropies,
    many_body_spectrum,
    number_conserving_entropies,
    sample_gaussian_state,
    sample_haar_pure_state,
    sample_number_conserving_eigenstate,
    sample_random_hamiltonian,
    split_to_interleaved,
)
from gausspage import formulas
from gausspage.stats import ks_statistic, ks_two_sample_critical


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


class TestRestrictionOnlyBlocks:
    """Each sampler's subsystem block equals the one cut from the full construction."""

    @pytest.mark.parametrize("N, N_A", [(2, 1), (5, 2), (8, 8), (12, 5)])
    def test_gaussian_frame_rows(self, N, N_A):
        o = haar_orthogonal(2 * N, RngStream(31, N))
        idx = subsystem_indices(SystemSplit(N, N_A))
        full = conjugate(reference_structure(N), o)[np.ix_(idx, idx)]
        assert np.max(np.abs(frame_block(o[idx]) - full)) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(2, 1), (5, 2), (8, 8), (12, 5)])
    def test_hamiltonian_a_rows(self, N, N_A):
        # M from antisym_canonical (modes by descending omega), eigenvectors of
        # i*h from eigh (positive half ascending): same modes, reversed order
        ham = sample_random_hamiltonian(N, RngStream(32, N))
        occ = RngStream(33, N).generator().integers(0, 2, size=N)
        idx = subsystem_indices(SystemSplit(N, N_A))
        full = eigenstate_structure(ham, occ)[np.ix_(idx, idx)]
        v = np.linalg.eigh(1j * ham.h)[1][idx, N:]
        signs = (1.0 - 2.0 * occ)[::-1]
        assert np.max(np.abs(eigenstate_block(v, signs) - full)) <= 1e-12

    @pytest.mark.parametrize("N, N_A", [(2, 1), (6, 3), (9, 9), (16, 5)])
    def test_number_conserving_frame(self, N, N_A):
        gen = RngStream(34, N).generator()
        u = haar_unitary_batch(N, 1, gen, N)[0]
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
        assert np.all(np.abs(sampler(4, 4, 3, gen)) <= 1e-12)
        for n_a in (-1, 5):
            with pytest.raises(InvalidArgument):
                sampler(4, n_a, 3, gen)


class TestRandomHamiltonian:
    def test_antisymmetry_and_canonical(self):
        ham = sample_random_hamiltonian(6, RngStream(2))
        assert np.array_equal(ham.h, -ham.h.T)
        assert np.all(ham.omega >= 0)
        blocks = np.zeros((12, 12))
        for k, w in enumerate(ham.omega):
            blocks[2 * k, 2 * k + 1] = w
            blocks[2 * k + 1, 2 * k] = -w
        assert np.max(np.abs(ham.M @ ham.h @ ham.M.T - blocks)) <= 1e-9 * np.max(np.abs(ham.h))

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
        assert ks_statistic(a, b) < ks_two_sample_critical(a.size, b.size, alpha=0.01)


class TestEigenstateStructure:
    def test_permutation_round_trip(self):
        perm = split_to_interleaved(5)
        inv = np.argsort(perm)
        assert np.array_equal(perm[inv], np.arange(10))
        assert np.array_equal(np.sort(perm), np.arange(10))

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
        # entropy law of random eigenstates == Haar Gaussian law at (6, 3)
        gen_a = RngStream(8).generator()
        gen_b = RngStream(9).generator()
        a = gaussian_entropies(6, 3, 10_000, gen_a)
        b = hamiltonian_eigenstate_entropies(6, 3, 10_000, gen_b)
        assert ks_statistic(a, b) < ks_two_sample_critical(a.size, b.size, alpha=0.01)

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
        assert ks_statistic(a, b) < ks_two_sample_critical(a.size, b.size, alpha=0.01)


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
        ops = fock_annihilation_operators(N)
        h_fock = np.zeros((2**N, 2**N), dtype=complex)
        for i in range(N):
            for j in range(N):
                h_fock += a_mat[i, j] * ops[i].conj().T @ ops[j]
                h_fock += b_mat[i, j] * ops[i].conj().T @ ops[j].conj().T
                h_fock += np.conj(b_mat[i, j]) * ops[j] @ ops[i]
        exact = np.linalg.eigvalsh(h_fock)
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

    def test_rejects_bad_symmetry(self):
        with pytest.raises(Exception):
            from_particle_basis(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


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
        # N_A = N is a 2^N x 1 state: its entropy needs no 2^N x 2^N matrix
        s = haar_pure_entropies(HAAR_PURE_MAX_MODES, HAAR_PURE_MAX_MODES, 3, RngStream(50).generator())
        assert np.all(np.abs(s) <= 1e-12)
        # the same draws as the A-side reduced matrix of entanglement_entropy_pure
        a = haar_pure_entropies(6, 4, 5, RngStream(51).generator())
        gen = RngStream(51).generator()
        psi = gen.standard_normal((5, 16, 4)) + 1j * gen.standard_normal((5, 16, 4))
        ref = [entanglement_entropy_pure(p.ravel() / np.linalg.norm(p), 4) for p in psi]
        assert np.max(np.abs(a - ref)) <= 1e-12

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
        v = sample_number_conserving_eigenstate(10, 5, RngStream(17))
        assert 0.0 <= v <= 5 * np.log(2.0) + 1e-9

    def test_thermodynamic_density(self):
        gen = RngStream(18).generator()
        vals = number_conserving_entropies(400, 200, 200, gen) / 400.0
        assert abs(vals.mean() - 0.19315) <= 0.005
