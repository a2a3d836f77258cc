import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausspage.linalg import InvalidArgument, RngStream, antisym_canonical, haar_orthogonal
from gausspage.gstates import (
    CLAMP_TOL,
    SystemSplit,
    ConsistencyError,
    clip_unit,
    conjugate,
    entropy_from_spectrum,
    mode_entropy,
    reference_structure,
    restrict,
    restrict_blocks,
    subsystem_indices,
)
from gausspage.ensembles import (
    QuadraticHamiltonian,
    _antisym,
    eigenstate_structure,
    gaussian_entropies,
    sample_gaussian_state,
)
from reference import haar_orthogonal_stack, ks_one_sample_critical, ks_statistic_one_sample

S_HALF = 0.5623351446188084  # s(1/2), frozen from high-precision evaluation


class TestReferenceStructure:
    def test_single_mode(self):
        assert np.array_equal(reference_structure(1), [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_squares_to_minus_one(self, N):
        j0 = reference_structure(N)
        assert np.array_equal(j0 @ j0, -np.eye(2 * N))
        assert np.array_equal(j0.T, -j0)

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            reference_structure(0)


class TestConjugate:
    def test_identity(self):
        j0 = reference_structure(3)
        assert np.array_equal(conjugate(j0, np.eye(6)), j0)

    def test_preserves_structure(self):
        j0 = reference_structure(4)
        m = haar_orthogonal(8, RngStream(0))
        j = conjugate(j0, m)
        assert np.max(np.abs(j @ j.T - np.eye(8))) <= 1e-10
        assert np.max(np.abs(j + j.T)) <= 1e-10

    def test_rejects_mismatch(self):
        with pytest.raises(InvalidArgument):
            conjugate(reference_structure(2), np.eye(6))


class TestRestrict:
    def test_reference_is_product_state(self):
        j0 = reference_structure(4)
        for n_a in (1, 2, 4):
            x = restrict(j0, SystemSplit(4, n_a))
            assert np.allclose(x, np.ones(n_a))

    @pytest.mark.parametrize("N, N_A", [(3, 1), (1, 1), (5, 2)])
    def test_rejects_a_structure_of_another_size(self, N, N_A):
        # a 4x4 J has N = 2: a split of 3 or 1 modes would read the wrong block, one of 5 would index past it
        with pytest.raises(InvalidArgument, match="4, 4"):
            restrict(reference_structure(2), SystemSplit(N, N_A))

    def test_rejects_a_non_finite_a_block(self):
        # the A block alone is checked: a NaN in B's rows leaves [J]_A and its spectrum as they were
        j = reference_structure(3)
        j[2, 5] = np.nan  # B row, B column
        assert np.array_equal(restrict(j, SystemSplit(3, 1)), [1.0])
        j[0, 3] = np.nan  # A row, A column: [J]_A = [[0, nan], [-1, 0]]
        with pytest.raises(InvalidArgument, match="non-finite"):
            restrict(j, SystemSplit(3, 1))

    def test_full_system_is_pure(self):
        j = sample_gaussian_state(3, RngStream(5))
        x = restrict(j, SystemSplit(3, 3))
        assert np.allclose(x, np.ones(3), atol=1e-9)
        assert entropy_from_spectrum(x) <= 1e-9

    def test_single_mode_spectrum_is_uniform(self):
        # at N=2, N_A=1 the level density is exactly uniform on [0, 1]
        n = 100_000
        gen = RngStream(7).generator()
        j0 = reference_structure(2)
        m = haar_orthogonal_stack(4, n, gen)
        j = m @ j0 @ np.swapaxes(m, -2, -1)
        block = j[:, [0, 2]][:, :, [0, 2]]
        ev = np.linalg.eigvalsh(np.swapaxes(block, -2, -1) @ block)
        xs = np.sort(np.sqrt(np.clip(ev.mean(axis=1), 0.0, 1.0)))
        stat = ks_statistic_one_sample(xs, xs)  # uniform CDF on [0,1] is x itself
        assert stat < ks_one_sample_critical(n)

    def test_entropy_complementarity(self):
        for n_a in (1, 2):
            j = sample_gaussian_state(5, RngStream(40 + n_a))
            sa = entropy_from_spectrum(restrict(j, SystemSplit(5, n_a)))
            # complement = modes n_a..5; relabel by flipping with a permutation
            perm = np.concatenate([np.arange(n_a, 5), np.arange(n_a)])
            idx = np.concatenate([perm, 5 + perm])
            sb = entropy_from_spectrum(restrict(j[np.ix_(idx, idx)], SystemSplit(5, 5 - n_a)))
            assert abs(sa - sb) <= 1e-9

    def test_invariant_under_complement_rotations(self):
        j = sample_gaussian_state(5, RngStream(9))
        split = SystemSplit(5, 2)
        base = entropy_from_spectrum(restrict(j, split))
        # orthogonal transformation acting only on subsystem B's modes
        q = haar_orthogonal(6, RngStream(10))
        m = np.eye(10)
        b_idx = np.concatenate([np.arange(2, 5), 5 + np.arange(2, 5)])
        m[np.ix_(b_idx, b_idx)] = q
        rotated = entropy_from_spectrum(restrict(m @ j @ m.T, split))
        assert abs(base - rotated) <= 1e-9


class TestEntropyFromSpectrum:
    def test_pure(self):
        assert entropy_from_spectrum(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_maximally_mixed_mode(self):
        assert abs(entropy_from_spectrum(np.array([0.0])) - math.log(2.0)) <= 1e-15

    def test_half(self):
        assert abs(entropy_from_spectrum(np.array([0.5])) - S_HALF) <= 1e-12

    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidArgument):
            entropy_from_spectrum(np.array([0.5, bad]))

    def test_mode_entropy_scalar(self):
        assert mode_entropy(1.0) == 0.0
        assert abs(mode_entropy(0.0) - math.log(2.0)) <= 1e-15


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_entropy_bounds_property(N, seed):
    gen = RngStream(seed, 99).generator()
    n_a = 1 + seed % N
    s = gaussian_entropies(N, n_a, 4, gen)
    assert np.all(s >= -1e-12)
    assert np.all(s <= n_a * math.log(2.0) + 1e-9)


def test_restricted_singular_values_pair():
    split = SystemSplit(6, 3)
    for seed in range(20):
        j = sample_gaussian_state(6, RngStream(seed, 3))
        idx = np.concatenate([np.arange(3), 6 + np.arange(3)])
        block = j[np.ix_(idx, idx)]
        sv = np.linalg.svd(block, compute_uv=False)
        assert np.max(np.abs(sv[0::2] - sv[1::2])) <= 1e-8
        # and the pooled pairs agree with restrict()
        assert np.allclose(restrict(j, split), 0.5 * (sv[0::2] + sv[1::2]), atol=1e-9)


def test_restrict_pairs_singular_values_near_zero():
    # A valid eigenstate whose block has a pair of singular values near 0:
    # square roots of the eigenvalues of B^T B would split it by ~1.2e-8.
    h = _antisym(RngStream(514904109).generator().standard_normal((80, 80)))  # drawn from the stream itself
    ham = QuadraticHamiltonian(40, h, *antisym_canonical(h))
    occ = np.array([int(c) for c in "0000010011110011100010101011111101100001"])
    j = eigenstate_structure(ham, occ)
    split = SystemSplit(40, 24)
    x = restrict(j, split)
    idx = subsystem_indices(split)
    sv = np.linalg.svd(j[np.ix_(idx, idx)], compute_uv=False)
    assert sv[-1] < 1e-8  # the block still has the pair near 0 that this test is about
    assert np.max(np.abs(sv[0::2] - sv[1::2])) <= 1e-14
    ref = 0.5 * (sv[0::2] + sv[1::2])
    assert np.allclose(x, ref, atol=1e-7)
    assert abs(entropy_from_spectrum(x) - entropy_from_spectrum(np.clip(ref, 0.0, 1.0))) <= 1e-12


def test_restrict_blocks_checks_pairing_and_range():
    j = sample_gaussian_state(4, RngStream(21))
    idx = subsystem_indices(SystemSplit(4, 2))
    block = j[np.ix_(idx, idx)]
    assert np.array_equal(restrict_blocks(block[None])[0], restrict(j, SystemSplit(4, 2)))
    with pytest.raises(ConsistencyError):
        restrict_blocks(np.diag([1.0, 0.5, 0.2, 0.1])[None])  # not antisymmetric: no pairs
    with pytest.raises(ConsistencyError):
        restrict_blocks(1.01 * reference_structure(2)[None])  # escapes [0, 1]
    with pytest.raises(ConsistencyError, match="pair"):
        restrict_blocks(np.array([[[0.0, np.nan], [-1.0, 0.0]]]))  # eigenvalues [nan, nan]: a NaN pairs with nothing


def test_clip_unit_clips_within_the_tolerance_and_raises_beyond():
    inside = np.array([-0.5 * CLAMP_TOL, 0.0, 0.25, 1.0, 1.0 + 0.5 * CLAMP_TOL])
    assert np.array_equal(clip_unit(inside, "x"), [0.0, 0.0, 0.25, 1.0, 1.0])
    assert clip_unit(np.empty((3, 0)), "x").shape == (3, 0)
    for bad in (-2.0 * CLAMP_TOL, 1.0 + 2.0 * CLAMP_TOL, np.nan):
        with pytest.raises(ConsistencyError, match="spectrum escapes"):
            clip_unit(np.array([[0.5, bad]]), "spectrum")
