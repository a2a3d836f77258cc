import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausspage.linalg import (
    InvalidArgument,
    RngStream,
    antisym_canonical,
    haar_orthogonal,
    haar_orthogonal_batch,
    haar_unitary_batch,
)
from gausspage.stats import (
    ks_one_sample_critical,
    ks_statistic,
    ks_statistic_one_sample,
    ks_two_sample_critical,
)


def random_antisymmetric(dim, gen):
    g = gen.standard_normal((dim, dim))
    return 0.5 * (g - g.T)


class TestHaarOrthogonal:
    def test_orthogonality(self):
        for dim in (2, 4, 6, 16, 64):
            m = haar_orthogonal(dim, RngStream(1, dim))
            assert np.max(np.abs(m @ m.T - np.eye(dim))) <= 1e-12

    def test_unit_determinant_magnitude(self):
        m = haar_orthogonal(4, RngStream(2))
        assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-12

    def test_determinant_sign_is_fair_coin(self):
        # Haar on O(dim) covers both components with equal mass
        gen = RngStream(3).generator()
        dets = np.linalg.det(haar_orthogonal_batch(6, 10_000, gen))
        frac = np.mean(dets > 0)
        assert abs(frac - 0.5) <= 0.015  # 3 sigma binomial

    def test_left_invariance(self):
        # entry distribution of Q @ M equals that of M for fixed orthogonal Q
        gen = RngStream(4).generator()
        q = haar_orthogonal(4, RngStream(5))
        a = haar_orthogonal_batch(4, 10_000, gen)[:, 0, 0]
        b = (q @ haar_orthogonal_batch(4, 10_000, gen))[:, 0, 0]
        assert ks_statistic(a, b) < ks_two_sample_critical(10_000, 10_000, alpha=0.01)

    def test_rejects_odd_or_zero_dim(self):
        with pytest.raises(InvalidArgument):
            haar_orthogonal(3, RngStream(0))
        with pytest.raises(InvalidArgument):
            haar_orthogonal(0, RngStream(0))

    def test_reproducible(self):
        a = haar_orthogonal(8, RngStream(11, 2))
        b = haar_orthogonal(8, RngStream(11, 2))
        assert np.array_equal(a, b)

    def test_frames_have_the_law_of_leading_columns(self):
        # a dim x cols frame is orthonormal and its entries follow the law of
        # the same entries of a full Haar matrix
        gen = RngStream(12).generator()
        frames = haar_orthogonal_batch(6, 10_000, gen, cols=2)
        assert frames.shape == (10_000, 6, 2)
        assert np.max(np.abs(np.swapaxes(frames, 1, 2) @ frames - np.eye(2))) <= 1e-12
        full = haar_orthogonal_batch(6, 10_000, gen)
        for i, j in ((0, 0), (5, 1)):
            assert ks_statistic(frames[:, i, j], full[:, i, j]) < ks_two_sample_critical(10_000, 10_000)
        with pytest.raises(InvalidArgument):
            haar_orthogonal_batch(6, 1, gen, cols=7)

    def test_unitary_frames(self):
        # |U_00|^2 of a Haar U(dim) is Beta(1, dim - 1): P(|U_00|^2 <= t) = 1 - (1 - t)^(dim - 1)
        gen = RngStream(13).generator()
        frames = haar_unitary_batch(5, 10_000, gen, 2)
        assert np.max(np.abs(np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(2))) <= 1e-12
        t = np.sort(np.abs(frames[:, 0, 0]) ** 2)
        cdf = 1.0 - (1.0 - t) ** 4
        assert ks_statistic_one_sample(t, cdf) < ks_one_sample_critical(t.size)


class TestAntisymCanonical:
    def test_single_block(self):
        h = np.array([[0.0, 2.5], [-2.5, 0.0]])
        m, omega = antisym_canonical(h)
        assert np.allclose(omega, [2.5])
        block = np.array([[0.0, 2.5], [-2.5, 0.0]])
        assert np.max(np.abs(m @ h @ m.T - block)) <= 1e-9 * 2.5

    def test_zero_matrix(self):
        _, omega = antisym_canonical(np.zeros((4, 4)))
        assert np.allclose(omega, [0, 0])

    def test_matches_singular_values(self):
        gen = np.random.default_rng(2)
        h = random_antisymmetric(8, gen)
        _, omega = antisym_canonical(h)
        # singular values of h via the eigenvalues of h^T h come in doubled pairs
        lam = np.linalg.eigvalsh(h.T @ h)[::-1]
        sv = np.sqrt(lam)
        assert np.allclose(omega, 0.5 * (sv[0::2] + sv[1::2]), atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 4, 6, 10, 32, 64])
    def test_reconstruction_many_dims(self, dim):
        gen = np.random.default_rng(dim)
        for _ in range(100 // dim + 3):
            h = random_antisymmetric(dim, gen)
            m, omega = antisym_canonical(h)
            blocks = np.zeros((dim, dim))
            for k, w in enumerate(omega):
                blocks[2 * k, 2 * k + 1] = w
                blocks[2 * k + 1, 2 * k] = -w
            scale = np.max(np.abs(h))
            assert np.max(np.abs(m @ h @ m.T - blocks)) <= 1e-9 * scale
            assert np.max(np.abs(m @ m.T - np.eye(dim))) <= 1e-12
            assert np.all(omega >= 0)

    @pytest.mark.parametrize(
        "omega",
        [[0.0] * 5, [1.7, 0.6, 0.0, 0.0, 0.0], [2.0, 1.0, 0.5, 1e-13, 1e-13], [1.0] * 5],
        ids=["zero-matrix", "kernel", "tiny-omega", "degenerate"],
    )
    def test_orthogonal_with_zero_tiny_and_repeated_modes(self, omega):
        # eigh of i*h splits a kernel (or a near-kernel) into vectors whose real
        # and imaginary parts need not be orthonormal; M must stay orthogonal
        dim = 2 * len(omega)
        blocks = np.zeros((dim, dim))
        for k, w in enumerate(np.random.default_rng(42).permutation(omega)):
            blocks[2 * k, 2 * k + 1] = w
            blocks[2 * k + 1, 2 * k] = -w
        o = haar_orthogonal(dim, RngStream(43))
        h = o @ blocks @ o.T
        h = 0.5 * (h - h.T)
        m, got = antisym_canonical(h)
        assert np.max(np.abs(m @ m.T - np.eye(dim))) <= 1e-12
        assert np.allclose(got, sorted(omega, reverse=True), rtol=0.0, atol=1e-12)
        canonical = np.zeros((dim, dim))
        for k, w in enumerate(got):
            canonical[2 * k, 2 * k + 1] = w
            canonical[2 * k + 1, 2 * k] = -w
        scale = max(np.max(np.abs(h)), 1.0)
        assert np.max(np.abs(m @ h @ m.T - canonical)) <= 1e-9 * scale

    def test_rejects_odd_dim_and_nonantisym(self):
        with pytest.raises(InvalidArgument):
            antisym_canonical(np.zeros((3, 3)))
        with pytest.raises(InvalidArgument):
            antisym_canonical(np.eye(4))
        with pytest.raises(InvalidArgument):
            antisym_canonical(1.0)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_haar_orthogonality_property(half_dim, seed):
    m = haar_orthogonal(2 * half_dim, RngStream(seed))
    assert np.max(np.abs(m @ m.T - np.eye(2 * half_dim))) <= 1e-12
