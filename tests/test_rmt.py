import math

import numpy as np
import pytest

from gausspage.linalg import InvalidArgument, RngStream, haar_orthogonal_batch
from gausspage.gstates import reference_structure
from gausspage import formulas, rmt
from gausspage.rmt import (
    AccuracyError,
    build_kernel_ctx,
    density_cdf,
    kernel,
    level_density,
    average_entropy_quadrature,
    s_ij_quadrature,
    variance_finite_N,
    wavefunctions,
)
from gausspage.special import gauss_legendre
from gausspage.stats import ks_one_sample_critical, ks_statistic_one_sample


class TestKernelCtx:
    def test_normalizations_delta0(self):
        ctx = build_kernel_ctx(2, 0)
        assert np.allclose(ctx.c, [1.0, 0.2], rtol=1e-12)

    def test_normalizations_delta1(self):
        ctx = build_kernel_ctx(1, 1)
        assert abs(ctx.c[0] - 2.0 / 3.0) <= 1e-12

    def test_positive(self):
        ctx = build_kernel_ctx(8, 5)
        assert np.all(ctx.c > 0)

    @pytest.mark.parametrize("n_a,delta", [(1, 0), (2, 1), (5, 5), (20, 20)])
    def test_orthonormality(self, n_a, delta):
        ctx = build_kernel_ctx(n_a, delta)
        psi = wavefunctions(ctx, ctx.quadrature.nodes)
        gram = (psi * ctx.quadrature.weights) @ psi.T
        assert np.max(np.abs(gram - np.eye(n_a))) <= 1e-10

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidArgument):
            build_kernel_ctx(0, 0)
        with pytest.raises(InvalidArgument):
            build_kernel_ctx(2, -1)


class TestKernel:
    def test_trace(self):
        ctx = build_kernel_ctx(4, 3)
        diag = np.array([kernel(ctx, x, x) for x in ctx.quadrature.nodes])
        trace = float(np.dot(ctx.quadrature.weights, diag))
        assert abs(trace - 4.0) <= 1e-9

    def test_reproducing_property(self):
        ctx = build_kernel_ctx(5, 2)
        x, y = 0.2, 0.7
        nodes, weights = ctx.quadrature.nodes, ctx.quadrature.weights
        kz_x = np.atleast_1d(kernel(ctx, nodes, np.array([x])))[:, 0]
        kz_y = np.atleast_1d(kernel(ctx, nodes, np.array([y])))[:, 0]
        integral = float(np.dot(weights, kz_x * kz_y))
        assert abs(integral - kernel(ctx, x, y)) <= 1e-8

    def test_rank_one_case(self):
        ctx = build_kernel_ctx(1, 0)
        for x, y in [(0.0, 0.5), (0.3, 0.9), (1.0, 1.0)]:
            assert abs(kernel(ctx, x, y) - 1.0) <= 1e-12


class TestLevelDensity:
    def test_normalization(self):
        for n_a, delta in [(1, 0), (3, 2), (10, 4)]:
            ctx = build_kernel_ctx(n_a, delta)
            rho = level_density(ctx, ctx.quadrature.nodes)
            assert abs(float(np.dot(ctx.quadrature.weights, rho)) - 1.0) <= 1e-9
            assert np.all(rho >= -1e-12)

    def test_uniform_case(self):
        ctx = build_kernel_ctx(1, 0)
        grid = np.linspace(0, 1, 11)
        assert np.allclose(level_density(ctx, grid), np.ones(11), atol=1e-12)

    def test_against_sampler(self):
        # MC restricted spectra at N=8, N_A=2 (Delta=4) follow rho
        n = 100_000
        gen = RngStream(21).generator()
        j0 = reference_structure(8)
        m = haar_orthogonal_batch(16, n, gen)
        j = m @ j0 @ np.swapaxes(m, -2, -1)
        idx = [0, 1, 8, 9]
        block = j[:, idx][:, :, idx]
        ev = np.linalg.eigvalsh(np.swapaxes(block, -2, -1) @ block)
        x = np.sqrt(np.clip(ev, 0.0, 1.0))
        xs = np.sort((0.5 * (x[:, 0::2] + x[:, 1::2])).ravel())
        ctx = build_kernel_ctx(2, 4)
        cdf = density_cdf(ctx, xs)
        stat = ks_statistic_one_sample(xs, cdf)
        assert stat < ks_one_sample_critical(xs.size, alpha=0.01)

    def test_matches_per_interval_loop(self, monkeypatch):
        # a grid longer than one chunk, against one 24-node rule per interval
        monkeypatch.setattr(rmt, "_CHUNK_ELEMENTS", 24 * 5 * 40)
        ctx = build_kernel_ctx(3, 2)
        grid = np.sort(np.random.default_rng(5).random(250))
        base = gauss_legendre(24)
        edges = np.concatenate([[0.0], grid])
        expected, acc = [], 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            acc += half * float(np.dot(base.weights, level_density(ctx, half * base.nodes + 0.5 * (a + b))))
            expected.append(acc)
        assert np.max(np.abs(density_cdf(ctx, grid) - np.array(expected))) <= 1e-13
        assert abs(density_cdf(ctx, np.array([1.0]))[0] - 1.0) <= 1e-12
        assert density_cdf(ctx, np.array([])).size == 0


class TestCorrelations:
    def test_one_point_is_density(self):
        ctx = build_kernel_ctx(3, 1)
        for x in (0.1, 0.5, 0.9):
            # R_1 = K(x, x) / N_A
            assert abs(kernel(ctx, x, x) / ctx.n_a - level_density(ctx, x)) <= 1e-12

    def test_eigenvalue_repulsion(self):
        ctx = build_kernel_ctx(4, 2)
        # R_2 is proportional to det K(x_a, x_b), which vanishes at coinciding points
        assert abs(np.linalg.det(kernel(ctx, [0.4, 0.4], [0.4, 0.4]))) <= 1e-10

    def test_joint_density_normalization(self):
        # k = N_A = 2, Delta = 1: 2-d quadrature of R_2 equals 1
        ctx = build_kernel_ctx(2, 1)
        rule = gauss_legendre(60)
        nodes = 0.5 * (rule.nodes + 1.0)
        weights = 0.5 * rule.weights
        psi = wavefunctions(ctx, nodes)
        kmat = psi.T @ psi  # K(x_a, x_b) on the grid
        diag = np.diag(kmat)
        # det [[K(x,x), K(x,y)], [K(y,x), K(y,y)]] summed with weights
        dets = np.outer(diag, diag) - kmat**2
        integral = 0.5 * float(weights @ dets @ weights)  # (N_A-k)!/N_A! = 1/2
        assert abs(integral - 1.0) <= 1e-8


class TestAverageEntropy:
    def test_smallest_case(self):
        # N=2, N_A=1: integral of s over [0,1] is exactly 1/2
        ctx = build_kernel_ctx(1, 0)
        assert abs(average_entropy_quadrature(ctx) - 0.5) <= 1e-10

    def test_matches_closed_form(self):
        ctx = build_kernel_ctx(3, 4)  # N=10, N_A=3
        assert abs(average_entropy_quadrature(ctx) - formulas.gaussian_average_exact(10, 3)) <= 1e-8

    def test_entropy_bound_guard(self):
        ctx = build_kernel_ctx(1, 40)
        assert average_entropy_quadrature(ctx) < math.log(2.0)

    def test_matches_closed_form_everywhere(self):
        sizes = [(n, n_a) for n in range(2, 41) for n_a in range(1, n // 2 + 1)]
        for n, n_a in sizes + [(192, 96), (256, 1), (400, 100)]:
            quad = average_entropy_quadrature(build_kernel_ctx(n_a, n - 2 * n_a))
            assert abs(quad - formulas.gaussian_average_exact(n, n_a)) <= 1e-10, (n, n_a)

    def test_unsettled_quadrature_raises(self, monkeypatch):
        orders = []

        def never_settles(ctx, order):
            orders.append(order)
            return float(len(orders))

        monkeypatch.setattr(rmt, "_entropy_integral", never_settles)
        with pytest.raises(AccuracyError):
            average_entropy_quadrature(build_kernel_ctx(2, 0))
        assert len(orders) > 2 and all(b == 2 * a for a, b in zip(orders, orders[1:]))

    def test_order_covers_the_polynomial_degree(self):
        # n nodes are exact to degree 2n - 1; psi_i psi_j has degree 4(jmax-1) + 2 Delta
        for jmax in range(1, 120, 7):
            for delta in range(0, 300, 13):
                assert 2 * rmt._panel_order(jmax, delta) - 1 >= 4 * (jmax - 1) + 2 * delta


class TestMatrixElements:
    def test_symmetry(self):
        ctx = build_kernel_ctx(2, 1)
        assert abs(s_ij_quadrature(ctx, 0, 1) - s_ij_quadrature(ctx, 1, 0)) <= 1e-12

    def test_against_closed_form(self):
        ctx = build_kernel_ctx(1, 0)
        s01 = s_ij_quadrature(ctx, 0, 1)
        assert abs(s01**2 - formulas.s2_closed_form(0, 1, 0)) <= 1e-8

    def test_closed_form_grid(self):
        for delta in range(0, 7, 2):
            ctx = build_kernel_ctx(1, delta)
            for i in range(0, 3):
                for j in range(i + 1, 7):
                    quad = s_ij_quadrature(ctx, i, j) ** 2
                    closed = formulas.s2_closed_form(i, j, delta)
                    assert abs(quad - closed) <= 1e-8

    def test_large_n_limit(self):
        # s_{N_A-1, N_A}^2 at f = 1/2, N = 200 approaches 1/36 within 2%
        ctx = build_kernel_ctx(100, 0)
        val = s_ij_quadrature(ctx, 99, 100) ** 2
        assert abs(val - 1.0 / 36.0) <= 0.02 / 36.0


class TestVariance:
    def test_non_negative(self):
        for n_a, delta in [(1, 0), (2, 3), (5, 0)]:
            ctx = build_kernel_ctx(n_a, delta)
            assert variance_finite_N(ctx) >= 0.0

    def test_limit_sequence(self):
        target = (0.75 - math.log(2.0)) / 2.0
        gaps = []
        for n in (32, 64, 128, 256):
            ctx = build_kernel_ctx(n // 2, 0)
            gaps.append(variance_finite_N(ctx) - target)
        gaps = np.array(gaps)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 0.03 * target
