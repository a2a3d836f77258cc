import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from gausspage.linalg import InvalidArgument, RngStream
from gausspage.gstates import ConsistencyError, mode_entropy, reference_structure
from gausspage import formulas, rmt
from gausspage.rmt import (
    build_kernel_ctx,
    density_cdf,
    kernel,
    level_density,
    average_entropy_quadrature,
    gram,
    wavefunctions,
)
from gausspage import special
from gausspage.special import (
    UNIT_INTERVAL_PANELS,
    QuadratureRule,
    gauss_legendre,
    panel_rule,
    unit_interval_rule,
    unit_panel_rule,
)
from reference import haar_orthogonal_stack, ks_one_sample_critical, ks_statistic_one_sample, s2_closed_form


def reference_c(j, delta):
    """c_j of the module docstring, from its factorials."""
    return math.exp(
        2.0 * delta * math.log(2.0) + 2.0 * math.lgamma(2.0 * j + delta + 1.0) - math.lgamma(2.0 * j + 1.0)
        - math.lgamma(2.0 * j + 2.0 * delta + 1.0) - math.log(4.0 * j + 2.0 * delta + 1.0)
    )


def reference_psi(j, delta, x):
    """psi_j of the module docstring: (1 - x^2)^{Delta/2} P_{2j}^{(Delta,Delta)}(x) / sqrt(c_j)."""
    x = np.asarray(x, dtype=float)
    poly = scipy.special.eval_jacobi(2 * j, delta, delta, x)
    return (1.0 - x * x) ** (0.5 * delta) * poly / math.sqrt(reference_c(j, delta))


class TestKernelCtx:
    def test_normalizations_delta0(self):
        assert np.allclose([reference_c(0, 0), reference_c(1, 0)], [1.0, 0.2], rtol=1e-12)

    def test_normalizations_delta1(self):
        assert abs(reference_c(0, 1) - 2.0 / 3.0) <= 1e-12

    def test_contexts_of_one_order_share_the_cached_rule(self):
        # 2 * 4 + 8 + 16 = 2 * 2 + 12 + 16 = 32, and 2 * 1 + 0 + 16 rounds up to it
        assert build_kernel_ctx(4, 8).quadrature is build_kernel_ctx(2, 12).quadrature is unit_panel_rule(32)
        assert build_kernel_ctx(1, 0).quadrature is unit_panel_rule(32)

    def test_positive(self):
        # c_j > 0, and psi_j has the sign of P_{2j}: positive beyond its largest zero
        ctx = build_kernel_ctx(8, 5)
        assert all(reference_c(j, 5) > 0 for j in range(8))
        assert np.all(wavefunctions(ctx, [0.9999]) > 0)

    @pytest.mark.parametrize("delta", [0, 1, 7, 40, 192])
    def test_wavefunctions_match_the_definition(self, delta):
        ctx = build_kernel_ctx(1, delta)
        x = np.array([0.0, 1.0])
        ref = np.array([reference_psi(j, delta, x) for j in range(12)])
        got = wavefunctions(ctx, x, jmax=12)
        assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(np.abs(ref), 1.0))

    @pytest.mark.parametrize("n_a,delta", [(1, 0), (2, 1), (5, 5), (20, 20)])
    def test_orthonormality(self, n_a, delta):
        ctx = build_kernel_ctx(n_a, delta)
        psi = wavefunctions(ctx, ctx.quadrature.nodes)
        gram = (psi * ctx.quadrature.weights) @ psi.T
        assert np.max(np.abs(gram - np.eye(n_a))) <= 1e-10

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidArgument):
            build_kernel_ctx(0, 0)

    def test_a_nan_fails_the_orthonormality_check(self, monkeypatch):
        monkeypatch.setattr(rmt, "_gram_on", lambda ctx, rule, g, jmax: np.full((jmax, jmax), np.nan))
        with pytest.raises(ConsistencyError, match="orthonormality"):
            build_kernel_ctx(3, 1)
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

    @pytest.mark.parametrize("n_a,delta", [(1, 0), (4, 8), (96, 0), (5, 98)])
    def test_concatenated_nodes_equal_separate_calls(self, n_a, delta):
        # K(x, x) is elementwise in x: one call over two rules' nodes has the bits of one call for each
        ctx = build_kernel_ctx(n_a, delta)
        a, b = unit_interval_rule(64).nodes, unit_interval_rule(128).nodes
        both = level_density(ctx, np.concatenate([a, b]))
        assert np.array_equal(both, np.concatenate([level_density(ctx, a), level_density(ctx, b)]))

    def test_in_place_sum_is_the_sum_of_squared_rows(self):
        ctx, x = build_kernel_ctx(40, 13), np.linspace(0.0, 1.0, 2001)
        assert np.array_equal(level_density(ctx, x), sum(row * row for row in wavefunctions(ctx, x)) / 40)

    def test_uniform_case(self):
        ctx = build_kernel_ctx(1, 0)
        grid = np.linspace(0, 1, 11)
        assert np.allclose(level_density(ctx, grid), np.ones(11), atol=1e-12)

    def test_against_sampler(self):
        # MC restricted spectra at N=8, N_A=2 (Delta=4) follow rho
        n = 100_000
        gen = RngStream(21).generator()
        j0 = reference_structure(8)
        m = haar_orthogonal_stack(16, n, gen)
        j = m @ j0 @ np.swapaxes(m, -2, -1)
        idx = [0, 1, 8, 9]
        block = j[:, idx][:, :, idx]
        ev = np.linalg.eigvalsh(np.swapaxes(block, -2, -1) @ block)
        x = np.sqrt(np.clip(ev, 0.0, 1.0))
        xs = np.sort((0.5 * (x[:, 0::2] + x[:, 1::2])).ravel())
        ctx = build_kernel_ctx(2, 4)
        cdf = density_cdf(ctx, xs)
        stat = ks_statistic_one_sample(xs, cdf)
        assert stat < ks_one_sample_critical(xs.size)

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
        chunks = []
        monkeypatch.setattr(rmt, "level_density", lambda ctx, x: chunks.append(x.size) or level_density(ctx, x))
        assert np.max(np.abs(density_cdf(ctx, grid) - np.array(expected))) <= 1e-13
        assert len(chunks) >= 2 and sum(chunks) == 24 * grid.size
        assert abs(density_cdf(ctx, np.array([1.0]))[0] - 1.0) <= 1e-12
        assert density_cdf(ctx, np.array([])).size == 0


    @pytest.mark.parametrize("n_a,delta", [(96, 0), (3, 194), (20, 20)])
    def test_running_sum_is_the_sum_of_squared_rows(self, n_a, delta):
        ctx = build_kernel_ctx(n_a, delta)
        x = np.concatenate([np.linspace(0.0, 1.0, 257), ctx.quadrature.nodes])
        squares = np.sum(wavefunctions(ctx, x) ** 2, axis=0)
        # relative, down to the smallest normal double: (1 - x^2)^97 is subnormal near x = 1 at Delta = 194
        scale = np.maximum(squares, np.finfo(float).tiny)
        assert np.all(np.abs(n_a * level_density(ctx, x) - squares) <= 1e-13 * scale)


    def test_running_sum_is_bit_for_bit_the_sum_of_squares(self):
        # pins the order of the additions: a faster summation (in place, say) must give these same bits
        for n_a, delta in [(1, 0), (7, 3), (40, 0)]:
            ctx = build_kernel_ctx(n_a, delta)
            x = np.linspace(0.0, 1.0, 301)
            expected = sum(row * row for row in rmt._rows(delta, x, n_a)) / n_a
            assert np.array_equal(level_density(ctx, x), expected)


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

    @pytest.mark.parametrize("n,n_a", [(16, 4), (40, 10), (108, 5), (192, 96)])
    def test_one_pass_equals_a_pass_for_each_order(self, n, n_a):
        # the check of n against 2n evaluates both orders' nodes in one pass; each half keeps the bits of its own
        ctx = build_kernel_ctx(n_a, n - 2 * n_a)

        def trace(order):
            rule = unit_interval_rule(order)
            return n_a * rule.integrate(mode_entropy(rule.nodes) * level_density(ctx, rule.nodes))

        order = rmt._panel_order(n_a, n - 2 * n_a)
        value, refined = trace(order), trace(2 * order)
        while not abs(refined - value) < rmt.QUADRATURE_TOL:
            order *= 2
            value, refined = refined, trace(2 * order)
        assert average_entropy_quadrature(ctx) == refined

    def test_entropy_bound_guard(self):
        ctx = build_kernel_ctx(1, 40)
        assert average_entropy_quadrature(ctx) < math.log(2.0)

    def test_matches_closed_form_everywhere(self):
        sizes = [(n, n_a) for n in range(2, 41) for n_a in range(1, n // 2 + 1)]
        for n, n_a in sizes + [(192, n_a) for n_a in range(1, 97)] + [(256, 1), (400, 100)]:
            quad = average_entropy_quadrature(build_kernel_ctx(n_a, n - 2 * n_a))
            assert abs(quad - formulas.gaussian_average_exact(n, n_a)) <= 1e-10, (n, n_a)

    def test_quadrature_builds_no_degree_by_nodes_table(self):
        # K(x, x) is a running sum over rows, O(nodes) memory; a 191 x 21504 degree x nodes table peaks at 63 MB
        tracemalloc.start()
        try:
            average_entropy_quadrature(build_kernel_ctx(96, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("integral", [average_entropy_quadrature, lambda ctx: gram(ctx, mode_entropy)],
                             ids=["mean", "gram"])
    def test_unsettled_quadrature_raises(self, integral, monkeypatch):
        orders = []

        def never_settles(order):  # a one-node rule whose weight is the order: every integral grows with it
            orders.append(order)
            return QuadratureRule(np.array([0.5]), np.array([float(order)]))

        monkeypatch.setattr(rmt, "unit_interval_rule", never_settles)
        with pytest.raises(ConsistencyError, match="did not converge"):
            integral(build_kernel_ctx(2, 0))
        # each check takes the rules of n and 2n, doubling n from the first order: n, 2n, 2n, 4n, ..., 32n, 64n
        n = rmt._panel_order(2, 0)
        assert orders == [n * 2 ** ((i + 1) // 2) for i in range(2 * rmt._MAX_DOUBLINGS)]

    @pytest.mark.parametrize("n_a,delta", [(96, 0), (40, 112), (200, 0)])
    def test_gram_matrix_on_the_graded_rule(self, n_a, delta):
        # n >> (k // 2) nodes, at least 8, on panel k above x = 3/4 still integrate psi_i psi_j exactly
        rule = unit_interval_rule(rmt._panel_order(n_a, delta))
        psi = wavefunctions(build_kernel_ctx(n_a, delta), rule.nodes)
        assert np.max(np.abs((psi * rule.weights) @ psi.T - np.eye(n_a))) <= 1e-11

    @pytest.mark.parametrize("n,n_a", [(12, 2), (40, 10), (192, 96), (400, 200)])
    def test_matches_the_uniform_order_rule(self, n, n_a, monkeypatch):
        # the same n nodes on all 48 panels, as the rule had before its orders fell toward x = 1
        ctx = build_kernel_ctx(n_a, n - 2 * n_a)
        graded = average_entropy_quadrature(ctx)
        monkeypatch.setattr(rmt, "unit_interval_rule", lambda order: panel_rule(order, UNIT_INTERVAL_PANELS))
        assert abs(graded - average_entropy_quadrature(ctx)) <= 1e-12

    def test_a_second_sweep_builds_no_legendre_rule(self, monkeypatch):
        # the 24 Gauss-Legendre orders of the graded rules of N = 16..192 and of their doubles fit in the 64
        # cached ones: the graded rules of a second sweep are built anew from them
        calls = []
        leggauss = special.leggauss
        monkeypatch.setattr(special, "leggauss", lambda n: calls.append(n) or leggauss(n))

        def sweep():
            for n in range(16, 193, 16):
                for n_a in (1, n // 4, n // 2):
                    average_entropy_quadrature(build_kernel_ctx(n_a, n - 2 * n_a))

        special._gauss_legendre.cache_clear()  # so the first sweep builds every order, whatever ran before
        special._unit_interval_rule.cache_clear()
        sweep()
        first = len(calls)
        special._unit_interval_rule.cache_clear()
        sweep()
        assert len(calls) == first

    def test_the_floor_of_8_nodes_is_exact(self, monkeypatch):
        # the panels near x = 1 that keep 8 nodes at every order are not refined by the check of n against 2n:
        # 16 nodes there must give the same integrals
        sizes = [(n, n_a) for n in range(2, 41) for n_a in range(1, n // 2 + 1)] + [(192, 96), (256, 128), (400, 200)]
        ctxs = [build_kernel_ctx(n_a, n - 2 * n_a) for n, n_a in sizes]
        big = build_kernel_ctx(96, 0)

        def integrals():
            special._unit_interval_rule.cache_clear()
            return np.array([average_entropy_quadrature(ctx) for ctx in ctxs]), gram(big, mode_entropy)

        means, matrix = integrals()
        monkeypatch.setattr(special, "_FLOOR_NODES", 16)
        try:
            floor16 = integrals()
        finally:
            special._unit_interval_rule.cache_clear()
        assert np.max(np.abs(floor16[0] - means)) <= 1e-13
        assert np.max(np.abs(floor16[1] - matrix)) <= 1e-13

    def test_order_covers_the_polynomial_degree(self):
        # n nodes are exact to degree 2n - 1; psi_i psi_j has degree 4(jmax-1) + 2 Delta
        for jmax in range(1, 120, 7):
            for delta in range(0, 300, 13):
                assert 2 * rmt._panel_order(jmax, delta) - 1 >= 4 * (jmax - 1) + 2 * delta


class TestMatrixElements:
    # s_ij = G(s)_ij, entries of the Gram matrix of s = mode_entropy
    def test_symmetry(self):
        s = gram(build_kernel_ctx(2, 1), mode_entropy)
        assert s.shape == (2, 2) and abs(s[0, 1] - s[1, 0]) <= 1e-12

    def test_against_closed_form(self):
        s01 = gram(build_kernel_ctx(1, 0), mode_entropy, 2)[0, 1]
        assert abs(s01**2 - s2_closed_form(0, 1, 0)) <= 1e-8

    def test_closed_form_grid(self):
        for delta in range(0, 7, 2):
            s = gram(build_kernel_ctx(1, delta), mode_entropy, 7)
            for i in range(0, 3):
                for j in range(i + 1, 7):
                    assert abs(s[i, j] ** 2 - s2_closed_form(i, j, delta)) <= 1e-8

    def test_large_n_limit(self):
        # s_{N_A-1, N_A}^2 at f = 1/2, N = 200 approaches 1/36 within 2%
        val = gram(build_kernel_ctx(100, 0), mode_entropy, 101)[99, 100] ** 2
        assert abs(val - 1.0 / 36.0) <= 0.02 / 36.0

    def test_identity_is_the_orthonormality_check(self):
        for n_a, delta in [(1, 0), (5, 5), (20, 20)]:
            assert np.max(np.abs(gram(build_kernel_ctx(n_a, delta), np.ones_like) - np.eye(n_a))) <= 1e-10

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(InvalidArgument):
            gram(build_kernel_ctx(2, 0), mode_entropy, 0)


def gram_variance(N, n_a):
    """Var S_A = tr G(s^2) - ||G(s)||_F^2 over i, j < N_A: finite, as the kernel is a projection."""
    ctx = build_kernel_ctx(n_a, N - 2 * n_a)
    return np.trace(gram(ctx, lambda x: mode_entropy(x) ** 2)) - np.sum(gram(ctx, mode_entropy) ** 2)


class TestGramVariance:
    # certifies the closed form formulas.variance_finite_N, which was found by fitting, not derived
    def test_closed_form_within_1e_12_of_the_gram_variance(self):
        sizes = [(n, n_a) for n in range(2, 41) for n_a in range(1, n // 2 + 1)] + [(192, 96), (256, 128)]
        for n, n_a in sizes:
            gap = abs(formulas.variance_finite_N(n, n_a) - gram_variance(n, n_a))
            assert gap <= 1e-12, (n, n_a, gap)
