import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from gausspage.linalg import InvalidArgument
from gausspage.special import (
    UNIT_INTERVAL_PANELS,
    digamma,
    digamma_difference,
    gauss_legendre,
    jacobi_orthonormal,
    panel_rule,
    trigamma,
    trigamma_difference,
    trigamma_digamma_difference,
    unit_interval_rule,
    unit_panel_rule,
)

EULER_GAMMA = 0.5772156649015328606  # -digamma(1)
# frozen from a 50-digit mpmath evaluation
DIGAMMA_HALF = -1.9635100260214234794


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12

    def test_at_half(self):
        assert abs(digamma(0.5) - DIGAMMA_HALF) <= 1e-12

    @pytest.mark.parametrize("z", [0.5, 1.0, 3.25])
    def test_recurrence(self, z):
        assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) <= 1e-12

    def test_harmonic_sum_identity(self):
        acc = 0.0
        for m in range(1, 101):
            assert abs(digamma(float(m)) - (-EULER_GAMMA + acc)) <= 1e-12
            acc += 1.0 / m

    def test_large_arguments(self):
        for z in (1e3, 1e6):
            assert abs(digamma(z) - scipy.special.digamma(z)) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument):
            digamma(0.0)
        with pytest.raises(InvalidArgument):
            digamma(-1.5)


# a < 10 (shifted up before the asymptotic series) and above; n from far below a to far above it
ARGUMENTS = (0.25, 0.5, 1.0, 2.5, 9.5, 9.999, 10.0, 17.0, 1e3, 1e6, 2e8 - 2.0)
STEPS = (1e-9, 1e-3, 0.5, 1.0, 7.0, 64.0, 1e4, 1e8)


def relative_error(value, exact):
    return float(abs(mpmath.mpf(value) - exact) / abs(exact))


class TestTrigamma:
    @pytest.mark.parametrize("z", ARGUMENTS)
    def test_against_mpmath(self, z):
        with mpmath.workdps(40):
            assert relative_error(trigamma(z), mpmath.psi(1, z)) <= 1e-14

    def test_rejects_nonpositive(self):
        for f in (trigamma, lambda z: digamma_difference(z, 1.0), lambda z: trigamma_difference(z, 1.0),
                  lambda z: trigamma_digamma_difference(z, 1.0)):
            for z in (0.0, -1.5, math.nan):
                with pytest.raises(InvalidArgument):
                    f(z)


class TestDifferences:
    # Psi(a + n) - Psi(a) and Psi_1(a) - Psi_1(a + n), each to 1e-14 of itself, n << a included
    @pytest.mark.parametrize("a", ARGUMENTS)
    def test_against_mpmath(self, a):
        with mpmath.workdps(40):
            for n in STEPS:
                digamma_exact = mpmath.psi(0, mpmath.mpf(a) + n) - mpmath.psi(0, a)
                trigamma_exact = mpmath.psi(1, a) - mpmath.psi(1, mpmath.mpf(a) + n)
                assert relative_error(digamma_difference(a, n), digamma_exact) <= 1e-14, (a, n)
                assert relative_error(trigamma_difference(a, n), trigamma_exact) <= 1e-14, (a, n)

    @pytest.mark.parametrize("a", ARGUMENTS + (1e12,))
    def test_trigamma_digamma_combination_against_mpmath(self, a):
        # (a - 1) [Psi_1(a) - Psi_1(a + n)] - [Psi(a + n) - Psi(a)], to 1e-14 of itself: near (n/a)^2 where n << a,
        # as both differences are near n/a
        with mpmath.workdps(60):
            for n in STEPS + (1e12,):
                a_mp = mpmath.mpf(a)
                exact = ((a_mp - 1) * (mpmath.psi(1, a_mp) - mpmath.psi(1, a_mp + n))
                         - (mpmath.psi(0, a_mp + n) - mpmath.psi(0, a_mp)))
                assert relative_error(trigamma_digamma_difference(a, n), exact) <= 1e-14, (a, n)

    def test_zero_step(self):
        for a in ARGUMENTS:
            assert digamma_difference(a, 0.0) == trigamma_difference(a, 0.0) == 0.0
            assert trigamma_digamma_difference(a, 0.0) == 0.0


def jacobi_norm(n, a, b):
    """h_n = integral of P_n^{(a,b)}(t)^2 (1 - t)^a (1 + t)^b over [-1, 1], for a + b > -1."""
    return math.exp(
        (a + b + 1.0) * math.log(2.0) - math.log(2.0 * n + a + b + 1.0) + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0) - math.lgamma(n + a + b + 1.0) - math.lgamma(n + 1.0)
    )


def orthonormal_rows(n, a, b, x):
    """p_0..p_n at x, shape (n + 1, len(x)), from p_0 = 1 / sqrt(h_0)."""
    x = np.asarray(x, dtype=float)
    return np.array(list(jacobi_orthonormal(n + 1, a, b, x, np.full(x.shape, jacobi_norm(0, a, b) ** -0.5))))


class TestJacobi:
    def test_degree_zero(self):
        # p_0 = 1 / sqrt(integral of the weight); (1 - t)^3 (1 + t)^7 integrates to 2^11 3! 7! / 11!
        mass = 2.0**11 * math.factorial(3) * math.factorial(7) / math.factorial(11)
        assert abs(orthonormal_rows(0, 3.0, 7.0, [-0.2])[0, 0] - 1.0 / math.sqrt(mass)) <= 1e-12
        row0 = np.array([0.25, -3.0])
        assert next(jacobi_orthonormal(1, 3.0, 7.0, [-0.2, 0.4], row0)) is row0

    def test_legendre_endpoint(self):
        # P_2(1) = 1 and h_2 = 2/5
        assert abs(orthonormal_rows(2, 0.0, 0.0, [1.0])[2, 0] - math.sqrt(2.5)) <= 1e-12

    def test_degree_one_explicit(self):
        # P_1 = (a-b)/2 + (a+b+2) x / 2 = 0.9 at a=b=2, x=0.3, and h_1 = 2^5/7 * 3!^2/5!
        h1 = 2.0**5 / 7.0 * 36.0 / 120.0
        assert abs(orthonormal_rows(1, 2.0, 2.0, [0.3])[1, 0] - 0.9 / math.sqrt(h1)) <= 1e-12

    def test_rows_are_new_arrays(self):
        # each row is an array of its own that later steps leave unchanged
        rows, copies = [], []
        for row in jacobi_orthonormal(12, 3.0, -0.5, np.linspace(-1.0, 1.0, 33), np.ones(33)):
            rows.append(row)
            copies.append(row.copy())
        assert all(np.array_equal(r, c) for r, c in zip(rows, copies))
        assert not any(np.shares_memory(r, s) for i, r in enumerate(rows) for s in rows[i + 1 :])

    @pytest.mark.parametrize("a,b", [(0.0, -0.5), (3.0, -0.5), (2.5, 1.0)])
    def test_rows_are_the_three_term_recurrence_bit_for_bit(self, a, b):
        # the recurrence of the docstring written out, one new array per operation
        t = np.concatenate([np.linspace(-1.0, 1.0, 101), np.random.default_rng(7).uniform(-1.0, 1.0, 50)])
        row0 = np.linspace(0.5, 2.0, t.size)
        expected, prev, sqrt_beta = [row0], 0.0, 0.0
        for n in range(39):
            s, m = 2.0 * n + a + b, n + 1.0
            if n == 0:
                alpha, beta = (b - a) / (s + 2.0), 4.0 * (a + 1.0) * (b + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
            else:
                alpha = (b * b - a * a) / (s * (s + 2.0))
                beta = 4.0 * m * (m + a) * (m + b) * (m + a + b) / ((s + 2.0) ** 2 * (s + 3.0) * (s + 1.0))
            nxt = (t - alpha) * expected[-1] - sqrt_beta * prev
            sqrt_beta = math.sqrt(beta)
            prev = expected[-1]
            expected.append(nxt / sqrt_beta)
        rows = list(jacobi_orthonormal(40, a, b, t, row0))
        assert len(rows) == 40 and all(np.array_equal(r, e) for r, e in zip(rows, expected))

    def test_factor_carried_by_every_row(self):
        t, f = np.linspace(-1, 1, 7), np.linspace(0.5, 2.0, 7)
        plain = orthonormal_rows(9, 7.0, -0.5, t)
        scaled = np.array(list(jacobi_orthonormal(10, 7.0, -0.5, t, f * plain[0])))
        assert np.allclose(scaled, f * plain, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "n,a,b",
        [(5, 0.0, 0.0), (20, 3.0, 3.0), (100, 7.0, 7.0), (500, 2.0, 2.0),
         (5, 0.0, -0.5), (20, 1.0, -0.5), (100, 7.0, -0.5), (500, 40.0, -0.5), (20, 2.5, 0.5), (100, 0.0, 6.0)],
    )
    def test_against_scipy(self, n, a, b):
        x = np.linspace(-1, 1, 11)
        ref = scipy.special.eval_jacobi(n, a, b, x) / math.sqrt(jacobi_norm(n, a, b))
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.all(np.abs(orthonormal_rows(n, a, b, x)[n] - ref) <= 1e-11 * scale)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=50),
        st.booleans(),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_residual(self, n, delta, symmetric, x):
        # t p_{n-1} = sqrt(beta_n) p_n + alpha_{n-1} p_{n-1} + sqrt(beta_{n-1}) p_{n-2}, with the orthonormal
        # coefficients taken from the classical recurrence c1 P_n = (c2 + c3 t) P_{n-1} - c4 P_{n-2}
        # and P_k = sqrt(h_k) p_k
        a, b = float(delta), float(delta) if symmetric else -0.5
        vals = orthonormal_rows(n, a, b, [x])[:, 0]
        c1 = 2.0 * n * (n + a + b) * (2 * n + a + b - 2.0)
        c2 = (2 * n + a + b - 1.0) * (a * a - b * b)
        c3 = (2 * n + a + b - 1.0) * (2 * n + a + b) * (2 * n + a + b - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2 * n + a + b)
        h = [jacobi_norm(k, a, b) for k in (n - 2, n - 1, n)]
        alpha = -c2 / c3
        sqrt_beta_n = c1 / c3 * math.sqrt(h[2] / h[1])
        sqrt_beta_prev = c4 / c3 * math.sqrt(h[0] / h[1])
        resid = sqrt_beta_n * vals[n] - ((x - alpha) * vals[n - 1] - sqrt_beta_prev * vals[n - 2])
        scale = max(abs(sqrt_beta_n * vals[n]), abs(vals[n - 1]), abs(sqrt_beta_prev * vals[n - 2]), 1.0)
        assert abs(resid) <= 1e-11 * scale


class TestGaussLegendre:
    def test_single_node(self):
        rule = gauss_legendre(1)
        assert np.allclose(rule.nodes, [0.0])
        assert np.allclose(rule.weights, [2.0])

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_weight_sum(self, n):
        assert abs(np.sum(gauss_legendre(n).weights) - 2.0) <= 1e-13

    def test_degree_exactness(self):
        rule = gauss_legendre(3)
        assert abs(rule.integrate(rule.nodes**4) - 2.0 / 5.0) <= 1e-13

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgument):
            gauss_legendre(0)


class TestUnitIntervalRule:
    def test_constant_integrates_to_interval_length(self):
        rule = unit_interval_rule(16)
        assert abs(np.sum(rule.weights) - 1.0) <= 1e-13
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)

    def test_log_singularity(self):
        # integral of -log(1-x) over [0,1] is exactly 1
        rule = unit_interval_rule(24)
        assert abs(rule.integrate(-np.log1p(-rule.nodes)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [24, 32, 224])
    def test_panel_orders_halve_every_two_panels(self, n):
        # n nodes on [0, 1/2] and [1/2, 3/4], then max(8, n >> (k // 2)) on panel k >= 2, panel by panel: the
        # nodes are matched exactly, as near x = 1 a panel spans few doubles and its end nodes round onto its edges
        def orders(m):
            return [m, m] + [max(8, m >> (k // 2)) for k in range(2, 48)]

        for m in (n, 2 * n):
            parts = [panel_rule(k, [panel]) for k, panel in zip(orders(m), UNIT_INTERVAL_PANELS)]
            rule = unit_interval_rule(m)
            assert np.array_equal(rule.nodes, np.concatenate([part.nodes for part in parts]))
            assert np.array_equal(rule.weights, np.concatenate([part.weights for part in parts]))
        # every panel above the floor doubles with the order, so a check of n against 2n refines it
        assert all(b == 2 * a for a, b in zip(orders(n), orders(2 * n)) if a > 8)
        assert unit_interval_rule(n).nodes.size <= 4 * n + 8 * 46


class TestCachedRules:
    def test_repeat_calls_share_one_rule(self):
        assert gauss_legendre(40) is gauss_legendre(40)
        assert unit_interval_rule(32) is unit_interval_rule(32)
        assert unit_panel_rule(32) is unit_panel_rule(32)

    def test_unit_panel_rule_is_one_legendre_panel(self):
        assert np.array_equal(unit_panel_rule(24).nodes, panel_rule(24, [(0.0, 1.0)]).nodes)
        assert np.array_equal(unit_panel_rule(24).weights, panel_rule(24, [(0.0, 1.0)]).weights)

    @pytest.mark.parametrize("make", [lambda: gauss_legendre(7), lambda: unit_interval_rule(32),
                                      lambda: unit_panel_rule(9)])
    def test_rules_are_read_only(self, make):
        rule = make()
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights *= 2.0
        assert abs(np.sum(make().weights) - (2.0 if rule.nodes[0] < 0 else 1.0)) <= 1e-13
