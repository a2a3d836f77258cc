import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from gausspage.linalg import InvalidArgument
from gausspage.special import (
    digamma,
    gauss_legendre,
    jacobi_all,
    unit_interval_rule,
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


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_all(0, 3.0, 7.0, [-0.2])[0, 0] == 1.0

    def test_legendre_endpoint(self):
        assert abs(jacobi_all(2, 0.0, 0.0, [1.0])[2, 0] - 1.0) <= 1e-12

    def test_degree_one_explicit(self):
        # (a-b)/2 + (a+b+2) x / 2 at a=b=2, x=0.3
        assert abs(jacobi_all(1, 2.0, 2.0, [0.3])[1, 0] - 0.9) <= 1e-12

    @pytest.mark.parametrize("n,a,b", [(5, 0.0, 0.0), (20, 3.0, 3.0), (100, 7.0, 7.0), (500, 2.0, 2.0)])
    def test_against_scipy(self, n, a, b):
        x = np.linspace(-1, 1, 11)
        ref = scipy.special.eval_jacobi(n, a, b, x)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.all(np.abs(jacobi_all(n, a, b, x)[n] - ref) <= 1e-11 * scale)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_residual(self, n, delta, x):
        a = b = float(delta)
        vals = jacobi_all(n, a, b, np.array([x]))[:, 0]
        c1 = 2.0 * n * (n + a + b) * (2 * n + a + b - 2.0)
        c3 = (2 * n + a + b - 1.0) * (2 * n + a + b) * (2 * n + a + b - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2 * n + a + b)
        resid = c1 * vals[n] - (c3 * x * vals[n - 1] - c4 * vals[n - 2])
        scale = max(abs(c1 * vals[n]), abs(c3 * vals[n - 1]), 1.0)
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


class TestCachedRules:
    def test_repeat_calls_share_one_rule(self):
        assert gauss_legendre(40) is gauss_legendre(40)
        assert unit_interval_rule(32) is unit_interval_rule(32)

    @pytest.mark.parametrize("make", [lambda: gauss_legendre(7), lambda: unit_interval_rule(32)])
    def test_rules_are_read_only(self, make):
        rule = make()
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights *= 2.0
        assert abs(np.sum(make().weights) - (2.0 if rule.nodes[0] < 0 else 1.0)) <= 1e-13
