import math
import timeit
import tracemalloc

import mpmath
import numpy as np
import pytest

from gausspage.linalg import InvalidArgument
from gausspage import cli, formulas as F
from reference import s2_closed_form, sbar_lk

# N_A in {1, 2, 3, 7, 64, N/8, N/4, N/2}, for N from 2 to 10^8
MPMATH_GRID = [(n, n_a) for n in (2, 3, 5, 8, 13, 40, 64, 100, 256, 1000, 10**4, 10**5, 10**6, 10**7, 10**8)
               for n_a in sorted({1, 2, 3, 7, 64, n // 8, n // 4, n // 2}) if 1 <= n_a <= n // 2]


class TestPageAverage:
    def test_smallest_case(self):
        assert abs(F.page_average_exact(2, 1) - 1.0 / 3.0) <= 1e-12

    def test_empty_subsystem(self):
        assert F.page_average_exact(12, 0) == 0.0

    def test_rejects_majority_subsystem(self):
        with pytest.raises(InvalidArgument):
            F.page_average_exact(4, 3)

    def test_large_n_branch_continuity(self):
        # the asymptotic branch takes over smoothly around N = 50
        a = F.page_average_exact(50, 25)
        b = F.page_average_exact(52, 26)
        assert 0 < b - a < 2 * math.log(2.0)

    def test_monotone_in_subsystem_size(self):
        vals = [F.page_average_exact(20, k) for k in range(11)]
        assert np.all(np.diff(vals) >= 0)


class TestPageThermo:
    def test_half_fraction(self):
        assert abs(F.page_thermo(20, 0.5) - (10 * math.log(2.0) - 0.5)) <= 1e-12

    def test_correction_suppressed(self):
        lead = 0.25 * 400 * math.log(2.0)
        assert abs(F.page_thermo(400, 0.25) - lead) < 1e-12 * lead

    def test_close_to_exact(self):
        assert abs(F.page_average_exact(20, 10) - F.page_thermo(20, 0.5)) < 0.01

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgument):
            F.page_thermo(10, 0.6)


class TestPageStd:
    def test_half_fraction(self):
        assert F.page_std_thermo(10, 0.5) == 2.0**-6

    def test_quarter_fraction(self):
        assert F.page_std_thermo(20, 0.25) == 2.0**-15.5

    def test_positive(self):
        assert F.page_std_thermo(100, 0.3) > 0


class TestGaussianAverage:
    def test_smallest_case(self):
        assert abs(F.gaussian_average_exact(2, 1) - 0.5) <= 1e-12

    def test_empty_and_full(self):
        assert F.gaussian_average_exact(9, 0) == 0.0
        assert F.gaussian_average_exact(9, 9) == 0.0

    def test_rejects_oversized(self):
        with pytest.raises(InvalidArgument):
            F.gaussian_average_exact(4, 5)

    def test_complement_symmetry(self):
        # S_A = S_B for pure states; the digamma form alone holds for N_A <= N/2
        for N in (3, 4, 9, 40):
            for n_a in range(N + 1):
                assert F.gaussian_average_exact(N, n_a) == F.gaussian_average_exact(N, N - n_a)

    def test_bounded_by_max_entropy(self):
        for N in (2, 8, 32, 128):
            for n_a in range(1, N // 2 + 1):
                v = F.gaussian_average_exact(N, n_a)
                assert 0.0 < v < n_a * math.log(2.0)

    def test_monotone_in_subsystem_size(self):
        vals = [F.gaussian_average_exact(40, k) for k in range(21)]
        assert np.all(np.diff(vals) >= 0)

    def test_against_mpmath(self):
        # the digamma differences leave no cancellation of digamma values of order log N
        with mpmath.workdps(40):
            for n, n_a in MPMATH_GRID:
                N, k, psi = mpmath.mpf(n), mpmath.mpf(n_a), (lambda x: mpmath.psi(0, x))
                exact = ((N - 0.5) * psi(2 * N) + (0.5 + k - N) * psi(2 * N - 2 * k) + (0.25 - k) * psi(N)
                         - psi(N - k) / 4 - k)
                value = F.gaussian_average_exact(n, n_a)
                assert float(abs(value - exact) / exact) <= 1e-14, (n, n_a, value)

    def test_crossover_with_page(self):
        # small systems: Gaussian average above Page; large: below
        assert F.gaussian_average_exact(2, 1) > F.page_average_exact(2, 1)
        assert F.gaussian_average_exact(40, 20) < F.page_average_exact(40, 20)


class TestGaussianThermo:
    def test_leading_density_at_half(self):
        per_mode = F.gaussian_thermo(10_000, 0.5) / 10_000
        assert abs(per_mode - (math.log(2.0) - 0.5)) < 1e-4

    def test_vanishes_at_zero_fraction(self):
        assert abs(F.gaussian_thermo(100, 1e-12)) < 1e-9

    def test_remainder_scaling(self):
        # O(1/N) remainder halves when N doubles
        r100 = F.gaussian_average_exact(100, 50) - F.gaussian_thermo(100, 0.5)
        r200 = F.gaussian_average_exact(200, 100) - F.gaussian_thermo(200, 0.5)
        assert 0.8 * 2 <= r100 / r200 <= 1.2 * 2

    def test_approach_from_above(self):
        gaps = [F.gaussian_average_exact(n, n // 2) - F.gaussian_thermo(n, 0.5) for n in (8, 16, 32, 64, 128)]
        assert all(g > 0 for g in gaps)
        assert np.all(np.diff(gaps) < 0)


class TestGaussianStdLimit:
    def test_half_fraction(self):
        assert abs(math.sqrt(F.gaussian_variance_limit(0.5)) - 0.16860133368401137) <= 1e-7

    def test_small_fraction_leading_behavior(self):
        f = 1e-5
        assert abs(math.sqrt(F.gaussian_variance_limit(f)) / (f / 2.0) - 1.0) < 1e-2

    def test_series_below_two_to_the_minus_ten_against_mpmath(self):
        # f^2/4 - sum_(j>=3) f^j/(2j) where the closed form cancels: at f = 1e-8 it is negative
        with mpmath.workdps(50):
            for f in np.geomspace(1e-12, 2.0**-10, 60, endpoint=False):
                fm = mpmath.mpf(f)
                exact = (fm + fm * fm + mpmath.log1p(-fm)) / 2
                assert abs(F.gaussian_variance_limit(f) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("f", [2.0**-10, 1.0 / 256, 1.0 / 192, 0.3, 0.5])
    def test_closed_form_as_written_from_two_to_the_minus_ten(self, f):
        assert F.gaussian_variance_limit(f) == 0.5 * (f + f * f + math.log(1.0 - f))

    def test_squared_equals_double_sum(self):
        f = 0.3
        total = sum(sbar_lk(l, k, f) for l in range(40) for k in range(40))
        assert abs(F.gaussian_variance_limit(f) - total) <= 1e-8


class TestSbar:
    def test_leading_summand(self):
        assert abs(sbar_lk(0, 0, 0.5) - 1.0 / 36.0) <= 1e-15

    def test_fig3_leading_coefficient(self):
        # |sbar_00| = (3 - 4f) f / (6 (1 - f))
        for f in (0.1, 0.25, 0.4, 0.5):
            expected = ((3.0 - 4.0 * f) * f / (6.0 * (1.0 - f))) ** 2
            assert abs(sbar_lk(0, 0, f) - expected) <= 1e-14

    def test_geometric_decay_ratio(self):
        f = 0.25
        target = (1.0 / f - 1.0) ** -2
        # the prefactor decays like a power of k, so the ratio converges slowly
        ratios = [sbar_lk(0, k + 1, f) / sbar_lk(0, k, f) for k in range(150, 154)]
        for r in ratios:
            assert abs(r - target) < 0.05 * target

    def test_double_sum_closed_form(self):
        f = 0.3
        total = sum(sbar_lk(l, k, f) for l in range(60) for k in range(60))
        assert abs(total - 0.5 * (f + f * f + math.log(1.0 - f))) <= 1e-8


class TestS2ClosedForm:
    def test_rejects_upper_triangle_violation(self):
        with pytest.raises(InvalidArgument):
            s2_closed_form(3, 3, 0)

    def test_monotone_tail(self):
        for i in range(4):
            vals = [s2_closed_form(i, j, 0) for j in range(i + 2, i + 12)]
            assert np.all(np.diff(vals) < 0)

    def test_limit_consistency(self):
        # s2(N_A-1, N_A) -> sbar(0,0,f) at f = 1/4, N = 400
        n_a = 100
        val = s2_closed_form(n_a - 1, n_a, 400 - 2 * n_a)
        assert abs(val - sbar_lk(0, 0, 0.25)) <= 0.02 * sbar_lk(0, 0, 0.25)

    def test_array_call_matches_scalar_calls(self):
        # one log-gamma per index of each array, broadcast to the (i, j) grid
        i, j = np.arange(5)[:, None], 5 + np.arange(7)
        for delta in (0, 3, 17):
            grid = s2_closed_form(i, j, delta)
            assert grid.shape == (5, 7)
            for a in range(5):
                for b in range(7):
                    assert grid[a, b] == s2_closed_form(a, 5 + b, delta)
        assert isinstance(s2_closed_form(0, 1, 0), float)

    def test_array_call_rejects_any_upper_triangle_violation(self):
        with pytest.raises(InvalidArgument):
            s2_closed_form(np.array([0, 5]), 5, 0)
        with pytest.raises(InvalidArgument):
            s2_closed_form(np.arange(3)[:, None], np.arange(1, 4), 0)


def fsum_variance(N, N_A, columns):
    """math.fsum of s^2_ij over i < N_A and the first `columns` j >= N_A, 16 array rows at a time."""
    n_a = min(N_A, N - N_A)
    j = n_a + np.arange(columns)
    blocks = [s2_closed_form(np.arange(r, min(r + 16, n_a))[:, None], j, N - 2 * n_a) for r in range(0, n_a, 16)]
    return math.fsum(np.concatenate([b.ravel() for b in blocks])) if blocks else 0.0


def mp_variance(N, N_A, dps=40):
    """The closed form of ``variance_finite_N`` in dps-digit mpmath, from the digamma and trigamma values themselves."""
    with mpmath.workdps(dps):
        n, k = mpmath.mpf(N), mpmath.mpf(min(N_A, N - N_A))
        psi, psi1 = (lambda x: mpmath.psi(0, x)), (lambda x: mpmath.psi(1, x))
        return (-(n - 0.5) * psi1(2 * n) + (n - k - 0.5) * psi1(2 * n - 2 * k)
                + (k / 2 - mpmath.mpf(1) / 8 + k * (k - 0.5) / (2 * n - 1)) * psi1(n) + psi1(n - k) / 8
                - (psi(2 * n) - psi(2 * n - 2 * k)) / 2)


@pytest.mark.parametrize("function", [F.gaussian_average_exact, F.variance_finite_N])
@pytest.mark.parametrize("N", [0, -3])
def test_no_modes_are_refused_as_the_cli_refuses_them(function, N, capsys):
    # checked in formulas, not left to special, whose helpers the caller never called
    with pytest.raises(InvalidArgument) as refused:
        function(N, 0)
    assert cli.main(["variance", "--N", str(N), "--NA", "0", "--samples", "0"]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"error: {refused.value}\n" == f"error: need N >= 1, got {N}\n"


class TestVariance:
    def test_non_negative(self):
        for n_a, delta in [(1, 0), (2, 3), (5, 0)]:
            assert F.variance_finite_N(2 * n_a + delta, n_a) >= 0.0

    def test_limit_sequence(self):
        target = (0.75 - math.log(2.0)) / 2.0
        gaps = []
        for n in (32, 64, 128, 256):
            gaps.append(F.variance_finite_N(n, n // 2) - target)
        gaps = np.array(gaps)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 0.03 * target

    def test_trivial_bipartitions_and_complement(self):
        for n in (1, 2, 7, 12):
            assert F.variance_finite_N(n, 0) == F.variance_finite_N(n, n) == 0.0
            for n_a in range(n + 1):
                assert F.variance_finite_N(n, n_a) == F.variance_finite_N(n, n - n_a)
        for n, n_a in ((4, -1), (4, 5)):
            with pytest.raises(InvalidArgument):
                F.variance_finite_N(n, n_a)

    def test_within_1e_13_of_an_exact_sum_of_the_series(self):
        # the closed form against a correctly rounded sum of the series of s^2_ij over 4000 columns (20000 at the
        # two large sizes), whose terms are below 1e-30 by then
        sizes = [(n, n_a, 4000) for n in range(1, 41) for n_a in range(n // 2 + 1)]
        for n, n_a, columns in sizes + [(192, 96, 20000), (256, 128, 20000)]:
            gap = F.variance_finite_N(n, n_a) - fsum_variance(n, n_a, columns)
            assert abs(gap) <= 1e-13, (n, n_a, gap)

    @pytest.mark.parametrize("N, N_A", [(1024, 100), (400, 3), (256, 1)])
    def test_underflowing_terms(self, N, N_A):
        # sizes where the far terms s^2_ij of the series underflow to 0
        value = F.variance_finite_N(N, N_A)
        assert value > 0.0
        assert abs(value - float(mp_variance(N, N_A))) <= 1e-15

    def test_against_mpmath(self):
        # within 1e-15 everywhere; the first and last of the summed differences are both near N_A/(2N), so the
        # relative error grows like N/N_A and is held to 1e-8 at N <= 10^6 only
        for n, n_a in MPMATH_GRID:
            value, exact = F.variance_finite_N(n, n_a), mp_variance(n, n_a)
            assert abs(value - float(exact)) <= 1e-15, (n, n_a, value)
            if n <= 10**6:
                assert float(abs(value - exact) / exact) <= 1e-8, (n, n_a, value)

    @pytest.mark.parametrize("N", [int(n) for n in np.geomspace(10, 10**12, 12).round()])
    def test_full_relative_precision_where_N_A_is_small(self, N):
        # the two differences near N_A/(2N) are summed as one, so no relative error grows like N/N_A: 1e-13
        # of 60-digit mpmath (the terms cancel by up to 24 digits at N = 10^12) at log-spaced N_A up to N/2
        for n_a in sorted({int(k) for k in np.geomspace(1, N // 2, 10).round()}):
            value, exact = F.variance_finite_N(N, n_a), mp_variance(N, n_a, dps=60)
            assert float(abs(value - exact) / exact) <= 1e-13, (N, n_a, value)

    def test_cost_does_not_grow_with_N_A(self):
        # a handful of digamma and trigamma differences, at any N and N_A: well under 1 ms a call
        best = min(timeit.repeat(lambda: F.variance_finite_N(10**8, 5 * 10**7), number=100, repeat=5)) / 100
        assert best < 1e-3, best

    def test_memory_does_not_grow_with_N(self):
        # a closed form: no array at all
        peaks = []
        for n in (8192, 16384):
            tracemalloc.start()
            try:
                F.variance_finite_N(n, n // 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestLrvDensity:
    def test_half_fraction(self):
        assert abs(F.lrv_density(0.5) - (math.log(2.0) - 0.5)) <= 1e-15

    def test_zero(self):
        assert F.lrv_density(0.0) == 0.0

    @pytest.mark.parametrize("f", [1e-12, 1e-8, 1e-5, 1e-3, 0.1, 0.5])
    def test_log1p_keeps_relative_precision_against_mpmath(self, f):
        # (f - 1) log(1 - f) through log1p(-f); at N = 10^8, N_A = 1 log(1 - f) lost 7e-9 relative
        with mpmath.workdps(50):
            fm = mpmath.mpf(f)
            density = (mpmath.log(2) - 1) * fm + (fm - 1) * mpmath.log1p(-fm)
            assert abs(F.lrv_density(f) - density) <= 1e-14 * density
            for n in (100, 10**8, 10**12):
                thermo = n * density + fm / 2 + mpmath.log1p(-fm) / 4
                assert abs(F.gaussian_thermo(n, f) - thermo) <= 1e-14 * abs(thermo)

    def test_matches_thermo_up_to_order_one(self):
        n, f = 100, 0.3
        assert abs(F.gaussian_thermo(n, f) / n - F.lrv_density(f)) < 0.7 / n
