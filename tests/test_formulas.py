import math

import numpy as np
import pytest

from gausspage.linalg import InvalidArgument
from gausspage import formulas as F


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
        assert abs(F.gaussian_std_limit(0.5) - 0.16860133368401137) <= 1e-7

    def test_small_fraction_leading_behavior(self):
        f = 1e-5
        assert abs(F.gaussian_std_limit(f) / (f / 2.0) - 1.0) < 1e-2

    def test_squared_equals_double_sum(self):
        f = 0.3
        total = sum(F.sbar_lk(l, k, f) for l in range(40) for k in range(40))
        assert abs(F.gaussian_std_limit(f) ** 2 - total) <= 1e-8


class TestSbar:
    def test_leading_summand(self):
        assert abs(F.sbar_lk(0, 0, 0.5) - 1.0 / 36.0) <= 1e-15

    def test_fig3_leading_coefficient(self):
        # |sbar_00| = (3 - 4f) f / (6 (1 - f))
        for f in (0.1, 0.25, 0.4, 0.5):
            expected = ((3.0 - 4.0 * f) * f / (6.0 * (1.0 - f))) ** 2
            assert abs(F.sbar_lk(0, 0, f) - expected) <= 1e-14

    def test_geometric_decay_ratio(self):
        f = 0.25
        target = (1.0 / f - 1.0) ** -2
        # the prefactor decays like a power of k, so the ratio converges slowly
        ratios = [F.sbar_lk(0, k + 1, f) / F.sbar_lk(0, k, f) for k in range(150, 154)]
        for r in ratios:
            assert abs(r - target) < 0.05 * target

    def test_double_sum_closed_form(self):
        f = 0.3
        total = sum(F.sbar_lk(l, k, f) for l in range(60) for k in range(60))
        assert abs(total - 0.5 * (f + f * f + math.log(1.0 - f))) <= 1e-8


class TestS2ClosedForm:
    def test_rejects_upper_triangle_violation(self):
        with pytest.raises(InvalidArgument):
            F.s2_closed_form(3, 3, 0)

    def test_monotone_tail(self):
        for i in range(4):
            vals = [F.s2_closed_form(i, j, 0) for j in range(i + 2, i + 12)]
            assert np.all(np.diff(vals) < 0)

    def test_limit_consistency(self):
        # s2(N_A-1, N_A) -> sbar(0,0,f) at f = 1/4, N = 400
        n_a = 100
        val = F.s2_closed_form(n_a - 1, n_a, 400 - 2 * n_a)
        assert abs(val - F.sbar_lk(0, 0, 0.25)) <= 0.02 * F.sbar_lk(0, 0, 0.25)


class TestLrvDensity:
    def test_half_fraction(self):
        assert abs(F.lrv_density(0.5) - (math.log(2.0) - 0.5)) <= 1e-15

    def test_zero(self):
        assert F.lrv_density(0.0) == 0.0

    def test_matches_thermo_up_to_order_one(self):
        n, f = 100, 0.3
        assert abs(F.gaussian_thermo(n, f) / n - F.lrv_density(f)) < 0.7 / n
