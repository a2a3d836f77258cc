import math
import tracemalloc

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
        assert abs(math.sqrt(F.gaussian_variance_limit(0.5)) - 0.16860133368401137) <= 1e-7

    def test_small_fraction_leading_behavior(self):
        f = 1e-5
        assert abs(math.sqrt(F.gaussian_variance_limit(f)) / (f / 2.0) - 1.0) < 1e-2

    def test_squared_equals_double_sum(self):
        f = 0.3
        total = sum(F.sbar_lk(l, k, f) for l in range(40) for k in range(40))
        assert abs(F.gaussian_variance_limit(f) - total) <= 1e-8


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

    def test_array_call_matches_scalar_calls(self):
        # one log-gamma per index of each array, broadcast to the (i, j) grid
        i, j = np.arange(5)[:, None], 5 + np.arange(7)
        for delta in (0, 3, 17):
            grid = F.s2_closed_form(i, j, delta)
            assert grid.shape == (5, 7)
            for a in range(5):
                for b in range(7):
                    assert grid[a, b] == F.s2_closed_form(a, 5 + b, delta)
        assert isinstance(F.s2_closed_form(0, 1, 0), float)

    def test_array_call_rejects_any_upper_triangle_violation(self):
        with pytest.raises(InvalidArgument):
            F.s2_closed_form(np.array([0, 5]), 5, 0)
        with pytest.raises(InvalidArgument):
            F.s2_closed_form(np.arange(3)[:, None], np.arange(1, 4), 0)


def fsum_variance(N, N_A, columns):
    """math.fsum of s^2_ij over i < N_A and the first `columns` j >= N_A, 16 array rows at a time."""
    n_a = min(N_A, N - N_A)
    j = n_a + np.arange(columns)
    blocks = [F.s2_closed_form(np.arange(r, min(r + 16, n_a))[:, None], j, N - 2 * n_a) for r in range(0, n_a, 16)]
    return math.fsum(np.concatenate([b.ravel() for b in blocks])) if blocks else 0.0


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

    def test_within_the_tail_tolerance_of_an_exact_sum(self):
        # every row is summed until its tail estimate is below VARIANCE_TAIL_TOL / N_A; the oracle is a
        # correctly rounded sum over 4000 columns (20000 at the two large sizes), far past any truncation
        sizes = [(n, n_a, 4000) for n in range(1, 41) for n_a in range(n // 2 + 1)]
        for n, n_a, columns in sizes + [(192, 96, 20000), (256, 128, 20000)]:
            gap = F.variance_finite_N(n, n_a) - fsum_variance(n, n_a, columns)
            assert abs(gap) <= F.VARIANCE_TAIL_TOL, (n, n_a, gap)

    @pytest.mark.parametrize(
        "N, N_A, before",
        # values of the term-by-term series this sum replaced; far rows underflow to 0
        [(1024, 100, 0.0022080649092545137), (400, 3, 1.1693917797103197e-05), (256, 1, 1.911069020206546e-06)],
    )
    def test_underflowing_terms(self, N, N_A, before):
        value = F.variance_finite_N(N, N_A)
        assert value > 0.0
        assert abs(value - before) <= 1e-15

    def test_uneven_row_blocks_give_the_same_sum(self, monkeypatch):
        sizes = [(64, 32), (40, 13), (256, 128)]
        whole = [F.variance_finite_N(n, n_a) for n, n_a in sizes]
        monkeypatch.setattr(F, "_ROW_BLOCK", 7)  # 32 = 4 * 7 + 4, 13 = 7 + 6, 128 = 18 * 7 + 2 rows
        for (n, n_a), value in zip(sizes, whole):
            assert abs(F.variance_finite_N(n, n_a) - value) <= 1e-15

    def test_memory_does_not_grow_with_N(self):
        # rows go in blocks, so the largest array is one block of rows by the columns the block needs
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

    def test_matches_thermo_up_to_order_one(self):
        n, f = 100, 0.3
        assert abs(F.gaussian_thermo(n, f) / n - F.lrv_density(f)) < 0.7 / n
