"""Acceptance suite: one test per criterion, each printing a pass line.

Monte Carlo checks use fixed seeds and the sample counts stated in the
criteria; "3 standard errors" always refers to the standard error of the
Monte Carlo estimator being compared.
"""

import math
import time

import numpy as np
import pytest

from gausspage.linalg import RngStream
from gausspage import ensembles, formulas, rmt, stats
from reference import (
    haar_orthogonal_stack,
    hamiltonian_dense_entropies,
    ks_one_sample_critical,
    ks_statistic,
    ks_statistic_one_sample,
    ks_two_sample_critical,
)


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_exact_anchors():
    t0 = time.perf_counter()
    g = formulas.gaussian_average_exact(2, 1)
    p = formulas.page_average_exact(2, 1)
    elapsed = time.perf_counter() - t0
    assert abs(g - 0.5) <= 1e-12
    assert abs(p - 1.0 / 3.0) <= 1e-12
    assert elapsed < 1e-3
    _report(1, f"<S>_G(2,1)={g:.15f}, <S>(2,1)={p:.15f} ({elapsed*1e6:.0f} us)")


def test_criterion_2_formula_quadrature_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 41):
        for n_a in range(1, n // 2 + 1):
            ctx = rmt.build_kernel_ctx(n_a, n - 2 * n_a)
            quad = rmt.average_entropy_quadrature(ctx)
            exact = formulas.gaussian_average_exact(n, n_a)
            worst = max(worst, abs(quad - exact))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    _report(2, f"max |quadrature - closed form| = {worst:.2e} over N<=40 ({elapsed:.1f} s)")


def test_criterion_3_sampler_formula_equivalence():
    t0 = time.perf_counter()
    details = []
    for n, n_a in [(4, 2), (8, 4), (16, 8)]:
        est = stats.mc_estimate(
            lambda gen, count: ensembles.gaussian_entropies(n, n_a, count, gen),
            100_000,
            seed=1001,
            )
        exact = formulas.gaussian_average_exact(n, n_a)
        assert abs(est.mean - exact) <= 3 * est.std_error
        details.append(f"({n},{n_a}): |dm|={abs(est.mean - exact):.1e} se={est.std_error:.1e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, "; ".join(details) + f" ({elapsed:.1f} s)")


def test_criterion_4_hamiltonian_eigenstate_equivalence():
    t0 = time.perf_counter()
    n_samples = 100_000
    est = stats.mc_estimate(
        lambda gen, count: ensembles.hamiltonian_eigenstate_entropies(8, 4, count, gen),
        n_samples,
        seed=1002,
    )
    exact = formulas.gaussian_average_exact(8, 4)
    assert abs(est.mean - exact) <= 3 * est.std_error
    # the sampler draws the Gaussian CS model; its law against dense eigenstates of 2N x 2N random h
    a = hamiltonian_dense_entropies(8, 4, n_samples, RngStream(1003, 0).generator())
    b = ensembles.hamiltonian_eigenstate_entropies(8, 4, n_samples, RngStream(1004, 0).generator())
    ks = ks_statistic(a, b)
    crit = ks_two_sample_critical(n_samples, n_samples)
    assert ks < crit
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(4, f"|dm|={abs(est.mean - exact):.1e} se={est.std_error:.1e}, KS={ks:.4f} < {crit:.4f} ({elapsed:.1f} s)")


def test_criterion_5_variance_chain():
    t0 = time.perf_counter()
    finite = formulas.variance_finite_N(8, 4)
    est = stats.mc_estimate(
        lambda gen, count: ensembles.gaussian_entropies(8, 4, count, gen),
        1_000_000,
        seed=1005,
    )
    var_se = est.variance_std_error()
    assert abs(est.variance - finite) <= 3 * var_se
    target = (0.75 - math.log(2.0)) / 2.0
    gaps = []
    for n in (32, 64, 128, 256):
        gaps.append(formulas.variance_finite_N(n, n // 2) - target)
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.03 * target
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        5,
        f"finite-N {finite:.6f} vs MC {est.variance:.6f} (3se={3*var_se:.1e}); "
        f"f=1/2 gap sequence -> {gaps[-1]/target:.2%} of limit ({elapsed:.1f} s)",
    )


def test_criterion_6_page_side_validation():
    t0 = time.perf_counter()
    est = stats.mc_estimate(
        lambda gen, count: ensembles.haar_pure_entropies(10, 5, count, gen),
        10_000,
        seed=1006,
    )
    exact = formulas.page_average_exact(10, 5)
    assert abs(est.mean - exact) <= 3 * est.std_error
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"|dm|={abs(est.mean - exact):.1e} se={est.std_error:.1e} ({elapsed:.1f} s)")


def test_criterion_7_thermodynamic_scaling():
    t0 = time.perf_counter()
    g100 = formulas.gaussian_average_exact(100, 50) - formulas.gaussian_thermo(100, 0.5)
    g200 = formulas.gaussian_average_exact(200, 100) - formulas.gaussian_thermo(200, 0.5)
    assert g100 > 0 and g200 > 0
    ratio = g100 / g200
    assert 1.6 <= ratio <= 2.4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, f"remainder ratio N=100/N=200 = {ratio:.3f} (1/N decay) ({elapsed*1e3:.0f} ms)")


def test_criterion_8_number_conserving_limit():
    t0 = time.perf_counter()
    gen = RngStream(1007, 0).generator()
    vals = ensembles.number_conserving_entropies(400, 200, 200, gen) / 400.0
    mean = vals.mean()
    assert abs(mean - 0.19315) <= 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, f"entropy density {mean:.5f} vs log2 - 1/2 = 0.19315 ({elapsed:.1f} s)")


def test_criterion_9_kernel_property_suite():
    t0 = time.perf_counter()
    for n_a, delta in [(1, 0), (2, 1), (5, 5), (20, 20)]:
        ctx = rmt.build_kernel_ctx(n_a, delta)
        psi = rmt.wavefunctions(ctx, ctx.quadrature.nodes)
        gram = (psi * ctx.quadrature.weights) @ psi.T
        assert np.max(np.abs(gram - np.eye(n_a))) <= 1e-8
        # reproducing property on a fixed off-diagonal pair
        kz_x = np.atleast_1d(rmt.kernel(ctx, ctx.quadrature.nodes, np.array([0.3])))[:, 0]
        kz_y = np.atleast_1d(rmt.kernel(ctx, ctx.quadrature.nodes, np.array([0.8])))[:, 0]
        repro = float(np.dot(ctx.quadrature.weights, kz_x * kz_y))
        assert abs(repro - rmt.kernel(ctx, 0.3, 0.8)) <= 1e-8
        rho = rmt.level_density(ctx, ctx.quadrature.nodes)
        assert abs(float(np.dot(ctx.quadrature.weights, rho)) - 1.0) <= 1e-9
    # MC spectral histogram vs rho at N=8, N_A=2
    from gausspage.gstates import reference_structure

    n = 100_000
    gen = RngStream(1008, 0).generator()
    j0 = reference_structure(8)
    m = haar_orthogonal_stack(16, n, gen)
    j = m @ j0 @ np.swapaxes(m, -2, -1)
    idx = [0, 1, 8, 9]
    block = j[:, idx][:, :, idx]
    ev = np.linalg.eigvalsh(np.swapaxes(block, -2, -1) @ block)
    x = np.sqrt(np.clip(ev, 0.0, 1.0))
    xs = np.sort((0.5 * (x[:, 0::2] + x[:, 1::2])).ravel())
    ctx = rmt.build_kernel_ctx(2, 4)
    ks = ks_statistic_one_sample(xs, rmt.density_cdf(ctx, xs))
    crit = ks_one_sample_critical(xs.size)
    assert ks < crit
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, f"kernel identities ok; spectral KS={ks:.4f} < {crit:.4f} ({elapsed:.1f} s)")


def test_criterion_10_fig2_reproduction():
    t0 = time.perf_counter()
    n_samples = 20_000
    gen_g = RngStream(1009, 0).generator()
    gaussian = ensembles.gaussian_entropies(10, 5, n_samples, gen_g)
    exact = formulas.gaussian_average_exact(10, 5)
    se = gaussian.std(ddof=1) / math.sqrt(n_samples)
    assert abs(gaussian.mean() - exact) <= 3 * se
    predicted_std = math.sqrt(formulas.variance_finite_N(10, 5))
    assert abs(gaussian.std(ddof=1) - predicted_std) <= 0.10 * predicted_std
    gen_p = RngStream(1010, 0).generator()
    pure = ensembles.haar_pure_entropies(10, 5, n_samples, gen_p)
    assert pure.std(ddof=1) * 3.0 <= gaussian.std(ddof=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(
        10,
        f"gaussian std {gaussian.std(ddof=1):.4f} vs predicted {predicted_std:.4f}; "
        f"haar-pure std {pure.std(ddof=1):.4f} is {gaussian.std(ddof=1)/pure.std(ddof=1):.1f}x narrower ({elapsed:.1f} s)",
    )
