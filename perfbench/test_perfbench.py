"""Tests of the benchmark's own code: generators, checks and span arithmetic.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = workloads.generate(workload, 7, 0)
    assert a == workloads.generate(workload, 7, 0)
    assert workloads.digest(a) == workloads.digest(workloads.generate(workload, 7, 0))
    assert workloads.digest(a) != workloads.digest(workloads.generate(workload, 8, 0))
    assert workloads.digest(a) != workloads.digest(workloads.generate(workload, 7, 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_times_at_least_100_requests_in_a_fixed_number_of_passes(workload):
    passes = workloads.pass_count(workload, RUN_SECONDS)
    assert len(workloads.generate(workload, 7, 0)) * passes >= 100
    assert workloads.pass_count(workload, RUN_SECONDS, traced=True) == max(1, round(passes / 3))


def test_mc_mix_covers_every_ensemble_and_full_batch():
    reqs = workloads.generate("mc", 3, 0)
    argvs = [r["argv"] for r in reqs]
    assert sum(a[:7] == workloads.MC_FULL_BATCH_DIST for a in argvs) == 1
    for a in argvs:
        opts = dict(zip(a[1::2], a[2::2]))
        assert 1 <= int(opts["--NA"]) <= int(opts["--N"]) // 2
    ensembles = {dict(zip(a[1::2], a[2::2])).get("--ensemble") for a in argvs if a[0] == "page-curve"}
    assert ensembles == {"gaussian", "hamiltonian", "number-conserving", "haar-pure"}


def test_stratified_draws_stay_in_range_and_cover_it():
    import random

    values = workloads.stratified(random.Random(0), 1, 8, 8)
    assert sorted(values) == list(range(1, 9))
    pairs = workloads.sized(random.Random(0), 16, 192, 35)
    assert all(16 <= n <= 192 and 1 <= k <= n // 2 for n, k in pairs)
    assert len({k * 35 // (n // 2 + 1) for n, k in pairs}) > 20  # N_A fractions spread out


def _curve_csv(N, k, value, std_error, samples=1000):
    return (
        "# gaussian-page v1\nN,N_A,f,value,std,std_error,samples,mode,ensemble\n"
        f"{N},{k},{k / N},{value!r},0.5,{std_error!r},{samples},mc,gaussian\n"
    )


def test_checker_flags_mc_mean_shifted_by_ten_standard_errors():
    N, k, se = 16, 4, 2e-3
    argv = ["page-curve", "--mode", "mc", "--N", str(N), "--NA", str(k), "--samples", "1000"]
    ref = checks.gaussian_reference(N, k)
    checks.check_cli(argv, 0, _curve_csv(N, k, ref + 1.0 * se, se))
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(argv, 0, _curve_csv(N, k, ref + 10.0 * se, se))
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(argv, 3, _curve_csv(N, k, ref, se))


def test_references_match_hand_values():
    # psi(5) - psi(3) - 1/4 = 1/3 and, with psi(n+1) = psi(n) + 1/n, the
    # Gaussian closed form at N=2, N_A=1 reduces to 1/2.
    assert math.isclose(checks.page_reference(2, 1), 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(checks.gaussian_reference(2, 1), 0.5, rel_tol=1e-12)


def test_self_time_subtracts_direct_children():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["rmt.build_kernel_ctx", 1.0, 4.0, 0, 0, None],
        ["rmt.wavefunctions", 5.0, 9.0, 0, 0, {"evals": 12}],
        ["special.jacobi_all", 6.0, 7.0, 2, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    m = tracing.per_layer(spans, passes=2)
    assert m["cli.self_ms"] == pytest.approx(1500.0)
    assert m["rmt.self_ms"] == pytest.approx(3000.0)
    assert m["special.jacobi_all.ms"] == pytest.approx(500.0)
    assert m["rmt.wavefunctions.evals"] == 6.0
    assert m["rmt.wavefunctions.calls"] == 0.5
    assert m["linalg.self_ms"] == 0.0
    assert set(m) == set(tracing.PER_LAYER)


def test_tracer_wraps_the_attribute_callers_use_and_restores_it():
    sys.path.insert(0, str(SRC))
    import numpy as np
    from gausspage import ensembles, linalg

    original = linalg.haar_orthogonal_batch
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ensembles.haar_orthogonal_batch is linalg.haar_orthogonal_batch is not original
        ensembles.gaussian_entropies(4, 2, 3, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert ensembles.haar_orthogonal_batch is original and linalg.haar_orthogonal_batch is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "ensembles.gaussian_entropies"
    assert "linalg.haar_orthogonal_batch" in names and "gstates.mode_entropy" in names
    m = tracing.per_layer(tracer.spans, passes=1)
    assert m["linalg.haar_orthogonal_batch.bytes"] == 3 * 8 * 8 * 8
    assert m["ensembles.gaussian.us_per_sample.small"] > 0.0


def test_slowness_is_the_geometric_mean_of_part_ratios():
    assert run.slowness(dict(run.PROBE_REF_S)) == pytest.approx(1.0)
    doubled = {k: 2.0 * v for k, v in run.PROBE_REF_S.items()}
    assert run.slowness(doubled) == pytest.approx(2.0)
    one_part = dict(run.PROBE_REF_S, batch=8.0 * run.PROBE_REF_S["batch"])
    assert run.slowness(one_part) == pytest.approx(2.0)


def test_scale_divides_each_request_by_the_slowness_around_it():
    # probes before requests 0, 2 and 3: requests 0-1 lie between probes 0
    # and 1, request 2 between probes 1 and 2
    scaled = run.scale([1.0, 2.0, 3.0], [0, 2, 3], [1.0, 3.0, 1.0])
    assert scaled == pytest.approx([0.5, 1.0, 1.5])
    with pytest.raises(ValueError):
        run.scale([1.0, 2.0], [0, 1], [1.0, 1.0])
