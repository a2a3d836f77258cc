import importlib.util
from pathlib import Path

import pytest

BENCH_PY = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "req_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "score", "unit": "count", "better": "higher", "bound": 0.1},
    ]
}


def bench_file(values):
    return {"commit": "x", "metrics": {name: {"value": v, "unit": ""} for name, v in values.items()}}


def test_compare_flags_only_bounded_moves_in_the_worse_direction(bench):
    old = bench_file({
        "mc.wall_s": 4.0, "analytic.wall_s": 1.0, "state-algebra.wall_s": 1.0, "mc.req_p50_ms": 10.0,
        "mc.score": 100.0, "analytic.score": 100.0, "mc.failed": 0, "analytic.failed": 2,
        "samplers.gaussian.8x4.us_per_sample": 20.0, "tier1.seconds": 30.0, "only.old": 1.0,
    })
    new = bench_file({
        "mc.wall_s": 5.2,  # +30%, bound 25%: worse
        "analytic.wall_s": 1.2,  # +20%, within the bound
        "state-algebra.wall_s": 0.7,  # better
        "mc.req_p50_ms": 12.1,  # +21%, bound 20%: worse
        "mc.score": 89.0,  # -11% where higher is better, bound 10%: worse
        "analytic.score": 200.0,  # better
        "mc.failed": 1,  # any rise in failures is worse
        "analytic.failed": 2,
        "samplers.gaussian.8x4.us_per_sample": 60.0,  # no bound: printed only
        "tier1.seconds": 90.0,  # no bound: printed only
        "only.new": 1.0,
    })
    rows = {r["name"]: r for r in bench.compare(old, new, SPEC)}
    assert set(rows) == set(old["metrics"]) - {"only.old"}
    assert {name for name, r in rows.items() if r["flagged"]} == {
        "mc.wall_s", "mc.req_p50_ms", "mc.score", "mc.failed"
    }
    assert rows["mc.wall_s"]["ratio"] == pytest.approx(1.3)
    assert rows["mc.failed"]["ratio"] == float("inf")
    assert rows["analytic.failed"]["ratio"] == 1.0
    assert rows["samplers.gaussian.8x4.us_per_sample"]["bound"] is None


def test_compare_reads_the_bounds_of_the_benchmark(bench):
    spec = bench._load(bench.ROOT / "BENCHMARK.json")
    old = bench_file({f"mc.{m['name']}": 1.0 for m in spec["end_to_end"]})
    just_inside = bench_file({f"mc.{m['name']}": 1.0 + 0.99 * m["bound"] for m in spec["end_to_end"]})
    just_outside = bench_file({f"mc.{m['name']}": 1.0 + 1.01 * m["bound"] for m in spec["end_to_end"]})
    assert not any(r["flagged"] for r in bench.compare(old, just_inside, spec))
    assert all(r["flagged"] for r in bench.compare(old, just_outside, spec))


def test_summarize_takes_medians_and_sums_failures(bench):
    runs = [
        {"workload": "mc", "failed": f, "metrics": {"wall_s": w}} for w, f in [(3.0, 0), (1.0, 1), (2.0, 0)]
    ]
    out = bench.summarize(runs, {"wall_s": "s"})
    assert out == {"mc.wall_s": {"value": 2.0, "unit": "s"}, "mc.failed": {"value": 1, "unit": "count"}}


def test_rule_nodes_counts_both_orders_of_each_analytic_size(bench):
    nodes = bench.rule_nodes()
    assert set(nodes) == {f"special.unit_interval_rule.{n}x{k}.nodes_{m}" for n, k in bench.ANALYTIC_SIZES
                          for m in ("n", "2n")}
    # (192, 96) takes n = 224: 2 x 224 nodes below x = 3/4, then 112, 112, 56, 56, 28, 28, 14, 14 and 38 x 8
    assert nodes["special.unit_interval_rule.192x96.nodes_n"] == 1172
    assert nodes["special.unit_interval_rule.192x96.nodes_2n"] == 2052
