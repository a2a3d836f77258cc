"""Write a BENCH file for one commit, or compare two.

Usage, from any directory:

    python3 scripts/bench.py --pr 12                       # writes BENCH_12.json at the checkout root
    python3 scripts/bench.py --compare BENCH_11.json BENCH_12.json

A BENCH file records, for the checkout this script lives in:

* ``perfbench/run.py --workload W --seed S --seconds 25 --trace 0`` for every
  workload of ``BENCHMARK.json`` and seeds 1-3, one process per (W, S) so each
  run stays within run.py's time limit: each run's metrics and info line, and
  per workload the median of each end-to-end metric and the summed failures;
* each batched sampler in microseconds per sample at fixed (N, N_A), each
  sampler's Monte Carlo estimate (``stats.mc_estimate``, so with its seeded
  blocks run at once) in microseconds per sample, and the
  three single-state chains of the ``state-algebra`` workload (particle,
  hamiltonian, gaussian: ``perfbench/worker.py`` runs them) in milliseconds
  per chain at N = 64 and 128 with N_A = N/2, and the analytic layers in
  milliseconds per call at (N, N_A) = (64, 32), (192, 96) and (256, 128):
  ``rmt.build_kernel_ctx``, ``rmt.average_entropy_quadrature`` and
  ``rmt.gram(ctx, mode_entropy)`` (the context built outside the timing) and
  ``formulas.variance_finite_N``; all in this
  process, with one BLAS thread, at reference speed as run.py reports its
  latencies;
* the node count of the graded rule ``special.unit_interval_rule`` at the
  first order n of ``rmt``'s doubling and at 2n, at each of those (N, N_A)
  (the perfbench counter ``special.unit_interval_rule.nodes`` holds n);
* the wall time of one tier-1 run (the command of ROADMAP.md), and the median
  wall time of three runs of each fixed CLI command in ``CLI_RUNS``, each a new
  process with one BLAS thread (these times are raw);
* the commit, and whether the tracked files differ from it.

``--compare`` prints NEW/OLD for each metric the two files share.  It flags an
end-to-end metric that moved in its worse direction by more than its bound in
``BENCHMARK.json``, and a workload with more failed requests, and then exits 1.
Other metrics have no bound there and are printed only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
RUN_SECONDS = 25
# (N, N_A) and samples per timing of each batched sampler; a timing takes about 0.1-1 s.  gaussian and
# number-conserving (2000, 40) and haar-pure (40, 4) lie beyond the range of the dense samplers that the matrix
# models replaced.  The hamiltonian ensemble draws gaussian_entropies, so it has no rows of its own
SAMPLERS = {
    "gaussian": ("gaussian_entropies", [(8, 4, 8192), (16, 8, 2048), (64, 32, 128), (2000, 40, 2048)]),
    "number-conserving": (
        "number_conserving_entropies", [(8, 4, 8192), (16, 8, 2048), (64, 32, 128), (2000, 40, 2048)]
    ),
    "haar-pure": ("haar_pure_entropies", [(8, 4, 8192), (12, 6, 1024), (40, 4, 8192)]),
}
# (N, N_A) of each Monte Carlo estimate timed through stats.mc_estimate, with ESTIMATE_SAMPLES samples (four
# blocks); haar-pure stays at (12, 6), where it has been timed since its sampler held 2^N amplitudes
ESTIMATES = {"gaussian": (16, 8), "number-conserving": (16, 8), "haar-pure": (12, 6)}
ESTIMATE_SAMPLES = 4096
# single-state chains of the state-algebra workload: seeds 1..CHAIN_SEEDS per timing, N_A = N/2
CHAINS = [(kind, n) for kind in ("particle", "hamiltonian", "gaussian") for n in (64, 128)]
CHAIN_SEEDS = 8
# (N, N_A) of the analytic layer timings, and calls per timing
ANALYTIC_SIZES = [(64, 32), (192, 96), (256, 128)]
ANALYTIC_CALLS = 8
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# fixed end-to-end CLI runs, from README's command-line block
CLI_RUNS = {
    "page-curve": ["page-curve", "--N", "10", "--ensemble", "hamiltonian", "--mode", "mc", "--samples", "20000"],
    "variance": ["variance", "--N", "8", "--NA", "4", "--samples", "100000"],
    "dist": ["dist", "--N", "10", "--NA", "5", "--samples", "50000", "--bins", "60"],
}


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def run_benchmark(workload: str, seed: int) -> dict:
    """One run.py process: its info line, request counts and end-to-end metric values."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS)]
    proc = subprocess.run([sys.executable, *argv, "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    info, result = json.loads(lines[0]), json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"workload": workload, "seed": seed, "info": info, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _one_blas_thread() -> dict[str, str]:
    return {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def time_tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"seconds": seconds, "returncode": proc.returncode, "summary": summary}


def time_cli() -> dict:
    """Median wall seconds of three runs of each ``CLI_RUNS`` command, each a new process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **_one_blas_thread())
    out = {}
    for name, argv in CLI_RUNS.items():
        times = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "gausspage.cli", *argv], cwd=ROOT, env=env, capture_output=True,
                           check=True)
            times.append(time.perf_counter() - start)
        out[f"cli.{name}.seconds"] = statistics.median(times)
    return out


def time_layers() -> tuple[dict, list[float]]:
    """Per sampler, chain and analytic call the median of three timings at reference speed, and the slownesses.

    Samplers are reported in microseconds per sample, chains in milliseconds
    per chain and analytic calls in milliseconds per call.  A timing is
    divided by the mean slowness of the benchmark's speed probe
    (``perfbench/probe.py``) just before and just after it, as run.py scales
    its latencies.  Call once per process.
    """
    os.environ.update(_one_blas_thread())  # before the first numpy import
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as perfbench
    import worker
    from gausspage import ensembles, formulas, rmt, stats
    from gausspage.gstates import mode_entropy
    from gausspage.linalg import RngStream

    out, slow = {}, []
    probe = perfbench.Probe(time.monotonic() + 600.0)

    def measure(name: str, warm_up, job, per_unit: float) -> None:
        warm_up()
        times = []
        for _ in range(3):
            start = time.perf_counter()
            job()
            times.append(time.perf_counter() - start)
        slow.append(perfbench.slowness(probe()))
        out[name] = statistics.median(times) / per_unit / (0.5 * (slow[-2] + slow[-1]))

    try:
        slow.append(perfbench.slowness(probe()))
        for ensemble, (fn_name, sizes) in SAMPLERS.items():
            sampler = getattr(ensembles, fn_name)
            for n, n_a, count in sizes:
                gen = RngStream(1).generator()
                measure(f"samplers.{ensemble}.{n}x{n_a}.us_per_sample", lambda: sampler(n, n_a, 16, gen),
                        lambda: sampler(n, n_a, count, gen), 1e-6 * count)
        for ensemble, (n, n_a) in ESTIMATES.items():
            sampler = getattr(ensembles, SAMPLERS[ensemble][0])
            draws = lambda gen, count: sampler(n, n_a, count, gen)  # noqa: E731
            measure(f"estimates.{ensemble}.{n}x{n_a}.us_per_sample", lambda: stats.mc_estimate(draws, 64, 1),
                    lambda: stats.mc_estimate(draws, ESTIMATE_SAMPLES, 1), 1e-6 * ESTIMATE_SAMPLES)
        for kind, n in CHAINS:
            reqs = [{"kind": kind, "N": n, "NA": n // 2, "seed": seed, "occ": [(seed + k) % 2 for k in range(n)]}
                    for seed in range(1, CHAIN_SEEDS + 1)]
            inputs = [worker.prepare(req) for req in reqs]
            measure(f"chains.{kind}.{n}.ms_per_chain", lambda: worker.execute(reqs[0], inputs[0]),
                    lambda: [worker.execute(*pair) for pair in zip(reqs, inputs)], 1e-3 * len(reqs))
        for n, n_a in ANALYTIC_SIZES:
            ctx = rmt.build_kernel_ctx(n_a, n - 2 * n_a)
            calls = {
                "rmt.build_kernel_ctx": lambda: rmt.build_kernel_ctx(n_a, n - 2 * n_a),
                "rmt.average_entropy_quadrature": lambda: rmt.average_entropy_quadrature(ctx),
                "rmt.gram": lambda: rmt.gram(ctx, mode_entropy),
                "formulas.variance_finite_N": lambda: formulas.variance_finite_N(n, n_a),
            }
            for name, call in calls.items():
                measure(f"{name}.{n}x{n_a}.ms", call, lambda: [call() for _ in range(ANALYTIC_CALLS)],
                        1e-3 * ANALYTIC_CALLS)
    finally:
        probe.close()
    return out, slow


def rule_nodes() -> dict[str, int]:
    """Nodes of ``unit_interval_rule`` at the first order n of ``rmt``'s doubling and at 2n, per analytic size.

    Imports ``gausspage`` from this checkout; after ``time_layers``, so numpy
    is first imported there.
    """
    sys.path[:0] = [str(ROOT / "src")]
    from gausspage import rmt
    from gausspage.special import unit_interval_rule

    out = {}
    for n, n_a in ANALYTIC_SIZES:
        order = rmt._panel_order(n_a, n - 2 * n_a)
        for label, m in (("n", order), ("2n", 2 * order)):
            out[f"special.unit_interval_rule.{n}x{n_a}.nodes_{label}"] = int(unit_interval_rule(m).nodes.size)
    return out


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    """Per workload, the median of each metric over its runs and the summed failures, named workload.metric."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["metrics"]:
            value = statistics.median(r["metrics"][name] for r in mine)
            out[f"{workload}.{name}"] = {"value": value, "unit": units.get(name, "")}
        out[f"{workload}.failed"] = {"value": sum(r["failed"] for r in mine), "unit": "count"}
    return out


def compare(old: dict, new: dict, spec: dict) -> list[dict]:
    """One row per metric in both BENCH dicts: NEW/OLD, and whether it moved worse beyond its bound.

    Bounds come from the end-to-end metrics of ``spec`` (BENCHMARK.json),
    matched on the name after the workload; a failure count may not rise.
    """
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds["failed"] = ("lower", 0.0)
    rows = []
    for name in old["metrics"].keys() & new["metrics"].keys():
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        ratio = b / a if a else (1.0 if b == a else float("inf"))
        better, bound = bounds.get(name.rsplit(".", 1)[-1], (None, None))
        if better == "lower":
            flagged = b > a * (1.0 + bound)
        elif better == "higher":
            flagged = b < a * (1.0 - bound)
        else:
            flagged = False
        rows.append({"name": name, "old": a, "new": b, "ratio": ratio, "bound": bound, "flagged": flagged})
    return sorted(rows, key=lambda r: r["name"])


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pr", help="label of the BENCH file to write, BENCH_<pr>.json at the checkout root")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    args = p.parse_args(argv)
    spec = _load(ROOT / "BENCHMARK.json")

    if args.compare:
        old, new = (_load(path) for path in args.compare)
        rows = compare(old, new, spec)
        print(f"old {old.get('commit')}  new {new.get('commit')}")
        for r in rows:
            bound = "" if r["bound"] is None else f"bound {r['bound']:g}"
            flag = "  WORSE" if r["flagged"] else ""
            print(f"{r['name']:<46} {r['old']:>12.6g} -> {r['new']:>12.6g}  x{r['ratio']:<8.4g} {bound}{flag}")
        return 1 if any(r["flagged"] for r in rows) else 0

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            print(f"run.py --workload {workload} --seed {seed}", file=sys.stderr)
            runs.append(run_benchmark(workload, seed))
    print("tier-1", file=sys.stderr)
    tier1 = time_tier1()
    print("cli", file=sys.stderr)
    metrics = summarize(runs, units)
    metrics["tier1.seconds"] = {"value": tier1["seconds"], "unit": "s"}
    metrics.update({name: {"value": s, "unit": "s"} for name, s in time_cli().items()})
    print("samplers, chains and analytic layers", file=sys.stderr)
    layers, layer_slowness = time_layers()
    metrics.update({name: {"value": v, "unit": "us" if name.endswith(".us_per_sample") else "ms"}
                    for name, v in layers.items()})
    metrics.update({name: {"value": v, "unit": "count"} for name, v in rule_nodes().items()})
    status = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.pr,
        "commit": (_git("rev-parse", "HEAD") or "").strip() or None,
        "dirty": None if status is None else bool(status.strip()),
        "seeds": list(SEEDS),
        "run_seconds": RUN_SECONDS,
        "metrics": metrics,
        "tier1": tier1,
        "layer_slowness": layer_slowness,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
