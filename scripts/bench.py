"""Write a BENCH file for one commit, or compare two.

Usage, from any directory:

    python3 scripts/bench.py --pr 12                       # writes BENCH_12.json at the checkout root
    python3 scripts/bench.py --compare BENCH_11.json BENCH_12.json

A BENCH file records, for the checkout this script lives in:

* ``perfbench/run.py --workload W --seed S --seconds 25 --trace 0`` for every
  workload of ``BENCHMARK.json`` and seeds 1-3, one process per (W, S) so each
  run stays within run.py's time limit: each run's metrics and info line, and
  per workload the median of each end-to-end metric and the summed failures;
* each batched sampler in microseconds per sample at fixed (N, N_A), in this
  process, with one BLAS thread, at reference speed as run.py reports its
  latencies (the tier-1 time is raw);
* the wall time of one tier-1 run (the command of ROADMAP.md);
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
# (N, N_A) and samples per timing of each batched sampler; a timing takes about 0.1-1 s
SAMPLERS = {
    "gaussian": ("gaussian_entropies", [(8, 4, 8192), (16, 8, 2048), (64, 32, 128)]),
    "hamiltonian": ("hamiltonian_eigenstate_entropies", [(8, 4, 8192), (16, 8, 2048), (64, 32, 128)]),
    "number-conserving": ("number_conserving_entropies", [(8, 4, 8192), (16, 8, 2048), (64, 32, 128)]),
    "haar-pure": ("haar_pure_entropies", [(8, 4, 8192), (12, 6, 1024)]),
}
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


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


def time_tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"seconds": seconds, "returncode": proc.returncode, "summary": summary}


def time_samplers() -> tuple[dict, list[float]]:
    """Each sampler's median of three timings in microseconds per sample at reference speed, and the slownesses.

    A timing is divided by the mean slowness of the benchmark's speed probe
    (``perfbench/probe.py``) just before and just after it, as run.py scales
    its latencies.  Call once per process.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before the first numpy import
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as perfbench
    from gausspage import ensembles
    from gausspage.linalg import RngStream

    out = {}
    probe = perfbench.Probe(time.monotonic() + 600.0)
    try:
        slow = [perfbench.slowness(probe())]
        for ensemble, (fn_name, sizes) in SAMPLERS.items():
            sampler = getattr(ensembles, fn_name)
            for n, n_a, count in sizes:
                gen = RngStream(1).generator()
                sampler(n, n_a, 16, gen)  # the pool and the first-call set-up
                times = []
                for _ in range(3):
                    start = time.perf_counter()
                    sampler(n, n_a, count, gen)
                    times.append(time.perf_counter() - start)
                slow.append(perfbench.slowness(probe()))
                us = 1e6 * statistics.median(times) / count
                out[f"samplers.{ensemble}.{n}x{n_a}.us_per_sample"] = us / (0.5 * (slow[-2] + slow[-1]))
    finally:
        probe.close()
    return out, slow


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
    print("samplers", file=sys.stderr)
    metrics = summarize(runs, units)
    metrics["tier1.seconds"] = {"value": tier1["seconds"], "unit": "s"}
    sampler_us, sampler_slowness = time_samplers()
    metrics.update({name: {"value": us, "unit": "us"} for name, us in sampler_us.items()})
    status = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.pr,
        "commit": (_git("rev-parse", "HEAD") or "").strip() or None,
        "dirty": None if status is None else bool(status.strip()),
        "seeds": list(SEEDS),
        "run_seconds": RUN_SECONDS,
        "metrics": metrics,
        "tier1": tier1,
        "sampler_slowness": sampler_slowness,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
