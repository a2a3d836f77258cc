"""Benchmark of the gausspage package: one command, three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload is one client in one process (``worker.py``) that sends its
next request only after the previous one returned.  Set-up is timed here,
from process start to the worker's ``ready`` line (interpreter start,
imports, warm-up requests), ``SETUP_SAMPLES`` times plus once for the
measuring worker; ``setup_s`` is the median.  The worker then runs a
fixed number of whole passes of a seeded request list, as many as
``--seconds`` buys on the reference machine, and checks every output.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the traced run.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it say which inputs ran
(seed, request digests), the environment, and the failure rate.

The exit code is 0 only when every process ran to the end; it is 1,
with no result line, when the package cannot be imported or a worker
fails or runs out of time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 6
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s
# Time of each part of the speed probe (probe.py) on the reference machine
# (2-vCPU Xeon at 2.1 GHz, one BLAS thread) when it is not contended.  On a
# shared host the raw times of identical runs drift by tens of percent with
# the load of other tenants, so wall_s, req_p50_ms and req_p90_ms are
# reported at reference speed: each request's time is divided by the
# slowness, the geometric mean over the parts of probe time / PROBE_REF_S,
# averaged over the probes just before and just after it.  setup_s is
# scaled the same way.  The raw values are printed on the info line.
PROBE_REF_S = {"batch": 0.088, "recurrence": 0.016, "lapack": 0.033}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A worker failed, printed no result, or ran out of time."""


def _start(script: str, args: list[str], deadline: float, stdin) -> tuple[subprocess.Popen, threading.Timer]:
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args], stdin=stdin, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    return proc, watchdog


def _stop(proc: subprocess.Popen, watchdog: threading.Timer) -> int:
    """Wait for a process started by :func:`_start` (it is killed at the deadline); returns its exit code."""
    if proc.stdin:
        proc.stdin.close()
    code = proc.wait()
    watchdog.cancel()
    proc.stdout.close()
    return code


class Probe:
    """The speed probe process; one per measured run."""

    def __init__(self, deadline: float):
        self.proc, self.watchdog = _start("probe.py", [], deadline, subprocess.PIPE)
        try:
            self()  # imports and first touch of its arrays happen before timing
        except BaseException:
            self.proc.kill()
            self.close()
            raise

    def __call__(self) -> dict[str, float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("speed probe exited")
        return json.loads(line)

    def close(self) -> None:
        _stop(self.proc, self.watchdog)


def _spawn(args: list[str], deadline: float, probe: Probe | None = None) -> tuple[float, str, list[dict]]:
    """Run one worker; returns (seconds until its ``ready`` line, its last line, speed probes).

    An untraced measuring worker stops now and then between requests, and
    waits while ``probe`` measures the speed of the machine.
    """
    start = time.perf_counter()
    proc, watchdog = _start("worker.py", args, deadline, subprocess.PIPE if probe else subprocess.DEVNULL)
    probes, last = [], ""
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        for line in proc.stdout:
            if probe is not None and line.strip() == "probe":
                probes.append(probe())
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
    except BaseException as exc:
        proc.kill()
        _stop(proc, watchdog)
        if isinstance(exc, OSError):  # the worker died while this process wrote to it
            raise BenchError(f"worker {' '.join(args)}: {exc}") from exc
        raise
    code = _stop(proc, watchdog)
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return setup, last, probes


def slowness(probe: dict[str, float]) -> float:
    """How much slower than the reference machine one probe ran (1.0 = as fast)."""
    return math.prod(probe[k] / ref for k, ref in PROBE_REF_S.items()) ** (1.0 / len(PROBE_REF_S))


def scale(latencies: list[float], probe_at: list[int], slow: list[float]) -> list[float]:
    """Latencies at reference speed.

    Requests ``probe_at[k]`` to ``probe_at[k + 1] - 1`` ran between probes
    k and k + 1, and are divided by the mean slowness of the two.
    """
    factors = []
    for k, (a, b) in enumerate(zip(probe_at, probe_at[1:])):
        factors += [0.5 * (slow[k] + slow[k + 1])] * (b - a)
    return [x / f for x, f in zip(latencies, factors, strict=True)]


def end_to_end(result: dict, setups: list[float], slow: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the raw times.

    ``slow`` is the slowness of every probe: one before the first set-ups,
    the worker's, and one after the last set-ups.  The first half of the
    set-ups and the measuring worker's ran between the first two probes,
    the rest between the last two.
    """
    passes = result["passes"]
    latencies = [x for p in passes for x in p["latencies"]]
    # wall_s is the median over passes, so contention that covers fewer
    # than half of the passes does not move it; the percentiles pool every
    # request.
    scaled = scale(latencies, result["probe_at"], slow[1:-1])
    ends = list(itertools.accumulate(len(p["latencies"]) for p in passes))
    early = SETUP_SAMPLES // 2 + 1
    before, after = 0.5 * (slow[0] + slow[1]), 0.5 * (slow[-2] + slow[-1])
    values = {
        "setup_s": statistics.median([x / before for x in setups[:early]] + [x / after for x in setups[early:]]),
        "wall_s": statistics.median(sum(scaled[a:b]) for a, b in zip([0] + ends, ends)),
        "req_p50_ms": 1e3 * statistics.median(scaled),
        "req_p90_ms": 1e3 * percentile(scaled, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_p90_ms": 1e3 * percentile(latencies, 90),
    }
    return values, raw


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]

    def setup_only() -> float:
        return _spawn(common + ["--seconds", "0", "--setup-only"], deadline)[0]

    def measure(probe: Probe | None) -> tuple[float, str, list[dict]]:
        # Leave room after the last pass for the checks, the last set-ups
        # and the result line.
        stop_after = deadline - time.monotonic() - 15.0
        args = common + ["--seconds", str(seconds), "--trace", str(trace), "--stop-after", str(stop_after)]
        return _spawn(args, deadline, probe)

    setups, speeds = [], []
    if trace:
        _, out, _ = measure(None)
    else:
        # Set-up is timed before and after the measurement, so that its
        # median spans the run rather than one moment of it, and a probe
        # brackets each group of set-ups.
        probe = Probe(deadline)
        try:
            speeds.append(probe())
            setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
            setup, out, probes = measure(probe)
            setups += [setup] + [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
            speeds += probes + [probe()]
        finally:
            probe.close()
    if not out.strip():
        raise BenchError("worker printed no result")
    result = json.loads(out)

    passes = result["passes"]
    latencies = [x for p in passes for x in p["latencies"]]
    errors = [e for p in passes for e in p["errors"]]
    attempted = len(latencies) * (3 if trace else 1)
    slow = [slowness(p) for p in speeds]
    raw = {}
    if trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in result["per_layer"].items()}
    else:
        values, raw = end_to_end(result, setups, slow)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "passes_planned": workloads.pass_count(workload, seconds, bool(trace)),
        "requests_per_pass": len(passes[0]["latencies"]),
        "requests_timed": len(latencies),
        "digests": [p["digest"] for p in passes],
        "pass_wall_s": [sum(p["latencies"]) for p in passes],
        "fail_rate": len(errors) / attempted,
        "setup_samples_s": setups,
        "slowness": slow,
        "unscaled": raw,
        "env": result["env"],
    }
    if len(passes) < info["passes_planned"]:
        print(f"[{workload}] time limit reached after {len(passes)} pass(es)", file=sys.stderr)
    for e in errors[:3]:
        print(f"[{workload}] FAILED {json.dumps(e['request'])}: {e['error']}", file=sys.stderr)
    return {"info": info, "attempted": attempted, "failed": len(errors), "metrics": metrics}


def _summary(res: dict) -> str:
    info = res["info"]
    head = (
        f"{info['workload']}: {info['passes']} pass(es) x {info['requests_per_pass']} requests, "
        f"fail_rate {info['fail_rate']:.4g} ratio ({res['failed']}/{res['attempted']})"
    )
    rows = [f"  {name:<40} {m['value']:>14.6g} {m['unit']}" for name, m in res["metrics"].items()]
    return "\n".join([head] + rows)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results.values():
        print(json.dumps(res["info"]))
        print(_summary(res))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, res in results.items() for k, m in res["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
