"""Benchmark client process: one closed-loop client running one workload.

Started by ``run.py``.  It pins BLAS to one thread, imports the package
from ``src/``, runs the workload's warm-up requests and prints ``ready``;
``run.py`` times that as set-up.  With ``--setup-only`` it exits there.
Otherwise it runs the number of passes of the seeded request list that
``--seconds`` buys on the reference machine (``workloads.pass_count``),
sending each request only after the previous one returned,
checks every output outside the timed region, and prints one JSON line
with latencies, failures, digests, peak memory and environment.  Between
requests, every ``PROBE_EVERY_S`` seconds of them, it waits while
``run.py`` runs the speed probe (``probe.py``).

With ``--trace 1`` every pass runs three times on the same inputs:
untraced, traced, untraced; the traced time minus the mean untraced time
is the tracing overhead.  Spans are written to ``perfbench/out/`` when
the run ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
# Seconds of requests between two speed probes.  The speed of a shared host
# changes within seconds, so one probe per pass is too coarse for the 15 s
# passes of mc.
PROBE_EVERY_S = 2.0
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from gausspage import cli, ensembles, gstates, linalg, rmt  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cli(req):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(req["argv"])
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _restrict_chain(j, req):
    x = gstates.restrict(j, gstates.SystemSplit(req["N"], req["NA"]))
    return gstates.entropy_from_spectrum(x)


def _particle_inputs(req):
    """Random hopping (Hermitian A) plus pairing (antisymmetric B)."""
    n = req["N"]
    rng = np.random.default_rng(req["seed"])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T), 0.5 * (b - b.T)


def prepare(req):
    """Untimed inputs of a request, generated from its seed."""
    kind = req["kind"]
    if kind == "density_cdf":
        grid = np.sort(np.random.default_rng(req["seed"]).random(req["points"]))
        grid[-1] = 1.0
        return grid
    if kind == "particle":
        return _particle_inputs(req)
    if kind == "hamiltonian":
        return np.array(req["occ"])
    return None


def execute(req, inputs):
    """The timed part: calls into the program only."""
    kind = req["kind"]
    if kind == "cli":
        return _cli(req)
    if kind == "density_cdf":
        ctx = rmt.build_kernel_ctx(req["n_a"], req["delta"])
        return rmt.density_cdf(ctx, inputs)
    if kind == "hamiltonian":
        ham = ensembles.sample_random_hamiltonian(req["N"], linalg.RngStream(req["seed"]))
        j = ensembles.eigenstate_structure(ham, inputs)
        return j, _restrict_chain(j, req)
    if kind == "gaussian":
        j = ensembles.sample_gaussian_state(req["N"], linalg.RngStream(req["seed"]))
        return j, _restrict_chain(j, req)
    if kind == "particle":
        ham = ensembles.from_particle_basis(*inputs)
        j = ensembles.eigenstate_structure(ham, np.zeros(req["N"], dtype=int))
        return ham, j, _restrict_chain(j, req)
    raise ValueError(f"unknown request kind {kind!r}")


def check(req, inputs, result):
    kind = req["kind"]
    if kind == "cli":
        code, out, _ = result
        checks.check_cli(req["argv"], code, out)
    elif kind == "density_cdf":
        checks.check_cdf(result, req["points"])
    elif kind == "particle":
        ham, j, s_a = result
        checks.check_canonical(ham.h, ham.M, ham.omega)
        checks.check_state(j, s_a, req["N"], req["NA"])
    else:
        j, s_a = result
        checks.check_state(j, s_a, req["N"], req["NA"])


def run_request(req, tracer=None, request_id=None):
    """Run and check one request; returns (latency_s, error message or None)."""
    inputs = prepare(req)
    if tracer is not None:
        tracer.request = request_id
    start = perf_counter()
    try:
        result = execute(req, inputs)
    except Exception:
        return perf_counter() - start, traceback.format_exc(limit=3)
    latency = perf_counter() - start
    if req["kind"] == "cli" and result[0] != 0:
        return latency, f"exit code {result[0]}: {result[2].strip()[-300:]}"
    try:
        check(req, inputs, result)
    except checks.CheckFailed as exc:
        return latency, f"check failed: {exc}"
    return latency, None


def run_pass(requests, tracer=None, first_id=0, clock=None):
    latencies, errors = [], []
    for i, req in enumerate(requests):
        latency, error = run_request(req, tracer, first_id + i)
        latencies.append(latency)
        if clock is not None:
            clock.timed(latency)
        if error:
            errors.append({"request": req, "error": error})
    return latencies, errors


class ProbeClock:
    """Lets ``run.py`` run the speed probe after every PROBE_EVERY_S seconds of requests.

    This process prints ``probe`` and waits for a line on stdin meanwhile.
    ``at[k]`` is the number of requests timed before probe k, so requests
    ``at[k]`` to ``at[k + 1] - 1`` ran between probes k and k + 1.
    """

    def __init__(self):
        self.count, self.since, self.at = 0, 0.0, []
        self.probe()

    def probe(self) -> None:
        print("probe", flush=True)
        sys.stdin.readline()
        self.at.append(self.count)
        self.since = 0.0

    def timed(self, latency: float) -> None:
        self.count += 1
        self.since += latency
        if self.since >= PROBE_EVERY_S:
            self.probe()

    def close(self) -> list[int]:
        if self.at[-1] != self.count:
            self.probe()
        return self.at


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest ended child.

    The kernel records only the largest child's peak, so two children alive
    at the same time count as one.  ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--stop-after", type=float, default=math.inf,
                   help="start no pass that would end later than this many seconds into the measurement")
    args = p.parse_args(argv)

    for req in workloads.WARMUP[args.workload]:
        _, error = run_request(req)
        if error:
            print(f"warm-up request failed: {error}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Traced runs report per-layer figures, which are not scaled by speed.
    tracer = tracing.Tracer() if args.trace else None
    clock = None if args.trace else ProbeClock()
    passes = []
    started = perf_counter()
    for index in range(workloads.pass_count(args.workload, args.seconds, bool(args.trace))):
        elapsed = perf_counter() - started
        if passes and elapsed + elapsed / len(passes) > args.stop_after:
            break
        requests = workloads.generate(args.workload, args.seed, index)
        latencies, errors = run_pass(requests, clock=clock)
        record = {"index": index, "digest": workloads.digest(requests), "latencies": latencies, "errors": errors}
        if tracer is not None:
            # Untraced, traced, untraced again on the same inputs: the mean
            # of the two untraced passes cancels a drift from warming up.
            tracer.install()
            try:
                traced, traced_errors = run_pass(requests, tracer, first_id=index * len(requests))
            finally:
                tracer.uninstall()
            again, again_errors = run_pass(requests)
            record["overhead_s"] = sum(traced) - 0.5 * (sum(latencies) + sum(again))
            errors += traced_errors + again_errors
        passes.append(record)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "probe_at": clock.close() if clock else [],
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(),
    }
    if tracer is not None:
        metrics = tracing.per_layer(tracer.spans, len(passes))
        metrics["trace.overhead_s"] = statistics.median(r["overhead_s"] for r in passes)
        result["per_layer"] = metrics
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "work"], "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
