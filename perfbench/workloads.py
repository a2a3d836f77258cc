"""Seeded request generators for the three benchmark workloads.

Standard library only, so the parent process can digest a request list
without importing numpy.  A request is a JSON-serialisable dict:

* ``{"kind": "cli", "argv": [...]}`` is one in-process ``cli.main`` call;
* ``{"kind": "density_cdf", ...}`` is a direct ``rmt.density_cdf`` call;
* ``{"kind": "hamiltonian" | "gaussian" | "particle", ...}`` is one
  single-state library chain of the ``state-algebra`` workload.

Every request carries its own seed derived from the pass seed, so the
program receives only generated inputs.  Pass ``p`` of a run with workload
seed ``s`` is generated from ``(s, p)``: each pass is new input, and two
runs with the same seed see identical passes.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("mc", "analytic", "state-algebra")

# Every Monte Carlo request draws one full sampler batch (``_BATCH`` in
# ``gausspage.ensembles``) in total, split over the ``--workers 2`` streams.
# Real use asks for more: 5k-50k in ``scripts/``, 10k by CLI default, 20k-1M
# in the acceptance criteria.  With 2048, a pass of at least 50 requests
# over all four ensembles takes about 15 s, so that two passes (100
# requests) fit in one run.
MC_SAMPLES = "2048"
# (ensemble, N, requests per pass): fewer requests where a request costs
# more.  The 6 gaussian N=32 requests of a run span its 11th and 12th
# slowest, where req_p90_ms falls, so that p90 does not jump between
# groups of different cost from one seed to the next.
MC_GROUPS = (
    ("gaussian", 8, 6),
    ("gaussian", 16, 3),
    ("gaussian", 32, 3),
    ("gaussian", 64, 1),
    ("hamiltonian", 8, 6),
    ("hamiltonian", 12, 2),
    ("hamiltonian", 16, 2),
    ("number-conserving", 16, 5),
    ("number-conserving", 32, 3),
    ("number-conserving", 64, 1),
    ("haar-pure", 8, 6),
    ("haar-pure", 10, 4),
    ("haar-pure", 12, 1),
)
MC_WORKERS = "2"
# One dist request that fills a whole sampler batch in a single stream.
MC_FULL_BATCH_DIST = ["dist", "--N", "48", "--NA", "4", "--samples", "2048"]

DENSITY_POINTS = 2000
CDF_POINTS = 2000

STATE_KINDS = ("hamiltonian", "gaussian", "particle")
STATE_PER_KIND = 60
STATE_N = (16, 128)


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers, each uniform on lo..hi, spread evenly over the range.

    Draw i falls in the i-th of ``count`` equal slices of [lo, hi + 1); the
    list is then shuffled, so each entry is marginally uniform while the
    total work of a pass varies far less between seeds than with
    independent draws.
    """
    span = hi - lo + 1
    values = [lo + int((i + rng.random()) * span / count) for i in range(count)]
    rng.shuffle(values)
    return values


def sized(rng: random.Random, lo: int, hi: int, count: int, max_part=lambda n: n // 2) -> list[tuple[int, int]]:
    """``count`` pairs (N, N_A): N as in :func:`stratified`, N_A uniform on 1..max_part(N).

    N_A is drawn as 1 + floor(u * max_part(N)) with u stratified on [0, 1)
    independently of N (a Latin hypercube), so each N_A is uniform given
    its N while the cost of a pass, which grows with both, varies little
    between seeds.
    """
    sizes = stratified(rng, lo, hi, count)
    fractions = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(fractions)
    return [(n, 1 + int(u * max_part(n))) for n, u in zip(sizes, fractions)]


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(31)


def _mc(rng: random.Random) -> list[dict]:
    reqs = []
    for ensemble, n, count in MC_GROUPS:
        for k in stratified(rng, 1, n // 2, count):
            argv = ["page-curve", "--mode", "mc", "--ensemble", ensemble, "--N", str(n),
                    "--NA", str(k), "--samples", MC_SAMPLES, "--workers", MC_WORKERS]
            reqs.append({"kind": "cli", "argv": argv + ["--seed", str(_seed(rng))]})
    for n, k in zip((8, 12, 16, 24), stratified(rng, 1, 4, 4)):
        argv = ["variance", "--N", str(n), "--NA", str(k), "--samples", MC_SAMPLES, "--workers", MC_WORKERS]
        reqs.append({"kind": "cli", "argv": argv + ["--seed", str(_seed(rng))]})
    for ensemble, n in (("gaussian", 12), ("hamiltonian", 10), ("number-conserving", 12), ("haar-pure", 10)):
        k = rng.randint(1, n // 2)
        argv = ["dist", "--ensemble", ensemble, "--N", str(n), "--NA", str(k), "--samples", MC_SAMPLES, "--bins", "40"]
        reqs.append({"kind": "cli", "argv": argv + ["--seed", str(_seed(rng))]})
    reqs.append({"kind": "cli", "argv": MC_FULL_BATCH_DIST + ["--seed", str(_seed(rng))]})
    rng.shuffle(reqs)
    return reqs


def _analytic(rng: random.Random) -> list[dict]:
    reqs = []

    def cli(argv):
        reqs.append({"kind": "cli", "argv": argv + ["--seed", str(_seed(rng))]})

    for n, k in sized(rng, 16, 192, 34):
        cli(["page-curve", "--mode", "quadrature", "--N", str(n), "--NA", str(k)])
    for n, k in sized(rng, 16, 192, 20):
        cli(["page-curve", "--mode", "exact", "--N", str(n), "--NA", str(k)])
    for n, k in sized(rng, 16, 192, 5):
        cli(["page-curve", "--mode", "exact", "--ensemble", "haar-pure", "--N", str(n), "--NA", str(k)])
    for n, k in sized(rng, 16, 256, 20):
        cli(["variance", "--samples", "0", "--N", str(n), "--NA", str(k)])
    # The trapezoid check of the density's integral resolves the Delta = 0
    # edge peak on a 2000-point grid only up to N of about 64.
    for n, k in sized(rng, 8, 64, 12):
        cli(["density", "--points", str(DENSITY_POINTS), "--N", str(n), "--NA", str(k)])
    # KS-validation path: small N_A, as the acceptance suite uses it.
    for n_a in stratified(rng, 1, 8, 8):
        reqs.append({"kind": "density_cdf", "n_a": n_a, "delta": rng.randint(0, 16),
                     "points": CDF_POINTS, "seed": _seed(rng)})
    rng.shuffle(reqs)
    # The largest quadrature request allocates the most memory.  Every pass
    # opens with it, so the heap it meets, and with it the peak memory,
    # does not depend on the draw.
    cli(["page-curve", "--mode", "quadrature", "--N", "192", "--NA", "96"])
    return reqs[-1:] + reqs[:-1]


def _state_algebra(rng: random.Random) -> list[dict]:
    reqs = []
    for kind in STATE_KINDS:
        for n, k in sized(rng, *STATE_N, STATE_PER_KIND, max_part=lambda n: n - 1):
            req = {"kind": kind, "N": n, "NA": k, "seed": _seed(rng)}
            if kind == "hamiltonian":
                req["occ"] = [rng.getrandbits(1) for _ in range(n)]
            reqs.append(req)
    rng.shuffle(reqs)
    return reqs


_GENERATORS = {"mc": _mc, "analytic": _analytic, "state-algebra": _state_algebra}


# Seconds one pass takes on the reference machine (2-vCPU Xeon at 2.1 GHz,
# one BLAS thread) at the first benchmarked commit, with its checks and speed
# probes.  A run of ``--seconds`` runs ``pass_count`` passes whatever the
# speed of the program, so a faster program is measured on the same inputs
# as its parent.
PASS_SECONDS = {"mc": 15.5, "analytic": 3.7, "state-algebra": 1.9}


def pass_count(workload: str, seconds: float, traced: bool = False) -> int:
    """Number of passes in a run; depends on the arguments only.

    A traced pass runs its requests three times, so it counts thrice.
    """
    return max(1, round(seconds / ((3 if traced else 1) * PASS_SECONDS[workload])))


def generate(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """Request list of one pass; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return _GENERATORS[workload](rng)


def digest(requests: list[dict]) -> str:
    """Short content hash of a request list."""
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# Small fixed requests that touch every request kind before timing starts.
WARMUP = {
    "mc": [
        {"kind": "cli", "argv": ["page-curve", "--mode", "mc", "--N", "8", "--NA", "2",
                                 "--samples", "64", "--workers", MC_WORKERS]},
    ],
    "analytic": [
        {"kind": "cli", "argv": ["page-curve", "--mode", "quadrature", "--N", "16", "--NA", "4"]},
        {"kind": "density_cdf", "n_a": 2, "delta": 2, "points": 50, "seed": 1},
    ],
    "state-algebra": [
        {"kind": kind, "N": 16, "NA": 4, "seed": 1, **({"occ": [0, 1] * 8} if kind == "hamiltonian" else {})}
        for kind in STATE_KINDS
    ],
}
