"""Speed probe: fixed numpy, LAPACK and Python work that does not touch the package.

``run.py`` starts this once per measured run, in a process of its own, and
asks it for a measurement before and after the set-ups and after every
``PROBE_EVERY_S`` seconds of the worker's requests, while the worker
waits.  Its time tracks how fast the machine runs at the moment, which on
a shared host drifts by tens of percent within a minute.
Being a separate process, it adds nothing to the worker's peak memory and
does not see state the program left behind.

Protocol: each line read from stdin runs the probe once and answers with
one JSON line, the seconds taken by each part.  The process exits at the
end of its input.

The three parts mirror the kernel mixes of the workloads: ``batch`` is QR
of stacks of 64 matrices, like the batched samplers of ``mc``;
``recurrence`` is a three-term polynomial recurrence on a few thousand
points plus scalar log-gamma calls in interpreted Python, like
``analytic``; ``lapack`` is Schur, eigh and QR of single 128 x 128
matrices, like ``state-algebra``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

RNG = np.random.default_rng(0)
STACK = RNG.standard_normal((64, 96, 96))
X = np.linspace(0.0, 1.0, 4000)
_G = RNG.standard_normal((128, 128))
SYM, ANTI = _G + _G.T, _G - _G.T


def _batch():
    for _ in range(4):
        np.linalg.qr(STACK)


def _recurrence():
    for _ in range(4):
        p0, p1 = np.ones_like(X), X.copy()
        for n in range(2, 200):
            p0, p1 = p1, ((2 * n - 1) * X * p1 - (n - 1) * p0) / n
    acc = 0.0
    for i in range(1, 20_000):
        acc += math.lgamma(0.5 * i) - math.log(i)


def _lapack():
    for _ in range(4):
        scipy.linalg.schur(ANTI)
        np.linalg.eigh(SYM)
        np.linalg.qr(SYM)


PARTS = {"batch": _batch, "recurrence": _recurrence, "lapack": _lapack}


def measure() -> dict[str, float]:
    """Seconds taken by each part."""
    times = {}
    for name, part in PARTS.items():
        start = perf_counter()
        part()
        times[name] = perf_counter() - start
    return times


def main() -> int:
    for _ in sys.stdin:
        print(json.dumps(measure()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
