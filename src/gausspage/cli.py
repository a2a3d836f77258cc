"""Command-line surface: curve, density, distribution and variance tables.

Emits CSV (default) or JSON.  The first CSV line is the versioned header
``# gaussian-page v1``; every numeric field uses 17 significant digits so
values round-trip exactly.  The default seed is a fixed constant
(overridable via ``--seed`` or the GAUSSIAN_PAGE_SEED environment
variable): this is a reproducibility-first tool, never time-seeded.

Exit codes: 0 success; 2 invalid arguments or option combinations; 3 a
resource limit (Haar-pure sampling above 14 modes); 4 a failed numerical
check (singular-value pairing or [0,1] range, or a quadrature accuracy).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from gausspage import ensembles, formulas, rmt, stats
from gausspage.gstates import ConsistencyError
from gausspage.linalg import InvalidArgument, RngStream

HEADER = "# gaussian-page v1"
DEFAULT_SEED = 20210701

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# Batched sampler of each ensemble, by its name in ``ensembles``.  The name is
# looked up at call time, so a patched module attribute is the one called.
_SAMPLERS = {
    "gaussian": "gaussian_entropies",
    "haar-pure": "haar_pure_entropies",  # refuses N > HAAR_PURE_MAX_MODES
    "hamiltonian": "hamiltonian_eigenstate_entropies",
    "number-conserving": "number_conserving_entropies",
}
ENSEMBLES = tuple(_SAMPLERS)
# Ensembles whose entropy follows the Haar Gaussian law: the analytic variance columns apply.
_GAUSSIAN_LAW = ("gaussian", "hamiltonian")
MODES = ("exact", "quadrature", "mc", "limit")
_WORKERS_HELP = ("split samples into this many RNG streams, which fix the result; each batch's linear algebra"
                 " runs on the available cores, and the output does not depend on their number")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(config: argparse.Namespace, columns: list[str], rows: list[list]) -> None:
    if config.fmt == "json":
        payload = {
            "version": HEADER.lstrip("# "),
            "columns": columns,
            "rows": [[(f"{v:.17g}" if isinstance(v, float) else v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [HEADER, ",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mc_sampler(config: argparse.Namespace, n_a: int):
    sampler = getattr(ensembles, _SAMPLERS[config.ensemble])
    return lambda gen, count: sampler(config.N, n_a, count, gen)


def _stream0_samples(config: argparse.Namespace) -> np.ndarray:
    """``--samples`` entropies at ``--NA`` from RNG stream 0 (``sample`` and ``dist``)."""
    if config.N_A is None:
        raise InvalidArgument(f"{config.command} requires --NA")
    return _mc_sampler(config, config.N_A)(RngStream(config.seed, 0).generator(), config.samples)


def _smaller_side(N: int, n_a: int) -> int:
    """min(N_A, N - N_A): S_A = S_B for a pure state, and the analytics take N_A <= N/2."""
    if not 0 <= n_a <= N:
        raise InvalidArgument(f"need 0 <= N_A <= N, got N_A={n_a}, N={N}")
    return min(n_a, N - n_a)


def _curve_row(config: argparse.Namespace, n_a: int) -> list:
    N = config.N
    k = _smaller_side(N, n_a)
    mode, ens = config.mode, config.ensemble
    std = math.nan
    std_error = math.nan
    samples = 0
    if mode == "exact":
        if ens == "gaussian":
            value = formulas.gaussian_average_exact(N, k)
            std = math.sqrt(rmt.variance_finite_N(rmt.build_kernel_ctx(k, N - 2 * k))) if k else 0.0
        elif ens == "haar-pure":
            value = formulas.page_average_exact(N, k)
        else:
            raise InvalidArgument(f"mode 'exact' is not available for ensemble {ens!r}")
    elif mode == "quadrature":
        if ens != "gaussian":
            raise InvalidArgument("mode 'quadrature' requires the gaussian ensemble")
        value = rmt.average_entropy_quadrature(rmt.build_kernel_ctx(k, N - 2 * k)) if k else 0.0
    elif mode == "mc":
        if n_a == 0:
            value, std, std_error, samples = 0.0, 0.0, 0.0, 0
        else:
            est = stats.mc_estimate(_mc_sampler(config, n_a), config.samples, config.seed, config.workers)
            value, std, std_error, samples = est.mean, math.sqrt(est.variance), est.std_error, est.n
    elif mode == "limit":
        if k == 0:
            value = 0.0
        elif ens == "gaussian":
            value = formulas.gaussian_thermo(N, k / N)
            std = formulas.gaussian_std_limit(k / N)
        elif ens == "haar-pure":
            value = formulas.page_thermo(N, k / N)
            std = formulas.page_std_thermo(N, k / N)
        elif ens == "number-conserving":
            value = N * formulas.lrv_density(k / N)
        else:
            raise InvalidArgument(f"mode 'limit' is not available for ensemble {ens!r}")
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")
    return [N, n_a, n_a / N, value, std, std_error, samples, mode, ens]


def run_page_curve(config: argparse.Namespace) -> None:
    sweep = range(0, config.N // 2 + 1) if config.N_A is None else [config.N_A]
    columns = ["N", "N_A", "f", "value", "std", "std_error", "samples", "mode", "ensemble"]
    rows = [_curve_row(config, n_a) for n_a in sweep]
    _emit(config, columns, rows)


def run_density(config: argparse.Namespace) -> None:
    if config.N_A is None:
        raise InvalidArgument("density requires --NA")
    n_a = config.N_A
    delta = config.N - 2 * n_a
    if n_a < 1 or delta < 0:
        raise InvalidArgument("density requires 1 <= N_A <= N/2")
    ctx = rmt.build_kernel_ctx(n_a, delta)
    grid = np.linspace(0.0, 1.0, config.points)
    rho = np.atleast_1d(rmt.level_density(ctx, grid))
    _emit(config, ["x", "rho"], [[float(x), float(r)] for x, r in zip(grid, rho)])


def run_variance(config: argparse.Namespace) -> None:
    N = config.N
    n_a = config.N_A if config.N_A is not None else N // 2
    k = _smaller_side(N, n_a)
    var_exact = var_limit = 0.0 if config.ensemble in _GAUSSIAN_LAW else math.nan
    if k and config.ensemble in _GAUSSIAN_LAW:
        var_exact = rmt.variance_finite_N(rmt.build_kernel_ctx(k, N - 2 * k))
        var_limit = formulas.gaussian_std_limit(k / N) ** 2
    if config.samples > 0:
        est = stats.mc_estimate(_mc_sampler(config, n_a), config.samples, config.seed, config.workers)
        var_mc, n = est.variance, est.n
    else:
        var_mc, n = math.nan, 0
    _emit(
        config,
        ["N", "N_A", "f", "variance_finite", "variance_mc", "variance_limit", "samples", "seed"],
        [[N, n_a, n_a / N, var_exact, var_mc, var_limit, n, config.seed]],
    )


def run_sample(config: argparse.Namespace) -> None:
    values = _stream0_samples(config)
    _emit(config, ["index", "entropy"], [[i, float(v)] for i, v in enumerate(values)])


def run_dist(config: argparse.Namespace) -> None:
    values = _stream0_samples(config)
    hist = stats.histogram(values, config.bins, (0.0, config.N_A * math.log(2.0)))
    if hist.underflow or hist.overflow:
        msg = f"{hist.underflow} samples below and {hist.overflow} above [0, N_A log 2] are not counted"
        print(f"warning: {msg}", file=sys.stderr)
    rows = [
        [float(lo), float(hi), int(c)]
        for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)
    ]
    _emit(config, ["bin_lo", "bin_hi", "count"], rows)


_COMMANDS = {
    "page-curve": run_page_curve,
    "density": run_density,
    "variance": run_variance,
    "sample": run_sample,
    "dist": run_dist,
}


def run(config: argparse.Namespace) -> int:
    try:
        if config.N < 1:
            raise InvalidArgument(f"need N >= 1, got {config.N}")
        if config.samples < 0 or config.points < 1:
            raise InvalidArgument("need --samples >= 0 and --points >= 1")
        _COMMANDS[config.command](config)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ensembles.ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConsistencyError, rmt.AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _subsystem_size(text: str) -> int | None:
    """``--NA``: an integer, or ``sweep`` (None: every N_A from 0 to N/2)."""
    try:
        return None if text == "sweep" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'sweep', got {text!r}") from None


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspage",
        description="Entanglement entropy statistics of random fermionic Gaussian states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--N", type=int, required=True)
        p.add_argument(
            "--NA", dest="N_A", metavar="NA", type=_subsystem_size, help="subsystem size, or 'sweep' (page-curve default)"
        )
        p.add_argument("--ensemble", choices=ENSEMBLES, default="gaussian")
        p.add_argument("--mode", choices=MODES, default="exact")
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        p.add_argument("--out", default=None)
        p.add_argument("--points", type=int, default=101)
        p.add_argument("--bins", type=int, default=50)
    return parser


def main(argv: list[str] | None = None) -> int:
    config = _build_parser().parse_args(argv)
    if config.seed is None:
        config.seed = int(os.environ.get("GAUSSIAN_PAGE_SEED", DEFAULT_SEED))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
