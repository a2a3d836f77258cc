"""Command-line surface: curve, density, distribution and variance tables.

Every command takes ``--N``, ``--NA``, ``--seed``, ``--format`` and ``--out``
and, beyond them, only the options it reads (``_COMMANDS``): any other exits
2.  ``--NA`` is an integer; ``page-curve`` also takes ``sweep``, its default.
Emits CSV (default) or JSON.  The first CSV line is the versioned header
``# gaussian-page v1``; every numeric field uses 17 significant digits so
values round-trip exactly.  The default seed is a fixed constant
(overridable via ``--seed`` or the GAUSSIAN_PAGE_SEED environment
variable, by an integer >= 0): this is a reproducibility-first tool,
never time-seeded.

Monte Carlo rows (``page-curve --mode mc``, ``variance``, ``dist`` and
``sample``) come from the batched samplers of :mod:`gausspage.ensembles`.
The gaussian, number-conserving and haar-pure samplers draw matrix models
whose cost depends on min(N_A, N - N_A) only, so a gaussian or
number-conserving request has no size limit beyond memory:
``page-curve --mode mc --N 2000 --NA 40`` draws one 40 x 40 tridiagonal
eigensolve a sample.

Exit codes: 0 success; 2 invalid arguments or option combinations, or an
``--out`` path that cannot be opened; 3 a resource limit (Haar-pure sampling
at min(N_A, N - N_A) > 7 or N > 1024, or a ``MemoryError``: arrays that do
not fit in memory); 4 a failed numerical check (:class:`ConsistencyError`).
An ``--out`` that is a directory, or whose parent directory is missing, exits
2 before any work; the file itself is opened only once every row is computed,
so a run that fails leaves no file behind and an existing one untouched.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from gausspage import ensembles, formulas, rmt, stats
from gausspage.gstates import ConsistencyError
from gausspage.linalg import InvalidArgument

HEADER = "# gaussian-page v1"
DEFAULT_SEED = 20210701

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# Batched sampler of each ensemble, by its name in ``ensembles``.  The name is
# looked up at call time, so a patched module attribute is the one called.
_SAMPLERS = {
    "gaussian": "gaussian_entropies",  # the beta-Jacobi (CS) model: min(N_A, N - N_A)^2 words a sample, at any N
    "haar-pure": "haar_pure_entropies",  # refuses min(N_A, N - N_A) > HAAR_PURE_MAX_SIDE and N > HAAR_PURE_MAX_N
    "hamiltonian": "hamiltonian_eigenstate_entropies",
    "number-conserving": "number_conserving_entropies",  # the same CS model at a Binomial(N, 1/2) particle number
}
ENSEMBLES = tuple(_SAMPLERS)
MODES = ("exact", "quadrature", "mc", "limit")
_WORKERS_HELP = ("has no effect: Monte Carlo samples are drawn in seeded blocks of 1024, up to one per available"
                 " core at a time, and the output depends on --seed and --samples only")
# Options beyond the common --N, --NA, --seed, --format and --out; each command takes those it reads.
_OPTIONS = {
    "ensemble": {"choices": ENSEMBLES, "default": "gaussian"},
    "mode": {"choices": MODES, "default": "exact"},
    "samples": {"type": int, "default": 10_000},
    "workers": {"type": int, "default": 1, "help": _WORKERS_HELP},
    "points": {"type": int, "default": 101},
    "bins": {"type": int, "default": 50},
}


def _emit(config: argparse.Namespace, columns: list[str], rows: list[list] | np.ndarray) -> None:
    """Write ``rows`` (a list of rows, or a 2-D float array) as CSV or JSON, every float with 17 digits."""
    if config.fmt == "json":
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        payload = {
            "version": HEADER.lstrip("# "),
            "columns": columns,
            "rows": [["%.17g" % v if isinstance(v, float) else v for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif isinstance(rows, np.ndarray):  # one template for every row, and no type tuple or list built for each
        body = "\n".join([",".join(["%.17g"] * rows.shape[1])] * len(rows)) % tuple(rows.ravel().tolist())
        text = "\n".join([HEADER, ",".join(columns), body]) + "\n"
    else:  # one % template per run of rows whose fields have the same types
        lines = [HEADER, ",".join(columns)]
        for types, run in itertools.groupby(rows, key=lambda row: tuple(map(type, row))):
            run = list(run)
            template = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)
            lines.append("\n".join([template] * len(run)) % tuple(itertools.chain.from_iterable(run)))
        text = "\n".join(lines) + "\n"
    if config.out:
        try:
            fh = open(config.out, "w")
        except OSError as exc:
            raise InvalidArgument(f"cannot open --out {config.out!r}: {exc.strerror}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that can be seen not to open before the run: a directory, or a missing parent."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise InvalidArgument(f"cannot open --out {path!r}: Is a directory")
    if not os.path.isdir(parent):
        raise InvalidArgument(f"cannot open --out {path!r}: {parent!r} is not a directory")


def _mc_sampler(config: argparse.Namespace, n_a: int):
    sampler = getattr(ensembles, _SAMPLERS[config.ensemble])
    return lambda gen, count: sampler(config.N, n_a, count, gen)


def _variance(route: str, ens: str, N: int, k: int) -> float:
    """Variance of a ``formulas.ROUTES`` cell at 0 <= k <= N/2: 0 at k = 0, where S_A = 0; nan where there is none."""
    cell = formulas.ROUTES.get((route, ens))
    return math.nan if cell is None else 0.0 if k == 0 else cell[1](N, k) if cell[1] else math.nan


def _curve_row(config: argparse.Namespace, n_a: int) -> list:
    N, mode, ens = config.N, config.mode, config.ensemble
    k = formulas.smaller_side(N, n_a)
    std_error, samples = math.nan, 0
    if mode == "mc":
        if k == 0:  # S_A = 0: no sampler runs
            value, std, std_error = 0.0, 0.0, 0.0
        else:
            est = stats.mc_estimate(_mc_sampler(config, n_a), config.samples, config.seed)
            value, std, std_error, samples = est.mean, math.sqrt(est.variance), est.std_error, est.n
    elif (mode, ens) in formulas.ROUTES:
        value, std = formulas.ROUTES[mode, ens][0](N, k) if k else 0.0, math.sqrt(_variance(mode, ens, N, k))
    else:
        available = [route for route in MODES if (route, ens) in formulas.ROUTES] + ["mc"]
        raise InvalidArgument(f"mode {mode!r} is not available for ensemble {ens!r} (available: {', '.join(available)})")
    return [N, n_a, n_a / N, value, std, std_error, samples, mode, ens]


def run_page_curve(config: argparse.Namespace) -> None:
    sweep = range(0, config.N // 2 + 1) if config.N_A is None else [config.N_A]
    if config.mode == "mc" and config.N_A is None:
        # a sampler refuses its arguments before it draws, but a sweep would draw the rows below a refused N_A
        # first: each sees its arguments, with nothing to draw, before any row is drawn
        for n_a in sweep:
            stats.draw_streams(_mc_sampler(config, n_a), 0, config.seed)
    columns = ["N", "N_A", "f", "value", "std", "std_error", "samples", "mode", "ensemble"]
    rows = [_curve_row(config, n_a) for n_a in sweep]
    _emit(config, columns, rows)


def run_density(config: argparse.Namespace) -> None:
    n_a = config.N_A
    delta = config.N - 2 * n_a
    if n_a < 1 or delta < 0:
        raise InvalidArgument("density requires 1 <= N_A <= N/2")
    ctx = rmt.build_kernel_ctx(n_a, delta)
    grid = np.linspace(0.0, 1.0, config.points)
    rho = np.atleast_1d(rmt.level_density(ctx, grid))
    _emit(config, ["x", "rho"], np.column_stack([grid, rho]))


def run_variance(config: argparse.Namespace) -> None:
    N = config.N
    n_a = config.N_A if config.N_A is not None else N // 2
    k = formulas.smaller_side(N, n_a)
    var_exact, var_limit = (_variance(route, config.ensemble, N, k) for route in ("exact", "limit"))
    var_mc, n = (math.nan if config.samples == 0 else 0.0), 0  # nan: none asked for; 0: S_A = 0 at k = 0
    if config.samples > 0 and k > 0:
        est = stats.mc_estimate(_mc_sampler(config, n_a), config.samples, config.seed)
        var_mc, n = est.variance, est.n
    _emit(
        config,
        ["N", "N_A", "f", "variance_finite", "variance_mc", "variance_limit", "samples", "seed"],
        [[N, n_a, n_a / N, var_exact, var_mc, var_limit, n, config.seed]],
    )


def run_sample(config: argparse.Namespace) -> None:
    values = stats.draw_streams(_mc_sampler(config, config.N_A), config.samples, config.seed)
    _emit(config, ["index", "entropy"], [[i, float(v)] for i, v in enumerate(values)])


def run_dist(config: argparse.Namespace) -> None:
    k = formulas.smaller_side(config.N, config.N_A)
    if k == 0:
        raise InvalidArgument(f"dist needs 0 < --NA < --N, got --NA {config.N_A}: S_A = 0 leaves no range to bin")
    values = stats.draw_streams(_mc_sampler(config, config.N_A), config.samples, config.seed)
    hist = stats.histogram(values, config.bins, (0.0, k * math.log(2.0)))
    if hist.underflow or hist.overflow:
        msg = f"{hist.underflow} samples below and {hist.overflow} above [0, {k} log 2] are not counted"
        print(f"warning: {msg}", file=sys.stderr)
    rows = [[float(lo), float(hi), int(c)] for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)]
    _emit(config, ["bin_lo", "bin_hi", "count"], rows)


# Each command's run function, by its name in this module, and the options it reads beyond the common ones.
# Names are looked up at call time, like those of ``_SAMPLERS``, so a patched module attribute is the one called.
_COMMANDS = {
    "page-curve": ("run_page_curve", ("ensemble", "mode", "samples", "workers")),
    "density": ("run_density", ("points",)),
    "variance": ("run_variance", ("ensemble", "samples", "workers")),
    "sample": ("run_sample", ("ensemble", "samples")),
    "dist": ("run_dist", ("ensemble", "samples", "bins")),
}
_NA_HELP = {"page-curve": "subsystem size, or 'sweep' (the default): every N_A from 0 to N/2",
            "variance": "subsystem size (default N/2)"}
_EXIT_CODES = {
    InvalidArgument: EXIT_INVALID,
    ensembles.ResourceLimit: EXIT_RESOURCE,
    MemoryError: EXIT_RESOURCE,
    ConsistencyError: EXIT_NUMERICAL,
}


def _environment_seed() -> int:
    """GAUSSIAN_PAGE_SEED, or DEFAULT_SEED where it is unset."""
    text = os.environ.get("GAUSSIAN_PAGE_SEED", str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise InvalidArgument(f"GAUSSIAN_PAGE_SEED must be an integer, got {text!r}") from None


def run(config: argparse.Namespace) -> int:
    try:
        if config.seed is None:
            config.seed = _environment_seed()
        if config.seed < 0:
            raise InvalidArgument(f"need a seed >= 0, got {config.seed}")
        if config.N < 1:
            raise InvalidArgument(f"need N >= 1, got {config.N}")
        given = vars(config)
        if given.get("samples", 0) < 0 or given.get("points", 1) < 1 or given.get("workers", 1) < 1:
            raise InvalidArgument("need --samples >= 0, --points >= 1 and --workers >= 1")
        if (given.get("mode") == "mc" or config.command == "variance" and config.samples) and config.samples < 2:
            raise InvalidArgument("a Monte Carlo mean and variance need --samples >= 2")
        if config.N_A is None and config.command not in _NA_HELP:
            raise InvalidArgument(f"{config.command} requires --NA")
        if config.out:
            _check_out(config.out)
        globals()[_COMMANDS[config.command][0]](config)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no message
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    return EXIT_OK


def _subsystem_size(text: str) -> int | None:
    """``page-curve --NA``: an integer, or ``sweep`` (None: every N_A from 0 to N/2)."""
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
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--NA", dest="N_A", metavar="NA", type=_subsystem_size if name == "page-curve" else int,
                       help=_NA_HELP.get(name, "subsystem size (required)"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        p.add_argument("--out", default=None)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
