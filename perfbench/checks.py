"""Per-request correctness checks.

Each check raises :class:`CheckFailed` with a message when an output is
wrong.  References are computed here with scipy, independently of the
program: the closed forms below are written out again rather than taken
from ``gausspage.formulas``, and the complement entropy S_B of the
``state-algebra`` chains comes from a plain SVD.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma

LOG2 = math.log(2.0)
MC_SIGMAS = 5.0
EXACT_TOL = 1e-8
DENSITY_TOL = 1e-2
CDF_TOL = 1e-8
STATE_TOL = 1e-8
CANONICAL_TOL = 1e-8


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def gaussian_reference(N: int, k: int) -> float:
    """Average entropy of Haar fermionic Gaussian states, 0 < k < N."""
    return float(
        (N - 0.5) * digamma(2.0 * N)
        + (0.5 + k - N) * digamma(2.0 * (N - k))
        + (0.25 - k) * digamma(float(N))
        - 0.25 * digamma(float(N - k))
        - k
    )


def page_reference(N: int, k: int) -> float:
    """Page's average entropy of Haar pure states, 0 < k <= N/2."""
    return float(digamma(2.0**N + 1.0) - digamma(2.0 ** (N - k) + 1.0) - (2.0**k - 1.0) / 2.0 ** (N - k + 1))


def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of a ``gaussian-page v1`` CSV table as column -> field dicts."""
    lines = text.splitlines()
    _require(len(lines) >= 3 and lines[0] == "# gaussian-page v1", "missing header or rows")
    columns = lines[1].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    _require(all(len(r) == len(columns) for r in rows), "ragged CSV row")
    return rows


def _argv_options(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def check_cli(argv: list[str], code: int, stdout: str) -> None:
    """Check one ``cli.main`` request from its exit code and output."""
    _require(code == 0, f"exit code {code}")
    rows = parse_csv(stdout)
    opts = _argv_options(argv)
    N = int(opts["--N"])
    k = int(opts["--NA"])
    {"page-curve": _check_curve, "variance": _check_variance, "dist": _check_dist, "density": _check_density}[
        argv[0]
    ](opts, N, k, rows)


def _check_curve(opts, N, k, rows):
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    value = float(row["value"])
    mode = opts["--mode"]
    ensemble = opts.get("--ensemble", "gaussian")
    _require((int(row["N"]), int(row["N_A"])) == (N, k), "wrong (N, N_A) echoed")
    if mode == "mc":
        _require(int(row["samples"]) == int(opts["--samples"]), f"samples {row['samples']} != {opts['--samples']}")
        check_mc_mean(ensemble, N, k, value, float(row["std_error"]))
    elif ensemble == "haar-pure":
        ref = page_reference(N, k)
        _require(abs(value - ref) <= EXACT_TOL, f"page exact {value!r} vs {ref!r}")
    else:
        ref = gaussian_reference(N, k)
        _require(abs(value - ref) <= EXACT_TOL, f"{mode} {value!r} vs closed form {ref!r}")
        if mode == "exact":
            std = float(row["std"])
            _require(0.0 < std <= k * LOG2, f"std {std!r} out of (0, N_A log 2]")


def check_mc_mean(ensemble: str, N: int, k: int, mean: float, std_error: float) -> None:
    """Monte Carlo mean against its closed form, or its range where none exists."""
    if ensemble == "number-conserving":
        _require(0.0 <= mean <= k * LOG2, f"mean {mean!r} outside [0, N_A log 2]")
        return
    _require(math.isfinite(std_error) and std_error > 0.0, f"bad std_error {std_error!r}")
    ref = page_reference(N, k) if ensemble == "haar-pure" else gaussian_reference(N, k)
    z = (mean - ref) / std_error
    _require(abs(z) <= MC_SIGMAS, f"{ensemble} N={N} N_A={k}: mean {mean!r} is {z:.1f} standard errors from {ref!r}")


def _check_variance(opts, N, k, rows):
    _require(len(rows) == 1, "expected one row")
    row = rows[0]
    cap = (k * LOG2) ** 2
    finite = float(row["variance_finite"])
    _require(0.0 < finite <= cap, f"variance_finite {finite!r} out of (0, (N_A log 2)^2]")
    f = k / N
    limit = 0.5 * (f + f * f + math.log(1.0 - f))
    _require(math.isclose(float(row["variance_limit"]), limit, rel_tol=1e-12), "variance_limit differs from its formula")
    samples = int(opts["--samples"])
    _require(int(row["samples"]) == samples, "sample count not echoed")
    mc = float(row["variance_mc"])
    if samples > 0:
        _require(0.0 < mc <= cap, f"variance_mc {mc!r} out of (0, (N_A log 2)^2]")
    else:
        _require(math.isnan(mc), "variance_mc should be nan without samples")


def _check_dist(opts, N, k, rows):
    counts = [int(r["count"]) for r in rows]
    _require(len(counts) == int(opts.get("--bins", 50)), f"{len(counts)} bins")
    _require(sum(counts) == int(opts["--samples"]), f"counts sum to {sum(counts)}, not {opts['--samples']}")
    _require(float(rows[0]["bin_lo"]) == 0.0 and math.isclose(float(rows[-1]["bin_hi"]), k * LOG2), "bin range")


def _check_density(opts, N, k, rows):
    x = np.array([float(r["x"]) for r in rows])
    rho = np.array([float(r["rho"]) for r in rows])
    _require(x.size == int(opts["--points"]), f"{x.size} points")
    _require(bool(np.all(rho >= 0.0)), "negative density")
    total = float(np.trapezoid(rho, x))
    _require(abs(total - 1.0) <= DENSITY_TOL, f"density integrates to {total!r}")


def check_cdf(cdf: np.ndarray, points: int) -> None:
    """A CDF on a sorted grid ending at x = 1: monotone and ending at 1."""
    _require(cdf.shape == (points,), f"shape {cdf.shape}")
    _require(bool(np.all(np.diff(cdf) >= 0.0)), "CDF decreases")
    _require(abs(float(cdf[-1]) - 1.0) <= CDF_TOL, f"CDF ends at {cdf[-1]!r}")


def _mode_entropy(x: np.ndarray) -> float:
    p = np.clip(0.5 * (1.0 + np.concatenate([x, -x])), 0.0, 1.0)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def complement_entropy(j: np.ndarray, N: int, k: int) -> float:
    """S_B of a pure state: restrict the mode-permuted J to its first N - k modes.

    The permutation moves modes k..N-1 to the front; the paired singular
    values of the leading block come from an SVD.
    """
    modes = np.concatenate([np.arange(k, N), np.arange(k)])
    perm = np.concatenate([modes, N + modes])
    jp = j[np.ix_(perm, perm)]
    n_b = N - k
    idx = np.concatenate([np.arange(n_b), N + np.arange(n_b)])
    sv = np.linalg.svd(jp[np.ix_(idx, idx)], compute_uv=False)
    return _mode_entropy(np.clip(0.5 * (sv[0::2] + sv[1::2]), 0.0, 1.0))


def check_state(j: np.ndarray, s_a: float, N: int, k: int) -> None:
    """S_A of the chain equals S_B of the same pure state."""
    _require(0.0 <= s_a <= min(k, N - k) * LOG2 + STATE_TOL, f"S_A {s_a!r} out of range")
    s_b = complement_entropy(j, N, k)
    _require(abs(s_a - s_b) <= STATE_TOL, f"S_A {s_a!r} != S_B {s_b!r} (N={N}, N_A={k})")


def check_canonical(h: np.ndarray, m: np.ndarray, omega: np.ndarray) -> None:
    """M h M^T is the block-diagonal canonical form with descending omega >= 0."""
    n = omega.size
    canon = np.zeros_like(h)
    idx = 2 * np.arange(n)
    canon[idx, idx + 1] = omega
    canon[idx + 1, idx] = -omega
    err = float(np.max(np.abs(m @ h @ m.T - canon)))
    scale = max(1.0, float(np.max(np.abs(h))))
    _require(err <= CANONICAL_TOL * scale, f"canonical form off by {err:.2e}")
    _require(bool(np.all(omega >= 0.0) and np.all(np.diff(omega) <= 0.0)), "omega not descending and >= 0")
