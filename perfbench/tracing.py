"""Span recorder around the package's public functions, and per-layer metrics.

Tracing is done entirely from the benchmark's side: :func:`install`
replaces every public module-level function of the eight layers with a
wrapper, at every module attribute a caller looks it up in (for example
``ensembles.haar_orthogonal_batch`` as well as
``linalg.haar_orthogonal_batch``).  Each wrapper records a span
``[name, start, end, parent, request, work]``; spans stay in memory until
the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "stats", "ensembles", "linalg", "gstates", "rmt", "special", "formulas")

SAMPLERS = {
    "gaussian_entropies": "gaussian",
    "hamiltonian_eigenstate_entropies": "hamiltonian",
    "number_conserving_entropies": "number_conserving",
    "haar_pure_entropies": "haar_pure",
}
SMALL_N, LARGE_N = 16, 32  # us_per_sample.small is N <= 16, .large is N >= 32

NAME, START, END, PARENT, REQUEST, WORK = range(6)


def _work(name: str, args: tuple, result) -> dict | None:
    """Work counts of one call, computed from argument and result shapes."""
    short = name.split(".", 1)[1]
    if short == "haar_orthogonal_batch":
        return {"bytes": int(result.nbytes)}
    if short == "mode_entropy":
        return {"values": int(getattr(args[0], "size", 1))}
    if short == "wavefunctions":
        return {"evals": int(result.size)}
    if short == "unit_interval_rule":
        return {"nodes": int(args[0])}
    if short == "mc_estimate":
        return {"samples": int(args[1])}
    if short in SAMPLERS:
        return {"N": int(args[0]), "samples": int(len(result))}
    return None


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[WORK] = _work(name, args, result)
            return result

        return traced

    def install(self, package: str = "gausspage") -> None:
        """Wrap each public function of every layer in every namespace holding it."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        namespaces = modules + [importlib.import_module(package)]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_layer(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics, as totals per traced pass (zero where nothing ran)."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    sampler_time = {}
    sampler_samples = {}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        layer, short = name.split(".", 1)
        dur_ms = 1e3 * (s[END] - s[START])
        add(f"{layer}.self_ms", 1e3 * own)
        add(f"{layer}.calls", 1)
        add(f"{name}.ms", dur_ms)
        add(f"{name}.self_ms", 1e3 * own)
        add(f"{name}.calls", 1)
        work = s[WORK] or {}
        for key, value in work.items():
            if key == "nodes":
                m[f"{name}.nodes"] = max(m.get(f"{name}.nodes", 0.0), value)
            elif key != "N":
                add(f"{name}.{key}", value)
        if short in SAMPLERS:
            size = "small" if work["N"] <= SMALL_N else "large" if work["N"] >= LARGE_N else None
            if size:
                key = f"ensembles.{SAMPLERS[short]}.us_per_sample.{size}"
                sampler_time[key] = sampler_time.get(key, 0.0) + 1e3 * dur_ms
                sampler_samples[key] = sampler_samples.get(key, 0) + work["samples"]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "stats.mc_estimate":
                add("stats.chunks", 1)

    out = {key: 0.0 for key in PER_LAYER}
    for key in PER_LAYER:
        if key in sampler_time:
            out[key] = sampler_time[key] / sampler_samples[key]
        elif key.endswith(".nodes"):
            out[key] = m.get(key, 0.0)
        elif key in m:
            out[key] = m[key] / passes
    out["stats.samples"] = m.get("stats.mc_estimate.samples", 0.0) / passes
    out["trace.spans"] = len(spans) / passes
    return out


# name -> (unit, better): every per-layer metric the traced run reports.
PER_LAYER = {
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    "linalg.haar_orthogonal_batch.ms": ("ms", "lower"),
    "linalg.haar_orthogonal_batch.calls": ("count", "lower"),
    "linalg.haar_orthogonal_batch.bytes": ("bytes", "lower"),
    "linalg.haar_orthogonal.ms": ("ms", "lower"),
    "linalg.antisym_canonical.ms": ("ms", "lower"),
    "linalg.antisym_canonical.calls": ("count", "lower"),
    "gstates.mode_entropy.ms": ("ms", "lower"),
    "gstates.mode_entropy.values": ("count", "lower"),
    "gstates.restrict.ms": ("ms", "lower"),
    "gstates.restrict.calls": ("count", "lower"),
    "gstates.entropy_from_spectrum.ms": ("ms", "lower"),
    **{
        f"ensembles.{ens}.us_per_sample.{size}": ("us", "lower")
        for ens in SAMPLERS.values()
        for size in ("small", "large")
    },
    "stats.mc_estimate.self_ms": ("ms", "lower"),
    "stats.samples": ("count", "higher"),
    "stats.chunks": ("count", "lower"),
    "stats.histogram.ms": ("ms", "lower"),
    "rmt.build_kernel_ctx.ms": ("ms", "lower"),
    "rmt.average_entropy_quadrature.ms": ("ms", "lower"),
    "rmt.variance_finite_N.ms": ("ms", "lower"),
    "rmt.level_density.ms": ("ms", "lower"),
    "rmt.density_cdf.ms": ("ms", "lower"),
    "rmt.wavefunctions.calls": ("count", "lower"),
    "rmt.wavefunctions.evals": ("count", "lower"),
    "special.unit_interval_rule.nodes": ("count", "lower"),
    "special.jacobi_all.ms": ("ms", "lower"),
    "formulas.s2_closed_form.calls": ("count", "lower"),
    "formulas.s2_closed_form.ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
