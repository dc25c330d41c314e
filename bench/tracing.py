"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

``Tracer.install`` replaces each public function of the georeg modules with a
wrapper that records a span, in every module namespace that binds the
function: ``from .linreg_core import fit`` copies the binding, so patching
``linreg_core.fit`` alone would miss the call made through ``cli.fit``.  The
``numpy.linalg`` kernels are wrapped by attribute, which georeg looks up on
every call.  ``Tracer.uninstall`` puts every original object back.

Wrappers live in this process only.  A process pool's children would run
unwrapped code, so the traced run forces the serial sweep path.

A span is ``[name, start, end, parent, shapes, returned_none]``: start and
end from ``time.perf_counter``, ``parent`` the index of the enclosing span
(-1 at top level), ``shapes`` the shapes of the array arguments (for a
function whose first argument is an ExperimentConfig, its ``(m, n_p)``).
Spans stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from pathlib import Path

LAYERS = ("config", "linreg_core", "geometry", "decomposition", "experiments", "perturbation", "svg", "cli")
FACTOR_KERNELS = ("svd", "eigh", "cholesky", "qr", "solve", "lstsq")
RATIO_BUCKETS = {"r0.25": 0.25, "r1": 1.0, "r4": 4.0}

# In cli only the entry point is wrapped, so main's self time holds the
# argument resolution and the CSV, JSON and manifest writes of the commands.
_ONLY = {"cli": ("main",)}
# Private, but wrapped: it is the one call per sweep replica, so it counts the
# replicas attempted and dropped (it returns None for a dropped one) and gives
# the spans beneath it the replica's N_p/M.  It is transparent for self time,
# so the replica reductions it runs stay in experiments.run_sweep.self_s.
_PRIVATE = {"experiments": ("_replica_metrics",)}
TRANSPARENT = frozenset({"experiments._replica_metrics"})
# Spans whose own shapes give N_p/M: the (M, N_p) of Z or of the config.
# Every other span takes N_p/M from its nearest ancestor that has one.
_RATIO_SOURCES = frozenset(
    {
        "linreg_core.fit",
        "geometry.feature_operator",
        "experiments._replica_metrics",
        "decomposition.draw_paired_replica",
        "decomposition.bias_variance_mc",
    }
)


def _shapes(args, config_type):
    if args and isinstance(args[0], config_type):
        return ((args[0].m, args[0].n_p),)
    return tuple(a.shape for a in args if hasattr(a, "shape") and hasattr(a, "dtype"))


class Tracer:
    """Records spans around georeg's public functions and numpy.linalg kernels."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock, config_type = self.spans, self._stack, time.perf_counter, self._config_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, _shapes(args, config_type), False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = out is None
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy as np

        pkg = importlib.import_module("georeg")
        modules = {layer: importlib.import_module(f"georeg.{layer}") for layer in LAYERS}
        self._config_type = modules["config"].ExperimentConfig
        namespaces = [pkg, *modules.values()]
        for layer, mod in modules.items():
            names = _ONLY.get(layer) or [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
            ]
            for fname in (*names, *_PRIVATE.get(layer, ())):
                fn = vars(mod)[fname]
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patch(ns, attr, wrapped)
        fitted = modules["linreg_core"].FittedModel
        self._patch(
            fitted, "effective_inverse",
            self._wrap("linreg_core.effective_inverse", vars(fitted)["effective_inverse"]),
        )
        for kname in (*FACTOR_KERNELS, "norm"):
            self._patch(np.linalg, kname, self._wrap(f"numpy.linalg.{kname}", getattr(np.linalg, kname)))

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, shapes, returned_none] per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "shapes", "returned_none"], "spans": self.spans}, fh)


# ------------------------------------------------------------ aggregation


class SpanTable:
    """Per-span durations, self times and N_p/M derived from a span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        self.ratio: list[float | None] = [None] * n
        self.by_name: dict[str, list[int]] = {}
        # self time = duration minus the durations of the direct children,
        # where a transparent span's children count as its parent's
        self.self_time = list(self.dur)
        for i, (name, _, _, parent, shapes, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if name in _RATIO_SOURCES and shapes and len(shapes[0]) == 2:
                self.ratio[i] = shapes[0][1] / shapes[0][0]
            elif parent >= 0:
                self.ratio[i] = self.ratio[parent]
            if name in TRANSPARENT:
                continue
            p = parent
            while p >= 0 and spans[p][0] in TRANSPARENT:
                p = spans[p][3]
            if p >= 0:
                self.self_time[p] -= self.dur[i]

    def _indices(self, names) -> list[int]:
        return [i for name in names for i in self.by_name.get(name, ())]

    def select(self, names) -> list[int]:
        """Indices of spans named in ``names`` that have no ancestor named in ``names``."""
        names = frozenset(names)
        out = []
        for i in self._indices(names):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def calls(self, names) -> int:
        return len(self._indices(names))

    def total_s(self, names) -> float:
        return math.fsum(self.dur[i] for i in self.select(names))

    def self_s(self, names) -> float:
        return math.fsum(self.self_time[i] for i in self._indices(names))

    def ms_per_call(self, name: str, ratio: float) -> tuple[float, int]:
        """Mean duration in ms of the spans named ``name`` at N_p/M = ``ratio``, and their count."""
        durs = [
            self.dur[i] for i in self.by_name.get(name, ())
            if self.ratio[i] is not None and abs(self.ratio[i] - ratio) < 1e-9
        ]
        return (1e3 * math.fsum(durs) / len(durs) if durs else 0.0), len(durs)

    def mb_in(self, names) -> float:
        """Megabytes of float64 input, computed from the recorded input shapes."""
        return math.fsum(8e-6 * math.prod(shape) for i in self.select(names) for shape in self.spans[i][4])

    def returned_none(self, name: str) -> int:
        return sum(1 for i in self.by_name.get(name, ()) if self.spans[i][5])


SAMPLE = ("linreg_core.sample_teacher", "linreg_core.sample_dataset", "linreg_core.make_feature_map")
FACTOR = tuple(f"numpy.linalg.{k}" for k in FACTOR_KERNELS)


def per_layer_metrics(table: SpanTable, passes: int) -> dict[str, tuple[float, str, str]]:
    """The per-layer metrics as name -> (value, unit, note), per traced pass.

    Counts, totals and self times are divided by ``passes``; the
    ``ms_per_call`` buckets are means over every call in the bucket.
    """
    out: dict[str, tuple[float, str, str]] = {}

    def per_pass(name, value, unit, note=""):
        out[name] = (value / passes, unit, note)

    def buckets(prefix, span_name):
        for label, ratio in RATIO_BUCKETS.items():
            ms, n = table.ms_per_call(span_name, ratio)
            out[f"{prefix}.ms_per_call.{label}"] = (ms, "ms", f"{n} calls" if n else "no calls at this N_p/M")

    fit = ("linreg_core.fit",)
    per_pass("linreg_core.fit.calls", table.calls(fit), "count")
    per_pass("linreg_core.fit.total_s", table.total_s(fit), "s")
    per_pass("linreg_core.fit.self_s", table.self_s(fit), "s")
    buckets("linreg_core.fit", "linreg_core.fit")
    per_pass("linreg_core.sample.calls", table.calls(SAMPLE), "count")
    per_pass("linreg_core.sample.total_s", table.total_s(SAMPLE), "s")
    per_pass("config.stream_rng.calls", table.calls(("config.stream_rng",)), "count")
    for fname in ("apply_features", "predict"):
        names = (f"linreg_core.{fname}",)
        per_pass(f"linreg_core.{fname}.calls", table.calls(names), "count")
        per_pass(f"linreg_core.{fname}.total_s", table.total_s(names), "s")
    per_pass("linreg_core.effective_inverse.total_s", table.total_s(("linreg_core.effective_inverse",)), "s")
    per_pass("linreg_core.training_error.total_s", table.total_s(("linreg_core.training_error",)), "s")
    for fname in ("feature_operator", "analyze_operator"):
        names = (f"geometry.{fname}",)
        per_pass(f"geometry.{fname}.calls", table.calls(names), "count")
        per_pass(f"geometry.{fname}.total_s", table.total_s(names), "s")
        buckets(f"geometry.{fname}", f"geometry.{fname}")
    per_pass("decomposition.draw_paired_replica.self_s", table.self_s(("decomposition.draw_paired_replica",)), "s")
    per_pass("decomposition.paired_projections.total_s", table.total_s(("decomposition.paired_projections",)), "s")
    per_pass("decomposition.bias_variance_mc.self_s", table.self_s(("decomposition.bias_variance_mc",)), "s")
    per_pass("experiments.run_sweep.self_s", table.self_s(("experiments.run_sweep",)), "s")
    per_pass("experiments.replicas.attempted", table.calls(("experiments._replica_metrics",)), "count")
    per_pass("experiments.replicas.dropped", table.returned_none("experiments._replica_metrics"), "count")
    per_pass("perturbation.perturbation_experiment.self_s", table.self_s(("perturbation.perturbation_experiment",)), "s")
    names = ("perturbation.decompose_perturbation",)
    per_pass("perturbation.decompose_perturbation.calls", table.calls(names), "count")
    per_pass("perturbation.decompose_perturbation.total_s", table.total_s(names), "s")
    per_pass("svg.total_s", table.total_s([n for n in table.by_name if n.startswith("svg.")]), "s")
    per_pass("cli.main.self_s", table.self_s(("cli.main",)), "s")
    per_pass("numpy.linalg.factor.calls", table.calls(FACTOR), "count")
    per_pass("numpy.linalg.factor.total_s", table.total_s(FACTOR), "s")
    per_pass("numpy.linalg.factor.mb_in", table.mb_in(FACTOR), "MB-computed", "float64 bytes of the input shapes")
    norm = ("numpy.linalg.norm",)
    per_pass("numpy.linalg.norm.calls", table.calls(norm), "count")
    per_pass("numpy.linalg.norm.total_s", table.total_s(norm), "s")
    return out
