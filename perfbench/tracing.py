"""Outside-in tracing of bayesdiv: spans recorded around calls into each layer.

The program is not edited.  Each traced function is replaced, for the
duration of a `Tracer` context, by a wrapper installed where its callers
look it up (for example `bayesdiv.estimators.log_weight_kl`, the name
`maximize_log_posterior` resolves when it builds its objective).  Spans
are kept in memory; `layer_metrics` turns them into per-layer busy time,
self time and work counts.
"""

import functools
import sys
import time
from collections import Counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, end, parent, request):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request


class Tracer:
    """Records spans from wrapped functions; restores them on exit.

    `request` is set by the caller to the index of the benchmark call in
    progress, so all spans of one call share it.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self.missing = []
        self._stack = []
        self._patches = []

    def patch(self, module, attr, name, counter=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result, span)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans):
    """Per span: its duration minus the part of it its children cover.

    Children are the spans whose `parent` is the span's index; their
    intervals are clipped to the parent's and merged before subtracting,
    so overlapping children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


# --- what is traced ---------------------------------------------------------

def _grid_cells(counts, args, result, span):
    counts["posterior.grid_cells"] += int(np.size(result)) * len(args[0].nu)


def _weight_points(counts, args, result, span):
    if np.ndim(result) == 0:
        counts["hyperprior.log_weight.scalar_calls"] += 1
    else:
        counts["hyperprior.grid_points"] += int(np.size(result))
        counts["hyperprior.log_weight.grid_ms"] += 1e3 * (span.end - span.start)


def _quadrature_nodes(counts, args, result, span):
    diag = getattr(result, "diagnostics", None) or {}
    bins_a = int(diag.get("grid_bins_alpha", 0))
    bins_b = int(diag.get("grid_bins_beta", 0))
    counts["estimators.quadrature_nodes"] += bins_a * bins_b if bins_b else bins_a


def _table_rows(counts, args, result, span):
    counts["counts.table_rows"] += len(result.nu)


_ESTIMATE_FRONT_ENDS = (
    "estimate_dkl_dpm", "estimate_hellinger_dpm", "estimate_dkl_dp",
    "estimate_hellinger_dp", "estimate_dkl_plugin",
    "estimate_hellinger_plugin", "estimate_dkl_zhang", "estimate_entropy_nsb",
)

# (bayesdiv submodule, names bound there, span name, counter).  The
# special functions are wrapped in every module that imports them.
INSTRUMENTS = tuple(
    (module, (attr,), f"specfun.{attr}", None)
    for module in ("specfun", "posterior", "hyperprior")
    for attr in ("delta_psi", "trigamma")
) + (
    ("estimators", ("log_evidence", "log_evidence_gradient"),
     "posterior.scalar", None),
    ("estimators", ("log_evidence_grid",), "posterior.grid", None),
    ("estimators", ("dkl_grid", "dkl_squared_grid", "hellinger_sq_grid",
                    "entropy_grid"), "posterior.grid", _grid_cells),
    ("posterior", ("dkl_grid", "hellinger_sq_grid", "entropy_grid"),
     "posterior.grid", _grid_cells),
    ("estimators", ("log_weight_kl", "log_weight_hellinger",
                    "prior_entropy_slope"), "hyperprior.log_weight",
     _weight_points),
    ("estimators", ("maximize_log_posterior",), "estimators.maximize", None),
    ("estimators", _ESTIMATE_FRONT_ENDS, "estimators.estimate",
     _quadrature_nodes),
    ("counts", ("build_table",), "counts.build_table", _table_rows),
    ("estimators", ("build_table",), "counts.build_table", _table_rows),
    ("benchmark", ("build_table",), "counts.build_table", _table_rows),
    ("cli", ("load_count_files",), "counts.load_count_files", None),
    ("synth", ("sample_dirichlet", "sample_multinomial", "sample_lgrams"),
     "synth.sample", None),
    ("synth", ("exact_dkl", "exact_hellinger_sq", "markov_entropy",
               "markov_crossentropy", "lgram_distribution"),
     "synth.exact", None),
    ("benchmark", ("run_convergence",), "benchmark.run_convergence", None),
    ("cli", ("main",), "cli.main", None),
)


def instrument(tracer, package="bayesdiv"):
    """Wrap every traced name of an imported bayesdiv package."""
    for module_name, attrs, name, counter in INSTRUMENTS:
        module = sys.modules[f"{package}.{module_name}"]
        for attr in attrs:
            tracer.patch(module, attr, name, counter)


# --- per-layer metrics ------------------------------------------------------

# metric name -> unit.  Counts are deterministic for a fixed seed.
LAYER_METRICS = {
    "specfun.delta_psi.calls": "count",
    "specfun.delta_psi.self_ms": "ms",
    "specfun.trigamma.self_ms": "ms",
    "posterior.scalar_evals": "count",
    "posterior.scalar.self_ms": "ms",
    "posterior.grid.self_ms": "ms",
    "posterior.grid_cells": "count",
    "hyperprior.log_weight.scalar_calls": "count",
    "hyperprior.log_weight.self_ms": "ms",
    "hyperprior.log_weight.grid_ms": "ms",
    "hyperprior.grid_points": "count",
    "estimators.maximize.calls": "count",
    "estimators.maximize.ms": "ms",
    "estimators.quadrature_nodes": "count",
    "estimators.self_ms": "ms",
    "counts.load_count_files.ms": "ms",
    "counts.build_table.ms": "ms",
    "counts.table_rows": "count",
    "synth.sample.ms": "ms",
    "synth.exact.ms": "ms",
    "benchmark.run_convergence.ms": "ms",
    "cli.main.ms": "ms",
    "cli.self_ms": "ms",
}

COUNT_METRICS = tuple(k for k, unit in LAYER_METRICS.items() if unit == "count")


def span_totals(tracer):
    """{span name: (calls, total ms, self ms)}."""
    selfs = self_times(tracer.spans)
    out = {}
    for span, own in zip(tracer.spans, selfs):
        calls, total, self_ms = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (calls + 1,
                          total + 1e3 * (span.end - span.start),
                          self_ms + 1e3 * own)
    return out


def layer_metrics(tracer):
    """Every LAYER_METRICS entry from one traced pass."""
    totals = span_totals(tracer)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    values = {
        "specfun.delta_psi.calls": calls("specfun.delta_psi"),
        "specfun.delta_psi.self_ms": own("specfun.delta_psi"),
        "specfun.trigamma.self_ms": own("specfun.trigamma"),
        "posterior.scalar_evals": calls("posterior.scalar"),
        "posterior.scalar.self_ms": own("posterior.scalar"),
        "posterior.grid.self_ms": own("posterior.grid"),
        "hyperprior.log_weight.self_ms": own("hyperprior.log_weight"),
        "estimators.maximize.calls": calls("estimators.maximize"),
        "estimators.maximize.ms": total("estimators.maximize"),
        "estimators.self_ms": own("estimators.maximize") + own("estimators.estimate"),
        "counts.load_count_files.ms": total("counts.load_count_files"),
        "counts.build_table.ms": total("counts.build_table"),
        "synth.sample.ms": total("synth.sample"),
        "synth.exact.ms": total("synth.exact"),
        "benchmark.run_convergence.ms": total("benchmark.run_convergence"),
        "cli.main.ms": total("cli.main"),
        "cli.self_ms": own("cli.main"),
    }
    for name in ("posterior.grid_cells", "hyperprior.log_weight.scalar_calls",
                 "hyperprior.log_weight.grid_ms",
                 "hyperprior.grid_points", "estimators.quadrature_nodes",
                 "counts.table_rows"):
        values[name] = tracer.counts[name]
    return {name: values[name] for name in LAYER_METRICS}


def grid_ms(tracer):
    """Time under the grid evaluations: posterior grids and the hyperprior weight on arrays."""
    return (span_totals(tracer).get("posterior.grid", (0, 0.0, 0.0))[1]
            + tracer.counts["hyperprior.log_weight.grid_ms"])


def layer_split(tracer, wall_ms):
    """Share of a pass's wall time spent as self time in each layer."""
    by_layer = Counter()
    for name, (_, _, own) in span_totals(tracer).items():
        by_layer[name.split(".")[0]] += own
    split = {layer: ms / wall_ms for layer, ms in sorted(by_layer.items())}
    split["untraced"] = 1.0 - sum(split.values())
    return split
