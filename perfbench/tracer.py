"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

A span records its name, start, end and the index of the span that was
open when it began. Spans are kept in memory and written out when the
operation ends. A layer's self time is its spans' duration minus the time
their direct child spans cover; calls are single-threaded, so children
never overlap.

rwsl modules bind helpers with ``from .nn import mlp_forward``, so a
wrapper has to replace the name in the module that looks it up at call
time (``rwsl.training.mlp_forward``, not ``rwsl.nn.mlp_forward``).
``PATCHES`` lists every such lookup site. Bookkeeping done by hooks runs
inside a ``trace.hook`` span, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counters = {}
        self.filter_inputs = set()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current()
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span("trace.hook"):
                    hook(self, parent, result, *args, **kwargs)
            return result
        return wrapper

    def to_json(self) -> dict:
        counters = dict(self.counters)
        counters["filters.distinct_inputs"] = len(self.filter_inputs)
        return {"spans": self.spans, "counters": counters}


# ---------------------------------------------------------------------------
# hooks: counts and computed work sizes, recorded where the work happens


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _record_filter_input(t: Tracer, g, x, cfg, extra=()) -> None:
    t.count("filters.calls")
    t.filter_inputs.add((_digest(g.row_offsets, g.col_indices, x), repr(cfg), *extra))


def _on_load_edges(t, parent, g, *args, **kwargs):
    t.count("graph.edges_parsed", g.n_edges)


def _on_exact(t, parent, result, g, x, cfg):
    t.count("filters.exact_calls")
    t.count("filters.spmm_count", cfg.hops)
    t.count("filters.exact_gflop_computed",
            2.0 * len(g.col_indices) * x.shape[1] * cfg.hops / 1e9)
    _record_filter_input(t, g, x, cfg)


def _on_randomwalk(t, parent, result, g, x, cfg, seed):
    t.count("filters.walks", g.n_nodes * cfg.effective_n_walks)
    _record_filter_input(t, g, x, cfg, (seed,))


def _on_cache_save(t, parent, result, path, *args, **kwargs):
    t.count("filters.cache_bytes", os.path.getsize(path))


def _mac_per_row(model) -> int:
    dims = model.layer_dims
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _on_forward(t, parent, result, model, x, *args, **kwargs):
    t.count("nn.forward_calls")
    t.count("nn.matmul_gflop_computed", 2.0 * x.shape[0] * _mac_per_row(model) / 1e9)


def _on_backward(t, parent, result, model, cache, output_gradient):
    # two matmuls per layer: the weight gradient and the input gradient
    t.count("nn.backward_calls")
    t.count("nn.matmul_gflop_computed",
            4.0 * output_gradient.shape[0] * _mac_per_row(model) / 1e9)


def _on_adamw(t, parent, result, *args, **kwargs):
    t.count("nn.adamw_steps")


def _on_target(t, parent, result, *args, **kwargs):
    t.count("clustering.target_refreshes")


def _on_run_pipeline(t, parent, result, *args, **kwargs):
    if parent == "pipeline.sweep":
        t.count("pipeline.sweep_runs")


# (module, attribute, span name, hook)
PATCHES = (
    ("rwsl.pipeline", "load_edge_list", "graph.load_edges", _on_load_edges),
    ("rwsl.cli", "load_edge_list", "graph.load_edges", _on_load_edges),
    ("rwsl.pipeline", "load_features", "graph.load_features", None),
    ("rwsl.cli", "load_features", "graph.load_features", None),
    ("rwsl.pipeline", "load_labels", "graph.load_labels", None),
    ("rwsl.pipeline", "augment_self_loops", "graph.augment", None),
    ("rwsl.cli", "augment_self_loops", "graph.augment", None),
    ("rwsl.pipeline", "filter_exact", "filters.exact", _on_exact),
    ("rwsl.pipeline", "filter_randomwalk", "filters.randomwalk", _on_randomwalk),
    ("rwsl.pipeline", "save_filtered_cache", "filters.cache_save", _on_cache_save),
    ("rwsl.cli", "save_filtered_cache", "filters.cache_save", _on_cache_save),
    ("rwsl.training", "mlp_forward", "nn.forward", _on_forward),
    ("rwsl.training", "mlp_backward", "nn.backward", _on_backward),
    ("rwsl.training", "adamw_step", "nn.adamw", _on_adamw),
    ("rwsl.training", "kl_divergence", "nn.kl", None),
    ("rwsl.training", "kmeans", "clustering.kmeans", None),
    ("rwsl.training", "soft_assign", "clustering.soft_assign", None),
    ("rwsl.training", "target_distribution", "clustering.target_refresh", _on_target),
    ("rwsl.pipeline", "pretrain_autoencoder", "training.pretrain", None),
    ("rwsl.pipeline", "train_rwsl", "training.cotrain", None),
    ("rwsl.pipeline", "evaluate_all", "metrics.evaluate", None),
    ("rwsl.pipeline", "loss_history_to_csv", "pipeline.write", None),
    ("rwsl.pipeline", "save_labels", "pipeline.write", None),
    ("rwsl.pipeline", "save_checkpoint", "pipeline.write", None),
    ("rwsl.pipeline", "write_metric_report_csv", "pipeline.write", None),
    ("rwsl.pipeline", "run_pipeline", "pipeline.run", _on_run_pipeline),
    ("rwsl.pipeline", "sweep_epsilon", "pipeline.sweep", None),
)


def install(tracer: Tracer) -> None:
    """Replace every lookup site in ``PATCHES`` with a recording wrapper."""
    for module_name, attr, span_name, hook in PATCHES:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), hook))


# ---------------------------------------------------------------------------
# per-layer metrics from one operation's spans and counters

# metric -> (span names, "total" for inclusive time or "self" for self time)
TIMES = {
    "graph.load_edges_s": (("graph.load_edges",), "total"),
    "graph.load_features_s": (("graph.load_features",), "total"),
    "graph.load_labels_s": (("graph.load_labels",), "total"),
    "graph.augment_s": (("graph.augment",), "total"),
    "filters.exact_s": (("filters.exact",), "total"),
    "filters.randomwalk_s": (("filters.randomwalk",), "total"),
    "filters.cache_save_s": (("filters.cache_save",), "total"),
    "nn.forward_s": (("nn.forward",), "total"),
    "nn.backward_s": (("nn.backward",), "total"),
    "nn.adamw_s": (("nn.adamw",), "total"),
    "nn.kl_s": (("nn.kl",), "total"),
    "clustering.kmeans_s": (("clustering.kmeans",), "total"),
    "clustering.soft_assign_s": (("clustering.soft_assign",), "total"),
    "clustering.target_refresh_s": (("clustering.target_refresh",), "total"),
    "training.pretrain_s": (("training.pretrain",), "total"),
    "training.cotrain_s": (("training.cotrain",), "total"),
    "training.self_s": (("training.pretrain", "training.cotrain"), "self"),
    "metrics.evaluate_s": (("metrics.evaluate",), "total"),
    "pipeline.write_s": (("pipeline.write",), "total"),
    "pipeline.self_s": (("pipeline.run", "pipeline.sweep"), "self"),
}

COUNTS = ("graph.edges_parsed", "filters.exact_calls", "filters.spmm_count",
          "filters.exact_gflop_computed", "filters.walks", "filters.cache_bytes",
          "nn.forward_calls", "nn.backward_calls", "nn.adamw_steps",
          "nn.matmul_gflop_computed", "clustering.target_refreshes",
          "pipeline.sweep_runs")


def self_times(spans) -> list:
    """Per span: duration minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """(times, counts) for one traced operation."""
    spans = trace["spans"]
    selfs = self_times(spans)
    times = {}
    for metric, (names, kind) in TIMES.items():
        times[metric] = sum(selfs[i] if kind == "self" else end - start
                            for i, (name, start, end, _parent) in enumerate(spans)
                            if name in names)
    counters = trace["counters"]
    counts = {name: counters.get(name, 0) for name in COUNTS}
    calls = counters.get("filters.calls", 0)
    counts["filters.useful_ratio"] = (counters["filters.distinct_inputs"] / calls
                                      if calls else 0.0)
    return times, counts
