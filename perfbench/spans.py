"""Span tracing from outside the package.

Tracing never edits evidkit. `Tracer.install` swaps names in the
`evidkit.cli` and `evidkit.network` module namespaces for timing
wrappers, so every call the CLI makes into a layer, and every call the
trainer makes into its step functions, opens a span; `uninstall` puts
the originals back. Spans live in memory as
[name, command id, parent index, start ns, end ns] and are written out
once, after the timed region.

A few counters are taken at the same boundaries, so that waste ratios
are measured where the work happens. They are cheap (a `len`, a file
size, a stored reference) and run outside the callee's own span.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# module attribute -> span name, per patched namespace
CLI_NAMES = {
    "generate_dataset": "datasets.generate_dataset",
    "save_dataset": "datasets.save_dataset",
    "load_dataset": "datasets.load_dataset",
    "samples_to_arrays": "datasets.samples_to_arrays",
    "train_model": "network.train_model",
    "finetune_head": "network.finetune_head",
    "batch_evidence": "network.batch_evidence",
    "save_checkpoint": "network.save_checkpoint",
    "load_checkpoint": "network.load_checkpoint",
    "predict_batch": "evaluation.predict_batch",
    "f1_normal": "evaluation.f1_normal",
    "f2_ciw": "evaluation.f2_ciw",
    "auroc": "evaluation.auroc",
    "aupr": "evaluation.aupr",
    "fpr_at_95_tpr": "evaluation.fpr_at_95_tpr",
    "render_report": "evaluation.render_report",
    "write_scores_csv": "evaluation.write_scores_csv",
}
NETWORK_NAMES = {
    "batch_loss_grads": "network.batch_loss_grads",
    "sgd_step": "network.sgd_step",
    "batch_nll_grad": "losses.batch_nll_grad",
}
LAYERS = ("cli", "datasets", "network", "losses", "evaluation")

# Per-layer metrics, all per pipeline iteration (median over the traced
# iterations). "<span>.s" is inclusive time, ".self_s" excludes child
# spans, ".calls" counts entries. Functions a workload never calls in
# its timed region read 0.
PER_LAYER = [
    ("cli.generate.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("cli.ood.self_s", "s"),
    ("cli.refit.self_s", "s"),
    ("network.train_model.s", "s"),
    ("network.train_model.self_s", "s"),
    ("network.finetune_head.s", "s"),
    ("network.finetune_head.self_s", "s"),
    ("network.batch_loss_grads.s", "s"),
    ("network.batch_loss_grads.calls", "count"),
    ("network.batch_loss_grads.self_s", "s"),
    ("network.sgd_step.s", "s"),
    ("network.sgd_step.calls", "count"),
    ("network.refit.grad_elems_used_ratio", "ratio"),
    ("network.batch_evidence.s", "s"),
    ("network.save_checkpoint.s", "s"),
    ("network.load_checkpoint.s", "s"),
    ("network.checkpoint.bytes", "bytes"),
    ("losses.batch_nll_grad.s", "s"),
    ("losses.batch_nll_grad.calls", "count"),
    ("datasets.generate_dataset.s", "s"),
    ("datasets.save_dataset.s", "s"),
    ("datasets.save_dataset.bytes", "bytes"),
    ("datasets.load_dataset.s", "s"),
    ("datasets.load_dataset.rows", "count"),
    ("datasets.load_dataset.rows_used_ratio", "ratio"),
    ("datasets.samples_to_arrays.s", "s"),
    ("evaluation.predict_batch.s", "s"),
    ("evaluation.auroc.s", "s"),
    ("evaluation.aupr.s", "s"),
    ("evaluation.fpr_at_95_tpr.s", "s"),
    ("evaluation.distinct_scores", "count"),
    ("evaluation.render_report.s", "s"),
    ("evaluation.write_scores_csv.s", "s"),
    ("layer.cli.self_share", "ratio"),
    ("layer.datasets.share", "ratio"),
    ("layer.network.share", "ratio"),
    ("layer.losses.share", "ratio"),
    ("layer.evaluation.share", "ratio"),
    ("pipeline.traced_s", "s"),
    ("pipeline.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("quality.auroc", "ratio"),
    ("quality.aupr", "ratio"),
    ("quality.fpr95", "ratio"),
]


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


class Tracer:
    """Collects spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # name, command id, parent, start ns, end ns
        self.command_id = 0
        self._stack: list[int] = []
        self._iter_start = 0  # first span index of the current iteration
        self._counters: dict[str, float] = defaultdict(float)
        self._scores: list[np.ndarray] = []
        self._in_refit = False
        self._saved: list[tuple[object, str, object]] = []
        self.iterations: list[dict[str, float]] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called `name`."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, self.command_id, stack[-1] if stack else -1, 0, 0]
            spans.append(record)
            stack.append(index)
            record[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter_ns()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def command(self, name: str, fn, *args):
        """Run one top-level operation as its own span and command id."""
        self.command_id += 1
        return self.span(name, fn)(*args)

    def _count(self, name, args, result):
        c = self._counters
        if name == "datasets.load_dataset":
            c["rows_parsed"] += len(result.train) + len(result.validation)
        elif name == "datasets.samples_to_arrays":
            c["rows_used"] += len(args[0])
        elif name == "datasets.save_dataset":
            d = args[1]
            c["dataset_bytes"] += _file_bytes(os.path.join(d, "train.edlset"),
                                              os.path.join(d, "val.edlset"))
        elif name == "network.save_checkpoint":
            c["checkpoint_bytes"] += _file_bytes(args[0])
        elif name == "evaluation.fpr_at_95_tpr":
            self._scores.append(args[0])
        elif self._in_refit and name == "network.batch_loss_grads":
            _, grads, g_head_w, g_head_b = result
            c["grad_elems_computed"] += (
                sum(w.size + b.size for w, b in grads) + g_head_w.size + g_head_b.size
            )
        elif self._in_refit and name == "network.sgd_step":
            c["grad_elems_applied"] += args[1].size

    def _refit_span(self, fn):
        def refit(*args, **kwargs):
            self._in_refit = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_refit = False
        return self.span("network.finetune_head", refit)

    # -- patching ------------------------------------------------------

    def install(self, cli_module, network_module) -> None:
        """Swap the traced names in both namespaces for wrappers."""
        if self._saved:
            return
        for module, names in ((cli_module, CLI_NAMES), (network_module, NETWORK_NAMES)):
            for attr, span_name in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                if span_name == "network.finetune_head":
                    setattr(module, attr, self._refit_span(original))
                else:
                    setattr(module, attr, self.span(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- per-iteration aggregation -------------------------------------

    def end_iteration(self, wall_s: float) -> None:
        """Fold the spans and counters of one traced iteration into metrics."""
        spans = self.spans[self._iter_start:]
        base = self._iter_start
        self._iter_start = len(self.spans)
        child = [0] * len(spans)
        above: list[frozenset] = []  # layers of each span's ancestors
        m: dict[str, float] = defaultdict(float)
        layer_total: dict[str, int] = defaultdict(int)
        for i, (name, _, parent, start, end) in enumerate(spans):
            dur = end - start
            local_parent = parent - base if parent >= base else -1
            if local_parent >= 0:
                child[local_parent] += dur
                above.append(above[local_parent] | {spans[local_parent][0].split(".")[0]})
            else:
                above.append(frozenset())
            layer = name.split(".")[0]
            if layer not in above[i]:
                layer_total[layer] += dur
            m[name + ".s"] += dur / 1e9
            m[name + ".calls"] += 1
        layer_self: dict[str, float] = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(spans):
            self_s = (end - start - child[i]) / 1e9
            m[name + ".self_s"] += self_s
            layer_self[name.split(".")[0]] += self_s

        c = self._counters
        m["network.checkpoint.bytes"] = c["checkpoint_bytes"]
        m["datasets.save_dataset.bytes"] = c["dataset_bytes"]
        m["datasets.load_dataset.rows"] = c["rows_parsed"]
        if c["rows_parsed"]:
            m["datasets.load_dataset.rows_used_ratio"] = c["rows_used"] / c["rows_parsed"]
        if c["grad_elems_computed"]:
            m["network.refit.grad_elems_used_ratio"] = (
                c["grad_elems_applied"] / c["grad_elems_computed"]
            )
        m["evaluation.distinct_scores"] = sum(int(np.unique(s).size) for s in self._scores)
        for layer in LAYERS[1:]:
            m[f"layer.{layer}.share"] = layer_total[layer] / 1e9 / wall_s
        m["layer.cli.self_share"] = layer_self["cli"] / wall_s
        m["pipeline.traced_s"] = wall_s
        self.iterations.append(dict(m))
        self._counters.clear()
        self._scores.clear()

    def per_layer(self, untraced_s: list[float], quality: dict[str, float]) -> dict:
        """Median of every per-layer metric over the traced iterations."""
        out = {}
        for name, unit in PER_LAYER:
            values = [it.get(name, 0.0) for it in self.iterations]
            out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        untraced = statistics.median(untraced_s)
        out["pipeline.untraced_s"]["value"] = untraced
        out["trace.overhead_s"]["value"] = out["pipeline.traced_s"]["value"] - untraced
        for key in ("auroc", "aupr", "fpr95"):
            out[f"quality.{key}"]["value"] = quality[key]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('["name", "command", "parent", "start_ns", "end_ns"]\n')
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
