"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of the dualcan modules with
wrappers that record one span per call: name, start, end, parent span and
run id. ``model`` and ``layers`` look these functions up as module globals at
call time, so nested calls (``bigru`` calling ``gru_sequence``, ``train``
calling ``encode_samples``) are seen too. ``uninstall`` puts the originals
back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from dualcan import autodiff, cli, data, interpret, layers, metrics, model

# (owner, attribute, span name); a class owner wraps a method or staticmethod
TRACED = [
    (cli, "prepare_data", "cli.prepare_data"),
    (data, "read_dataset", "data.read_dataset"),
    (data, "resolve_documents", "data.resolve_documents"),
    (data.Vocabulary, "build", "data.Vocabulary.build"),
    (data, "load_embeddings", "data.load_embeddings"),
    (data, "encode_document", "data.encode_document"),
    (autodiff.Graph, "backward", "autodiff.Graph.backward"),
    (layers, "gru_sequence", "layers.gru_sequence"),
    (layers, "bigru", "layers.bigru"),
    (layers, "co_attention", "layers.co_attention"),
    (model, "encode_samples", "model.encode_samples"),
    (model, "forward", "model.forward"),
    (model, "cross_entropy", "model.cross_entropy"),
    (model, "clip_gradients", "model.clip_gradients"),
    (model, "adam_step", "model.adam_step"),
    (model, "train", "model.train"),
    (model, "evaluate", "model.evaluate"),
    (model, "run_sample", "model.run_sample"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model, "restore_params", "model.restore_params"),
    # model imports metrics_report by name, so both bindings are wrapped
    (model, "metrics_report", "metrics.metrics_report"),
    (metrics, "metrics_report", "metrics.metrics_report"),
    (interpret, "report_entry", "interpret.report_entry"),
    (interpret, "export_heatmaps", "interpret.export_heatmaps"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id


class Tracer:
    """Records spans and per-span counters while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters = defaultdict(list)   # name -> (span index, value) per call
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, parent, tracer.run_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            if count is not None:
                for key, value in count(args, kwargs):
                    tracer.counters[key].append((index, value))
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        counts = {
            "autodiff.Graph.backward": _count_tape,
            "layers.gru_sequence": _count_keep,
        }
        for owner, attr, name in TRACED:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw, counts.get(name)))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run_id}) + "\n")

    def _roots(self) -> list:
        # parents are recorded before their children, so one pass suffices
        roots = []
        for s in self.spans:
            roots.append(s.name if s.parent is None else roots[s.parent])
        return roots

    def roots_of(self, root: str) -> set:
        """Indices of the spans under a top-level span named ``root``."""
        return {i for i, r in enumerate(self._roots()) if r == root}

    def self_times(self, root: str | None = None) -> dict:
        """name -> list of (duration, self time) per span in seconds; self
        time is the span minus the time its child spans cover. With ``root``,
        only spans under a top-level span of that name count."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        roots = self._roots()
        out = defaultdict(list)
        for i, s in enumerate(self.spans):
            if root is not None and roots[i] != root:
                continue
            duration = s.end - s.start
            out[s.name].append((duration, duration - child_time[i]))
        return out


def _count_tape(args, kwargs):
    # args[0] is the Graph: its length on entry is the tape size of the batch
    return [("autodiff.tape_nodes", len(args[0]))]


def _count_keep(args, kwargs):
    # real (keep=1) column-steps and all column-steps of one recurrence
    columns = args[0]
    keep = kwargs.get("keep", args[2] if len(args) > 2 else None)
    total = len(columns) * columns[0].shape[1] if columns else 0
    useful = total if keep is None else sum(float(k.data.sum()) for k in keep)
    return [("layers.gru_sequence.useful", useful), ("layers.gru_sequence.steps", total)]
