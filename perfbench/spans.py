"""Span tracing of srplearn's layers, installed from outside the package.

A :class:`Tracer` replaces the public functions listed in :data:`LAYERS`
with wrappers that record one span per call: layer name, start, end,
parent span and work counts taken from the call's arguments and return
value.  A wrapper replaces the function in every loaded ``srplearn``
module that holds it, so calls through ``from .x import y`` bindings
and through the package namespace are both seen.

:meth:`Tracer.end_phase` files the spans recorded so far under a phase
name, so that the spans of a workload's set-up and of its timed part
give separate totals.

Span stacks are kept per thread, so a span opened on a worker thread
never becomes the parent of a span on another thread.  A span opened on
a worker thread with an empty stack is a root; its time is then not
subtracted from the self time of the span that started the worker.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time

import numpy as np

__all__ = ["LAYERS", "Tracer", "layer_metric_names"]


def _nnz(X) -> int:
    return int(X.nnz if hasattr(X, "indptr") else np.count_nonzero(X))


def _rows(a, r):
    return r.n_samples


def _pairs(a, r):
    return int(r.values.size)


# (layer, defining module, attribute path, {count: f(bound args, result)}).
# Several functions may share a layer; a call nested inside another call
# of the same layer counts once (see Tracer.metrics).
LAYERS = (
    ("projection.generate", "srplearn.projection", "make_projection",
     {"rows": lambda a, r: r.input_dim, "nnz": lambda a, r: r.nnz}),
    ("projection.apply", "srplearn.projection", "apply_projection",
     {"nnz_in": lambda a, r: _nnz(a["X"])}),
    ("ridge.press", "srplearn.ridge", "solve_ridge_press",
     {"rows": lambda a, r: np.shape(a["H"])[0],
      "cols": lambda a, r: np.shape(a["H"])[1]}),
    ("distance.jaccard", "srplearn.distance", "jaccard_distance_matrix",
     {"pairs": _pairs}),
    ("distance.sqeuclid", "srplearn.distance",
     "squared_euclidean_distance_matrix", {"pairs": _pairs}),
    ("sparse.gram", "srplearn.sparse", "sparse_gram", {}),
    ("sparse.take_rows", "srplearn.sparse", "SparseBinaryMatrix.take_rows",
     {"rows": lambda a, r: r.n_rows}),
    ("kernel.matrix", "srplearn.kernel", "kernel_matrix", {}),
    ("kernel.krr_fit", "srplearn.kernel", "krr_fit", {}),
    ("kernel.krr_predict", "srplearn.kernel", "krr_predict", {}),
    ("kernel.krr_predict", "srplearn.kernel", "krr_predict_kernel", {}),
    ("kernel.knn", "srplearn.kernel", "knn_predict", {}),
    ("logreg.select", "srplearn.logreg", "logreg_select_lambda", {}),
    ("logreg.fit", "srplearn.logreg", "logreg_fit",
     {"iterations": lambda a, r: r.iterations}),
    ("elm.fit", "srplearn.elm", "elm_fit", {}),
    ("elm.fit", "srplearn.elm", "rvfl_fit", {}),
    ("elm.fit", "srplearn.elm", "rbf_fit", {}),
    ("elm.predict", "srplearn.elm", "model_predict", {}),
    ("datasets.synth", "srplearn.datasets", "synth_generate", {"rows": _rows}),
    ("datasets.read_svmlight", "srplearn.datasets", "read_svmlight",
     {"rows": _rows}),
    ("persistence.load", "srplearn.persistence", "load_model", {}),
    ("metrics.auc", "srplearn.metrics", "roc_auc", {}),
    ("metrics.summarize", "srplearn.metrics", "summarize", {}),
    ("matio.write", "srplearn.matio", "write_table_csv", {}),
    ("matio.write", "srplearn.matio", "write_matrix_csv", {}),
    ("matio.write", "srplearn.matio", "write_keyvalues", {}),
    ("bench", "srplearn.bench", "cmd_bench", {}),
    ("bench", "srplearn.bench", "cmd_sweep", {}),
)


def layer_metric_names() -> list:
    """Every metric :meth:`Tracer.metrics` reports, in layer order."""
    names = []
    for layer, _module, _attr, counts in LAYERS:
        for suffix in ("s", "self_s", "calls", *counts):
            if f"{layer}.{suffix}" not in names:
                names.append(f"{layer}.{suffix}")
    return names


class _Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts = None


class Tracer:
    """Records spans for the layers in :data:`LAYERS` while installed."""

    def __init__(self):
        self.spans = []
        self.phases = {}
        self._local = threading.local()

    def end_phase(self, name):
        """File the spans recorded since the last call under ``name``.

        Call it only while no span is open, between calls into srplearn.
        """
        self.phases[name], self.spans = self.spans, []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = _Span(layer, stack[-1] if stack else None)
            self.spans.append(span)  # list.append is atomic under the GIL
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts:
                bound = signature.bind(*args, **kwargs).arguments
                span.counts = {key: f(bound, result) for key, f in counts.items()}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function while the block runs, then restore."""
        replaced = []  # (owner, attribute, original)
        try:
            for layer, module_name, attr, counts in LAYERS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    setattr(owner, method, self._wrap(layer, original, counts))
                    replaced.append((owner, method, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, counts)
                for holder in _srplearn_modules():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            replaced.append((holder, name, original))
            yield self
        finally:
            for owner, name, original in reversed(replaced):
                setattr(owner, name, original)

    def metrics(self, phase=None) -> dict:
        """Per-layer totals: ``.s``, ``.self_s``, ``.calls`` and counts.

        They cover the spans of ``phase`` (see :meth:`end_phase`), or with
        no phase the spans recorded since the last phase ended.

        ``.s`` sums the durations of a layer's outermost calls (a call
        nested in a call of the same layer is inside that duration), and
        ``.calls`` and the counts sum over the same outermost calls.
        ``.self_s`` sums, over every call, its duration minus the part
        of it that its child spans cover.  Layers never called read 0.
        """
        out = {
            name: 0.0 if name.endswith((".s", ".self_s")) else 0
            for name in layer_metric_names()
        }
        spans = self.spans if phase is None else self.phases[phase]
        children = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        for span in spans:
            kids = children.get(id(span), [])
            out[f"{span.name}.self_s"] += (
                span.end - span.start - _covered(span, kids)
            )
            if _has_ancestor_named(span, span.name):
                continue
            out[f"{span.name}.s"] += span.end - span.start
            out[f"{span.name}.calls"] += 1
            for key, value in (span.counts or {}).items():
                out[f"{span.name}.{key}"] += int(value)
        return out


def _srplearn_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "srplearn" or name.startswith("srplearn."))
    ]


def _has_ancestor_named(span, name) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def _covered(span, kids) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total = 0.0
    edge = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo = max(kid.start, edge)
        hi = min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total
