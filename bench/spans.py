"""Span tracing of the sevpred layers, installed from outside the library.

A :class:`Tracer` replaces each traced function with a wrapper in the module
namespace where the caller looks it up (``sevpred.models.forward``,
``sevpred.cli.ingest_csv``, ...), so calls the library makes internally are
traced too. Each wrapper records a span: its name ``<layer>.<function>``
(the layer is the module that defines the function), its parent span, and
its start and end. Spans stay in memory; :meth:`Tracer.dump` writes them out
once the run ends. Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SPAN_COST_CALLS = 20000
LAYERS = ("dataset", "association", "preprocess", "neural", "models", "evaluation", "cli")

# (namespace, attribute) pairs: where each traced function is looked up
TRACED = {
    "cli": ("ingest_csv", "impute", "summarize", "load_schema", "association_matrix",
            "select_features", "stratified_split", "fit_one_hot", "fit_standardizer",
            "assemble", "save_feature_matrix", "save_splits", "save_preprocessor"),
    "association": ("build_contingency", "cramers_v"),
    "models": ("forward", "backward", "adam_step", "loss_weighted_ce", "loss_mse",
               "l2_term", "init_params", "init_optimizer", "confusion", "accuracy",
               "ber", "train_classifier", "train_autoencoder", "predict", "encode",
               "compute_class_weights", "build_classifier", "build_autoencoder"),
    "evaluation": ("cross_validate", "grid_search", "evaluate_predictions", "confusion",
                   "stratified_allocate"),
}


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "infer")
    return "neural.forward_train" if mode == "train" else "neural.forward_infer"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        fixed = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _forward_name(args, kwargs) if fixed == "neural.forward" else fixed
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        for module_name, attrs in TRACED.items():
            module = self.modules[module_name]
            for attr in attrs:
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
        try:
            yield
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def span_cost(self) -> float:
        """Seconds that tracing adds to one call, measured on a no-op."""
        def noop():
            return None

        traced, first = self._wrap(noop), len(self.spans)
        t0 = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        t1 = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        t2 = perf_counter()
        del self.spans[first:]
        return max((t2 - t1) - (t1 - t0), 0.0) / SPAN_COST_CALLS

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, fh)


class Profile:
    """Per-name totals over the spans under one root span."""

    def __init__(self, spans: list[list], root: int):
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # a span's self time is its duration minus that of its child spans
        self.self_time: dict[str, float] = defaultdict(float)
        self.in_training: dict[str, float] = defaultdict(float)
        sub = spans[root:]
        child_time = [0.0] * len(sub)
        training = [False] * len(sub)
        for i, (name, parent, start, end) in enumerate(sub):
            p = parent - root
            if p >= 0:
                child_time[p] += end - start
                training[i] = training[p] or sub[p][0].startswith("models.train_")
        for i, (name, parent, start, end) in enumerate(sub):
            duration = end - start
            self.total[name] += duration
            self.calls[name] += 1
            self.self_time[name] += duration - child_time[i]
            if training[i]:
                self.in_training[name] += duration
        self.wall = sub[0][3] - sub[0][2]

    def s(self, *names: str) -> float:
        return sum(self.total[n] for n in names)

    def layer_self(self, layer: str) -> float:
        return sum(v for n, v in self.self_time.items() if n.split(".", 1)[0] == layer)

    def mean_ms(self, *names: str) -> float:
        calls = sum(self.calls[n] for n in names)
        return 1000.0 * self.s(*names) / calls if calls else 0.0
