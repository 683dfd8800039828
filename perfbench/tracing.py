"""Span tracing of mhtext's public functions, from outside the program.

Each target function is replaced, for the length of one traced pass, at
the attribute its caller looks up: a name imported into another module
(``config.load_csv``) is wrapped there, a module global called from its
own module (``svm.hinge_objective``) is wrapped in that module. No
source file changes. ``Tracer.restore`` puts every original back.

A span is (name, start, end, parent). Spans stay in memory and are
written to JSON once, when the run ends. A layer is the first dotted
part of a span name; its self time is the time its spans cover minus
the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# (module or module.Class where the caller looks the name up, attribute,
#  span name). Span names are <layer>.<function> with the layer being
#  the module that defines the function.
TARGETS = (
    ("cli", "prepare_dataset", "config.prepare_dataset"),
    ("config", "load_csv", "corpus.load_csv"),
    ("config", "build_documents", "corpus.build_documents"),
    ("corpus", "clean_text", "corpus.clean_text"),
    ("corpus", "normalize", "corpus.normalize"),
    ("features", "fit", "features.fit"),
    ("features", "matrix", "features.matrix"),
    ("config.PreparedDataset", "save", "config.PreparedDataset.save"),
    ("config.PreparedDataset", "load", "config.PreparedDataset.load"),
    ("gru.SeqVocabulary", "encode_many", "gru.SeqVocabulary.encode_many"),
    ("search", "run_search", "search.run_search"),
    ("search", "train_family", "search.train_family"),
    ("search", "save_model", "search.save_model"),
    ("search", "load_model", "search.load_model"),
    ("search", "evaluate_model", "search.evaluate_model"),
    ("search", "evaluate_predictions", "metrics.evaluate_predictions"),
    ("linear", "fit_logistic", "linear.fit_logistic"),
    ("linear", "loss_and_gradient", "linear.loss_and_gradient"),
    ("linear", "predict", "linear.predict"),
    ("linear", "predict_proba", "linear.predict_proba"),
    ("svm", "fit_svm", "svm.fit_svm"),
    ("svm", "hinge_objective", "svm.hinge_objective"),
    ("svm", "hinge_subgradient", "svm.hinge_subgradient"),
    ("svm", "kernel_matrix", "svm.kernel_matrix"),
    ("svm", "predict", "svm.predict"),
    ("svm", "class_scores", "svm.class_scores"),
    ("trees", "fit_cart", "trees.fit_cart"),
    ("trees", "fit_forest", "trees.fit_forest"),
    ("trees", "fit_gbdt", "trees.fit_gbdt"),
    ("trees", "best_split", "trees.best_split"),
    ("trees", "predict_tree", "trees.predict_tree"),
    ("trees", "tree_class_scores", "trees.tree_class_scores"),
    ("trees", "predict_forest", "trees.predict_forest"),
    ("trees", "forest_scores", "trees.forest_scores"),
    ("trees", "predict_gbdt", "trees.predict_gbdt"),
    ("trees", "predict_gbdt_proba", "trees.predict_gbdt_proba"),
    ("gru", "train", "gru.train"),
    ("gru", "loss_and_gradients", "gru.loss_and_gradients"),
    ("gru", "predict", "gru.predict"),
    ("gru", "predict_scores", "gru.predict_scores"),
    ("metrics", "roc_curve", "metrics.roc_curve"),
    ("metrics", "auroc", "metrics.auroc"),
    ("report", "emit_report", "report.emit_report"),
    ("report", "write_json", "report.write_json"),
)

LAYERS = ("cli", "config", "corpus", "features", "search", "linear", "svm",
          "trees", "gru", "metrics", "report")


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _tree_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


# Counters read from a call's positional arguments and result, keyed by
# span name; each returns {counter: increment}.
def _observe_prepared_save(args, result):
    return {"config.PreparedDataset.save.bytes": _file_bytes(args[1])}


def _observe_matrix(args, result):
    return {"features.matrix.rows": len(args[1])}


def _observe_save_model(args, result):
    stem = args[1]
    return {"search.save_model.bytes":
            _file_bytes(result, stem + ".npz", stem + ".vocab.json")}


def _observe_fit_logistic(args, result):
    return {"linear.line_search.accepted": len(result.objective_trace) - 1}


def _observe_fit_gbdt(args, result):
    return {"trees.gbdt.nodes":
            sum(_tree_nodes(root) for trees in result.rounds for root in trees)}


def _observe_gru_batch(args, result):
    batch = args[1]  # encoded ids, PAD is 0
    return {"gru.timesteps": int(batch.size),
            "gru.nonpad_steps": int((batch != 0).sum())}


def _observe_write_json(args, result):
    return {"report.write_json.bytes": _file_bytes(args[1])}


OBSERVERS = {
    "config.PreparedDataset.save": _observe_prepared_save,
    "features.matrix": _observe_matrix,
    "search.save_model": _observe_save_model,
    "linear.fit_logistic": _observe_fit_logistic,
    "trees.fit_gbdt": _observe_fit_gbdt,
    "gru.loss_and_gradients": _observe_gru_batch,
    "report.write_json": _observe_write_json,
}


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                for key, value in observe(args, result).items():
                    self.counters[key] += value
            return result

        return traced

    def install(self, package) -> list[str]:
        """Wrap every target; returns the targets that could not be found."""
        missing = []
        for owner_path, attr, name in TARGETS:
            owner = package
            try:
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrapper(original.__func__, name))
            else:
                wrapped = self._wrapper(original, name)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
        return missing

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, passes: int = 1) -> dict[str, float]:
        """Inclusive seconds and calls per span name, self seconds per
        layer and counters, each per pass over `passes` traced passes,
        and the derived ratios."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name + ".s"] += end - start
            out[name + ".calls"] += 1
            out[name.split(".")[0] + ".self_s"] += (end - start) - covered
        out.update(self.counters)
        for key in out:
            out[key] /= passes
        for layer in LAYERS:
            out.setdefault(layer + ".self_s", 0.0)
        out["linear.line_search.accept_ratio"] = _ratio(
            out["linear.line_search.accepted"], out["linear.loss_and_gradient.calls"])
        out["svm.line_search.accept_ratio"] = _ratio(
            out["svm.hinge_subgradient.calls"], out["svm.hinge_objective.calls"])
        out["trees.fit_gbdt.s_per_node"] = _ratio(
            out["trees.fit_gbdt.s"], out["trees.gbdt.nodes"])
        out["gru.nonpad_share"] = _ratio(out["gru.nonpad_steps"], out["gru.timesteps"])
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                handle,
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
