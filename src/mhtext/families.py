"""The model families, each declared once.

An entry says everything the harness needs to know about one family:
its config, the featurizer it reads, how to fit it, how to label and
score rows in one pass, how its fitted payload turns into JSON and
back, and, for a family that reads TF-IDF rows, which payload fields
must fit the width of those rows. The config is a frozen dataclass
whose fields are the hyperparameters the family accepts, with their
defaults; it applies each value rule when it is built and raises
ValueError for a value that breaks one.

Entries call solvers through their module attribute at call time
(``linear.fit_logistic(...)``), never through a function object taken
at import, so a wrapper installed on the module attribute sees every
call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import gru, linear, svm, trees
from .errors import DataError, UsageError


@dataclass(frozen=True)
class Family:
    name: str
    config: type  # frozen dataclass; its fields are the accepted hyperparameters
    features: str  # the PreparedDataset featurizer it reads: "tfidf" or "vocab"
    fit: Callable  # (X, y, config, seed, dataset) -> (payload, extra); X, y: its train split
    infer: Callable  # (payload, rows) -> (labels, (n, k) class scores), in one pass
    to_dict: Callable  # payload -> serializable mapping
    from_dict: Callable  # mapping -> payload
    # (payload, width) -> None for a family that reads TF-IDF rows: raises
    # DataError naming a field that does not fit rows `width` features wide
    check_width: Callable | None = None

    @property
    def params(self) -> tuple[str, ...]:
        """The accepted hyperparameters, in field order."""
        return tuple(f.name for f in fields(self.config))

    def check_names(self, params: dict) -> dict:
        """`params`, once it is an object naming only accepted
        hyperparameters; the config checks the values."""
        if not isinstance(params, dict):
            raise UsageError(f"{self.name} hyperparameters must be a JSON object")
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise UsageError(f"unknown {self.name} hyperparameters: {unknown}")
        return params


def _fit_gru(X, y, config, seed, dataset):
    data = gru.GruData(
        train_x=X,
        train_y=y,
        val_x=dataset.rows("vocab", "validation"),
        val_y=dataset.labels_for("validation"),
        vocab_size=dataset.vocab.vocab_size,
        n_classes=dataset.scheme.n_classes,
    )
    history: dict = {}
    params = gru.train(data, config, seed, history)
    return params, {"history": history}


def _fit_gbdt(X, y, config, seed, dataset):
    # a dataset keeps the binnings of its train rows, so the trials of a
    # search that fit on them bin them once per max_bins
    shared = dataset is not None and X is dataset.rows("tfidf", "train")
    return trees.fit_gbdt(X, y, config, dataset.fit_state("gbdt binnings") if shared else None), {}


def _width_is(name: str, found: int, width: int) -> None:
    if found != width:
        raise DataError(f"{name}: expected {width} features, the width of the bundle's "
                        f"TF-IDF model; found {found}")


def _svm_width(model, width: int) -> None:
    for pair in model.pairs:
        if pair.w is not None:
            _width_is("w", pair.w.size, width)
        elif pair.support_vectors.size:  # an empty support set reads no feature
            _width_is("support_vectors", pair.support_vectors.shape[1], width)


def _cart_width(model, width: int) -> None:
    stack = [model.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if node.feature >= width:
            raise DataError(f"feature={node.feature}: expected a feature id below {width}, "
                            "the width of the bundle's TF-IDF model")
        stack += [node.left, node.right]


def _argmax_labels(scores: Callable) -> Callable:
    """The inference hook of a family whose label is its most probable
    class: `scores(payload, rows)` once, ties going to the lowest id."""
    def infer(payload, rows):
        class_scores = scores(payload, rows)
        return np.argmax(class_scores, axis=1), class_scores
    return infer


REGISTRY: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "logistic",
            linear.LogisticConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (linear.fit_logistic(X, y, config), {}),
            infer=_argmax_labels(lambda p, rows: linear.predict_proba(p, rows)),
            to_dict=linear.to_dict,
            from_dict=linear.from_dict,
            check_width=lambda p, width: _width_is("weights", p.weights.shape[1], width),
        ),
        Family(
            "svm",
            svm.SvmConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (svm.fit_svm(X, y, config, seed), {}),
            # majority vote, vote ties to the lowest class id, and the
            # vote-refining scores, from one set of pair margins
            infer=lambda p, rows: svm.votes_and_scores(p, rows),
            to_dict=svm.to_dict,
            from_dict=svm.from_dict,
            check_width=_svm_width,
        ),
        Family(
            "cart",
            trees.TreeConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (trees.fit_cart(X, y, config), {}),
            # the label stored in each leaf at fit time, which balanced
            # class weights can set apart from the argmax of the scores
            infer=lambda p, rows: (
                trees.predict_tree(p.root, rows),
                trees.tree_class_scores(p.root, rows, p.n_classes, p.weight_per_class),
            ),
            to_dict=trees.cart_to_dict,
            from_dict=trees.cart_from_dict,
            check_width=_cart_width,
        ),
        Family(
            "forest",
            trees.ForestConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (trees.fit_forest(X, y, config, seed), {}),
            infer=_argmax_labels(lambda p, rows: trees.forest_scores(p, rows)),
            to_dict=trees.forest_to_dict,
            from_dict=trees.forest_from_dict,
            check_width=lambda p, width: _width_is("n_features", p.n_features, width),
        ),
        Family(
            "gbdt",
            trees.GbdtConfig,
            "tfidf",
            fit=_fit_gbdt,
            infer=_argmax_labels(lambda p, rows: trees.predict_gbdt_proba(p, rows)),
            to_dict=trees.gbdt_to_dict,
            from_dict=trees.gbdt_from_dict,
            check_width=lambda p, width: _width_is("bin_upper_bounds",
                                                   len(p.bin_upper_bounds), width),
        ),
        Family(
            "gru",
            gru.GruConfig,
            "vocab",
            fit=_fit_gru,
            infer=_argmax_labels(lambda p, rows: gru.predict_scores(p, rows)),
            to_dict=gru.to_dict,
            from_dict=gru.from_dict,
        ),
    )
}


def get(name) -> Family:
    try:
        return REGISTRY[name]
    except (KeyError, TypeError):
        raise DataError(f"unknown model family {name!r}") from None
