"""The model families, each declared once.

An entry says everything the harness needs to know about one family:
the hyperparameters it accepts, the feature space it reads, how to fit
it, how to score rows, and how its fitted payload turns into JSON and
back. Defaults and value rules live only in the solvers' own configs
and signatures: a hyperparameter that a run leaves out is not passed at
all, and a value that breaks its rule raises ValueError there.

Entries call solvers through their module attribute at call time
(``linear.fit_logistic(...)``), never through a function object taken
at import, so a wrapper installed on the module attribute sees every
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gru, linear, svm, trees
from .errors import DataError, UsageError

TFIDF = "tfidf"  # dense TF-IDF rows
SEQUENCES = "sequences"  # fixed-length token id sequences


@dataclass(frozen=True)
class Family:
    name: str
    params: tuple[str, ...]  # accepted hyperparameters
    inputs: str  # TFIDF or SEQUENCES
    fit: Callable  # (X, y, params, seed, dataset) -> (payload, extra)
    scores: Callable  # (payload, rows) -> (n, k) class scores
    to_dict: Callable  # payload -> serializable mapping
    from_dict: Callable  # mapping -> payload
    predict: Callable | None = None  # (payload, rows) -> labels, when not argmax(scores)

    def check_names(self, params: dict) -> dict:
        """`params`, once it is an object naming only accepted
        hyperparameters; the solver's config checks the values."""
        if not isinstance(params, dict):
            raise UsageError(f"{self.name} hyperparameters must be a JSON object")
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise UsageError(f"unknown {self.name} hyperparameters: {unknown}")
        return params

    def rows(self, dataset, split_name: str) -> np.ndarray:
        if self.inputs == SEQUENCES:
            return dataset.sequences_for(split_name)
        return dataset.matrix_for(split_name)


def _fit_logistic(X, y, params, seed, dataset):
    return linear.fit_logistic(X, y, linear.LogisticConfig(**params)), {}


# svm hyperparameter -> KernelSpec field
_KERNEL_FIELDS = {"kernel": "kind", "gamma": "gamma", "degree": "degree",
                  "coef0": "coef0", "alpha": "alpha"}


def _fit_svm(X, y, params, seed, dataset):
    rest = dict(params)
    kernel = svm.KernelSpec(
        **{field: rest.pop(key) for key, field in _KERNEL_FIELDS.items() if key in rest}
    )
    if "C" in rest:
        rest["c_value"] = rest.pop("C")
    return svm.fit_svm(X, y, kernel=kernel, seed=seed, **rest), {}


def _fit_cart(X, y, params, seed, dataset):
    config = trees.TreeConfig(**params)
    root = trees.fit_cart(X, y, config)
    n_classes = int(y.max()) + 1
    weights = linear.class_weights(y, config.class_weight, n_classes)
    return trees.CartModel(root, config, n_classes, weights), {}


def _fit_forest(X, y, params, seed, dataset):
    return trees.fit_forest(X, y, trees.TreeConfig(**params), seed=seed), {}


def _fit_gbdt(X, y, params, seed, dataset):
    model = trees.fit_gbdt(X, y, trees.TreeConfig(**params), seed=seed)
    return model, {"train_loss": [float(v) for v in model.train_loss]}


def _fit_gru(X, y, params, seed, dataset):
    data = gru.GruData(
        train_x=X,
        train_y=y,
        val_x=dataset.sequences_for("validation"),
        val_y=dataset.labels_for("validation"),
        vocab_size=dataset.vocab.vocab_size,
        n_classes=dataset.scheme.n_classes,
    )
    history: dict = {}
    params = gru.train(data, gru.GruConfig(**params, seed=seed), history)
    return params, {"history": history}


_TREE_PARAMS = ("criterion", "max_depth", "min_samples_split", "min_samples_leaf",
                "class_weight")

REGISTRY: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "logistic",
            ("C", "class_weight", "max_iter", "tol"),
            TFIDF,
            fit=_fit_logistic,
            scores=lambda p, rows: linear.predict_proba(p, rows),
            to_dict=linear.to_dict,
            from_dict=linear.from_dict,
        ),
        Family(
            "svm",
            ("C", "kernel", "gamma", "degree", "coef0", "alpha", "class_weight",
             "max_epochs", "tol"),
            TFIDF,
            fit=_fit_svm,
            scores=lambda p, rows: svm.class_scores(p, rows),
            to_dict=svm.to_dict,
            from_dict=svm.from_dict,
            # majority vote; vote ties go to the lowest class id
            predict=lambda p, rows: svm.predict(p, rows),
        ),
        Family(
            "cart",
            _TREE_PARAMS,
            TFIDF,
            fit=_fit_cart,
            scores=lambda p, rows: trees.tree_class_scores(
                p.root, rows, p.n_classes, p.weight_per_class
            ),
            to_dict=trees.cart_to_dict,
            from_dict=trees.cart_from_dict,
            # the label stored in each leaf at fit time
            predict=lambda p, rows: trees.predict_tree(p.root, rows),
        ),
        Family(
            "forest",
            (*_TREE_PARAMS, "n_estimators", "max_features", "bootstrap"),
            TFIDF,
            fit=_fit_forest,
            scores=lambda p, rows: trees.forest_scores(p, rows),
            to_dict=trees.forest_to_dict,
            from_dict=trees.forest_from_dict,
        ),
        Family(
            "gbdt",
            ("n_estimators", "learning_rate", "num_leaves", "min_child_samples",
             "max_bins", "max_depth", "class_weight"),
            TFIDF,
            fit=_fit_gbdt,
            scores=lambda p, rows: trees.predict_gbdt_proba(p, rows),
            to_dict=trees.gbdt_to_dict,
            from_dict=trees.gbdt_from_dict,
        ),
        Family(
            "gru",
            ("embedding_dim", "hidden_dim", "learning_rate", "epochs", "batch_size",
             "dropout", "class_weight"),
            SEQUENCES,
            fit=_fit_gru,
            scores=lambda p, rows: gru.predict_scores(p, rows),
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
