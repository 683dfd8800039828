"""The model families, each declared once.

An entry says everything the harness needs to know about one family:
the hyperparameters it accepts and the type each is coerced to, the
feature space it reads, how to fit it, how to score rows, and how its
fitted payload turns into JSON and back. Defaults live only in the
solvers' own config dataclasses and signatures: a hyperparameter that a
run leaves out is not passed at all.

Entries call solvers through their module attribute at call time
(``linear.fit_logistic(...)``), never through a function object taken
at import, so a wrapper installed on the module attribute sees every
call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gru, linear, svm, trees
from .errors import DataError, UsageError

TFIDF = "tfidf"  # dense TF-IDF rows
SEQUENCES = "sequences"  # fixed-length token id sequences


def _as_is(value):
    return value


def _int(value) -> int:
    """An integer or an integral float (100.0); bools and fractions are
    refused, not truncated."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError("expected a whole number")
    return int(value)


def _float(value) -> float:
    """A JSON number; bools and strings are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("expected a number")
    return float(value)


def _depth(value) -> int | None:
    """null or a whole number (negative means unbounded)."""
    return None if value is None else _int(value)


def _max_features(value) -> int | str | None:
    """null, "sqrt" or a whole number >= 1 (more than the feature count
    means all features)."""
    if value is None or value == "sqrt":
        return value
    value = _int(value)
    if value < 1:
        raise ValueError("expected null, \"sqrt\" or a whole number >= 1")
    return value


def _gamma(value) -> float | str:
    """'scale', 'auto' or a number >= 0 (a negative rbf gamma is no kernel)."""
    if value in ("scale", "auto"):
        return value
    value = _float(value)
    if not value >= 0.0:
        raise ValueError("expected \"scale\", \"auto\" or a number >= 0")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):  # bool("false") is True
        raise ValueError("expected true or false")
    return value


@dataclass(frozen=True)
class Family:
    name: str
    params: dict[str, Callable]  # accepted hyperparameter -> coercion
    inputs: str  # TFIDF or SEQUENCES
    fit: Callable  # (X, y, params, seed, dataset) -> (payload, extra)
    scores: Callable  # (payload, rows) -> (n, k) class scores
    to_dict: Callable  # payload -> serializable mapping
    from_dict: Callable  # mapping -> payload
    predict: Callable | None = None  # (payload, rows) -> labels, when not argmax(scores)

    def coerce(self, params: dict) -> dict:
        """Check names against the accepted set and coerce each value."""
        if not isinstance(params, dict):
            raise UsageError(f"{self.name} hyperparameters must be a JSON object")
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise UsageError(f"unknown {self.name} hyperparameters: {unknown}")
        out = {}
        for key, value in params.items():
            try:
                out[key] = self.params[key](value)
            except (TypeError, ValueError) as exc:
                raise UsageError(
                    f"bad {self.name} hyperparameter {key}={value!r}: {exc}"
                ) from None
        return out

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


_TREE_PARAMS = {
    "criterion": _as_is,
    "max_depth": _depth,
    "min_samples_split": _int,
    "min_samples_leaf": _int,
    "class_weight": _as_is,
}

REGISTRY: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "logistic",
            {"C": _float, "class_weight": _as_is, "max_iter": _int, "tol": _float},
            TFIDF,
            fit=_fit_logistic,
            scores=lambda p, rows: linear.predict_proba(p, rows),
            to_dict=linear.to_dict,
            from_dict=linear.from_dict,
        ),
        Family(
            "svm",
            {"C": _float, "kernel": _as_is, "gamma": _gamma, "degree": _int,
             "coef0": _float, "alpha": _float, "class_weight": _as_is,
             "max_epochs": _int, "tol": _float},
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
            {**_TREE_PARAMS, "n_estimators": _int, "max_features": _max_features,
             "bootstrap": _bool},
            TFIDF,
            fit=_fit_forest,
            scores=lambda p, rows: trees.forest_scores(p, rows),
            to_dict=trees.forest_to_dict,
            from_dict=trees.forest_from_dict,
        ),
        Family(
            "gbdt",
            {"n_estimators": _int, "learning_rate": _float, "num_leaves": _int,
             "min_child_samples": _int, "max_bins": _int, "max_depth": _depth,
             "class_weight": _as_is},
            TFIDF,
            fit=_fit_gbdt,
            scores=lambda p, rows: trees.predict_gbdt_proba(p, rows),
            to_dict=trees.gbdt_to_dict,
            from_dict=trees.gbdt_from_dict,
        ),
        Family(
            "gru",
            {"embedding_dim": _int, "hidden_dim": _int, "learning_rate": _float,
             "epochs": _int, "batch_size": _int, "dropout": _float,
             "class_weight": _as_is},
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
