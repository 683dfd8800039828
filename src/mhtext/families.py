"""The model families, each declared once.

An entry says everything the harness needs to know about one family:
its config, the featurizer it reads, how to fit it, how to score
rows, and how its fitted payload turns into JSON and back. The config
is a frozen dataclass whose fields are the hyperparameters the family
accepts, with their defaults; it applies each value rule when it is
built and raises ValueError for a value that breaks one.

Entries call solvers through their module attribute at call time
(``linear.fit_logistic(...)``), never through a function object taken
at import, so a wrapper installed on the module attribute sees every
call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

from . import gru, linear, svm, trees
from .errors import DataError, UsageError


@dataclass(frozen=True)
class Family:
    name: str
    config: type  # frozen dataclass; its fields are the accepted hyperparameters
    features: str  # the PreparedDataset featurizer it reads: "tfidf" or "vocab"
    fit: Callable  # (X, y, config, seed, dataset) -> (payload, extra)
    scores: Callable  # (payload, rows) -> (n, k) class scores
    to_dict: Callable  # payload -> serializable mapping
    from_dict: Callable  # mapping -> payload
    predict: Callable | None = None  # (payload, rows) -> labels, when not argmax(scores)

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


REGISTRY: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "logistic",
            linear.LogisticConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (linear.fit_logistic(X, y, config), {}),
            scores=lambda p, rows: linear.predict_proba(p, rows),
            to_dict=linear.to_dict,
            from_dict=linear.from_dict,
        ),
        Family(
            "svm",
            svm.SvmConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (svm.fit_svm(X, y, config, seed), {}),
            scores=lambda p, rows: svm.class_scores(p, rows),
            to_dict=svm.to_dict,
            from_dict=svm.from_dict,
            # majority vote; vote ties go to the lowest class id
            predict=lambda p, rows: svm.predict(p, rows),
        ),
        Family(
            "cart",
            trees.TreeConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (trees.fit_cart(X, y, config), {}),
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
            trees.ForestConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (trees.fit_forest(X, y, config, seed), {}),
            scores=lambda p, rows: trees.forest_scores(p, rows),
            to_dict=trees.forest_to_dict,
            from_dict=trees.forest_from_dict,
        ),
        Family(
            "gbdt",
            trees.GbdtConfig,
            "tfidf",
            fit=lambda X, y, config, seed, dataset: (trees.fit_gbdt(X, y, config), {}),
            scores=lambda p, rows: trees.predict_gbdt_proba(p, rows),
            to_dict=trees.gbdt_to_dict,
            from_dict=trees.gbdt_from_dict,
        ),
        Family(
            "gru",
            gru.GruConfig,
            "vocab",
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
