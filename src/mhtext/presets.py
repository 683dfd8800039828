"""Ready-to-run search presets.

Each preset is a small ExperimentConfig that works out of the box on a
prepared corpus. The binary logistic setup ships in two flavors because
both are defensible on skewed data: plain (best raw accuracy) and
class-weight balanced (better minority recall). Runtimes are sized for
desk-scale corpora (a few thousand documents).
"""

from __future__ import annotations

from .config import ExperimentConfig
from .errors import UsageError


def _build() -> dict[str, ExperimentConfig]:
    return {
        "binary": ExperimentConfig(
            family="logistic",
            grid={"C": [10.0, 100.0, 1000.0]},
            fixed={"class_weight": None, "max_iter": 1000},
        ),
        "binary_balanced": ExperimentConfig(
            family="logistic",
            grid={"C": [10.0, 100.0, 1000.0]},
            fixed={"class_weight": "balanced", "max_iter": 1000},
        ),
        "multiclass": ExperimentConfig(
            family="logistic",
            grid={"C": [100.0, 1000.0], "class_weight": [None, "balanced"]},
            fixed={"max_iter": 1000},
        ),
        "svm_linear": ExperimentConfig(
            family="svm",
            grid={"C": [0.1, 1.0, 10.0]},
            fixed={"kernel": "linear", "max_epochs": 1500},
        ),
        "svm_rbf": ExperimentConfig(
            family="svm",
            grid={"C": [1.0, 10.0]},
            fixed={"kernel": "rbf", "gamma": "scale", "max_epochs": 200},
        ),
        "cart": ExperimentConfig(
            family="cart",
            grid={"max_depth": [None, 20], "min_samples_leaf": [1, 5]},
        ),
        "forest": ExperimentConfig(
            family="forest",
            grid={"n_estimators": [50, 100]},
            fixed={"max_features": "sqrt", "bootstrap": True},
        ),
        "gbdt": ExperimentConfig(
            family="gbdt",
            grid={"learning_rate": [0.1, 0.3]},
            fixed={"n_estimators": 100, "num_leaves": 31, "min_child_samples": 20},
        ),
        "gru": ExperimentConfig(
            family="gru",
            grid={"learning_rate": [5e-4, 1e-3]},
            fixed={
                "embedding_dim": 128,
                "hidden_dim": 128,
                "epochs": 3,
                "batch_size": 32,
                "dropout": 0.3,
                "class_weight": "balanced",
            },
        ),
    }


PRESETS = _build()

# Fixed per-family params for the public-corpus reproduction
# (scripts/reproduce_public_corpus.py and acceptance check 9), by label
# scheme. The kernel dual solver is quadratic in n, so at corpus scale
# the SVM runs through the primal linear path.
_PUBLIC_SVM = {"kernel": "linear", "C": 1.0, "class_weight": "balanced", "max_epochs": 2000}
PUBLIC_CORPUS_PARAMS = {
    "binary": {
        "logistic": {"C": 1000.0, "max_iter": 500},
        "svm": _PUBLIC_SVM,
        "forest": {"n_estimators": 100, "min_samples_split": 5,
                   "class_weight": "balanced"},
        "gbdt": {"n_estimators": 100, "learning_rate": 0.1, "num_leaves": 50,
                 "min_child_samples": 10},
        "gru": {"embedding_dim": 96, "hidden_dim": 128, "learning_rate": 5e-4,
                "epochs": 4, "batch_size": 64},
    },
    "multiclass": {
        "logistic": {"C": 1000.0, "class_weight": "balanced", "max_iter": 500},
        "svm": _PUBLIC_SVM,
        "forest": {"n_estimators": 200, "min_samples_leaf": 2,
                   "class_weight": "balanced"},
        "gbdt": {"n_estimators": 100, "learning_rate": 0.1, "num_leaves": 63,
                 "class_weight": "balanced"},
        "gru": {"embedding_dim": 96, "hidden_dim": 128, "learning_rate": 5e-4,
                "epochs": 5, "batch_size": 64},
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise UsageError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
