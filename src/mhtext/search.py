"""Hyperparameter search over the model families.

Grid expansion is axis-major in key insertion order (the first axis
varies slowest), so a given config always enumerates candidates in the
same order. Random search draws each axis in insertion order from a
generator seeded off the experiment seed, making the sampled candidate
list reproducible.

Every candidate trains on the training split and is scored by weighted
F1 on the validation split. Failed trials are recorded with their error
and skipped; if every trial fails the search raises SearchFailedError.
Ties on the validation score keep the earliest candidate. The test
split is never touched here; evaluation happens once, downstream, for
the selected configuration.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import families
from . import features as features_mod
from . import gru as gru_mod
from .config import ExperimentConfig, PreparedDataset
from .corpus import LabelScheme
from .errors import DataError, SearchFailedError, ToolkitError, UsageError
from .metrics import EvaluationReport, evaluate_predictions, weighted_f1
from .seeds import STAGE_MODEL, STAGE_SEARCH, derive_seed

SCHEMA_VERSION = 1


def expand_grid(grid: dict) -> list[dict]:
    """All axis combinations; the first key is the outermost loop."""
    keys = list(grid)
    for key in keys:
        if not list(grid[key]):
            raise UsageError(f"grid axis {key!r} has no values")
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[k] for k in keys))
    ]


def sample_random(space: dict, n_samples: int, rng) -> list[dict]:
    """Draw n_samples candidates, one axis at a time in insertion order."""
    out = []
    for _ in range(n_samples):
        candidate = {}
        for name, spec in space.items():
            kind = spec["kind"]
            if kind == "log_uniform":
                candidate[name] = float(
                    math.exp(rng.uniform(math.log(spec["low"]), math.log(spec["high"])))
                )
            elif kind == "uniform":
                candidate[name] = float(rng.uniform(spec["low"], spec["high"]))
            elif kind == "int_range":
                candidate[name] = int(
                    rng.integers(int(spec["low"]), int(spec["high"]) + 1)
                )
            else:  # choice
                options = spec["options"]
                candidate[name] = options[int(rng.integers(len(options)))]
        out.append(candidate)
    return out


def candidate_list(config: ExperimentConfig) -> list[dict]:
    """Materialize the search space with fixed params merged in."""
    if config.mode == "grid":
        raw = expand_grid(config.grid)
    else:
        rng = np.random.default_rng(derive_seed(config.seed, STAGE_SEARCH))
        raw = sample_random(config.random, config.n_samples, rng)
    return [{**config.fixed, **cand} for cand in raw]


@dataclass
class FittedModel:
    """A trained model plus the hooks the harness needs to use it."""

    family: str
    payload: object
    scheme: LabelScheme
    tfidf: features_mod.TfIdfModel | None = None
    vocab: gru_mod.SeqVocabulary | None = None
    extra: dict = field(default_factory=dict)
    spec: families.Family = field(init=False, repr=False)

    def __post_init__(self):
        self.spec = families.get(self.family)

    def _inputs(self, dataset: PreparedDataset, split_name: str):
        """Rows of one split, refusing a dataset whose feature model is
        not the one this model was trained on."""
        if self.spec.inputs == families.SEQUENCES:
            ours, theirs, what = self.vocab, dataset.vocab, "sequence vocabularies"
            same = ours == theirs
        else:
            ours, theirs, what = self.tfidf, dataset.tfidf, "TF-IDF models"
            same = ours is theirs or features_mod.to_dict(ours) == features_mod.to_dict(theirs)
        if not same:
            raise DataError(f"model bundle and prepared dataset use different {what}")
        return self.spec.rows(dataset, split_name)

    def predict(self, dataset: PreparedDataset, split_name: str) -> np.ndarray:
        return self.predict_rows(self._inputs(dataset, split_name))

    def scores(self, dataset: PreparedDataset, split_name: str) -> np.ndarray:
        return self.score_rows(self._inputs(dataset, split_name))

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        if self.spec.predict is None:
            return np.argmax(self.spec.scores(self.payload, rows), axis=1)
        return self.spec.predict(self.payload, rows)

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        return pad_scores(self.spec.scores(self.payload, rows), self.scheme.n_classes)


def pad_scores(scores: np.ndarray, n_classes: int) -> np.ndarray:
    """Right-pad score matrices with zero columns when a model saw fewer
    classes in training than the scheme defines."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if scores.shape[1] >= n_classes:
        return scores
    padded = np.zeros((scores.shape[0], n_classes))
    padded[:, : scores.shape[1]] = scores
    return padded


def train_family(
    family: str,
    params: dict,
    dataset: PreparedDataset,
    model_seed: int = 0,
) -> FittedModel:
    """Train one model of the given family on the training split."""
    spec = families.get(family)
    payload, extra = spec.fit(
        spec.rows(dataset, "train"),
        dataset.labels_for("train"),
        spec.coerce(params),
        model_seed,
        dataset,
    )
    if spec.inputs == families.SEQUENCES:
        return FittedModel(family, payload, dataset.scheme, vocab=dataset.vocab, extra=extra)
    return FittedModel(family, payload, dataset.scheme, tfidf=dataset.tfidf, extra=extra)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    params: dict
    val_weighted_f1: float | None
    error: str | None
    seconds: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "params": dict(self.params),
            "val_weighted_f1": self.val_weighted_f1,
            "error": self.error,
            "seconds": self.seconds,
        }


@dataclass
class SearchResult:
    config: ExperimentConfig
    trials: list[TrialRecord]
    best_index: int

    @property
    def best_trial(self) -> TrialRecord:
        return self.trials[self.best_index]

    @property
    def best_params(self) -> dict:
        return dict(self.best_trial.params)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "config": self.config.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
            "best_index": self.best_index,
            "best_params": self.best_params,
            "best_val_weighted_f1": self.best_trial.val_weighted_f1,
        }


def run_search(
    dataset: PreparedDataset, config: ExperimentConfig, clock=time.perf_counter
) -> SearchResult:
    """Score every candidate on the validation split and pick the best.

    A trial that raises a toolkit or numeric error is recorded and
    skipped. The winning trial is the highest validation weighted F1,
    earliest on exact ties.
    """
    candidates = candidate_list(config)
    n_classes = dataset.scheme.n_classes
    val_labels = dataset.labels_for("validation")
    trials: list[TrialRecord] = []
    best_index = -1
    best_score = -np.inf
    for i, params in enumerate(candidates):
        start = clock()
        try:
            fitted = train_family(
                config.family, params, dataset,
                model_seed=derive_seed(config.seed, STAGE_MODEL, i),
            )
            score = weighted_f1(
                val_labels, fitted.predict(dataset, "validation"), n_classes
            )
        except (ToolkitError, ValueError, FloatingPointError) as exc:
            trials.append(TrialRecord(i, params, None, str(exc), clock() - start))
            continue
        trials.append(TrialRecord(i, params, float(score), None, clock() - start))
        if score > best_score:
            best_score = score
            best_index = i
    if best_index < 0:
        first_error = next(t.error for t in trials if t.error is not None)
        failure = SearchFailedError(
            f"all {len(trials)} trials failed; first error: {first_error}"
        )
        failure.trials = trials  # lets callers log the attempts
        raise failure
    return SearchResult(config, trials, best_index)


def refit_best(dataset: PreparedDataset, result: SearchResult) -> FittedModel:
    """Retrain the winning candidate with its original trial seed, so the
    refit model is identical to the one scored during the search."""
    return train_family(
        result.config.family,
        result.best_params,
        dataset,
        model_seed=derive_seed(result.config.seed, STAGE_MODEL, result.best_index),
    )


def evaluate_model(
    fitted: FittedModel, dataset: PreparedDataset, split_name: str
) -> EvaluationReport:
    y_true = dataset.labels_for(split_name)
    return evaluate_predictions(
        y_true,
        fitted.predict(dataset, split_name),
        fitted.scores(dataset, split_name),
        n_classes=dataset.scheme.n_classes,
    )


def save_model(fitted: FittedModel, stem: str) -> str:
    """Write a self-contained model bundle at <stem>.model.json.

    GRU weights live in sidecar files (<stem>.npz, <stem>.vocab.json)
    referenced from the bundle; classical models embed their payload and
    the TF-IDF model directly.
    """
    bundle: dict = {
        "schema_version": SCHEMA_VERSION,
        "family": fitted.family,
        "scheme": fitted.scheme.to_dict(),
        "extra": fitted.extra,
    }
    if fitted.spec.inputs == families.SEQUENCES:
        gru_mod.save(fitted.payload, fitted.vocab, stem)
        bundle["weights"] = "sidecar"
    else:
        bundle["tfidf"] = features_mod.to_dict(fitted.tfidf)
        bundle["model"] = fitted.spec.to_dict(fitted.payload)
    path = stem + ".model.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, sort_keys=True)
    return path


def load_model(stem: str) -> FittedModel:
    path = stem + ".model.json"
    try:
        with open(path, encoding="utf-8") as handle:
            bundle = json.load(handle)
        if bundle.get("schema_version") != SCHEMA_VERSION:
            raise DataError("unsupported model bundle payload")
        spec = families.get(bundle["family"])
        scheme = LabelScheme.from_dict(bundle["scheme"])
        extra = bundle.get("extra", {})
        if spec.inputs == families.SEQUENCES:
            params, vocab = gru_mod.load(stem)
            fitted = FittedModel(spec.name, params, scheme, vocab=vocab, extra=extra)
            probe = np.zeros((1, 1), dtype=np.int32)  # one PAD step
        else:
            tfidf = features_mod.from_dict(bundle["tfidf"])
            fitted = FittedModel(
                spec.name, spec.from_dict(bundle["model"]), scheme, tfidf=tfidf, extra=extra
            )
            probe = np.zeros((1, tfidf.dim))
        # a payload can decode and still be unusable, e.g. a scalar where
        # an array belongs; scoring one row of its feature space shows it
        fitted.score_rows(probe)
    except OSError as exc:
        raise DataError(f"cannot open model bundle {path!r}: {exc}") from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model bundle {path!r}: {exc}") from exc
    return fitted
