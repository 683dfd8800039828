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

import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import families
from . import features as features_mod
from . import gru as gru_mod
from .config import ExperimentConfig, PreparedDataset
from .corpus import LabelScheme
from .errors import (DataError, SearchFailedError, ToolkitError, UsageError, check, check_header,
                     read_json, whole)
from .metrics import EvaluationReport, evaluate_predictions, weighted_f1
from .report import EVALUATION_SCHEMA_VERSION, replacing
from .seeds import STAGE_MODEL, STAGE_SEARCH, derive_seed

SCHEMA_VERSION = 1
# the stem, beside best_config.json, of the winning trial's model that `tune` keeps
KEPT_STEM = "best_model"


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
    """A trained model, the featurizer it reads, and the hooks to use it."""

    family: str
    payload: object
    scheme: LabelScheme
    featurizer: features_mod.TfIdfModel | gru_mod.SeqVocabulary
    extra: dict = field(default_factory=dict)
    spec: families.Family = field(init=False, repr=False)

    def __post_init__(self):
        self.spec = families.get(self.family)

    def _inputs(self, dataset: PreparedDataset, split_name: str):
        """Rows of one split, refusing a dataset whose label scheme or
        featurizer is not the one this model was trained on."""
        if self.scheme.to_dict() != dataset.scheme.to_dict():
            raise DataError("model bundle and prepared dataset use different label schemes")
        name = self.spec.features
        theirs = getattr(dataset, name)
        if self.featurizer is not theirs and self.featurizer.to_dict() != theirs.to_dict():
            raise DataError(f"model bundle and prepared dataset use different {name!r} "
                            "featurizers")
        return dataset.rows(name, split_name)

    def infer(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and class scores of `rows` from one pass of the model;
        the scores are padded to the scheme's classes, after the labels
        are drawn from the model's own columns."""
        labels, scores = self.spec.infer(self.payload, rows)
        return labels, pad_scores(scores, self.scheme.n_classes)


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
        dataset.rows(spec.features, "train"),
        dataset.labels_for("train"),
        spec.config(**spec.check_names(params)),
        model_seed,
        dataset,
    )
    return FittedModel(family, payload, dataset.scheme, getattr(dataset, spec.features), extra)


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
    # the winning trial's model, which `tune` keeps beside its best config
    best_model: FittedModel | None = None

    @property
    def best_trial(self) -> TrialRecord:
        return self.trials[self.best_index]

    @property
    def best_params(self) -> dict:
        return dict(self.best_trial.params)

    def to_dict(self) -> dict:
        """The search log, search.json; a failed search (best_index -1)
        logs its trials without a best candidate."""
        log = {
            "schema_version": SCHEMA_VERSION,
            "status": "ok" if self.best_index >= 0 else "no successful trials",
            "config": self.config.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
        }
        if self.best_index >= 0:
            log.update(best_index=self.best_index, best_params=self.best_params,
                       best_val_weighted_f1=self.best_trial.val_weighted_f1)
        return log

    def best_config(self, prepared_sha256: str, model_sha256: list[str]) -> dict:
        """best_config.json: the winning candidate and the seed path that
        trained it, which decode_best_config reads back, and the
        inputs_sha256 key of the kept model, given the sha256 of the
        prepared file the search read and of each kept bundle file."""
        best = {
            "schema_version": SCHEMA_VERSION,
            "family": self.config.family,
            "params": self.best_params,
            "seed": self.config.seed,
            "trial_index": self.best_index,
        }
        best["inputs_sha256"] = inputs_key(best, prepared_sha256, model_sha256)
        return best


def _sha256(data: bytes) -> str:
    # imported here: loading OpenSSL would slow every CLI start by some
    # milliseconds, and only tune and train --best hash
    import hashlib

    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return _sha256(handle.read())


def code_sha256() -> str:
    """The sha256 over the name and bytes of each of the package's
    source files: any change to the code that fits a model changes it."""
    here = os.path.dirname(os.path.abspath(__file__))
    names = sorted(name for name in os.listdir(here) if name.endswith(".py"))
    return _sha256(json.dumps({name: file_sha256(os.path.join(here, name))
                               for name in names}, sort_keys=True).encode("utf-8"))


def inputs_key(best: dict, prepared_sha256: str, model_sha256: list[str]) -> str:
    """The inputs_sha256 of a best config: the sha256 of the canonical
    JSON of the config's family, params, seed and trial_index, the
    sha256 of the prepared file's bytes and of each kept bundle file,
    the package source (code_sha256) and the numpy and Python versions.
    Equal keys mean the kept bundle is, byte for byte, the one `tune`
    fitted from this config, prepared file and code."""
    fields = {name: best.get(name) for name in ("family", "params", "seed", "trial_index")}
    text = json.dumps({**fields, "prepared_sha256": prepared_sha256,
                       "model_sha256": model_sha256, "code_sha256": code_sha256(),
                       "numpy_version": np.__version__,
                       "python_version": sys.version.split()[0]},
                      sort_keys=True, separators=(",", ":"))
    return _sha256(text.encode("utf-8"))


def trial_seed(seed: int, index: int) -> int:
    """The model seed of search trial `index` (`train --family` is trial 0)."""
    return derive_seed(seed, STAGE_MODEL, index)


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
    best_model = None
    for i, params in enumerate(candidates):
        start = clock()
        try:
            fitted = train_family(config.family, params, dataset,
                                  model_seed=trial_seed(config.seed, i))
            labels, _ = fitted.infer(fitted._inputs(dataset, "validation"))
            score = weighted_f1(val_labels, labels, n_classes)
        except (ToolkitError, ValueError, FloatingPointError) as exc:
            trials.append(TrialRecord(i, params, None, str(exc), clock() - start))
            continue
        trials.append(TrialRecord(i, params, float(score), None, clock() - start))
        if score > best_score:
            best_score = score
            best_index = i
            best_model = fitted
    if best_index < 0:
        first_error = next(t.error for t in trials if t.error is not None)
        raise SearchFailedError(
            f"all {len(trials)} trials failed; first error: {first_error}",
            SearchResult(config, trials, best_index),
        )
    return SearchResult(config, trials, best_index, best_model)


def decode_best_config(data: dict) -> tuple[str, dict, int]:
    """The family, params and model seed that retrain a best config's
    candidate exactly as the search trained it."""
    check_header(data, "best config", DataError, schema_version=SCHEMA_VERSION)
    seed = trial_seed(check("seed", data.get("seed", 0), whole()),
                      check("trial_index", data.get("trial_index", 0), whole()))
    return data["family"], data.get("params", {}), seed


def evaluate_model(
    fitted: FittedModel, dataset: PreparedDataset, split_name: str
) -> EvaluationReport:
    labels, scores = fitted.infer(fitted._inputs(dataset, split_name))
    return evaluate_predictions(dataset.labels_for(split_name), labels, scores,
                                n_classes=dataset.scheme.n_classes)


def evaluation_record(family: str, dataset: PreparedDataset, split_name: str,
                      evaluation: EvaluationReport) -> dict:
    """The evaluation file: what `mhtext evaluate` writes and `report` reads."""
    return {
        "schema_version": EVALUATION_SCHEMA_VERSION,
        "family": family,
        "split": split_name,
        "n_eval": int(dataset.labels_for(split_name).size),
        "class_names": list(dataset.scheme.names),
        "scheme_kind": dataset.scheme.kind,
        "metrics": evaluation.to_dict(),
    }


def save_model(fitted: FittedModel, stem: str) -> str:
    """Write a self-contained model bundle at <stem>.model.json.

    GRU weights and vocabulary live in sidecar files (<stem>.npz,
    <stem>.vocab.json) referenced from the bundle; the models that read
    TF-IDF rows embed their payload and the TF-IDF model directly.
    """
    bundle: dict = {
        "schema_version": SCHEMA_VERSION,
        "family": fitted.family,
        "scheme": fitted.scheme.to_dict(),
        "extra": fitted.extra,
    }
    if fitted.spec.features == "vocab":
        gru_mod.save(fitted.payload, fitted.featurizer, stem)
        bundle["weights"] = "sidecar"
    else:
        bundle["tfidf"] = fitted.featurizer.to_dict()
        bundle["model"] = fitted.spec.to_dict(fitted.payload)
    path = stem + ".model.json"
    with replacing(path) as handle:
        handle.write(json.dumps(bundle, sort_keys=True))  # the C encoder; json.dump is Python
    return path


def bundle_files(stem: str, family: str) -> list[str]:
    """The files of a model bundle, in the order save_model writes them."""
    sidecars = gru_mod.SIDECARS if families.get(family).features == "vocab" else ()
    return [stem + suffix for suffix in (*sidecars, ".model.json")]


def bundle_sha256(stem: str, family: str) -> list[str]:
    return [file_sha256(path) for path in bundle_files(stem, family)]


def kept_model(best_path: str, best: dict, prepared_path: str) -> list[bytes] | None:
    """The bytes of each file of the model `tune` kept beside the best
    config read from `best_path`, when they are the bytes its fit wrote
    and refitting the config on `prepared_path` would repeat that fit:
    the recorded inputs_sha256 equals the key recomputed from the
    config, the prepared file and the kept files. None otherwise."""
    recorded = best.get("inputs_sha256")
    if not isinstance(recorded, str):
        return None
    kept = bundle_files(os.path.join(os.path.dirname(best_path), KEPT_STEM), best["family"])
    try:
        prepared_sha256 = file_sha256(prepared_path)
        contents = []
        for path in kept:
            with open(path, "rb") as handle:
                contents.append(handle.read())
    except OSError:
        return None
    key = inputs_key(best, prepared_sha256, [_sha256(data) for data in contents])
    return contents if key == recorded else None


def write_bundle(contents: list[bytes], stem: str, family: str) -> str:
    """Write the bundle files `contents` (as kept_model returns them) at
    `stem`; returns the bundle path, as save_model does."""
    paths = bundle_files(stem, family)
    for path, data in zip(paths, contents):
        with replacing(path, binary=True) as handle:
            handle.write(data)
    return paths[-1]


def load_model(stem: str) -> FittedModel:
    return read_json(stem + ".model.json", "model bundle",
                     functools.partial(_decode_bundle, stem=stem))


def _decode_bundle(bundle: dict, stem: str) -> FittedModel:
    check_header(bundle, "model bundle", DataError, schema_version=SCHEMA_VERSION)
    spec = families.get(bundle["family"])
    scheme = LabelScheme.from_dict(bundle["scheme"])
    if spec.features == "vocab":
        payload, featurizer = gru_mod.load(stem)
    else:
        featurizer = features_mod.TfIdfModel.from_dict(bundle["tfidf"])
        payload = spec.from_dict(bundle["model"])
        spec.check_width(payload, featurizer.dim)
    extra = bundle.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"extra={extra!r}: expected a JSON object")
    fitted = FittedModel(spec.name, payload, scheme, featurizer, extra)
    # a payload can decode and still be unusable, e.g. a scalar where
    # an array belongs, or score classes its scheme lacks; running it on
    # one empty document shows it
    _, scores = fitted.infer(featurizer.rows([()]))
    if scores.shape[1] != scheme.n_classes:
        raise DataError(f"the model scores {scores.shape[1]} classes; its scheme has "
                        f"{scheme.n_classes}")
    return fitted
