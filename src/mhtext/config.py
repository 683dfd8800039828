"""Dataset preparation and experiment configuration.

prepare_dataset turns a raw corpus CSV into everything the models and
the search harness consume: cleaned token sequences, a label scheme,
the three-way split, a TF-IDF model fit on the training split only, and
a sequence vocabulary (also training-split only). The result round-trips
through JSON so the prepare step can run once and be reused.

ExperimentConfig describes one hyperparameter search: a model family,
fixed parameters, and either a grid (lists per axis) or a random space
(distribution specs per axis).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import features
from .corpus import (
    DatasetSplit,
    LabelScheme,
    build_documents,
    load_csv,
    split_dataset,
)
from .errors import DataError, UsageError, check, check_header, read_json, real, whole, wholes
from .families import REGISTRY
from .gru import SeqVocabulary
from .report import replacing, write_json
from .seeds import STAGE_SPLIT, derive_seed

SCHEMA_VERSION = 1  # of an experiment config
# v2 stores tokens as a sorted table and base64 int32 codes
PREPARED_SCHEMA_VERSION = 2

SPLIT_NAMES = ("train", "validation", "test")

FAMILIES = tuple(REGISTRY)

_AXIS_KINDS = ("log_uniform", "uniform", "int_range", "choice")


@dataclass
class PreparedDataset:
    """A corpus after cleaning, labeling, splitting, and fitting."""

    ids: tuple[str, ...]
    docs: features.CodedDocs
    labels: np.ndarray
    scheme: LabelScheme
    split: DatasetSplit
    tfidf: features.TfIdfModel
    vocab: SeqVocabulary
    seed: int
    n_dropped: int = 0
    _rows: dict = field(default_factory=dict, repr=False)
    _fit_state: dict = field(default_factory=dict, repr=False)

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    @cached_property
    def tokens(self) -> tuple[tuple[str, ...], ...]:
        """Each document's tokens, decoded from `docs` on first use."""
        return self.docs.documents()

    def indices(self, split_name: str) -> tuple[int, ...]:
        if split_name not in SPLIT_NAMES:
            raise UsageError(f"unknown split {split_name!r}; use one of {SPLIT_NAMES}")
        return getattr(self.split, split_name)

    def labels_for(self, split_name: str) -> np.ndarray:
        return self.labels[list(self.indices(split_name))]

    def rows(self, name: str, split_name: str) -> np.ndarray:
        """The rows the featurizer `name` ("tfidf" or "vocab") gives one
        split, cached after first build."""
        key = (name, split_name)
        if key not in self._rows:
            docs = self.docs.take(self.indices(split_name))
            self._rows[key] = getattr(self, name).rows(docs)
        return self._rows[key]

    def fit_state(self, name: str) -> dict:
        """The dict kept under `name` for what fits on the train split
        derive from its rows and may share, such as the GBDT binnings; it
        is freed with the dataset."""
        return self._fit_state.setdefault(name, {})

    def to_dict(self) -> dict:
        return {
            "schema_version": PREPARED_SCHEMA_VERSION,
            "ids": list(self.ids),
            **self.docs.to_dict(),
            "labels": [int(v) for v in self.labels],
            "scheme": self.scheme.to_dict(),
            "split": self.split.to_dict(),
            "tfidf": self.tfidf.to_dict(),
            "vocab": self.vocab.to_dict(),
            "seed": self.seed,
            "n_dropped": self.n_dropped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreparedDataset":
        check_header(data, "prepared-dataset", DataError, schema_version=PREPARED_SCHEMA_VERSION)
        ids = data["ids"]
        if not (isinstance(ids, list) and all(type(i) is str for i in ids)
                and len(set(ids)) == len(ids)):
            raise DataError("ids: expected distinct strings")
        dataset = cls(
            ids=tuple(ids),
            docs=features.CodedDocs.from_dict(data),
            labels=wholes("labels", data["labels"]),
            scheme=LabelScheme.from_dict(data["scheme"]),
            split=DatasetSplit.from_dict(data["split"]),
            tfidf=features.TfIdfModel.from_dict(data["tfidf"]),
            vocab=SeqVocabulary.from_dict(data["vocab"]),
            seed=check("seed", data["seed"], whole()),
            n_dropped=check("n_dropped", data.get("n_dropped", 0), whole(at_least=0)),
        )
        # cheap shape checks, so a bad file fails here and not mid-fit
        n_docs = dataset.n_docs
        if len(dataset.docs) != n_docs or dataset.labels.shape != (n_docs,):
            raise DataError("prepared dataset needs one token count and label per id")
        if not _within(dataset.labels, dataset.scheme.n_classes):
            raise DataError("prepared dataset has labels outside its scheme")
        for name in SPLIT_NAMES:
            if not _within(np.asarray(dataset.indices(name), dtype=np.int64), n_docs):
                raise DataError(f"prepared dataset has {name} indices past its documents")
        return dataset

    def save(self, path: str) -> None:
        # json.dumps without indent runs the C encoder; json.dump never does
        with replacing(path) as handle:
            handle.write(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def load(cls, path: str) -> "PreparedDataset":
        return read_json(path, "prepared dataset", cls.from_dict)


def _within(values: np.ndarray, bound: int) -> bool:
    """One dimension, every value in [0, bound)."""
    if values.ndim != 1:
        return False
    return values.size == 0 or (values.min() >= 0 and values.max() < bound)


def prepare_dataset(
    corpus_path: str,
    scheme_kind: str = "binary",
    seed: int = 0,
    stratify: bool = False,
    drop_hashtags: bool = False,
    max_features: int = 1000,
    ngram_range=(1, 2),
    vocab_min_freq: int = 2,
    max_len: int = 64,
) -> PreparedDataset:
    """Load, clean, label, split, and fit feature models on a corpus."""
    result = load_csv(corpus_path)
    statuses = [rec.status for rec in result.records]
    if scheme_kind == "binary":
        scheme = LabelScheme.binary(statuses)
    elif scheme_kind == "multiclass":
        scheme = LabelScheme.multiclass(statuses)
    else:
        raise UsageError(f"unknown label scheme {scheme_kind!r}")
    docs = build_documents(result.records, scheme, drop_hashtags=drop_hashtags)
    labels = np.array([doc.label for doc in docs], dtype=np.int64)
    split = split_dataset(
        len(docs),
        derive_seed(seed, STAGE_SPLIT),
        stratify_labels=labels if stratify else None,
    )
    train_tokens = [docs[i].tokens for i in split.train]
    try:
        tfidf = features.fit(train_tokens, max_features=max_features, ngram_range=ngram_range)
        vocab = SeqVocabulary.build(train_tokens, min_freq=vocab_min_freq, max_len=max_len)
    except ValueError as exc:  # a setting that breaks its featurizer's rule
        raise UsageError(f"bad feature settings: {exc}") from exc
    return PreparedDataset(
        ids=tuple(doc.id for doc in docs),
        docs=features.CodedDocs.of(doc.tokens for doc in docs),
        labels=labels,
        scheme=scheme,
        split=split,
        tfidf=tfidf,
        vocab=vocab,
        seed=seed,
        n_dropped=result.dropped_empty,
    )


def _check_axis_spec(name: str, spec: dict) -> None:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError(f"axis {name!r} needs a dict with a 'kind' field")
    kind = spec["kind"]
    if kind not in _AXIS_KINDS:
        raise UsageError(f"axis {name!r} has unknown kind {kind!r}; use {_AXIS_KINDS}")
    if kind == "choice":
        options = spec.get("options")
        if not isinstance(options, list) or not options:
            raise UsageError(f"axis {name!r} needs a non-empty 'options' list")
        return
    # int_range draws whole numbers from low to high inclusive
    bound, what = (whole(), "whole-number") if kind == "int_range" else (real(), "finite numeric")
    try:
        low, high = bound(spec["low"]), bound(spec["high"])
    except (KeyError, TypeError, ValueError):
        raise UsageError(f"axis {name!r} needs {what} 'low' and 'high'") from None
    if not low < high:
        raise UsageError(f"axis {name!r} needs low < high")
    if kind == "log_uniform" and low <= 0:
        raise UsageError(f"axis {name!r} needs positive bounds for log_uniform")


@dataclass(frozen=True)
class ExperimentConfig:
    """One hyperparameter search: family, fixed params, and a space."""

    family: str
    mode: str = "grid"
    seed: int = 0
    n_samples: int = 20
    fixed: dict = field(default_factory=dict, hash=False)
    grid: dict = field(default_factory=dict, hash=False)
    random: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown model family {self.family!r}; use {FAMILIES}")
        if self.mode not in ("grid", "random"):
            raise UsageError(f"unknown search mode {self.mode!r}; use grid or random")
        if self.mode == "random" and self.n_samples < 1:
            raise UsageError("n_samples must be at least 1 for random search")
        # a hyperparameter typo fails here instead of burning a search run
        allowed = set(REGISTRY[self.family].params)
        space = self.grid if self.mode == "grid" else self.random
        for source_name, source in (("fixed", self.fixed), ("space", space)):
            unknown = sorted(set(source) - allowed)
            if unknown:
                raise UsageError(
                    f"unknown {self.family} hyperparameters in {source_name}: {unknown}"
                )
        if self.mode == "grid":
            for name, values in self.grid.items():
                if not isinstance(values, list) or not values:
                    raise UsageError(f"grid axis {name!r} needs a non-empty list")
        else:
            for name, spec in self.random.items():
                _check_axis_spec(name, spec)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family,
            "mode": self.mode,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "fixed": dict(self.fixed),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "random": {k: dict(v) for k, v in self.random.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_header(data, "experiment config", UsageError, schema_version=SCHEMA_VERSION)
        if "family" not in data:
            raise UsageError("experiment config needs a 'family' field")
        return cls(
            family=data["family"],
            mode=data.get("mode", "grid"),
            seed=check("seed", data.get("seed", 0), whole()),
            n_samples=check("n_samples", data.get("n_samples", 20), whole()),
            fixed=dict(data.get("fixed", {})),
            grid=dict(data.get("grid", {})),
            random=dict(data.get("random", {})),
        )

    def save(self, path: str) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        return read_json(path, "experiment config", cls.from_dict, error=UsageError)
