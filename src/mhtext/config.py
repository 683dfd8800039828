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

import numpy as np

from . import features
from .corpus import (
    DatasetSplit,
    LabelScheme,
    build_documents,
    load_csv,
    split_dataset,
)
from .errors import DataError, UsageError
from .families import REGISTRY
from .gru import SeqVocabulary
from .seeds import STAGE_SPLIT, derive_seed

SCHEMA_VERSION = 1

SPLIT_NAMES = ("train", "validation", "test")

FAMILIES = tuple(REGISTRY)

_AXIS_KINDS = ("log_uniform", "uniform", "int_range", "choice")


@dataclass
class PreparedDataset:
    """A corpus after cleaning, labeling, splitting, and fitting."""

    ids: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]
    labels: np.ndarray
    scheme: LabelScheme
    split: DatasetSplit
    tfidf: features.TfIdfModel
    vocab: SeqVocabulary
    seed: int
    n_dropped: int = 0
    _matrix_cache: dict = field(default_factory=dict, repr=False)
    _sequence_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    def indices(self, split_name: str) -> tuple[int, ...]:
        if split_name not in SPLIT_NAMES:
            raise UsageError(f"unknown split {split_name!r}; use one of {SPLIT_NAMES}")
        return getattr(self.split, split_name)

    def labels_for(self, split_name: str) -> np.ndarray:
        return self.labels[list(self.indices(split_name))]

    def matrix_for(self, split_name: str) -> np.ndarray:
        """Dense TF-IDF rows for one split, cached after first build."""
        if split_name not in self._matrix_cache:
            docs = [self.tokens[i] for i in self.indices(split_name)]
            self._matrix_cache[split_name] = features.matrix(self.tfidf, docs)
        return self._matrix_cache[split_name]

    def sequences_for(self, split_name: str) -> np.ndarray:
        if split_name not in self._sequence_cache:
            docs = [self.tokens[i] for i in self.indices(split_name)]
            self._sequence_cache[split_name] = self.vocab.encode_many(docs)
        return self._sequence_cache[split_name]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ids": list(self.ids),
            "tokens": [list(toks) for toks in self.tokens],
            "labels": [int(v) for v in self.labels],
            "scheme": self.scheme.to_dict(),
            "split": self.split.to_dict(),
            "tfidf": features.to_dict(self.tfidf),
            "vocab": self.vocab.to_dict(),
            "seed": self.seed,
            "n_dropped": self.n_dropped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreparedDataset":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise DataError("unsupported prepared-dataset payload")
        return cls(
            ids=tuple(data["ids"]),
            tokens=tuple(tuple(toks) for toks in data["tokens"]),
            labels=np.asarray(data["labels"], dtype=np.int64),
            scheme=LabelScheme.from_dict(data["scheme"]),
            split=DatasetSplit.from_dict(data["split"]),
            tfidf=features.from_dict(data["tfidf"]),
            vocab=SeqVocabulary.from_dict(data["vocab"]),
            seed=int(data["seed"]),
            n_dropped=int(data.get("n_dropped", 0)),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "PreparedDataset":
        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except OSError as exc:
            raise DataError(f"cannot open prepared dataset {path!r}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"invalid prepared dataset {path!r}: {exc}") from exc


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
    tfidf = features.fit(train_tokens, max_features=max_features, ngram_range=ngram_range)
    vocab = SeqVocabulary.build(train_tokens, min_freq=vocab_min_freq, max_len=max_len)
    return PreparedDataset(
        ids=tuple(doc.id for doc in docs),
        tokens=tuple(doc.tokens for doc in docs),
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
    try:
        low, high = float(spec["low"]), float(spec["high"])
    except (KeyError, TypeError, ValueError):
        raise UsageError(f"axis {name!r} needs numeric 'low' and 'high'") from None
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
            raise UsageError("n_samples must be positive for random search")
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
        if data.get("schema_version") != SCHEMA_VERSION:
            raise UsageError("unsupported experiment config payload")
        if "family" not in data:
            raise UsageError("experiment config needs a 'family' field")
        return cls(
            family=data["family"],
            mode=data.get("mode", "grid"),
            seed=int(data.get("seed", 0)),
            n_samples=int(data.get("n_samples", 20)),
            fixed=dict(data.get("fixed", {})),
            grid=dict(data.get("grid", {})),
            random=dict(data.get("random", {})),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except OSError as exc:
            raise UsageError(f"cannot open experiment config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid experiment config {path!r}: {exc}") from exc
