"""TF-IDF featurization over unigrams and bigrams.

The vocabulary keeps the max_features most frequent n-grams by total
corpus count (ties broken lexicographically). IDF uses add-one
smoothing, idf(t) = ln((1 + N) / (1 + df(t))) + 1, and every document
row is L2-normalized, so rows have norm 1 (or 0 when no token is in the
vocabulary). Fit on the training split only; featurizing text never
changes the model.

Rows are built in one sorted pass over all documents: every
in-vocabulary n-gram becomes a flat key row * dim + slot, and sorting
the keys gives each row's counts with its slots in ascending order.
Each row is then normalized by the square root of one dot product of
its values with themselves, in slot order. That is the same sum over
the same values in the same order as a build one document at a time,
so every row has the same bits as that build gives; a reduction that
sums in another order, such as np.add.reduceat or einsum, could change
the last bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, check_fields, whole

SCHEMA_VERSION = 1


def _ngram_range(value) -> tuple[int, int]:
    lo, hi = map(whole(at_least=1), value)
    if lo > hi:
        raise ValueError("expected 1 <= lo <= hi")
    return lo, hi


@dataclass(frozen=True)
class TfIdfModel:
    """The TF-IDF featurizer: `rows(docs)` gives one dense row per document.

    Built, fit or read back, it checks that `max_features` and `n_docs`
    are whole numbers >= 1, `ngram_range` is two with 1 <= lo <= hi, the
    terms are distinct strings and there is one idf value per term."""

    terms: tuple[str, ...]
    idf: np.ndarray
    n_docs: int
    ngram_range: tuple[int, int]
    max_features: int

    def __post_init__(self):
        check_fields(self, n_docs=whole(at_least=1), ngram_range=_ngram_range,
                     max_features=whole(at_least=1))
        terms = self.terms
        if not all(isinstance(term, str) for term in terms) or len(set(terms)) < len(terms):
            raise ValueError("terms: expected distinct strings")
        if np.shape(self.idf) != (len(terms),):
            raise ValueError(f"idf: expected {len(terms)} values, one per term")

    @cached_property
    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    @property
    def dim(self) -> int:
        return len(self.terms)

    def rows(self, docs) -> np.ndarray:
        return matrix(self, docs)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "terms": list(self.terms),
            "idf": self.idf.tolist(),
            "n_docs": self.n_docs,
            "ngram_range": list(self.ngram_range),
            "max_features": self.max_features,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TfIdfModel":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise DataError(
                f"unsupported TF-IDF model schema: {data.get('schema_version')!r}"
            )
        return cls(
            tuple(data["terms"]),
            np.array(data["idf"], dtype=np.float64),
            data["n_docs"],
            data["ngram_range"],
            data["max_features"],
        )


def ngrams(tokens, lo: int, hi: int):
    """Yield space-joined n-grams for n in [lo, hi]."""
    toks = list(tokens)
    for n in range(lo, hi + 1):
        for i in range(len(toks) - n + 1):
            yield " ".join(toks[i : i + n])


def fit(documents, max_features: int = 1000, ngram_range=(1, 2)) -> TfIdfModel:
    """Build a TF-IDF model from tokenized documents (training split only)."""
    lo, hi = ngram_range
    docs = [list(doc) for doc in documents]
    if not docs:
        raise DataError("cannot fit a TF-IDF model on an empty corpus")
    totals: Counter = Counter()
    doc_freq: Counter = Counter()
    for toks in docs:
        grams = list(ngrams(toks, lo, hi))
        totals.update(grams)
        doc_freq.update(set(grams))
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    terms = tuple(term for term, _ in ranked[:max_features])
    n_docs = len(docs)
    idf = np.array(
        [math.log((1 + n_docs) / (1 + doc_freq[t])) + 1.0 for t in terms]
    )
    return TfIdfModel(terms, idf, n_docs, ngram_range, max_features)


def matrix(model: TfIdfModel, documents) -> np.ndarray:
    """TF-IDF rows of tokenized documents as a dense (n_docs, dim) array."""
    index, dim = model.index, model.dim
    lo, hi = model.ngram_range
    keys = np.fromiter(
        (
            row * dim + slot
            for row, tokens in enumerate(documents)
            for slot in map(index.get, ngrams(tokens, lo, hi))
            if slot is not None
        ),
        dtype=np.int64,
    )
    flat, counts = np.unique(keys, return_counts=True)
    del keys  # freed before the dense output is allocated
    values = counts * model.idf[flat % dim]
    bounds = np.searchsorted(flat, np.arange(len(documents) + 1) * dim).tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        part = values[start:stop]
        norm = math.sqrt(float(part @ part))
        if norm > 0.0:
            part /= norm
    out = np.zeros((len(documents), dim))
    out.ravel()[flat] = values
    return out
