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

from .errors import DataError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TfIdfModel:
    terms: tuple[str, ...]
    idf: np.ndarray
    n_docs: int
    ngram_range: tuple[int, int]
    max_features: int

    @cached_property
    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    @property
    def dim(self) -> int:
        return len(self.terms)


def ngrams(tokens, lo: int, hi: int):
    """Yield space-joined n-grams for n in [lo, hi]."""
    toks = list(tokens)
    for n in range(lo, hi + 1):
        for i in range(len(toks) - n + 1):
            yield " ".join(toks[i : i + n])


def fit(documents, max_features: int = 1000, ngram_range=(1, 2)) -> TfIdfModel:
    """Build a TF-IDF model from tokenized documents (training split only)."""
    lo, hi = ngram_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad ngram_range: {ngram_range!r}")
    if max_features < 1:
        raise ValueError(f"max_features must be positive: {max_features}")
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
    return TfIdfModel(terms, idf, n_docs, (lo, hi), max_features)


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


def to_dict(model: TfIdfModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "terms": list(model.terms),
        "idf": model.idf.tolist(),
        "n_docs": model.n_docs,
        "ngram_range": list(model.ngram_range),
        "max_features": model.max_features,
    }


def from_dict(data: dict) -> TfIdfModel:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported TF-IDF model schema: {data.get('schema_version')!r}"
        )
    terms = tuple(data["terms"])
    idf = np.array(data["idf"], dtype=np.float64)
    if idf.shape != (len(terms),):
        raise DataError("TF-IDF model needs one idf value per term")
    lo, hi = data["ngram_range"]
    return TfIdfModel(
        terms,
        idf,
        int(data["n_docs"]),
        (int(lo), int(hi)),
        int(data["max_features"]),
    )

