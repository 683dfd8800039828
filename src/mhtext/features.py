"""TF-IDF featurization over unigrams and bigrams.

The vocabulary keeps the max_features most frequent n-grams by total
corpus count (ties broken lexicographically). IDF uses add-one
smoothing, idf(t) = ln((1 + N) / (1 + df(t))) + 1, and every document
vector is L2-normalized, so vectors have norm 1 (or 0 when no token is
in the vocabulary). Fit on the training split only; transforming text
never changes the model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SparseVector:
    """Sorted-index sparse vector; values at omitted indices are zero."""

    indices: np.ndarray  # int32, strictly increasing
    values: np.ndarray  # float64, nonzero
    dim: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        dense[self.indices] = self.values
        return dense


@dataclass(frozen=True)
class TfIdfModel:
    terms: tuple[str, ...]
    idf: np.ndarray
    n_docs: int
    ngram_range: tuple[int, int]
    max_features: int

    @property
    def index(self) -> dict[str, int]:
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {term: i for i, term in enumerate(self.terms)}
            object.__setattr__(self, "_index", cached)
        return cached

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


def transform(model: TfIdfModel, tokens) -> SparseVector:
    """Map one tokenized document to an L2-normalized TF-IDF vector."""
    index = model.index
    counts: Counter = Counter()
    for gram in ngrams(tokens, *model.ngram_range):
        slot = index.get(gram)
        if slot is not None:
            counts[slot] += 1
    if not counts:
        return SparseVector(
            np.empty(0, dtype=np.int32), np.empty(0), model.dim
        )
    indices = np.array(sorted(counts), dtype=np.int32)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    values *= model.idf[indices]
    norm = math.sqrt(float(values @ values))
    if norm > 0.0:
        values /= norm
    return SparseVector(indices, values, model.dim)


def matrix(model: TfIdfModel, documents) -> np.ndarray:
    """Stack transformed documents into a dense (n_docs, dim) array."""
    out = np.zeros((len(documents), model.dim))
    for row, tokens in enumerate(documents):
        vec = transform(model, tokens)
        out[row, vec.indices] = vec.values
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

