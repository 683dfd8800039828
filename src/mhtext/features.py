"""TF-IDF featurization over word n-grams (unigrams and bigrams by default).

The vocabulary keeps the max_features n-grams with the largest total
count in the training split, ties broken by term string order. IDF
uses add-one smoothing, idf(t) = ln((1 + N) / (1 + df(t))) + 1, and
every document row is L2-normalized, so rows have norm 1 (or 0 when no
token is in the vocabulary). Fit on the training split only;
featurizing text never changes the model. Fitting counts n-gram
strings; building rows works on integers.

Rows are built from interned codes. A model interns its vocabulary once
(`TfIdfModel.grams`): each distinct token of its terms gets a code, and
the terms' n-token prefixes are ranked level by level, the key of an
n-token prefix being the rank of its (n-1)-token prefix times the number
of codes plus the code of its last token. Keys therefore stay below
len(terms) * codes whatever the n-gram range. `matrix` looks each token
occurrence of the split up once, then finds its n-grams one length at a
time with one np.searchsorted against that level's keys, never joining
an n-gram string. Each in-vocabulary n-gram becomes a flat key
row * dim + slot.

Why the bits are those of the string lookup: a prepared dataset's
tokens are non-empty and hold no whitespace, and each term is lo to hi
such tokens joined by single spaces, so a space-joined n-gram equals a
term exactly when its token sequence equals the term's, which is when
the interned lookup finds it. The keys are the same integer multiset,
and everything after them is unchanged: sorting the keys (np.unique)
gives each row's counts with its slots in ascending order, and each row
is normalized by the square root of one dot product of its values with
themselves, in slot order. That is the same sum over the same values in
the same order as a build one document at a time; a reduction that sums
in another order, such as np.add.reduceat or einsum, could change the
last bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, check_fields, finite, whole

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
    terms are distinct strings of lo to hi tokens joined by single
    spaces, and there is one finite idf value per term."""

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
        lo, hi = self.ngram_range
        for term in terms:
            tokens = term.split()
            if not lo <= len(tokens) <= hi or " ".join(tokens) != term:
                raise ValueError(f"terms: {term!r} is not {lo} to {hi} tokens joined by "
                                 "single spaces")
        if np.shape(self.idf) != (len(terms),):
            raise ValueError(f"idf: expected {len(terms)} values, one per term")
        finite("idf", self.idf)

    @cached_property
    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    @cached_property
    def grams(self) -> tuple[dict[str, int], list[tuple[np.ndarray, np.ndarray]]]:
        """The interned vocabulary `matrix` looks n-grams up in: a code
        per distinct token of the terms, and per n from 1 to hi the
        sorted keys of the terms' distinct n-token prefixes with each
        prefix's slot, or -1 where the prefix is no term. A 1-token
        prefix's key is its code; an n-token prefix's key is
        rank * n_codes + code, with `rank` the place of its (n-1)-token
        prefix among that level's keys, so no key reaches
        len(terms) * n_codes."""
        tokens = " ".join(self.terms).split(" ") if self.terms else []
        code_of = {token: code for code, token in enumerate(dict.fromkeys(tokens))}
        codes = np.fromiter(map(code_of.__getitem__, tokens), dtype=np.int64,
                            count=len(tokens))
        n_codes = len(code_of)
        lengths = np.array([term.count(" ") + 1 for term in self.terms], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        ranks = codes[starts]
        tables = []
        for n in range(1, self.ngram_range[1] + 1):
            longer = np.flatnonzero(lengths >= n)
            if n > 1:
                keys = ranks[longer] * n_codes + codes[starts[longer] + n - 1]
                prefixes = np.unique(keys)
                ranks[longer] = np.searchsorted(prefixes, keys)
            else:
                prefixes = np.arange(n_codes, dtype=np.int64)
            slot_of = np.full(len(prefixes), -1, dtype=np.int64)
            exact = np.flatnonzero(lengths == n)
            slot_of[ranks[exact]] = exact
            tables.append((prefixes, slot_of))
        return code_of, tables

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
    dim = model.dim
    keys = _keys(model, documents)
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


def _keys(model: TfIdfModel, documents) -> np.ndarray:
    """One key row * dim + slot per in-vocabulary n-gram of `documents`,
    found through the model's interned tables; its temporaries are freed
    when it returns."""
    lengths = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
    n_tokens = int(lengths.sum())
    if n_tokens == 0:
        return np.zeros(0, dtype=np.int64)
    code_of, tables = model.grams
    get = code_of.get
    codes = np.fromiter((get(tok, -1) for doc in documents for tok in doc),
                        dtype=np.int64, count=n_tokens)
    rows = np.repeat(np.arange(len(documents), dtype=np.int64), lengths)
    lo = model.ngram_range[0]
    n_codes = len(code_of)
    parts = []
    ranks = codes  # rank of the n-token prefix starting at each position
    for n, (prefixes, slot_of) in enumerate(tables, start=1):
        if n > n_tokens or len(prefixes) == 0:
            break
        if n > 1:
            size = n_tokens - n + 1
            prev, last = ranks[:size], codes[n - 1:]
            key = prev * n_codes + last
            at = np.searchsorted(prefixes, key).clip(max=len(prefixes) - 1)
            known = ((prev >= 0) & (last >= 0) & (rows[:size] == rows[n - 1:])
                     & (prefixes[at] == key))
            ranks = np.where(known, at, -1)
        if n >= lo:
            slots = np.where(ranks >= 0, slot_of[ranks], -1)
            hit = slots >= 0
            parts.append(rows[:len(slots)][hit] * model.dim + slots[hit])
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
