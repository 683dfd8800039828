"""TF-IDF featurization over word n-grams (unigrams and bigrams by default).

The vocabulary keeps the max_features n-grams with the largest total
count in the training split, ties broken by term string order. IDF
uses add-one smoothing, idf(t) = ln((1 + N) / (1 + df(t))) + 1, and
every document row is L2-normalized, so rows have norm 1 (or 0 when no
token is in the vocabulary). Fit on the training split only;
featurizing text never changes the model. Fitting counts n-gram
strings; building rows works on integers.

Rows are built from coded documents (`CodedDocs`): a sorted table of
the distinct tokens, every token occurrence as a code into it, and each
document's token count. A model interns its vocabulary once
(`TfIdfModel.grams`): each distinct token of its terms gets a code, and
the terms' n-token prefixes are ranked level by level, the key of an
n-token prefix being the rank of its (n-1)-token prefix times the number
of codes plus the code of its last token. Keys therefore stay below
len(terms) * codes whatever the n-gram range. `matrix` looks each table
entry up once, maps every occurrence through that lookup by numpy
indexing, then finds the n-grams one length at a time with one
np.searchsorted against that level's keys, never joining an n-gram
string. Each in-vocabulary n-gram becomes a flat key row * dim + slot.
Token lists are interned into a `CodedDocs` first, so both inputs take
the one path.

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

import base64
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, check_fields, check_header, finite, whole, wholes

SCHEMA_VERSION = 1


def _ngram_range(value) -> tuple[int, int]:
    lo, hi = map(whole(at_least=1), value)
    if lo > hi:
        raise ValueError("expected 1 <= lo <= hi")
    return lo, hi


@dataclass(frozen=True)
class CodedDocs:
    """Tokenized documents as codes: `table` holds the distinct tokens in
    ascending order, `codes` every occurrence of every document in order
    as an index into it, and `counts` each document's number of tokens."""

    table: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    @classmethod
    def of(cls, docs) -> "CodedDocs":
        """`docs` itself when already coded, else its token lists interned."""
        if isinstance(docs, cls):
            return docs
        docs = [tuple(doc) for doc in docs]
        table = tuple(sorted(set().union(*docs)))
        code_of = {token: code for code, token in enumerate(table)}
        counts = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
        codes = np.fromiter((code_of[token] for doc in docs for token in doc),
                            dtype=np.int32, count=int(counts.sum()))
        return cls(table, codes, counts)

    def take(self, indices) -> "CodedDocs":
        """The documents at `indices`, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        counts = self.counts[indices]
        starts = (np.cumsum(self.counts) - self.counts)[indices]
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return CodedDocs(self.table, self.codes[np.arange(len(shift)) + shift], counts)

    def lookup(self, mapping: dict, default: int) -> np.ndarray:
        """`mapping` applied to every occurrence, with one lookup per
        table entry; a token it lacks maps to `default`."""
        get = mapping.get
        table = np.fromiter((get(token, default) for token in self.table), dtype=np.int64,
                            count=len(self.table))
        return table[self.codes]

    def documents(self) -> tuple[tuple[str, ...], ...]:
        """Each document's tokens, decoded."""
        words = [self.table[code] for code in self.codes.tolist()]
        ends = np.cumsum(self.counts).tolist()
        return tuple(tuple(words[end - n:end]) for end, n in zip(ends, self.counts.tolist()))

    def to_dict(self) -> dict:
        return {
            "token_table": list(self.table),
            "token_codes": base64.b64encode(self.codes.astype("<i4").tobytes()).decode("ascii"),
            "token_counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CodedDocs":
        """The three token fields of a prepared dataset, each refusal a
        DataError naming its field: `token_table` strictly ascending
        tokens, `token_codes` standard base64 of little-endian int32
        codes below len(token_table), and `token_counts` whole numbers
        >= 0 that sum to the number of codes."""
        table = data["token_table"]
        if not isinstance(table, list):
            raise DataError("token_table: expected a list of tokens")
        # a token is a non-empty string without whitespace, so n-grams
        # join with single spaces and split back one way
        for token in table:
            if not (isinstance(token, str) and token.split() == [token]):
                raise DataError(f"token_table: {token!r} is not a non-empty string "
                                "without whitespace")
        if any(a >= b for a, b in zip(table, table[1:])):
            raise DataError("token_table: expected distinct tokens in ascending order")
        text = data["token_codes"]
        if not isinstance(text, str):
            raise DataError("token_codes: expected a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise DataError(f"token_codes: not standard base64 ({exc})") from None
        if len(raw) % 4:
            raise DataError(f"token_codes: {len(raw)} bytes is not a whole number of "
                            "4-byte codes")
        codes = np.frombuffer(raw, dtype="<i4")
        if codes.size and not (codes.min() >= 0 and codes.max() < len(table)):
            raise DataError(f"token_codes: expected codes from 0 to {len(table) - 1}, one per "
                            "token_table entry")
        counts = wholes("token_counts", data["token_counts"])
        # bounded first, so the sum cannot wrap around
        if ((counts.size and (counts.min() < 0 or counts.max() > codes.size))
                or counts.sum() != codes.size):
            raise DataError(f"token_counts: expected counts >= 0 that sum to the {codes.size} "
                            "token_codes")
        return cls(tuple(table), codes, counts)


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
        check_header(data, "TF-IDF model", DataError, schema_version=SCHEMA_VERSION)
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
    """TF-IDF rows of tokenized or coded documents as a dense
    (n_docs, dim) array."""
    dim = model.dim
    docs = CodedDocs.of(documents)
    keys = _keys(model, docs)
    flat, counts = np.unique(keys, return_counts=True)
    del keys  # freed before the dense output is allocated
    values = counts * model.idf[flat % dim]
    bounds = np.searchsorted(flat, np.arange(len(docs) + 1) * dim).tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        part = values[start:stop]
        norm = math.sqrt(float(part @ part))
        if norm > 0.0:
            part /= norm
    out = np.zeros((len(docs), dim))
    out.ravel()[flat] = values
    return out


def _keys(model: TfIdfModel, docs: CodedDocs) -> np.ndarray:
    """One key row * dim + slot per in-vocabulary n-gram of `docs`,
    found through the model's interned tables; its temporaries are freed
    when it returns."""
    n_tokens = len(docs.codes)
    if n_tokens == 0:
        return np.zeros(0, dtype=np.int64)
    code_of, tables = model.grams
    codes = docs.lookup(code_of, -1)
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), docs.counts)
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
