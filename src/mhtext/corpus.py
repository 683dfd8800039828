"""Corpus ingestion, text cleaning, tokenization, labeling, and splits.

The input format is a UTF-8 CSV with a header row and columns
``id, statement, status`` (RFC 4180 quoting; a leading unnamed column is
accepted as the id column because exported corpora often ship the frame
index that way). Rows whose statement is empty after stripping are
dropped and counted rather than rejected.

Cleaning and normalization are regex and table driven, deterministic,
and idempotent; see ``lexicon`` for the frozen stopword list and
lemmatizer rules.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, check, whole, wholes
from .lexicon import STOPWORDS, lemmatize

BINARY_NORMAL_STATUS = "Normal"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_HTML_TAG_RE = re.compile(r"<[^>]*>")
_HTML_ENTITY_RE = re.compile(r"&#?\w+;")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_TOKEN_RE = re.compile(r"#\w+")
# Keeps letters, digits, whitespace, and apostrophes; strips everything
# else, including leftover '#' markers.
_CHAR_RE = re.compile(r"[^A-Za-z0-9'\s]")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class RawRecord:
    """One CSV row as read from disk."""

    id: str
    statement: str
    status: str


@dataclass(frozen=True)
class Document:
    """A record after cleaning, tokenization, and label mapping."""

    id: str
    raw: str
    status: str
    tokens: tuple[str, ...]
    label: int


@dataclass(frozen=True)
class LoadResult:
    records: list[RawRecord]
    dropped_empty: int


def _lines(handle, path: str):
    """The handle's lines; one holding a NUL byte raises DataError (the
    csv module of Python 3.10 refuses NUL and that of 3.11 reads it)."""
    for number, line in enumerate(handle, start=1):
        if "\0" in line:
            raise DataError(f"corpus file {path!r} holds a NUL byte at line {number}")
        yield line


def _rows(reader, path: str):
    """The reader's rows; an oversized field or non-UTF-8 bytes raise DataError."""
    try:
        yield from reader
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(
            f"cannot read corpus file {path!r} near line {reader.line_num}: {exc}"
        ) from exc


def load_csv(path: str) -> LoadResult:
    """Read a corpus CSV, dropping (and counting) empty-statement rows.

    Raises DataError for a missing file, text that is not UTF-8 CSV or
    holds a NUL byte or a field over the csv module's size limit, missing
    required columns, rows with the wrong field count, or duplicate ids.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open corpus file {path!r}: {exc}") from exc
    with handle:
        reader = csv.reader(_lines(handle, path))
        rows = _rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise DataError(f"corpus file {path!r} is empty") from None
        columns = {name.strip(): i for i, name in enumerate(header)}
        if "id" not in columns and header and header[0].strip() == "":
            columns["id"] = 0
        for required in ("id", "statement", "status"):
            if required not in columns:
                raise DataError(f"missing required column: {required}")
        id_col = columns["id"]
        stmt_col = columns["statement"]
        status_col = columns["status"]
        records: list[RawRecord] = []
        seen: set[str] = set()
        dropped = 0
        for row in rows:
            if len(row) != len(header):
                raise DataError(
                    f"malformed row at line {reader.line_num}: expected "
                    f"{len(header)} fields, found {len(row)}"
                )
            statement = row[stmt_col]
            if not statement.strip():
                dropped += 1
                continue
            rec_id = row[id_col]
            if rec_id in seen:
                raise DataError(
                    f"duplicate id {rec_id!r} at line {reader.line_num}"
                )
            seen.add(rec_id)
            records.append(RawRecord(rec_id, statement, row[status_col]))
    return LoadResult(records, dropped)


def clean_text(raw: str, drop_hashtags: bool = False) -> str:
    """Strip URLs, HTML, @mentions, and hashtag markers; collapse whitespace.

    By default only the '#' marker is removed and the hashtag word is
    kept; with drop_hashtags=True the whole token goes. The result
    contains only letters, digits, apostrophes, and single spaces, and
    the function is idempotent.
    """
    text = _URL_RE.sub(" ", raw)
    text = _HTML_TAG_RE.sub(" ", text)
    text = _HTML_ENTITY_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    if drop_hashtags:
        text = _HASHTAG_TOKEN_RE.sub(" ", text)
    text = _CHAR_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


def normalize(text: str, lemmas: dict | None = None) -> list[str]:
    """Tokenize cleaned text: lowercase, drop stopwords, lemmatize.

    Expects input already passed through clean_text. Stopwords are
    filtered before lemmatization, and again afterwards because a suffix
    rule can land on a stopword (e.g. a plural collapsing onto one);
    the output therefore never contains a stopword.

    `lemmas` maps each raw whitespace token to its lemma, or to "" when
    the token is dropped; a token it lacks is worked out and added.
    build_documents passes one dict for the whole corpus, so each
    distinct token is lowercased, checked and lemmatized once; called
    without one, normalize uses a fresh dict and keeps no state.
    """
    if lemmas is None:
        lemmas = {}
    out = []
    for token in text.split():
        lemma = lemmas.get(token)
        if lemma is None:
            lemma = lemmas[token] = _lemma_or_drop(token)
        if lemma:
            out.append(lemma)
    return out


def _lemma_or_drop(token: str) -> str:
    """The lemma of one raw token, or "" when it is a stopword before or
    after lemmatizing."""
    token = token.lower()
    if token in STOPWORDS:
        return ""
    lemma = lemmatize(token)
    return "" if lemma in STOPWORDS else lemma


@dataclass(frozen=True)
class LabelScheme:
    """Mapping from corpus status strings to dense class ids 0..K-1."""

    kind: str  # "binary" | "multiclass"
    names: tuple[str, ...]
    mapping: dict[str, int] = field(hash=False)

    @property
    def n_classes(self) -> int:
        return len(self.names)

    @classmethod
    def binary(cls, statuses) -> "LabelScheme":
        """Normal -> 0, every other observed status -> 1."""
        mapping = {
            status: 0 if status == BINARY_NORMAL_STATUS else 1
            for status in set(statuses)
        }
        return cls("binary", (BINARY_NORMAL_STATUS, "Abnormal"), mapping)

    @classmethod
    def multiclass(cls, statuses) -> "LabelScheme":
        """One class per distinct status, ids assigned alphabetically."""
        names = tuple(sorted(set(statuses)))
        if not names:
            raise DataError("cannot build a label scheme from an empty corpus")
        return cls("multiclass", names, {name: i for i, name in enumerate(names)})

    def to_dict(self) -> dict:
        return {"kind": self.kind, "names": list(self.names), "mapping": dict(self.mapping)}

    @classmethod
    def from_dict(cls, data: dict) -> "LabelScheme":
        return cls(data["kind"], tuple(data["names"]), dict(data["mapping"]))


def map_labels(records, scheme: LabelScheme) -> list[int]:
    """Map record statuses to class ids; unknown statuses are an error."""
    labels = []
    for rec in records:
        try:
            labels.append(scheme.mapping[rec.status])
        except KeyError:
            raise DataError(f"unknown status {rec.status!r}") from None
    return labels


def build_documents(
    records, scheme: LabelScheme, drop_hashtags: bool = False
) -> list[Document]:
    labels = map_labels(records, scheme)
    lemmas: dict[str, str] = {}  # raw token -> lemma or "", for this corpus only
    return [
        Document(
            id=rec.id,
            raw=rec.statement,
            status=rec.status,
            tokens=tuple(normalize(clean_text(rec.statement, drop_hashtags), lemmas)),
            label=label,
        )
        for rec, label in zip(records, labels)
    ]


@dataclass(frozen=True)
class DatasetSplit:
    """Index partition of a corpus into train / validation / test."""

    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "train": list(self.train),
            "validation": list(self.validation),
            "test": list(self.test),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSplit":
        """Read back a split whose indices are whole numbers, no index in
        two places, so no document leaks from one split into another."""
        parts = [wholes(f"split.{name}", data[name]) for name in ("train", "validation", "test")]
        every = np.concatenate(parts)
        if np.unique(every).size < every.size:
            raise ValueError("split: expected each index at most once, in one of train, "
                             "validation and test")
        return cls(*(tuple(part.tolist()) for part in parts),
                   check("split.seed", data["seed"], whole()))


def _split_sizes(n: int) -> tuple[int, int, int]:
    # Two-step shares: 20% test first, then a quarter of the remainder
    # for validation, which lands near 60/20/20 overall.
    n_test = round(0.20 * n)
    n_val = round(0.25 * (n - n_test))
    n_train = n - n_test - n_val
    return n_train, n_val, n_test

def _stratified_counts(labels: np.ndarray, total: int) -> np.ndarray:
    # Largest-remainder apportionment so the per-class draws sum to the
    # exact global size while tracking class proportions.
    classes, class_counts = np.unique(labels, return_counts=True)
    exact = class_counts * (total / labels.size)
    base = np.floor(exact).astype(int)
    short = total - base.sum()
    order = np.argsort(-(exact - base), kind="mergesort")
    base[order[:short]] += 1
    return base


def _draw(pool: np.ndarray, labels, take: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """`take` members of `pool` drawn at random, and the rest; with the
    pool's `labels`, each class gives its proportional share."""
    if labels is None:
        mixed = pool[rng.permutation(pool.size)]
        return mixed[:take], mixed[take:]
    drawn, rest = [], []
    for cls, count in zip(np.unique(labels), _stratified_counts(labels, take)):
        members = pool[labels == cls]
        members = members[rng.permutation(members.size)]
        drawn.append(members[:count])
        rest.append(members[count:])
    return np.concatenate(drawn), np.concatenate(rest)


def split_dataset(
    n: int,
    seed: int,
    *,
    stratify_labels=None,
) -> DatasetSplit:
    """Partition indices 0..n-1 into train / validation / test.

    Step one draws the test set, step two splits the remainder into
    train and validation. Plain random sampling by default; passing
    stratify_labels switches on per-class proportional sampling.
    Deterministic for a given (n, seed).
    """
    if n < 5:
        raise DataError(f"corpus too small to populate all three splits: n={n}")
    n_train, n_val, n_test = _split_sizes(n)
    if min(n_train, n_val, n_test) < 1:
        raise DataError(f"corpus too small to populate all three splits: n={n}")
    labels = None
    if stratify_labels is not None:
        labels = np.asarray(stratify_labels)
        if labels.shape != (n,):
            raise DataError("stratify_labels length must match corpus size")
    rng = np.random.default_rng(seed)
    test, rest = _draw(np.arange(n), labels, n_test, rng)
    validation, train = _draw(rest, None if labels is None else labels[rest], n_val, rng)
    return DatasetSplit(
        train=tuple(int(i) for i in np.sort(train)),
        validation=tuple(int(i) for i in np.sort(validation)),
        test=tuple(int(i) for i in np.sort(test)),
        seed=seed,
    )
