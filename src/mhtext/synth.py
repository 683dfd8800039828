"""Deterministic synthetic corpus generation for tests and demos.

Each status gets a disjoint pool of marker words that survive cleaning
and lemmatization, mixed with shared filler words and optional platform
noise (URLs, mentions, hashtags, HTML escapes, casing jitter). The
marker pools make the labels learnable by every model family while the
noise exercises the cleaning pipeline end to end.

A document's marker ids, its filler ids, its casing rolls and its URL
slug are each one vectorised draw; every other draw is a scalar call in
a fixed order. This leaves the random stream as it was when each word
took its own call: for a range below 2**32, `integers(n, size=k)` takes
k 32-bit halves from the bit generator's shared buffer, as k scalar
`integers(n)` calls do, and `random(size=k)` takes k 64-bit draws, as
k `random()` calls do. The corpus is the same byte for byte, and
tests/test_synth.py keeps the per-draw generator as its oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import check_fields, one_of, real, whole
from .seeds import STAGE_SYNTH, derive_seed

DEFAULT_STATUSES = (
    "Normal",
    "Anxiety",
    "Bipolar",
    "Depression",
    "Stress",
    "Suicidal",
)

MARKER_POOLS: dict[str, tuple[str, ...]] = {
    "Normal": (
        "picnic", "sunshine", "garden", "brunch", "recipe", "museum",
        "football", "weekend", "cheerful", "stroll",
    ),
    "Anxiety": (
        "panic", "worry", "dread", "trembling", "nervous", "restless",
        "heartbeat", "jitters", "spiraling", "uneasy",
    ),
    "Bipolar": (
        "mania", "manic", "euphoric", "swings", "soaring", "crash",
        "invincible", "spree", "plummet", "cycling",
    ),
    "Depression": (
        "hopeless", "empty", "worthless", "numb", "darkness", "sorrow",
        "drained", "gloom", "aching", "listless",
    ),
    "Stress": (
        "deadline", "pressure", "overload", "workload", "burnout",
        "swamped", "frazzled", "juggling", "cramming", "overwhelmed",
    ),
    "Suicidal": (
        "goodbye", "burden", "disappear", "ending", "farewell",
        "lifeless", "unbearable", "vanish", "final", "exit",
    ),
}

# Shared across statuses; several are stopwords on purpose so the
# normalizer has something to remove.
FILLER_WORDS = (
    "today", "morning", "evening", "week", "month", "moment", "story",
    "honestly", "really", "little", "again", "about", "because", "still",
    "feeling", "thinking", "talked", "wrote", "started", "keeps",
)

_URL_BITS = ("https://t.co/{}", "http://example.com/{}", "www.snippet.net/{}")
_TAGS = ("#mood", "#life", "#today", "#vent", "#journal")
_MENTIONS = ("@friend", "@diary", "@nobody", "@team", "@dr_hall")
_SLUG_CHARS = np.array(list("abcdefghij0123456789"))

# the pools as object arrays, so a document's ids index them in one go
_MARKER_ARRAYS = {status: np.array(pool, dtype=object) for status, pool in MARKER_POOLS.items()}
_FILLER_ARRAY = np.array(FILLER_WORDS, dtype=object)


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int
    seed: int
    statuses: tuple[str, ...] = DEFAULT_STATUSES
    normal_fraction: float = 0.34
    noise: bool = True
    min_markers: int = 3
    max_markers: int = 6
    min_fillers: int = 4
    max_fillers: int = 10

    def __post_init__(self):
        count = whole(at_least=0)
        check_fields(
            self, n_docs=whole(at_least=1), seed=whole(), statuses=_known_statuses,
            normal_fraction=real(at_least=0.0, at_most=1.0), noise=one_of(True, False),
            min_markers=count, max_markers=count, min_fillers=count, max_fillers=count,
        )
        for kind in ("markers", "fillers"):
            low, high = getattr(self, f"min_{kind}"), getattr(self, f"max_{kind}")
            if low > high:
                raise ValueError(f"min_{kind}={low} is above max_{kind}={high}")
        if self.min_markers + self.min_fillers < 1:
            raise ValueError("min_markers + min_fillers must be at least 1: "
                             "a document needs a word")


def _known_statuses(value) -> tuple[str, ...]:
    """The rule for `statuses`: a non-empty sequence of distinct names
    that each have a marker pool, as a tuple."""
    if isinstance(value, str):  # would be read as one status per letter
        raise ValueError("expected a sequence of status names, not one string")
    statuses = tuple(value)
    if not statuses:
        raise ValueError("expected at least one status")
    unknown = [s for s in statuses if s not in MARKER_POOLS]
    if unknown:
        raise ValueError(f"no marker pool for {unknown}")
    if len(set(statuses)) != len(statuses):
        raise ValueError("expected distinct statuses")
    return statuses


def _status_sequence(spec: SynthSpec) -> list[str]:
    """Exact per-status counts: Normal gets round(fraction * n), the
    rest is split evenly with remainders to the earliest statuses."""
    statuses = list(spec.statuses)
    if "Normal" in statuses and len(statuses) > 1:
        n_normal = round(spec.normal_fraction * spec.n_docs)
        others = [s for s in statuses if s != "Normal"]
        remaining = spec.n_docs - n_normal
        base, extra = divmod(remaining, len(others))
        counts = {"Normal": n_normal}
        for i, status in enumerate(others):
            counts[status] = base + (1 if i < extra else 0)
    else:
        base, extra = divmod(spec.n_docs, len(statuses))
        counts = {s: base + (1 if i < extra else 0) for i, s in enumerate(statuses)}
    sequence = []
    for status in statuses:
        sequence.extend([status] * counts[status])
    return sequence


def _add_noise(words: list[str], rng) -> list[str]:
    noisy = list(words)
    if rng.random() < 0.3:
        slug = "".join(rng.choice(_SLUG_CHARS, size=6))
        url = _URL_BITS[rng.integers(len(_URL_BITS))].format(slug)
        noisy.insert(int(rng.integers(len(noisy) + 1)), url)
    if rng.random() < 0.25:
        noisy.insert(0, _MENTIONS[rng.integers(len(_MENTIONS))])
    if rng.random() < 0.25:
        noisy.append(_TAGS[rng.integers(len(_TAGS))])
    if rng.random() < 0.2:
        noisy.insert(int(rng.integers(len(noisy) + 1)), "&amp;")
    if rng.random() < 0.15:
        noisy.insert(int(rng.integers(len(noisy) + 1)), "<br>")
    rolls = rng.random(len(noisy))  # one casing roll per word
    for i in np.flatnonzero(rolls < 0.15).tolist():
        noisy[i] = noisy[i].upper() if rolls[i] < 0.05 else noisy[i].capitalize()
    return noisy


def generate(spec: SynthSpec) -> list[tuple[str, str, str]]:
    """Rows of (id, statement, status), deterministic in the seed."""
    rng = np.random.default_rng(derive_seed(spec.seed, STAGE_SYNTH))
    sequence = _status_sequence(spec)
    rng.shuffle(sequence)
    rows = []
    for i, status in enumerate(sequence):
        pool = _MARKER_ARRAYS[status]
        n_markers = int(rng.integers(spec.min_markers, spec.max_markers + 1))
        n_fillers = int(rng.integers(spec.min_fillers, spec.max_fillers + 1))
        words = pool[rng.integers(len(pool), size=n_markers)].tolist()
        words += _FILLER_ARRAY[rng.integers(len(_FILLER_ARRAY), size=n_fillers)].tolist()
        rng.shuffle(words)
        if spec.noise:
            words = _add_noise(words, rng)
        statement = " ".join(words)
        statement = statement[0].upper() + statement[1:] + "."
        rows.append((f"s{i:05d}", statement, status))
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["", "statement", "status"])
        writer.writerows(rows)


def make_corpus_file(path, n_docs: int, seed: int, **kwargs) -> list[tuple[str, str, str]]:
    rows = generate(SynthSpec(n_docs=n_docs, seed=seed, **kwargs))
    write_csv(rows, path)
    return rows

