"""Synthetic corpus generator: exact counts, determinism, loadability,
the spec's field rules, and the batched draws against the per-draw
generator they replaced."""

import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mhtext import corpus, synth
from mhtext.seeds import STAGE_SYNTH, derive_seed


# ---------------------------------------------------------------------------
# The per-draw generator: one Generator call per word and per casing roll.
# The batched generate must give the same rows from the same seed.


def oracle_add_noise(words, rng):
    noisy = list(words)
    if rng.random() < 0.3:
        slug = "".join(rng.choice(list("abcdefghij0123456789"), size=6))
        url = synth._URL_BITS[rng.integers(len(synth._URL_BITS))].format(slug)
        noisy.insert(int(rng.integers(len(noisy) + 1)), url)
    if rng.random() < 0.25:
        noisy.insert(0, synth._MENTIONS[rng.integers(len(synth._MENTIONS))])
    if rng.random() < 0.25:
        noisy.append(synth._TAGS[rng.integers(len(synth._TAGS))])
    if rng.random() < 0.2:
        noisy.insert(int(rng.integers(len(noisy) + 1)), "&amp;")
    if rng.random() < 0.15:
        noisy.insert(int(rng.integers(len(noisy) + 1)), "<br>")
    for i, word in enumerate(noisy):
        roll = rng.random()
        if roll < 0.05:
            noisy[i] = word.upper()
        elif roll < 0.15:
            noisy[i] = word.capitalize()
    return noisy


def oracle_generate(spec):
    rng = np.random.default_rng(derive_seed(spec.seed, STAGE_SYNTH))
    sequence = synth._status_sequence(spec)
    rng.shuffle(sequence)
    rows = []
    for i, status in enumerate(sequence):
        pool = synth.MARKER_POOLS[status]
        fillers = synth.FILLER_WORDS
        n_markers = int(rng.integers(spec.min_markers, spec.max_markers + 1))
        n_fillers = int(rng.integers(spec.min_fillers, spec.max_fillers + 1))
        words = [pool[rng.integers(len(pool))] for _ in range(n_markers)]
        words += [fillers[rng.integers(len(fillers))] for _ in range(n_fillers)]
        rng.shuffle(words)
        if spec.noise:
            words = oracle_add_noise(words, rng)
        statement = " ".join(words)
        statement = statement[0].upper() + statement[1:] + "."
        rows.append((f"s{i:05d}", statement, status))
    return rows


@st.composite
def synth_specs(draw):
    statuses = draw(st.lists(st.sampled_from(synth.DEFAULT_STATUSES), min_size=1,
                             max_size=len(synth.DEFAULT_STATUSES), unique=True))
    counts = {}
    for kind, most in (("markers", 12), ("fillers", 70)):
        low = draw(st.integers(0, most))
        counts[f"min_{kind}"] = low
        counts[f"max_{kind}"] = draw(st.one_of(st.just(low), st.integers(low, most)))
    assume(counts["min_markers"] + counts["min_fillers"] > 0)  # a document needs a word
    return synth.SynthSpec(
        n_docs=draw(st.integers(1, 200)), seed=draw(st.integers(0, 2**32)),
        statuses=tuple(statuses), normal_fraction=draw(st.floats(0.0, 1.0)),
        noise=draw(st.booleans()), **counts,
    )


class TestBatchedDraws:
    @settings(max_examples=60, deadline=None)
    @given(spec=synth_specs())
    def test_rows_and_bytes_equal_the_per_draw_generator(self, spec, tmp_path_factory):
        rows = synth.generate(spec)
        assert rows == oracle_generate(spec)
        base = tmp_path_factory.mktemp("batched")
        synth.make_corpus_file(str(base / "batched.csv"), **dataclasses.asdict(spec))
        synth.write_csv(rows, str(base / "oracle.csv"))
        assert (base / "batched.csv").read_bytes() == (base / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("counts", [
        {"min_markers": 0, "max_markers": 0},
        {"min_fillers": 0, "max_fillers": 0},
        {"min_markers": 5, "max_markers": 5, "min_fillers": 7, "max_fillers": 7},
    ], ids=["no-markers", "no-fillers", "fixed-counts"])
    def test_edge_count_ranges(self, counts):
        for noise in (True, False):
            spec = synth.SynthSpec(n_docs=50, seed=3, noise=noise, **counts)
            assert synth.generate(spec) == oracle_generate(spec)

    def test_the_long_multiclass_benchmark_shape(self):
        """The shape of the multiclass-3k-long benchmark workload, full
        size, seed 0."""
        spec = synth.SynthSpec(n_docs=3000, seed=0, min_markers=6, max_markers=12,
                               min_fillers=40, max_fillers=70)
        assert synth.generate(spec) == oracle_generate(spec)

    @pytest.mark.parametrize("seed", range(20))
    def test_one_sized_draw_takes_what_its_scalar_draws_take(self, seed):
        """The premise of the batched draws: k scalar integers(n) or
        random() calls, between other draws, give the same values as one
        size-k call and leave the generator in the same state. A numpy
        release that changes this changes every synthetic corpus."""
        plan = np.random.default_rng(seed)
        scalar = np.random.default_rng(derive_seed(seed, STAGE_SYNTH))
        sized = np.random.default_rng(derive_seed(seed, STAGE_SYNTH))
        for _ in range(12):
            k = int(plan.integers(0, 9))
            n = int(plan.choice([2, 5, 10, 20, 2**31 - 1, 2**32]))
            assert [int(scalar.integers(n)) for _ in range(k)] == \
                sized.integers(n, size=k).tolist()
            assert [scalar.random() for _ in range(k)] == sized.random(k).tolist()
            # other draws between the runs: a range with a low bound, a
            # shuffle and a single double, each leaving half a word or not
            low = int(plan.integers(0, 5))
            assert scalar.integers(low, low + 7) == sized.integers(low, low + 7)
            a, b = list(range(k + 2)), list(range(k + 2))
            scalar.shuffle(a)
            sized.shuffle(b)
            assert a == b
            if plan.random() < 0.5:
                assert scalar.random() == sized.random()
            assert scalar.bit_generator.state == sized.bit_generator.state


class TestCounts:
    def test_status_proportions_are_exact(self):
        spec = synth.SynthSpec(n_docs=60, seed=1)
        rows = synth.generate(spec)
        counts = collections.Counter(status for _, _, status in rows)
        assert counts["Normal"] == 20  # round(0.34 * 60)
        for status in synth.DEFAULT_STATUSES:
            if status != "Normal":
                assert counts[status] == 8

    def test_remainders_go_to_the_earliest_statuses(self):
        spec = synth.SynthSpec(n_docs=13, seed=1)
        rows = synth.generate(spec)
        counts = collections.Counter(status for _, _, status in rows)
        # round(0.34 * 13) = 4 Normal; 9 over 5 others -> 2,2,2,2,1
        assert counts["Normal"] == 4
        others = [s for s in synth.DEFAULT_STATUSES if s != "Normal"]
        assert [counts[s] for s in others] == [2, 2, 2, 2, 1]

    def test_custom_normal_fraction(self):
        spec = synth.SynthSpec(n_docs=100, seed=2, normal_fraction=0.5)
        rows = synth.generate(spec)
        counts = collections.Counter(status for _, _, status in rows)
        assert counts["Normal"] == 50

    def test_ids_are_unique(self):
        rows = synth.generate(synth.SynthSpec(n_docs=40, seed=3))
        assert len({row_id for row_id, _, _ in rows}) == 40


class TestDeterminism:
    def test_same_seed_reproduces_rows(self):
        a = synth.generate(synth.SynthSpec(n_docs=30, seed=9))
        b = synth.generate(synth.SynthSpec(n_docs=30, seed=9))
        assert a == b

    def test_different_seeds_differ(self):
        a = synth.generate(synth.SynthSpec(n_docs=30, seed=9))
        b = synth.generate(synth.SynthSpec(n_docs=30, seed=10))
        assert a != b


class TestContent:
    def test_markers_match_the_labeled_status(self):
        rows = synth.generate(synth.SynthSpec(n_docs=60, seed=4, noise=False))
        for _, statement, status in rows:
            words = set(statement.split())
            own = words & set(synth.MARKER_POOLS[status])
            assert own, f"no markers for {status}: {statement!r}"
            for other, pool in synth.MARKER_POOLS.items():
                if other != status:
                    assert not (words & set(pool))

    def test_noise_free_statements_are_plain_sentences(self):
        # noise=False skips URLs, handles, tags, entities, and casing
        # jitter; sentence case and the final period always apply.
        rows = synth.generate(synth.SynthSpec(n_docs=30, seed=5, noise=False))
        for _, statement, _ in rows:
            assert re.fullmatch(r"[A-Z][a-z]*( [a-z]+)*\.", statement), statement

    def test_noisy_corpus_still_cleans_to_markers(self):
        rows = synth.generate(synth.SynthSpec(n_docs=30, seed=6, noise=True))
        for _, statement, status in rows:
            cleaned = corpus.clean_text(statement)
            assert set(cleaned.lower().split()) & set(synth.MARKER_POOLS[status])

    def test_validation(self):
        with pytest.raises(ValueError):
            synth.SynthSpec(n_docs=0, seed=1)
        with pytest.raises(ValueError):
            synth.SynthSpec(n_docs=10, seed=1, normal_fraction=1.5)


class TestSpecRules:
    """Each of these once ended in a raw numpy, IndexError,
    ZeroDivisionError or TypeError message, or was accepted."""

    @pytest.mark.parametrize("fields, named", [
        ({"n_docs": 2.5}, "n_docs="),
        ({"n_docs": True}, "n_docs="),
        ({"seed": 1.5}, "seed="),
        ({"statuses": ()}, "statuses="),
        ({"statuses": ("Normal", "Normal")}, "statuses="),
        ({"statuses": ("Normal", "Grief")}, "statuses="),
        ({"statuses": "Normal"}, "statuses="),
        ({"normal_fraction": float("nan")}, "normal_fraction="),
        ({"normal_fraction": -0.1}, "normal_fraction="),
        ({"noise": 1}, "noise="),
        ({"min_markers": -1}, "min_markers="),
        ({"min_fillers": 2.5}, "min_fillers="),
        ({"max_fillers": "9"}, "max_fillers="),
        ({"min_markers": 5, "max_markers": 3}, "min_markers=5"),
        ({"min_fillers": 11}, "min_fillers=11"),
        ({"min_markers": 0, "max_markers": 0, "min_fillers": 0, "max_fillers": 0},
         "min_markers + min_fillers"),
    ], ids=["fractional-n-docs", "bool-n-docs", "fractional-seed", "no-statuses",
            "repeated-status", "unknown-status", "statuses-as-string", "nan-fraction",
            "negative-fraction", "noise-as-int", "negative-min-markers",
            "fractional-min-fillers", "max-fillers-as-string", "min-markers-above-max",
            "min-fillers-above-max", "no-words"])
    def test_a_field_breaking_its_rule_is_named(self, fields, named):
        kwargs = {"n_docs": 10, "seed": 1, **fields}
        with pytest.raises(ValueError, match=re.escape(named)):
            synth.SynthSpec(**kwargs)

    def test_fields_are_normalized(self):
        spec = synth.SynthSpec(n_docs=10.0, seed=1, statuses=["Normal", "Stress"],
                               normal_fraction=1, min_markers=0, min_fillers=1)
        assert (spec.n_docs, spec.statuses, spec.normal_fraction) == \
            (10, ("Normal", "Stress"), 1.0)
        assert type(spec.n_docs) is int and type(spec.normal_fraction) is float
        assert len(synth.generate(spec)) == 10


class TestCsv:
    def test_written_corpus_loads_without_drops(self, tmp_path):
        path = tmp_path / "corpus.csv"
        rows = synth.make_corpus_file(str(path), n_docs=50, seed=7)
        assert len(rows) == 50
        result = corpus.load_csv(str(path))
        assert len(result.records) == 50
        assert result.dropped_empty == 0
        statuses = {r.status for r in result.records}
        assert statuses <= set(synth.DEFAULT_STATUSES)
