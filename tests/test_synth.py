"""Synthetic corpus generator: exact counts, determinism, loadability."""

import collections
import re

import pytest

from mhtext import corpus, synth


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
