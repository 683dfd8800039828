"""TF-IDF featurization against independent hand computations."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhtext import features
from mhtext.errors import DataError


def reference_tfidf(docs, max_features, lo, hi):
    """Test-local oracle: plain-dict tf-idf with the declared conventions.

    Counts n-grams with dictionaries, ranks by (-total count, term),
    computes idf = ln((1+N)/(1+df)) + 1, and L2-normalizes row by row.
    Kept deliberately independent of the library implementation.
    """
    def grams(toks):
        out = []
        for n in range(lo, hi + 1):
            for i in range(len(toks) - n + 1):
                out.append(" ".join(toks[i : i + n]))
        return out

    totals, doc_freq = {}, {}
    for toks in docs:
        g = grams(list(toks))
        for term in g:
            totals[term] = totals.get(term, 0) + 1
        for term in set(g):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    ranked = sorted(totals, key=lambda t: (-totals[t], t))[:max_features]
    idf = {t: math.log((1 + len(docs)) / (1 + doc_freq[t])) + 1.0 for t in ranked}
    rows = []
    for toks in docs:
        counts = {}
        for term in grams(list(toks)):
            if term in idf:
                counts[term] = counts.get(term, 0) + 1
        vec = [counts.get(t, 0) * idf[t] for t in ranked]
        norm = math.sqrt(sum(v * v for v in vec))
        rows.append([v / norm if norm else 0.0 for v in vec])
    return ranked, idf, rows


class TestNgrams:
    def test_unigrams_and_bigrams(self):
        assert list(features.ngrams(["a", "b", "c"], 1, 2)) == [
            "a", "b", "c", "a b", "b c",
        ]

    def test_short_doc_has_no_bigrams(self):
        assert list(features.ngrams(["a"], 1, 2)) == ["a"]

    def test_pure_bigrams(self):
        assert list(features.ngrams(["x", "y", "z"], 2, 2)) == ["x y", "y z"]


class TestFit:
    def test_idf_when_term_is_in_every_doc(self):
        model = features.fit([["sad"], ["sad"]], max_features=10)
        assert model.terms == ("sad",)
        assert model.idf[0] == pytest.approx(math.log(3 / 3) + 1.0)
        assert model.idf[0] == 1.0

    def test_idf_for_half_frequency_term(self):
        model = features.fit([["sad"], ["happy"]], max_features=10)
        idx = model.terms.index("sad")
        assert model.idf[idx] == pytest.approx(math.log(3 / 2) + 1.0)
        assert model.idf[idx] == pytest.approx(1.4055, abs=1e-4)

    def test_max_features_keeps_most_frequent(self):
        docs = [["hot", "hot", "hot"], ["cold"]]
        model = features.fit(docs, max_features=1, ngram_range=(1, 1))
        assert model.terms == ("hot",)

    def test_count_ties_break_lexicographically(self):
        docs = [["zeta", "alpha"], ["zeta", "alpha"]]
        model = features.fit(docs, max_features=1, ngram_range=(1, 1))
        assert model.terms == ("alpha",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            features.fit([])

    def test_bad_ngram_range_rejected(self):
        with pytest.raises(ValueError):
            features.fit([["a"]], ngram_range=(2, 1))


class TestTransform:
    def test_single_known_token_is_a_unit_vector(self):
        model = features.fit([["sad"], ["sad", "happy"]], max_features=10)
        vec = features.transform(model, ["sad"])
        assert vec.values.tolist() == [1.0]

    def test_two_equal_terms_split_the_norm(self):
        model = features.fit([["sad", "happy"], ["sad", "happy"]], max_features=10,
                             ngram_range=(1, 1))
        vec = features.transform(model, ["sad", "happy"])
        assert np.allclose(vec.values, [1 / math.sqrt(2)] * 2)

    def test_unseen_tokens_are_ignored(self):
        model = features.fit([["sad"]], max_features=10)
        vec = features.transform(model, ["unseen", "tokens"])
        assert vec.indices.size == 0
        assert np.array_equal(vec.to_dense(), np.zeros(model.dim))

    def test_three_doc_corpus_matches_reference(self):
        docs = [
            ["sad", "tired", "sad"],
            ["tired", "happy"],
            ["happy", "sad", "calm"],
        ]
        model = features.fit(docs, max_features=50, ngram_range=(1, 2))
        got = features.matrix(model, docs)
        terms, idf, rows = reference_tfidf(docs, 50, 1, 2)
        assert list(model.terms) == terms
        assert np.allclose([idf[t] for t in terms], model.idf, rtol=0, atol=1e-15)
        assert np.allclose(got, np.array(rows), rtol=0, atol=1e-15)

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=8),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100)
    def test_rows_are_unit_or_zero(self, docs):
        docs = [[c for c in d] for d in docs]
        if not any(docs):
            docs.append(["a"])
        model = features.fit(docs, max_features=20)
        mat = features.matrix(model, docs)
        norms = np.linalg.norm(mat, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))

    @given(
        st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60)
    def test_matches_reference_on_random_corpora(self, docs):
        model = features.fit(docs, max_features=12, ngram_range=(1, 2))
        got = features.matrix(model, docs)
        terms, idf, rows = reference_tfidf(docs, 12, 1, 2)
        assert list(model.terms) == terms
        assert np.allclose(got, np.array(rows), rtol=0, atol=1e-12)

    def test_sparse_vector_invariants(self):
        model = features.fit([["a", "b", "c"], ["b", "c", "d"]], max_features=10)
        vec = features.transform(model, ["c", "a", "c"])
        assert np.all(np.diff(vec.indices) > 0)
        assert np.all(vec.values != 0.0)
        assert vec.dim == model.dim


class TestSerialization:
    def test_round_trip_preserves_transforms_exactly(self):
        docs = [["sad", "tired"], ["happy", "sad"], ["calm"]]
        model = features.fit(docs, max_features=8)
        again = features.from_dict(json.loads(json.dumps(features.to_dict(model))))
        assert again.terms == model.terms
        assert np.array_equal(again.idf, model.idf)
        a = features.matrix(model, docs)
        b = features.matrix(again, docs)
        assert np.array_equal(a, b)

    def test_payload_is_plain_json(self):
        model = features.fit([["a"]], max_features=4)
        payload = json.loads(json.dumps(features.to_dict(model)))
        assert payload["schema_version"] == 1

    def test_fit_is_deterministic(self):
        docs = [["b", "a"], ["a", "c"], ["c", "b", "a"]]
        m1 = features.fit(docs)
        m2 = features.fit(docs)
        assert m1.terms == m2.terms
        assert np.array_equal(m1.idf, m2.idf)
