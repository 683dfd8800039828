"""TF-IDF featurization against independent hand computations."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhtext import features, gru
from mhtext.errors import DataError
from test_gru import lookup_encode_many


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


def per_document_matrix(model, documents):
    """Test-local oracle: the per-document build that features.matrix
    replaced. Counts one document's slots, sorts them, scales by idf,
    L2-normalizes with one dot product and scatters the row."""
    out = np.zeros((len(documents), model.dim))
    for row, tokens in enumerate(documents):
        counts = Counter()
        for gram in features.ngrams(tokens, *model.ngram_range):
            slot = model.index.get(gram)
            if slot is not None:
                counts[slot] += 1
        if not counts:
            continue
        indices = np.array(sorted(counts), dtype=np.int32)
        values = np.array([counts[i] for i in indices], dtype=np.float64)
        values *= model.idf[indices]
        norm = math.sqrt(float(values @ values))
        if norm > 0.0:
            values /= norm
        out[row, indices] = values
    return out


def string_matrix(model, documents):
    """Test-local oracle: the string build that the interned one
    replaced. Joins every n-gram, looks it up in `model.index`, and
    hands the flat keys to the same np.unique, per-row norm and dense
    fill."""
    index, dim = model.index, model.dim
    lo, hi = model.ngram_range
    keys = np.fromiter(
        (
            row * dim + slot
            for row, tokens in enumerate(documents)
            for slot in map(index.get, features.ngrams(tokens, lo, hi))
            if slot is not None
        ),
        dtype=np.int64,
    )
    flat, counts = np.unique(keys, return_counts=True)
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


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
        row = features.matrix(model, [["sad"]])[0]
        assert row[row != 0].tolist() == [1.0]

    def test_two_equal_terms_split_the_norm(self):
        model = features.fit([["sad", "happy"], ["sad", "happy"]], max_features=10,
                             ngram_range=(1, 1))
        row = features.matrix(model, [["sad", "happy"]])[0]
        assert np.allclose(row[row != 0], [1 / math.sqrt(2)] * 2)

    def test_unseen_tokens_are_ignored(self):
        model = features.fit([["sad"]], max_features=10)
        row = features.matrix(model, [["unseen", "tokens"]])[0]
        assert np.count_nonzero(row) == 0
        assert np.array_equal(row, np.zeros(model.dim))

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
        doc = ["c", "a", "c"]
        row = features.matrix(model, [doc])[0]
        in_vocab = {model.index[g] for g in features.ngrams(doc, *model.ngram_range)
                    if g in model.index}
        assert np.flatnonzero(row).tolist() == sorted(in_vocab)
        assert row.shape == (model.dim,)

    @given(
        fit_docs=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=0, max_size=10),
            min_size=1,
            max_size=8,
        ),
        docs=st.lists(
            st.one_of(
                st.just([]),
                st.lists(st.sampled_from(["x", "y", "zz"]), min_size=1, max_size=4),
                st.lists(st.sampled_from("abcdefxy"), min_size=0, max_size=14),
                st.lists(st.sampled_from("ab"), min_size=0, max_size=14),
            ),
            min_size=0,
            max_size=10,
        ),
        ngram_range=st.sampled_from([(1, 1), (1, 3), (2, 2)]),
        max_features=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matrix_is_bitwise_the_per_document_build(
        self, fit_docs, docs, ngram_range, max_features
    ):
        # empty, out-of-vocabulary-only and repeated-n-gram documents
        model = features.fit(fit_docs, max_features=max_features, ngram_range=ngram_range)
        for batch in (docs, fit_docs, fit_docs + docs):
            got = features.matrix(model, batch)
            want = per_document_matrix(model, batch)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


_DOCS = st.lists(
    st.one_of(
        st.just([]),
        st.lists(st.sampled_from(["x", "y", "zz"]), min_size=1, max_size=4),  # out of vocabulary
        st.lists(st.sampled_from(["a", "b", "c", "d", "x"]), min_size=0, max_size=16),
        st.lists(st.sampled_from("ab"), min_size=0, max_size=16),
    ),
    min_size=0,
    max_size=10,
)


class TestInternedMatrix:
    """features.matrix against the string build it replaced, bit for bit."""

    @given(
        fit_docs=st.lists(st.lists(st.sampled_from("abcd"), min_size=0, max_size=12),
                          min_size=1, max_size=8),
        docs=_DOCS,
        ngram_range=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 3), (1, 4)]),
        max_features=st.integers(1, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_string_build(self, fit_docs, docs, ngram_range, max_features):
        model = features.fit(fit_docs, max_features=max_features, ngram_range=ngram_range)
        for batch in (docs, fit_docs, fit_docs + docs, [], [[]], [["x", "zz"]]):
            assert_same_bits(features.matrix(model, batch), string_matrix(model, batch))

    def test_model_without_terms(self):
        model = features.fit([[], []], max_features=5, ngram_range=(1, 3))
        assert model.dim == 0
        for batch in ([], [[]], [["a", "b", "c"]]):
            assert_same_bits(features.matrix(model, batch), string_matrix(model, batch))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_keys_stay_small_where_a_radix_key_would_overflow(self, data):
        """100 distinct tokens and 12-grams: a key over every token
        position, 100**12, is past int64; ranks of the vocabulary's own
        prefixes keep every key below len(terms) * 100."""
        tokens = [f"t{i}" for i in range(100)]
        hi = 12
        assert len(tokens) ** hi > np.iinfo(np.int64).max
        stream = data.draw(st.lists(st.sampled_from(tokens[:6]) | st.sampled_from(tokens),
                                    min_size=hi, max_size=60))
        grams = {" ".join(stream[i:i + n]) for n in range(1, hi + 1)
                 for i in range(len(stream) - n + 1)}
        terms = tuple(data.draw(st.lists(st.sampled_from(sorted(grams)), min_size=1,
                                         max_size=40, unique=True)) + ["t99"])
        terms = tuple(dict.fromkeys(terms))
        idf = np.array(data.draw(st.lists(st.floats(1.0, 8.0), min_size=len(terms),
                                          max_size=len(terms))))
        model = features.TfIdfModel(terms, idf, 10, (1, hi), len(terms))
        docs = [stream, stream[::-1], stream[hi // 2:], [], ["t99"] * 3]
        assert_same_bits(features.matrix(model, docs), string_matrix(model, docs))
        assert features.matrix(model, [stream]).any()

    def test_load_probe_builds_no_tables(self):
        """One empty document, as the bundle load probe sends, is a zero
        row without interning the vocabulary."""
        model = features.fit([["a", "b"]], max_features=5)
        assert_same_bits(features.matrix(model, [()]), np.zeros((1, model.dim)))
        assert "grams" not in vars(model)


def lookup_keys(model, documents):
    """Test-local oracle: the key build that the coded one replaced.
    Looks every token occurrence up in the model's interned codes, then
    runs the same level-by-level prefix search."""
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
    ranks = codes
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


def assert_coded_rows_match_the_oracles(docs, tfidf, vocab, picks):
    """Rows of coded documents, and of the coded subset at `picks`, equal
    the per-token lookup and string builds bit for bit."""
    coded = features.CodedDocs.of(docs)
    assert list(coded.table) == sorted({tok for doc in docs for tok in doc})
    assert coded.documents() == tuple(tuple(doc) for doc in docs)
    for batch, subset in ((coded, docs), (coded.take(picks), [docs[i] for i in picks])):
        keys, want = features._keys(tfidf, batch), lookup_keys(tfidf, subset)
        assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()
        assert_same_bits(features.matrix(tfidf, batch), string_matrix(tfidf, subset))
        assert_same_bits(vocab.encode_many(batch), lookup_encode_many(vocab, subset))


class TestCodedDocs:
    """Rows built from a token table and codes against the per-token
    lookups they replaced, bit for bit."""

    @given(
        fit_docs=st.lists(st.lists(st.sampled_from("abcde"), min_size=0, max_size=12),
                          min_size=1, max_size=8),
        docs=st.lists(
            st.one_of(
                st.just([]),
                st.lists(st.sampled_from(["x", "y", "zz"]), min_size=1, max_size=4),  # OOV
                st.lists(st.sampled_from(["a", "b", "c", "e", "x"]), min_size=0, max_size=20),
                st.lists(st.sampled_from("ab"), min_size=0, max_size=20),
            ),
            min_size=1,
            max_size=10,
        ),
        ngram_range=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]),
        max_features=st.integers(1, 40),
        min_freq=st.integers(1, 3),
        max_len=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_lookup_builds(self, fit_docs, docs, ngram_range, max_features,
                                          min_freq, max_len, data):
        # empty documents, documents past max_len, tokens outside the
        # vocabulary and tokens in no term (max_features and min_freq
        # drop some)
        tfidf = features.fit(fit_docs, max_features=max_features, ngram_range=ngram_range)
        vocab = gru.SeqVocabulary.build(fit_docs, min_freq=min_freq, max_len=max_len)
        picks = data.draw(st.lists(st.integers(0, len(docs) - 1), max_size=2 * len(docs)))
        assert_coded_rows_match_the_oracles(docs, tfidf, vocab, picks)

    @pytest.mark.parametrize("ngram_range", [(1, 2), (1, 3)])
    def test_thousands_of_distinct_tokens(self, ngram_range):
        """The synthetic corpora have 41 and 81 distinct tokens; a real
        corpus has thousands."""
        rng = np.random.default_rng(7)
        words = [f"w{i:05d}" for i in range(6000)]
        ranks = np.minimum(rng.zipf(1.3, size=40_000), len(words)) - 1
        cuts = np.cumsum(rng.integers(0, 60, size=1500))
        docs = [[words[r] for r in part] for part in np.split(ranks, cuts[cuts < ranks.size])]
        docs.append([])
        tfidf = features.fit(docs[:500], max_features=1000, ngram_range=ngram_range)
        vocab = gru.SeqVocabulary.build(docs[:500], min_freq=2, max_len=32)
        coded = features.CodedDocs.of(docs)
        assert len(coded.table) > 2000 and vocab.vocab_size > 400
        picks = rng.permutation(len(docs))[:300].tolist()
        assert_coded_rows_match_the_oracles(docs, tfidf, vocab, picks)

    @given(st.lists(st.lists(st.sampled_from(["a", "bb", "c-d", "\u00e9", "z9"]), max_size=9),
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_fields_round_trip_through_json(self, docs):
        coded = features.CodedDocs.of(docs)
        payload = json.loads(json.dumps(coded.to_dict()))
        again = features.CodedDocs.from_dict(payload)
        assert again.table == coded.table
        assert again.codes.tobytes() == coded.codes.astype("<i4").tobytes()
        assert again.counts.tolist() == [len(doc) for doc in docs]
        assert again.documents() == tuple(tuple(doc) for doc in docs)

    def test_codes_are_little_endian_int32_in_standard_base64(self):
        payload = features.CodedDocs.of([["b", "a"], [], ["b"]]).to_dict()
        assert payload == {"token_table": ["a", "b"], "token_codes": "AQAAAAAAAAABAAAA",
                           "token_counts": [2, 0, 1]}


class TestModelRules:
    @pytest.mark.parametrize("term", ["", " a", "a ", "a  b", "a\tb", "a\nb", "a b c"])
    def test_term_that_is_not_lo_to_hi_tokens_is_refused(self, term):
        with pytest.raises(ValueError, match="terms:"):
            features.TfIdfModel(("a", term), np.ones(2), 3, (1, 2), 10)

    def test_term_shorter_than_lo_is_refused(self):
        with pytest.raises(ValueError, match="terms:"):
            features.TfIdfModel(("a b", "c"), np.ones(2), 3, (2, 3), 10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_idf_is_refused(self, bad):
        payload = features.fit([["a", "b"], ["b"]], max_features=5).to_dict()
        payload["idf"][1] = bad
        with pytest.raises(ValueError, match="idf"):
            features.TfIdfModel.from_dict(json.loads(json.dumps(payload)))


class TestSerialization:
    def test_round_trip_preserves_transforms_exactly(self):
        docs = [["sad", "tired"], ["happy", "sad"], ["calm"]]
        model = features.fit(docs, max_features=8)
        again = features.TfIdfModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert again.terms == model.terms
        assert np.array_equal(again.idf, model.idf)
        a = features.matrix(model, docs)
        b = features.matrix(again, docs)
        assert np.array_equal(a, b)

    def test_payload_is_plain_json(self):
        model = features.fit([["a"]], max_features=4)
        payload = json.loads(json.dumps(model.to_dict()))
        assert payload["schema_version"] == 1

    def test_fit_is_deterministic(self):
        docs = [["b", "a"], ["a", "c"], ["c", "b", "a"]]
        m1 = features.fit(docs)
        m2 = features.fit(docs)
        assert m1.terms == m2.terms
        assert np.array_equal(m1.idf, m2.idf)
