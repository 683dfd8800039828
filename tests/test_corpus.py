"""Corpus loading, cleaning, normalization, labeling, and splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhtext import corpus
from mhtext.errors import DataError
from mhtext.lexicon import LEMMA_EXCEPTIONS, STOPWORDS, SUFFIX_RULES, lemmatize


def per_token_normalize(text: str) -> list[str]:
    """Test-local oracle: the per-occurrence normalize that the memoized
    one replaced. Lowercases, filters, lemmatizes and filters again for
    every token occurrence."""
    lemmas = (
        lemmatize(token)
        for token in (t.lower() for t in text.split())
        if token not in STOPWORDS
    )
    return [lemma for lemma in lemmas if lemma not in STOPWORDS]


# raw tokens drawn from the lexicon: stopwords, irregular forms, content
# words with each suffix rule's suffix, and tokens that pass the first
# stopword filter but lemmatize onto a stopword ("outs" -> "out")
_SUFFIXES = sorted({rule[0] for rule in SUFFIX_RULES} | {"ing", "ed"})
_ONTO_STOPWORDS = sorted(
    word + suffix for word in STOPWORDS for suffix in _SUFFIXES
    if word + suffix not in STOPWORDS and lemmatize(word + suffix) in STOPWORDS
)
_LEXICON_TOKENS = st.one_of(
    st.sampled_from(sorted(STOPWORDS)),
    st.sampled_from(sorted(LEMMA_EXCEPTIONS)),
    st.sampled_from(_ONTO_STOPWORDS),
    st.builds(lambda stem, suffix: stem + suffix,
              st.sampled_from(["hop", "run", "cri", "miss", "box", "fall", "sad", "ou"]),
              st.sampled_from(["", *_SUFFIXES])),
).flatmap(lambda token: st.sampled_from([token, token.upper(), token.title()]))


def write_csv(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_well_formed_file_loads_every_row(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv",
            "id,statement,status\n1,feeling fine,Normal\n2,cannot sleep,Anxiety\n"
            "3,so tired,Depression\n",
        )
        result = corpus.load_csv(path)
        assert len(result.records) == 3
        assert result.records[1] == corpus.RawRecord("2", "cannot sleep", "Anxiety")
        assert result.dropped_empty == 0

    def test_unnamed_first_column_is_accepted_as_id(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", ",statement,status\n0,hello world,Normal\n"
        )
        result = corpus.load_csv(path)
        assert result.records[0].id == "0"

    def test_empty_statement_rows_are_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv",
            "id,statement,status\n1,,Normal\n2,real text,Normal\n3,   ,Anxiety\n",
        )
        result = corpus.load_csv(path)
        assert [r.id for r in result.records] == ["2"]
        assert result.dropped_empty == 2

    def test_missing_status_column_names_the_column(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", "id,statement\n1,hello\n")
        with pytest.raises(DataError, match="status"):
            corpus.load_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", "id,statement,status\n1,ok,Normal\n2,too,many,fields\n"
        )
        with pytest.raises(DataError, match="line 3"):
            corpus.load_csv(path)

    @pytest.mark.parametrize("content, line", [
        ("id,statement,status\n1,ok,Normal\n2,n\0pe,Normal\n", 3),
        ('id,statement,status\n1,"two\nlines\0",Normal\n', 3),
        ("id,state\0ment,status\n1,ok,Normal\n", 1),
    ], ids=["in-a-statement", "in-a-quoted-field-over-two-lines", "in-the-header"])
    def test_nul_byte_is_refused_naming_file_and_line(self, tmp_path, content, line):
        """One rule on every Python: 3.10's csv refuses NUL, 3.11's reads it."""
        path = write_csv(tmp_path / "c.csv", content)
        with pytest.raises(DataError, match=f"NUL byte at line {line}$") as info:
            corpus.load_csv(path)
        assert repr(path) in str(info.value)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", "id,statement,status\n1,a,Normal\n1,b,Normal\n"
        )
        with pytest.raises(DataError, match="duplicate id"):
            corpus.load_csv(path)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            corpus.load_csv(str(tmp_path / "nope.csv"))

    def test_bom_is_tolerated(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbfid,statement,status\n1,hi,Normal\n")
        assert corpus.load_csv(str(path)).records[0].statement == "hi"

    def test_commas_inside_quoted_statements(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", 'id,statement,status\n1,"low, very low",Normal\n'
        )
        assert corpus.load_csv(path).records[0].statement == "low, very low"


class TestCleanText:
    def test_platform_noise_is_stripped(self):
        assert (
            corpus.clean_text("I feel low https://t.co/abc @dr #sad!!")
            == "I feel low sad"
        )

    def test_html_tags_are_removed(self):
        assert corpus.clean_text("<p>fine</p>") == "fine"

    def test_clean_input_unchanged(self):
        assert corpus.clean_text("hello") == "hello"

    def test_html_entities_are_removed_not_decoded(self):
        assert corpus.clean_text("up &amp; down") == "up down"
        assert corpus.clean_text("quote &#39;quote") == "quote quote"

    def test_www_urls_are_removed(self):
        assert corpus.clean_text("see www.example.com/page now") == "see now"

    def test_hashtag_word_kept_by_default_dropped_on_request(self):
        assert corpus.clean_text("so #tired today") == "so tired today"
        assert corpus.clean_text("so #tired today", drop_hashtags=True) == "so today"

    def test_mentions_removed_entirely(self):
        assert corpus.clean_text("@someone123 help me") == "help me"

    def test_apostrophes_and_digits_survive(self):
        assert corpus.clean_text("can't sleep 4 days") == "can't sleep 4 days"

    def test_whitespace_collapsed_and_trimmed(self):
        assert corpus.clean_text("  a \t b \n c  ") == "a b c"

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_idempotent_on_arbitrary_text(self, text):
        once = corpus.clean_text(text)
        assert corpus.clean_text(once) == once

    @given(st.text(max_size=200))
    def test_output_alphabet_is_restricted(self, text):
        cleaned = corpus.clean_text(text)
        assert all(c.isalnum() or c in "' " for c in cleaned)
        assert "  " not in cleaned
        assert cleaned == cleaned.strip()


class TestNormalize:
    def test_lemmatized_content_words_survive(self):
        # ing-rule with undoubling on "running", plain ing-rule on "crying"
        assert corpus.normalize("Running and crying") == ["run", "cry"]

    def test_all_stopwords_yield_nothing(self):
        assert corpus.normalize("The the the") == []

    def test_empty_input(self):
        assert corpus.normalize("") == []

    def test_lemma_that_lands_on_a_stopword_is_dropped(self):
        # "outs" -> "out", which is a stopword; the post-lemma filter
        # catches it even though "outs" itself passed the first filter
        assert lemmatize("outs") == "out"
        assert "out" in STOPWORDS
        assert corpus.normalize("outs") == []

    def test_case_folding(self):
        assert corpus.normalize("HOPELESS Mornings") == ["hopeless", "morning"]

    @given(st.text(alphabet=st.characters(categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F), max_size=80))
    def test_tokens_are_never_stopwords(self, text):
        for token in corpus.normalize(text):
            assert token not in STOPWORDS
            assert token == token.lower()


    def test_tokens_that_lemmatize_onto_a_stopword_exist(self):
        assert "outs" in _ONTO_STOPWORDS

    @given(texts=st.lists(st.lists(_LEXICON_TOKENS, max_size=12).map(" ".join), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_memo_matches_per_token_normalize(self, texts):
        lemmas: dict = {}
        for text in texts:
            assert corpus.normalize(text, lemmas) == per_token_normalize(text)
            assert corpus.normalize(text) == per_token_normalize(text)
        assert set(lemmas) == {token for text in texts for token in text.split()}


class TestLemmatizer:
    @pytest.mark.parametrize(
        "token,lemma",
        [
            ("running", "run"),      # ing + undouble
            ("falling", "fall"),     # ing, doubled l kept
            ("missing", "miss"),     # ing, doubled s kept
            ("crying", "cry"),
            ("studies", "study"),    # ies -> y
            ("studied", "study"),    # ied -> y
            ("boxes", "box"),        # es after x
            ("wishes", "wish"),      # es after sh
            ("feelings", "feeling"), # plain s
            ("stress", "stress"),    # ss guard blocks s-rule
            ("crisis", "crisis"),    # is guard
            ("bonus", "bonus"),      # us guard
            ("possesses", "possess"),
            ("stopped", "stop"),     # ed + undouble
            ("ran", "run"),          # exception table
            ("thought", "think"),
            ("women", "woman"),
            ("dying", "die"),
            ("lying", "lie"),
            ("up", "up"),            # too short for any rule
            ("sing", "sing"),        # min stem length blocks ing-rule
        ],
    )
    def test_rule_table(self, token, lemma):
        assert lemmatize(token) == lemma

    def test_exceptions_beat_suffix_rules(self):
        # "died" would hit the ied-rule ("dy") without the exception
        assert lemmatize("died") == "die"


class TestLabelScheme:
    STATUSES = ["Normal", "Anxiety", "Depression", "Normal", "Stress"]

    def test_binary_maps_normal_to_zero(self):
        scheme = corpus.LabelScheme.binary(self.STATUSES)
        assert scheme.mapping["Normal"] == 0
        assert scheme.names == ("Normal", "Abnormal")

    def test_binary_maps_any_condition_to_one(self):
        scheme = corpus.LabelScheme.binary(self.STATUSES)
        assert scheme.mapping["Anxiety"] == 1
        assert scheme.mapping["Stress"] == 1

    def test_multiclass_names_are_sorted(self):
        scheme = corpus.LabelScheme.multiclass(self.STATUSES)
        assert scheme.names == ("Anxiety", "Depression", "Normal", "Stress")
        assert scheme.mapping["Anxiety"] == 0

    def test_unknown_status_is_an_error(self):
        scheme = corpus.LabelScheme.multiclass(self.STATUSES)
        records = [corpus.RawRecord("1", "text", "Bipolar")]
        with pytest.raises(DataError, match="Bipolar"):
            corpus.map_labels(records, scheme)

    def test_round_trip(self):
        scheme = corpus.LabelScheme.multiclass(self.STATUSES)
        again = corpus.LabelScheme.from_dict(scheme.to_dict())
        assert again == scheme


def reference_split_dataset(n, seed, stratify_labels=None) -> corpus.DatasetSplit:
    """split_dataset with each draw step written out in full: test first,
    then validation from the rest, per class when stratified."""
    n_train, n_val, n_test = corpus._split_sizes(n)
    rng = np.random.default_rng(seed)
    if stratify_labels is None:
        perm = rng.permutation(n)
        test = perm[:n_test]
        rest = perm[n_test:]
        perm2 = rest[rng.permutation(rest.size)]
        validation = perm2[:n_val]
        train = perm2[n_val:]
    else:
        labels = np.asarray(stratify_labels)
        test_parts, rest_parts = [], []
        per_class_test = corpus._stratified_counts(labels, n_test)
        for cls, take in zip(np.unique(labels), per_class_test):
            members = np.flatnonzero(labels == cls)
            members = members[rng.permutation(members.size)]
            test_parts.append(members[:take])
            rest_parts.append(members[take:])
        test = np.concatenate(test_parts)
        rest = np.concatenate(rest_parts)
        rest_labels = labels[rest]
        val_parts, train_parts = [], []
        per_class_val = corpus._stratified_counts(rest_labels, n_val)
        for cls, take in zip(np.unique(rest_labels), per_class_val):
            members = rest[rest_labels == cls]
            members = members[rng.permutation(members.size)]
            val_parts.append(members[:take])
            train_parts.append(members[take:])
        validation = np.concatenate(val_parts)
        train = np.concatenate(train_parts)
    return corpus.DatasetSplit(
        train=tuple(int(i) for i in np.sort(train)),
        validation=tuple(int(i) for i in np.sort(validation)),
        test=tuple(int(i) for i in np.sort(test)),
        seed=seed,
    )


class TestSplitDataset:
    def test_sizes_for_100(self):
        split = corpus.split_dataset(100, seed=4)
        assert (len(split.train), len(split.validation), len(split.test)) == (60, 20, 20)

    def test_sizes_for_10(self):
        split = corpus.split_dataset(10, seed=4)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 2, 2)

    def test_sizes_for_51074(self):
        split = corpus.split_dataset(51074, seed=4)
        assert len(split.test) == round(0.20 * 51074)
        assert len(split.validation) == round(0.25 * (51074 - len(split.test)))
        assert len(split.train) == 51074 - len(split.test) - len(split.validation)

    def test_determinism(self):
        assert corpus.split_dataset(57, seed=9) == corpus.split_dataset(57, seed=9)

    def test_different_seeds_differ(self):
        assert corpus.split_dataset(57, seed=9) != corpus.split_dataset(57, seed=10)

    def test_too_small_corpus_rejected(self):
        with pytest.raises(DataError):
            corpus.split_dataset(4, seed=0)

    @given(st.integers(min_value=5, max_value=400), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60)
    def test_partition_property(self, n, seed):
        split = corpus.split_dataset(n, seed=seed)
        merged = sorted(split.train + split.validation + split.test)
        assert merged == list(range(n))
        n_test = round(0.20 * n)
        n_val = round(0.25 * (n - n_test))
        assert len(split.test) == n_test
        assert len(split.validation) == n_val

    def test_stratified_sizes_exact_and_proportional(self):
        labels = np.array([0] * 70 + [1] * 30)
        split = corpus.split_dataset(100, seed=3, stratify_labels=labels)
        assert (len(split.train), len(split.validation), len(split.test)) == (60, 20, 20)
        test_labels = labels[list(split.test)]
        assert int((test_labels == 0).sum()) == 14
        assert int((test_labels == 1).sum()) == 6

    @given(st.integers(min_value=20, max_value=200), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40)
    def test_stratified_partition_property(self, n, seed):
        labels = np.array([i % 3 for i in range(n)])
        split = corpus.split_dataset(n, seed=seed, stratify_labels=labels)
        merged = sorted(split.train + split.validation + split.test)
        assert merged == list(range(n))

    @given(n=st.integers(min_value=5, max_value=300), seed=st.integers(0, 2**32),
           stratify=st.booleans(), data=st.data())
    @settings(max_examples=200)
    def test_matches_the_step_by_step_draw(self, n, seed, stratify, data):
        labels = None
        if stratify:
            labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        assert corpus.split_dataset(n, seed, stratify_labels=labels) == \
            reference_split_dataset(n, seed, stratify_labels=labels)

    def test_split_round_trip(self):
        split = corpus.split_dataset(33, seed=2)
        assert corpus.DatasetSplit.from_dict(split.to_dict()) == split


class TestBuildDocuments:
    def test_documents_carry_tokens_and_labels(self):
        records = [
            corpus.RawRecord("a", "I was running https://x.co #sad", "Depression"),
            corpus.RawRecord("b", "Lovely picnic weather", "Normal"),
        ]
        scheme = corpus.LabelScheme.binary(["Depression", "Normal"])
        docs = corpus.build_documents(records, scheme)
        assert docs[0].tokens == ("run", "sad")
        assert docs[0].label == 1
        assert docs[1].label == 0

    def test_two_calls_share_no_state(self, monkeypatch):
        """Each call lemmatizes each of its distinct raw tokens once and
        keeps nothing for the next call."""
        calls = []
        monkeypatch.setattr(corpus, "lemmatize", lambda token: calls.append(token)
                            or lemmatize(token))
        records = [
            corpus.RawRecord("a", "Running running RUNNING the outs feet", "Depression"),
            corpus.RawRecord("b", "running feet boxes", "Normal"),
        ]
        scheme = corpus.LabelScheme.binary(["Depression", "Normal"])
        distinct = {"Running", "running", "RUNNING", "outs", "feet", "boxes"}
        for _ in range(2):
            calls.clear()
            docs = corpus.build_documents(records, scheme)
            assert [doc.tokens for doc in docs] == [
                tuple(per_token_normalize(rec.statement)) for rec in records]
            assert sorted(calls) == sorted(token.lower() for token in distinct)
