"""Search harness, dataset plumbing, report files, and CLI exit codes.

Grid expansion is checked against hand enumerations, random sampling
against its stated bounds, and search runs for determinism, tie
handling, and failure capture on the shared synthetic corpus. The CLI
is driven end to end through temp directories using its return codes.
"""

import base64
import functools
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from mhtext import cli, families, gru, linear, metrics, presets, report, search, svm, trees
from mhtext import config as config_mod
from mhtext import features as features_mod
from mhtext.config import FAMILIES, ExperimentConfig, PreparedDataset
from mhtext.errors import DataError, SearchFailedError, UsageError


def make_config(**overrides) -> ExperimentConfig:
    """A small logistic grid config; overrides replace any field."""
    fields = {
        "family": "logistic",
        "mode": "grid",
        "seed": 11,
        "fixed": {"max_iter": 200},
        "grid": {"C": [1.0, 1000.0]},
    }
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestExpandGrid:
    def test_two_axes_expand_in_axis_major_order(self):
        grid = {"C": [0.1, 1.0, 10.0], "class_weight": ["balanced", None]}
        expanded = search.expand_grid(grid)
        assert expanded == [
            {"C": 0.1, "class_weight": "balanced"},
            {"C": 0.1, "class_weight": None},
            {"C": 1.0, "class_weight": "balanced"},
            {"C": 1.0, "class_weight": None},
            {"C": 10.0, "class_weight": "balanced"},
            {"C": 10.0, "class_weight": None},
        ]

    def test_first_key_varies_slowest(self):
        expanded = search.expand_grid({"b": [1, 2], "a": [3]})
        assert expanded == [{"b": 1, "a": 3}, {"b": 2, "a": 3}]

    def test_single_axis(self):
        assert search.expand_grid({"C": [5.0]}) == [{"C": 5.0}]

    def test_empty_grid_is_one_empty_config(self):
        assert search.expand_grid({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(UsageError):
            search.expand_grid({"C": []})


class TestSampleRandom:
    SPACE = {
        "C": {"kind": "log_uniform", "low": 1e-3, "high": 1e2},
        "dropout": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "max_depth": {"kind": "int_range", "low": 3, "high": 5},
        "kernel": {"kind": "choice", "options": ["linear", "rbf"]},
    }

    def test_draws_respect_axis_bounds(self):
        draws = search.sample_random(self.SPACE, 200, default_rng(0))
        assert len(draws) == 200
        for cand in draws:
            assert set(cand) == set(self.SPACE)
            assert 1e-3 <= cand["C"] <= 1e2
            assert 0.0 <= cand["dropout"] < 1.0
            assert cand["max_depth"] in (3, 4, 5)
            assert cand["kernel"] in ("linear", "rbf")
        # int_range is inclusive on both ends; 200 draws hit every value
        assert {c["max_depth"] for c in draws} == {3, 4, 5}
        assert {c["kernel"] for c in draws} == {"linear", "rbf"}

    def test_log_uniform_spans_decades(self):
        draws = search.sample_random(
            {"C": {"kind": "log_uniform", "low": 1e-3, "high": 1e3}}, 300, default_rng(1)
        )
        values = [c["C"] for c in draws]
        assert min(values) < 1e-1 and max(values) > 1e1

    def test_same_rng_seed_reproduces_draws(self):
        first = search.sample_random(self.SPACE, 25, default_rng(42))
        second = search.sample_random(self.SPACE, 25, default_rng(42))
        assert first == second

    def test_different_seeds_differ(self):
        first = search.sample_random(self.SPACE, 25, default_rng(1))
        second = search.sample_random(self.SPACE, 25, default_rng(2))
        assert first != second


class TestExperimentConfig:
    def test_valid_config_constructs(self):
        config = make_config()
        assert config.family == "logistic"
        assert config.mode == "grid"

    def test_unknown_family_rejected(self):
        with pytest.raises(UsageError):
            make_config(family="perceptron")

    def test_unknown_grid_parameter_rejected(self):
        with pytest.raises(UsageError):
            make_config(grid={"CC": [1.0]})

    def test_unknown_fixed_parameter_rejected(self):
        with pytest.raises(UsageError):
            make_config(fixed={"momentum": 0.9})

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            make_config(mode="bayesian")

    def test_random_mode_needs_positive_sample_count(self):
        with pytest.raises(UsageError):
            make_config(mode="random", n_samples=0, grid={}, random={})

    @pytest.mark.parametrize(
        "axis",
        [
            {"kind": "triangular", "low": 0.0, "high": 1.0},
            {"kind": "uniform", "low": 1.0, "high": 1.0},
            {"kind": "log_uniform", "low": 0.0, "high": 1.0},
            {"kind": "uniform", "low": "a", "high": 1.0},
            {"kind": "uniform", "low": "0.1", "high": 1.0},
            {"kind": "choice", "options": []},
            {"low": 0.0, "high": 1.0},
            {"kind": "int_range", "low": 1.5, "high": 3.9},
        ],
    )
    def test_bad_random_axis_rejected(self, axis):
        with pytest.raises(UsageError):
            make_config(mode="random", grid={}, random={"C": axis})

    @pytest.mark.parametrize("low, high", [(1, 3), (1.0, 3.0)])
    def test_int_range_draws_every_whole_number_in_its_bounds(self, low, high):
        config = make_config(family="cart", mode="random", n_samples=40, fixed={}, grid={},
                             random={"max_depth": {"kind": "int_range", "low": low, "high": high}})
        assert {c["max_depth"] for c in search.candidate_list(config)} == {1, 2, 3}

    def test_save_load_round_trip(self, tmp_path):
        config = make_config(seed=7, grid={"C": [1.0, 10.0]})
        path = str(tmp_path / "config.json")
        config.save(path)
        assert ExperimentConfig.load(path).to_dict() == config.to_dict()

    def test_load_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError):
            ExperimentConfig.load(str(tmp_path / "absent.json"))

    def test_load_malformed_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(UsageError):
            ExperimentConfig.load(str(path))

    @pytest.mark.parametrize("key, value", [("seed", "x"), ("fixed", "x"), ("grid", 3),
                                            ("seed", 2.9), ("seed", True), ("n_samples", 2.5)])
    def test_load_bad_field_is_usage_error(self, tmp_path, key, value):
        payload = make_config().to_dict()
        payload[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UsageError):
            ExperimentConfig.load(str(path))

    def test_wrong_schema_version_rejected(self):
        payload = make_config().to_dict()
        payload["schema_version"] = 999
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict(payload)

    def test_load_names_the_file_on_the_decoders_own_refusal(self, tmp_path):
        payload = make_config().to_dict()
        payload["schema_version"] = 999
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(UsageError, match="unsupported") as info:
            ExperimentConfig.load(str(path))
        assert repr(str(path)) in str(info.value)


class TestCandidateList:
    def test_grid_candidates_carry_fixed_params(self):
        config = make_config(fixed={"max_iter": 150}, grid={"C": [1.0, 10.0]})
        assert search.candidate_list(config) == [
            {"max_iter": 150, "C": 1.0},
            {"max_iter": 150, "C": 10.0},
        ]

    def test_grid_value_overrides_fixed_value(self):
        config = make_config(fixed={"C": 5.0}, grid={"C": [1.0]})
        assert search.candidate_list(config) == [{"C": 1.0}]

    def test_random_candidates_are_seeded_by_config(self):
        config = make_config(
            mode="random",
            n_samples=8,
            grid={},
            random={"C": {"kind": "log_uniform", "low": 1.0, "high": 100.0}},
        )
        first = search.candidate_list(config)
        second = search.candidate_list(config)
        assert len(first) == 8
        assert first == second
        shifted = search.candidate_list(make_config(
            mode="random", n_samples=8, seed=12, grid={},
            random={"C": {"kind": "log_uniform", "low": 1.0, "high": 100.0}},
        ))
        assert shifted != first


FAMILY_PARAMS = {
    "logistic": {"C": 1000.0, "max_iter": 200},
    "svm": {"kernel": "linear", "C": 1.0, "max_epochs": 500},
    "cart": {"max_depth": 8},
    "forest": {"n_estimators": 10, "max_depth": 8},
    "gbdt": {"n_estimators": 10, "num_leaves": 8},
    "gru": {
        "embedding_dim": 8,
        "hidden_dim": 8,
        "epochs": 2,
        "batch_size": 16,
        "learning_rate": 0.01,
        "dropout": 0.0,
    },
}


class TestTrainFamily:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_fit_predict_save_load(self, family, prepared_binary, tmp_path):
        dataset = prepared_binary
        fitted = search.train_family(
            family, dict(FAMILY_PARAMS[family]), dataset, model_seed=3
        )
        assert fitted.family == family
        n_val = dataset.labels_for("validation").size
        preds, scores = fitted.infer(fitted._inputs(dataset, "validation"))
        assert preds.shape == (n_val,)
        assert scores.shape == (n_val, dataset.scheme.n_classes)
        assert np.all(np.isfinite(scores))
        assert set(np.unique(preds)) <= set(range(dataset.scheme.n_classes))

        stem = str(tmp_path / f"{family}_bundle")
        path = search.save_model(fitted, stem)
        assert path == stem + ".model.json"
        reloaded = search.load_model(stem)
        assert reloaded.family == family
        again, again_scores = reloaded.infer(reloaded._inputs(dataset, "validation"))
        assert np.array_equal(again, preds)
        assert np.array_equal(again_scores, scores)

    def test_split_predictions_match_row_predictions(self, prepared_binary):
        dataset = prepared_binary
        for family, features in (("logistic", "tfidf"), ("gru", "vocab")):
            fitted = search.train_family(family, dict(FAMILY_PARAMS[family]), dataset)
            from_split = fitted.infer(fitted._inputs(dataset, "validation"))
            from_rows = fitted.infer(dataset.rows(features, "validation"))
            for ours, theirs in zip(from_split, from_rows):
                assert np.array_equal(ours, theirs)

    def test_unknown_family_rejected(self, prepared_binary):
        with pytest.raises(DataError):
            search.train_family("perceptron", {}, prepared_binary)

    def test_pad_scores_zero_fills_missing_columns(self):
        scores = np.array([[0.25, 0.75], [0.5, 0.5]])
        padded = search.pad_scores(scores, 4)
        assert padded.shape == (2, 4)
        assert np.array_equal(padded[:, :2], scores)
        assert np.array_equal(padded[:, 2:], np.zeros((2, 2)))
        assert np.array_equal(search.pad_scores(scores, 2), scores)


def _old_svm_votes(model, rows):
    votes, _ = svm._votes_and_margin_sums(model, rows)
    return np.argmax(votes, axis=1)


def _old_svm_scores(model, rows):
    votes, sums = svm._votes_and_margin_sums(model, rows)
    return votes + sums / (3.0 * (np.abs(sums) + 1.0))


# The two inference hooks each family had before `Family.infer`: its
# scores, and labels of their argmax unless a `predict` hook said
# otherwise; the oracle of one-pass inference.
OLD_SCORES = {
    "logistic": lambda p, rows: linear.predict_proba(p, rows),
    "svm": _old_svm_scores,
    "cart": lambda p, rows: trees.tree_class_scores(
        p.root, rows, p.n_classes, p.weight_per_class),
    "forest": lambda p, rows: trees.forest_scores(p, rows),
    "gbdt": lambda p, rows: trees.predict_gbdt_proba(p, rows),
    "gru": lambda p, rows: gru.predict_scores(p, rows),
}
OLD_PREDICT = {
    "svm": _old_svm_votes,
    "cart": lambda p, rows: trees.predict_tree(p.root, rows),
}


def old_predict_rows(fitted: search.FittedModel, rows) -> np.ndarray:
    predict = OLD_PREDICT.get(fitted.family)
    if predict is None:
        return np.argmax(OLD_SCORES[fitted.family](fitted.payload, rows), axis=1)
    return predict(fitted.payload, rows)


def old_score_rows(fitted: search.FittedModel, rows) -> np.ndarray:
    return search.pad_scores(OLD_SCORES[fitted.family](fitted.payload, rows),
                             fitted.scheme.n_classes)


INFER_CASES = {
    "logistic": ("logistic", {"C": 1000.0, "max_iter": 100}),
    "svm-linear": ("svm", {"kernel": "linear", "max_epochs": 100}),
    "svm-rbf": ("svm", {"kernel": "rbf", "max_epochs": 20}),
    "cart": ("cart", {"max_depth": 6}),
    "cart-balanced": ("cart", {"max_depth": 2, "class_weight": "balanced"}),
    "forest": ("forest", {"n_estimators": 5, "max_depth": 6}),
    "gbdt": ("gbdt", {"n_estimators": 3, "num_leaves": 4}),
    "gru": ("gru", dict(FAMILY_PARAMS["gru"], class_weight=None)),
}


class TestOnePassInference:
    @pytest.mark.parametrize("case", sorted(INFER_CASES))
    @pytest.mark.parametrize("scheme, lacks_a_class", [
        ("binary", False), ("multiclass", False), ("multiclass", True),
    ], ids=["binary", "multiclass", "multiclass-lacking-a-class"])
    def test_labels_and_scores_match_the_two_hook_oracle(
        self, prepared_binary, prepared_multiclass, case, scheme, lacks_a_class
    ):
        """One call gives the labels and padded scores the separate
        predict and score paths gave, bit for bit, on every split; a
        model that never saw the last class gets a zero column for it."""
        dataset = prepared_binary if scheme == "binary" else prepared_multiclass
        family, params = INFER_CASES[case]
        spec = families.get(family)
        X, y = dataset.rows(spec.features, "train"), dataset.labels_for("train")
        n_classes = dataset.scheme.n_classes
        if lacks_a_class:
            keep = y != n_classes - 1
            X, y = X[keep], y[keep]
        payload, _ = spec.fit(X, y, spec.config(**params), 3, dataset)
        fitted = search.FittedModel(family, payload, dataset.scheme,
                                    getattr(dataset, spec.features))
        for split in ("train", "validation", "test"):
            rows = dataset.rows(spec.features, split)
            labels, scores = fitted.infer(rows)
            expected_labels = old_predict_rows(fitted, rows)
            expected_scores = old_score_rows(fitted, rows)
            assert labels.dtype == expected_labels.dtype
            assert labels.tobytes() == expected_labels.tobytes()
            assert scores.dtype == expected_scores.dtype
            assert scores.shape == (rows.shape[0], n_classes)
            assert scores.tobytes() == expected_scores.tobytes()
        if lacks_a_class and family != "gru":  # the GRU always has a column per class
            assert OLD_SCORES[family](payload, rows).shape[1] < n_classes
            assert not scores[:, -1].any()

    def test_evaluate_runs_the_model_once(self, prepared_multiclass, monkeypatch):
        dataset = prepared_multiclass
        fitted = search.train_family("gru", dict(FAMILY_PARAMS["gru"]), dataset)
        calls = []
        original = gru.predict_scores
        monkeypatch.setattr(gru, "predict_scores",
                            lambda *args: calls.append(1) or original(*args))
        search.evaluate_model(fitted, dataset, "test")
        assert len(calls) == 1


class TestRunSearch:
    def test_exact_tie_keeps_earliest_trial(self, prepared_binary):
        config = make_config(grid={"C": [1000.0, 1000.0]})
        result = search.run_search(prepared_binary, config)
        assert len(result.trials) == 2
        assert (
            result.trials[0].val_weighted_f1 == result.trials[1].val_weighted_f1
        )
        assert result.best_index == 0

    def test_best_is_argmax_over_successes(self, prepared_binary):
        result = search.run_search(prepared_binary, make_config())
        scores = [t.val_weighted_f1 for t in result.trials]
        assert result.best_index == int(np.argmax(scores))
        assert result.best_params == result.trials[result.best_index].params
        payload = result.to_dict()
        assert payload["status"] == "ok"
        assert payload["best_index"] == result.best_index
        assert payload["best_val_weighted_f1"] == max(scores)

    def test_failing_trial_is_recorded_not_fatal(self, prepared_binary):
        config = make_config(grid={"C": [-1.0, 1000.0]})
        result = search.run_search(prepared_binary, config)
        failed, ok = result.trials
        assert failed.val_weighted_f1 is None
        assert isinstance(failed.error, str) and failed.error
        assert ok.error is None and ok.val_weighted_f1 > 0.5
        assert result.best_index == 1
        assert all(t.seconds >= 0.0 for t in result.trials)

    def test_all_failures_raise_with_trial_log(self, prepared_binary):
        config = make_config(grid={"C": [-1.0, -2.0]})
        with pytest.raises(SearchFailedError) as excinfo:
            search.run_search(prepared_binary, config)
        trials = excinfo.value.trials
        assert len(trials) == 2
        assert all(t.error for t in trials)

    def test_rerun_reproduces_trial_log(self, prepared_binary):
        config = make_config(grid={"C": [10.0, 1000.0]})
        first = search.run_search(prepared_binary, config)
        second = search.run_search(prepared_binary, config)
        assert [t.params for t in first.trials] == [t.params for t in second.trials]
        assert [t.val_weighted_f1 for t in first.trials] == [
            t.val_weighted_f1 for t in second.trials
        ]
        assert first.best_index == second.best_index

    def test_refit_best_reproduces_validation_score(self, prepared_binary):
        dataset = prepared_binary
        result = search.run_search(dataset, make_config())
        family, params, model_seed = search.decode_best_config(result.best_config("0" * 64, []))
        refit = search.train_family(family, params, dataset, model_seed=model_seed)
        labels, _ = refit.infer(refit._inputs(dataset, "validation"))
        score = metrics.weighted_f1(
            dataset.labels_for("validation"), labels, dataset.scheme.n_classes
        )
        assert score == result.best_trial.val_weighted_f1

    def test_random_mode_search_runs(self, prepared_binary):
        config = make_config(
            mode="random",
            n_samples=3,
            grid={},
            random={"C": {"kind": "log_uniform", "low": 10.0, "high": 1000.0}},
        )
        result = search.run_search(prepared_binary, config)
        assert len(result.trials) == 3
        assert all(10.0 <= t.params["C"] <= 1000.0 for t in result.trials)

    def test_evaluate_model_bundles_full_report(self, prepared_binary):
        dataset = prepared_binary
        fitted = search.train_family("cart", {"max_depth": 8}, dataset)
        evaluation = search.evaluate_model(fitted, dataset, "test")
        n_test = dataset.labels_for("test").size
        assert int(np.sum(evaluation.confusion)) == n_test
        assert "binary" in evaluation.auroc_values
        payload = evaluation.to_dict()
        assert 0.0 <= payload["prf"]["accuracy"] <= 1.0


def token_codes(payload: dict) -> list[int]:
    return np.frombuffer(base64.b64decode(payload["token_codes"]), dtype="<i4").tolist()


def set_token_codes(payload: dict, codes) -> None:
    payload["token_codes"] = base64.b64encode(
        np.asarray(codes, dtype="<i4").tobytes()).decode("ascii")


def drop_last_document_tokens(payload: dict) -> None:
    """One document fewer in the token fields, which stay consistent
    with each other."""
    count = payload["token_counts"].pop()
    codes = token_codes(payload)
    set_token_codes(payload, codes[:len(codes) - count])


class TestPreparedDatasetIO:
    def test_split_partitions_documents(self, prepared_binary):
        dataset = prepared_binary
        train = dataset.indices("train")
        val = dataset.indices("validation")
        test = dataset.indices("test")
        assert (len(train), len(val), len(test)) == (156, 52, 52)
        combined = sorted(train + val + test)
        assert combined == list(range(dataset.n_docs))

    def test_save_load_round_trip(self, prepared_binary, tmp_path):
        dataset = prepared_binary
        path = str(tmp_path / "prepared.json")
        dataset.save(path)
        loaded = PreparedDataset.load(path)
        assert loaded.ids == dataset.ids
        assert loaded.tokens == dataset.tokens
        assert all(isinstance(doc, tuple) for doc in loaded.tokens)
        assert loaded.scheme.to_dict() == dataset.scheme.to_dict()
        assert np.array_equal(loaded.labels, dataset.labels)
        for split_name in ("train", "validation", "test"):
            assert loaded.indices(split_name) == dataset.indices(split_name)
            assert np.array_equal(
                loaded.rows("tfidf", split_name), dataset.rows("tfidf", split_name)
            )
            assert np.array_equal(
                loaded.rows("vocab", split_name), dataset.rows("vocab", split_name)
            )
        assert loaded.rows("vocab", "train").dtype == np.int32

    def test_load_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            PreparedDataset.load(str(tmp_path / "absent.json"))

    def test_load_malformed_json_is_data_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2", encoding="utf-8")
        with pytest.raises(DataError):
            PreparedDataset.load(str(path))

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["labels"].pop(), "one token count and label per id"),
        (drop_last_document_tokens, "one token count and label per id"),
        (lambda d: d["split"]["test"].append(len(d["ids"])), "test indices past"),
        (lambda d: d["split"].update(train=-1), "split.train"),
        (lambda d: d["labels"].__setitem__(0, len(d["scheme"]["names"])), "labels outside"),
        (lambda d: d["tfidf"].update(ngram_range="x"), "ngram_range"),
        (lambda d: d["vocab"].update(max_len=0), "max_len"),
        (lambda d: d["tfidf"].update(max_features=2.9), "max_features"),
        (lambda d: d["tfidf"].update(ngram_range=[2, 1]), "ngram_range"),
        (lambda d: d["tfidf"]["terms"].__setitem__(0, []), "terms"),
        (lambda d: d["vocab"]["index"].update(extra=10**6), "index"),
        (lambda d: d["split"]["train"].__setitem__(0, 1.5), "split.train"),
        (lambda d: d["split"]["train"].__setitem__(0, True), "split.train"),
        (lambda d: d["split"]["test"].append(d["split"]["train"][0]), "split:"),
        (lambda d: d["split"]["train"].append(d["split"]["train"][0]), "split:"),
        (lambda d: d["labels"].__setitem__(0, 0.5), "labels"),
        (lambda d: d["labels"].__setitem__(0, True), "labels"),
        (lambda d: d["ids"].__setitem__(1, d["ids"][0]), "ids:"),
        (lambda d: d["ids"].__setitem__(0, 7), "ids:"),
    ], ids=["labels-short", "tokens-short", "split-index-past-end", "split-not-a-list",
            "label-outside-scheme", "bad-ngram-range", "zero-max-len",
            "fractional-max-features", "ngram-range-reversed", "term-not-a-string",
            "token-id-past-vocabulary", "split-index-fractional", "split-index-bool",
            "index-in-two-splits", "index-twice-in-one-split", "label-fractional",
            "label-bool", "duplicate-ids", "numeric-id"])
    def test_inconsistent_payload_is_data_error(self, prepared_binary, tmp_path, mutate,
                                                field):
        """A split index of 1.5 ended in a TypeError traceback; an index of
        true, an index in two splits, a label of 0.5 and duplicate or
        numeric ids were accepted."""
        payload = json.loads(json.dumps(prepared_binary.to_dict()))
        mutate(payload)
        path = tmp_path / "prepared.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(field)):
            PreparedDataset.load(str(path))


class TestPresets:
    def test_expected_presets_exist(self):
        names = presets.preset_names()
        assert {"binary", "binary_balanced", "multiclass", "svm_linear",
                "svm_rbf", "cart", "forest", "gbdt", "gru"} <= set(names)

    @pytest.mark.parametrize("name", presets.preset_names())
    def test_every_preset_constructs(self, name):
        config = presets.get_preset(name)
        assert isinstance(config, ExperimentConfig)
        assert config.family in FAMILIES
        assert search.candidate_list(config)

    def test_unknown_preset_rejected(self):
        with pytest.raises(UsageError):
            presets.get_preset("nope")


def binary_evaluation() -> dict:
    """A small hand-built evaluation payload in the CLI's output shape."""
    y_true = np.array([0, 1, 1, 0, 1, 0])
    y_pred = np.array([0, 1, 0, 0, 1, 1])
    scores = np.array([0.1, 0.9, 0.4, 0.2, 0.8, 0.6])
    evaluation = metrics.evaluate_predictions(y_true, y_pred, scores, n_classes=2)
    return {
        "schema_version": 1,
        "family": "logistic",
        "split": "test",
        "n_eval": 6,
        "class_names": ["control", "depression"],
        "scheme_kind": "binary",
        "metrics": evaluation.to_dict(),
    }


class TestReport:
    def test_fixed_clock_makes_outputs_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(report.FIXED_CLOCK_ENV, "1")
        evaluation = binary_evaluation()
        first = report.emit_report(report.check_evaluation(evaluation), str(tmp_path / "a"))
        second = report.emit_report(report.check_evaluation(evaluation), str(tmp_path / "b"))
        assert [os.path.basename(p) for p in first] == [
            os.path.basename(p) for p in second
        ]
        for path_a, path_b in zip(first, second):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read()
        with open(first[0], encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["generated_at"] == "1970-01-01T00:00:00Z"

    def test_report_files_written(self, tmp_path):
        written = report.emit_report(report.check_evaluation(binary_evaluation()), str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {
            "report.json",
            "roc_points.csv",
            "class_distribution.csv",
            "class_distribution.svg",
        }

    def test_roc_csv_header_and_open_threshold(self, tmp_path):
        report.emit_report(report.check_evaluation(binary_evaluation()), str(tmp_path))
        lines = (tmp_path / "roc_points.csv").read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        n_points = len(binary_evaluation()["metrics"]["roc_points"])
        assert len(lines) == 1 + n_points
        # the curve starts above every score, where no threshold exists
        assert lines[1].endswith(",")
        first_fpr, first_tpr, first_thr = lines[1].split(",")
        assert float(first_fpr) == 0.0 and float(first_tpr) == 0.0
        assert first_thr == ""

    def test_distribution_counts_match_confusion_rows(self, tmp_path):
        evaluation = binary_evaluation()
        report.emit_report(report.check_evaluation(evaluation), str(tmp_path))
        lines = (tmp_path / "class_distribution.csv").read_text().splitlines()
        assert lines[0] == "class_id,class_name,count"
        confusion = evaluation["metrics"]["confusion_matrix"]
        for i, line in enumerate(lines[1:]):
            class_id, name, count = line.split(",")
            assert int(class_id) == i
            assert name == evaluation["class_names"][i]
            assert int(count) == sum(confusion[i])

    def test_missing_class_names_are_padded(self, tmp_path):
        evaluation = {
            "schema_version": 1,
            "class_names": ["control", "depression"],
            "metrics": {"confusion_matrix": [[5, 0, 1], [1, 3, 0], [0, 2, 4]]},
        }
        written = report.emit_report(report.check_evaluation(evaluation), str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert "roc_points.csv" not in names
        text = (tmp_path / "class_distribution.csv").read_text()
        assert "2,class_2,6" in text

    def test_svg_is_well_formed(self, tmp_path):
        report.emit_report(report.check_evaluation(binary_evaluation()), str(tmp_path))
        text = (tmp_path / "class_distribution.svg").read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) >= 2


def _stdlib_json(payload) -> str:
    """The text write_json wrote before its encoder (less the final
    newline): json.dump with indent, which runs in pure Python."""
    buffer = io.StringIO()
    json.dump(payload, buffer, sort_keys=True, indent=2)
    return buffer.getvalue()


def _roc_csv_loop(points: list[dict]) -> str:
    """report._roc_csv as it was, with three format calls per row."""
    lines = ["fpr,tpr,threshold"]
    for point in points:
        threshold = point.get("threshold")
        thr = "" if threshold is None else format(float(threshold), ".17g")
        lines.append(
            f"{format(float(point['fpr']), '.17g')},"
            f"{format(float(point['tpr']), '.17g')},{thr}"
        )
    return "\n".join(lines) + "\n"


class _Float(float):
    pass


# keys and strings with the separator the encoder splits on, the % of its
# templates, quotes, control characters and non-ASCII
_JSON_TEXT = st.lists(st.sampled_from(
    [",", " ", ", ", "%", "%s", '"', "\\", "\x00", "\x1f", "\n", "a", "é", "€", "😀"]),
    max_size=5).map("".join)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63),
    st.integers(max_value=-2**63), st.floats(), st.floats().map(_Float),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]), _JSON_TEXT,
)
# lists of records that share a key set, as the ROC points do
_JSON_RECORDS = st.lists(_JSON_TEXT, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, _JSON_SCALARS)),
                          min_size=1, max_size=4))
_JSON_TREES = st.recursive(
    st.one_of(_JSON_SCALARS, _JSON_RECORDS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
        st.lists(st.dictionaries(_JSON_TEXT, children, max_size=3), max_size=3),
    ),
    max_leaves=12,
)
# keys json converts or refuses, and values it refuses
_ODD_TREES = st.recursive(
    st.one_of(_JSON_SCALARS, st.just(object()), st.just({1, 2}), st.just(b"x")),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(_JSON_TEXT, st.integers(), st.floats(), st.booleans(),
                                  st.none(), st.just((1,))), children, max_size=3),
    ),
    max_leaves=8,
)


def _assert_same_text_or_error(payload):
    try:
        expected = _stdlib_json(payload)
    except Exception as exc:  # the encoder must refuse it the same way
        with pytest.raises(Exception) as raised:
            report.indented_json(payload)
        assert type(raised.value) is type(exc)
        return
    assert report.indented_json(payload) == expected


class TestIndentedJson:
    """report.indented_json gives json.dump's indented text from C
    encoder calls."""

    @given(_JSON_TREES)
    @settings(max_examples=400, deadline=None)
    @example([])
    @example({})
    @example([[], {}, [{}], {"a": {}}])
    @example([{"a, b": 1, "%s": "x, y"}, {"a, b": 2, "%s": "%"}])
    @example([{"a": 1}, {"b": 1}])
    @example([{"a": [1]}, {"a": [2]}])
    @example([2**64, -0.0, float("nan"), float("inf"), float("-inf"), _Float(0.1), True, None])
    def test_same_text_as_json_dump(self, payload):
        _assert_same_text_or_error(payload)

    @given(_ODD_TREES)
    @settings(max_examples=300, deadline=None)
    @example({1: "a", 2.5: "b", True: 0, None: 1})
    @example({1: "a", "b": 2})
    @example([object()])
    def test_same_text_or_error_for_other_keys_and_values(self, payload):
        _assert_same_text_or_error(payload)

    def test_an_evaluation_and_a_vocabulary(self, prepared_multiclass):
        y_true = np.arange(60) % 3
        scores = np.random.default_rng(0).dirichlet(np.ones(3), size=60)
        evaluation = metrics.evaluate_predictions(y_true, scores.argmax(1), scores, n_classes=3)
        for payload in (binary_evaluation(), evaluation.to_dict(),
                        prepared_multiclass.vocab.to_dict()):
            assert report.indented_json(payload) == _stdlib_json(payload)

    @given(st.lists(st.fixed_dictionaries({
        "fpr": st.floats() | st.integers(-10**20, 10**20) | st.booleans(),
        "tpr": st.floats() | st.integers(0, 10),
        "threshold": st.none() | st.floats() | st.integers(-5, 5),
    }), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_roc_csv_matches_the_three_format_loop(self, points):
        assert report._roc_csv(points) == _roc_csv_loop(points)

    def test_roc_csv_of_an_evaluation_matches_the_loop(self):
        points = binary_evaluation()["metrics"]["roc_points"]
        assert report._roc_csv(points) == _roc_csv_loop(points)


@pytest.fixture(scope="module")
def cli_prepared(tmp_path_factory, synthetic_csv) -> dict:
    """Run `prepare` once for the CLI tests that need a dataset on disk."""
    base = tmp_path_factory.mktemp("cliws")
    prep = base / "prepared.json"
    code = cli.run([
        "prepare",
        "--corpus", synthetic_csv,
        "--out", str(prep),
        "--scheme", "binary",
        "--seed", "5",
        "--max-features", "400",
    ])
    assert code == 0
    return {"base": base, "prep": str(prep), "corpus": synthetic_csv}


class TestCli:
    def test_full_pipeline_exits_zero(self, cli_prepared, tmp_path):
        prep = cli_prepared["prep"]
        config_path = tmp_path / "search_config.json"
        ExperimentConfig(
            family="cart",
            mode="grid",
            seed=3,
            fixed={"max_depth": 8},
            grid={"min_samples_leaf": [1, 5]},
        ).save(str(config_path))

        tune_dir = tmp_path / "tune"
        assert cli.run([
            "tune", "--prepared", prep,
            "--config", str(config_path), "--outdir", str(tune_dir),
        ]) == 0
        with open(tune_dir / "search.json", encoding="utf-8") as handle:
            search_log = json.load(handle)
        assert search_log["status"] == "ok"
        assert len(search_log["trials"]) == 2
        best_path = tune_dir / "best_config.json"
        with open(best_path, encoding="utf-8") as handle:
            best = json.load(handle)
        assert best["family"] == "cart"
        assert "min_samples_leaf" in best["params"]

        stem = str(tmp_path / "model")
        assert cli.run([
            "train", "--prepared", prep, "--best", str(best_path), "--out", stem,
        ]) == 0
        assert os.path.exists(stem + ".model.json")

        eval_path = tmp_path / "evaluation.json"
        assert cli.run([
            "evaluate", "--prepared", prep, "--model", stem,
            "--split", "test", "--out", str(eval_path),
        ]) == 0
        with open(eval_path, encoding="utf-8") as handle:
            evaluation = json.load(handle)
        assert evaluation["split"] == "test"
        assert evaluation["n_eval"] == 52
        assert "confusion_matrix" in evaluation["metrics"]

        report_dir = tmp_path / "report"
        assert cli.run([
            "report", "--evaluation", str(eval_path), "--outdir", str(report_dir),
        ]) == 0
        for name in ("report.json", "class_distribution.csv",
                     "class_distribution.svg", "roc_points.csv"):
            assert (report_dir / name).exists()

    def test_preset_tune_exits_zero(self, cli_prepared, tmp_path):
        tune_dir = tmp_path / "tune"
        assert cli.run([
            "tune", "--prepared", cli_prepared["prep"],
            "--preset", "cart", "--outdir", str(tune_dir),
        ]) == 0
        assert (tune_dir / "best_config.json").exists()

    def test_missing_corpus_exits_two(self, tmp_path):
        code = cli.run([
            "prepare",
            "--corpus", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "prep.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("content", [
        "id,statement,status\n1,fine,Normal\n2," + "x" * 200_000 + ",Normal\n",
        "id,statement,status\n1,caf\u00e9,Normal\n".encode("latin-1"),
    ], ids=["field-over-the-csv-limit", "not-utf8"])
    def test_undecodable_corpus_exits_two(self, tmp_path, capsys, content):
        corpus = tmp_path / "corpus.csv"
        if isinstance(content, str):
            corpus.write_text(content, encoding="utf-8")
        else:
            corpus.write_bytes(content)
        code = cli.run(["prepare", "--corpus", str(corpus), "--out", str(tmp_path / "p.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(corpus) in err and "Traceback" not in err
        assert not (tmp_path / "p.json").exists()

    def test_corpus_with_a_nul_byte_exits_two(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("id,statement,status\n1,fine,Normal\n2,ba\0d,Normal\n",
                          encoding="utf-8")
        code = cli.run(["prepare", "--corpus", str(corpus), "--out", str(tmp_path / "p.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(corpus) in err and "line 3" in err and "Traceback" not in err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("flags, setting", [
        (["--max-len", "0"], "max_len"),
        (["--vocab-min-freq", "0"], "min_freq"),
        (["--max-features", "0"], "max_features"),
        (["--max-features", "-3"], "max_features"),
        (["--ngram-min", "2", "--ngram-max", "1"], "ngram_range"),
    ], ids=["zero-max-len", "zero-vocab-min-freq", "zero-max-features",
            "negative-max-features", "ngram-range-reversed"])
    def test_prepare_setting_breaking_its_rule_exits_one(
        self, cli_prepared, tmp_path, capsys, flags, setting
    ):
        code = cli.run(["prepare", "--corpus", cli_prepared["corpus"],
                        "--out", str(tmp_path / "p.json"), *flags])
        assert code == 1
        assert setting in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_unknown_flag_exits_one(self, cli_prepared, tmp_path):
        code = cli.run([
            "prepare",
            "--corpus", cli_prepared["corpus"],
            "--out", str(tmp_path / "prep.json"),
            "--nope",
        ])
        assert code == 1

    def test_missing_subcommand_exits_one(self):
        assert cli.run([]) == 1

    def test_unknown_preset_exits_one(self, cli_prepared, tmp_path):
        code = cli.run([
            "tune", "--prepared", cli_prepared["prep"],
            "--preset", "nope", "--outdir", str(tmp_path),
        ])
        assert code == 1

    def test_fractional_int_range_bound_exits_one(self, cli_prepared, tmp_path):
        payload = make_config(family="cart", mode="random", fixed={}, grid={}, random={
            "max_depth": {"kind": "int_range", "low": 1, "high": 3}}).to_dict()
        payload["random"]["max_depth"].update(low=1.5, high=3.9)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.run([
            "tune", "--prepared", cli_prepared["prep"],
            "--config", str(config_path), "--outdir", str(tmp_path / "tune"),
        ]) == 1

    def test_params_alongside_best_exits_one(self, cli_prepared, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text("{}", encoding="utf-8")
        code = cli.run([
            "train", "--prepared", cli_prepared["prep"],
            "--best", str(params_path), "--params", str(params_path),
            "--out", str(tmp_path / "model"),
        ])
        assert code == 1

    def test_all_failed_search_exits_three_with_log(self, cli_prepared, tmp_path):
        config_path = tmp_path / "bad_config.json"
        make_config(grid={"C": [-1.0, -5.0]}).save(str(config_path))
        tune_dir = tmp_path / "tune"
        code = cli.run([
            "tune", "--prepared", cli_prepared["prep"],
            "--config", str(config_path), "--outdir", str(tune_dir),
        ])
        assert code == 3
        with open(tune_dir / "search.json", encoding="utf-8") as handle:
            log = json.load(handle)
        assert log["status"] == "no successful trials"
        assert len(log["trials"]) == 2
        assert not (tune_dir / "best_config.json").exists()

    def test_output_root_redirects_relative_paths(
        self, cli_prepared, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        code = cli.run([
            "prepare",
            "--corpus", cli_prepared["corpus"],
            "--out", "redirected.json",
            "--max-features", "100",
        ])
        assert code == 0
        assert (tmp_path / "redirected.json").exists()
        assert not os.path.exists("redirected.json")

    def test_evaluate_scheme_mismatch_exits_two(self, cli_prepared, tmp_path):
        multi_prep = tmp_path / "prepared_multi.json"
        assert cli.run([
            "prepare",
            "--corpus", cli_prepared["corpus"],
            "--out", str(multi_prep),
            "--scheme", "multiclass",
            "--seed", "5",
            "--max-features", "400",
        ]) == 0
        dataset = PreparedDataset.load(cli_prepared["prep"])
        fitted = search.train_family("cart", {"max_depth": 4}, dataset)
        stem = str(tmp_path / "binary_model")
        search.save_model(fitted, stem)
        code = cli.run([
            "evaluate", "--prepared", str(multi_prep), "--model", stem,
            "--split", "test", "--out", str(tmp_path / "eval.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("family, params", [
        ("logistic", {"max_itr": 5}),
        ("logistic", {"C": -1}),  # checked by the config dataclass
        ("svm", {"C": -1}),  # checked by the solver
        ("logistic", {"C": "abc"}),
        ("cart", {"max_depth": "abc"}),
        ("logistic", [["max_iter", 5]]),
        ("forest", {"bootstrap": "false"}),
        ("forest", {"n_estimators": 2.9}),
        ("gru", {"epochs": 1.9}),
        ("logistic", {"max_iter": True}),
        ("logistic", {"max_iter": "5"}),
        ("logistic", {"C": True}),
        ("logistic", {"tol": "1e-3"}),
        ("cart", {"max_depth": 2.9}),
        ("forest", {"max_features": True}),
        ("forest", {"max_features": 2.9}),
        ("svm", {"kernel": "rbf", "gamma": True}),
        ("svm", {"kernel": "rbf", "gamma": -2}),
        ("logistic", {"C": float("nan")}),  # json reads NaN, Infinity and 1e999
        ("gbdt", {"learning_rate": float("nan")}),
        ("svm", {"kernel": "sigmoid", "alpha": float("nan")}),
        ("logistic", {"tol": float("inf")}),
        ("svm", {"max_epochs": 0}),
        ("svm", {"max_epochs": -3}),
        ("svm", {"C": 1e308}),  # C times the row count overflows
        ("svm", {"kernel": "poly"}),
    ], ids=["unknown-key", "out-of-range", "out-of-range-svm", "wrong-type",
            "wrong-type-cart", "not-an-object", "bool-as-string", "fractional-int",
            "fractional-epochs", "bool-as-int", "int-as-string", "float-as-bool",
            "float-as-string", "fractional-max-depth", "max-features-as-bool",
            "fractional-max-features", "gamma-as-bool", "negative-gamma", "nan-c",
            "nan-learning-rate", "nan-alpha", "infinite-tol", "zero-max-epochs",
            "negative-max-epochs", "overflowing-c", "unknown-kernel"])
    def test_bad_params_exit_one(self, cli_prepared, tmp_path, capsys, family, params):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params), encoding="utf-8")
        code = cli.run([
            "train", "--prepared", cli_prepared["prep"], "--family", family,
            "--params", str(params_path), "--out", str(tmp_path / "model"),
        ])
        assert code == 1
        assert not (tmp_path / "model.model.json").exists()
        if isinstance(params, dict) and len(params) == 1:  # the refusal names the key
            assert next(iter(params)) in capsys.readouterr().err

    def test_non_finite_kernel_exits_one(self, cli_prepared, tmp_path, capsys):
        """A degree-1100 kernel overflows on every TF-IDF row; it once
        trained a constant classifier with no support vectors."""
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"kernel": "polynomial", "degree": 1100,
                                           "coef0": 1.0}), encoding="utf-8")
        capsys.readouterr()
        code = cli.run([
            "train", "--prepared", cli_prepared["prep"], "--family", "svm",
            "--params", str(params_path), "--out", str(tmp_path / "model"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert not (tmp_path / "model.model.json").exists()
        for part in ("kernel='polynomial'", "degree=1100", "coef0=1.0", "class pair (0, 1)"):
            assert part in err

    def test_non_finite_kernel_trial_is_recorded_and_skipped(self, cli_prepared, tmp_path):
        config_path = tmp_path / "config.json"
        make_config(family="svm", fixed={"kernel": "polynomial", "coef0": 1.0,
                                         "max_epochs": 5},
                    grid={"degree": [1100, 2]}).save(str(config_path))
        tune_dir = tmp_path / "tune"
        assert cli.run([
            "tune", "--prepared", cli_prepared["prep"],
            "--config", str(config_path), "--outdir", str(tune_dir),
        ]) == 0
        log = json.loads((tune_dir / "search.json").read_text(encoding="utf-8"))
        failed, kept = log["trials"]
        assert "non-finite" in failed["error"] and failed["val_weighted_f1"] is None
        assert kept["error"] is None
        best = json.loads((tune_dir / "best_config.json").read_text(encoding="utf-8"))
        assert best["params"]["degree"] == 2

    def test_integral_float_param_trains_like_an_int(self, cli_prepared, tmp_path):
        bundles = []
        for value in (3, 3.0):
            params_path = tmp_path / "params.json"
            params_path.write_text(json.dumps({"n_estimators": value}), encoding="utf-8")
            stem = tmp_path / f"forest_{value}"
            assert cli.run([
                "train", "--prepared", cli_prepared["prep"], "--family", "forest",
                "--params", str(params_path), "--out", str(stem),
            ]) == 0
            bundles.append((tmp_path / f"forest_{value}.model.json").read_bytes())
        assert bundles[0] == bundles[1]

    def test_unusable_evaluation_writes_nothing(self, tmp_path):
        evaluation = binary_evaluation()
        evaluation["metrics"]["confusion_matrix"] = "x"
        eval_path = tmp_path / "evaluation.json"
        eval_path.write_text(json.dumps(evaluation), encoding="utf-8")
        report_dir = tmp_path / "report"
        assert cli.run([
            "report", "--evaluation", str(eval_path), "--outdir", str(report_dir),
        ]) == 2
        assert not report_dir.exists()

    def test_report_renders_each_file_once(self, tmp_path, monkeypatch):
        """Checking the evaluation draws the report files, and `report`
        writes those same texts instead of drawing them again."""
        monkeypatch.setenv(report.FIXED_CLOCK_ENV, "1")
        calls = []
        render = report._render
        monkeypatch.setattr(report, "_render",
                            lambda evaluation: calls.append(1) or render(evaluation))
        eval_path = tmp_path / "evaluation.json"
        eval_path.write_text(json.dumps(binary_evaluation()), encoding="utf-8")
        assert cli.run([
            "report", "--evaluation", str(eval_path), "--outdir", str(tmp_path / "report"),
        ]) == 0
        assert len(calls) == 1
        for name, text in render(binary_evaluation()):
            assert (tmp_path / "report" / name).read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("family", ["logistic", "gru"])
    def test_evaluate_feature_space_mismatch_exits_two(
        self, cli_prepared, tmp_path, family, capsys
    ):
        other_prep = tmp_path / "prepared_seed1.json"
        assert cli.run([
            "prepare", "--corpus", cli_prepared["corpus"], "--out", str(other_prep),
            "--scheme", "binary", "--seed", "1", "--max-features", "400",
        ]) == 0
        stem = str(tmp_path / "model")
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(FAMILY_PARAMS[family]), encoding="utf-8")
        assert cli.run([
            "train", "--prepared", cli_prepared["prep"], "--family", family,
            "--params", str(params_path), "--out", stem,
        ]) == 0
        capsys.readouterr()
        code = cli.run([
            "evaluate", "--prepared", str(other_prep), "--model", stem,
            "--out", str(tmp_path / "eval.json"),
        ])
        assert code == 2
        assert "different" in capsys.readouterr().err


# a two-point grid per family, small enough to tune in a test
TUNE_GRIDS = {
    "logistic": ({"max_iter": 100}, {"C": [1.0, 1000.0]}),
    "svm": ({"kernel": "linear", "max_epochs": 50}, {"C": [0.1, 1.0]}),
    "cart": ({}, {"max_depth": [2, 8]}),
    "forest": ({"max_depth": 8}, {"n_estimators": [2, 5]}),
    "gbdt": ({"n_estimators": 3, "num_leaves": 4}, {"learning_rate": [0.3, 1.0]}),
    "gru": ({**FAMILY_PARAMS["gru"], "epochs": 1}, {"learning_rate": [0.003, 0.01]}),
}


def _bundle_contents(stem: str, family: str) -> list:
    """A bundle's file bytes, gru `.npz` arrays by dtype, shape and bytes
    (the archive stamps each member with its write time)."""
    contents = []
    for path in search.bundle_files(stem, family):
        if path.endswith(".npz"):
            with np.load(path) as arrays:
                contents.append(sorted((name, a.dtype.str, a.shape, a.tobytes())
                                       for name, a in arrays.items()))
        else:
            contents.append(Path(path).read_bytes())
    return contents


@pytest.fixture()
def fits(monkeypatch) -> dict:
    """Counts the model fits of the CLI calls that follow."""
    counted = {"calls": 0}
    train_family = search.train_family

    def counting(*args, **kwargs):
        counted["calls"] += 1
        return train_family(*args, **kwargs)

    monkeypatch.setattr(search, "train_family", counting)
    return counted


def _train_best(prep, best_path, stem) -> int:
    return cli.run(["train", "--prepared", str(prep), "--best", str(best_path),
                    "--out", str(stem)])


@pytest.fixture(scope="module")
def kept_tunes(cli_prepared) -> dict:
    """Per family: a tune directory with its kept model, and the bundle
    that refitting its best config writes (no model kept beside it)."""
    base = cli_prepared["base"] / "kept"
    other = base / "prepared-seed6.json"
    assert cli.run(["prepare", "--corpus", cli_prepared["corpus"], "--out", str(other),
                    "--scheme", "binary", "--seed", "6", "--max-features", "400"]) == 0
    out = {"other_prep": other}
    for family, (fixed, grid) in TUNE_GRIDS.items():
        config = base / family / "experiment.json"
        config.parent.mkdir()
        ExperimentConfig(family=family, mode="grid", seed=3, fixed=fixed,
                         grid=grid).save(str(config))
        tune = base / family / "tune"
        assert cli.run(["tune", "--prepared", cli_prepared["prep"], "--config", str(config),
                        "--outdir", str(tune)]) == 0
        refit = base / family / "refit"
        refit.mkdir()
        shutil.copy(tune / "best_config.json", refit)
        assert _train_best(cli_prepared["prep"], refit / "best_config.json",
                           refit / "model") == 0
        # a second tune of the same family on the same prepared file: its
        # one candidate is the first tune's losing grid point
        best = json.loads((tune / "best_config.json").read_text(encoding="utf-8"))
        (axis, values), = grid.items()
        losing = next(v for v in values if v != best["params"][axis])
        other = base / family / "other"
        other.mkdir()
        ExperimentConfig(family=family, mode="grid", seed=3, fixed=fixed,
                         grid={axis: [losing]}).save(str(other / "experiment.json"))
        assert cli.run(["tune", "--prepared", cli_prepared["prep"],
                        "--config", str(other / "experiment.json"),
                        "--outdir", str(other / "tune")]) == 0
        out[family] = {"tune": tune, "other": other / "tune",
                       "refit": _bundle_contents(str(refit / "model"), family)}
    return out


class TestKeptModel:
    """`tune` keeps its winning model beside best_config.json, and
    `train --best` copies it when the inputs_sha256 key matches; any
    other case refits, with the same bytes a refit always wrote."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tune_keeps_the_winning_model_and_records_its_key(self, cli_prepared, kept_tunes,
                                                              family):
        tune = kept_tunes[family]["tune"]
        best = json.loads((tune / "best_config.json").read_text(encoding="utf-8"))
        kept = str(tune / search.KEPT_STEM)
        assert best["inputs_sha256"] == search.inputs_key(
            best, search.file_sha256(cli_prepared["prep"]), search.bundle_sha256(kept, family))
        assert search.load_model(kept).family == family
        assert _bundle_contents(kept, family) == kept_tunes[family]["refit"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matching_key_copies_the_kept_model(self, cli_prepared, kept_tunes, fits,
                                                tmp_path, family):
        stem = tmp_path / "nested" / "model"
        assert _train_best(cli_prepared["prep"], kept_tunes[family]["tune"] / "best_config.json",
                           stem) == 0
        assert fits["calls"] == 0
        assert _bundle_contents(str(stem), family) == kept_tunes[family]["refit"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_out_naming_the_kept_stem_exits_zero(self, cli_prepared, kept_tunes, fits,
                                                 tmp_path, family):
        tune = tmp_path / "tune"
        shutil.copytree(kept_tunes[family]["tune"], tune)
        kept = tune / search.KEPT_STEM
        assert _train_best(cli_prepared["prep"], tune / "best_config.json", kept) == 0
        assert fits["calls"] == 0
        assert _bundle_contents(str(kept), family) == kept_tunes[family]["refit"]

    @pytest.mark.parametrize("case", ["edited params", "other prepared", "other code",
                                      "other numpy", "missing bundle", "truncated bundle",
                                      "no key"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_miss_refits(self, cli_prepared, kept_tunes, fits, tmp_path, monkeypatch,
                           family, case):
        tune = tmp_path / "tune"
        shutil.copytree(kept_tunes[family]["tune"], tune)
        best_path = tune / "best_config.json"
        best = json.loads(best_path.read_text(encoding="utf-8"))
        kept = search.bundle_files(str(tune / search.KEPT_STEM), family)
        prep, want = cli_prepared["prep"], kept_tunes[family]["refit"]
        if case == "edited params":  # the losing grid point
            (axis, values), = TUNE_GRIDS[family][1].items()
            best["params"][axis] = next(v for v in values if v != best["params"][axis])
        elif case == "other prepared":
            prep = kept_tunes["other_prep"]
        elif case == "other code":
            monkeypatch.setattr(search, "code_sha256", lambda: "0" * 64)
        elif case == "other numpy":
            monkeypatch.setattr(np, "__version__", "0.0.0")
        elif case == "missing bundle":
            for path in kept:
                os.remove(path)
        elif case == "truncated bundle":
            for path in kept:
                data = Path(path).read_bytes()
                Path(path).write_bytes(data[: len(data) // 2])
        else:
            del best["inputs_sha256"]
        best_path.write_text(json.dumps(best), encoding="utf-8")
        if case in ("edited params", "other prepared"):
            # the refit bytes: the same best config with no model kept beside it
            alone = tmp_path / "alone"
            alone.mkdir()
            shutil.copy(best_path, alone)
            assert _train_best(prep, alone / "best_config.json", alone / "model") == 0
            want = _bundle_contents(str(alone / "model"), family)
            fits["calls"] = 0
        assert _train_best(prep, best_path, tmp_path / "model") == 0
        assert fits["calls"] == 1
        assert _bundle_contents(str(tmp_path / "model"), family) == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_bundle_from_another_run_refits(self, cli_prepared, kept_tunes, fits, tmp_path,
                                              family):
        """A tune cut between writing its bundle and its best config
        leaves the previous run's best config beside the new bundle: the
        same family, prepared file and key fields, but another model."""
        tune = tmp_path / "tune"
        shutil.copytree(kept_tunes[family]["tune"], tune)
        for path in search.bundle_files(str(kept_tunes[family]["other"] / search.KEPT_STEM),
                                        family):
            shutil.copy(path, tune)
        assert _train_best(cli_prepared["prep"], tune / "best_config.json",
                           tmp_path / "model") == 0
        assert fits["calls"] == 1
        assert _bundle_contents(str(tmp_path / "model"), family) == kept_tunes[family]["refit"]

    def test_gru_weights_from_another_run_refit(self, cli_prepared, kept_tunes, fits,
                                                tmp_path):
        """A gru save cut after its `.npz`: new weights of the same shapes
        beside the old vocabulary and `.model.json` still load."""
        tune = tmp_path / "tune"
        shutil.copytree(kept_tunes["gru"]["tune"], tune)
        shutil.copy(kept_tunes["gru"]["other"] / f"{search.KEPT_STEM}.npz", tune)
        assert search.load_model(str(tune / search.KEPT_STEM)).family == "gru"
        assert _train_best(cli_prepared["prep"], tune / "best_config.json",
                           tmp_path / "model") == 0
        assert fits["calls"] == 1
        assert _bundle_contents(str(tmp_path / "model"), "gru") == kept_tunes["gru"]["refit"]

    def test_kept_model_of_another_family_refits(self, cli_prepared, kept_tunes, fits,
                                                 tmp_path):
        tune = tmp_path / "tune"
        shutil.copytree(kept_tunes["cart"]["tune"], tune)
        shutil.copy(kept_tunes["forest"]["tune"] / "best_model.model.json", tune)
        assert _train_best(cli_prepared["prep"], tune / "best_config.json",
                           tmp_path / "model") == 0
        assert fits["calls"] == 1
        assert _bundle_contents(str(tmp_path / "model"), "cart") == kept_tunes["cart"]["refit"]


class TestSharedBinnings:
    """The gbdt trials of one search bin the train rows once per max_bins,
    through their prepared dataset, and the model a tune keeps is the one
    a refit that bins afresh writes."""

    @pytest.fixture()
    def binned(self, monkeypatch) -> list:
        """The max_bins of each binning made by the calls that follow."""
        calls = []
        bin_features = trees._bin_features

        def counting(X, max_bins):
            calls.append(max_bins)
            return bin_features(X, max_bins)

        monkeypatch.setattr(trees, "_bin_features", counting)
        return calls

    @pytest.mark.parametrize("grid, binnings", [
        ({"learning_rate": [0.3, 1.0]}, [255]),
        ({"max_bins": [8, 16]}, [8, 16]),
        ({"max_bins": [16, 8, 16], "learning_rate": [0.3, 1.0]}, [16, 8]),
    ])
    def test_one_binning_per_max_bins(self, cli_prepared, binned, tmp_path, grid, binnings):
        config = tmp_path / "experiment.json"
        ExperimentConfig(family="gbdt", mode="grid", seed=3,
                         fixed={"n_estimators": 2, "num_leaves": 4}, grid=grid).save(str(config))
        tune = tmp_path / "tune"
        assert cli.run(["tune", "--prepared", cli_prepared["prep"], "--config", str(config),
                        "--outdir", str(tune)]) == 0
        assert binned == binnings
        kept = search.bundle_files(str(tune / search.KEPT_STEM), "gbdt")
        contents = [Path(path).read_bytes() for path in kept]
        for path in kept:
            os.remove(path)
        refit = tmp_path / "refit"
        assert _train_best(cli_prepared["prep"], tune / "best_config.json", refit) == 0
        assert len(binned) == len(binnings) + 1
        assert [Path(path).read_bytes()
                for path in search.bundle_files(str(refit), "gbdt")] == contents

    def test_other_rows_are_binned_afresh(self, prepared_binary, binned):
        """A fit on rows other than the dataset's train rows neither reads
        nor adds to its binnings."""
        spec = families.get("gbdt")
        config = spec.config(n_estimators=2, num_leaves=4, max_bins=16)
        X, y = prepared_binary.rows("tfidf", "train"), prepared_binary.labels_for("train")
        spec.fit(X, y, config, 0, prepared_binary)
        held = dict(prepared_binary.fit_state("gbdt binnings"))
        assert 16 in held
        before = len(binned)
        payload, _ = spec.fit(X[:-7], y[:-7], config, 0, prepared_binary)
        assert binned[before:] == [16]
        after = prepared_binary.fit_state("gbdt binnings")
        assert after.keys() == held.keys() and all(after[k] is held[k] for k in held)
        alone = trees.fit_gbdt(X[:-7], y[:-7], config)
        assert json.dumps(trees.gbdt_to_dict(payload)) == json.dumps(trees.gbdt_to_dict(alone))

    def test_binnings_are_freed_with_their_dataset(self, cli_prepared):
        """No binning outlives the dataset whose rows it bins."""
        dataset = PreparedDataset.load(cli_prepared["prep"])
        config = make_config(family="gbdt", fixed={"n_estimators": 1, "num_leaves": 2},
                             grid={"max_bins": [4, 8]})
        search.run_search(dataset, config)
        binnings = dataset.fit_state("gbdt binnings")
        assert sorted(binnings) == [4, 8]
        held = [weakref.ref(bins) for bins in binnings.values()]
        assert PreparedDataset.load(cli_prepared["prep"]).fit_state("gbdt binnings") == {}
        del dataset, binnings
        gc.collect()
        assert [ref() for ref in held] == [None, None]


class TestReuseKey:
    BEST = {"schema_version": 1, "family": "gbdt", "seed": 3, "trial_index": 1,
            "params": {"n_estimators": 3, "num_leaves": 4, "learning_rate": 0.3,
                       "class_weight": None, "max_bins": 16}}
    PREPARED = "0" * 64
    MODEL = ["1" * 64]

    def test_key_does_not_depend_on_the_hash_seed(self, cli_prepared, tmp_path):
        """Set and dict order change with PYTHONHASHSEED; two `tune`
        processes must still record the same key."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = "import sys\nfrom mhtext import cli\nsys.exit(cli.run(sys.argv[1:]))\n"
        config = tmp_path / "experiment.json"
        ExperimentConfig(family="cart", mode="grid", seed=3, fixed={"max_depth": 2},
                         grid={"criterion": ["gini", "entropy"]}).save(str(config))
        keys = []
        for hash_seed in ("0", "1"):
            ran = subprocess.run(
                [sys.executable, "-c", code, "tune", "--prepared", cli_prepared["prep"],
                 "--config", str(config), "--outdir", str(tmp_path / hash_seed)],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            )
            assert ran.returncode == 0, ran.stderr
            best = json.loads((tmp_path / hash_seed / "best_config.json").read_text())
            keys.append(best["inputs_sha256"])
        assert keys[0] == keys[1]

    def test_key_ignores_the_order_of_params(self, cli_prepared, kept_tunes, fits, tmp_path):
        key = search.inputs_key(self.BEST, self.PREPARED, self.MODEL)
        reordered = dict(self.BEST, params=dict(reversed(self.BEST["params"].items())))
        assert search.inputs_key(reordered, self.PREPARED, self.MODEL) == key
        # and `train --best` still copies the kept model
        tune = tmp_path / "tune"
        shutil.copytree(kept_tunes["gbdt"]["tune"], tune)
        best = json.loads((tune / "best_config.json").read_text(encoding="utf-8"))
        best["params"] = dict(reversed(best["params"].items()))
        (tune / "best_config.json").write_text(json.dumps(best), encoding="utf-8")
        assert _train_best(cli_prepared["prep"], tune / "best_config.json",
                           tmp_path / "model") == 0
        assert fits["calls"] == 0

    @pytest.mark.parametrize("path, value", [
        (("params", "n_estimators"), 4), (("params", "num_leaves"), 4.0),
        (("params", "learning_rate"), 0.30000000000000004),
        (("params", "class_weight"), "balanced"),
        (("params", "max_bins"), True), (("params", "extra"), 1), (("seed",), 4),
        (("seed",), 3.0), (("trial_index",), 0), (("family",), "cart"),
    ])
    def test_key_changes_with_any_value(self, path, value):
        best = json.loads(json.dumps(self.BEST))
        *parents, name = path
        target = best
        for parent in parents:
            target = target[parent]
        target[name] = value
        assert search.inputs_key(best, self.PREPARED, self.MODEL) != search.inputs_key(
            self.BEST, self.PREPARED, self.MODEL)

    def test_key_changes_with_the_prepared_file(self):
        assert search.inputs_key(self.BEST, "1" * 64, self.MODEL) != search.inputs_key(
            self.BEST, self.PREPARED, self.MODEL)

    @pytest.mark.parametrize("model", [["2" * 64], ["1" * 64, "1" * 64], []])
    def test_key_changes_with_the_kept_files(self, model):
        assert search.inputs_key(self.BEST, self.PREPARED, model) != search.inputs_key(
            self.BEST, self.PREPARED, self.MODEL)

    def test_key_changes_with_the_code_and_numpy(self, monkeypatch):
        key = search.inputs_key(self.BEST, self.PREPARED, self.MODEL)
        with monkeypatch.context() as patch:
            patch.setattr(search, "code_sha256", lambda: "0" * 64)
            assert search.inputs_key(self.BEST, self.PREPARED, self.MODEL) != key
        with monkeypatch.context() as patch:
            patch.setattr(np, "__version__", "0.0.0")
            assert search.inputs_key(self.BEST, self.PREPARED, self.MODEL) != key
        assert search.inputs_key(self.BEST, self.PREPARED, self.MODEL) == key

    def test_code_hash_covers_every_source_file(self, tmp_path, monkeypatch):
        package = Path(search.__file__).parent
        copy = tmp_path / "mhtext"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(search, "__file__", str(copy / "search.py"))
        key = search.code_sha256()
        assert key == search.code_sha256()
        for source in sorted(copy.glob("*.py")):
            data = source.read_bytes()
            source.write_bytes(data + b"\n")
            assert search.code_sha256() != key, source.name
            source.write_bytes(data)
        assert search.code_sha256() == key


@pytest.fixture(scope="module")
def writing_inputs(cli_prepared, cli_artifacts) -> dict:
    """The inputs each writing command reads."""
    base = cli_prepared["base"] / "writing"
    base.mkdir()
    config = base / "experiment.json"
    ExperimentConfig(family="cart", mode="grid", seed=3, fixed={},
                     grid={"max_depth": [1, 2]}).save(str(config))
    params = base / "params.json"
    params.write_text(json.dumps({"max_depth": 2}), encoding="utf-8")
    evaluation = base / "evaluation.json"
    assert cli.run(["evaluate", "--prepared", cli_prepared["prep"],
                    "--model", cli_artifacts["cart"]["stem"], "--out", str(evaluation)]) == 0
    prep = cli_prepared["prep"]
    return {
        "prepare": ["prepare", "--corpus", cli_prepared["corpus"], "--max-features", "50"],
        "tune": ["tune", "--prepared", prep, "--config", str(config)],
        "train": ["train", "--prepared", prep, "--family", "cart", "--params", str(params)],
        "evaluate": ["evaluate", "--prepared", prep, "--model", cli_artifacts["cart"]["stem"]],
        "report": ["report", "--evaluation", str(evaluation)],
    }


class TestWritePaths:
    """Every output path: missing parent directories are created, and a
    path that cannot be written exits 1 naming the flag and the path."""

    # command -> (output flag, output name, the file it writes relative to the output)
    OUTPUTS = {
        "prepare": ("--out", "prepared.json", ""),
        "tune": ("--outdir", "tune", "best_config.json"),
        "train": ("--out", "model", ".model.json"),
        "evaluate": ("--out", "evaluation.json", ""),
        "report": ("--outdir", "report", "report.json"),
    }

    @staticmethod
    def _written(target: Path, relative: str) -> Path:
        if relative.startswith("."):
            return target.with_name(target.name + relative)
        return target / relative if relative else target

    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_missing_parents_are_created(self, writing_inputs, tmp_path, command):
        flag, name, relative = self.OUTPUTS[command]
        target = tmp_path / "a" / "b" / name
        assert cli.run([*writing_inputs[command], flag, str(target)]) == 0
        assert self._written(target, relative).is_file()

    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_a_directory_where_a_file_goes_exits_one(self, writing_inputs, tmp_path,
                                                     capsys, command):
        flag, name, relative = self.OUTPUTS[command]
        target = tmp_path / name
        self._written(target, relative).mkdir(parents=True)
        assert cli.run([*writing_inputs[command], flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {flag} {str(target)!r}" in err

    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_a_file_where_a_directory_goes_exits_one(self, writing_inputs, tmp_path,
                                                     capsys, command):
        flag, name, relative = self.OUTPUTS[command]
        blocker = tmp_path / "blocker"
        blocker.write_text("a file", encoding="utf-8")
        # a directory output is the file itself; a file output lies under it
        target = blocker if flag == "--outdir" else blocker / name
        assert cli.run([*writing_inputs[command], flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {flag} {str(target)!r}" in err
        assert blocker.read_text(encoding="utf-8") == "a file"

    def test_no_traceback_from_the_console_script(self, writing_inputs, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file", encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parent.parent)
        ran = subprocess.run(
            [sys.executable, "-c", "from mhtext.cli import main; main()",
             *writing_inputs["report"], "--outdir", str(blocker)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert ran.returncode == 1
        assert "--outdir" in ran.stderr and "Traceback" not in ran.stderr


class TestInterruptedWrites:
    """Every file is written under <name>.<pid>.tmp and then moved over
    its path: a write that fails or is cut leaves the old file's bytes
    and no temporary file."""

    @staticmethod
    def _writers(cli_prepared, cli_artifacts) -> dict:
        """name -> (the files it writes under a directory, the write)."""
        dataset = PreparedDataset.load(cli_prepared["prep"])
        cart = search.load_model(cli_artifacts["cart"]["stem"])
        recurrent = search.load_model(cli_artifacts["gru"]["stem"])
        kept = [Path(p).read_bytes() for p in search.bundle_files(cli_artifacts["gru"]["stem"],
                                                                  "gru")]
        gru_files = ["m.npz", "m.vocab.json", "m.model.json"]
        return {
            "write_json": (["f.json"], lambda d: report.write_json({"a": [1]}, str(d / "f.json"))),
            "prepared": (["p.json"], lambda d: dataset.save(str(d / "p.json"))),
            "save_model": (["m.model.json"], lambda d: search.save_model(cart, str(d / "m"))),
            "save_model_gru": (gru_files, lambda d: search.save_model(recurrent, str(d / "m"))),
            "write_bundle": (gru_files, lambda d: search.write_bundle(kept, str(d / "m"), "gru")),
            "emit_report": (["report.json", "roc_points.csv", "class_distribution.csv",
                             "class_distribution.svg"],
                            lambda d: report.emit_report(
                                report.check_evaluation(binary_evaluation()), str(d))),
        }

    @staticmethod
    def _old_files(directory: Path, names) -> dict:
        directory.mkdir()
        for name in names:
            (directory / name).write_bytes(b"old " + name.encode())
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    @pytest.mark.parametrize("writer", ["write_json", "prepared", "save_model",
                                        "save_model_gru", "write_bundle", "emit_report"])
    @pytest.mark.parametrize("failure", [OSError, KeyboardInterrupt])
    def test_a_failed_replace_keeps_the_old_bytes(self, cli_prepared, cli_artifacts, tmp_path,
                                                  monkeypatch, writer, failure):
        names, write = self._writers(cli_prepared, cli_artifacts)[writer]
        before = self._old_files(tmp_path / "old", names)

        def fail(src, dst):
            raise failure("cut")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(failure):
            write(tmp_path / "old")
        assert {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()} == before

    @pytest.mark.parametrize("failure", [TypeError, KeyboardInterrupt])
    def test_an_encoder_that_raises_keeps_the_old_bytes(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "f.json"
        path.write_bytes(b"old")
        if failure is KeyboardInterrupt:
            def interrupted(payload):
                raise KeyboardInterrupt
            monkeypatch.setattr(report, "indented_json", interrupted)
        with pytest.raises(failure):
            report.write_json({"a": [1.0, object()]}, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]
        assert path.read_bytes() == b"old"

    def test_a_cut_gru_archive_keeps_the_old_bundle(self, cli_artifacts, tmp_path, monkeypatch):
        recurrent = search.load_model(cli_artifacts["gru"]["stem"])
        before = self._old_files(tmp_path / "old", ["m.npz", "m.vocab.json", "m.model.json"])

        def cut(handle, **arrays):
            handle.write(b"PK\x03\x04")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", cut)
        with pytest.raises(OSError):
            search.save_model(recurrent, str(tmp_path / "old" / "m"))
        assert {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()} == before

    def test_the_cli_names_the_flag_and_keeps_the_old_output(self, writing_inputs, tmp_path,
                                                             monkeypatch, capsys):
        out = tmp_path / "evaluation.json"
        out.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("cut")

        monkeypatch.setattr(os, "replace", fail)
        assert cli.run([*writing_inputs["evaluate"], "--out", str(out)]) == 1
        assert f"cannot write --out {str(out)!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["evaluation.json"]
        assert out.read_bytes() == b"old"

    def test_every_json_file_re_encodes_to_its_bytes(self, cli_prepared, tmp_path):
        """Each JSON file of a small run equals json.dumps of what it
        holds: indented with a final newline from write_json, indented
        without one for the gru vocabulary, compact for the prepared
        dataset and model bundles."""
        run = tmp_path / "run"
        config = tmp_path / "experiment.json"
        ExperimentConfig(family="cart", mode="grid", seed=3, fixed={},
                         grid={"max_depth": [1, 2]}).save(str(config))
        params = tmp_path / "params.json"
        params.write_text(json.dumps(FAMILY_PARAMS["gru"]), encoding="utf-8")
        prep = run / "prepared.json"
        for argv in (
            ["prepare", "--corpus", cli_prepared["corpus"], "--out", prep,
             "--scheme", "multiclass", "--max-features", "100"],
            ["tune", "--prepared", prep, "--config", config, "--outdir", run / "tune"],
            ["train", "--prepared", prep, "--family", "gru", "--params", params,
             "--out", run / "gru"],
            ["evaluate", "--prepared", prep, "--model", run / "gru", "--out", run / "eval.json"],
            ["report", "--evaluation", run / "eval.json", "--outdir", run / "report"],
        ):
            assert cli.run([str(a) for a in argv]) == 0
        files = sorted(run.rglob("*.json"))
        assert len(files) == 8
        for path in files:
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            if path.name == "prepared.json" or path.name.endswith(".model.json"):
                expected = json.dumps(payload, sort_keys=True)
            else:
                expected = json.dumps(payload, sort_keys=True, indent=2)
                expected += "" if path.name.endswith(".vocab.json") else "\n"
            assert text == expected, path.name


# JSON values of every type, with the edges the rules draw lines at; each
# rule is run on every edge and on random draws of every type
_EDGE_VALUES = (
    None, True, False, 0, 1, 2, -1, 255, 256, 10**30, 0.5, 2.9, 100.0, -0.0, 1e300, 1e308,
    float("nan"), float("inf"), float("-inf"), "gini", "balanced", "sqrt", "scale",
    "polynomial", "1e-3", "", [], [float("nan")], {"balanced": float("nan")},
)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=5),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.integers(), st.floats()), max_size=2),
)


def _with_edge_values(test):
    for value in _EDGE_VALUES:
        test = example(value=value)(test)
    return test


def _json_copy(payload):
    return json.loads(json.dumps(payload))


@functools.cache
def _bundle_model(family: str, **params) -> dict:
    """The model block of a `family` bundle, fit by its default config
    (with `params` set) on four rows."""
    spec = families.get(family)
    X, y = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), np.array([0, 0, 1, 1])
    payload, _ = spec.fit(X, y, spec.config(**params), 0, None)
    return spec.to_dict(payload)


def _built_and_read_back(family: str, params: dict):
    """What `family` builds from `params`, and the same read back from
    the JSON its bundle stores it in."""
    spec = families.get(family)
    config = spec.config(**params)
    if family == "gru":  # a GRU bundle stores weights, not its config
        return config, spec.config(**_json_copy(asdict(config)))
    # an svm stores `w` under a linear kernel and support vectors under any other
    kernel = {} if family != "svm" else {"kernel": "linear" if config.kernel == "linear"
                                         else "rbf"}
    model = dict(_bundle_model(family, **kernel), config=asdict(config))
    return config, spec.from_dict(_json_copy(model)).config


class TestHyperparameterRules:
    @pytest.mark.parametrize("family, name", [
        (family, name) for family in sorted(families.REGISTRY)
        for name in families.get(family).params
    ])
    @settings(max_examples=20, deadline=None)
    @given(value=_JSON_VALUES)
    @_with_edge_values
    def test_every_value_builds_or_raises_value_error(self, family, name, value):
        """One rule per hyperparameter: any JSON value either builds the
        family's config, which then survives its bundle's JSON round
        trip unchanged, or raises ValueError (the CLI's exit 1 for a
        params file, exit 2 for a bundle); any other exception fails."""
        try:
            built, read_back = _built_and_read_back(family, {name: value})
        except ValueError:
            return
        assert read_back == built

    def test_readme_table_matches_the_configs(self):
        """Each row of the README's Hyperparameters table names its
        family's config fields in order, each with the field's default."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, flags=re.MULTILINE)
        assert [family for family, _ in rows] == list(families.REGISTRY)
        words = {"none": None, "true": True, "false": False}
        for family, cell in rows:
            listed = re.findall(r"`(\w+)` \((`?)([^`;)]+)", cell)
            config = families.get(family).config()
            assert tuple(name for name, _, _ in listed) == families.get(family).params, family
            for name, quoted, default in listed:
                if not quoted:
                    default = words[default] if default in words else float(default)
                assert getattr(config, name) == default, (family, name)


@pytest.fixture(scope="module")
def cli_artifacts(cli_prepared) -> dict:
    """A best config and a saved bundle per family, for mutation tests."""
    base = cli_prepared["base"] / "artifacts"
    base.mkdir()
    dataset = PreparedDataset.load(cli_prepared["prep"])
    out = {}
    for family, params in FAMILY_PARAMS.items():
        stem = str(base / family)
        search.save_model(search.train_family(family, dict(params), dataset), stem)
        with open(stem + ".model.json", encoding="utf-8") as handle:
            bundle = json.load(handle)
        best = {"schema_version": 1, "family": family, "params": dict(params),
                "seed": 3, "trial_index": 0}
        out[family] = {"stem": stem, "bundle": bundle, "best": best}
    return out


@pytest.fixture(scope="module")
def cli_multiclass(cli_prepared) -> dict:
    """A multiclass prepared dataset and small logistic, svm, cart,
    forest and gbdt bundles trained on it, for the decoders' number and
    cross-field rules."""
    base = cli_prepared["base"] / "multiclass"
    base.mkdir()
    prep = str(base / "prepared.json")
    assert cli.run(["prepare", "--corpus", cli_prepared["corpus"], "--out", prep,
                    "--scheme", "multiclass", "--seed", "0", "--max-features", "300"]) == 0
    dataset = PreparedDataset.load(prep)
    out = {"prep": prep}
    for family, params in (("logistic", {"max_iter": 20}),
                           ("svm", {"max_epochs": 5}),
                           ("cart", {"max_depth": 4}),
                           ("forest", {"n_estimators": 3, "max_depth": 4}),
                           ("gbdt", {"n_estimators": 2, "num_leaves": 3, "max_bins": 8})):
        stem = str(base / family)
        search.save_model(search.train_family(family, params, dataset), stem)
        out[family] = stem
    return out


@pytest.fixture(scope="module")
def cli_inputs(cli_prepared, cli_artifacts) -> dict:
    """A prepared dataset, an experiment config and an evaluation file,
    as parsed JSON, for mutation tests."""
    evaluation = cli_prepared["base"] / "artifacts" / "evaluation.json"
    assert cli.run([
        "evaluate", "--prepared", cli_prepared["prep"],
        "--model", cli_artifacts["cart"]["stem"], "--out", str(evaluation),
    ]) == 0
    with open(cli_prepared["prep"], encoding="utf-8") as handle:
        prepared = json.load(handle)
    with open(evaluation, encoding="utf-8") as handle:
        evaluation = json.load(handle)
    config = make_config(fixed={"max_iter": 5}, grid={"C": [1.0]}).to_dict()
    return {"prepared": prepared, "config": config, "evaluation": evaluation}


def _draw_key_path(draw, data: dict, depth: int) -> tuple:
    """A key path into nested objects, down to `depth` levels, drawn one
    level at a time so that a large object (a vocabulary) does not
    crowd out its siblings."""
    path = []
    while True:
        key = draw(st.sampled_from(sorted(data)))
        path.append(key)
        data = data[key]
        if not (isinstance(data, dict) and data and len(path) < depth and draw(st.booleans())):
            return tuple(path)


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


# one value of each JSON type; numbers stay small so a swapped count
# cannot start a long fit
_SWAP_VALUES = (None, True, 3, "x", [], {})


def _renumber_last_svm_class(bundle: dict) -> None:
    """The last class id becomes 99, in `classes` and in every pair."""
    model = bundle["model"]
    last = model["classes"][-1]
    model["classes"][-1] = 99
    for pair in model["pairs"]:
        for key in ("class_neg", "class_pos"):
            pair[key] = 99 if pair[key] == last else pair[key]


def _add_a_logistic_class(bundle: dict) -> None:
    model = bundle["model"]
    model["n_classes"] += 1
    model["weights"].append(list(model["weights"][-1]))
    model["bias"].append(model["bias"][-1])


def _a_gbdt_bound_list(bundle: dict) -> list:
    """The bin upper bounds of the first feature that has two or more."""
    return next(b for b in bundle["model"]["bin_upper_bounds"] if len(b) >= 2)


def _reverse_a_gbdt_bound_list(bundle: dict) -> None:
    _a_gbdt_bound_list(bundle).reverse()


def _as_support_vectors(support_vectors, dual_coef):
    """A mutation that stores the first svm pair as support vectors."""
    def mutate(bundle):
        pair = bundle["model"]["pairs"][0]
        del pair["w"]
        pair.update(support_vectors=support_vectors, dual_coef=dual_coef)
    return mutate


class TestMalformedArtifacts:
    def _train_best(self, cli_prepared, tmp_path, best) -> int:
        best_path = tmp_path / "best_config.json"
        best_path.write_text(json.dumps(best), encoding="utf-8")
        return cli.run([
            "train", "--prepared", cli_prepared["prep"], "--best", str(best_path),
            "--out", str(tmp_path / "model"),
        ])

    def _evaluate(self, cli_prepared, stem) -> int:
        return cli.run([
            "evaluate", "--prepared", cli_prepared["prep"], "--model", stem,
            "--out", stem + ".evaluation.json",
        ])

    def test_best_config_without_family_exits_two(self, cli_prepared, tmp_path):
        best = {"schema_version": 1, "params": {}, "seed": 0, "trial_index": 0}
        assert self._train_best(cli_prepared, tmp_path, best) == 2

    @pytest.mark.parametrize("key, value", [("seed", 2.9), ("seed", True),
                                            ("trial_index", "0")])
    def test_best_config_seed_path_not_a_whole_number_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, key, value
    ):
        """Truncating it would retrain another trial's model."""
        best = dict(cli_artifacts["logistic"]["best"], **{key: value})
        assert self._train_best(cli_prepared, tmp_path, best) == 2

    @pytest.mark.parametrize("bundle", [
        {"schema_version": 1},
        {"schema_version": 1, "family": "logistic"},
        ["not", "an", "object"],
    ])
    def test_truncated_bundle_exits_two(self, cli_prepared, tmp_path, bundle):
        stem = str(tmp_path / "model")
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        assert self._evaluate(cli_prepared, stem) == 2

    @pytest.mark.parametrize("family", sorted(set(FAMILY_PARAMS) - {"gru"}))
    def test_bundle_model_missing_a_key_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, family
    ):
        model = cli_artifacts[family]["bundle"]["model"]
        for key in set(model) - {"train_loss"}:  # bundles may omit gbdt's loss trace
            bundle = json.loads(json.dumps(cli_artifacts[family]["bundle"]))
            del bundle["model"][key]
            stem = str(tmp_path / f"{family}_{key}")
            with open(stem + ".model.json", "w", encoding="utf-8") as handle:
                json.dump(bundle, handle)
            assert self._evaluate(cli_prepared, stem) == 2, key

    @pytest.mark.parametrize("family, key, changes", [
        ("svm", "config", {"gamma": -2}),
        ("svm", "config", {"gamma": True}),
        ("svm", "config", {"gamma": float("nan")}),
        ("svm", "config", {"kernel": "polynomial", "degree": 2.9}),
        ("cart", "config", {"max_depth": 2.9}),
    ], ids=["negative-gamma", "gamma-as-bool", "nan-gamma", "fractional-degree",
            "fractional-max-depth"])
    def test_bundle_hyperparameter_breaking_its_rule_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, family, key, changes
    ):
        """A stored config decodes through the rules a params file is
        checked by."""
        bundle = json.loads(json.dumps(cli_artifacts[family]["bundle"]))
        bundle["model"][key].update(changes)
        stem = str(tmp_path / family)
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        assert self._evaluate(cli_prepared, stem) == 2

    @pytest.mark.parametrize("family, key, field", [
        ("logistic", "config", "tol"), ("svm", "config", "degree"),
        ("cart", "config", "max_depth"), ("gbdt", "config", "learning_rate"),
    ])
    def test_bundle_config_missing_a_field_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, family, key, field
    ):
        """A missing field would otherwise take today's default."""
        bundle = json.loads(json.dumps(cli_artifacts[family]["bundle"]))
        del bundle["model"][key][field]
        stem = str(tmp_path / family)
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        assert self._evaluate(cli_prepared, stem) == 2

    def test_bundle_config_with_a_field_its_config_lacks_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path
    ):
        """As in a cart bundle written when cart stored the forest and
        boosting fields too."""
        bundle = json.loads(json.dumps(cli_artifacts["cart"]["bundle"]))
        bundle["model"]["config"]["n_estimators"] = 100
        stem = str(tmp_path / "cart")
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        assert self._evaluate(cli_prepared, stem) == 2

    @pytest.mark.parametrize("family, drop", [
        ("svm", False), ("cart", False), ("forest", False), ("gbdt", False), ("cart", True),
    ], ids=["svm-version-1", "cart-version-1", "forest-version-1", "gbdt-version-1",
            "cart-without-header"])
    def test_bundle_of_an_older_payload_schema_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, family, drop
    ):
        """As a bundle written before each config block held only its
        config's fields, with the payload header of that time."""
        bundle = json.loads(json.dumps(cli_artifacts[family]["bundle"]))
        if drop:
            del bundle["model"]["schema_version"], bundle["model"]["kind"]
        else:
            bundle["model"]["schema_version"] = 1
        stem = str(tmp_path / family)
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        capsys.readouterr()
        assert self._evaluate(cli_prepared, stem) == 2
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("family, path, value", [
        ("cart", ["root", "feature"], 7.9),
        ("cart", ["root", "feature"], -1),
        ("cart", ["root", "label"], 0.5),
        ("cart", ["root", "n_samples"], -3),
        ("cart", ["root", "left", "counts", 0], 1.5),
        ("cart", ["root", "threshold"], float("nan")),
        ("cart", ["root", "gain"], "0.1"),
        ("cart", ["root", "impurity"], True),
        ("cart", ["n_classes"], 0),
        ("forest", ["trees", 0, "feature"], 2.5),
        ("forest", ["n_classes"], 2.5),
        ("forest", ["n_features"], 0),
        ("gbdt", ["rounds", 0, 0, "value"], float("inf")),
        ("gbdt", ["n_classes"], 1.5),
    ], ids=["cart-fractional-feature", "cart-negative-feature", "cart-fractional-label",
            "cart-negative-n-samples", "cart-fractional-count", "cart-nan-threshold",
            "cart-gain-as-string", "cart-impurity-as-bool", "cart-zero-classes",
            "forest-fractional-feature", "forest-fractional-classes", "forest-zero-features",
            "gbdt-infinite-value", "gbdt-fractional-classes"])
    def test_tree_number_breaking_its_rule_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, family, path, value
    ):
        """A fractional feature id split on its floor and -1 on the last
        column; each tree number is now read through its rule."""
        bundle = json.loads(json.dumps(cli_artifacts[family]["bundle"]))
        node = bundle["model"]
        for key in path[:-1]:
            node = node[key]
        assert path[-1] in (node if isinstance(node, dict) else range(len(node)))
        node[path[-1]] = value
        stem = str(tmp_path / family)
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        capsys.readouterr()
        assert self._evaluate(cli_prepared, stem) == 2
        err = capsys.readouterr().err
        field = next(key for key in reversed(path) if isinstance(key, str))
        assert f"{field}=" in err and f"{stem}.model.json" in err

    @pytest.mark.parametrize("artifact, mutate, field", [
        ("logistic", lambda b: b["model"].update(n_classes=6.7), "n_classes="),
        ("logistic", lambda b: b["model"].update(kind="sigmoid"), "kind="),
        ("logistic", lambda b: b["model"].update(kind="tanh"), "kind="),
        ("logistic", lambda b: b["model"]["weights"].pop(), "weights"),
        ("logistic", lambda b: b["model"]["bias"].pop(), "bias"),
        ("svm", lambda b: b["model"]["pairs"][0].update(b=float("nan")), "b="),
        ("svm", lambda b: b["model"]["classes"].__setitem__(1, 5.5), "classes="),
        ("svm", lambda b: b["model"]["classes"].reverse(), "classes="),
        ("svm", lambda b: b["model"]["pairs"][0].update(class_pos=2.5), "class_pos="),
        ("svm", lambda b: b["model"]["pairs"][0].update(class_neg=1, class_pos=0),
         "class_neg="),
        ("svm", lambda b: b["model"]["pairs"][0].update(class_pos=99), "class_neg="),
        ("svm", _renumber_last_svm_class, "scheme"),
        ("svm", lambda b: b["model"]["pairs"].__setitem__(1, b["model"]["pairs"][0]),
         "pairs"),
        ("svm", lambda b: b["model"]["pairs"].pop(), "pairs"),
        ("svm", lambda b: b["model"]["pairs"][2]["w"].pop(), "w of shapes"),
        ("svm", lambda b: b["model"]["config"].update(kernel="rbf", gamma=0.5), "pairs"),
        ("logistic", _add_a_logistic_class, "scheme"),
        ("forest", lambda b: b["model"].update(tree_seeds=[0.5, "x", None]), "tree_seeds="),
        ("forest", lambda b: b.update(extra=[]), "extra="),
        ("gbdt", lambda b: b["model"].update(n_classes=3), "n_classes=3"),
        ("gbdt", lambda b: b["model"].update(n_classes=1), "n_classes=1"),
        ("gbdt", lambda b: b["model"]["rounds"][0].pop(), "rounds"),
        ("gbdt", lambda b: b["model"].update(base_score=b["model"]["base_score"][:1]),
         "base_score"),
        ("gbdt", _reverse_a_gbdt_bound_list, "bin_upper_bounds["),
        ("cart", lambda b: b["model"]["root"]["left"].update(counts=[1]), "counts:"),
        ("cart", lambda b: b["model"]["root"]["left"].update(label=6), "label=6"),
        ("forest", lambda b: b["model"]["trees"][0]["left"].update(label=99), "label=99"),
        ("forest", lambda b: b["model"]["trees"][0]["right"].update(counts=[1, 0, 0, 0, 0, 0, 0]),
         "counts:"),
        ("forest", lambda b: b["model"]["trees"][0].update(feature=b["model"]["n_features"]),
         "feature="),
        ("gbdt", lambda b: b["model"]["rounds"][0][0].update(feature=5000), "feature=5000"),
        ("gbdt", lambda b: b["model"]["rounds"][1][2].update(
            feature=len(b["model"]["bin_upper_bounds"])), "feature="),
        ("prepared", lambda d: d.update(seed=0.9), "seed="),
        ("prepared", lambda d: d["split"].update(seed=0.9), "split.seed="),
        ("prepared", lambda d: d.update(n_dropped=-1), "n_dropped="),
    ], ids=["logistic-fractional-classes", "logistic-sigmoid-over-many-classes",
            "logistic-unknown-kind", "logistic-missing-weight-row", "logistic-missing-bias",
            "svm-nan-bias", "svm-fractional-class", "svm-classes-out-of-order",
            "svm-fractional-class-pos", "svm-pair-reversed", "svm-pair-class-not-in-classes",
            "svm-class-beyond-the-scheme", "svm-duplicated-pair", "svm-dropped-pair",
            "svm-truncated-w", "svm-w-under-an-rbf-kernel",
            "logistic-class-beyond-the-scheme",
            "forest-bad-tree-seeds", "bundle-extra-as-list", "gbdt-fewer-classes",
            "gbdt-one-class", "gbdt-round-short-of-a-tree", "gbdt-one-base-score",
            "gbdt-descending-bounds", "cart-one-class-count", "cart-label-beyond-the-classes",
            "forest-label-beyond-the-classes", "forest-seven-class-counts",
            "forest-feature-beyond-n-features", "gbdt-feature-5000",
            "gbdt-feature-beyond-the-bounds", "prepared-fractional-seed",
            "prepared-fractional-split-seed", "prepared-negative-n-dropped"])
    def test_decoded_number_breaking_its_rule_exits_two(
        self, cli_multiclass, tmp_path, capsys, artifact, mutate, field
    ):
        """Each of these once evaluated with exit 0: a fractional class
        count or id, a sigmoid row read as a six-class model, a NaN bias,
        a list for `extra`, a fractional seed, a six-class booster stored
        as three or one class, a round short of a tree, a cart leaf's
        `counts` of one class (weighted F1 0.48). A booster's single base
        score for six classes, a booster split on feature 5000 and a
        forest leaf's `label` of 99 ended in numpy's index error, and a
        cart leaf's `label` of 99 in a traceback. The refusal names the
        file and the field."""
        prepared, stem = cli_multiclass["prep"], cli_multiclass["logistic"]
        if artifact == "prepared":
            source, bad = prepared, str(tmp_path / "prepared.json")
            prepared = bad
        else:
            source, stem = cli_multiclass[artifact] + ".model.json", str(tmp_path / artifact)
            bad = stem + ".model.json"
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
        mutate(payload)
        Path(bad).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli.run(["evaluate", "--prepared", prepared, "--model", stem,
                        "--out", str(tmp_path / "evaluation.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and repr(bad) in err
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("artifact, mutate, field", [
        ("svm", lambda m: [pair["w"].pop() for pair in m["pairs"]], "w:"),
        ("cart", lambda m: m["root"].update(feature=5000), "feature=5000"),
        ("cart", lambda m: m["root"].update(feature=300), "feature=300"),
        ("logistic", lambda m: [row.pop() for row in m["weights"]], "weights:"),
        ("forest", lambda m: m.update(n_features=301), "n_features:"),
        ("gbdt", lambda m: m["bin_upper_bounds"].append([0.5]), "bin_upper_bounds:"),
    ], ids=["svm-every-w-one-short", "cart-feature-5000", "cart-feature-at-the-width",
            "logistic-every-row-one-short", "forest-one-feature-more",
            "gbdt-one-bound-list-more"])
    def test_payload_not_fitting_its_features_exits_two(
        self, cli_multiclass, tmp_path, capsys, artifact, mutate, field
    ):
        """A payload of the wrong width that agrees with itself: an svm
        whose `w` arrays are all one short and a cart split on feature
        5000 of 300 exited 2 only through numpy's message, naming no
        field. Each is checked against the bundle's own TF-IDF width."""
        bundle = json.loads(Path(cli_multiclass[artifact] + ".model.json").read_text(
            encoding="utf-8"))
        assert bundle["tfidf"]["terms"] and len(bundle["tfidf"]["terms"]) == 300
        mutate(bundle["model"])
        stem = str(tmp_path / artifact)
        Path(stem + ".model.json").write_text(json.dumps(bundle), encoding="utf-8")
        capsys.readouterr()
        code = cli.run(["evaluate", "--prepared", cli_multiclass["prep"], "--model", stem,
                        "--out", str(tmp_path / "evaluation.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and repr(stem + ".model.json") in err and "Traceback" not in err
        assert not (tmp_path / "evaluation.json").exists()

    def test_multiclass_bundles_evaluate(self, cli_multiclass, tmp_path):
        """The unmutated artifacts of the rule tests pass every rule."""
        for family in ("logistic", "svm", "cart", "forest", "gbdt"):
            assert cli.run(["evaluate", "--prepared", cli_multiclass["prep"],
                            "--model", cli_multiclass[family],
                            "--out", str(tmp_path / f"{family}.json")]) == 0

    @pytest.mark.parametrize("artifact, mutate, field", [
        ("logistic", lambda b: b["model"]["weights"][0].__setitem__(0, float("nan")),
         "weights:"),
        ("logistic", lambda b: b["model"]["weights"][1].__setitem__(2, None), "weights:"),
        ("logistic", lambda b: b["model"]["bias"].__setitem__(0, float("inf")), "bias:"),
        ("svm", lambda b: b["model"]["pairs"][0]["w"].__setitem__(0, float("nan")), "w:"),
        ("svm", _as_support_vectors([[float("-inf")]], [1.0]), "support_vectors:"),
        ("svm", _as_support_vectors([[0.5]], [float("nan")]), "dual_coef:"),
        ("svm", lambda b: b["model"]["weight_per_class"].__setitem__(0, float("nan")),
         "weight_per_class:"),
        ("forest", lambda b: b["model"]["weight_per_class"].__setitem__(1, float("inf")),
         "weight_per_class:"),
        ("cart", lambda b: b["model"]["weight_per_class"].__setitem__(0, float("nan")),
         "weight_per_class:"),
        ("gbdt", lambda b: b["model"]["base_score"].__setitem__(0, float("nan")),
         "base_score:"),
        ("gbdt", lambda b: _a_gbdt_bound_list(b).__setitem__(0, float("nan")),
         "bin_upper_bounds["),
        ("prepared", lambda d: d["tfidf"]["idf"].__setitem__(3, float("nan")), "idf:"),
    ], ids=["logistic-nan-weight", "logistic-null-weight", "logistic-infinite-bias",
            "svm-nan-w", "svm-infinite-support-vector", "svm-nan-dual-coef",
            "svm-nan-class-weight", "forest-infinite-class-weight", "cart-nan-class-weight",
            "gbdt-nan-base-score", "gbdt-nan-bin-bound", "prepared-nan-idf"])
    def test_non_finite_array_exits_two(
        self, cli_prepared, cli_artifacts, cli_multiclass, tmp_path, capsys,
        artifact, mutate, field
    ):
        """A NaN weight once evaluated with exit 0 (a logistic bundle
        with one NaN weight scored accuracy 0.10 on six classes). Every
        decoded float array is now refused, naming the file and field."""
        if artifact in ("cart", "gbdt"):
            prepared, stem = cli_prepared["prep"], cli_artifacts[artifact]["stem"]
        else:
            prepared = cli_multiclass["prep"]
            stem = cli_multiclass["logistic" if artifact == "prepared" else artifact]
        if artifact == "prepared":
            source, bad = prepared, str(tmp_path / "prepared.json")
            prepared = bad
        else:
            source, stem = stem + ".model.json", str(tmp_path / artifact)
            bad = stem + ".model.json"
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
        mutate(payload)
        Path(bad).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli.run(["evaluate", "--prepared", prepared, "--model", stem,
                        "--out", str(tmp_path / "evaluation.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and repr(bad) in err
        assert "Traceback" not in err
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("mutate", [
        lambda d: d["token_table"].__setitem__(0, 7),
        lambda d: d["token_table"].__setitem__(0, "feel hopeless"),
        lambda d: d["token_table"].__setitem__(0, ""),
        lambda d: d["token_table"].__setitem__(0, "tab\there"),
        lambda d: d["token_table"].__setitem__(0, ["nested"]),
        lambda d: d["token_table"].__setitem__(0, None),
        lambda d: d.__setitem__("token_table", "a table as one string"),
    ], ids=["number", "two-words", "empty", "tab", "list", "null", "string-table"])
    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_token_breaking_its_rule_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, mutate, stage
    ):
        """A number as a token ended `train` in a TypeError traceback; a
        token holding a space silently matched a bigram term. Each token
        must be a non-empty string without whitespace."""
        payload = json.loads(Path(cli_prepared["prep"]).read_text(encoding="utf-8"))
        mutate(payload)
        bad = str(tmp_path / "prepared.json")
        Path(bad).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        if stage == "train":
            code = cli.run(["train", "--prepared", bad, "--family", "logistic",
                            "--out", str(tmp_path / "model")])
        else:
            code = cli.run(["evaluate", "--prepared", bad,
                            "--model", cli_artifacts["logistic"]["stem"],
                            "--out", str(tmp_path / "evaluation.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "token_table" in err and repr(bad) in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("model*")) and not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: set_token_codes(d, [len(d["token_table"])] + token_codes(d)[1:]),
         "token_codes"),
        (lambda d: set_token_codes(d, [-1] + token_codes(d)[1:]), "token_codes"),
        (lambda d: d.update(token_codes="not base64!"), "token_codes"),
        (lambda d: d.update(token_codes=d["token_codes"].upper()[:-1]), "token_codes"),
        (lambda d: d.update(token_codes=base64.b64encode(
            base64.b64decode(d["token_codes"])[:-1]).decode("ascii")), "token_codes"),
        (lambda d: d.update(token_codes=[0, 1]), "token_codes"),
        (lambda d: d["token_counts"].__setitem__(0, d["token_counts"][0] + 1), "token_counts"),
        (lambda d: d["token_counts"].__setitem__(0, d["token_counts"][0] - 0.5),
         "token_counts"),
        (lambda d: d["token_counts"].__setitem__(0, -1), "token_counts"),
        (lambda d: d["token_counts"].__setitem__(0, True), "token_counts"),
        (lambda d: d["token_table"].reverse(), "token_table"),
        (lambda d: d["token_table"].__setitem__(1, d["token_table"][0]), "token_table"),
        (lambda d: d.update(schema_version=1), "schema_version 1; this version reads 2"),
    ], ids=["code-past-table", "negative-code", "codes-not-base64", "codes-bad-padding",
            "codes-length-not-a-multiple-of-4", "codes-a-list", "counts-wrong-sum",
            "count-fractional", "count-negative", "count-bool", "table-unsorted",
            "table-duplicated", "version-1-file"])
    def test_token_field_breaking_its_rule_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, mutate, field
    ):
        """The token fields decode to codes inside the table and counts
        that cover them; each refusal names its field, and an older file
        names both versions."""
        payload = json.loads(Path(cli_prepared["prep"]).read_text(encoding="utf-8"))
        mutate(payload)
        bad = str(tmp_path / "prepared.json")
        Path(bad).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli.run(["evaluate", "--prepared", bad,
                        "--model", cli_artifacts["logistic"]["stem"],
                        "--out", str(tmp_path / "evaluation.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and repr(bad) in err
        assert "Traceback" not in err
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("term", ["feel  hopeless", " feel", "feel hopeless today", ""])
    def test_tfidf_term_breaking_its_rule_exits_two(self, cli_prepared, tmp_path, capsys, term):
        """A term is one or two (ngram_range) tokens joined by single
        spaces, so it splits back into the n-gram it names."""
        payload = json.loads(Path(cli_prepared["prep"]).read_text(encoding="utf-8"))
        payload["tfidf"]["terms"][0] = term
        bad = str(tmp_path / "prepared.json")
        Path(bad).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli.run(["train", "--prepared", bad, "--family", "logistic",
                        "--out", str(tmp_path / "model")])
        err = capsys.readouterr().err
        assert code == 2
        assert "terms:" in err and repr(bad) in err

    @pytest.mark.parametrize("artifact", ["svm-bundle", "prepared-dataset"])
    def test_payload_of_another_schema_names_the_file(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, artifact
    ):
        """The decoder's own refusal reaches the user with the path."""
        prepared = cli_prepared["prep"]
        stem = cli_artifacts["svm"]["stem"]
        if artifact == "svm-bundle":
            bundle = json.loads(json.dumps(cli_artifacts["svm"]["bundle"]))
            bundle["model"]["schema_version"] = 1
            stem = str(tmp_path / "svm")
            bad = stem + ".model.json"
            Path(bad).write_text(json.dumps(bundle), encoding="utf-8")
        else:
            payload = json.loads(Path(prepared).read_text(encoding="utf-8"))
            payload["schema_version"] = -1
            prepared = bad = str(tmp_path / "prepared.json")
            Path(bad).write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = cli.run(["evaluate", "--prepared", prepared, "--model", stem,
                        "--out", str(tmp_path / "evaluation.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "unsupported" in err and repr(bad) in err

    def test_cart_leaf_without_counts_exits_two(self, cli_prepared, cli_artifacts, tmp_path):
        """The load probe scores one all-zero row, which reaches only the
        leftmost leaf; the rightmost leaf lies four or more keys deep."""
        bundle = json.loads(json.dumps(cli_artifacts["cart"]["bundle"]))
        node, path = bundle["model"]["root"], ["model", "root"]
        while "right" in node:
            node = node["right"]
            path.append("right")
        del node["counts"]
        assert len(path + ["counts"]) >= 4
        stem = str(tmp_path / "cart")
        with open(stem + ".model.json", "w", encoding="utf-8") as handle:
            json.dump(bundle, handle)
        assert self._evaluate(cli_prepared, stem) == 2

    def test_gru_bundle_without_weights_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path
    ):
        stem = str(tmp_path / "gru")
        shutil.copy(cli_artifacts["gru"]["stem"] + ".model.json", stem + ".model.json")
        shutil.copy(cli_artifacts["gru"]["stem"] + ".vocab.json", stem + ".vocab.json")
        assert self._evaluate(cli_prepared, stem) == 2

    def _read(self, cli_prepared, work, artifact, path) -> int:
        """Run the cheapest stage that reads a prepared dataset, an
        experiment config or an evaluation file."""
        if artifact == "prepared":
            params = work / "params.json"
            params.write_text(json.dumps({"max_iter": 5}), encoding="utf-8")
            return cli.run([
                "train", "--prepared", str(path), "--family", "logistic",
                "--params", str(params), "--out", str(work / "model"),
            ])
        if artifact == "config":
            return cli.run([
                "tune", "--prepared", cli_prepared["prep"], "--config", str(path),
                "--outdir", str(work / "tune"),
            ])
        return cli.run(["report", "--evaluation", str(path), "--outdir", str(work / "report")])

    @pytest.mark.parametrize("cut", ["empty", "truncated", "flipped-byte"])
    def test_gru_bundle_with_corrupt_weights_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, cut
    ):
        source = cli_artifacts["gru"]["stem"]
        stem = str(tmp_path / "gru")
        shutil.copy(source + ".model.json", stem + ".model.json")
        shutil.copy(source + ".vocab.json", stem + ".vocab.json")
        weights = bytearray(Path(source + ".npz").read_bytes())
        if cut == "flipped-byte":
            weights[len(weights) // 2] ^= 0xFF
        Path(stem + ".npz").write_bytes(
            {"empty": b"", "truncated": weights[: len(weights) // 2]}.get(cut, weights)
        )
        assert self._evaluate(cli_prepared, stem) == 2

    def _gru_copy(self, cli_artifacts, tmp_path, edit) -> str:
        """A copy of the gru bundle whose `.npz` tensors and meta record
        (as a dict) went through `edit`; returns its stem."""
        source, stem = cli_artifacts["gru"]["stem"], str(tmp_path / "gru")
        for suffix in (".model.json", ".vocab.json"):
            shutil.copy(source + suffix, stem + suffix)
        with np.load(source + ".npz") as arrays:
            tensors = dict(arrays)
        meta = json.loads(str(tensors["meta"]))
        edit(tensors, meta)
        tensors["meta"] = np.array(json.dumps(meta, sort_keys=True))
        np.savez(stem + ".npz", **tensors)
        return stem

    # the kind a refusal names -> (the file, the key holding its
    # schema_version, the version this version reads, the exit code)
    HEADERS = {
        "prepared-dataset": ("prepared", None, config_mod.PREPARED_SCHEMA_VERSION, 2),
        "experiment config": ("config", None, config_mod.SCHEMA_VERSION, 1),
        "evaluation file": ("evaluation", None, report.EVALUATION_SCHEMA_VERSION, 2),
        "best config": ("best", None, search.SCHEMA_VERSION, 2),
        "model bundle": ("logistic", None, search.SCHEMA_VERSION, 2),
        "linear model": ("logistic", "model", linear.SCHEMA_VERSION, 2),
        "SVM model": ("svm", "model", svm.SCHEMA_VERSION, 2),
        "cart model": ("cart", "model", trees.SCHEMA_VERSION, 2),
        "forest model": ("forest", "model", trees.SCHEMA_VERSION, 2),
        "gbdt model": ("gbdt", "model", trees.SCHEMA_VERSION, 2),
        "TF-IDF model": ("logistic", "tfidf", features_mod.SCHEMA_VERSION, 2),
        "vocabulary": ("gru", ".vocab.json", gru.SCHEMA_VERSION, 2),
        "recurrent model": ("gru", ".npz", gru.SCHEMA_VERSION, 2),
    }

    @pytest.mark.parametrize("what", sorted(HEADERS))
    def test_payload_of_another_schema_version_names_both(
        self, cli_prepared, cli_artifacts, cli_inputs, tmp_path, capsys, what
    ):
        """One header check serves every decoder: each refusal exits with
        its file's code and names the version found and the one read."""
        source, key, version, expected = self.HEADERS[what]
        capsys.readouterr()
        if source in cli_inputs:
            payload = dict(cli_inputs[source], schema_version=99)
            path = tmp_path / f"{source}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            code = self._read(cli_prepared, tmp_path, source, path)
        elif source == "best":
            best = dict(cli_artifacts["logistic"]["best"], schema_version=99)
            code = self._train_best(cli_prepared, tmp_path, best)
        elif key == ".npz":
            stem = self._gru_copy(cli_artifacts, tmp_path,
                                  lambda tensors, meta: meta.update(schema_version=99))
            code = self._evaluate(cli_prepared, stem)
        else:
            stem = str(tmp_path / source)
            for suffix in (".npz", ".vocab.json", ".model.json"):
                if os.path.exists(cli_artifacts[source]["stem"] + suffix):
                    shutil.copy(cli_artifacts[source]["stem"] + suffix, stem + suffix)
            path = stem + (key if key == ".vocab.json" else ".model.json")
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            (payload if key in (None, ".vocab.json") else payload[key])["schema_version"] = 99
            Path(path).write_text(json.dumps(payload), encoding="utf-8")
            code = self._evaluate(cli_prepared, stem)
        err = capsys.readouterr().err
        assert code == expected
        assert f"unsupported {what} schema: found schema_version 99" in err
        assert f"; this version reads {version}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", gru.GruParams._ORDER)
    def test_gru_tensor_missing_an_entry_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, name
    ):
        """A tensor one entry short of its stored shape is refused by
        name, as load once let a short b_cand through to a numpy
        broadcast error in evaluate."""
        def drop(tensors, meta):
            tensors[name] = tensors[name][:-1]

        stem = self._gru_copy(cli_artifacts, tmp_path, drop)
        capsys.readouterr()
        assert self._evaluate(cli_prepared, stem) == 2
        err = capsys.readouterr().err
        assert f"npz': {name} of float64 and shape " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", [n for n in gru.GruParams._ORDER if n not in gru._ANCHORS])
    def test_gru_tensor_off_the_anchor_sizes_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, name
    ):
        """With the stored shape edited to match, a short tensor still
        breaks the sizes embedding, u_update and b_out give."""
        def drop(tensors, meta):
            tensors[name] = tensors[name][:-1]
            meta["shapes"][name] = list(tensors[name].shape)

        stem = self._gru_copy(cli_artifacts, tmp_path, drop)
        capsys.readouterr()
        assert self._evaluate(cli_prepared, stem) == 2
        assert f"npz': {name} of shape " in capsys.readouterr().err

    def test_gru_embedding_short_of_the_vocabulary_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys
    ):
        """An embedding that lost rows, with its stored shape to match,
        would leave the last vocabulary ids without a row to read."""
        def drop(tensors, meta):
            tensors["embedding"] = tensors["embedding"][:-1]
            meta["shapes"]["embedding"] = list(tensors["embedding"].shape)

        stem = self._gru_copy(cli_artifacts, tmp_path, drop)
        capsys.readouterr()
        assert self._evaluate(cli_prepared, stem) == 2
        err = capsys.readouterr().err
        assert "npz': embedding of " in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [np.nan, np.inf, "float32"])
    def test_gru_tensor_not_finite_float64_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path, capsys, value
    ):
        def spoil(tensors, meta):
            if value == "float32":
                tensors["b_cand"] = tensors["b_cand"].astype(np.float32)
            else:
                tensors["b_cand"][0] = value

        stem = self._gru_copy(cli_artifacts, tmp_path, spoil)
        capsys.readouterr()
        assert self._evaluate(cli_prepared, stem) == 2
        assert "npz': b_cand" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_artifact_never_escapes(
        self, cli_prepared, cli_artifacts, cli_inputs, data
    ):
        artifact = data.draw(st.sampled_from(
            ["best", "bundle", "prepared", "config", "evaluation"]
        ))
        if artifact in ("best", "bundle"):
            family = data.draw(st.sampled_from(sorted(cli_artifacts)))
            original = cli_artifacts[family][artifact]
        else:
            original = cli_inputs[artifact]
        path = _draw_key_path(data.draw, original, depth=3)
        mutant = json.loads(json.dumps(original))
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        current = parent[path[-1]]
        swaps = [v for v in _SWAP_VALUES if _json_type(v) != _json_type(current)]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(swaps))
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            if artifact == "best":
                code = self._train_best(cli_prepared, work, mutant)
            elif artifact == "bundle":
                stem = str(work / family)
                for suffix in (".npz", ".vocab.json"):
                    if os.path.exists(cli_artifacts[family]["stem"] + suffix):
                        shutil.copy(cli_artifacts[family]["stem"] + suffix, stem + suffix)
                with open(stem + ".model.json", "w", encoding="utf-8") as handle:
                    json.dump(mutant, handle)
                code = self._evaluate(cli_prepared, stem)
            else:
                mutant_path = work / f"{artifact}.json"
                mutant_path.write_text(json.dumps(mutant), encoding="utf-8")
                code = self._read(cli_prepared, work, artifact, mutant_path)
        # a config may decode into a search whose every trial fails
        assert code in ((0, 1, 2, 3) if artifact == "config" else (0, 1, 2))


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name: str, *args, cwd=None, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


class TestScripts:
    def test_synthetic_experiment_matches_the_readme_commands(self, tmp_path, monkeypatch):
        """run_synthetic_experiment.py leaves the files the README's corpus
        command and five CLI stages leave, byte for byte apart from
        per-trial seconds, and a relative --outdir is not moved by
        MHTEXT_OUTPUT_ROOT."""
        monkeypatch.setenv(report.FIXED_CLOCK_ENV, "1")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        ran = _script(
            "run_synthetic_experiment.py", "--outdir", "script", "--n-docs", 300,
            "--seed", 0, "--preset", "binary", cwd=tmp_path,
            env={**env, cli.OUTPUT_ROOT_ENV: str(tmp_path / "elsewhere")},
        )
        assert ran.returncode == 0, ran.stderr
        assert not (tmp_path / "elsewhere").exists()

        hand = tmp_path / "hand"
        hand.mkdir()
        corpus, prep = hand / "corpus.csv", hand / "prepared.json"
        ran = _script("make_synthetic_corpus.py", "--out", corpus, "--n-docs", 300,
                      "--seed", 0, "--statuses", "Normal", "Depression",
                      "--normal-fraction", 0.5, env=env)
        assert ran.returncode == 0, ran.stderr
        for argv in (
            ["prepare", "--corpus", corpus, "--out", prep, "--scheme", "binary", "--seed", 0],
            ["tune", "--prepared", prep, "--preset", "binary", "--outdir", hand / "tune"],
            ["train", "--prepared", prep, "--best", hand / "tune" / "best_config.json",
             "--out", hand / "model"],
            ["evaluate", "--prepared", prep, "--model", hand / "model",
             "--split", "test", "--out", hand / "evaluation.json"],
            ["report", "--evaluation", hand / "evaluation.json", "--outdir", hand / "report"],
        ):
            assert cli.run([str(a) for a in argv]) == 0

        subdir = {"search.json": "tune", "best_config.json": "tune",
                  "best_model.model.json": "tune",
                  "report.json": "report", "roc_points.csv": "report",
                  "class_distribution.csv": "report", "class_distribution.svg": "report"}
        names = sorted(p.name for p in (tmp_path / "script").iterdir())
        assert names == sorted([*subdir, "corpus.csv", "prepared.json",
                                "model.model.json", "evaluation.json"])
        for name in names:
            ours = (tmp_path / "script" / name).read_bytes()
            theirs = (hand / subdir.get(name, "") / name).read_bytes()
            if name == "search.json":
                ours, theirs = (re.sub(rb'"seconds": [-+.\de]+', b'"seconds": 0', text)
                                for text in (ours, theirs))
            assert ours == theirs, name

        ran = _script("run_synthetic_experiment.py", "--outdir", tmp_path / "bad",
                      "--corpus", corpus, "--preset", "nope", env=env)
        assert ran.returncode == 1

    def test_corpus_script_makes_its_directory_and_names_a_bad_setting(self, tmp_path):
        """The README's first command wrote into a missing /tmp/demo with a
        FileNotFoundError traceback, and repeated statuses ended in a
        ZeroDivisionError one."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        corpus = tmp_path / "demo" / "corpus.csv"
        ran = _script("make_synthetic_corpus.py", "--out", corpus, "--n-docs", 20, env=env)
        assert ran.returncode == 0, ran.stderr
        assert len(corpus.read_text(encoding="utf-8").splitlines()) == 21
        ran = _script("make_synthetic_corpus.py", "--out", tmp_path / "bad.csv",
                      "--statuses", "Normal", "Normal", env=env)
        assert ran.returncode == 2
        assert "statuses=" in ran.stderr and "Traceback" not in ran.stderr


    def test_public_corpus_script_runs_on_a_synthetic_corpus(self, tmp_path):
        """reproduce_public_corpus.py on a corpus from make_synthetic_corpus.py
        writes the prepared dataset and one evaluation file per family."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        corpus = tmp_path / "corpus.csv"
        ran = _script("make_synthetic_corpus.py", "--out", corpus, "--n-docs", 300,
                      "--seed", 2, env=env)
        assert ran.returncode == 0, ran.stderr
        assert "wrote 300 documents" in ran.stdout
        outdir = tmp_path / "public"
        ran = _script("reproduce_public_corpus.py", "--corpus", corpus, "--outdir", outdir,
                      "--families", "logistic", env=env)
        assert ran.returncode == 0, ran.stderr
        assert "logistic: weighted F1" in ran.stdout
        assert sorted(p.name for p in outdir.iterdir()) == [
            "evaluation_binary_logistic.json", "prepared_binary.json"]
        PreparedDataset.load(str(outdir / "prepared_binary.json"))
        evaluation = json.loads((outdir / "evaluation_binary_logistic.json").read_text())
        assert (evaluation["family"], evaluation["split"]) == ("logistic", "test")
        assert report.check_evaluation(evaluation).files


class TestBenchTracing:
    def test_every_trace_target_exists(self):
        """Traced benchmark runs wrap these attributes; a missing one
        counts as a failed check there."""
        perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            import tracing
        finally:
            sys.path.remove(perfbench)
        import mhtext

        tracer = tracing.Tracer()
        try:
            assert tracer.install(mhtext) == []
        finally:
            tracer.restore()
        assert not hasattr(mhtext.search.train_family, "__wrapped__")


class TestDependencies:
    def test_no_module_loads_scipy_or_sklearn(self):
        """numpy is the one numeric dependency; scipy being installed must
        not let an import of it slip in."""
        code = (
            "import importlib, pkgutil, sys, mhtext\n"
            "names = [m.name for m in pkgutil.iter_modules(mhtext.__path__)]\n"
            "for name in names: importlib.import_module('mhtext.' + name)\n"
            "print(len(names), sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] in ('scipy', 'sklearn')))\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        ran = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert ran.returncode == 0, ran.stderr
        count, loaded = ran.stdout.split(" ", 1)
        assert int(count) == len(list(Path(src, "mhtext").glob("*.py"))) - 1  # all but __init__
        assert loaded.strip() == "[]"


class TestHashSeed:
    def test_prepared_bytes_do_not_depend_on_the_hash_seed(self, synthetic_csv, tmp_path):
        """String hashing, and with it set and dict order, changes with
        PYTHONHASHSEED; `prepare` in two processes with different seeds
        must still write the same prepared.json (the token table is
        sorted, not taken in set order)."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = "import sys\nfrom mhtext import cli\nsys.exit(cli.run(sys.argv[1:]))\n"
        written = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"prepared-{hash_seed}.json"
            ran = subprocess.run(
                [sys.executable, "-c", code, "prepare", "--corpus", synthetic_csv,
                 "--out", str(out), "--scheme", "multiclass", "--seed", "3"],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            )
            assert ran.returncode == 0, ran.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]
