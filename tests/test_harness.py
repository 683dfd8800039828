"""Search harness, dataset plumbing, report files, and CLI exit codes.

Grid expansion is checked against hand enumerations, random sampling
against its stated bounds, and search runs for determinism, tie
handling, and failure capture on the shared synthetic corpus. The CLI
is driven end to end through temp directories using its return codes.
"""

import json
import os
import shutil
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from mhtext import cli, metrics, presets, report, search
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
            {"kind": "choice", "options": []},
            {"low": 0.0, "high": 1.0},
        ],
    )
    def test_bad_random_axis_rejected(self, axis):
        with pytest.raises(UsageError):
            make_config(mode="random", grid={}, random={"C": axis})

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

    def test_wrong_schema_version_rejected(self):
        payload = make_config().to_dict()
        payload["schema_version"] = 999
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict(payload)


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
        preds = fitted.predict(dataset, "validation")
        scores = fitted.scores(dataset, "validation")
        assert preds.shape == (n_val,)
        assert scores.shape == (n_val, dataset.scheme.n_classes)
        assert np.all(np.isfinite(scores))
        assert set(np.unique(preds)) <= set(range(dataset.scheme.n_classes))

        stem = str(tmp_path / f"{family}_bundle")
        path = search.save_model(fitted, stem)
        assert path == stem + ".model.json"
        reloaded = search.load_model(stem)
        assert reloaded.family == family
        assert np.array_equal(reloaded.predict(dataset, "validation"), preds)
        assert np.array_equal(reloaded.scores(dataset, "validation"), scores)

    def test_split_predictions_match_row_predictions(self, prepared_binary):
        dataset = prepared_binary
        logistic = search.train_family(
            "logistic", dict(FAMILY_PARAMS["logistic"]), dataset
        )
        assert np.array_equal(
            logistic.predict(dataset, "validation"),
            logistic.predict_rows(dataset.matrix_for("validation")),
        )
        gru = search.train_family("gru", dict(FAMILY_PARAMS["gru"]), dataset)
        assert np.array_equal(
            gru.predict(dataset, "validation"),
            gru.predict_rows(dataset.sequences_for("validation")),
        )

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
        refit = search.refit_best(dataset, result)
        score = search.weighted_f1(
            dataset.labels_for("validation"),
            refit.predict(dataset, "validation"),
            dataset.scheme.n_classes,
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
        assert loaded.scheme.to_dict() == dataset.scheme.to_dict()
        assert np.array_equal(loaded.labels, dataset.labels)
        for split_name in ("train", "validation", "test"):
            assert loaded.indices(split_name) == dataset.indices(split_name)
            assert np.array_equal(
                loaded.matrix_for(split_name), dataset.matrix_for(split_name)
            )
            assert np.array_equal(
                loaded.sequences_for(split_name), dataset.sequences_for(split_name)
            )
        assert loaded.sequences_for("train").dtype == np.int32

    def test_load_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            PreparedDataset.load(str(tmp_path / "absent.json"))

    def test_load_malformed_json_is_data_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2", encoding="utf-8")
        with pytest.raises(DataError):
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
        first = report.emit_report(evaluation, str(tmp_path / "a"))
        second = report.emit_report(evaluation, str(tmp_path / "b"))
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
        written = report.emit_report(binary_evaluation(), str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {
            "report.json",
            "roc_points.csv",
            "class_distribution.csv",
            "class_distribution.svg",
        }

    def test_roc_csv_header_and_open_threshold(self, tmp_path):
        report.emit_report(binary_evaluation(), str(tmp_path))
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
        report.emit_report(evaluation, str(tmp_path))
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
            "class_names": ["control", "depression"],
            "metrics": {"confusion_matrix": [[5, 0, 1], [1, 3, 0], [0, 2, 4]]},
        }
        written = report.emit_report(evaluation, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert "roc_points.csv" not in names
        text = (tmp_path / "class_distribution.csv").read_text()
        assert "2,class_2,6" in text

    def test_svg_is_well_formed(self, tmp_path):
        report.emit_report(binary_evaluation(), str(tmp_path))
        text = (tmp_path / "class_distribution.svg").read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) >= 2


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
    ], ids=["unknown-key", "out-of-range", "out-of-range-svm", "wrong-type",
            "wrong-type-cart", "not-an-object"])
    def test_bad_params_exit_one(self, cli_prepared, tmp_path, family, params):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(params), encoding="utf-8")
        code = cli.run([
            "train", "--prepared", cli_prepared["prep"], "--family", family,
            "--params", str(params_path), "--out", str(tmp_path / "model"),
        ])
        assert code == 1
        assert not (tmp_path / "model.model.json").exists()

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


def _key_paths(data: dict, depth: int, prefix=()):
    """Every key path into nested objects, down to `depth` levels."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict) and depth > 1:
            yield from _key_paths(value, depth - 1, prefix + (key,))


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


# one value of each JSON type; numbers stay small so a swapped count
# cannot start a long fit
_SWAP_VALUES = (None, True, 3, "x", [], {})


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

    def test_gru_bundle_without_weights_exits_two(
        self, cli_prepared, cli_artifacts, tmp_path
    ):
        stem = str(tmp_path / "gru")
        shutil.copy(cli_artifacts["gru"]["stem"] + ".model.json", stem + ".model.json")
        shutil.copy(cli_artifacts["gru"]["stem"] + ".vocab.json", stem + ".vocab.json")
        assert self._evaluate(cli_prepared, stem) == 2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_artifact_never_escapes(self, cli_prepared, cli_artifacts, data):
        family = data.draw(st.sampled_from(sorted(cli_artifacts)))
        artifact = data.draw(st.sampled_from(["best", "bundle"]))
        original = cli_artifacts[family][artifact]
        path = data.draw(st.sampled_from(list(_key_paths(original, depth=3))))
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
            else:
                stem = str(work / family)
                for suffix in (".npz", ".vocab.json"):
                    if os.path.exists(cli_artifacts[family]["stem"] + suffix):
                        shutil.copy(cli_artifacts[family]["stem"] + suffix, stem + suffix)
                with open(stem + ".model.json", "w", encoding="utf-8") as handle:
                    json.dump(mutant, handle)
                code = self._evaluate(cli_prepared, stem)
        assert code in (0, 1, 2)


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
