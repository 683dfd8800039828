"""Classification metrics checked against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhtext import metrics


def pairwise_auroc(y_true, scores):
    """Test-local oracle: O(n^2) count of correctly ordered (pos, neg)
    pairs, ties worth half."""
    pos = [s for y, s in zip(y_true, scores) if y == 1]
    neg = [s for y, s in zip(y_true, scores) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def prf_by_hand(cm):
    """Test-local oracle: per-class PRF and aggregates via plain loops."""
    k = len(cm)
    rows = []
    for c in range(k):
        tp = cm[c][c]
        fp = sum(cm[r][c] for r in range(k)) - tp
        fn = sum(cm[c]) - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        rows.append((p, r, f, sum(cm[c])))
    total = sum(sum(row) for row in cm)
    weighted_f1 = sum(f * s for _, _, f, s in rows) / total
    return rows, weighted_f1


binary_cases = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ys: 0 < sum(ys) < len(ys)
        ),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


class TestConfusionMatrix:
    def test_small_example(self):
        cm = metrics.confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 1]]

    def test_perfect_predictions_are_diagonal(self):
        cm = metrics.confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert cm.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_empty_input_gives_zero_matrix(self):
        cm = metrics.confusion_matrix([], [], 2)
        assert cm.tolist() == [[0, 0], [0, 0]]

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 2], [0, 1], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 1], [0], 2)


def aggregates_as_they_were(cm):
    """The macro, micro and weighted blocks and accuracy as
    precision_recall_f1 computed them before micro was read from
    accuracy: micro precision, recall and F1 each from the summed
    counts."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    support = cm.sum(axis=1)
    precision = metrics._safe_div(tp, tp + fp)
    recall = metrics._safe_div(tp, tp + fn)
    f1 = metrics._safe_div(2.0 * tp, 2.0 * tp + fp + fn)
    total = cm.sum()
    tp_sum, fp_sum, fn_sum = tp.sum(), fp.sum(), fn.sum()
    micro = {
        "precision": float(tp_sum / (tp_sum + fp_sum)) if tp_sum + fp_sum else 0.0,
        "recall": float(tp_sum / (tp_sum + fn_sum)) if tp_sum + fn_sum else 0.0,
        "f1": float(2.0 * tp_sum / (2.0 * tp_sum + fp_sum + fn_sum))
        if 2.0 * tp_sum + fp_sum + fn_sum
        else 0.0,
    }
    macro = {
        "precision": float(precision.mean()),
        "recall": float(recall.mean()),
        "f1": float(f1.mean()),
    }
    if total > 0:
        weighted = {
            "precision": float(support @ precision / total),
            "recall": float(support @ recall / total),
            "f1": float(support @ f1 / total),
        }
        accuracy = float(tp_sum / total)
    else:
        weighted = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        accuracy = 0.0
    return macro, micro, weighted, accuracy


def float_bits(value):
    """Every float in `value` (nested dicts and tuples) as its hex form,
    which tells -0.0 from 0.0 and every last bit apart."""
    if isinstance(value, dict):
        return {key: float_bits(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(float_bits(v) for v in value)
    assert type(value) is float
    return value.hex()


class TestPrf:
    def test_textbook_counts(self):
        # Class 1: TP=8, FP=2, FN=4.
        cm = np.array([[6, 2], [4, 8]])
        rep = metrics.precision_recall_f1(cm)
        assert rep.precision[1] == pytest.approx(0.8)
        assert rep.recall[1] == pytest.approx(8 / 12)
        assert rep.f1[1] == pytest.approx(2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))
        assert rep.f1[1] == pytest.approx(0.7273, abs=1e-4)
        assert rep.support.tolist() == [8, 12]

    def test_never_predicted_class_is_degenerate(self):
        cm = np.array([[3, 0], [2, 0]])
        rep = metrics.precision_recall_f1(cm)
        assert rep.precision[1] == 0.0
        assert rep.degenerate_precision.tolist() == [False, True]
        assert rep.degenerate_recall.tolist() == [False, False]

    def test_absent_class_has_degenerate_recall(self):
        cm = np.array([[2, 1], [0, 0]])
        rep = metrics.precision_recall_f1(cm)
        assert rep.degenerate_recall.tolist() == [False, True]

    def test_three_class_aggregates_match_hand_oracle(self):
        cm = [[5, 1, 0], [2, 6, 2], [0, 1, 3]]
        rep = metrics.precision_recall_f1(np.array(cm))
        rows, weighted_f1 = prf_by_hand(cm)
        for c, (p, r, f, s) in enumerate(rows):
            assert rep.precision[c] == pytest.approx(p, abs=1e-15)
            assert rep.recall[c] == pytest.approx(r, abs=1e-15)
            assert rep.f1[c] == pytest.approx(f, abs=1e-15)
            assert rep.support[c] == s
        assert rep.weighted["f1"] == pytest.approx(weighted_f1, abs=1e-15)
        assert rep.weighted["f1"] == pytest.approx(0.697436, abs=1e-6)
        assert rep.macro["f1"] == pytest.approx(
            sum(f for _, _, f, _ in rows) / 3, abs=1e-15
        )

    @given(
        st.integers(2, 5).flatmap(
            lambda k: st.lists(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                min_size=1,
                max_size=50,
            ).map(lambda pairs: (k, pairs))
        )
    )
    @settings(max_examples=200)
    def test_micro_f1_equals_accuracy_exactly(self, case):
        k, pairs = case
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        rep = metrics.precision_recall_f1(
            metrics.confusion_matrix(y_true, y_pred, k)
        )
        acc = sum(a == b for a, b in pairs) / len(pairs)
        assert rep.micro["f1"] == acc
        assert rep.micro["precision"] == acc
        assert rep.micro["recall"] == acc
        assert rep.accuracy == acc

    @given(st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**6)), min_size=k, max_size=k),
        min_size=k, max_size=k)))
    @example([[0, 0], [0, 0]])
    @settings(max_examples=500, deadline=None)
    def test_aggregates_match_the_summed_count_oracle_bitwise(self, cm):
        """Micro precision, recall and F1 read from accuracy carry the bits
        the summed counts gave, as do the macro and weighted blocks; the
        all-zero matrix included."""
        rep = metrics.precision_recall_f1(np.array(cm))
        got = (rep.macro, rep.micro, rep.weighted, rep.accuracy)
        assert float_bits(got) == float_bits(aggregates_as_they_were(cm))

    def test_all_zero_matrix_reports_zeros(self):
        rep = metrics.precision_recall_f1(np.zeros((2, 2), dtype=np.int64))
        assert rep.accuracy == 0.0
        assert rep.weighted["f1"] == 0.0


class TestAuroc:
    @given(binary_cases)
    @settings(max_examples=500, deadline=None)
    def test_matches_pairwise_oracle_exactly(self, case):
        ys, scores = case
        assert metrics.auroc(ys, scores) == pairwise_auroc(ys, scores)

    def test_single_tied_pair_scores_half(self):
        assert metrics.auroc([0, 1], [0.5, 0.5]) == 0.5

    @given(binary_cases)
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_monotone_transforms(self, case):
        ys, scores = case
        base = metrics.auroc(ys, scores)
        shifted = [2.0 * s + 1.0 for s in scores]
        cubed = [float(s) ** 3 for s in scores]
        assert metrics.auroc(ys, shifted) == base
        assert metrics.auroc(ys, cubed) == base

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.auroc([1, 1], [0.2, 0.9])

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            metrics.auroc([0, 2], [0.2, 0.9])


def brute_midranks(scores):
    """Test-local oracle: each score's rank is one plus the count below
    it plus half the other scores equal to it; NaN equals nothing and
    sorts last in input order."""
    finite = [s for s in scores if not math.isnan(s)]
    ranks, nan_seen = [], 0
    for s in scores:
        if math.isnan(s):
            ranks.append(len(finite) + nan_seen + 1.0)
            nan_seen += 1
            continue
        below = sum(1 for t in finite if t < s)
        equal = sum(1 for t in finite if t == s)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


class TestMidranks:
    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, math.nan]),
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_on_heavy_ties(self, scores):
        got = metrics._midranks(np.array(scores, dtype=np.float64))
        assert got.tolist() == brute_midranks(scores)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = metrics.roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert curve.fpr.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]
        assert curve.tpr.tolist() == [0.0, 0.5, 1.0, 1.0, 1.0]
        assert curve.area == 1.0
        assert curve.thresholds[0] == np.inf

    def test_all_scores_tied_gives_diagonal(self):
        curve = metrics.roc_curve([0, 1, 0, 1], [0.3, 0.3, 0.3, 0.3])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]
        assert curve.area == 0.5

    @given(binary_cases)
    @settings(max_examples=200, deadline=None)
    def test_shape_invariants_and_area(self, case):
        ys, scores = case
        curve = metrics.roc_curve(ys, scores)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)
        assert curve.area == pytest.approx(metrics.auroc(ys, scores), abs=1e-12)

    def test_row_export_matches_arrays(self):
        curve = metrics.roc_curve([0, 1], [0.2, 0.9])
        rows = curve.to_rows()
        assert len(rows) == curve.fpr.size
        assert rows[0][2] == np.inf

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.roc_curve([0, 0], [0.2, 0.9])


class TestOvr:
    def test_binarize_shape_and_content(self):
        out = metrics.binarize_ovr([0, 2, 1], 3)
        assert out.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_micro_ovr_matches_pooled_pairwise_oracle(self):
        y = [0, 1, 2, 2, 1, 0]
        rng = np.random.default_rng(7)
        scores = rng.random((6, 3))
        curve = metrics.micro_ovr_roc(y, scores)
        indicators = metrics.binarize_ovr(y, 3)
        pooled_y = indicators.ravel(order="F").tolist()
        pooled_s = scores.ravel(order="F").tolist()
        assert len(pooled_y) == 18
        assert curve.area == pytest.approx(
            pairwise_auroc(pooled_y, pooled_s), abs=1e-12
        )

    def test_per_class_auroc_nan_for_missing_class(self):
        y = [0, 0, 1, 1]
        scores = np.random.default_rng(3).random((4, 3))
        out = metrics.per_class_ovr_auroc(y, scores)
        assert np.isnan(out[2])
        assert not np.isnan(out[0]) and not np.isnan(out[1])

    def test_per_class_auroc_matches_columnwise_oracle(self):
        y = [0, 1, 2, 0, 1, 2, 1]
        scores = np.random.default_rng(11).random((7, 3))
        out = metrics.per_class_ovr_auroc(y, scores)
        indicators = metrics.binarize_ovr(y, 3)
        for k in range(3):
            expect = pairwise_auroc(
                indicators[:, k].tolist(), scores[:, k].tolist()
            )
            assert out[k] == pytest.approx(expect, abs=1e-15)


class TestEvaluatePredictions:
    def test_binary_report_keys(self):
        y = [0, 1, 0, 1]
        pred = [0, 1, 1, 1]
        scores = np.array([0.2, 0.9, 0.6, 0.7])
        rep = metrics.evaluate_predictions(y, pred, scores, n_classes=2)
        data = rep.to_dict()
        assert data["confusion_matrix"] == [[1, 1], [0, 2]]
        assert set(data["auroc"]) == {"binary"}
        assert data["auroc"]["binary"] == pytest.approx(
            pairwise_auroc(y, scores.tolist()), abs=1e-12
        )
        assert data["roc_points"][0]["threshold"] is None

    def test_one_dimensional_scores_become_two_columns(self):
        rep = metrics.evaluate_predictions(
            [0, 1], [0, 1], np.array([0.1, 0.8]), n_classes=2
        )
        assert rep.roc is not None
        assert rep.auroc_values["binary"] == 1.0

    def test_multiclass_report_keys(self):
        y = [0, 1, 2, 0, 1, 2]
        pred = [0, 1, 2, 0, 2, 2]
        scores = np.random.default_rng(5).random((6, 3))
        rep = metrics.evaluate_predictions(y, pred, scores, n_classes=3)
        data = rep.to_dict()
        assert set(data["auroc"]) == {"micro", "macro"}
        assert len(data["per_class_auroc"]) == 3
        assert len(data["prf"]["per_class"]) == 3

    def test_without_scores_omits_roc(self):
        rep = metrics.evaluate_predictions([0, 1], [0, 1], None, n_classes=2)
        data = rep.to_dict()
        assert rep.roc is None
        assert "roc_points" not in data
        assert data["auroc"] == {}

    def test_weighted_f1_frozen_value(self):
        # Hand-frozen from the 3-class confusion oracle above.
        y = [0] * 6 + [1] * 10 + [2] * 4
        pred = (
            [0] * 5 + [1]
            + [0] * 2 + [1] * 6 + [2] * 2
            + [1] * 1 + [2] * 3
        )
        rep = metrics.evaluate_predictions(y, pred, None, n_classes=3)
        assert rep.prf.weighted["f1"] == pytest.approx(0.697436, abs=1e-6)
        assert rep.prf.accuracy == pytest.approx(14 / 20)
