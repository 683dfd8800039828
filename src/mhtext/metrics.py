"""Imbalance-aware evaluation: confusion matrix, PRF, ROC, AUROC.

Conventions fixed here and relied on everywhere else:
  * confusion matrix rows are true classes, columns predicted classes;
  * 0/0 ratios (precision, recall, F1) are reported as 0.0 with a
    degeneracy flag rather than NaN;
  * per-class F1 is computed as 2*TP / (2*TP + FP + FN), which equals
    the harmonic mean when defined and makes micro-F1 equal accuracy
    exactly in floating point;
  * AUROC is rank-based with midranks for ties, which equals
    P(score+ > score-) + 0.5 * P(score+ = score-).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Count (true, predicted) pairs into a (K, K) int64 matrix."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} contains ids outside 0..{n_classes - 1}")
    flat = np.bincount(
        y_true * n_classes + y_pred, minlength=n_classes * n_classes
    )
    return flat.reshape(n_classes, n_classes)


@dataclass(frozen=True)
class PrfReport:
    """Per-class and aggregate precision/recall/F1 for one prediction set."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    degenerate_precision: np.ndarray  # bool; TP+FP == 0 for the class
    degenerate_recall: np.ndarray  # bool; TP+FN == 0 for the class
    macro: dict[str, float]
    micro: dict[str, float]
    weighted: dict[str, float]
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "per_class": [
                {
                    "precision": float(p),
                    "recall": float(r),
                    "f1": float(f),
                    "support": int(s),
                    "degenerate_precision": bool(dp),
                    "degenerate_recall": bool(dr),
                }
                for p, r, f, s, dp, dr in zip(
                    self.precision,
                    self.recall,
                    self.f1,
                    self.support,
                    self.degenerate_precision,
                    self.degenerate_recall,
                )
            ],
            "macro": self.macro,
            "micro": self.micro,
            "weighted": self.weighted,
            "accuracy": self.accuracy,
        }


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def precision_recall_f1(cm: np.ndarray) -> PrfReport:
    """Derive PRF from a confusion matrix; degenerate ratios become 0."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    support = cm.sum(axis=1)
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2.0 * tp, 2.0 * tp + fp + fn)
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
    return PrfReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support.astype(np.int64),
        degenerate_precision=(tp + fp) == 0,
        degenerate_recall=(tp + fn) == 0,
        macro=macro,
        micro=micro,
        weighted=weighted,
        accuracy=accuracy,
    )


def weighted_f1(y_true, y_pred, n_classes: int) -> float:
    """Support-weighted F1, the model-selection score."""
    return precision_recall_f1(confusion_matrix(y_true, y_pred, n_classes)).weighted["f1"]


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged (midranks)."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    start = 0
    while start < scores.size:
        stop = start
        while stop + 1 < scores.size and sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[order[start : stop + 1]] = 0.5 * (start + stop) + 1.0
        start = stop + 1
    return ranks


def auroc(y_true, scores) -> float:
    """Rank-based AUROC of binary labels against real scores."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape or y_true.ndim != 1:
        raise ValueError("labels and scores must be 1-D and the same length")
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos + n_neg != y_true.size:
        raise ValueError("binary labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[y_true == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class RocCurve:
    """ROC points with one threshold per distinct score, plus (0, 0)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # leading +inf anchors the (0, 0) point
    area: float

    def to_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(f), float(t), float(th))
            for f, t, th in zip(self.fpr, self.tpr, self.thresholds)
        ]


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(0.5 * np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1])))


def roc_curve(y_true, scores) -> RocCurve:
    """ROC curve swept over thresholds at each distinct score, descending.

    Samples sharing a score move together, so the trapezoid area equals
    the rank-based AUROC.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_true = y_true[order]
    boundaries = np.flatnonzero(np.diff(sorted_scores)) if scores.size > 1 else np.empty(0, int)
    ends = np.append(boundaries, scores.size - 1)
    tp_cum = np.cumsum(sorted_true)[ends]
    fp_cum = np.cumsum(1 - sorted_true)[ends]
    fpr = np.concatenate(([0.0], fp_cum / n_neg))
    tpr = np.concatenate(([0.0], tp_cum / n_pos))
    thresholds = np.concatenate(([np.inf], sorted_scores[ends]))
    return RocCurve(fpr, tpr, thresholds, _trapezoid(tpr, fpr))


def binarize_ovr(y_true, n_classes: int) -> np.ndarray:
    """One-vs-rest indicator matrix, shape (n, K)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    return (y_true[:, None] == np.arange(n_classes)[None, :]).astype(np.int64)


def micro_ovr_roc(y_true, score_matrix) -> RocCurve:
    """Micro-averaged one-vs-rest ROC: pool all (indicator, score) pairs."""
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    if score_matrix.ndim != 2:
        raise ValueError("score_matrix must be 2-D")
    indicators = binarize_ovr(y_true, score_matrix.shape[1])
    return roc_curve(indicators.ravel(order="F"), score_matrix.ravel(order="F"))


def per_class_ovr_auroc(y_true, score_matrix) -> np.ndarray:
    """One-vs-rest AUROC per class; NaN where a class has no positives
    or no negatives."""
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    indicators = binarize_ovr(y_true, score_matrix.shape[1])
    out = np.full(score_matrix.shape[1], np.nan)
    for k in range(score_matrix.shape[1]):
        pos = indicators[:, k].sum()
        if 0 < pos < indicators.shape[0]:
            out[k] = auroc(indicators[:, k], score_matrix[:, k])
    return out


@dataclass(frozen=True)
class EvaluationReport:
    """Everything reported for one model on one split."""

    confusion: np.ndarray
    prf: PrfReport
    roc: RocCurve | None
    auroc_values: dict[str, float] = field(default_factory=dict)
    per_class_auroc: np.ndarray | None = None

    def to_dict(self) -> dict:
        data = {
            "confusion_matrix": self.confusion.tolist(),
            "prf": self.prf.to_dict(),
            "auroc": {k: float(v) for k, v in self.auroc_values.items()},
        }
        if self.per_class_auroc is not None:
            data["per_class_auroc"] = [
                None if np.isnan(v) else float(v) for v in self.per_class_auroc
            ]
        if self.roc is not None:
            data["roc_points"] = [
                {"fpr": f, "tpr": t, "threshold": th if np.isfinite(th) else None}
                for f, t, th in self.roc.to_rows()
            ]
        return data


def evaluate_predictions(
    y_true, y_pred, score_matrix=None, n_classes: int | None = None
) -> EvaluationReport:
    """Bundle confusion, PRF, and (when scores are given) ROC/AUROC.

    For binary problems the ROC uses the class-1 column of the score
    matrix; for multiclass it is the micro-averaged one-vs-rest curve,
    with macro and per-class AUROC alongside.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    cm = confusion_matrix(y_true, y_pred, n_classes)
    prf = precision_recall_f1(cm)
    if score_matrix is None:
        return EvaluationReport(cm, prf, None)
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    if score_matrix.ndim == 1:
        score_matrix = np.column_stack([-score_matrix, score_matrix])
    if n_classes == 2:
        curve = roc_curve(y_true, score_matrix[:, 1])
        return EvaluationReport(cm, prf, curve, {"binary": curve.area})
    curve = micro_ovr_roc(y_true, score_matrix)
    per_class = per_class_ovr_auroc(y_true, score_matrix)
    defined = per_class[~np.isnan(per_class)]
    values = {"micro": curve.area}
    if defined.size:
        values["macro"] = float(defined.mean())
    return EvaluationReport(cm, prf, curve, values, per_class)
