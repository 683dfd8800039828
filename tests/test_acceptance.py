"""Acceptance gate: one test per stated acceptance check, in order.

Each test re-derives its oracle locally (pairwise counting, central
finite differences, exact rational split enumeration) so this module
stays an independent second route, then prints a single checklist line
once every assertion held. Checks 1-8 gate the suite; check 9 needs
the public corpus on disk and is informative only.
"""

import os
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import default_rng

from mhtext import gru, linear, metrics, report, search, synth, trees
from mhtext.config import prepare_dataset
from mhtext.corpus import split_dataset
from mhtext.presets import PUBLIC_CORPUS_PARAMS

ACCEPT_SEED = 20240819

# conftest prints this through the terminal reporter after the run, so
# the one-line-per-check log survives pytest's output capture
CHECKLIST: list[str] = []


def announce(number: int, name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number} ({name}): PASS{suffix}"
    CHECKLIST.append(line)
    print(line, file=sys.__stdout__)


def random_binary_instance(rng, max_n=10):
    """Labels with both classes present; half the cases use tied scores."""
    n = int(rng.integers(2, max_n + 1))
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    if rng.random() < 0.5:
        scores = rng.integers(0, 4, n).astype(np.float64)  # heavy ties
    else:
        scores = rng.normal(size=n)
    return y, scores


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """The 2,000-document two-class corpus, generated and prepared once.

    Each status writes from its own disjoint marker pool, so the two
    classes are separable by keywords alone. Build time is recorded so
    the end-to-end check can count it against its budget.
    """
    start = time.perf_counter()
    path = tmp_path_factory.mktemp("accept") / "two_class.csv"
    synth.make_corpus_file(
        str(path), 2000, seed=424242,
        statuses=("Normal", "Depression"), normal_fraction=0.5,
    )
    dataset = prepare_dataset(
        str(path), scheme_kind="binary", seed=11, max_features=800
    )
    return {"dataset": dataset, "seconds": time.perf_counter() - start}


def test_acceptance_1_auroc_matches_pairwise_oracle():
    rng = default_rng(ACCEPT_SEED)
    start = time.perf_counter()
    for _ in range(500):
        y, scores = random_binary_instance(rng)
        pos = scores[y == 1]
        neg = scores[y == 0]
        total = 0.0
        for p in pos:
            for q in neg:
                total += 1.0 if p > q else (0.5 if p == q else 0.0)
        oracle = total / (pos.size * neg.size)
        got = metrics.auroc(y, scores)
        assert got == oracle

        curve = metrics.roc_curve(y, scores)
        area = 0.0
        for i in range(curve.fpr.size - 1):
            area += 0.5 * (curve.fpr[i + 1] - curve.fpr[i]) * (
                curve.tpr[i + 1] + curve.tpr[i]
            )
        assert abs(area - got) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(1, "rank AUROC equals pairwise oracle", f"{elapsed:.2f}s")


def test_acceptance_2_micro_f1_equals_accuracy():
    rng = default_rng(ACCEPT_SEED + 1)
    start = time.perf_counter()
    for _ in range(200):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, n_classes, n)
        y_pred = rng.integers(0, n_classes, n)
        cm = metrics.confusion_matrix(y_true, y_pred, n_classes)
        prf = metrics.precision_recall_f1(cm)
        accuracy = float(np.trace(cm)) / n
        assert prf.accuracy == accuracy
        assert prf.micro["f1"] == accuracy
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(2, "micro-F1 equals accuracy", f"{elapsed:.2f}s")


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def test_acceptance_3_gradients_match_central_differences():
    rng = default_rng(ACCEPT_SEED + 2)
    start = time.perf_counter()

    # logistic: every weight and bias entry, 20 random instances
    for _ in range(20):
        n_classes = int(rng.choice([2, 3]))
        n_features = int(rng.integers(2, 7))
        n = int(rng.integers(3, 13))
        kind = "sigmoid" if n_classes == 2 else "softmax"
        rows = 1 if kind == "sigmoid" else n_classes
        params = linear.LinearModelParams(
            rng.normal(0, 0.5, (rows, n_features)),
            rng.normal(0, 0.5, rows),
            n_classes,
            kind,
        )
        X = rng.normal(size=(n, n_features))
        y = rng.integers(0, n_classes, n)
        y[:2] = [0, 1]
        l2 = float(rng.uniform(0.01, 0.5))
        wpc = rng.uniform(0.5, 2.0, n_classes)
        _, (grad_w, grad_b) = linear.loss_and_gradient(params, X, y, l2, wpc)

        def loss_at(weights, bias):
            probe = linear.LinearModelParams(weights, bias, n_classes, kind)
            return linear.loss_and_gradient(probe, X, y, l2, wpc)[0]

        for tensor, grad in ((params.weights, grad_w), (params.bias, grad_b)):
            flat = tensor.ravel()
            for i in range(flat.size):
                eps = 1e-6 * max(1.0, abs(flat[i]))
                up, down = tensor.copy(), tensor.copy()
                up.ravel()[i] += eps
                down.ravel()[i] -= eps
                if tensor is params.weights:
                    numeric = (loss_at(up, params.bias) - loss_at(down, params.bias)) / (2 * eps)
                else:
                    numeric = (loss_at(params.weights, up) - loss_at(params.weights, down)) / (2 * eps)
                assert relative_error(grad.ravel()[i], numeric) < 1e-5

    # GRU BPTT: tiny net (vocab 10, embedding 4, hidden 5, 6 steps),
    # dropout mask frozen across all evaluations of each instance
    checked_entries = 0
    for instance in range(20):
        config = gru.GruConfig(embedding_dim=4, hidden_dim=5, dropout=0.3)
        params = gru.init_params(10, 3, config, rng=rng)
        batch_x = rng.integers(0, 10, (3, 6)).astype(np.int32)
        batch_y = rng.integers(0, 3, 3)
        wpc = rng.uniform(0.5, 2.0, 3)
        mask = (rng.random((3, 5)) < 1.0 - params.dropout).astype(np.float64)
        _, grads = gru.loss_and_gradients(params, batch_x, batch_y, wpc, dropout_mask=mask)

        def loss_at(probe):
            return gru.loss_and_gradients(
                probe, batch_x, batch_y, wpc, dropout_mask=mask
            )[0]

        for name, tensor in params.tensors():
            flat = tensor.ravel()
            for i in range(flat.size):
                probe_up = gru.GruParams(
                    **{n: t.copy() for n, t in params.tensors()}, dropout=params.dropout
                )
                probe_down = gru.GruParams(
                    **{n: t.copy() for n, t in params.tensors()}, dropout=params.dropout
                )
                eps = 1e-5
                dict(probe_up.tensors())[name].ravel()[i] += eps
                dict(probe_down.tensors())[name].ravel()[i] -= eps
                numeric = (loss_at(probe_up) - loss_at(probe_down)) / (2 * eps)
                analytic = grads[name].ravel()[i]
                if max(abs(analytic), abs(numeric)) < 1e-6:
                    continue  # below finite-difference resolution
                assert relative_error(analytic, numeric) < 1e-4
                checked_entries += 1
    assert checked_entries >= 20 * 20
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(3, "analytic gradients match finite differences", f"{elapsed:.2f}s")


def exact_gini_gains(X, y, min_leaf):
    """Every admissible split's gini gain as an exact Fraction."""
    n = len(y)
    n_classes = int(max(y)) + 1

    def gini(rows):
        total = len(rows)
        if total == 0:
            return Fraction(0)
        counts = [0] * n_classes
        for i in rows:
            counts[y[i]] += 1
        return 1 - sum(Fraction(c, total) ** 2 for c in counts)

    parent = gini(range(n))
    out = {}
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, f] <= thr]
            right = [i for i in range(n) if X[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            out[(f, thr)] = parent - (
                Fraction(len(left), n) * gini(left)
                + Fraction(len(right), n) * gini(right)
            )
    return out


def grow_reference_tree(X, y, config, weights, n_classes, depth):
    """Independent recursion over the (separately verified) split search."""
    counts = np.bincount(y, minlength=n_classes)
    must_stop = (
        depth >= config.depth_limit
        or y.size < config.min_samples_split
        or np.count_nonzero(counts) <= 1
    )
    if not must_stop:
        split = trees.best_split(X, y, config, class_weight_vec=weights)
        if split is not None:
            left = X[:, split.feature] <= split.threshold
            return {
                "feature": split.feature,
                "threshold": split.threshold,
                "left": grow_reference_tree(
                    X[left], y[left], config, weights, n_classes, depth + 1
                ),
                "right": grow_reference_tree(
                    X[~left], y[~left], config, weights, n_classes, depth + 1
                ),
            }
    return {"label": int(np.argmax(counts * weights))}


def route_reference(tree: dict, row) -> int:
    while "label" not in tree:
        side = "left" if row[tree["feature"]] <= tree["threshold"] else "right"
        tree = tree[side]
    return tree["label"]


def test_acceptance_4_split_search_and_cart_match_oracles():
    rng = default_rng(ACCEPT_SEED + 3)
    start = time.perf_counter()

    # split search vs exact exhaustive enumeration. Gini gains are
    # rationals, so exact ties are mathematical facts; the fitted split
    # must attain the exact maximum and be THE argmax whenever unique.
    config = trees.TreeConfig()
    unique_checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 5))
        X = rng.integers(0, 6, (n, d)).astype(np.float64)
        y = rng.integers(0, 3, n)
        gains = exact_gini_gains(X, y, 1)
        positive = {k: g for k, g in gains.items() if g > 0}
        got = trees.best_split(X, y, config)
        if not positive:
            assert got is None
            continue
        best_gain = max(positive.values())
        key = (got.feature, got.threshold)
        assert gains[key] == best_gain
        assert got.gain == pytest.approx(float(best_gain), abs=1e-12)
        winners = [k for k, g in positive.items() if g == best_gain]
        if len(winners) == 1:
            assert key == winners[0]
            unique_checked += 1
    assert unique_checked >= 30

    # full tree vs recursively applied oracle, on training rows and
    # fresh probes
    for case in range(100):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 5))
        X = rng.integers(0, 6, (n, d)).astype(np.float64)
        y = rng.integers(0, 3, n)
        y[:2] = [0, 1]
        cart_config = (
            trees.TreeConfig()
            if case % 2 == 0
            else trees.TreeConfig(max_depth=3, min_samples_split=4)
        )
        n_classes = int(y.max()) + 1
        weights = np.ones(n_classes)
        root = trees.fit_cart(X, y, cart_config).root
        reference = grow_reference_tree(X, y, cart_config, weights, n_classes, 0)
        probes = np.vstack([X, rng.integers(0, 6, (20, d)).astype(np.float64)])
        got = trees.predict_tree(root, probes)
        expected = [route_reference(reference, row) for row in probes]
        assert got.tolist() == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(4, "split search and CART match enumeration oracles", f"{elapsed:.2f}s")


def test_acceptance_5_single_tree_forest_degenerates_to_cart():
    rng = default_rng(ACCEPT_SEED + 4)
    for _ in range(50):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, int(rng.choice([2, 3])), n)
        y[:2] = [0, 1]
        config = trees.ForestConfig(
            n_estimators=1, bootstrap=False, max_features=d
        )
        forest = trees.fit_forest(X, y, config, seed=int(rng.integers(1 << 30)))
        cart = trees.fit_cart(X, y, config).root
        probes = np.vstack([X, rng.normal(size=(15, d))])
        assert np.array_equal(
            trees.predict_forest(forest, probes), trees.predict_tree(cart, probes)
        )
    announce(5, "one-tree forest reproduces CART")


def test_acceptance_6_boosting_loss_is_monotone(synthetic_run):
    dataset = synthetic_run["dataset"]
    config = trees.GbdtConfig(n_estimators=50, learning_rate=0.1, num_leaves=15)
    model = trees.fit_gbdt(
        dataset.rows("tfidf", "train"), dataset.labels_for("train"), config
    )
    losses = np.asarray(model.train_loss)
    assert losses.size == 51  # round-0 baseline plus one entry per round
    assert np.all(np.diff(losses) <= 1e-10)
    assert losses[-1] < 0.5 * losses[0]
    announce(
        6, "boosting train loss non-increasing",
        f"{losses[0]:.4f} -> {losses[-1]:.4f}",
    )


FAMILY_SETTINGS = [
    ("logistic", {"C": 1000.0, "max_iter": 300}),
    ("svm-linear", {"kernel": "linear", "C": 1.0, "max_epochs": 1200}),
    ("svm-rbf", {"kernel": "rbf", "C": 10.0, "gamma": "scale",
                 "max_epochs": 400, "tol": 1e-5}),
    ("forest", {"n_estimators": 40}),
    ("gbdt", {"n_estimators": 40, "learning_rate": 0.1, "num_leaves": 15}),
    ("gru", {"embedding_dim": 16, "hidden_dim": 16, "epochs": 3,
             "batch_size": 32, "learning_rate": 0.01, "dropout": 0.0}),
]


def test_acceptance_7_every_family_learns_the_synthetic_corpus(synthetic_run):
    dataset = synthetic_run["dataset"]
    start = time.perf_counter()
    y_test = dataset.labels_for("test")
    results = {}
    for label, params in FAMILY_SETTINGS:
        family = label.split("-")[0]
        fitted = search.train_family(family, dict(params), dataset, model_seed=9)
        labels, _ = fitted.infer(dataset.rows(fitted.spec.features, "test"))
        f1 = metrics.weighted_f1(y_test, labels, dataset.scheme.n_classes)
        results[label] = f1
    elapsed = time.perf_counter() - start + synthetic_run["seconds"]
    failures = {k: v for k, v in results.items() if v < 0.95}
    assert not failures, f"families under 0.95 weighted F1: {failures}"
    assert elapsed < 300.0
    announce(
        7, "all six families reach 0.95 F1 on synthetic corpus",
        f"min F1 {min(results.values()):.3f}, {elapsed:.0f}s",
    )


def test_acceptance_8_split_sizes_and_distribution_report(tmp_path):
    # the documented two-step share formula, checked at three sizes
    for n in (10, 100, 51074):
        split = split_dataset(n, seed=123)
        sizes = (len(split.train), len(split.validation), len(split.test))
        n_test = round(0.20 * n)
        n_val = round(0.25 * (n - n_test))
        assert sizes == (n - n_test - n_val, n_val, n_test)
        for size, share in zip(sizes, (0.6, 0.2, 0.2)):
            assert abs(size - share * n) <= 1.0  # within rounding
        combined = np.sort(np.concatenate([split.train, split.validation, split.test]))
        assert np.array_equal(combined, np.arange(n))

    # distribution report vs generator proportions on a fresh corpus
    spec = synth.SynthSpec(n_docs=1500, seed=99)
    rows = synth.generate(spec)
    mapping = {status: i for i, status in enumerate(spec.statuses)}
    labels = np.array([mapping[status] for _, _, status in rows], dtype=np.int64)
    cm = metrics.confusion_matrix(labels, labels, len(spec.statuses))
    report.emit_report(report.check_evaluation(
        {"schema_version": 1, "class_names": list(spec.statuses),
         "metrics": {"confusion_matrix": cm.tolist()}}
    ), str(tmp_path))
    lines = (tmp_path / "class_distribution.csv").read_text().splitlines()[1:]
    counts = {line.split(",")[1]: int(line.split(",")[2]) for line in lines}
    assert sum(counts.values()) == spec.n_docs
    other_share = (1.0 - spec.normal_fraction) / (len(spec.statuses) - 1)
    for status in spec.statuses:
        expected = spec.normal_fraction if status == "Normal" else other_share
        assert abs(counts[status] / spec.n_docs - expected) <= 0.01
    announce(8, "split formula and distribution report")


KAGGLE_ENV = "MHTEXT_KAGGLE_CSV"

# Reference test-split scores recorded for the public corpus. Wide
# tolerances: lemmatizer, solvers, and feature-fit scope here are
# deliberate reimplementations, not the original tooling.
BINARY_F1_TARGETS = {
    "logistic": (0.9345, 0.03),
    "svm": (0.9401, 0.03),
    "forest": (0.9359, 0.03),
    "gbdt": (0.9358, 0.03),
    "gru": (0.9512, 0.05),
}
BINARY_AUROC_TARGETS = {
    "logistic": (0.93, 0.03),
    "svm": (0.93, 0.03),
    "forest": (0.92, 0.03),
    "gbdt": (0.93, 0.03),
    "gru": (0.94, 0.03),
}
MULTICLASS_F1_TARGETS = {
    "logistic": (0.7498, 0.05),
    "svm": (0.7610, 0.05),
    "forest": (0.7478, 0.05),
    "gbdt": (0.7747, 0.05),
    "gru": (0.7756, 0.05),
}
# per-family params shared with scripts/reproduce_public_corpus.py
BINARY_PARAMS = PUBLIC_CORPUS_PARAMS["binary"]
MULTICLASS_PARAMS = PUBLIC_CORPUS_PARAMS["multiclass"]


@pytest.mark.skipif(
    not os.environ.get(KAGGLE_ENV),
    reason=f"set {KAGGLE_ENV} to the public corpus CSV to run this check",
)
def test_acceptance_9_public_corpus_reproduction():
    """Informative reproduction on the public corpus (slow, opt-in)."""
    path = os.environ[KAGGLE_ENV]
    binary = prepare_dataset(path, scheme_kind="binary", seed=0, stratify=True)
    multi = prepare_dataset(path, scheme_kind="multiclass", seed=0, stratify=True)

    names = list(multi.scheme.names)
    share = np.bincount(multi.labels, minlength=len(names)) / multi.n_docs
    assert abs(share[names.index("Normal")] - 0.31) <= 0.01
    assert abs(share[names.index("Depression")] - 0.29) <= 0.01

    misses = []
    for family, params in BINARY_PARAMS.items():
        fitted = search.train_family(family, dict(params), binary, model_seed=1)
        evaluation = search.evaluate_model(fitted, binary, "test")
        f1 = evaluation.prf.weighted["f1"]
        auc = evaluation.auroc_values["binary"]
        target, tol = BINARY_F1_TARGETS[family]
        if abs(f1 - target) > tol:
            misses.append(f"binary {family} F1 {f1:.4f} vs {target}+-{tol}")
        target, tol = BINARY_AUROC_TARGETS[family]
        if abs(auc - target) > tol:
            misses.append(f"binary {family} AUROC {auc:.4f} vs {target}+-{tol}")
    for family, params in MULTICLASS_PARAMS.items():
        fitted = search.train_family(family, dict(params), multi, model_seed=1)
        evaluation = search.evaluate_model(fitted, multi, "test")
        f1 = evaluation.prf.weighted["f1"]
        target, tol = MULTICLASS_F1_TARGETS[family]
        if abs(f1 - target) > tol:
            misses.append(f"multiclass {family} F1 {f1:.4f} vs {target}+-{tol}")
    assert not misses, "; ".join(misses)
    announce(9, "public corpus reproduction")
