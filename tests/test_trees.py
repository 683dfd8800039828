"""CART, random forest, and histogram boosting against enumeration oracles."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mhtext import trees
from mhtext.errors import DataError


def oracle_impurity(counts, criterion, weights=None):
    """Test-local impurity in plain Python."""
    if weights is not None:
        counts = [c * w for c, w in zip(counts, weights)]
    total = sum(counts)
    if total <= 0:
        return 0.0
    probs = [c / total for c in counts]
    if criterion == "gini":
        return 1.0 - sum(p * p for p in probs)
    return -sum(p * math.log(p) for p in probs if p > 0)


def oracle_enumerate_splits(X, y, criterion, min_leaf, weights=None):
    """Every admissible (feature, threshold, gain), by brute force."""
    n, d = X.shape
    n_classes = int(max(y)) + 1
    if weights is None:
        weights = [1.0] * n_classes

    def weighted_counts(rows):
        counts = [0.0] * n_classes
        for i in rows:
            counts[y[i]] += 1.0
        return counts

    parent_counts = weighted_counts(range(n))
    parent = oracle_impurity(parent_counts, criterion, weights)
    out = []
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, f] <= thr]
            right = [i for i in range(n) if X[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            lc = weighted_counts(left)
            rc = weighted_counts(right)
            lt = sum(c * w for c, w in zip(lc, weights))
            rt = sum(c * w for c, w in zip(rc, weights))
            gain = parent - (
                lt * oracle_impurity(lc, criterion, weights)
                + rt * oracle_impurity(rc, criterion, weights)
            ) / (lt + rt)
            out.append((f, thr, gain))
    return out


def oracle_best(splits):
    """Best split under the tie rules: higher gain, then lower feature
    id, then lower threshold (the enumeration order)."""
    best = None
    for f, thr, gain in splits:
        if best is None or gain > best[2] + 1e-12:
            best = (f, thr, gain)
    return best


def exact_gini_gains(X, y, min_leaf):
    """Every admissible split's gini gain in exact rational arithmetic.

    Integer counts make each gain a Fraction, so the maximum and any
    ties are mathematical facts rather than float artifacts.
    """
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


def verify_tree_against_oracle(X, y, node, config, depth=0):
    """Recursively certify a fitted gini tree: every interior node's
    split attains the exact maximal gain, every leaf is genuinely
    terminal, and labels are majority labels.

    Exactly tied splits are legal in any enumeration order, so the walk
    follows the fitted choice after proving it co-optimal.
    """
    counts = np.bincount(y, minlength=node.counts.size)
    assert node.label == int(np.argmax(counts))
    assert node.n_samples == y.size
    must_stop = (
        depth >= config.depth_limit
        or y.size < config.min_samples_split
        or np.count_nonzero(counts) <= 1
    )
    if must_stop:
        assert node.is_leaf
        return
    gains = exact_gini_gains(X, y, config.min_samples_leaf)
    positive = {k: g for k, g in gains.items() if g > 0}
    if not positive:
        assert node.is_leaf
        return
    best_gain = max(positive.values())
    assert not node.is_leaf, f"leaf where gain {best_gain} was available"
    key = (node.feature, node.threshold)
    assert key in gains, f"split {key} not in the admissible set"
    assert gains[key] == best_gain, (
        f"split {key} gains {gains[key]}, oracle max is {best_gain}"
    )
    assert node.gain == pytest.approx(float(best_gain), abs=1e-12)
    mask = X[:, node.feature] <= node.threshold
    verify_tree_against_oracle(X[mask], y[mask], node.left, config, depth + 1)
    verify_tree_against_oracle(X[~mask], y[~mask], node.right, config, depth + 1)


def route_recursively(node, x):
    """Plain per-row descent, the reference for vectorized routing."""
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.label


class TestImpurity:
    def test_pure_node_gini_is_zero(self):
        assert trees.impurity([10, 0], "gini") == 0.0

    def test_even_binary_gini_is_half(self):
        assert trees.impurity([5, 5], "gini") == 0.5

    def test_even_binary_entropy_is_ln2(self):
        assert trees.impurity([5, 5], "entropy") == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_class_weights_shift_the_distribution(self):
        # weights (1, 3) turn counts (3, 1) into an even split
        got = trees.impurity([3, 1], "gini", class_weight_vec=[1.0, 3.0])
        assert got == 0.5

    def test_empty_counts_are_pure(self):
        assert trees.impurity([0, 0], "gini") == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            trees.impurity([-1, 2], "gini")

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_matches_plain_python(self, criterion, rng):
        for _ in range(20):
            counts = rng.integers(0, 20, rng.integers(2, 6)).tolist()
            assert trees.impurity(counts, criterion) == pytest.approx(
                oracle_impurity(counts, criterion), abs=1e-14
            )


class TestBestSplit:
    def test_perfect_feature_gains_the_parent_impurity(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        split = trees.best_split(X, y, trees.TreeConfig())
        assert split.feature == 0
        assert split.threshold == 0.5
        assert split.gain == 0.5  # parent gini of an even split

    def test_constant_feature_gives_none(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        assert trees.best_split(X, y, trees.TreeConfig()) is None

    def test_zero_gain_gives_none(self):
        # The only cut separates nothing: both halves keep the parent mix.
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        assert trees.best_split(X, y, trees.TreeConfig()) is None

    def test_min_samples_leaf_restricts_candidates(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        split = trees.best_split(
            X, y, trees.TreeConfig(min_samples_leaf=2)
        )
        assert split.threshold == 1.5
        none = trees.best_split(X, y, trees.TreeConfig(min_samples_leaf=3))
        assert none is None

    def test_threshold_ties_take_the_lowest(self):
        # Cuts at 0.5 and 2.5 gain identically; the scan keeps 0.5.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        split = trees.best_split(X, y, trees.TreeConfig())
        assert split.threshold == 0.5

    def test_feature_ties_take_the_lowest_id(self):
        col = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([col, col])
        y = np.array([0, 0, 1, 1])
        split = trees.best_split(X, y, trees.TreeConfig())
        assert split.feature == 0

    def test_feature_ids_argument_restricts_the_scan(self):
        col = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([np.zeros(4), col])
        y = np.array([0, 0, 1, 1])
        split = trees.best_split(
            X, y, trees.TreeConfig(), feature_ids=[0]
        )
        assert split is None

    def test_matches_exact_exhaustive_enumeration(self, rng):
        # Gini gains are rationals; the chosen split must attain the
        # exact maximum, and must be THE argmax whenever it is unique.
        config = trees.TreeConfig()
        unique_checked = 0
        for _ in range(60):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 5))
            X = rng.integers(0, 6, (n, d)).astype(np.float64)
            y = rng.integers(0, 3, n)
            y[:2] = [0, 1]
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
        assert unique_checked >= 30  # the sharp check must actually run

    def test_entropy_matches_float_enumeration(self, rng):
        config = trees.TreeConfig(criterion="entropy")
        for _ in range(40):
            n = int(rng.integers(4, 30))
            X = rng.integers(0, 6, (n, 3)).astype(np.float64)
            y = rng.integers(0, 3, n)
            y[:2] = [0, 1]
            splits = oracle_enumerate_splits(X, y, "entropy", 1)
            expect = oracle_best(splits)
            got = trees.best_split(X, y, config)
            if expect is None or expect[2] <= 1e-15:
                assert got is None or got.gain < 1e-12
                continue
            assert got.gain == pytest.approx(expect[2], abs=1e-12)
            second = max(
                (g for _, _, g in splits if g < expect[2] - 1e-9),
                default=None,
            )
            distinct = all(
                g <= expect[2] - 1e-9 or g >= expect[2] - 1e-12
                for _, _, g in splits
            )
            if distinct and second is not None:
                assert (got.feature, got.threshold) == (expect[0], expect[1])

    def test_weighted_split_matches_enumeration(self, rng):
        weights = [1.0, 2.5]
        config = trees.TreeConfig()
        for _ in range(25):
            n = int(rng.integers(5, 20))
            X = rng.integers(0, 4, (n, 3)).astype(np.float64)
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            expect = oracle_best(
                oracle_enumerate_splits(X, y, "gini", 1, weights)
            )
            got = trees.best_split(X, y, config, class_weight_vec=weights)
            if expect is None or expect[2] <= 0.0:
                assert got is None
            else:
                assert got.gain == pytest.approx(expect[2], abs=1e-12)


class TestCart:
    def test_single_class_is_a_leaf(self):
        root = trees.fit_cart(np.arange(6.0)[:, None], np.zeros(6, dtype=int))
        assert root.is_leaf
        assert root.label == 0

    def test_max_depth_one_gives_a_stump(self, rng):
        X = rng.normal(0, 1, (30, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        root = trees.fit_cart(X, y, trees.TreeConfig(max_depth=1))
        if not root.is_leaf:
            assert root.left.is_leaf and root.right.is_leaf

    def test_separable_data_fits_exactly(self):
        X = np.array([[0.0], [0.2], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        root = trees.fit_cart(X, y)
        assert trees.predict_tree(root, X).tolist() == y.tolist()

    def test_every_fitted_split_is_exactly_optimal(self, rng):
        config = trees.TreeConfig(max_depth=4)
        for _ in range(20):
            n = int(rng.integers(8, 30))
            X = rng.integers(0, 5, (n, 3)).astype(np.float64)
            y = rng.integers(0, 3, n)
            y[:2] = [0, 1]
            root = trees.fit_cart(X, y, config)
            verify_tree_against_oracle(X, y, root, config)
            probes = rng.integers(0, 5, (40, 3)).astype(np.float64)
            got = trees.predict_tree(root, probes)
            want = [route_recursively(root, x) for x in probes]
            assert got.tolist() == want

    def test_fit_is_deterministic(self, rng):
        X = rng.integers(0, 4, (25, 3)).astype(np.float64)
        y = rng.integers(0, 2, 25)
        y[:2] = [0, 1]
        a = trees.fit_cart(X, y)
        b = trees.fit_cart(X, y)
        assert trees.node_to_dict(a) == trees.node_to_dict(b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            trees.fit_cart(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_class_scores_are_leaf_distributions(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        root = trees.fit_cart(X, y)
        scores = trees.tree_class_scores(root, X, 2)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert scores[0].tolist() == [2 / 3, 1 / 3]
        assert scores[3].tolist() == [0.0, 1.0]


class TestConfigValidation:
    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            trees.TreeConfig(criterion="variance")

    def test_bad_leaf_minimum(self):
        with pytest.raises(ValueError):
            trees.TreeConfig(min_samples_leaf=0)

    def test_bad_num_leaves(self):
        with pytest.raises(ValueError):
            trees.TreeConfig(num_leaves=1)

    def test_bad_max_bins(self):
        with pytest.raises(ValueError):
            trees.TreeConfig(max_bins=1)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            trees.TreeConfig(learning_rate=0.0)


class TestForest:
    def blobs(self, rng, n_per=30):
        X = np.vstack([
            rng.normal(0, 0.3, (n_per, 2)),
            rng.normal(5, 0.3, (n_per, 2)),
            rng.normal((0, 9), 0.3, (n_per, 2)),
        ])
        y = np.repeat([0, 1, 2], n_per)
        return X, y

    def test_single_tree_without_bagging_is_cart(self, rng):
        X = rng.integers(0, 5, (40, 3)).astype(np.float64)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        config = trees.TreeConfig(
            n_estimators=1, bootstrap=False, max_features=3
        )
        forest = trees.fit_forest(X, y, config, seed=7)
        cart = trees.fit_cart(X, y, config)
        assert trees.node_to_dict(forest.roots[0]) == trees.node_to_dict(cart)
        assert np.array_equal(
            trees.predict_forest(forest, X), trees.predict_tree(cart, X)
        )

    def test_unanimous_votes_on_separable_blobs(self, rng):
        X, y = self.blobs(rng)
        config = trees.TreeConfig(n_estimators=25)
        forest = trees.fit_forest(X, y, config, seed=3)
        scores = trees.forest_scores(forest, X)
        assert np.all(scores[np.arange(y.size), y] == 1.0)
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_same_seed_reproduces_the_forest(self, rng):
        X, y = self.blobs(rng, n_per=15)
        config = trees.TreeConfig(n_estimators=10)
        a = trees.fit_forest(X, y, config, seed=11)
        b = trees.fit_forest(X, y, config, seed=11)
        assert a.tree_seeds == b.tree_seeds
        for ra, rb in zip(a.roots, b.roots):
            assert trees.node_to_dict(ra) == trees.node_to_dict(rb)

    def test_different_seeds_differ(self, rng):
        X, y = self.blobs(rng, n_per=15)
        config = trees.TreeConfig(n_estimators=5)
        a = trees.fit_forest(X, y, config, seed=1)
        b = trees.fit_forest(X, y, config, seed=2)
        assert a.tree_seeds != b.tree_seeds

    def test_importance_concentrates_on_the_split_feature(self, rng):
        n = 60
        informative = rng.normal(0, 1, n)
        X = np.column_stack([informative, np.zeros(n), np.ones(n)])
        y = (informative > 0).astype(int)
        y[:2] = [0, 1]
        forest = trees.fit_forest(
            X, y, trees.TreeConfig(n_estimators=20), seed=5
        )
        imp = trees.feature_importance(forest)
        assert imp[0] == pytest.approx(1.0)
        assert imp[1] == 0.0 and imp[2] == 0.0

    def test_duplicated_feature_shares_importance(self, rng):
        n = 80
        signal = rng.normal(0, 1, n)
        X = np.column_stack([signal, signal])
        y = (signal > 0).astype(int)
        y[:2] = [0, 1]
        config = trees.TreeConfig(n_estimators=200, max_features=1)
        forest = trees.fit_forest(X, y, config, seed=9)
        imp = trees.feature_importance(forest)
        assert imp.sum() == pytest.approx(1.0)
        assert abs(imp[0] - 0.5) < 0.15

    def test_max_features_policies(self):
        assert trees._resolve_max_features("sqrt", 9) == 3
        assert trees._resolve_max_features(None, 10) == 4
        assert trees._resolve_max_features(2, 10) == 2
        assert trees._resolve_max_features(99, 10) == 10
        with pytest.raises(ValueError):
            trees._resolve_max_features("log2", 10)


class TestGbdt:
    def separable(self, rng, n=120):
        X = rng.normal(0, 1, (n, 4))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        y[:2] = [0, 1]
        return X, y

    def test_train_loss_never_increases(self, rng):
        X, y = self.separable(rng)
        config = trees.TreeConfig(
            n_estimators=50, learning_rate=0.1, min_child_samples=5
        )
        model = trees.fit_gbdt(X, y, config)
        losses = np.array(model.train_loss)
        assert losses.size == 51
        assert np.all(np.diff(losses) <= 1e-10)
        assert losses[-1] < 0.5 * losses[0]

    def test_constant_features_learn_only_the_base_rate(self):
        X = np.ones((50, 3))
        y = np.array([1] * 30 + [0] * 20)
        config = trees.TreeConfig(n_estimators=5, min_child_samples=5)
        model = trees.fit_gbdt(X, y, config)
        assert model.base_score[0] == pytest.approx(
            math.log(0.6 / 0.4), abs=1e-12
        )
        first = model.rounds[0][0]
        assert first.is_leaf
        assert abs(first.value) < 1e-9
        proba = trees.predict_gbdt_proba(model, X[:3])
        assert proba[:, 1] == pytest.approx(0.6, abs=1e-6)

    def test_num_leaves_two_grows_stumps(self, rng):
        X, y = self.separable(rng)
        config = trees.TreeConfig(
            n_estimators=10, num_leaves=2, min_child_samples=5
        )
        model = trees.fit_gbdt(X, y, config)
        for round_trees in model.rounds:
            for root in round_trees:
                if not root.is_leaf:
                    assert root.left.is_leaf and root.right.is_leaf

    def test_multiclass_probabilities_and_fit(self, rng):
        X = np.vstack([
            rng.normal(0, 0.4, (40, 2)),
            rng.normal(4, 0.4, (40, 2)),
            rng.normal((0, 8), 0.4, (40, 2)),
        ])
        y = np.repeat([0, 1, 2], 40)
        config = trees.TreeConfig(n_estimators=20, min_child_samples=5)
        model = trees.fit_gbdt(X, y, config)
        proba = trees.predict_gbdt_proba(model, X)
        assert proba.shape == (120, 3)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert (trees.predict_gbdt(model, X) == y).mean() == 1.0
        assert len(model.rounds[0]) == 3

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            trees.fit_gbdt(np.ones((5, 2)), np.zeros(5, dtype=int))


class TestSerialization:
    def test_forest_round_trip(self, rng):
        X = rng.integers(0, 5, (40, 3)).astype(np.float64)
        y = rng.integers(0, 3, 40)
        y[:3] = [0, 1, 2]
        model = trees.fit_forest(
            X, y, trees.TreeConfig(n_estimators=8), seed=2
        )
        again = trees.forest_from_dict(json.loads(json.dumps(trees.forest_to_dict(model))))
        assert np.array_equal(
            trees.predict_forest(again, X), trees.predict_forest(model, X)
        )
        assert np.array_equal(
            trees.forest_scores(again, X), trees.forest_scores(model, X)
        )

    def test_gbdt_round_trip(self, rng):
        X = rng.normal(0, 1, (60, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        config = trees.TreeConfig(n_estimators=10, min_child_samples=5)
        model = trees.fit_gbdt(X, y, config)
        again = trees.gbdt_from_dict(json.loads(json.dumps(trees.gbdt_to_dict(model))))
        assert np.array_equal(
            trees.predict_gbdt_proba(again, X), trees.predict_gbdt_proba(model, X)
        )
        assert again.train_loss == model.train_loss

    def test_bad_schema_rejected(self):
        with pytest.raises(DataError):
            trees.forest_from_dict({"schema_version": 99})
        with pytest.raises(DataError):
            trees.gbdt_from_dict({"schema_version": 99})
