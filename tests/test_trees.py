"""CART, random forest, and histogram boosting against enumeration oracles."""

import contextlib
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def impurity_as_it_was(class_counts, criterion, class_weight_vec=None):
    """trees.impurity before it read one row through _impurity_rows."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValueError("class counts must be nonnegative")
    if class_weight_vec is not None:
        counts = counts * np.asarray(class_weight_vec, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    probs = counts / total
    if criterion == "gini":
        return float(1.0 - np.sum(probs * probs))
    logs = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    return float(-np.sum(probs * logs))


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


def dense_scan_feature(x_col, y_col, n_classes, weights, criterion, min_leaf, parent_imp):
    """One feature's best cut by sorting all of the node's values: the
    split search before the presorted nonzero index, kept as its bitwise
    oracle."""
    order = np.argsort(x_col, kind="mergesort")
    xs = x_col[order]
    cut_positions = np.flatnonzero(xs[:-1] < xs[1:])
    if cut_positions.size == 0:
        return None
    one_hot = np.zeros((xs.size, n_classes))
    one_hot[np.arange(xs.size), y_col[order]] = 1.0
    cum = np.cumsum(one_hot, axis=0)
    left_counts = cum[cut_positions]
    right_counts = cum[-1] - left_counts
    left_n = cut_positions + 1
    right_n = xs.size - left_n
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    if not valid.any():
        return None
    left_w = left_counts * weights
    right_w = right_counts * weights
    left_tot = left_w.sum(axis=1)
    right_tot = right_w.sum(axis=1)
    left_imp = trees._impurity_rows(left_w, left_tot, criterion)
    right_imp = trees._impurity_rows(right_w, right_tot, criterion)
    gains = parent_imp - (left_tot * left_imp + right_tot * right_imp) / (
        left_tot + right_tot
    )
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))  # first max = lowest threshold
    threshold = (xs[cut_positions[best]] + xs[cut_positions[best] + 1]) / 2.0
    return float(gains[best]), float(threshold)


def dense_best_split(X, y, config, *, class_weight_vec=None, feature_ids=None):
    """The dense split search over the node's rows X[idx], y[idx]."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1 if y.size else 0
    weights = (
        np.ones(n_classes)
        if class_weight_vec is None
        else np.asarray(class_weight_vec, dtype=np.float64)
    )
    if weights.size < n_classes:
        raise ValueError("class weight vector shorter than the class count")
    counts = np.bincount(y, minlength=weights.size).astype(np.float64)
    parent_imp = trees.impurity(counts, config.criterion, weights)
    if feature_ids is None:
        feature_ids = range(X.shape[1])
    best = None
    for feat in feature_ids:
        scanned = dense_scan_feature(
            X[:, feat], y, weights.size, weights, config.criterion,
            config.min_samples_leaf, parent_imp,
        )
        if scanned is None:
            continue
        gain, threshold = scanned
        if best is None or gain > best.gain:  # ties keep the lower feature id
            best = trees.Split(int(feat), threshold, gain)
    if best is None or best.gain <= 0.0:
        return None
    return best


@contextlib.contextmanager
def dense_split_search(X):
    """Fits grow their nodes by the dense oracle, handed X[idx] and y[idx]
    as the growers did before the presorted index."""
    def dense(index, y, config, *, class_weight_vec=None, feature_ids=None, rows=None):
        return dense_best_split(X[rows], y[rows], config, class_weight_vec=class_weight_vec,
                                feature_ids=feature_ids)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "best_split", dense)
        yield


def exact(split):
    """A split with its floats as hex, so -0.0 and 0.0 differ."""
    return None if split is None else (split.feature, split.threshold.hex(), split.gain.hex())


# values that put a column's zero block first, last or between negatives
# and positives, with repeats, and a -0.0 that must count as zero
CELL_VALUES = (0.0, 0.0, 0.0, -0.0, 0.125, 0.25, 0.5, 0.5, 1.0, 3.0, -0.25, -1.0, -2.0)


@st.composite
def sparse_problems(draw, max_rows=24, max_features=6):
    """(X, y): cells from CELL_VALUES or any float in [-4, 4], with some
    columns all zero and some with no zero; every class in y present."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, max_features))
    cell = st.one_of(st.sampled_from(CELL_VALUES), st.floats(-4.0, 4.0, width=32))
    X = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)), dtype=np.float64)
    X = X.reshape(n, d)
    for f, kind in enumerate(draw(st.lists(st.sampled_from(["mixed", "mixed", "zero", "full"]),
                                           min_size=d, max_size=d))):
        if kind == "zero":
            X[:, f] = 0.0
        elif kind == "full":
            X[X[:, f] == 0.0, f] = 0.75
    n_classes = draw(st.integers(2, min(4, n)))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    y[:n_classes] = np.arange(n_classes)
    return X, y


def oracle_bin_features(X, max_bins: int):
    """Quantile bins per feature, one column at a time: the binning before
    the one-sort code matrix, kept as its bitwise oracle. Returns (binned
    int32 matrix, list of per-feature bin upper bounds)."""
    n, n_features = X.shape
    binned = np.empty((n, n_features), dtype=np.int32)
    upper_bounds = []
    for feat in range(n_features):
        col = X[:, feat]
        distinct = np.unique(col)
        if distinct.size <= max_bins:
            bounds = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            quantiles = np.quantile(col, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
            bounds = np.unique(quantiles)
        binned[:, feat] = np.searchsorted(bounds, col, side="left")
        upper_bounds.append(bounds)
    return binned, upper_bounds


@dataclass
class OracleLeafState:
    node: trees.TreeNode
    idx: np.ndarray
    depth: int
    grad_sum: float
    hess_sum: float
    best: tuple | None = None  # (gain, feature, bin)


def oracle_leaf_best_split(binned, idx, grad, hess, grad_sum, hess_sum, n_bins, config):
    """One leaf's best Newton split from histograms of per-leaf codes."""
    max_bins = int(n_bins.max())
    if max_bins < 2 or idx.size < 2 * config.min_child_samples:
        return None
    n_features = binned.shape[1]
    codes = binned[idx].astype(np.int64) + np.arange(n_features, dtype=np.int64) * max_bins
    flat = codes.ravel()
    size = n_features * max_bins
    hist_g = np.bincount(flat, weights=np.repeat(grad[idx], n_features), minlength=size)
    hist_h = np.bincount(flat, weights=np.repeat(hess[idx], n_features), minlength=size)
    hist_n = np.bincount(flat, minlength=size)
    hist_g = hist_g.reshape(n_features, max_bins)
    hist_h = hist_h.reshape(n_features, max_bins)
    hist_n = hist_n.reshape(n_features, max_bins)
    grad_left = np.cumsum(hist_g, axis=1)[:, :-1]
    hess_left = np.cumsum(hist_h, axis=1)[:, :-1]
    count_left = np.cumsum(hist_n, axis=1)[:, :-1]
    grad_right = grad_sum - grad_left
    hess_right = hess_sum - hess_left
    count_right = idx.size - count_left
    parent_term = grad_sum * grad_sum / (hess_sum + trees.GBDT_REG)
    gains = (
        grad_left * grad_left / (hess_left + trees.GBDT_REG)
        + grad_right * grad_right / (hess_right + trees.GBDT_REG)
        - parent_term
    )
    cut_ok = np.arange(max_bins - 1)[None, :] < (n_bins[:, None] - 1)
    valid = (
        cut_ok
        & (count_left >= config.min_child_samples)
        & (count_right >= config.min_child_samples)
    )
    gains = np.where(valid, gains, -np.inf)
    flat_best = int(np.argmax(gains))  # row-major: lowest feature, then bin
    feat, cut = divmod(flat_best, max_bins - 1)
    gain = float(gains[feat, cut])
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    return gain, int(feat), int(cut)


def oracle_grow_tree_leafwise(binned, upper_bounds, grad, hess, config, apply_to):
    """One regression tree grown leaf-wise, searching every new leaf."""
    n_bins = np.array([b.size + 1 for b in upper_bounds], dtype=np.int64)
    heap = []
    leaves = {}
    ticket = 0

    def make_leaf(idx, depth):
        nonlocal ticket
        node = trees.TreeNode(n_samples=int(idx.size))
        state = OracleLeafState(
            node, idx, depth, float(grad[idx].sum()), float(hess[idx].sum())
        )
        if depth < config.depth_limit:
            found = oracle_leaf_best_split(
                binned, idx, grad, hess, state.grad_sum, state.hess_sum, n_bins, config
            )
            if found is not None:
                state.best = found
                heapq.heappush(heap, (-found[0], ticket, ticket))
        leaves[ticket] = state
        ticket += 1
        return node

    root = make_leaf(np.arange(binned.shape[0]), 0)
    n_leaves = 1
    while heap and n_leaves < config.num_leaves:
        _, _, leaf_id = heapq.heappop(heap)
        state = leaves.pop(leaf_id)
        gain, feat, cut = state.best
        node = state.node
        node.feature = feat
        node.threshold = float(upper_bounds[feat][cut])
        node.gain = gain
        goes_left = binned[state.idx, feat] <= cut
        node.left = make_leaf(state.idx[goes_left], state.depth + 1)
        node.right = make_leaf(state.idx[~goes_left], state.depth + 1)
        n_leaves += 1
    for state in leaves.values():
        value = -config.learning_rate * state.grad_sum / (state.hess_sum + trees.GBDT_REG)
        state.node.value = value
        apply_to[state.idx] += value
    return root


@contextlib.contextmanager
def oracle_booster():
    """fit_gbdt bins and grows its trees by the oracles above."""
    def bins(X, max_bins):
        binned, upper_bounds = oracle_bin_features(X, max_bins)
        return SimpleNamespace(binned=binned, upper_bounds=upper_bounds)

    def grow(bins, grad, hess, config, apply_to):
        return oracle_grow_tree_leafwise(bins.binned, bins.upper_bounds, grad, hess, config,
                                         apply_to)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "_bin_features", bins)
        patch.setattr(trees, "_grow_tree_leafwise", grow)
        yield


def two_loop_fit_gbdt(X, y, config):
    """fit_gbdt as it was: one loop over a score vector for binary and
    another over a score matrix for multiclass."""
    X, y = trees._fit_inputs(X, y, "booster")
    n_classes = int(y.max()) + 1
    weights = trees.class_weights(y, config.class_weight, n_classes)
    sample_w = weights[y]
    bins = trees._bin_features(X, config.max_bins)
    n = y.size
    rounds, losses = [], []
    if n_classes == 2:
        target = (y == 1).astype(np.float64)
        rate = float(sample_w @ target) / float(sample_w.sum())
        rate = min(max(rate, 1e-12), 1.0 - 1e-12)
        base = math.log(rate / (1.0 - rate))
        scores = np.full(n, base)

        def loss():
            point = np.logaddexp(0.0, scores) - target * scores
            return float(sample_w @ point) / n
        losses.append(loss())
        for _ in range(config.n_estimators):
            prob = trees.sigmoid(scores)
            grad = sample_w * (prob - target)
            hess = sample_w * prob * (1.0 - prob)
            rounds.append([trees._grow_tree_leafwise(bins, grad, hess, config, scores)])
            losses.append(loss())
        base_score = np.array([base])
    else:
        counts = np.array([float(sample_w[y == k].sum()) for k in range(n_classes)])
        priors = np.clip(counts / counts.sum(), 1e-12, None)
        base_score = np.log(priors)
        scores = np.tile(base_score, (n, 1))
        rows = np.arange(n)

        def loss():
            return float(-(sample_w @ trees.log_softmax(scores)[rows, y])) / n
        losses.append(loss())
        one_hot = np.zeros((n, n_classes))
        one_hot[rows, y] = 1.0
        for _ in range(config.n_estimators):
            prob = trees._softmax(scores)
            grads = sample_w[:, None] * (prob - one_hot)
            hesses = sample_w[:, None] * prob * (1.0 - prob)
            rounds.append([
                trees._grow_tree_leafwise(bins, grads[:, k], hesses[:, k], config, scores[:, k])
                for k in range(n_classes)
            ])
            losses.append(loss())
    return trees.GbdtModel(base_score, rounds, n_classes, config, bins.upper_bounds, losses)


def two_loop_predict_gbdt_proba(model, X):
    """predict_gbdt_proba as it was: a margin vector for binary and a
    score matrix for multiclass."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.n_classes == 2:
        margin = np.full(X.shape[0], model.base_score[0])
        for (root,) in model.rounds:
            margin += trees._tree_values(root, X)
        pos = trees.sigmoid(margin)
        return np.column_stack([1.0 - pos, pos])
    scores = np.tile(model.base_score, (X.shape[0], 1))
    for round_trees in model.rounds:
        for k, root in enumerate(round_trees):
            scores[:, k] += trees._tree_values(root, X)
    return trees._softmax(scores)


def flat_bins(bins):
    """The booster's bins in the layout before feature blocks: one (rows,
    features) int64 code matrix of a cell's bin plus feature * width,
    and the count histogram of every row."""
    n_features = len(bins.upper_bounds)
    places = np.arange(n_features) % bins.block
    codes = np.hstack(bins.blocks) if bins.blocks else np.empty((bins.n_rows, 0), np.int64)
    codes = codes + (np.arange(n_features) - places) * bins.width
    root_counts = np.bincount(codes.ravel(), minlength=n_features * bins.width)
    return SimpleNamespace(codes=codes, upper_bounds=bins.upper_bounds, width=bins.width,
                           cuts=bins.cuts, root_counts=root_counts)


def flat_count_left(flat, idx):
    """The rows of `idx` at or below each cut, from one count histogram."""
    n_features = flat.codes.shape[1]
    hist = np.bincount(flat.codes[idx].ravel(), minlength=n_features * flat.width)
    return np.cumsum(hist.reshape(n_features, flat.width), axis=1).ravel()[flat.cuts]


def flat_leaf_best_split(bins, idx, grad, hess, grad_sum, hess_sum, config):
    """The leaf search before feature blocks, kept as the bitwise oracle:
    one bincount over every feature's codes of the leaf's rows, and a
    third one for the counts."""
    width = bins.width
    if width < 2 or idx.size < 2 * config.min_child_samples:
        return None
    n_rows, n_features = bins.codes.shape
    size = n_features * width
    root = idx.size == n_rows  # a leaf of every row holds them in order
    flat = (bins.codes if root else bins.codes[idx]).ravel()
    hist_g = np.bincount(flat, weights=np.repeat(grad[idx], n_features), minlength=size)
    hist_h = np.bincount(flat, weights=np.repeat(hess[idx], n_features), minlength=size)
    hist_n = bins.root_counts if root else np.bincount(flat, minlength=size)
    # the left side of each real cut t of feature f: its bins 0..t
    grad_left = np.cumsum(hist_g.reshape(n_features, width), axis=1).ravel()[bins.cuts]
    hess_left = np.cumsum(hist_h.reshape(n_features, width), axis=1).ravel()[bins.cuts]
    count_left = np.cumsum(hist_n.reshape(n_features, width), axis=1).ravel()[bins.cuts]
    grad_right = grad_sum - grad_left
    hess_right = hess_sum - hess_left
    count_right = idx.size - count_left
    parent_term = grad_sum * grad_sum / (hess_sum + trees.GBDT_REG)
    gains = (
        grad_left * grad_left / (hess_left + trees.GBDT_REG)
        + grad_right * grad_right / (hess_right + trees.GBDT_REG)
        - parent_term
    )
    valid = (count_left >= config.min_child_samples) & (count_right >= config.min_child_samples)
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))  # the cuts ascend: lowest feature, then bin
    gain = float(gains[best])
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    feat, cut = divmod(int(bins.cuts[best]), width)
    return gain, int(feat), int(cut)


def exact_leaf(found):
    """A leaf search result with its gain as hex, so the bits must agree."""
    return None if found is None else (found[0].hex(), found[1], found[2])


def exhaustive_newton_split(X, upper_bounds, grad, hess, rows, min_child):
    """A leaf's best (gain, feature, bin) by routing its rows through every
    (feature, bin) cut, with no histograms; None when no cut gains."""
    grad_sum, hess_sum = float(grad[rows].sum()), float(hess[rows].sum())
    parent_term = grad_sum * grad_sum / (hess_sum + trees.GBDT_REG)
    best = None
    for f, bounds in enumerate(upper_bounds):
        for cut, bound in enumerate(bounds):
            left = rows[X[rows, f] <= bound]
            right = rows[X[rows, f] > bound]
            if left.size < min_child or right.size < min_child:
                continue
            g_left, h_left = float(grad[left].sum()), float(hess[left].sum())
            g_right, h_right = float(grad[right].sum()), float(hess[right].sum())
            gain = (g_left * g_left / (h_left + trees.GBDT_REG)
                    + g_right * g_right / (h_right + trees.GBDT_REG) - parent_term)
            if best is None or gain > best[0]:  # ties keep the lower feature, then bin
                best = (gain, f, cut)
    return best if best is not None and best[0] > 0.0 else None


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

    @given(
        counts=st.lists(st.one_of(st.integers(0, 50), st.floats(0.0, 1e6)),
                        min_size=1, max_size=8),
        criterion=st.sampled_from(["gini", "entropy"]),
        data=st.data(),
    )
    @settings(max_examples=1000, deadline=None)
    def test_one_row_matches_the_scalar_formula_bitwise(self, counts, criterion, data):
        """impurity reads one row through the split scan's formula; the
        bits are those of the scalar formula it replaced."""
        weights = data.draw(st.none() | st.lists(
            st.floats(1e-3, 1e3), min_size=len(counts), max_size=len(counts)))
        got = trees.impurity(counts, criterion, weights)
        expect = impurity_as_it_was(counts, criterion, weights)
        assert type(got) is float and got.hex() == expect.hex()

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


class TestSparseSplitSearch:
    """The presorted nonzero scan against the dense oracle, bit for bit."""

    @given(
        problem=sparse_problems(),
        criterion=st.sampled_from(["gini", "entropy"]),
        min_leaf=st.integers(1, 4),
        weighting=st.sampled_from(["none", "balanced", "uneven"]),
        draw_rows=st.sampled_from(["all", "subset", "bootstrap"]),
        block=st.sampled_from([1, 2, 3, 7, trees._BLOCK_ENTRIES]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_best_split_matches_the_dense_scan(
        self, problem, criterion, min_leaf, weighting, draw_rows, block, data
    ):
        X, y = problem
        n, d = X.shape
        k = int(y.max()) + 1
        weights = {"none": None,
                   "balanced": n / (k * np.bincount(y, minlength=k)),
                   "uneven": np.array([1.0, 2.5, 1 / 3, 0.75])[:k]}[weighting]
        rows = None
        if draw_rows != "all":
            rows = np.sort(np.array(data.draw(st.lists(
                st.integers(0, n - 1), min_size=1, max_size=2 * n,
                unique=draw_rows == "subset"))))
        feature_ids = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, d - 1), min_size=1, max_size=d, unique=True).map(sorted)))
        config = trees.TreeConfig(criterion=criterion, min_samples_leaf=min_leaf)
        node = np.arange(n) if rows is None else rows
        expect = dense_best_split(X[node], y[node], config, class_weight_vec=weights,
                                  feature_ids=feature_ids)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_BLOCK_ENTRIES", block)  # many blocks, ties across them
            got = trees.best_split(X, y, config, class_weight_vec=weights,
                                   feature_ids=feature_ids, rows=rows)
        assert exact(got) == exact(expect)

    @given(
        problem=sparse_problems(),
        criterion=st.sampled_from(["gini", "entropy"]),
        max_depth=st.sampled_from([3, 12, None]),
        min_leaf=st.integers(1, 3),
        class_weight=st.sampled_from([None, "balanced"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_cart_matches_the_dense_oracle(
        self, problem, criterion, max_depth, min_leaf, class_weight
    ):
        X, y = problem
        config = trees.TreeConfig(criterion=criterion, max_depth=max_depth,
                                  min_samples_leaf=min_leaf, class_weight=class_weight)
        got = json.dumps(trees.cart_to_dict(trees.fit_cart(X, y, config)))
        with dense_split_search(X):
            expect = json.dumps(trees.cart_to_dict(trees.fit_cart(X, y, config)))
        assert got == expect

    @given(
        problem=sparse_problems(),
        criterion=st.sampled_from(["gini", "entropy"]),
        max_depth=st.sampled_from([3, 12, None]),
        max_features=st.sampled_from(["sqrt", 1, 2, None]),
        bootstrap=st.booleans(),
        class_weight=st.sampled_from([None, "balanced"]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=120, deadline=None)
    def test_forest_matches_the_dense_oracle(
        self, problem, criterion, max_depth, max_features, bootstrap, class_weight, seed
    ):
        X, y = problem
        config = trees.ForestConfig(
            n_estimators=3, criterion=criterion, max_depth=max_depth,
            max_features=max_features, bootstrap=bootstrap, class_weight=class_weight,
        )
        got = json.dumps(trees.forest_to_dict(trees.fit_forest(X, y, config, seed=seed)))
        with dense_split_search(X):
            expect = json.dumps(trees.forest_to_dict(trees.fit_forest(X, y, config, seed=seed)))
        assert got == expect

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tfidf_like_matrix_over_many_blocks(self, seed):
        """Rows of a few L2-normalised positive cells, as TF-IDF gives,
        scanned in blocks of about 50 entries, at full depth."""
        rng = np.random.default_rng(seed)
        n, d = 240, 80
        X = np.where(rng.random((n, d)) < 0.06, rng.random((n, d)), 0.0)
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        y = (X[:, :5].sum(axis=1) > X[:, 5:10].sum(axis=1)).astype(int) + 2 * (rng.random(n) < 0.2)
        cart = trees.TreeConfig(class_weight="balanced", min_samples_leaf=2)
        forest = trees.ForestConfig(n_estimators=4, criterion="entropy")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_BLOCK_ENTRIES", 50)
            got = [json.dumps(trees.cart_to_dict(trees.fit_cart(X, y, cart))),
                   json.dumps(trees.forest_to_dict(trees.fit_forest(X, y, forest, seed=seed)))]
        with dense_split_search(X):
            expect = [json.dumps(trees.cart_to_dict(trees.fit_cart(X, y, cart))),
                      json.dumps(trees.forest_to_dict(trees.fit_forest(X, y, forest, seed=seed)))]
        assert got == expect

    @given(problem=sparse_problems())
    @settings(max_examples=60, deadline=None)
    def test_index_holds_each_nonzero_cell_once_in_feature_then_value_order(self, problem):
        X, _ = problem
        index = trees.SortedNonzeros(X)
        cells = sorted((f, X[r, f], r) for r, f in zip(*np.nonzero(X)))
        got = sorted(zip(index.feature.tolist(), index.value.tolist(), index.row.tolist()))
        assert got == [(int(f), float(v), int(r)) for f, v, r in cells]
        keys = list(zip(index.feature.tolist(), index.value.tolist()))
        assert keys == sorted(keys)
        for f in range(X.shape[1]):
            lo, hi = index.starts[f], index.starts[f + 1]
            assert (index.feature[lo:hi] == f).all() and hi - lo == np.count_nonzero(X[:, f])


class TestCart:
    def test_single_class_is_a_leaf(self):
        root = trees.fit_cart(np.arange(6.0)[:, None], np.zeros(6, dtype=int)).root
        assert root.is_leaf
        assert root.label == 0

    def test_max_depth_one_gives_a_stump(self, rng):
        X = rng.normal(0, 1, (30, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        root = trees.fit_cart(X, y, trees.TreeConfig(max_depth=1)).root
        if not root.is_leaf:
            assert root.left.is_leaf and root.right.is_leaf

    def test_separable_data_fits_exactly(self):
        X = np.array([[0.0], [0.2], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        root = trees.fit_cart(X, y).root
        assert trees.predict_tree(root, X).tolist() == y.tolist()

    def test_every_fitted_split_is_exactly_optimal(self, rng):
        config = trees.TreeConfig(max_depth=4)
        for _ in range(20):
            n = int(rng.integers(8, 30))
            X = rng.integers(0, 5, (n, 3)).astype(np.float64)
            y = rng.integers(0, 3, n)
            y[:2] = [0, 1]
            root = trees.fit_cart(X, y, config).root
            verify_tree_against_oracle(X, y, root, config)
            probes = rng.integers(0, 5, (40, 3)).astype(np.float64)
            got = trees.predict_tree(root, probes)
            want = [route_recursively(root, x) for x in probes]
            assert got.tolist() == want

    def test_fit_is_deterministic(self, rng):
        X = rng.integers(0, 4, (25, 3)).astype(np.float64)
        y = rng.integers(0, 2, 25)
        y[:2] = [0, 1]
        a = trees.fit_cart(X, y).root
        b = trees.fit_cart(X, y).root
        assert trees.node_to_dict(a) == trees.node_to_dict(b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            trees.fit_cart(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_class_scores_are_leaf_distributions(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        root = trees.fit_cart(X, y).root
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
            trees.GbdtConfig(num_leaves=1)

    def test_bad_max_bins(self):
        with pytest.raises(ValueError):
            trees.GbdtConfig(max_bins=1)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            trees.GbdtConfig(learning_rate=0.0)


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
        config = trees.ForestConfig(
            n_estimators=1, bootstrap=False, max_features=3
        )
        forest = trees.fit_forest(X, y, config, seed=7)
        cart = trees.fit_cart(X, y, config).root
        assert trees.node_to_dict(forest.roots[0]) == trees.node_to_dict(cart)
        assert np.array_equal(
            trees.predict_forest(forest, X), trees.predict_tree(cart, X)
        )

    def test_unanimous_votes_on_separable_blobs(self, rng):
        X, y = self.blobs(rng)
        config = trees.ForestConfig(n_estimators=25)
        forest = trees.fit_forest(X, y, config, seed=3)
        scores = trees.forest_scores(forest, X)
        assert np.all(scores[np.arange(y.size), y] == 1.0)
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_same_seed_reproduces_the_forest(self, rng):
        X, y = self.blobs(rng, n_per=15)
        config = trees.ForestConfig(n_estimators=10)
        a = trees.fit_forest(X, y, config, seed=11)
        b = trees.fit_forest(X, y, config, seed=11)
        assert a.tree_seeds == b.tree_seeds
        for ra, rb in zip(a.roots, b.roots):
            assert trees.node_to_dict(ra) == trees.node_to_dict(rb)

    def test_different_seeds_differ(self, rng):
        X, y = self.blobs(rng, n_per=15)
        config = trees.ForestConfig(n_estimators=5)
        a = trees.fit_forest(X, y, config, seed=1)
        b = trees.fit_forest(X, y, config, seed=2)
        assert a.tree_seeds != b.tree_seeds

    def test_max_features_policies(self):
        assert trees._resolve_max_features("sqrt", 9) == 3
        assert trees._resolve_max_features(None, 10) == 4
        assert trees._resolve_max_features(2, 10) == 2
        assert trees._resolve_max_features(99, 10) == 10
        with pytest.raises(ValueError):
            trees.ForestConfig(max_features="log2")


class TestGbdt:
    def separable(self, rng, n=120):
        X = rng.normal(0, 1, (n, 4))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        y[:2] = [0, 1]
        return X, y

    def test_train_loss_never_increases(self, rng):
        X, y = self.separable(rng)
        config = trees.GbdtConfig(
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
        config = trees.GbdtConfig(n_estimators=5, min_child_samples=5)
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
        config = trees.GbdtConfig(
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
        config = trees.GbdtConfig(n_estimators=20, min_child_samples=5)
        model = trees.fit_gbdt(X, y, config)
        proba = trees.predict_gbdt_proba(model, X)
        assert proba.shape == (120, 3)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert (trees.predict_gbdt(model, X) == y).mean() == 1.0
        assert len(model.rounds[0]) == 3

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            trees.fit_gbdt(np.ones((5, 2)), np.zeros(5, dtype=int))


class TestBinnedBooster:
    """The one-sort code matrix and the search of only the leaves that can
    still split, against the per-column binning and the booster that
    searched every leaf, bit for bit."""

    @given(
        problem=sparse_problems(max_rows=40, max_features=5),
        max_bins=st.one_of(st.integers(2, 8), st.just(255)),
        block=st.sampled_from([1, 2, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bins_match_the_per_column_oracle(self, problem, max_bins, block):
        X, _ = problem
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_BIN_BLOCK", block)  # features binned at once
            bins = trees._bin_features(X, max_bins)
        binned, upper_bounds = oracle_bin_features(X, max_bins)
        assert len(bins.upper_bounds) == len(upper_bounds)
        for got, expect in zip(bins.upper_bounds, upper_bounds):
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
        assert bins.width == max(b.size for b in upper_bounds) + 1
        assert bins.cuts.tolist() == [f * bins.width + t for f, b in enumerate(upper_bounds)
                                      for t in range(b.size)]
        assert bins.n_rows == X.shape[0] and bins.block == block
        assert [codes.shape[1] for codes in bins.blocks] == [
            min(block, X.shape[1] - lo) for lo in range(0, X.shape[1], block)]
        assert all(codes.dtype == np.int64 and codes.flags.c_contiguous for codes in bins.blocks)
        places = np.arange(X.shape[1]) % block
        assert np.array_equal(np.hstack(bins.blocks) - places * bins.width, binned)
        assert bins.cut_starts.tolist() == [
            int(np.searchsorted(bins.cuts, lo * bins.width))
            for lo in [*range(0, X.shape[1], block), X.shape[1]]]
        flat = flat_bins(bins)
        assert np.array_equal(flat.codes - np.arange(X.shape[1]) * bins.width, binned)
        assert np.array_equal(bins.root_count_left,
                              flat_count_left(flat, np.arange(X.shape[0])))

    @given(
        problem=sparse_problems(max_rows=40, max_features=5),
        n_estimators=st.integers(1, 3),
        num_leaves=st.integers(2, 6),
        max_bins=st.integers(2, 8),
        min_child_samples=st.integers(0, 4),
        max_depth=st.sampled_from([None, -1, 1, 2]),
        class_weight=st.sampled_from([None, "balanced"]),
        block=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fit_matches_the_oracle_booster(
        self, problem, n_estimators, num_leaves, max_bins, min_child_samples, max_depth,
        class_weight, block,
    ):
        X, y = problem  # two to four classes: both the sigmoid and the softmax scheme
        config = trees.GbdtConfig(
            n_estimators=n_estimators, learning_rate=0.5, num_leaves=num_leaves,
            min_child_samples=min_child_samples, max_bins=max_bins, max_depth=max_depth,
            class_weight=class_weight,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_BIN_BLOCK", block)
            got = json.dumps(trees.gbdt_to_dict(trees.fit_gbdt(X, y, config)))
        with oracle_booster():
            expect = json.dumps(trees.gbdt_to_dict(trees.fit_gbdt(X, y, config)))
        assert got == expect

    @pytest.mark.parametrize("seed, max_bins, num_leaves", [(0, 16, 4), (1, 255, 31), (2, 4, 3)])
    def test_tfidf_like_matrix_over_many_blocks(self, seed, max_bins, num_leaves):
        """Rows of a few L2-normalised positive cells, as TF-IDF gives, over
        three bin blocks, with features of few and of many values."""
        rng = np.random.default_rng(seed)
        n, d = 300, 150
        X = np.where(rng.random((n, d)) < np.linspace(0.02, 0.6, d), rng.random((n, d)), 0.0)
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        y = (X[:, :5].sum(axis=1) > X[:, 5:10].sum(axis=1)).astype(int) + 2 * (rng.random(n) < 0.2)
        config = trees.GbdtConfig(n_estimators=3, num_leaves=num_leaves, max_bins=max_bins,
                                  min_child_samples=5, class_weight="balanced")
        got = json.dumps(trees.gbdt_to_dict(trees.fit_gbdt(X, y, config)))
        with oracle_booster():
            expect = json.dumps(trees.gbdt_to_dict(trees.fit_gbdt(X, y, config)))
        assert got == expect

    @given(
        problem=sparse_problems(max_rows=30, max_features=5),
        max_bins=st.integers(2, 8),
        min_child=st.integers(0, 4),
        every_row=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_leaf_split_is_the_exhaustive_best(
        self, problem, max_bins, min_child, every_row, data
    ):
        """Quarter-integer gradients and hessians make every sum exact in
        any order, so the histogram search and a loop over every cut must
        agree on the gain's bits and on the tie rule."""
        X, _ = problem
        n = X.shape[0]
        quarters = st.lists(st.integers(-8, 8), min_size=n, max_size=n)
        grad = np.array(data.draw(quarters), dtype=np.float64) / 4.0
        hess = np.abs(np.array(data.draw(quarters), dtype=np.float64)) / 4.0
        rows = np.arange(n) if every_row else np.array(sorted(data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=n, unique=True))))
        bins = trees._bin_features(X, max_bins)
        config = trees.GbdtConfig(min_child_samples=min_child)
        got, _ = trees._leaf_best_split(bins, rows, grad, hess, float(grad[rows].sum()),
                                        float(hess[rows].sum()), config)
        assert got == exhaustive_newton_split(X, bins.upper_bounds, grad, hess, rows, min_child)

    def test_only_leaves_that_can_split_are_searched(self, rng):
        """With num_leaves 2 a tree is its root's split, so a fit of three
        classes and three rounds searches nine leaves, not 27."""
        X = rng.normal(0, 1, (90, 4))
        y = np.repeat([0, 1, 2], 30)
        searched = []
        search = trees._leaf_best_split

        def counted(bins, idx, *args):
            searched.append(idx.size)
            return search(bins, idx, *args)

        config = trees.GbdtConfig(n_estimators=3, num_leaves=2, min_child_samples=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_leaf_best_split", counted)
            model = trees.fit_gbdt(X, y, config)
        assert searched == [90] * 9
        assert all(not root.is_leaf for round_trees in model.rounds for root in round_trees)


@st.composite
def booster_problems(draw):
    """(X, y, max_bins, grad, hess): a sparse problem with a feature of one
    value, one of exactly max_bins values and, when drawn, a copy of
    another feature, whose cuts tie on gain with the original's;
    gradients are arbitrary floats or quarter integers, whose sums are
    exact and tie more often."""
    X, y = draw(sparse_problems(max_rows=40, max_features=6))
    n = X.shape[0]
    max_bins = draw(st.integers(2, min(n, 8)))
    one_value = np.full(n, draw(st.sampled_from([0.0, 0.5, -1.0])))
    # each of max_bins values at least once, in a drawn order
    levels = np.arange(n) % max_bins * 0.25
    all_bins = levels[np.array(draw(st.permutations(range(n))))]
    columns = [X, one_value[:, None], all_bins[:, None]]
    if draw(st.booleans()):
        columns.append(X[:, [draw(st.integers(0, X.shape[1] - 1))]])
    order = draw(st.permutations(range(len(columns))))
    X = np.hstack([columns[i] for i in order])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        grad, hess = rng.normal(0.0, 1.0, n), rng.random(n)
    else:
        grad = rng.integers(-8, 9, n) / 4.0
        hess = np.abs(rng.integers(-8, 9, n)) / 4.0
    return X, y, max_bins, grad, hess


class TestBlockHistograms:
    """Leaf histograms built one block of features at a time, with counts
    by subtraction, against the search over one histogram of every
    feature, bit for bit: each bin still adds the leaf's rows in order."""

    @given(problem=booster_problems(), block=st.sampled_from([1, 3, 64]),
           min_child=st.integers(0, 4), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_leaf_search_matches_the_flat_search(self, problem, block, min_child, data):
        X, _, max_bins, grad, hess = problem
        n = X.shape[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_BIN_BLOCK", block)
            bins = trees._bin_features(X, max_bins)
        flat = flat_bins(bins)
        rows = np.arange(n) if data.draw(st.booleans()) else np.array(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))))
        config = trees.GbdtConfig(min_child_samples=min_child)
        sums = float(grad[rows].sum()), float(hess[rows].sum())
        got, count_left = trees._leaf_best_split(bins, rows, grad, hess, *sums, config)
        expect = flat_leaf_best_split(flat, rows, grad, hess, *sums, config)
        assert exact_leaf(got) == exact_leaf(expect)
        if count_left is None:
            assert rows.size < 2 * min_child or bins.width < 2
            return
        assert np.array_equal(count_left, flat_count_left(flat, rows))
        # the counts as a parent's less a sibling's: the same search
        others = np.setdiff1d(np.arange(n), rows)
        given_counts = bins.root_count_left - flat_count_left(flat, others)
        again, kept = trees._leaf_best_split(bins, rows, grad, hess, *sums, config,
                                             given_counts)
        assert exact_leaf(again) == exact_leaf(expect) and kept is given_counts

    @given(
        problem=booster_problems(),
        n_estimators=st.integers(1, 3),
        num_leaves=st.integers(2, 8),
        min_child_samples=st.integers(0, 4),
        max_depth=st.sampled_from([None, 1, 2]),
        class_weight=st.sampled_from([None, "balanced"]),
        block=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_leaf_and_model_match_the_flat_search(
        self, problem, n_estimators, num_leaves, min_child_samples, max_depth, class_weight,
        block,
    ):
        """Each leaf a fit searches gets the flat search's (gain, feature,
        bin) and counts, and the model equals the one grown by the flat
        search, which counts every leaf itself."""
        X, y, max_bins, _, _ = problem
        config = trees.GbdtConfig(
            n_estimators=n_estimators, learning_rate=0.5, num_leaves=num_leaves,
            min_child_samples=min_child_samples, max_bins=max_bins, max_depth=max_depth,
            class_weight=class_weight,
        )
        search = trees._leaf_best_split

        def checked(bins, idx, grad, hess, grad_sum, hess_sum, config, count_left=None):
            got, counts = search(bins, idx, grad, hess, grad_sum, hess_sum, config, count_left)
            flat = flat_bins(bins)
            expect = flat_leaf_best_split(flat, idx, grad, hess, grad_sum, hess_sum, config)
            assert exact_leaf(got) == exact_leaf(expect)
            assert counts is None or np.array_equal(counts, flat_count_left(flat, idx))
            return got, counts

        def flat_search(bins, idx, grad, hess, grad_sum, hess_sum, config, count_left=None):
            return flat_leaf_best_split(flat_bins(bins), idx, grad, hess, grad_sum, hess_sum,
                                        config), None

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_BIN_BLOCK", block)
            patch.setattr(trees, "_leaf_best_split", checked)
            got = trees.fit_gbdt(X, y, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_leaf_best_split", flat_search)
            expect = trees.fit_gbdt(X, y, config)
        assert json.dumps(trees.gbdt_to_dict(got)) == json.dumps(trees.gbdt_to_dict(expect))
        assert [v.hex() for v in got.train_loss] == [v.hex() for v in expect.train_loss]

    def test_second_child_counts_by_subtraction(self, rng):
        """Of two searched children, the second is given its counts: the
        parent's less the first child's."""
        X = rng.normal(0, 1, (200, 70))  # two blocks, the second short
        y = (X[:, 0] + X[:, 65] > 0).astype(int)
        given = []
        search = trees._leaf_best_split

        def recorded(bins, idx, grad, hess, grad_sum, hess_sum, config, count_left=None):
            given.append(count_left is not None)
            return search(bins, idx, grad, hess, grad_sum, hess_sum, config, count_left)

        config = trees.GbdtConfig(n_estimators=1, num_leaves=4, min_child_samples=5,
                                  max_bins=16)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trees, "_leaf_best_split", recorded)
            trees.fit_gbdt(X, y, config)
        assert given == [False, False, True, False, True]


class TestOneBoostingLoop:
    """Binary boosting is the one-column case of the multiclass loop: the
    same model JSON, train_loss, probabilities and labels, bit for bit,
    as the two loops it replaced."""

    @staticmethod
    def assert_same_booster(X, y, config):
        got = trees.fit_gbdt(X, y, config)
        expect = two_loop_fit_gbdt(X, y, config)
        assert json.dumps(trees.gbdt_to_dict(got)) == json.dumps(trees.gbdt_to_dict(expect))
        assert [v.hex() for v in got.train_loss] == [v.hex() for v in expect.train_loss]
        # the training rows, then the same rows reversed and shifted off the bins
        for rows in (X, X[::-1] + 0.125):
            proba = trees.predict_gbdt_proba(got, rows)
            oracle = two_loop_predict_gbdt_proba(expect, rows)
            assert proba.dtype == oracle.dtype and proba.shape == oracle.shape
            assert proba.tobytes() == oracle.tobytes()
            assert np.array_equal(trees.predict_gbdt(got, rows), np.argmax(oracle, axis=1))

    @given(
        problem=sparse_problems(max_rows=40, max_features=5),
        two_classes=st.booleans(),
        constant=st.sampled_from([None, 0.0, 0.5]),
        n_estimators=st.integers(1, 4),
        learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
        num_leaves=st.integers(2, 6),
        max_bins=st.integers(2, 40),
        min_child_samples=st.integers(0, 4),
        max_depth=st.sampled_from([None, -1, 1, 2]),
        class_weight=st.sampled_from([None, "balanced"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fit_and_predict_match_the_two_loops(
        self, problem, two_classes, constant, n_estimators, learning_rate, num_leaves,
        max_bins, min_child_samples, max_depth, class_weight,
    ):
        X, y = problem
        if two_classes:
            y = y % 2
        if constant is not None:  # a feature with one value, zero or not
            X = X.copy()
            X[:, 0] = constant
        config = trees.GbdtConfig(
            n_estimators=n_estimators, learning_rate=learning_rate, num_leaves=num_leaves,
            min_child_samples=min_child_samples, max_bins=max_bins, max_depth=max_depth,
            class_weight=class_weight,
        )
        self.assert_same_booster(X, y, config)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_one_valued_features_and_no_child_minimum(self, n_classes, rng):
        X = np.column_stack([np.zeros(60), np.full(60, 0.5), rng.normal(0, 1, 60)])
        y = np.arange(60) % n_classes
        config = trees.GbdtConfig(n_estimators=5, num_leaves=8, min_child_samples=0,
                                  max_bins=40, class_weight="balanced")
        self.assert_same_booster(X, y, config)


class TestNonFiniteFeatures:
    """An infinite cell, or two cells whose sum overflows, once sent CART
    into a RecursionError (the midpoint cut is infinite, so every row goes
    left), a NaN was boosted silently, and the booster stored infinite bin
    bounds; every tree fit now refuses them."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1.5e308,
                                     -2.0 ** 1023])
    @pytest.mark.parametrize("fit", [
        trees.fit_cart,
        lambda X, y: trees.fit_forest(X, y, trees.ForestConfig(n_estimators=2)),
        trees.fit_gbdt,
    ], ids=["cart", "forest", "gbdt"])
    def test_non_finite_cell_rejected(self, fit, bad):
        X = np.arange(12.0).reshape(6, 2)
        X[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            fit(X, np.array([0, 1, 0, 1, 0, 1]))

    def test_cells_just_below_the_limit_fit(self):
        top = np.nextafter(2.0 ** 1023, 0.0)
        X = np.array([[top], [0.75 * top], [top], [0.0]])  # a midpoint of 1.75 * 2**1022
        y = np.array([0, 1, 0, 1])
        assert not trees.fit_cart(X, y).root.is_leaf
        model = trees.fit_gbdt(X, y, trees.GbdtConfig(n_estimators=1, min_child_samples=1))
        assert np.isfinite(np.concatenate(model.bin_upper_bounds)).all()
        trees.gbdt_from_dict(json.loads(json.dumps(trees.gbdt_to_dict(model))))


class TestSerialization:
    def test_forest_round_trip(self, rng):
        X = rng.integers(0, 5, (40, 3)).astype(np.float64)
        y = rng.integers(0, 3, 40)
        y[:3] = [0, 1, 2]
        model = trees.fit_forest(
            X, y, trees.ForestConfig(n_estimators=8), seed=2
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
        config = trees.GbdtConfig(n_estimators=10, min_child_samples=5)
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


def _bin_bounds_loop(bounds) -> list[np.ndarray]:
    """The gbdt decoder's bound check as it was: one call per feature."""
    return [trees._ascending(f"bin_upper_bounds[{f}]", b) for f, b in enumerate(bounds)]


_ASCENDING = st.lists(st.floats(-1e6, 1e6), unique=True, max_size=5).map(sorted)
_BOUND_LISTS = st.lists(st.one_of(
    _ASCENDING, _ASCENDING,
    _ASCENDING.map(lambda b: b[::-1]),
    _ASCENDING.map(lambda b: b + b[-1:]),  # a repeated last bound
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.booleans(), st.none(),
                       st.just("1.5"), st.just([1.0])), max_size=4),
    st.just("12"), st.just(3.0), st.just([[1.0, 2.0]]), st.just({"a": 1}),
), max_size=6)


class TestGbdtBinBounds:
    """The one-array check over every feature's bounds accepts what the
    per-feature check accepts, with the same arrays, and otherwise
    raises its error."""

    @given(_BOUND_LISTS)
    @settings(max_examples=400, deadline=None)
    def test_same_arrays_or_error_as_one_check_per_feature(self, bounds):
        try:
            expected = _bin_bounds_loop(bounds)
        except Exception as exc:  # the refusal names the same feature
            with pytest.raises(type(exc)) as raised:
                trees._bin_bounds(bounds)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return
        got = trees._bin_bounds(bounds)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_bounds_may_fall_between_features(self):
        got = trees._bin_bounds([[1.0, 2.0], [], [0.5], [0.5, 9.0], []])
        assert [b.tolist() for b in got] == [[1.0, 2.0], [], [0.5], [0.5, 9.0], []]
