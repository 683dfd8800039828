"""Decision trees: CART, random forests, and histogram gradient boosting.

Split evaluation is shared by CART and the forest. For a node the gain
of a candidate split is computed exactly as

    gain = parent_impurity
           - (left_total * left_imp + right_total * right_imp)
             / (left_total + right_total)

with impurities over class-weight-scaled counts and totals, candidate
thresholds at midpoints of adjacent distinct sorted feature values, and
ties broken by (lower feature id, lower threshold). A node is not split
when the best gain is <= 0 or a child would fall under
min_samples_leaf (raw counts).

The booster bins features into at most max_bins quantile bins, grows
each tree leaf-wise by largest Newton gain

    G_L^2/(H_L + reg) + G_R^2/(H_R + reg) - G_P^2/(H_P + reg)

with reg = 1e-3, and assigns leaf values -G/(H + reg) scaled by the
learning rate. Binary targets train one tree per round on sigmoid
gradients from a logit(base rate) start; multiclass trains one tree per
class per round on softmax gradients.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .linear import class_weights, log_softmax, sigmoid
from .seeds import derive_seed

SCHEMA_VERSION = 1

GBDT_REG = 1e-3  # leaf-value and gain regularizer


@dataclass(frozen=True)
class TreeConfig:
    criterion: str = "gini"  # "gini" | "entropy"
    max_depth: int | None = None  # None or -1 means unbounded
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    class_weight: str | None = None
    n_estimators: int = 100
    max_features: int | str | None = "sqrt"  # forest: per-split feature draw
    bootstrap: bool = True
    learning_rate: float = 0.1  # boosting only
    num_leaves: int = 31  # boosting only
    min_child_samples: int = 20  # boosting only
    max_bins: int = 255  # boosting only

    def __post_init__(self):
        if self.criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion: {self.criterion!r}")
        if self.max_depth is not None and not isinstance(self.max_depth, (int, float)):
            raise ValueError(f"max_depth must be a number or None: {self.max_depth!r}")
        if self.min_samples_leaf < 1 or self.min_samples_split < 2:
            raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2 required")
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1: {self.n_estimators}")
        if self.num_leaves < 2:
            raise ValueError(f"num_leaves must be >= 2: {self.num_leaves}")
        if not (2 <= self.max_bins <= 255):
            raise ValueError(f"max_bins must be in [2, 255]: {self.max_bins}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive: {self.learning_rate}")

    @property
    def depth_limit(self) -> float:
        if self.max_depth is None or self.max_depth < 0:
            return math.inf
        return self.max_depth


@dataclass
class TreeNode:
    """One node; leaves carry a class distribution (classification) or a
    real value (boosting)."""

    n_samples: int
    impurity: float = 0.0
    counts: np.ndarray | None = None  # raw per-class counts, sums to n_samples
    label: int = 0
    value: float = 0.0  # boosting leaf payload
    feature: int | None = None
    threshold: float | None = None
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def impurity(class_counts, criterion: str, class_weight_vec=None) -> float:
    """Gini or entropy (natural log) over weighted class counts."""
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
    if criterion == "entropy":
        logs = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), 0.0)
        return float(-np.sum(probs * logs))
    raise ValueError(f"unknown criterion: {criterion!r}")


def _impurity_rows(weighted: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    probs = weighted / totals[:, None]
    if criterion == "gini":
        return 1.0 - np.sum(probs * probs, axis=1)
    logs = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    return -np.sum(probs * logs, axis=1)


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _scan_feature(x_col, y_col, n_classes, weights, criterion, min_leaf, parent_imp):
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
    left_imp = _impurity_rows(left_w, left_tot, criterion)
    right_imp = _impurity_rows(right_w, right_tot, criterion)
    gains = parent_imp - (left_tot * left_imp + right_tot * right_imp) / (
        left_tot + right_tot
    )
    gains[~valid] = -np.inf
    best = int(np.argmax(gains))  # first max = lowest threshold
    threshold = (xs[cut_positions[best]] + xs[cut_positions[best] + 1]) / 2.0
    return float(gains[best]), float(threshold)


def best_split(
    X, y, config: TreeConfig, *, class_weight_vec=None, feature_ids=None
) -> Split | None:
    """Best (feature, threshold) over the given node samples, or None.

    Returns None when no candidate improves impurity (gain <= 0) or all
    candidates violate min_samples_leaf.
    """
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
    parent_imp = impurity(counts, config.criterion, weights)
    if feature_ids is None:
        feature_ids = range(X.shape[1])
    best: Split | None = None
    for feat in feature_ids:
        scanned = _scan_feature(
            X[:, feat],
            y,
            weights.size,
            weights,
            config.criterion,
            config.min_samples_leaf,
            parent_imp,
        )
        if scanned is None:
            continue
        gain, threshold = scanned
        if best is None or gain > best.gain:  # ties keep the lower feature id
            best = Split(int(feat), threshold, gain)
    if best is None or best.gain <= 0.0:
        return None
    return best


def _grow(X, y, idx, config, weights, n_classes, depth, rng, n_candidates):
    counts = np.bincount(y[idx], minlength=n_classes)
    node = TreeNode(
        n_samples=int(idx.size),
        impurity=impurity(counts, config.criterion, weights),
        counts=counts,
        label=int(np.argmax(counts * weights)),
    )
    if (
        depth >= config.depth_limit
        or idx.size < config.min_samples_split
        or np.count_nonzero(counts) <= 1
    ):
        return node
    n_features = X.shape[1]
    if rng is not None and n_candidates < n_features:
        feature_ids = np.sort(rng.choice(n_features, n_candidates, replace=False))
    else:
        feature_ids = np.arange(n_features)
    split = best_split(
        X[idx], y[idx], config, class_weight_vec=weights, feature_ids=feature_ids
    )
    if split is None:
        return node
    node.feature = split.feature
    node.threshold = split.threshold
    node.gain = split.gain
    goes_left = X[idx, split.feature] <= split.threshold
    node.left = _grow(X, y, idx[goes_left], config, weights, n_classes, depth + 1, rng, n_candidates)
    node.right = _grow(X, y, idx[~goes_left], config, weights, n_classes, depth + 1, rng, n_candidates)
    return node


def fit_cart(X, y, config: TreeConfig = TreeConfig()) -> TreeNode:
    """Grow a single deterministic CART tree over all features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise DataError("cannot fit a tree on an empty dataset")
    n_classes = int(y.max()) + 1
    weights = class_weights(y, config.class_weight, n_classes)
    return _grow(
        X, y, np.arange(y.size), config, weights, n_classes, 0, None, X.shape[1]
    )


def _leaves(root: TreeNode, X):
    """Route rows of a 2-D X down the tree (x[f] <= threshold goes left);
    yields each leaf that rows reach with the indices of those rows."""
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            yield node, idx
            continue
        goes_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[goes_left]))
        stack.append((node.right, idx[~goes_left]))


def predict_tree(root: TreeNode, X) -> np.ndarray:
    """Leaf labels of the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.zeros(X.shape[0], dtype=np.int64)
    for leaf, idx in _leaves(root, X):
        out[idx] = leaf.label
    return out


def tree_class_scores(root: TreeNode, X, n_classes: int, weight_per_class=None) -> np.ndarray:
    """Per-class leaf distributions (weighted counts, rows summing to 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if weight_per_class is None:
        weight_per_class = np.ones(n_classes)
    out = np.zeros((X.shape[0], n_classes))
    for leaf, idx in _leaves(root, X):
        weighted = leaf.counts * weight_per_class[: leaf.counts.size]
        out[idx, : leaf.counts.size] = weighted / weighted.sum()
    return out


def _tree_values(root: TreeNode, X) -> np.ndarray:
    out = np.zeros(X.shape[0])
    for leaf, idx in _leaves(root, X):
        out[idx] = leaf.value
    return out


@dataclass
class CartModel:
    """A single tree plus the class weights its leaf distributions use."""

    root: TreeNode
    config: TreeConfig
    n_classes: int
    weight_per_class: np.ndarray


@dataclass
class ForestModel:
    roots: list[TreeNode]
    config: TreeConfig
    n_classes: int
    n_features: int
    weight_per_class: np.ndarray
    tree_seeds: tuple[int, ...]


def _resolve_max_features(setting, n_features: int) -> int:
    if setting is None or setting == "sqrt":
        return min(n_features, math.ceil(math.sqrt(n_features)))
    if not isinstance(setting, (int, float)):
        raise ValueError(f"unknown max_features policy: {setting!r}")
    return max(1, min(int(setting), n_features))


def fit_forest(X, y, config: TreeConfig = TreeConfig(), seed: int = 0) -> ForestModel:
    """Bagged trees: per-tree bootstrap of n rows (seeded from the run
    seed by tree index) and ceil(sqrt(D)) candidate features per split."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise DataError("cannot fit a forest on an empty dataset")
    n_classes = int(y.max()) + 1
    weights = class_weights(y, config.class_weight, n_classes)
    n_candidates = _resolve_max_features(config.max_features, X.shape[1])
    roots = []
    tree_seeds = tuple(derive_seed(seed, t) for t in range(config.n_estimators))
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(tree_seed)
        if config.bootstrap:
            idx = np.sort(rng.integers(0, y.size, y.size))
        else:
            idx = np.arange(y.size)
        sampler = rng if n_candidates < X.shape[1] else None
        roots.append(
            _grow(X, y, idx, config, weights, n_classes, 0, sampler, n_candidates)
        )
    return ForestModel(roots, config, n_classes, X.shape[1], weights, tree_seeds)


def forest_votes(model: ForestModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    votes = np.zeros((X.shape[0], model.n_classes))
    rows = np.arange(X.shape[0])
    for root in model.roots:
        votes[rows, predict_tree(root, X)] += 1.0
    return votes


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Majority vote across trees; ties go to the lowest class id."""
    return np.argmax(forest_votes(model, X), axis=1)


def forest_scores(model: ForestModel, X) -> np.ndarray:
    """Per-class vote fractions, rows summing to 1."""
    return forest_votes(model, X) / len(model.roots)


def feature_importance(model: ForestModel) -> np.ndarray:
    """Mean over trees of each split's gain weighted by the fraction of
    (class-weighted) samples reaching the node; normalized to sum to 1
    when any split exists."""
    total = np.zeros(model.n_features)
    for root in model.roots:
        root_mass = float((root.counts * model.weight_per_class).sum())
        if root_mass <= 0:
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            node_mass = float((node.counts * model.weight_per_class).sum())
            total[node.feature] += (node_mass / root_mass) * node.gain
            stack.append(node.left)
            stack.append(node.right)
    total /= len(model.roots)
    mass = total.sum()
    return total / mass if mass > 0 else total


# ---------------------------------------------------------------------------
# Histogram gradient boosting


def _bin_features(X, max_bins: int):
    """Quantile bins per feature. Returns (binned int32 matrix, list of
    per-feature bin upper bounds). bin(x) <= t exactly when
    x <= upper_bounds[t], so raw-threshold routing reproduces binned
    splits."""
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
class _LeafState:
    node: TreeNode
    idx: np.ndarray
    depth: int
    grad_sum: float
    hess_sum: float
    best: tuple[float, int, int] | None = None  # (gain, feature, bin)


def _leaf_best_split(binned, idx, grad, hess, grad_sum, hess_sum, n_bins, config):
    """Best Newton split for one leaf via gradient/hessian histograms."""
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
    parent_term = grad_sum * grad_sum / (hess_sum + GBDT_REG)
    gains = (
        grad_left * grad_left / (hess_left + GBDT_REG)
        + grad_right * grad_right / (hess_right + GBDT_REG)
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


def _grow_tree_leafwise(binned, upper_bounds, grad, hess, config, apply_to):
    """Grow one regression tree leaf-wise by largest gain; write the
    learning-rate-scaled leaf values into apply_to (the score vector)."""
    n_bins = np.array([b.size + 1 for b in upper_bounds], dtype=np.int64)
    heap: list[tuple[float, int, int]] = []
    leaves: dict[int, _LeafState] = {}
    ticket = 0

    def make_leaf(idx: np.ndarray, depth: int) -> TreeNode:
        nonlocal ticket
        node = TreeNode(n_samples=int(idx.size))
        state = _LeafState(
            node, idx, depth, float(grad[idx].sum()), float(hess[idx].sum())
        )
        if depth < config.depth_limit:
            found = _leaf_best_split(
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
        value = -config.learning_rate * state.grad_sum / (state.hess_sum + GBDT_REG)
        state.node.value = value
        apply_to[state.idx] += value
    return root


@dataclass
class GbdtModel:
    base_score: np.ndarray  # (1,) binary logit or (K,) log priors
    rounds: list[list[TreeNode]]  # one tree per round (binary) or per class
    n_classes: int
    config: TreeConfig
    bin_upper_bounds: list[np.ndarray]
    train_loss: list[float] = field(default_factory=list, repr=False)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def fit_gbdt(X, y, config: TreeConfig = TreeConfig(), seed: int = 0) -> GbdtModel:
    """Boosted histogram trees on sigmoid/softmax gradients.

    Deterministic given the data (no row or feature sampling); the seed
    parameter exists for interface symmetry. train_loss[r] records the
    weighted mean log-loss after r rounds, starting at the base score.
    """
    del seed
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise DataError("cannot fit a booster on an empty dataset")
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise DataError("boosting needs at least two classes")
    weights = class_weights(y, config.class_weight, n_classes)
    sample_w = weights[y]
    binned, upper_bounds = _bin_features(X, config.max_bins)
    n = y.size
    rounds: list[list[TreeNode]] = []
    losses: list[float] = []
    if n_classes == 2:
        target = (y == 1).astype(np.float64)
        rate = float(sample_w @ target) / float(sample_w.sum())
        rate = min(max(rate, 1e-12), 1.0 - 1e-12)
        base = math.log(rate / (1.0 - rate))
        scores = np.full(n, base)
        def loss() -> float:
            point = np.logaddexp(0.0, scores) - target * scores
            return float(sample_w @ point) / n
        losses.append(loss())
        for _ in range(config.n_estimators):
            prob = sigmoid(scores)
            grad = sample_w * (prob - target)
            hess = sample_w * prob * (1.0 - prob)
            root = _grow_tree_leafwise(binned, upper_bounds, grad, hess, config, scores)
            rounds.append([root])
            losses.append(loss())
        base_score = np.array([base])
    else:
        counts = np.array(
            [float(sample_w[y == k].sum()) for k in range(n_classes)]
        )
        priors = np.clip(counts / counts.sum(), 1e-12, None)
        base_score = np.log(priors)
        scores = np.tile(base_score, (n, 1))
        rows = np.arange(n)
        def loss() -> float:
            return float(-(sample_w @ log_softmax(scores)[rows, y])) / n
        losses.append(loss())
        one_hot = np.zeros((n, n_classes))
        one_hot[rows, y] = 1.0
        for _ in range(config.n_estimators):
            prob = _softmax(scores)
            round_trees = []
            grads = sample_w[:, None] * (prob - one_hot)
            hesses = sample_w[:, None] * prob * (1.0 - prob)
            for k in range(n_classes):
                root = _grow_tree_leafwise(
                    binned, upper_bounds, grads[:, k], hesses[:, k], config, scores[:, k]
                )
                round_trees.append(root)
            rounds.append(round_trees)
            losses.append(loss())
    return GbdtModel(base_score, rounds, n_classes, config, upper_bounds, losses)


def predict_gbdt_proba(model: GbdtModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.n_classes == 2:
        margin = np.full(X.shape[0], model.base_score[0])
        for (root,) in model.rounds:
            margin += _tree_values(root, X)
        pos = sigmoid(margin)
        return np.column_stack([1.0 - pos, pos])
    scores = np.tile(model.base_score, (X.shape[0], 1))
    for round_trees in model.rounds:
        for k, root in enumerate(round_trees):
            scores[:, k] += _tree_values(root, X)
    return _softmax(scores)


def predict_gbdt(model: GbdtModel, X) -> np.ndarray:
    return np.argmax(predict_gbdt_proba(model, X), axis=1)


# ---------------------------------------------------------------------------
# Serialization


def node_to_dict(node: TreeNode) -> dict:
    data: dict = {
        "n_samples": node.n_samples,
        "impurity": node.impurity,
        "label": node.label,
        "value": node.value,
        "gain": node.gain,
    }
    if node.counts is not None:
        data["counts"] = [int(c) for c in node.counts]
    if not node.is_leaf:
        data["feature"] = node.feature
        data["threshold"] = node.threshold
        data["left"] = node_to_dict(node.left)
        data["right"] = node_to_dict(node.right)
    return data


def node_from_dict(data: dict) -> TreeNode:
    node = TreeNode(
        n_samples=int(data["n_samples"]),
        impurity=float(data["impurity"]),
        label=int(data["label"]),
        value=float(data["value"]),
        gain=float(data["gain"]),
    )
    if "counts" in data:
        node.counts = np.array(data["counts"], dtype=np.int64)
    if "feature" in data:
        node.feature = int(data["feature"])
        node.threshold = float(data["threshold"])
        node.left = node_from_dict(data["left"])
        node.right = node_from_dict(data["right"])
    return node


def config_to_dict(config: TreeConfig) -> dict:
    return {
        "criterion": config.criterion,
        "max_depth": config.max_depth,
        "min_samples_split": config.min_samples_split,
        "min_samples_leaf": config.min_samples_leaf,
        "class_weight": config.class_weight,
        "n_estimators": config.n_estimators,
        "max_features": config.max_features,
        "bootstrap": config.bootstrap,
        "learning_rate": config.learning_rate,
        "num_leaves": config.num_leaves,
        "min_child_samples": config.min_child_samples,
        "max_bins": config.max_bins,
    }


def config_from_dict(data: dict) -> TreeConfig:
    return TreeConfig(**data)


def cart_to_dict(model: CartModel) -> dict:
    return {
        "root": node_to_dict(model.root),
        "config": config_to_dict(model.config),
        "n_classes": model.n_classes,
        "weight_per_class": [float(w) for w in model.weight_per_class],
    }


def cart_from_dict(data: dict) -> CartModel:
    return CartModel(
        root=node_from_dict(data["root"]),
        config=config_from_dict(data["config"]),
        n_classes=int(data["n_classes"]),
        weight_per_class=np.asarray(data["weight_per_class"], dtype=np.float64),
    )


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "forest",
        "config": config_to_dict(model.config),
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "weight_per_class": model.weight_per_class.tolist(),
        "tree_seeds": list(model.tree_seeds),
        "trees": [node_to_dict(root) for root in model.roots],
    }


def forest_from_dict(data: dict) -> ForestModel:
    if data.get("schema_version") != SCHEMA_VERSION or data.get("kind") != "forest":
        raise DataError("unsupported forest model payload")
    return ForestModel(
        roots=[node_from_dict(t) for t in data["trees"]],
        config=config_from_dict(data["config"]),
        n_classes=int(data["n_classes"]),
        n_features=int(data["n_features"]),
        weight_per_class=np.array(data["weight_per_class"], dtype=np.float64),
        tree_seeds=tuple(data["tree_seeds"]),
    )


def gbdt_to_dict(model: GbdtModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gbdt",
        "config": config_to_dict(model.config),
        "n_classes": model.n_classes,
        "base_score": model.base_score.tolist(),
        "bin_upper_bounds": [b.tolist() for b in model.bin_upper_bounds],
        "rounds": [[node_to_dict(t) for t in rnd] for rnd in model.rounds],
        "train_loss": [float(v) for v in model.train_loss],
    }


def gbdt_from_dict(data: dict) -> GbdtModel:
    if data.get("schema_version") != SCHEMA_VERSION or data.get("kind") != "gbdt":
        raise DataError("unsupported boosted model payload")
    return GbdtModel(
        base_score=np.array(data["base_score"], dtype=np.float64),
        rounds=[[node_from_dict(t) for t in rnd] for rnd in data["rounds"]],
        n_classes=int(data["n_classes"]),
        config=config_from_dict(data["config"]),
        bin_upper_bounds=[np.array(b, dtype=np.float64) for b in data["bin_upper_bounds"]],
        train_loss=[float(v) for v in data.get("train_loss", [])],
    )
