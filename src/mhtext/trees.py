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

The search reads a presorted index of X's nonzero cells (SortedNonzeros:
SLIQ's attribute lists, Mehta, Agrawal and Rissanen 1996, kept to the
nonzeros), built once per fit. A node keeps the entries of its rows in
index order, each weighted by how often the row occurs in the node (a
bootstrap repeats rows). A feature's zero block is one entry in its
sorted place, after the negatives and before the positives, holding the
node counts less the feature's nonzero counts; its cuts sit at
(v + 0.0)/2.0. Class counts are whole numbers in float64, so every
count, and with it every gain, is bit-identical to sorting all of the
node's values. Candidates are scanned in blocks of whole features of
about _BLOCK_ENTRIES entries, which bounds the scan's memory. A block's
first argmax replaces the best so far only when its gain is strictly
greater, which keeps the tie rule.

The booster bins each feature into at most max_bins bins. A feature
of at most max_bins distinct values cuts midway between adjacent ones;
a feature of more cuts at its distinct quantiles at levels
1/max_bins, ..., (max_bins - 1)/max_bins. One sort of a block of
_BIN_BLOCK of X's columns gives each feature's distinct values, and one
np.quantile call over the block's unsorted many-valued columns gives
each column's quantiles bit for bit. Bins depend only on X and max_bins
and a fit only reads them, so fits over one X can share them: the
trials of a search pass the binnings their prepared dataset keeps, and
bin its train rows once per max_bins (LightGBM's histogram design, Ke
et al. 2017, with the binning built once). Each block's codes are one
C-ordered int64 array, a cell's bin plus its feature's place in the
block * width (width is the most bins a feature has), so one bincount
over a leaf's rows of a block gives that block's gradient, hessian and
count histograms; a bin belongs to one feature, so it adds the leaf's
rows in the same order whatever the block size. The weights a bincount
reads, each row's gradient once per feature of a block, are built once
per leaf for every full block. Gains are computed at each feature's own
cuts only, and a split routes rows by their codes. The root holds every
row: its histograms read each block as it is, and its counts, the same
in every tree, come with the bins. A leaf keeps its rows at or below
each cut while it may split; of two searched children the second takes
the parent's counts less the first's, which is exact for whole numbers,
while gradients and hessians are summed afresh. Each tree grows
leaf-wise by largest Newton gain

    G_L^2/(H_L + reg) + G_R^2/(H_R + reg) - G_P^2/(H_P + reg)

with reg = 1e-3. A leaf's histograms are built only when it can still be
split: the split that makes the num_leaves-th leaf ends the tree, so its
two children are not searched. Leaf values are -G/(H + reg) scaled by
the learning rate. Binary targets train one tree per round on sigmoid
gradients from a logit(base rate) start; multiclass trains one tree per
class per round on softmax gradients. A tree fit refuses an X with a NaN
or infinite cell, or one of magnitude 2**1023 or more, whose midpoint
with another cell could overflow.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (DataError, check, check_fields, check_header, finite, one_of, real, stored,
                     whole)
from .linear import class_weights, log_softmax, sigmoid, weight_mode
from .seeds import derive_seed

SCHEMA_VERSION = 2  # 2: each config block holds only its config's fields

GBDT_REG = 1e-3  # leaf-value and gain regularizer


# rules shared by the tree configs
_MAX_DEPTH = one_of(None, otherwise=whole())  # None or negative means unbounded
_N_ESTIMATORS = whole(at_least=1)


class _DepthLimited:
    """What a config's max_depth means to the tree growers."""

    @property
    def depth_limit(self) -> float:
        if self.max_depth is None or self.max_depth < 0:
            return math.inf
        return self.max_depth


@dataclass(frozen=True)
class TreeConfig(_DepthLimited):
    """A CART tree's hyperparameters; a forest grows its trees by them."""

    criterion: str = "gini"  # "gini" | "entropy"
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    class_weight: str | None = None

    def __post_init__(self):
        check_fields(
            self,
            criterion=one_of("gini", "entropy"),
            max_depth=_MAX_DEPTH,
            min_samples_split=whole(at_least=2),
            min_samples_leaf=whole(at_least=1),
            class_weight=weight_mode,
        )


@dataclass(frozen=True)
class ForestConfig(TreeConfig):
    n_estimators: int = 100
    max_features: int | str | None = "sqrt"  # per-split feature draw
    bootstrap: bool = True

    def __post_init__(self):
        super().__post_init__()
        check_fields(
            self,
            n_estimators=_N_ESTIMATORS,
            # more than the feature count means all features
            max_features=one_of(None, "sqrt", otherwise=whole(at_least=1)),
            bootstrap=one_of(True, False),
        )


@dataclass(frozen=True)
class GbdtConfig(_DepthLimited):
    n_estimators: int = 100
    learning_rate: float = 0.1
    num_leaves: int = 31
    min_child_samples: int = 20
    max_bins: int = 255
    max_depth: int | None = None
    class_weight: str | None = None

    def __post_init__(self):
        check_fields(
            self,
            n_estimators=_N_ESTIMATORS,
            learning_rate=real(above=0.0),
            num_leaves=whole(at_least=2),
            min_child_samples=whole(),
            max_bins=whole(at_least=2, at_most=255),
            max_depth=_MAX_DEPTH,
            class_weight=weight_mode,
        )


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
    total = counts.sum(keepdims=True)
    if total[0] <= 0:
        return 0.0
    return float(_impurity_rows(counts[None, :], total, criterion)[0])


def _impurity_rows(weighted: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Gini or entropy of each row of weighted class counts with a positive total."""
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


_BLOCK_ENTRIES = 1 << 14  # node entries scanned at once, in blocks of whole features


class SortedNonzeros:
    """The nonzero cells of X as (feature, row, value) entries ordered by
    (feature, value): SLIQ's presorted attribute lists, kept to the
    nonzeros. A fit builds one and every node of every tree reads it."""

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.n_rows, self.n_features = X.shape
        cells = np.flatnonzero(X)
        rows, features = np.divmod(cells, self.n_features)
        values = X.ravel()[cells]
        # by value, then stably by feature; the order of equal values is free,
        # as a scan cuts only between distinct ones
        order = np.argsort(values)
        order = order[np.argsort(features[order], kind="stable")]
        self.feature = features[order]
        self.row = rows[order]
        self.value = values[order]
        # the entries of feature f are [starts[f], starts[f + 1])
        self.starts = np.searchsorted(self.feature, np.arange(self.n_features + 1))

    def positions(self, feature_ids: np.ndarray) -> np.ndarray:
        """The positions of the entries of the given ascending features."""
        lo = self.starts[feature_ids]
        sizes = self.starts[feature_ids + 1] - lo
        return np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _scan_block(feature, value, label, mult, counts, weights, criterion, min_leaf, parent_imp):
    """The best candidate among a block of whole features' node entries,
    as a Split, or None when none is admissible.

    A feature's zero block becomes one entry in its sorted place, holding
    the node counts less the feature's nonzero counts, so each feature's
    entries hold every node sample once."""
    n_node = int(counts.sum())
    starts = np.flatnonzero(np.diff(feature, prepend=-1))
    hot = np.zeros((feature.size, weights.size))
    hot[np.arange(feature.size), label] = mult
    zero_n = n_node - np.add.reduceat(mult, starts)
    has_zero = zero_n > 0
    at = (starts + np.add.reduceat((value < 0).astype(np.int64), starts))[has_zero]
    hot = np.insert(hot, at, (counts - np.add.reduceat(hot, starts, axis=0))[has_zero], axis=0)
    mult = np.insert(mult, at, zero_n[has_zero])
    value = np.insert(value, at, 0.0)
    feature = np.insert(feature, at, feature[starts][has_zero])
    cut = np.flatnonzero((feature[:-1] == feature[1:]) & (value[:-1] < value[1:]))
    if cut.size == 0:
        return None
    # each feature's entries sum to the node counts, so a running sum less
    # (features before the cut's) * counts is the cut's left side; all are
    # whole numbers in float64, so this is exact
    features_before = np.cumsum(np.diff(feature, prepend=feature[0]) != 0)[cut]
    left_counts = np.cumsum(hot, axis=0)[cut] - features_before[:, None] * counts
    left_n = np.cumsum(mult)[cut] - features_before * n_node
    right_counts = counts - left_counts
    right_n = n_node - left_n
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
    best = int(np.argmax(gains))  # first max = lowest feature, then threshold
    at = cut[best]
    return Split(int(feature[at]), float((value[at] + value[at + 1]) / 2.0), float(gains[best]))


def best_split(
    X, y, config: TreeConfig, *, class_weight_vec=None, feature_ids=None, rows=None
) -> Split | None:
    """Best (feature, threshold) over the node's samples, or None.

    X is a matrix or its SortedNonzeros and y labels its rows; `rows`
    (default all) are the node's rows, a repeated row counting once per
    repeat, and `feature_ids` (default all) the candidate features.
    Returns None when no candidate improves impurity (gain <= 0) or all
    candidates violate min_samples_leaf.
    """
    index = X if isinstance(X, SortedNonzeros) else SortedNonzeros(X)
    y = np.asarray(y, dtype=np.int64)
    rows = np.arange(index.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    node_y = y[rows]
    n_classes = int(node_y.max()) + 1 if node_y.size else 0
    weights = (
        np.ones(n_classes)
        if class_weight_vec is None
        else np.asarray(class_weight_vec, dtype=np.float64)
    )
    if weights.size < n_classes:
        raise ValueError("class weight vector shorter than the class count")
    counts = np.bincount(node_y, minlength=weights.size).astype(np.float64)
    parent_imp = impurity(counts, config.criterion, weights)
    mult = np.bincount(rows, minlength=index.n_rows)
    entries = slice(None) if feature_ids is None else index.positions(np.unique(feature_ids))
    row = index.row[entries]
    in_node = mult[row] > 0  # the node's entries, in index order
    row = row[in_node]
    feature, value = index.feature[entries][in_node], index.value[entries][in_node]
    label, mult = y[row], mult[row]
    best: Split | None = None
    lo = 0
    while lo < row.size:
        # a block ends where the feature of its _BLOCK_ENTRIES-th entry does
        last = feature[min(lo + _BLOCK_ENTRIES, row.size) - 1]
        hi = int(np.searchsorted(feature, last, side="right"))
        found = _scan_block(
            feature[lo:hi], value[lo:hi], label[lo:hi], mult[lo:hi], counts,
            weights, config.criterion, config.min_samples_leaf, parent_imp,
        )
        if found is not None and (best is None or found.gain > best.gain):
            best = found  # ties keep the earlier block's lower feature id
        lo = hi
    if best is None or best.gain <= 0.0:
        return None
    return best


def _grow(X, index, y, idx, config, weights, n_classes, depth, rng, n_candidates):
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
    feature_ids = None
    if rng is not None and n_candidates < X.shape[1]:
        feature_ids = np.sort(rng.choice(X.shape[1], n_candidates, replace=False))
    split = best_split(
        index, y, config, class_weight_vec=weights, feature_ids=feature_ids, rows=idx
    )
    if split is None:
        return node
    node.feature = split.feature
    node.threshold = split.threshold
    node.gain = split.gain
    goes_left = X[idx, split.feature] <= split.threshold
    node.left = _grow(X, index, y, idx[goes_left], config, weights, n_classes,
                      depth + 1, rng, n_candidates)
    node.right = _grow(X, index, y, idx[~goes_left], config, weights, n_classes,
                       depth + 1, rng, n_candidates)
    return node


_CELL_LIMIT = 2.0 ** 1023  # below it in magnitude, two cells' sum cannot overflow


def _fit_inputs(X, y, what: str):
    """X as float64 and y as int64 for a tree fit, refused when empty or
    when a cell is NaN, infinite or at least _CELL_LIMIT in magnitude: a
    cut midway to such a cell is infinite and sends every row one way."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise DataError(f"cannot fit a {what} on an empty dataset")
    # a NaN cell makes min and max NaN, which fails the range test
    if X.size and not -_CELL_LIMIT < X.min() <= X.max() < _CELL_LIMIT:
        raise DataError(f"cannot fit a {what} on non-finite features or on a cell of "
                        f"magnitude 2**1023 or more")
    return X, y


@dataclass
class CartModel:
    """A single tree plus the class weights its leaf distributions use."""

    root: TreeNode
    config: TreeConfig
    n_classes: int
    weight_per_class: np.ndarray


def fit_cart(X, y, config: TreeConfig = TreeConfig()) -> CartModel:
    """Grow a single deterministic CART tree over all features."""
    X, y = _fit_inputs(X, y, "tree")
    n_classes = int(y.max()) + 1
    weights = class_weights(y, config.class_weight, n_classes)
    root = _grow(X, SortedNonzeros(X), y, np.arange(y.size), config, weights, n_classes,
                 0, None, X.shape[1])
    return CartModel(root, config, n_classes, weights)


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
class ForestModel:
    roots: list[TreeNode]
    config: ForestConfig
    n_classes: int
    n_features: int
    weight_per_class: np.ndarray
    tree_seeds: tuple[int, ...]


def _resolve_max_features(setting, n_features: int) -> int:
    if setting is None or setting == "sqrt":
        return min(n_features, math.ceil(math.sqrt(n_features)))
    return max(1, min(setting, n_features))


def fit_forest(X, y, config: ForestConfig = ForestConfig(), seed: int = 0) -> ForestModel:
    """Bagged trees: per-tree bootstrap of n rows (seeded from the run
    seed by tree index) and ceil(sqrt(D)) candidate features per split."""
    X, y = _fit_inputs(X, y, "forest")
    n_classes = int(y.max()) + 1
    weights = class_weights(y, config.class_weight, n_classes)
    n_candidates = _resolve_max_features(config.max_features, X.shape[1])
    index = SortedNonzeros(X)
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
            _grow(X, index, y, idx, config, weights, n_classes, 0, sampler, n_candidates)
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


# ---------------------------------------------------------------------------
# Histogram gradient boosting


_BIN_BLOCK = 64  # features binned at once, and the features of one histogram


@dataclass
class _Bins:
    """X's quantile bins at one max_bins, read by every tree of a fit and
    by every fit given the same binnings (see fit_gbdt)."""

    # per block of _BIN_BLOCK features, a C-ordered (rows, block features)
    # int64 array: a cell's bin plus its feature's place in the block * width
    blocks: list[np.ndarray]
    upper_bounds: list[np.ndarray]  # per feature, ascending
    n_rows: int
    block: int  # features per block: _BIN_BLOCK when binned
    width: int  # the most bins a feature has: one histogram row
    cuts: np.ndarray  # f * width + t for each feature f's cuts t, ascending
    cut_starts: np.ndarray  # block k's cuts are cuts[cut_starts[k]:cut_starts[k + 1]]
    root_count_left: np.ndarray  # rows at or below each cut, over every row

    def block_cuts(self, k: int) -> tuple[int, int, np.ndarray]:
        """Where block k's cuts start and stop in `cuts`, and their places
        in the block's histogram."""
        start, stop = int(self.cut_starts[k]), int(self.cut_starts[k + 1])
        return start, stop, self.cuts[start:stop] - k * self.block * self.width

    def goes_left(self, rows: np.ndarray, feature: int, cut: int) -> np.ndarray:
        """Which of `rows` have a bin of `feature` at most `cut`."""
        k, at = divmod(feature, self.block)
        return self.blocks[k][rows, at] <= cut + at * self.width


def _left_sums(hist: np.ndarray, width: int, at: np.ndarray) -> np.ndarray:
    """A block's histogram, a row of `width` bins per feature, summed over
    bins 0..t of each cut t at its places `at`."""
    return np.cumsum(hist.reshape(-1, width), axis=1).ravel()[at]


def _bin_features(X, max_bins: int) -> _Bins:
    """Quantile bins per feature, from one sort per block of X's columns;
    X's cells must pass _fit_inputs. bin(x) <= t exactly when
    x <= upper_bounds[t], so raw-threshold routing reproduces binned
    splits."""
    levels = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    upper_bounds: list[np.ndarray] = []
    blocks: list[np.ndarray] = []
    for lo in range(0, X.shape[1], _BIN_BLOCK):
        block = np.ascontiguousarray(X[:, lo:lo + _BIN_BLOCK].T)  # a row per feature
        ordered = np.sort(block, axis=1)
        new_run = ordered[:, 1:] != ordered[:, :-1]  # where a next distinct value starts
        n_distinct = 1 + new_run.sum(axis=1)
        # a feature of at most max_bins values cuts midway between adjacent ones
        row, at = np.nonzero(new_run)
        mids = (ordered[row, at] + ordered[row, at + 1]) / 2.0
        bounds = np.split(mids, np.cumsum(n_distinct - 1)[:-1])
        # one of more cuts at its distinct quantiles, taken of the unsorted
        # rows as of each column alone (a sorted row can order -0.0 and 0.0
        # otherwise), then deduplicated as np.unique does: sort, and keep
        # the first of each run of equals
        many = np.flatnonzero(n_distinct > max_bins)
        quantiles = np.sort(np.quantile(block[many], levels, axis=1).T, axis=1)
        first = np.ones(quantiles.shape, dtype=bool)
        first[:, 1:] = quantiles[:, 1:] != quantiles[:, :-1]
        for i, kept in zip(many, np.split(quantiles[first], np.cumsum(first.sum(axis=1))[:-1])):
            bounds[i] = kept
        codes = np.empty((X.shape[0], len(block)), dtype=np.int64)
        for i, values in enumerate(block):
            codes[:, i] = np.searchsorted(bounds[i], values, side="left")
        blocks.append(codes)
        upper_bounds += bounds
    n_cuts = np.array([b.size for b in upper_bounds], dtype=np.int64)
    width = int(n_cuts.max(initial=0)) + 1
    cuts = np.flatnonzero(np.arange(width) < n_cuts[:, None])
    cut_starts = np.searchsorted(cuts, np.arange(len(blocks) + 1) * _BIN_BLOCK * width)
    bins = _Bins(blocks, upper_bounds, X.shape[0], _BIN_BLOCK, width, cuts, cut_starts,
                 np.empty(cuts.size, dtype=np.int64))
    # the root's count histogram is the same in every tree: count it here
    for k, codes in enumerate(blocks):
        codes += np.arange(codes.shape[1], dtype=np.int64) * width
        start, stop, at = bins.block_cuts(k)
        hist = np.bincount(codes.ravel(), minlength=codes.shape[1] * width)
        bins.root_count_left[start:stop] = _left_sums(hist, width, at)
    return bins


@dataclass
class _LeafState:
    node: TreeNode
    idx: np.ndarray
    depth: int
    grad_sum: float
    hess_sum: float
    best: tuple[float, int, int] | None = None  # (gain, feature, bin)
    count_left: np.ndarray | None = None  # rows at or below each cut, kept for its children


def _leaf_best_split(bins: _Bins, idx, grad, hess, grad_sum, hess_sum, config,
                     count_left=None):
    """Best Newton split for one leaf via gradient/hessian histograms, as
    ((gain, feature, bin) or None, the leaf's rows at or below each cut);
    (None, None) for a leaf too small to split.

    The histograms are built over one block of features at a time.
    `count_left`, when the caller has it (a parent's less a sibling's),
    is not counted again; the root's comes with the bins."""
    width = bins.width
    if width < 2 or idx.size < 2 * config.min_child_samples:
        return None, None
    root = idx.size == bins.n_rows  # a leaf of every row holds them in order
    if root and count_left is None:
        count_left = bins.root_count_left
    counting = count_left is None
    if counting:
        count_left = np.empty(bins.cuts.size, dtype=np.int64)
    grad_left = np.empty(bins.cuts.size)
    hess_left = np.empty(bins.cuts.size)
    leaf_grad, leaf_hess = (grad, hess) if root else (grad[idx], hess[idx])
    weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # by features per block
    for k, codes in enumerate(bins.blocks):
        start, stop, at = bins.block_cuts(k)
        if start == stop:
            continue  # no feature of the block has a cut
        n_block = codes.shape[1]
        if n_block not in weights:  # a row's weight once per feature, as its codes lie
            weights[n_block] = np.repeat(leaf_grad, n_block), np.repeat(leaf_hess, n_block)
        grad_w, hess_w = weights[n_block]
        flat = (codes if root else codes[idx]).ravel()
        size = n_block * width
        # a bin belongs to one feature, so it adds its rows in leaf order
        grad_left[start:stop] = _left_sums(np.bincount(flat, grad_w, minlength=size), width, at)
        hess_left[start:stop] = _left_sums(np.bincount(flat, hess_w, minlength=size), width, at)
        if counting:
            count_left[start:stop] = _left_sums(np.bincount(flat, minlength=size), width, at)
    grad_right = grad_sum - grad_left
    hess_right = hess_sum - hess_left
    count_right = idx.size - count_left
    parent_term = grad_sum * grad_sum / (hess_sum + GBDT_REG)
    gains = (
        grad_left * grad_left / (hess_left + GBDT_REG)
        + grad_right * grad_right / (hess_right + GBDT_REG)
        - parent_term
    )
    valid = (count_left >= config.min_child_samples) & (count_right >= config.min_child_samples)
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))  # the cuts ascend: lowest feature, then bin
    gain = float(gains[best])
    if not np.isfinite(gain) or gain <= 0.0:
        return None, count_left
    feat, cut = divmod(int(bins.cuts[best]), width)
    return (gain, int(feat), int(cut)), count_left


def _grow_tree_leafwise(bins: _Bins, grad, hess, config, apply_to):
    """Grow one regression tree leaf-wise by largest gain; write the
    learning-rate-scaled leaf values into apply_to (the score vector)."""
    heap: list[tuple[float, int, int]] = []
    leaves: dict[int, _LeafState] = {}
    ticket = 0

    def make_leaf(idx: np.ndarray, depth: int, can_split: bool, count_left=None) -> _LeafState:
        nonlocal ticket
        state = _LeafState(
            TreeNode(n_samples=int(idx.size)), idx, depth, float(grad[idx].sum()),
            float(hess[idx].sum()),
        )
        if can_split and depth < config.depth_limit:
            state.best, state.count_left = _leaf_best_split(
                bins, idx, grad, hess, state.grad_sum, state.hess_sum, config, count_left
            )
            if state.best is not None:
                heapq.heappush(heap, (-state.best[0], ticket, ticket))
        leaves[ticket] = state
        ticket += 1
        return state

    root = make_leaf(np.arange(bins.n_rows), 0, True).node
    n_leaves = 1
    while heap and n_leaves < config.num_leaves:
        _, _, leaf_id = heapq.heappop(heap)
        state = leaves.pop(leaf_id)
        gain, feat, cut = state.best
        node = state.node
        node.feature = feat
        node.threshold = float(bins.upper_bounds[feat][cut])
        node.gain = gain
        goes_left = bins.goes_left(state.idx, feat, cut)
        # the split that makes the last leaf leaves its children unsplit
        can_split = n_leaves + 1 < config.num_leaves
        left = make_leaf(state.idx[goes_left], state.depth + 1, can_split)
        # the second child's counts are the parent's less the first's:
        # whole numbers, so exact
        right = make_leaf(state.idx[~goes_left], state.depth + 1, can_split,
                          None if left.count_left is None else state.count_left - left.count_left)
        for child in (left, right):
            if child.best is None:
                child.count_left = None  # a leaf that does not split has no children
        node.left, node.right = left.node, right.node
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
    config: GbdtConfig
    bin_upper_bounds: list[np.ndarray]
    train_loss: list[float] = field(default_factory=list, repr=False)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _gbdt_link(scores: np.ndarray) -> np.ndarray:
    """The probabilities of (n, 1) binary logits (sigmoid) or of (n, K)
    multiclass scores (softmax)."""
    return sigmoid(scores) if scores.shape[1] == 1 else _softmax(scores)


def fit_gbdt(X, y, config: GbdtConfig = GbdtConfig(),
             binnings: dict | None = None) -> GbdtModel:
    """Boosted histogram trees on sigmoid/softmax gradients.

    Binary is the one-column case: one score column (the logit of class
    1) and one tree per round, against K columns and K trees per round.
    Deterministic given the data (no row or feature sampling), so it
    takes no seed. train_loss[r] records the weighted mean log-loss
    after r rounds, starting at the base score.

    `binnings`, when given, maps max_bins to a binning of this same X:
    the fit reads the one for its max_bins, or bins X and adds it, so
    the fits of a search over one X bin it once per max_bins.
    """
    X, y = _fit_inputs(X, y, "booster")
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise DataError("boosting needs at least two classes")
    weights = class_weights(y, config.class_weight, n_classes)
    sample_w = weights[y]
    if binnings is None:
        binnings = {}
    if config.max_bins not in binnings:
        binnings[config.max_bins] = _bin_features(X, config.max_bins)
    bins = binnings[config.max_bins]
    n = y.size
    rows = np.arange(n)
    if n_classes == 2:
        target = (y == 1).astype(np.float64)[:, None]
        rate = float(sample_w @ target[:, 0]) / float(sample_w.sum())
        rate = min(max(rate, 1e-12), 1.0 - 1e-12)
        base_score = np.array([math.log(rate / (1.0 - rate))])

        def loss() -> float:
            point = np.logaddexp(0.0, scores[:, 0]) - target[:, 0] * scores[:, 0]
            return float(sample_w @ point) / n
    else:
        target = np.zeros((n, n_classes))
        target[rows, y] = 1.0
        counts = np.array([float(sample_w[y == k].sum()) for k in range(n_classes)])
        base_score = np.log(np.clip(counts / counts.sum(), 1e-12, None))

        def loss() -> float:
            return float(-(sample_w @ log_softmax(scores)[rows, y])) / n
    scores = np.tile(base_score, (n, 1))
    rounds: list[list[TreeNode]] = []
    losses = [loss()]
    for _ in range(config.n_estimators):
        prob = _gbdt_link(scores)
        grads = sample_w[:, None] * (prob - target)
        hesses = sample_w[:, None] * prob * (1.0 - prob)
        rounds.append([_grow_tree_leafwise(bins, grads[:, k], hesses[:, k], config, scores[:, k])
                       for k in range(scores.shape[1])])
        losses.append(loss())
    return GbdtModel(base_score, rounds, n_classes, config, bins.upper_bounds, losses)


def predict_gbdt_proba(model: GbdtModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.tile(model.base_score, (X.shape[0], 1))
    for round_trees in model.rounds:
        for k, root in enumerate(round_trees):
            scores[:, k] += _tree_values(root, X)
    prob = _gbdt_link(scores)
    return np.hstack([1.0 - prob, prob]) if prob.shape[1] == 1 else prob


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


_NONNEGATIVE = whole(at_least=0)  # a node's ids and counts
_REAL = real()
_POSITIVE = whole(at_least=1)  # a tree header's class and feature counts


def node_from_dict(data: dict, n_classes: int, n_features: int,
                   need_counts: bool = False) -> TreeNode:
    """The tree under `data`: `n_classes` bounds every node's `label` and
    is the length of its `counts`, and `n_features` bounds every split
    `feature`."""
    label = whole(at_least=0, at_most=n_classes - 1)
    feature = whole(at_least=0, at_most=n_features - 1)

    def read(data: dict) -> TreeNode:
        node = TreeNode(
            n_samples=check("n_samples", data["n_samples"], _NONNEGATIVE),
            impurity=check("impurity", data["impurity"], _REAL),
            label=check("label", data["label"], label),
            value=check("value", data["value"], _REAL),
            gain=check("gain", data["gain"], _REAL),
        )
        if need_counts or "counts" in data:
            counts = [check("counts", c, _NONNEGATIVE) for c in data["counts"]]
            if len(counts) != n_classes:
                raise ValueError(f"counts: expected {n_classes} entries for "
                                 f"n_classes={n_classes}, found {len(counts)}")
            node.counts = np.array(counts, dtype=np.int64)
        if "feature" in data:
            node.feature = check("feature", data["feature"], feature)
            node.threshold = check("threshold", data["threshold"], _REAL)
            node.left = read(data["left"])
            node.right = read(data["right"])
        return node

    return read(data)


def cart_to_dict(model: CartModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cart",
        "root": node_to_dict(model.root),
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "weight_per_class": [float(w) for w in model.weight_per_class],
    }


def cart_from_dict(data: dict, width: int) -> CartModel:
    """The model in `data`, refused unless it reads rows `width` features wide."""
    check_header(data, "cart model", DataError, schema_version=SCHEMA_VERSION, kind="cart")
    n_classes = check("n_classes", data["n_classes"], _POSITIVE)
    return CartModel(
        # scores read the counts of any leaf, not just the one the load probe reaches
        root=node_from_dict(data["root"], n_classes, width, need_counts=True),
        config=stored(TreeConfig, data["config"]),
        n_classes=n_classes,
        weight_per_class=finite("weight_per_class", data["weight_per_class"]),
    )


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "forest",
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "weight_per_class": model.weight_per_class.tolist(),
        "tree_seeds": list(model.tree_seeds),
        "trees": [node_to_dict(root) for root in model.roots],
    }


def forest_from_dict(data: dict, width: int) -> ForestModel:
    """The model in `data`, refused unless it reads rows `width` features wide."""
    check_header(data, "forest model", DataError, schema_version=SCHEMA_VERSION, kind="forest")
    n_classes = check("n_classes", data["n_classes"], _POSITIVE)
    n_features = check("n_features", data["n_features"], _POSITIVE)
    if n_features != width:
        raise ValueError(f"n_features: expected {width}, the width of the rows; found {n_features}")
    return ForestModel(
        roots=[node_from_dict(t, n_classes, n_features) for t in data["trees"]],
        config=stored(ForestConfig, data["config"]),
        n_classes=n_classes,
        n_features=n_features,
        weight_per_class=finite("weight_per_class", data["weight_per_class"]),
        tree_seeds=tuple(check("tree_seeds", s, _NONNEGATIVE) for s in data["tree_seeds"]),
    )


def gbdt_to_dict(model: GbdtModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gbdt",
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "base_score": model.base_score.tolist(),
        "bin_upper_bounds": [b.tolist() for b in model.bin_upper_bounds],
        "rounds": [[node_to_dict(t) for t in rnd] for rnd in model.rounds],
        "train_loss": [float(v) for v in model.train_loss],
    }


def _ascending(name: str, values) -> np.ndarray:
    """`values` as a 1-D float64 array of finite, strictly ascending numbers."""
    array = finite(name, values)
    if array.ndim != 1 or (array[1:] <= array[:-1]).any():
        raise ValueError(f"{name}: expected strictly ascending numbers")
    return array


def _bin_bounds(bounds) -> list[np.ndarray]:
    """`bounds` as one finite, strictly ascending float64 array per
    feature, checked in one pass over the concatenated values; a list
    that fails is checked again one feature at a time, so the refusal
    names the feature."""
    if isinstance(bounds, list) and bounds and all(type(b) is list for b in bounds):
        try:
            flat = np.array(list(itertools.chain.from_iterable(bounds)), dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            flat = None
        if flat is not None and flat.ndim == 1 and np.isfinite(flat).all():
            ends = np.cumsum([len(b) for b in bounds])
            rising = flat[1:] > flat[:-1]
            rising[ends[(ends > 0) & (ends < flat.size)] - 1] = True  # pairs across features
            if rising.all():
                return np.split(flat, ends[:-1])
    return [_ascending(f"bin_upper_bounds[{f}]", b) for f, b in enumerate(bounds)]


def gbdt_from_dict(data: dict, width: int) -> GbdtModel:
    """The model in `data`, refused unless it reads rows `width` features wide."""
    check_header(data, "gbdt model", DataError, schema_version=SCHEMA_VERSION, kind="gbdt")
    n_classes = check("n_classes", data["n_classes"], whole(at_least=2))
    per_round = 1 if n_classes == 2 else n_classes  # trees per round and base scores
    base_score = finite("base_score", data["base_score"])
    if base_score.shape != (per_round,):
        raise ValueError(f"base_score: expected {per_round} numbers for n_classes={n_classes}, "
                         f"found shape {base_score.shape}")
    if any(len(rnd) != per_round for rnd in data["rounds"]):
        raise ValueError(f"rounds: expected {per_round} trees in each round for "
                         f"n_classes={n_classes}")
    bin_upper_bounds = _bin_bounds(data["bin_upper_bounds"])
    if len(bin_upper_bounds) != width:
        raise ValueError(f"bin_upper_bounds: expected {width} lists, one per feature; "
                         f"found {len(bin_upper_bounds)}")
    return GbdtModel(
        base_score=base_score,
        rounds=[[node_from_dict(t, n_classes, width) for t in rnd] for rnd in data["rounds"]],
        n_classes=n_classes,
        config=stored(GbdtConfig, data["config"]),
        bin_upper_bounds=bin_upper_bounds,
        train_loss=[check("train_loss", v, _REAL) for v in data.get("train_loss", [])],
    )
