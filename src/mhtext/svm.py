"""Support vector machines: primal linear solver, kernel dual solver, OvO.

Kernels follow the usual closed forms: linear x.z, polynomial
(x.z + c)^d, rbf exp(-gamma * ||x - z||^2), sigmoid tanh(alpha * x.z + c).
gamma "scale" resolves to 1 / (n_features * var(X_train)) over all
matrix entries, "auto" to 1 / n_features.

Training is one-vs-one: one binary sub-model per class pair (a, b) with
a < b, where b is the positive (+1) class. Prediction takes a majority
vote over sub-models with ties resolved to the lowest class id; a point
exactly on a hyperplane (margin 0) counts for the positive class.

The linear kernel uses a full-batch subgradient method on the primal
objective 0.5 * ||w||^2 + C * sum_i w_i * hinge_i with a diminishing
base step 1 / (lambda * (t + 1)), lambda = 1 / (C * n). Each step is
halved until the objective does not increase, so the recorded objective
is non-increasing at epoch granularity. A trial step whose penalty
0.5 * ||w||^2 alone exceeds the current objective is halved without
evaluating the O(n d) hinge term. That skip is exact: the hinge term is
a sum of products of nonnegatives, so it is >= 0, and float addition
rounds monotonically, so the full objective would be at least the
penalty and reject the step too (a NaN penalty fails the test and goes
to the full evaluation, as before). The subgradient of an epoch reads
the margins that the objective evaluation of its point computed.

Nonlinear kernels use dual coordinate ascent under box constraints
0 <= alpha_i <= C * w_{y_i}, with the bias recovered afterwards from the
average KKT residual. The coordinate loop keeps its scalars as Python
floats, whose IEEE double arithmetic gives the bits numpy float64
scalars gave, and reads column i of the Gram matrix as row i of one
contiguous transposed copy, so no symmetry is assumed. A Gram matrix
with a non-finite entry (an overflowing polynomial kernel) is refused.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (DataError, UsageError, check, check_fields, check_header, finite, one_of,
                     real, stored, whole)
from .linear import class_weights, weight_mode

SCHEMA_VERSION = 2  # 2: one config block, with the kernel fields in it


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    kernel: str = "linear"
    gamma: float | str = "scale"  # rbf only: "scale" | "auto" | value
    degree: int = 3  # polynomial only
    coef0: float = 0.0  # polynomial and sigmoid offset c
    alpha: float = 1.0  # sigmoid slope
    class_weight: str | None = None
    max_epochs: int = 1000
    tol: float = 1e-6

    def __post_init__(self):
        check_fields(
            self,
            C=real(above=0.0),
            kernel=one_of("linear", "polynomial", "rbf", "sigmoid"),
            # a negative rbf gamma is no kernel
            gamma=one_of("scale", "auto", otherwise=real(at_least=0.0)),
            degree=whole(at_least=1 if self.kernel == "polynomial" else None),
            coef0=real(), alpha=real(), class_weight=weight_mode,
            max_epochs=whole(at_least=1), tol=real(),
        )

    def resolve(self, X) -> "SvmConfig":
        """Fix symbolic gamma against the training matrix."""
        if not isinstance(self.gamma, str):
            return self
        X = np.asarray(X, dtype=np.float64)
        n_features = X.shape[1]
        if self.gamma == "auto":
            value = 1.0 / n_features
        else:  # "scale"
            var = float(X.var())
            value = 1.0 / (n_features * var) if var > 0 else 1.0 / n_features
        return replace(self, gamma=value)


def kernel_matrix(config: SvmConfig, A, B) -> np.ndarray:
    """Pairwise kernel values, shape (len(A), len(B))."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: {A.shape[1]} vs {B.shape[1]} features"
        )
    inner = A @ B.T
    if config.kernel == "linear":
        return inner
    if config.kernel == "polynomial":
        return (inner + config.coef0) ** config.degree
    if config.kernel == "sigmoid":
        return np.tanh(config.alpha * inner + config.coef0)
    if not isinstance(config.gamma, (int, float)):
        raise ValueError("rbf kernel requires a resolved numeric gamma")
    sq_a = np.sum(A * A, axis=1)[:, None]
    sq_b = np.sum(B * B, axis=1)[None, :]
    # rounding can push tiny distances negative; clamp before exp
    dist_sq = np.maximum(sq_a + sq_b - 2.0 * inner, 0.0)
    return np.exp(-config.gamma * dist_sq)


def hinge_objective(w, b, X, y_signed, effective_c) -> tuple[float, np.ndarray]:
    """Primal objective 0.5 * ||w||^2 + sum_i C_i * hinge_i, and the
    margins y_i * (x_i . w + b) it was computed from."""
    margins = y_signed * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * float(w @ w) + float(effective_c @ hinge), margins


def hinge_subgradient(w, X, y_signed, effective_c, margins):
    """A subgradient of the primal objective (violated margins only) at
    the point whose margins hinge_objective returned."""
    viol = margins < 1.0
    coeff = effective_c[viol] * y_signed[viol]
    grad_w = w - coeff @ X[viol]
    grad_b = -float(coeff.sum())
    return grad_w, grad_b


def _fit_primal_linear(X, y_signed, effective_c, C, max_epochs, tol):
    n = X.shape[0]
    lam = 1.0 / check("C * rows", C * n, real())  # an infinite product leaves no step
    w = np.zeros(X.shape[1])
    b = 0.0
    obj, margins = hinge_objective(w, b, X, y_signed, effective_c)
    trace = [obj]
    for epoch in range(1, max_epochs + 1):
        grad_w, grad_b = hinge_subgradient(w, X, y_signed, effective_c, margins)
        # base diminishing schedule, halved until non-increasing
        step = 1.0 / (lam * (epoch + 1))
        accepted = False
        for _ in range(60):
            w_new = w - step * grad_w
            # the penalty alone already exceeds obj: the full objective,
            # penalty plus a nonnegative hinge sum, would reject the step
            if 0.5 * float(w_new @ w_new) > obj:
                step *= 0.5
                continue
            b_new = b - step * grad_b
            obj_new, margins_new = hinge_objective(w_new, b_new, X, y_signed, effective_c)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # even a vanishing step increases the objective
        improved = obj - obj_new
        w, b, obj, margins = w_new, b_new, obj_new, margins_new
        trace.append(obj)
        if improved <= tol * max(1.0, abs(obj)):
            break
    return w, b, trace


def _fit_dual_kernel(gram, y_signed, box, max_epochs, tol, seed):
    """Coordinate ascent on the dual with box constraints [0, box_i].

    Maintains f_i = sum_j alpha_j y_j K_ij incrementally. Stops when the
    largest projected gradient over an epoch falls below tol or at the
    epoch budget. The per-coordinate scalars are Python floats, and
    row i of `columns` is gram[:, i].
    """
    n = gram.shape[0]
    f = np.zeros(n)
    columns = np.ascontiguousarray(gram.T)
    alpha = [0.0] * n
    signs = y_signed.tolist()
    caps = box.tolist()
    denom = np.maximum(np.diag(gram), 1e-12).tolist()
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        worst = 0.0
        for i in rng.permutation(n).tolist():
            a = alpha[i]
            grad = signs[i] * f.item(i) - 1.0
            if a <= 0.0:
                projected = min(grad, 0.0)
            elif a >= caps[i]:
                projected = max(grad, 0.0)
            else:
                projected = grad
            worst = max(worst, abs(projected))
            if projected == 0.0:
                continue
            new = min(max(a - grad / denom[i], 0.0), caps[i])
            delta = new - a
            if delta != 0.0:
                f += delta * signs[i] * columns[i]
                alpha[i] = new
        if worst < tol:
            break
    alpha = np.array(alpha)
    free = (alpha > 1e-12) & (alpha < box - 1e-12)
    if free.any():
        bias = float(np.mean(y_signed[free] - f[free]))
    else:
        support = alpha > 1e-12
        bias = float(np.mean(y_signed[support] - f[support])) if support.any() else 0.0
    return alpha, bias


@dataclass
class PairModel:
    """Binary sub-model for the class pair (negative, positive)."""

    class_neg: int
    class_pos: int
    w: np.ndarray | None = None
    b: float = 0.0
    support_vectors: np.ndarray | None = None
    dual_coef: np.ndarray | None = None  # alpha_i * y_i at the supports
    objective_trace: list[float] = field(default_factory=list, repr=False)

    def margins(self, config: SvmConfig, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.w is not None:
            return X @ self.w + self.b
        if self.support_vectors is None or self.support_vectors.size == 0:
            return np.full(X.shape[0], self.b)
        gram = kernel_matrix(config, X, self.support_vectors)
        return gram @ self.dual_coef + self.b


@dataclass
class SvmModel:
    config: SvmConfig  # with gamma resolved against the training matrix
    classes: tuple[int, ...]
    pairs: list[PairModel]
    weight_per_class: np.ndarray

    @property
    def n_classes(self) -> int:
        # sized by the largest id so vote arrays index safely even if a
        # caller ever passes non-dense labels
        return max(self.classes) + 1


def fit_svm(X, y, config: SvmConfig = SvmConfig(), seed: int = 0) -> SvmModel:
    """Train a one-vs-one SVM. Class weights scale each sample's C; the
    seed orders the dual solver's coordinate sweeps."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("SVM training needs at least two classes")
    n_classes = int(classes.max()) + 1
    weights = class_weights(y, config.class_weight, n_classes)
    config = config.resolve(X)
    pairs: list[PairModel] = []
    for ai in range(classes.size):
        for bi in range(ai + 1, classes.size):
            neg, pos = int(classes[ai]), int(classes[bi])
            mask = (y == neg) | (y == pos)
            X_pair = X[mask]
            y_signed = np.where(y[mask] == pos, 1.0, -1.0)
            effective_c = config.C * weights[y[mask]]
            pair = PairModel(class_neg=neg, class_pos=pos)
            if config.kernel == "linear":
                pair.w, pair.b, pair.objective_trace = _fit_primal_linear(
                    X_pair, y_signed, effective_c, config.C, config.max_epochs, config.tol
                )
            else:
                with np.errstate(over="ignore"):  # refused below, not warned about
                    gram = kernel_matrix(config, X_pair, X_pair)
                if not np.isfinite(gram).all():
                    raise UsageError(
                        f"kernel={config.kernel!r}, degree={config.degree}, "
                        f"coef0={config.coef0}: the kernel matrix of class pair "
                        f"({neg}, {pos}) has non-finite entries")
                alpha, pair.b = _fit_dual_kernel(
                    gram, y_signed, effective_c, config.max_epochs, config.tol, seed
                )
                keep = alpha > 1e-12
                pair.support_vectors = X_pair[keep]
                pair.dual_coef = alpha[keep] * y_signed[keep]
            pairs.append(pair)
    return SvmModel(
        config=config,
        classes=tuple(int(c) for c in classes),
        pairs=pairs,
        weight_per_class=weights,
    )


def _votes_and_margin_sums(model: SvmModel, X):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n_classes = model.n_classes
    votes = np.zeros((X.shape[0], n_classes))
    sums = np.zeros((X.shape[0], n_classes))
    for pair in model.pairs:
        margin = pair.margins(model.config, X)
        pos_wins = margin >= 0.0  # boundary points count for the positive class
        votes[pos_wins, pair.class_pos] += 1.0
        votes[~pos_wins, pair.class_neg] += 1.0
        sums[:, pair.class_pos] += margin
        sums[:, pair.class_neg] -= margin
    return votes, sums


def votes_and_scores(model: SvmModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels and continuous per-class scores from one set of margins.

    The label is the majority vote over pair models, vote ties going to
    the lowest class id. The score for ROC analysis is the vote count
    plus a margin-sum term bounded inside (-1/3, 1/3), so ranking by
    score refines the vote ordering without ever crossing a full-vote
    gap.
    """
    votes, sums = _votes_and_margin_sums(model, X)
    return np.argmax(votes, axis=1), votes + sums / (3.0 * (np.abs(sums) + 1.0))


def predict(model: SvmModel, X) -> np.ndarray:
    """Majority vote over pair models; vote ties go to the lowest class id."""
    return votes_and_scores(model, X)[0]


def class_scores(model: SvmModel, X) -> np.ndarray:
    """Continuous per-class scores for ROC analysis (see votes_and_scores)."""
    return votes_and_scores(model, X)[1]


def to_dict(model: SvmModel) -> dict:
    pairs = []
    for pair in model.pairs:
        entry: dict = {"class_neg": pair.class_neg, "class_pos": pair.class_pos, "b": pair.b}
        if pair.w is not None:
            entry["w"] = pair.w.tolist()
        else:
            entry["support_vectors"] = pair.support_vectors.tolist()
            entry["dual_coef"] = pair.dual_coef.tolist()
        pairs.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(model.config),
        "classes": list(model.classes),
        "pairs": pairs,
        "weight_per_class": model.weight_per_class.tolist(),
    }


_CLASS_ID = whole(at_least=0)


def _check_pair_shapes(classes, pairs) -> None:
    """The pairs fit_svm writes: (a, b) for each a < b of `classes`, once
    each, in order; every `w` 1-D of one length; `support_vectors` 2-D
    (or empty) with one `dual_coef` per row."""
    found = [(pair.class_neg, pair.class_pos) for pair in pairs]
    expected = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]]
    if found != expected:
        raise DataError(f"pairs {found}: expected {expected}, one per class pair in order")
    lengths = {pair.w.shape for pair in pairs if pair.w is not None}
    if len(lengths) > 1 or any(len(shape) != 1 for shape in lengths):
        raise DataError(f"w of shapes {sorted(lengths)}: expected one 1-D length")
    for pair in pairs:
        sv, coef = pair.support_vectors, pair.dual_coef
        if sv is not None and not ((sv.ndim == 2 or sv.size == 0) and coef.shape == (len(sv),)):
            raise DataError(f"support_vectors and dual_coef of shapes {sv.shape} and "
                            f"{coef.shape}: expected one dual_coef per support vector row")


def from_dict(data: dict) -> SvmModel:
    check_header(data, "SVM model", DataError, schema_version=SCHEMA_VERSION)
    classes = tuple(check("classes", c, _CLASS_ID) for c in data["classes"])
    if len(classes) < 2 or list(classes) != sorted(set(classes)):
        raise DataError(f"classes={list(classes)!r}: expected two or more class ids "
                        "in increasing order")
    config = stored(SvmConfig, data["config"])
    pairs = []
    for entry in data["pairs"]:
        pair = PairModel(
            class_neg=check("class_neg", entry["class_neg"], _CLASS_ID),
            class_pos=check("class_pos", entry["class_pos"], _CLASS_ID),
            b=check("b", entry["b"], real()),
        )
        if not (pair.class_neg < pair.class_pos
                and {pair.class_neg, pair.class_pos} <= set(classes)):
            raise DataError(f"class_neg={pair.class_neg}, class_pos={pair.class_pos}: expected "
                            f"two ids of classes {list(classes)}, class_neg < class_pos")
        stored_arrays = {key: finite(key, entry[key])
                         for key in ("w", "support_vectors", "dual_coef") if key in entry}
        expected = {"w"} if config.kernel == "linear" else {"support_vectors", "dual_coef"}
        if set(stored_arrays) != expected:
            raise DataError(f"pairs: a {config.kernel} kernel pair stores {sorted(expected)}, "
                            f"found {sorted(stored_arrays)}")
        pair.w = stored_arrays.get("w")
        pair.support_vectors = stored_arrays.get("support_vectors")
        pair.dual_coef = stored_arrays.get("dual_coef")
        pairs.append(pair)
    _check_pair_shapes(classes, pairs)
    return SvmModel(
        config=config,
        classes=classes,
        pairs=pairs,
        weight_per_class=finite("weight_per_class", data["weight_per_class"]),
    )
