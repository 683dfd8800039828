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
is non-increasing at epoch granularity. Nonlinear kernels use dual
coordinate ascent under box constraints 0 <= alpha_i <= C * w_{y_i},
with the bias recovered afterwards from the average KKT residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .linear import class_weights

SCHEMA_VERSION = 1

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"
    gamma: float | str | None = "scale"  # rbf only: "scale" | "auto" | value
    degree: int = 3  # polynomial only
    coef0: float = 0.0  # polynomial and sigmoid offset c
    alpha: float = 1.0  # sigmoid slope

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError(f"polynomial degree must be >= 1: {self.degree}")

    def resolve(self, X) -> "KernelSpec":
        """Fix symbolic gamma against the training matrix."""
        if not isinstance(self.gamma, str):
            return self
        X = np.asarray(X, dtype=np.float64)
        n_features = X.shape[1]
        if self.gamma == "auto":
            value = 1.0 / n_features
        elif self.gamma == "scale":
            var = float(X.var())
            value = 1.0 / (n_features * var) if var > 0 else 1.0 / n_features
        else:
            raise ValueError(f"unknown gamma policy: {self.gamma!r}")
        return replace(self, gamma=value)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma,
            "degree": self.degree,
            "coef0": self.coef0,
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KernelSpec":
        return cls(
            kind=data["kind"],
            gamma=data["gamma"],
            degree=int(data["degree"]),
            coef0=float(data["coef0"]),
            alpha=float(data["alpha"]),
        )


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Pairwise kernel values, shape (len(A), len(B))."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: {A.shape[1]} vs {B.shape[1]} features"
        )
    inner = A @ B.T
    if spec.kind == "linear":
        return inner
    if spec.kind == "polynomial":
        return (inner + spec.coef0) ** spec.degree
    if spec.kind == "sigmoid":
        return np.tanh(spec.alpha * inner + spec.coef0)
    if not isinstance(spec.gamma, (int, float)):
        raise ValueError("rbf kernel requires a resolved numeric gamma")
    sq_a = np.sum(A * A, axis=1)[:, None]
    sq_b = np.sum(B * B, axis=1)[None, :]
    # rounding can push tiny distances negative; clamp before exp
    dist_sq = np.maximum(sq_a + sq_b - 2.0 * inner, 0.0)
    return np.exp(-spec.gamma * dist_sq)


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """Kernel value for a single pair of vectors."""
    return float(kernel_matrix(spec, np.atleast_2d(x), np.atleast_2d(z))[0, 0])


def hinge_objective(w, b, X, y_signed, effective_c) -> float:
    """Primal objective 0.5 * ||w||^2 + sum_i C_i * hinge_i."""
    margins = y_signed * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * float(w @ w) + float(effective_c @ hinge)


def hinge_subgradient(w, b, X, y_signed, effective_c):
    """A subgradient of the primal objective (violated margins only)."""
    margins = y_signed * (X @ w + b)
    viol = margins < 1.0
    coeff = effective_c[viol] * y_signed[viol]
    grad_w = w - coeff @ X[viol]
    grad_b = -float(coeff.sum())
    return grad_w, grad_b


def _fit_primal_linear(X, y_signed, effective_c, c_value, max_epochs, tol):
    n = X.shape[0]
    lam = 1.0 / (c_value * n)
    w = np.zeros(X.shape[1])
    b = 0.0
    obj = hinge_objective(w, b, X, y_signed, effective_c)
    trace = [obj]
    for epoch in range(1, max_epochs + 1):
        grad_w, grad_b = hinge_subgradient(w, b, X, y_signed, effective_c)
        # base diminishing schedule, halved until non-increasing
        step = 1.0 / (lam * (epoch + 1))
        accepted = False
        for _ in range(60):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            obj_new = hinge_objective(w_new, b_new, X, y_signed, effective_c)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # even a vanishing step increases the objective
        improved = obj - obj_new
        w, b, obj = w_new, b_new, obj_new
        trace.append(obj)
        if improved <= tol * max(1.0, abs(obj)):
            break
    return w, b, trace


def _fit_dual_kernel(gram, y_signed, box, max_epochs, tol, seed):
    """Coordinate ascent on the dual with box constraints [0, box_i].

    Maintains f_i = sum_j alpha_j y_j K_ij incrementally. Stops when the
    largest projected gradient over an epoch falls below tol or at the
    epoch budget.
    """
    n = gram.shape[0]
    alpha = np.zeros(n)
    f = np.zeros(n)
    denom = np.maximum(np.diag(gram).copy(), 1e-12)
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        worst = 0.0
        for i in rng.permutation(n):
            grad = y_signed[i] * f[i] - 1.0
            if alpha[i] <= 0.0:
                projected = min(grad, 0.0)
            elif alpha[i] >= box[i]:
                projected = max(grad, 0.0)
            else:
                projected = grad
            worst = max(worst, abs(projected))
            if projected == 0.0:
                continue
            new = min(max(alpha[i] - grad / denom[i], 0.0), box[i])
            delta = new - alpha[i]
            if delta != 0.0:
                f += delta * y_signed[i] * gram[:, i]
                alpha[i] = new
        if worst < tol:
            break
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

    def margins(self, spec: KernelSpec, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.w is not None:
            return X @ self.w + self.b
        if self.support_vectors is None or self.support_vectors.size == 0:
            return np.full(X.shape[0], self.b)
        gram = kernel_matrix(spec, X, self.support_vectors)
        return gram @ self.dual_coef + self.b


@dataclass
class SvmModel:
    kernel: KernelSpec
    classes: tuple[int, ...]
    pairs: list[PairModel]
    c_value: float
    class_weight: str | None
    weight_per_class: np.ndarray

    @property
    def n_classes(self) -> int:
        # sized by the largest id so vote arrays index safely even if a
        # caller ever passes non-dense labels
        return max(self.classes) + 1


def fit_svm(
    X,
    y,
    c_value: float = 1.0,
    kernel: KernelSpec = KernelSpec(),
    class_weight: str | None = None,
    *,
    max_epochs: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
) -> SvmModel:
    """Train a one-vs-one SVM. Class weights scale each sample's C."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if c_value <= 0:
        raise ValueError(f"C must be positive: {c_value}")
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("SVM training needs at least two classes")
    n_classes = int(classes.max()) + 1
    weights = class_weights(y, class_weight, n_classes)
    spec = kernel.resolve(X)
    pairs: list[PairModel] = []
    for ai in range(classes.size):
        for bi in range(ai + 1, classes.size):
            neg, pos = int(classes[ai]), int(classes[bi])
            mask = (y == neg) | (y == pos)
            X_pair = X[mask]
            y_signed = np.where(y[mask] == pos, 1.0, -1.0)
            effective_c = c_value * weights[y[mask]]
            pair = PairModel(class_neg=neg, class_pos=pos)
            if spec.kind == "linear":
                pair.w, pair.b, pair.objective_trace = _fit_primal_linear(
                    X_pair, y_signed, effective_c, c_value, max_epochs, tol
                )
            else:
                gram = kernel_matrix(spec, X_pair, X_pair)
                alpha, pair.b = _fit_dual_kernel(
                    gram, y_signed, effective_c, max_epochs, tol, seed
                )
                keep = alpha > 1e-12
                pair.support_vectors = X_pair[keep]
                pair.dual_coef = alpha[keep] * y_signed[keep]
            pairs.append(pair)
    return SvmModel(
        kernel=spec,
        classes=tuple(int(c) for c in classes),
        pairs=pairs,
        c_value=c_value,
        class_weight=class_weight,
        weight_per_class=weights,
    )


def decision_function(model: SvmModel, X) -> np.ndarray:
    """Pairwise margins: (n,) for binary models, (n, n_pairs) otherwise."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    margins = np.column_stack(
        [pair.margins(model.kernel, X) for pair in model.pairs]
    )
    return margins[:, 0] if len(model.pairs) == 1 else margins


def _votes_and_margin_sums(model: SvmModel, X):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n_classes = model.n_classes
    votes = np.zeros((X.shape[0], n_classes))
    sums = np.zeros((X.shape[0], n_classes))
    for pair in model.pairs:
        margin = pair.margins(model.kernel, X)
        pos_wins = margin >= 0.0  # boundary points count for the positive class
        votes[pos_wins, pair.class_pos] += 1.0
        votes[~pos_wins, pair.class_neg] += 1.0
        sums[:, pair.class_pos] += margin
        sums[:, pair.class_neg] -= margin
    return votes, sums


def predict(model: SvmModel, X) -> np.ndarray:
    """Majority vote over pair models; vote ties go to the lowest class id."""
    votes, _ = _votes_and_margin_sums(model, X)
    return np.argmax(votes, axis=1)


def class_scores(model: SvmModel, X) -> np.ndarray:
    """Continuous per-class scores for ROC analysis.

    Vote counts plus a margin-sum term bounded inside (-1/3, 1/3), so
    ranking by score refines the vote ordering without ever crossing a
    full-vote gap. Prediction itself uses predict(), where vote ties
    break to the lowest class id.
    """
    votes, sums = _votes_and_margin_sums(model, X)
    return votes + sums / (3.0 * (np.abs(sums) + 1.0))


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
        "kernel": model.kernel.to_dict(),
        "classes": list(model.classes),
        "pairs": pairs,
        "C": model.c_value,
        "class_weight": model.class_weight,
        "weight_per_class": model.weight_per_class.tolist(),
    }


def from_dict(data: dict) -> SvmModel:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"unsupported SVM schema: {data.get('schema_version')!r}")
    pairs = []
    for entry in data["pairs"]:
        pair = PairModel(
            class_neg=int(entry["class_neg"]),
            class_pos=int(entry["class_pos"]),
            b=float(entry["b"]),
        )
        if "w" in entry:
            pair.w = np.array(entry["w"], dtype=np.float64)
        else:
            pair.support_vectors = np.array(entry["support_vectors"], dtype=np.float64)
            pair.dual_coef = np.array(entry["dual_coef"], dtype=np.float64)
        pairs.append(pair)
    return SvmModel(
        kernel=KernelSpec.from_dict(data["kernel"]),
        classes=tuple(int(c) for c in data["classes"]),
        pairs=pairs,
        c_value=float(data["C"]),
        class_weight=data["class_weight"],
        weight_per_class=np.array(data["weight_per_class"], dtype=np.float64),
    )

