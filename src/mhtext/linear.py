"""Logistic regression with class weighting and L2 regularization.

The objective is the mean of per-sample weighted cross-entropies plus
an L2 penalty on the weight matrix (never the bias):

    loss(W, b) = (1/n) * sum_i w_{y_i} * CE_i  +  l2 * ||W||_2^2

where w_k are per-class weights (all ones, or "balanced" = N / (K * N_k))
and l2 = 1 / C. Binary problems collapse to a single sigmoid row;
multiclass is multinomial softmax with max-subtraction for stability.
Optimization is full-batch gradient descent from zeros with Armijo
backtracking, so the objective never increases across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LogisticConfig:
    C: float = 1.0  # inverse regularization strength; l2 = 1 / C
    class_weight: str | None = None  # None | "balanced"
    max_iter: int = 1000
    tol: float = 1e-6  # stop when the full gradient norm drops below

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError(f"C must be positive: {self.C}")
        if self.class_weight not in (None, "none", "balanced"):
            raise ValueError(f"unknown class_weight: {self.class_weight!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1: {self.max_iter}")


def class_weights(labels, mode, n_classes: int | None = None) -> np.ndarray:
    """Per-class weights: ones, or balanced w_k = N / (K * N_k).

    Every class 0..K-1 must be present under "balanced", otherwise the
    weights would be undefined.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 1:
        raise DataError("cannot derive class weights from empty labels")
    if mode in (None, "none"):
        return np.ones(n_classes)
    if mode != "balanced":
        raise ValueError(f"unknown class_weight mode: {mode!r}")
    counts = np.bincount(labels, minlength=n_classes)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(
            f"balanced class weights need every class present; class {missing} is empty"
        )
    return labels.size / (n_classes * counts.astype(np.float64))


@dataclass
class LinearModelParams:
    """Fitted parameters. weights has one row for binary problems
    (sigmoid on row 0) and K rows for multinomial problems."""

    weights: np.ndarray
    bias: np.ndarray
    n_classes: int
    kind: str  # "sigmoid" | "softmax"
    config: LogisticConfig = field(default_factory=LogisticConfig)
    objective_trace: list[float] = field(default_factory=list, repr=False)

    @classmethod
    def zeros(cls, n_features: int, n_classes: int, config=None) -> "LinearModelParams":
        kind = "sigmoid" if n_classes == 2 else "softmax"
        rows = 1 if kind == "sigmoid" else n_classes
        return cls(
            np.zeros((rows, n_features)),
            np.zeros(rows),
            n_classes,
            kind,
            config or LogisticConfig(),
        )


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def predict_proba(params: LinearModelParams, X) -> np.ndarray:
    """Class probabilities; rows sum to 1. Accepts one vector or a matrix."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if params.kind == "sigmoid":
        p1 = sigmoid(X @ params.weights[0] + params.bias[0])
        proba = np.column_stack([1.0 - p1, p1])
    else:
        proba = np.exp(log_softmax(X @ params.weights.T + params.bias))
    return proba[0] if single else proba


def predict(params: LinearModelParams, X) -> np.ndarray:
    """Most probable class; ties resolve to the lowest class id."""
    proba = predict_proba(params, X)
    return np.argmax(np.atleast_2d(proba), axis=1)


def loss_and_gradient(
    params: LinearModelParams, X, y, l2_strength: float, weight_per_class
):
    """Weighted mean cross-entropy plus l2 * ||W||^2 and its exact gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    sample_w = np.asarray(weight_per_class, dtype=np.float64)[y]
    if params.kind == "sigmoid":
        z = X @ params.weights[0] + params.bias[0]
        # -ln sigma(z) = softplus(-z); CE = softplus(z) - y*z
        ce = np.logaddexp(0.0, z) - y * z
        data_loss = float(sample_w @ ce) / n
        residual = sample_w * (sigmoid(z) - y) / n
        grad_w = (residual @ X)[None, :] + 2.0 * l2_strength * params.weights
        grad_b = np.array([residual.sum()])
    else:
        logits = X @ params.weights.T + params.bias
        logp = log_softmax(logits)
        data_loss = float(-(sample_w @ logp[np.arange(n), y])) / n
        residual = np.exp(logp)
        residual[np.arange(n), y] -= 1.0
        residual *= (sample_w / n)[:, None]
        grad_w = residual.T @ X + 2.0 * l2_strength * params.weights
        grad_b = residual.sum(axis=0)
    penalty = l2_strength * float(np.sum(params.weights * params.weights))
    return data_loss + penalty, (grad_w, grad_b)


def fit_logistic(X, y, config: LogisticConfig = LogisticConfig()) -> LinearModelParams:
    """Full-batch gradient descent with Armijo backtracking from zeros.

    Stops when the gradient norm over all parameters falls below
    config.tol, when no productive step exists, or at max_iter.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    n_classes = int(y.max()) + 1 if y.size else 0
    if n_classes < 2:
        raise DataError("logistic regression needs at least two classes")
    weight_per_class = class_weights(y, config.class_weight, n_classes)
    l2_strength = 1.0 / config.C
    params = LinearModelParams.zeros(X.shape[1], n_classes, config)
    loss, (grad_w, grad_b) = loss_and_gradient(
        params, X, y, l2_strength, weight_per_class
    )
    params.objective_trace.append(loss)
    step = 1.0
    for _ in range(config.max_iter):
        grad_sq = float(np.sum(grad_w * grad_w) + grad_b @ grad_b)
        if np.sqrt(grad_sq) < config.tol:
            break
        step = min(step * 2.0, 1e6)  # allow regrowth after earlier shrinks
        accepted = False
        for _ in range(60):
            trial = LinearModelParams(
                params.weights - step * grad_w,
                params.bias - step * grad_b,
                params.n_classes,
                params.kind,
                config,
            )
            trial_loss, trial_grad = loss_and_gradient(
                trial, X, y, l2_strength, weight_per_class
            )
            if trial_loss <= loss - 1e-4 * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        params.weights, params.bias = trial.weights, trial.bias
        loss, (grad_w, grad_b) = trial_loss, trial_grad
        params.objective_trace.append(loss)
    return params


def to_dict(params: LinearModelParams) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": params.kind,
        "n_classes": params.n_classes,
        "weights": params.weights.tolist(),
        "bias": params.bias.tolist(),
        "config": {
            "C": params.config.C,
            "class_weight": params.config.class_weight,
            "max_iter": params.config.max_iter,
            "tol": params.config.tol,
        },
    }


def from_dict(data: dict) -> LinearModelParams:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported linear model schema: {data.get('schema_version')!r}"
        )
    cfg = data["config"]
    return LinearModelParams(
        np.array(data["weights"], dtype=np.float64),
        np.array(data["bias"], dtype=np.float64),
        int(data["n_classes"]),
        data["kind"],
        LogisticConfig(
            C=cfg["C"],
            class_weight=cfg["class_weight"],
            max_iter=cfg["max_iter"],
            tol=cfg["tol"],
        ),
    )

