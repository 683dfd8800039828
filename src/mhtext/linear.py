"""Logistic regression with class weighting and L2 regularization.

The objective is the mean of per-sample weighted cross-entropies plus
an L2 penalty on the weight matrix (never the bias):

    loss(W, b) = (1/n) * sum_i w_{y_i} * CE_i  +  l2 * ||W||_2^2

where w_k are per-class weights (all ones, or "balanced" = N / (K * N_k))
and l2 = 1 / C. Binary problems collapse to a single sigmoid row;
multiclass is multinomial softmax with max-subtraction for stability.
Optimization is full-batch gradient descent from zeros with Armijo
backtracking, so the objective never increases across iterations.
Trial steps evaluate only `objective`, which keeps the state its
gradient reads (z, or the log-probabilities); `gradient` runs once per
accepted step on that kept state. The two perform the operations the
fused `loss_and_gradient` performs, in the same order, so the fit is
bit-identical to computing a gradient on every trial.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (DataError, check, check_fields, check_header, finite, one_of, real, stored,
                     whole)

SCHEMA_VERSION = 1

# the class_weight rule of every family: ones, or "balanced"
weight_mode = one_of(None, "none", "balanced")


@dataclass(frozen=True)
class LogisticConfig:
    C: float = 1.0  # inverse regularization strength; l2 = 1 / C
    class_weight: str | None = None  # None | "balanced"
    max_iter: int = 1000
    tol: float = 1e-6  # stop when the full gradient norm drops below

    def __post_init__(self):
        check_fields(self, C=real(above=0.0), class_weight=weight_mode,
                     max_iter=whole(at_least=1), tol=real())


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
    if weight_mode(mode) in (None, "none"):
        return np.ones(n_classes)
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
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so
    exp never overflows; exp(-|z|) is the same operand on both sides."""
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


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


def objective(params: LinearModelParams, X, y, l2_strength: float, sample_w):
    """Weighted mean cross-entropy plus l2 * ||W||^2, and the state its
    gradient reads: z for sigmoid, the log-probabilities for softmax."""
    n = X.shape[0]
    if params.kind == "sigmoid":
        z = X @ params.weights[0] + params.bias[0]
        # -ln sigma(z) = softplus(-z); CE = softplus(z) - y*z
        ce = np.logaddexp(0.0, z) - y * z
        data_loss = float(sample_w @ ce) / n
        state = z
    else:
        state = log_softmax(X @ params.weights.T + params.bias)
        data_loss = float(-(sample_w @ state[np.arange(n), y])) / n
    penalty = l2_strength * float(np.sum(params.weights * params.weights))
    return data_loss + penalty, state


def gradient(params: LinearModelParams, X, y, l2_strength: float, sample_w, state):
    """The exact gradient of `objective` at `params`, from its state."""
    n = X.shape[0]
    if params.kind == "sigmoid":
        residual = sample_w * (sigmoid(state) - y) / n
        grad_w = (residual @ X)[None, :] + 2.0 * l2_strength * params.weights
        grad_b = np.array([residual.sum()])
    else:
        residual = np.exp(state)
        residual[np.arange(n), y] -= 1.0
        residual *= (sample_w / n)[:, None]
        grad_w = residual.T @ X + 2.0 * l2_strength * params.weights
        grad_b = residual.sum(axis=0)
    return grad_w, grad_b


def loss_and_gradient(
    params: LinearModelParams, X, y, l2_strength: float, weight_per_class
):
    """Weighted mean cross-entropy plus l2 * ||W||^2 and its exact gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    sample_w = np.asarray(weight_per_class, dtype=np.float64)[y]
    loss, state = objective(params, X, y, l2_strength, sample_w)
    return loss, gradient(params, X, y, l2_strength, sample_w, state)


def fit_logistic(X, y, config: LogisticConfig = LogisticConfig()) -> LinearModelParams:
    """Full-batch gradient descent with Armijo backtracking from zeros.

    Stops when the gradient norm over all parameters falls below
    config.tol, when no productive step exists, or at max_iter. Trial
    steps compute only the objective; the gradient is computed once per
    accepted step, from that trial's kept state.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    n_classes = int(y.max()) + 1 if y.size else 0
    if n_classes < 2:
        raise DataError("logistic regression needs at least two classes")
    sample_w = class_weights(y, config.class_weight, n_classes)[y]
    l2_strength = 1.0 / config.C
    params = LinearModelParams.zeros(X.shape[1], n_classes, config)
    loss, state = objective(params, X, y, l2_strength, sample_w)
    grad_w, grad_b = gradient(params, X, y, l2_strength, sample_w, state)
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
            trial_loss, state = objective(trial, X, y, l2_strength, sample_w)
            if trial_loss <= loss - 1e-4 * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        params.weights, params.bias = trial.weights, trial.bias
        loss = trial_loss
        grad_w, grad_b = gradient(trial, X, y, l2_strength, sample_w, state)
        params.objective_trace.append(loss)
    return params


def to_dict(params: LinearModelParams) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": params.kind,
        "n_classes": params.n_classes,
        "weights": params.weights.tolist(),
        "bias": params.bias.tolist(),
        "config": asdict(params.config),
    }


def from_dict(data: dict, width: int) -> LinearModelParams:
    """The model in `data`, refused unless it reads rows `width` features wide."""
    check_header(data, "linear model", DataError, schema_version=SCHEMA_VERSION)
    kind = check("kind", data["kind"], one_of("sigmoid", "softmax"))
    n_classes = check("n_classes", data["n_classes"], whole(at_least=2))
    if kind == "sigmoid" and n_classes != 2:
        raise DataError(f"kind={kind!r} with n_classes={n_classes}: "
                        "a sigmoid model has 2 classes")
    weights = finite("weights", data["weights"])
    bias = finite("bias", data["bias"])
    rows = 1 if kind == "sigmoid" else n_classes
    if weights.shape != (rows, width) or bias.shape != (rows,):
        raise DataError(f"weights and bias of shapes {weights.shape} and {bias.shape}: a "
                        f"{kind} model over {n_classes} classes and {width} features has "
                        f"weights: {(rows, width)} and bias: {(rows,)}")
    return LinearModelParams(weights, bias, n_classes, kind,
                             stored(LogisticConfig, data["config"]))
