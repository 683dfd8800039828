"""A gated recurrent unit classifier, implemented directly in numpy.

Sequence handling: token id 0 is PAD and id 1 is OOV; encoded sequences
are right-truncated and right-padded to a fixed length, and PAD
positions never advance the hidden state, so appending padding cannot
change the logits.

Cell equations (row-vector convention, weights are input_dim x hidden):

    update    z = sigmoid(x W_z + h U_z + b_z)
    reset     r = sigmoid(x W_r + h U_r + b_r)
    candidate c = tanh(x W_c + (r * h) U_c + b_c)
    state     h' = (1 - z) * h + z * c

The classifier reads the final hidden state (inverted dropout applied
there and only there during training) through a dense softmax head.
Loss is the weighted mean cross-entropy; gradients are exact
backpropagation through time under a frozen dropout mask. Training uses
Adam (beta1 0.9, beta2 0.999, eps 1e-8) over shuffled mini-batches with
all tensors initialized uniform(-0.08, 0.08), and returns the epoch
checkpoint with the best validation weighted F1 (earliest on ties).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .linear import class_weights, log_softmax, sigmoid
from .metrics import weighted_f1
from .seeds import MODEL_DROPOUT, MODEL_INIT, MODEL_SHUFFLE, derive_seed

SCHEMA_VERSION = 1

PAD_ID = 0
OOV_ID = 1

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_INIT_SPAN = 0.08


@dataclass(frozen=True)
class SeqVocabulary:
    """Token-to-id mapping built on the training split only."""

    index: dict[str, int] = field(hash=False)
    max_len: int
    min_freq: int

    @property
    def vocab_size(self) -> int:
        return len(self.index) + 2  # PAD and OOV

    @classmethod
    def build(cls, documents, min_freq: int = 2, max_len: int = 64) -> "SeqVocabulary":
        if max_len < 1 or min_freq < 1:
            raise ValueError("max_len and min_freq must be positive")
        counts: Counter = Counter()
        for tokens in documents:
            counts.update(tokens)
        kept = sorted(
            (t for t, c in counts.items() if c >= min_freq),
            key=lambda t: (-counts[t], t),
        )
        return cls({t: i + 2 for i, t in enumerate(kept)}, max_len, min_freq)

    def encode(self, tokens) -> np.ndarray:
        """Fixed-length id sequence: truncate right, pad right with PAD."""
        ids = [self.index.get(t, OOV_ID) for t in list(tokens)[: self.max_len]]
        out = np.full(self.max_len, PAD_ID, dtype=np.int32)
        out[: len(ids)] = ids
        return out

    def encode_many(self, docs) -> np.ndarray:
        return np.stack([self.encode(d) for d in docs]) if docs else np.empty(
            (0, self.max_len), dtype=np.int32
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "index": dict(self.index),
            "max_len": self.max_len,
            "min_freq": self.min_freq,
            "pad_id": PAD_ID,
            "oov_id": OOV_ID,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SeqVocabulary":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise DataError("unsupported vocabulary payload")
        return cls(
            {str(k): int(v) for k, v in data["index"].items()},
            int(data["max_len"]),
            int(data["min_freq"]),
        )


@dataclass(frozen=True)
class GruConfig:
    embedding_dim: int = 160
    hidden_dim: int = 256
    learning_rate: float = 5e-4
    epochs: int = 5
    batch_size: int = 32
    dropout: float = 0.3
    class_weight: str | None = "balanced"
    seed: int = 0

    def __post_init__(self):
        if min(self.embedding_dim, self.hidden_dim, self.epochs, self.batch_size) < 1:
            raise ValueError("dimensions, epochs, and batch_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1): {self.dropout}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be nonnegative: {self.learning_rate}")


@dataclass
class GruParams:
    embedding: np.ndarray  # (V, E)
    w_update: np.ndarray  # (E, H)
    u_update: np.ndarray  # (H, H)
    b_update: np.ndarray  # (H,)
    w_reset: np.ndarray
    u_reset: np.ndarray
    b_reset: np.ndarray
    w_cand: np.ndarray
    u_cand: np.ndarray
    b_cand: np.ndarray
    w_out: np.ndarray  # (H, K)
    b_out: np.ndarray  # (K,)
    dropout: float = 0.0

    _ORDER = (
        "embedding",
        "w_update", "u_update", "b_update",
        "w_reset", "u_reset", "b_reset",
        "w_cand", "u_cand", "b_cand",
        "w_out", "b_out",
    )

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """Parameter tensors in the fixed documented order."""
        return [(name, getattr(self, name)) for name in self._ORDER]

    def copy(self) -> "GruParams":
        return GruParams(
            **{name: tensor.copy() for name, tensor in self.tensors()},
            dropout=self.dropout,
        )

    @property
    def hidden_dim(self) -> int:
        return self.w_update.shape[1]

    @property
    def n_classes(self) -> int:
        return self.b_out.shape[0]


def init_params(
    vocab_size: int, n_classes: int, config: GruConfig, rng=None
) -> GruParams:
    """All tensors drawn uniform(-0.08, 0.08) in the documented order."""
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.seed, MODEL_INIT))
    emb, hid = config.embedding_dim, config.hidden_dim

    def draw(*shape):
        return rng.uniform(-_INIT_SPAN, _INIT_SPAN, shape)

    return GruParams(
        embedding=draw(vocab_size, emb),
        w_update=draw(emb, hid), u_update=draw(hid, hid), b_update=draw(hid),
        w_reset=draw(emb, hid), u_reset=draw(hid, hid), b_reset=draw(hid),
        w_cand=draw(emb, hid), u_cand=draw(hid, hid), b_cand=draw(hid),
        w_out=draw(hid, n_classes), b_out=draw(n_classes),
        dropout=config.dropout,
    )


def gru_cell(x, h_prev, params: GruParams):
    """One recurrence step for embedded inputs x (E,) or (B, E)."""
    update = sigmoid(x @ params.w_update + h_prev @ params.u_update + params.b_update)
    reset = sigmoid(x @ params.w_reset + h_prev @ params.u_reset + params.b_reset)
    cand = np.tanh(x @ params.w_cand + (reset * h_prev) @ params.u_cand + params.b_cand)
    return (1.0 - update) * h_prev + update * cand


def _run_forward(params: GruParams, batch: np.ndarray, keep_cache: bool):
    batch = np.atleast_2d(np.asarray(batch, dtype=np.int64))
    n_rows, seq_len = batch.shape
    hidden = np.zeros((n_rows, params.hidden_dim))
    cache = []
    for t in range(seq_len):
        ids = batch[:, t]
        x = params.embedding[ids]
        update = sigmoid(x @ params.w_update + hidden @ params.u_update + params.b_update)
        reset = sigmoid(x @ params.w_reset + hidden @ params.u_reset + params.b_reset)
        cand = np.tanh(
            x @ params.w_cand + (reset * hidden) @ params.u_cand + params.b_cand
        )
        advanced = (1.0 - update) * hidden + update * cand
        mask = (ids != PAD_ID).astype(np.float64)[:, None]
        new_hidden = mask * advanced + (1.0 - mask) * hidden
        if keep_cache:
            cache.append((ids, hidden, update, reset, cand, mask))
        hidden = new_hidden
    return batch, hidden, cache


def forward(params: GruParams, batch, train: bool = False, dropout_mask=None) -> np.ndarray:
    """Class logits for a batch of encoded sequences.

    In training mode with a positive dropout rate, dropout_mask must be
    a binary (batch, hidden) array; inverted scaling keeps the
    expectation unchanged. Evaluation mode applies no dropout.
    """
    _, hidden, _ = _run_forward(params, batch, keep_cache=False)
    if train and params.dropout > 0.0:
        if dropout_mask is None:
            raise ValueError("training forward with dropout needs a dropout mask")
        hidden = hidden * dropout_mask / (1.0 - params.dropout)
    return hidden @ params.w_out + params.b_out


def loss_and_gradients(
    params: GruParams, batch_x, batch_y, weight_per_class, dropout_mask=None
):
    """Weighted mean cross-entropy and exact BPTT gradients.

    The dropout mask (binary, batch x hidden) is frozen for the whole
    call so the returned gradients differentiate exactly the computed
    loss; passing None disables dropout for the call.
    """
    batch_x, final_hidden, cache = _run_forward(params, batch_x, keep_cache=True)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    n_rows = batch_x.shape[0]
    sample_w = np.asarray(weight_per_class, dtype=np.float64)[batch_y]
    keep = 1.0 - params.dropout
    if dropout_mask is not None and params.dropout > 0.0:
        dropped = final_hidden * dropout_mask / keep
    else:
        dropped = final_hidden
        dropout_mask = None
    logits = dropped @ params.w_out + params.b_out
    logp = log_softmax(logits)
    rows = np.arange(n_rows)
    loss = float(-(sample_w @ logp[rows, batch_y])) / n_rows

    grads = {name: np.zeros_like(tensor) for name, tensor in params.tensors()}
    dlogits = np.exp(logp)
    dlogits[rows, batch_y] -= 1.0
    dlogits *= (sample_w / n_rows)[:, None]
    grads["w_out"] += dropped.T @ dlogits
    grads["b_out"] += dlogits.sum(axis=0)
    dhidden = dlogits @ params.w_out.T
    if dropout_mask is not None:
        dhidden = dhidden * dropout_mask / keep
    for ids, h_prev, update, reset, cand, mask in reversed(cache):
        d_advanced = dhidden * mask
        d_passthrough = dhidden * (1.0 - mask)
        d_update = d_advanced * (cand - h_prev)
        d_cand = d_advanced * update
        d_prev = d_advanced * (1.0 - update)
        da_cand = d_cand * (1.0 - cand * cand)
        da_update = d_update * update * (1.0 - update)
        x = params.embedding[ids]
        reset_h = reset * h_prev
        grads["w_cand"] += x.T @ da_cand
        grads["u_cand"] += reset_h.T @ da_cand
        grads["b_cand"] += da_cand.sum(axis=0)
        through_u_cand = da_cand @ params.u_cand.T
        d_reset = through_u_cand * h_prev
        d_prev = d_prev + through_u_cand * reset
        da_reset = d_reset * reset * (1.0 - reset)
        grads["w_update"] += x.T @ da_update
        grads["u_update"] += h_prev.T @ da_update
        grads["b_update"] += da_update.sum(axis=0)
        grads["w_reset"] += x.T @ da_reset
        grads["u_reset"] += h_prev.T @ da_reset
        grads["b_reset"] += da_reset.sum(axis=0)
        d_prev = d_prev + da_update @ params.u_update.T + da_reset @ params.u_reset.T
        dx = da_cand @ params.w_cand.T + da_update @ params.w_update.T + da_reset @ params.w_reset.T
        np.add.at(grads["embedding"], ids, dx)
        dhidden = d_prev + d_passthrough
    return loss, grads


def predict_scores(params: GruParams, batch_x, chunk: int = 256) -> np.ndarray:
    """Softmax class probabilities in evaluation mode."""
    batch_x = np.atleast_2d(np.asarray(batch_x, dtype=np.int64))
    outputs = []
    for start in range(0, batch_x.shape[0], chunk):
        logits = forward(params, batch_x[start : start + chunk])
        outputs.append(np.exp(log_softmax(logits)))
    return np.concatenate(outputs) if outputs else np.empty((0, params.n_classes))


def predict(params: GruParams, batch_x) -> np.ndarray:
    return np.argmax(predict_scores(params, batch_x), axis=1)


@dataclass(frozen=True)
class GruData:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    vocab_size: int
    n_classes: int


class _Adam:
    def __init__(self, params: GruParams, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first = {n: np.zeros_like(t) for n, t in params.tensors()}
        self.second = {n: np.zeros_like(t) for n, t in params.tensors()}

    def step(self, params: GruParams, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        bias1 = 1.0 - _ADAM_BETA1 ** self.step_count
        bias2 = 1.0 - _ADAM_BETA2 ** self.step_count
        for name, tensor in params.tensors():
            grad = grads[name]
            m = self.first[name]
            v = self.second[name]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * grad
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * grad * grad
            tensor -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)


def train(data: GruData, config: GruConfig, history: dict | None = None) -> GruParams:
    """Adam training with per-epoch validation checkpointing.

    Returns the parameters from the epoch with the highest validation
    weighted F1; ties keep the earliest epoch. Seeds for init, shuffling,
    and dropout derive from config.seed by fixed offsets.
    """
    if data.train_y.size == 0:
        raise DataError("cannot train on an empty training split")
    weight_per_class = class_weights(data.train_y, config.class_weight, data.n_classes)
    params = init_params(data.vocab_size, data.n_classes, config)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, MODEL_SHUFFLE))
    dropout_rng = np.random.default_rng(derive_seed(config.seed, MODEL_DROPOUT))
    optimizer = _Adam(params, config.learning_rate)
    best_params = params.copy()
    best_f1 = -np.inf
    epoch_losses: list[float] = []
    epoch_f1s: list[float] = []
    n_train = data.train_y.size
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, config.batch_size):
            chosen = order[start : start + config.batch_size]
            mask = None
            if config.dropout > 0.0:
                mask = (
                    dropout_rng.random((chosen.size, config.hidden_dim))
                    >= config.dropout
                ).astype(np.float64)
            loss, grads = loss_and_gradients(
                params,
                data.train_x[chosen],
                data.train_y[chosen],
                weight_per_class,
                mask,
            )
            optimizer.step(params, grads)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
        val_f1 = weighted_f1(data.val_y, predict(params, data.val_x), data.n_classes)
        epoch_f1s.append(val_f1)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_params = params.copy()
    if history is not None:
        history["train_loss"] = epoch_losses
        history["val_weighted_f1"] = epoch_f1s
        history["best_val_weighted_f1"] = float(best_f1)
    return best_params


def to_dict(params: GruParams) -> dict[str, np.ndarray]:
    """The arrays of the npz sidecar: every tensor plus a meta record."""
    meta = {
        "schema_version": SCHEMA_VERSION,
        "dropout": params.dropout,
        "shapes": {n: list(t.shape) for n, t in params.tensors()},
    }
    return {"meta": np.array(json.dumps(meta, sort_keys=True)), **dict(params.tensors())}


def from_dict(arrays) -> GruParams:
    meta = json.loads(str(arrays["meta"]))
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise DataError("unsupported recurrent model payload")
    return GruParams(
        **{name: arrays[name] for name in GruParams._ORDER},
        dropout=float(meta["dropout"]),
    )


def save(params: GruParams, vocab: SeqVocabulary, stem: str) -> None:
    """Write <stem>.npz (tensors plus a meta record) and <stem>.vocab.json."""
    np.savez(stem + ".npz", **to_dict(params))
    with open(stem + ".vocab.json", "w", encoding="utf-8") as handle:
        json.dump(vocab.to_dict(), handle, sort_keys=True, indent=2)


def load(stem: str) -> tuple[GruParams, SeqVocabulary]:
    with np.load(stem + ".npz") as arrays:
        params = from_dict(arrays)
    with open(stem + ".vocab.json", encoding="utf-8") as handle:
        vocab = SeqVocabulary.from_dict(json.load(handle))
    return params, vocab
