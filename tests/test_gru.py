"""Recurrent classifier: cell math, exact BPTT, training discipline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhtext import gru, metrics
from mhtext.errors import DataError


def tiny_params(rng, vocab=10, emb=4, hid=5, n_classes=3, dropout=0.0):
    config = gru.GruConfig(
        embedding_dim=emb, hidden_dim=hid, dropout=dropout
    )
    params = gru.init_params(vocab, n_classes, config, rng=rng)
    return params


def zero_params(vocab=6, emb=3, hid=4, n_classes=3, dropout=0.0):
    shapes = {
        "embedding": (vocab, emb),
        "w_update": (emb, hid), "u_update": (hid, hid), "b_update": (hid,),
        "w_reset": (emb, hid), "u_reset": (hid, hid), "b_reset": (hid,),
        "w_cand": (emb, hid), "u_cand": (hid, hid), "b_cand": (hid,),
        "w_out": (hid, n_classes), "b_out": (n_classes,),
    }
    return gru.GruParams(
        **{name: np.zeros(shape) for name, shape in shapes.items()},
        dropout=dropout,
    )


def flatten(params):
    return np.concatenate([t.ravel() for _, t in params.tensors()])


def unflatten(vector, template):
    out = template.copy()
    offset = 0
    for name, tensor in out.tensors():
        size = tensor.size
        tensor[...] = vector[offset : offset + size].reshape(tensor.shape)
        offset += size
    return out


def flatten_grads(params, grads):
    return np.concatenate(
        [grads[name].ravel() for name, _ in params.tensors()]
    )


def encode(vocab, tokens):
    """The library's id row of one document."""
    return vocab.encode_many([tokens])[0]


def lookup_encode_many(vocab, docs):
    """Test-local oracle: the per-token build that the coded one
    replaced. Looks every token up in `vocab.index` and fills one row at
    a time."""
    out = np.full((len(docs), vocab.max_len), gru.PAD_ID, dtype=np.int32)
    for row, tokens in zip(out, docs):
        ids = [vocab.index.get(t, gru.OOV_ID) for t in list(tokens)[: vocab.max_len]]
        row[: len(ids)] = ids
    return out


class TestVocabulary:
    DOCS = [
        ["sad", "sad", "low"],
        ["low", "happy", "sad"],
        ["happy", "calm"],
    ]

    def test_orders_by_count_then_token(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=4)
        # counts: sad 3, low 2, happy 2, calm 1 (dropped)
        assert vocab.index == {"sad": 2, "happy": 3, "low": 4}
        assert vocab.vocab_size == 5

    def test_min_freq_one_keeps_everything(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=1, max_len=4)
        assert "calm" in vocab.index

    def test_encode_pads_right(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=5)
        assert encode(vocab, ["sad", "low", "sad"]).tolist() == [2, 4, 2, 0, 0]

    def test_encode_truncates_right(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=2)
        assert encode(vocab, ["sad", "low", "happy"]).tolist() == [2, 4]

    def test_unknown_tokens_become_oov(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=3)
        assert encode(vocab, ["unseen", "sad"]).tolist() == [1, 2, 0]

    def test_empty_document_is_all_pad(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=4)
        assert encode(vocab, []).tolist() == [0, 0, 0, 0]

    def test_encode_many_stacks_rows(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=3)
        out = vocab.encode_many([["sad"], []])
        assert out.shape == (2, 3)
        assert out.dtype == np.int32

    @given(
        st.lists(
            st.lists(st.sampled_from(["sad", "low", "happy", "calm", "unseen"]),
                     max_size=9),
            max_size=6,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_many_equals_the_lookup_build(self, docs, max_len):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=max_len)
        got = vocab.encode_many(docs)
        want = lookup_encode_many(vocab, docs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_round_trip(self):
        vocab = gru.SeqVocabulary.build(self.DOCS, min_freq=2, max_len=7)
        again = gru.SeqVocabulary.from_dict(vocab.to_dict())
        assert again == vocab

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            gru.SeqVocabulary.build(self.DOCS, min_freq=0)
        with pytest.raises(ValueError):
            gru.SeqVocabulary.build(self.DOCS, max_len=0)


def gru_cell(x, h_prev, params):
    """One recurrence step for embedded inputs x (E,) or (B, E): the step
    forward and training take on every non-PAD position."""
    return gru._step(x, h_prev, params)[0]


class TestCell:
    def test_scalar_hand_recomputation(self):
        params = zero_params(vocab=3, emb=1, hid=1, n_classes=2)
        params.embedding[2, 0] = 0.7
        params.w_update[0, 0] = 0.4
        params.u_update[0, 0] = -0.3
        params.b_update[0] = 0.1
        params.w_reset[0, 0] = 0.6
        params.u_reset[0, 0] = 0.2
        params.b_reset[0] = -0.2
        params.w_cand[0, 0] = 0.9
        params.u_cand[0, 0] = 0.5
        params.b_cand[0] = 0.05
        x = params.embedding[np.array([2])]
        h_prev = np.array([[0.3]])
        got = gru_cell(x, h_prev, params)

        def sigmoid(v):
            return 1.0 / (1.0 + math.exp(-v))

        z = sigmoid(0.7 * 0.4 + 0.3 * -0.3 + 0.1)
        r = sigmoid(0.7 * 0.6 + 0.3 * 0.2 + -0.2)
        c = math.tanh(0.7 * 0.9 + (r * 0.3) * 0.5 + 0.05)
        expect = (1.0 - z) * 0.3 + z * c
        assert got[0, 0] == pytest.approx(expect, abs=1e-15)

    def test_zero_parameters_keep_hidden_at_zero(self):
        params = zero_params()
        logits = gru.forward(params, np.array([[2, 3, 4]]))
        assert np.array_equal(logits, np.zeros((1, 3)))

    def test_saturated_update_gate_freezes_the_hidden_state(self):
        params = zero_params(vocab=4, emb=2, hid=3, n_classes=2)
        params.b_update[:] = -np.inf  # update gate exactly 0
        h_prev = np.array([[0.4, -0.2, 0.9]])
        x = params.embedding[np.array([2])]
        got = gru_cell(x, h_prev, params)
        assert np.array_equal(got, h_prev)

    def test_large_negative_update_bias_nearly_freezes(self, rng):
        params = tiny_params(rng, hid=3, n_classes=2)
        params.b_update[:] = -40.0
        h_prev = rng.normal(0, 1, (2, 3))
        x = params.embedding[np.array([2, 3])]
        got = gru_cell(x, h_prev, params)
        assert np.allclose(got, h_prev, atol=1e-12)

    def test_forward_advances_by_the_cell(self, rng):
        """The checks above hold for forward and training: both step
        through the same cell, bit for bit, on every non-PAD position."""
        params = tiny_params(rng, hid=3, n_classes=2)
        batch = np.array([[2, 3, 0], [4, 0, 0], [5, 6, 7]])
        hidden = np.zeros((3, 3))
        for t in range(batch.shape[1]):
            stepped = gru_cell(params.embedding[batch[:, t]], hidden, params)
            hidden = np.where((batch[:, t] != gru.PAD_ID)[:, None], stepped, hidden)
        expect = hidden @ params.w_out + params.b_out
        assert np.array_equal(gru.forward(params, batch), expect)


class TestForward:
    def test_all_pad_rows_emit_the_output_bias(self, rng):
        params = tiny_params(rng)
        logits = gru.forward(params, np.zeros((3, 6), dtype=np.int64))
        assert np.array_equal(logits, np.tile(params.b_out, (3, 1)))

    @given(
        st.lists(
            st.lists(st.integers(1, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_trailing_pad_never_changes_logits(self, docs, extra):
        rng = np.random.default_rng(99)
        params = tiny_params(rng)
        width = max(len(d) for d in docs)
        batch = np.zeros((len(docs), width), dtype=np.int64)
        for i, doc in enumerate(docs):
            batch[i, : len(doc)] = doc
        padded = np.hstack(
            [batch, np.zeros((len(docs), extra), dtype=np.int64)]
        )
        assert np.array_equal(
            gru.forward(params, batch), gru.forward(params, padded)
        )

    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_trailing_pad_never_changes_loss_or_gradients(self, docs, extra, drop):
        rng = np.random.default_rng(99)
        params = tiny_params(rng, dropout=0.3 if drop else 0.0)
        width = max(len(d) for d in docs)
        batch = np.zeros((len(docs), width), dtype=np.int64)
        for i, doc in enumerate(docs):
            batch[i, : len(doc)] = doc
        padded = np.hstack(
            [batch, np.zeros((len(docs), extra), dtype=np.int64)]
        )
        y = rng.integers(0, 3, len(docs))
        wpc = np.array([1.0, 0.7, 1.3])
        mask = (rng.random((len(docs), 5)) >= 0.3).astype(np.float64) if drop else None
        loss, grads = gru.loss_and_gradients(params, batch, y, wpc, mask)
        loss_p, grads_p = gru.loss_and_gradients(params, padded, y, wpc, mask)
        assert np.float64(loss).tobytes() == np.float64(loss_p).tobytes()
        for name, _ in params.tensors():
            assert grads[name].tobytes() == grads_p[name].tobytes(), name

    def test_logit_shape_is_batch_by_classes(self, rng):
        params = tiny_params(rng, n_classes=4)
        logits = gru.forward(params, np.array([[2, 3], [4, 0]]))
        assert logits.shape == (2, 4)

    def test_evaluation_is_deterministic(self, rng):
        params = tiny_params(rng, dropout=0.5)
        batch = np.array([[2, 3, 4, 0], [5, 6, 0, 0]])
        a = gru.predict_scores(params, batch)
        b = gru.predict_scores(params, batch)
        assert np.array_equal(a, b)

    def test_chunked_scores_match_unchunked(self, rng):
        params = tiny_params(rng)
        batch = rng.integers(0, 10, (9, 5))
        assert np.array_equal(
            gru.predict_scores(params, batch, chunk=2),
            gru.predict_scores(params, batch, chunk=256),
        )

    def test_scores_are_probabilities(self, rng):
        params = tiny_params(rng)
        scores = gru.predict_scores(params, rng.integers(0, 10, (5, 4)))
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-12)


class TestLossAndGradients:
    def test_zero_parameters_lose_ln_k(self):
        params = zero_params(n_classes=3)
        batch = np.array([[2, 3], [4, 5]])
        loss, _ = gru.loss_and_gradients(
            params, batch, np.array([0, 2]), np.ones(3)
        )
        assert math.isclose(loss, math.log(3), rel_tol=0, abs_tol=1e-12)

    def test_doubling_class_weight_doubles_the_loss(self, rng):
        params = tiny_params(rng)
        batch = rng.integers(0, 10, (4, 6))
        y = np.full(4, 1)
        base, _ = gru.loss_and_gradients(params, batch, y, np.ones(3))
        doubled, _ = gru.loss_and_gradients(
            params, batch, y, np.array([1.0, 2.0, 1.0])
        )
        assert doubled == 2.0 * base

    def test_directional_derivatives_match(self, rng):
        params = tiny_params(rng, dropout=0.3)
        batch = rng.integers(0, 10, (4, 6))
        batch[0, 4:] = 0  # exercise the padding path
        y = np.array([0, 1, 2, 1])
        wpc = np.array([1.0, 0.7, 1.3])
        mask = (rng.random((4, 5)) >= 0.3).astype(np.float64)
        loss, grads = gru.loss_and_gradients(params, batch, y, wpc, mask)
        flat = flatten(params)
        grad_flat = flatten_grads(params, grads)
        eps = 1e-6
        for _ in range(6):
            direction = rng.normal(0, 1, flat.size)
            direction /= np.linalg.norm(direction)
            hi = gru.loss_and_gradients(
                unflatten(flat + eps * direction, params), batch, y, wpc, mask
            )[0]
            lo = gru.loss_and_gradients(
                unflatten(flat - eps * direction, params), batch, y, wpc, mask
            )[0]
            fd = (hi - lo) / (2 * eps)
            analytic = float(grad_flat @ direction)
            assert abs(fd - analytic) / max(1.0, abs(analytic)) < 1e-6

    def test_entrywise_finite_differences_match(self, rng):
        params = tiny_params(rng, dropout=0.3)
        batch = rng.integers(0, 10, (3, 6))
        y = np.array([0, 2, 1])
        wpc = np.ones(3)
        mask = (rng.random((3, 5)) >= 0.3).astype(np.float64)
        _, grads = gru.loss_and_gradients(params, batch, y, wpc, mask)
        flat = flatten(params)
        grad_flat = flatten_grads(params, grads)
        eps = 1e-5
        checked = 0
        probe_ids = rng.choice(flat.size, 120, replace=False)
        for idx in probe_ids:
            bumped = flat.copy()
            bumped[idx] += eps
            hi = gru.loss_and_gradients(
                unflatten(bumped, params), batch, y, wpc, mask
            )[0]
            bumped[idx] -= 2 * eps
            lo = gru.loss_and_gradients(
                unflatten(bumped, params), batch, y, wpc, mask
            )[0]
            fd = (hi - lo) / (2 * eps)
            scale = max(abs(fd), abs(grad_flat[idx]))
            if scale < 1e-6:  # below this central differences are noise
                continue
            assert abs(fd - grad_flat[idx]) / scale < 1e-4
            checked += 1
        assert checked >= 20

    def test_pad_steps_contribute_no_gradient(self, rng):
        params = tiny_params(rng)
        all_pad = np.zeros((2, 4), dtype=np.int64)
        _, grads = gru.loss_and_gradients(
            params, all_pad, np.array([0, 1]), np.ones(3)
        )
        for name, grad in grads.items():
            if name not in ("w_out", "b_out"):
                assert np.array_equal(grad, np.zeros_like(grad)), name


def toy_sequences(rng, n_per_class=40, max_len=8):
    """Two classes with disjoint marker token ranges plus shared noise."""
    rows, labels = [], []
    for label, pool in ((0, (2, 5)), (1, (6, 9))):
        for _ in range(n_per_class):
            length = int(rng.integers(3, max_len))
            ids = rng.integers(pool[0], pool[1] + 1, length)
            row = np.zeros(max_len, dtype=np.int32)
            row[:length] = ids
            rows.append(row)
            labels.append(label)
    order = rng.permutation(len(rows))
    x = np.stack(rows)[order]
    y = np.array(labels, dtype=np.int64)[order]
    return x, y


class TestTraining:
    def make_data(self, rng):
        x, y = toy_sequences(rng)
        split = int(0.75 * len(y))
        return gru.GruData(
            train_x=x[:split],
            train_y=y[:split],
            val_x=x[split:],
            val_y=y[split:],
            vocab_size=10,
            n_classes=2,
        )

    CONFIG = gru.GruConfig(
        embedding_dim=8,
        hidden_dim=8,
        learning_rate=1e-2,
        epochs=4,
        batch_size=8,
        dropout=0.0,
        class_weight=None,
    )
    SEED = 7

    def test_learns_separable_sequences(self, rng):
        data = self.make_data(rng)
        history: dict = {}
        params = gru.train(data, self.CONFIG, self.SEED, history)
        assert history["best_val_weighted_f1"] >= 0.95
        assert len(history["train_loss"]) == 4
        assert history["train_loss"][-1] < history["train_loss"][0]

    def test_training_is_deterministic(self, rng):
        data = self.make_data(rng)
        a = gru.train(data, self.CONFIG, self.SEED)
        b = gru.train(data, self.CONFIG, self.SEED)
        for (name, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb), name

    def test_zero_learning_rate_returns_the_init(self, rng):
        data = self.make_data(rng)
        config = gru.GruConfig(
            embedding_dim=8, hidden_dim=8, learning_rate=0.0,
            epochs=2, batch_size=16, dropout=0.0, class_weight=None,
        )
        params = gru.train(data, config, self.SEED)
        init = gru.init_params(10, 2, config, self.SEED)
        for (name, got), (_, want) in zip(params.tensors(), init.tensors()):
            assert np.array_equal(got, want), name

    def test_returned_params_hit_the_best_epoch_score(self, rng):
        data = self.make_data(rng)
        history: dict = {}
        params = gru.train(data, self.CONFIG, self.SEED, history)
        assert history["best_val_weighted_f1"] == max(
            history["val_weighted_f1"]
        )
        refit = metrics.weighted_f1(
            data.val_y, gru.predict(params, data.val_x), 2
        )
        assert refit == history["best_val_weighted_f1"]

    def test_padding_width_never_changes_training(self, rng):
        data = self.make_data(rng)

        def widened(x):
            return np.hstack([x, np.zeros((x.shape[0], 8), dtype=x.dtype)])

        wide = gru.GruData(
            train_x=widened(data.train_x), train_y=data.train_y,
            val_x=widened(data.val_x), val_y=data.val_y,
            vocab_size=data.vocab_size, n_classes=data.n_classes,
        )
        config = dataclasses.replace(self.CONFIG, dropout=0.25)
        history: dict = {}
        history_wide: dict = {}
        a = gru.train(data, config, self.SEED, history)
        b = gru.train(wide, config, self.SEED, history_wide)
        assert history == history_wide
        for (name, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert ta.tobytes() == tb.tobytes(), name

    def test_empty_training_split_rejected(self):
        data = gru.GruData(
            train_x=np.empty((0, 4), dtype=np.int32),
            train_y=np.empty(0, dtype=np.int64),
            val_x=np.empty((0, 4), dtype=np.int32),
            val_y=np.empty(0, dtype=np.int64),
            vocab_size=5,
            n_classes=2,
        )
        with pytest.raises(DataError):
            gru.train(data, self.CONFIG, self.SEED)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            gru.GruConfig(dropout=1.0)
        with pytest.raises(ValueError):
            gru.GruConfig(epochs=0)
        with pytest.raises(ValueError):
            gru.GruConfig(learning_rate=-0.1)


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path, rng):
        params = tiny_params(rng, dropout=0.25)
        vocab = gru.SeqVocabulary.build(
            [["sad", "sad"], ["low", "sad", "low"]], min_freq=1, max_len=6
        )
        stem = str(tmp_path / "model")
        gru.save(params, vocab, stem)
        again, vocab_again = gru.load(stem)
        assert vocab_again == vocab
        assert again.dropout == params.dropout
        for (name, got), (_, want) in zip(again.tensors(), params.tensors()):
            assert np.array_equal(got, want), name
        batch = rng.integers(0, 10, (4, 6))
        assert np.array_equal(
            gru.predict_scores(again, batch), gru.predict_scores(params, batch)
        )
