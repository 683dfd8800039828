"""Logistic regression: exact gradients, optimizer behavior, invariances."""

import json
import math

import numpy as np
import pytest

from mhtext import linear
from mhtext.errors import DataError


def finite_diff_loss(params, X, y, l2, wpc, eps=1e-6):
    """Test-local oracle: central differences of the scalar loss."""
    grad_w = np.zeros_like(params.weights)
    grad_b = np.zeros_like(params.bias)
    def loss_at(w, b):
        probe = linear.LinearModelParams(w, b, params.n_classes, params.kind)
        return linear.loss_and_gradient(probe, X, y, l2, wpc)[0]
    for idx in np.ndindex(params.weights.shape):
        w = params.weights.copy()
        w[idx] += eps
        hi = loss_at(w, params.bias)
        w[idx] -= 2 * eps
        lo = loss_at(w, params.bias)
        grad_w[idx] = (hi - lo) / (2 * eps)
    for i in range(params.bias.size):
        b = params.bias.copy()
        b[i] += eps
        hi = loss_at(params.weights, b)
        b[i] -= 2 * eps
        lo = loss_at(params.weights, b)
        grad_b[i] = (hi - lo) / (2 * eps)
    return grad_w, grad_b


def random_params(rng, n_features, n_classes, scale=0.5):
    kind = "sigmoid" if n_classes == 2 else "softmax"
    rows = 1 if kind == "sigmoid" else n_classes
    return linear.LinearModelParams(
        rng.normal(0, scale, (rows, n_features)),
        rng.normal(0, scale, rows),
        n_classes,
        kind,
    )


class TestClassWeights:
    def test_balanced_on_even_counts_is_ones(self):
        labels = [0] * 50 + [1] * 50
        assert linear.class_weights(labels, "balanced").tolist() == [1.0, 1.0]

    def test_balanced_on_75_25(self):
        labels = [0] * 75 + [1] * 25
        w = linear.class_weights(labels, "balanced")
        assert w == pytest.approx([100 / 150, 100 / 50])
        assert w[1] == 2.0

    def test_none_mode_gives_ones(self):
        assert linear.class_weights([0, 1, 1], None).tolist() == [1.0, 1.0]
        assert linear.class_weights([0, 1, 1], "none").tolist() == [1.0, 1.0]

    def test_missing_class_rejected_when_balanced(self):
        with pytest.raises(DataError):
            linear.class_weights([0, 0, 2, 2], "balanced", n_classes=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            linear.class_weights([0, 1], "inverse")


class TestProbabilities:
    def test_zero_binary_params_give_half(self):
        params = linear.LinearModelParams.zeros(3, 2)
        proba = linear.predict_proba(params, np.ones((4, 3)))
        assert np.array_equal(proba, np.full((4, 2), 0.5))

    def test_zero_four_class_params_give_quarter(self):
        params = linear.LinearModelParams.zeros(2, 4)
        proba = linear.predict_proba(params, np.ones((3, 2)))
        assert proba == pytest.approx(np.full((3, 4), 0.25), abs=1e-15)

    def test_rows_sum_to_one(self, rng):
        params = random_params(rng, 5, 3)
        proba = linear.predict_proba(params, rng.normal(0, 1, (20, 5)))
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba >= 0)

    def test_softmax_shift_invariance_exact_for_dyadic_logits(self):
        # Logits and the shift are dyadic, so adding the shift is exact
        # in binary floating point and the outputs must match bitwise.
        base = linear.LinearModelParams(
            np.array([[0.5], [1.0], [-0.25]]), np.zeros(3), 3, "softmax"
        )
        shifted = linear.LinearModelParams(
            base.weights.copy(), np.full(3, 2.0), 3, "softmax"
        )
        x = np.array([1.0])
        assert np.array_equal(
            linear.predict_proba(base, x), linear.predict_proba(shifted, x)
        )

    def test_single_vector_input(self):
        params = linear.LinearModelParams.zeros(2, 2)
        proba = linear.predict_proba(params, np.array([1.0, 2.0]))
        assert proba.shape == (2,)

    def test_predict_breaks_ties_low(self):
        params = linear.LinearModelParams.zeros(2, 3)
        assert linear.predict(params, np.ones((2, 2))).tolist() == [0, 0]


class TestLossAndGradient:
    def test_zero_binary_params_lose_ln2(self):
        params = linear.LinearModelParams.zeros(4, 2)
        X = np.random.default_rng(0).normal(0, 1, (10, 4))
        y = np.array([0, 1] * 5)
        loss, _ = linear.loss_and_gradient(params, X, y, 0.0, np.ones(2))
        assert math.isclose(loss, math.log(2), rel_tol=0, abs_tol=1e-15)

    def test_zero_multiclass_params_lose_lnk(self):
        params = linear.LinearModelParams.zeros(3, 4)
        X = np.random.default_rng(1).normal(0, 1, (8, 3))
        y = np.array([0, 1, 2, 3] * 2)
        loss, _ = linear.loss_and_gradient(params, X, y, 0.0, np.ones(4))
        assert math.isclose(loss, math.log(4), rel_tol=0, abs_tol=1e-14)

    def test_penalty_gradient_exact_on_zero_features(self):
        # With X = 0 the data term contributes nothing to grad_w, leaving
        # exactly the 2 * l2 * W ridge term.
        rng = np.random.default_rng(2)
        for n_classes in (2, 3):
            params = random_params(rng, 4, n_classes)
            X = np.zeros((6, 4))
            y = rng.integers(0, n_classes, 6)
            y[: n_classes] = np.arange(n_classes)
            _, (grad_w, _) = linear.loss_and_gradient(
                params, X, y, 0.7, np.ones(n_classes)
            )
            assert np.array_equal(grad_w, 2.0 * 0.7 * params.weights)

    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_gradient_matches_finite_differences(self, n_classes, rng):
        X = rng.normal(0, 1, (12, 4))
        y = rng.integers(0, n_classes, 12)
        y[:n_classes] = np.arange(n_classes)
        wpc = linear.class_weights(y, "balanced", n_classes)
        params = random_params(rng, 4, n_classes)
        _, (gw, gb) = linear.loss_and_gradient(params, X, y, 0.3, wpc)
        fw, fb = finite_diff_loss(params, X, y, 0.3, wpc)
        for got, want in ((gw, fw), (gb, fb)):
            scale = np.maximum(np.abs(got), np.abs(want))
            mask = scale > 1e-7  # below this FD is all roundoff
            rel = np.abs(got - want)[mask] / scale[mask]
            assert rel.max() < 1e-6

    def test_directional_derivative_matches(self, rng):
        X = rng.normal(0, 1, (15, 3))
        y = rng.integers(0, 3, 15)
        y[:3] = [0, 1, 2]
        params = random_params(rng, 3, 3)
        wpc = np.ones(3)
        _, (gw, gb) = linear.loss_and_gradient(params, X, y, 0.2, wpc)
        for _ in range(5):
            dw = rng.normal(0, 1, gw.shape)
            db = rng.normal(0, 1, gb.shape)
            eps = 1e-6
            def at(t):
                probe = linear.LinearModelParams(
                    params.weights + t * dw, params.bias + t * db, 3, "softmax"
                )
                return linear.loss_and_gradient(probe, X, y, 0.2, wpc)[0]
            fd = (at(eps) - at(-eps)) / (2 * eps)
            analytic = float(np.sum(gw * dw) + gb @ db)
            assert abs(fd - analytic) / max(1.0, abs(analytic)) < 1e-6


class TestFit:
    def test_separable_1d_reaches_full_accuracy(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        params = linear.fit_logistic(X, y, linear.LogisticConfig(C=10.0))
        assert linear.predict(params, X).tolist() == y.tolist()

    def test_objective_trace_never_increases(self, rng):
        X = rng.normal(0, 1, (40, 5))
        y = (X[:, 0] + 0.3 * rng.normal(0, 1, 40) > 0).astype(int)
        y[:2] = [0, 1]
        params = linear.fit_logistic(X, y, linear.LogisticConfig(C=5.0))
        trace = np.array(params.objective_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 0)

    def test_duplicating_the_dataset_changes_nothing(self, rng):
        X = rng.normal(0, 1, (30, 4))
        y = (X[:, 1] > 0).astype(int)
        y[:2] = [0, 1]
        cfg = linear.LogisticConfig(C=2.0, class_weight="balanced")
        once = linear.fit_logistic(X, y, cfg)
        twice = linear.fit_logistic(
            np.vstack([X, X]), np.concatenate([y, y]), cfg
        )
        # The objective is a weighted mean, so duplication leaves it
        # unchanged up to summation order; exact bitwise equality is not
        # guaranteed by BLAS.
        assert np.allclose(once.weights, twice.weights, rtol=0, atol=1e-9)
        assert np.allclose(once.bias, twice.bias, rtol=0, atol=1e-9)
        probe = rng.normal(0, 1, (50, 4))
        assert np.array_equal(
            linear.predict(once, probe), linear.predict(twice, probe)
        )

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_fitted_loss_beats_random_probes(self, n_classes, rng):
        X = rng.normal(0, 1, (25, 3))
        y = rng.integers(0, n_classes, 25)
        y[:n_classes] = np.arange(n_classes)
        cfg = linear.LogisticConfig(C=1.0)
        params = linear.fit_logistic(X, y, cfg)
        wpc = np.ones(n_classes)
        best, _ = linear.loss_and_gradient(params, X, y, 1.0, wpc)
        for _ in range(100):
            probe = linear.LinearModelParams(
                params.weights + rng.normal(0, 0.05, params.weights.shape),
                params.bias + rng.normal(0, 0.05, params.bias.shape),
                n_classes,
                params.kind,
            )
            probed, _ = linear.loss_and_gradient(probe, X, y, 1.0, wpc)
            assert probed >= best - 1e-9

    def test_multiclass_blobs_fit(self, rng):
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        X = np.vstack([c + rng.normal(0, 0.3, (20, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 20)
        params = linear.fit_logistic(X, y, linear.LogisticConfig(C=100.0))
        assert params.kind == "softmax"
        assert (linear.predict(params, X) == y).mean() == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            linear.fit_logistic(np.ones((3, 2)), np.zeros(3, dtype=int))

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            linear.LogisticConfig(C=0.0)
        with pytest.raises(ValueError):
            linear.LogisticConfig(C=-1.0)

    def test_fit_is_deterministic(self, rng):
        X = rng.normal(0, 1, (20, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        a = linear.fit_logistic(X, y, linear.LogisticConfig(C=3.0))
        b = linear.fit_logistic(X, y, linear.LogisticConfig(C=3.0))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, rng):
        X = rng.normal(0, 1, (20, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        params = linear.fit_logistic(
            X, y, linear.LogisticConfig(C=4.0, class_weight="balanced")
        )
        again = linear.from_dict(json.loads(json.dumps(linear.to_dict(params))))
        assert again.kind == params.kind
        assert again.config == params.config
        assert np.array_equal(again.weights, params.weights)
        assert np.array_equal(
            linear.predict_proba(again, X), linear.predict_proba(params, X)
        )

    def test_bad_schema_rejected(self):
        with pytest.raises(DataError):
            linear.from_dict({"schema_version": 99})
