"""Logistic regression: exact gradients, optimizer behavior, invariances."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

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


def masked_sigmoid(z):
    """Test-local reference: the two-branch sigmoid, each branch computed
    only on its own mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def assert_same_bits(got, want):
    """Equal shape, dtype and bits, except that a NaN need only be a NaN."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def fused_loss_and_gradient(params, X, y, l2_strength, weight_per_class):
    """Test-local oracle: the loss and gradient in one pass, as the
    solver computed them on every trial before trials kept only the
    objective's state."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    sample_w = np.asarray(weight_per_class, dtype=np.float64)[y]
    if params.kind == "sigmoid":
        z = X @ params.weights[0] + params.bias[0]
        ce = np.logaddexp(0.0, z) - y * z
        data_loss = float(sample_w @ ce) / n
        residual = sample_w * (linear.sigmoid(z) - y) / n
        grad_w = (residual @ X)[None, :] + 2.0 * l2_strength * params.weights
        grad_b = np.array([residual.sum()])
    else:
        logits = X @ params.weights.T + params.bias
        logp = linear.log_softmax(logits)
        data_loss = float(-(sample_w @ logp[np.arange(n), y])) / n
        residual = np.exp(logp)
        residual[np.arange(n), y] -= 1.0
        residual *= (sample_w / n)[:, None]
        grad_w = residual.T @ X + 2.0 * l2_strength * params.weights
        grad_b = residual.sum(axis=0)
    penalty = l2_strength * float(np.sum(params.weights * params.weights))
    return data_loss + penalty, (grad_w, grad_b)


def gradient_every_trial_fit(X, y, config):
    """Test-local oracle: the Armijo loop that computed a gradient on
    every trial step, accepted or not."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    weight_per_class = linear.class_weights(y, config.class_weight, n_classes)
    l2_strength = 1.0 / config.C
    params = linear.LinearModelParams.zeros(X.shape[1], n_classes, config)
    loss, (grad_w, grad_b) = fused_loss_and_gradient(
        params, X, y, l2_strength, weight_per_class
    )
    params.objective_trace.append(loss)
    step = 1.0
    for _ in range(config.max_iter):
        grad_sq = float(np.sum(grad_w * grad_w) + grad_b @ grad_b)
        if np.sqrt(grad_sq) < config.tol:
            break
        step = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(60):
            trial = linear.LinearModelParams(
                params.weights - step * grad_w,
                params.bias - step * grad_b,
                params.n_classes,
                params.kind,
                config,
            )
            trial_loss, trial_grad = fused_loss_and_gradient(
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


class TestSigmoid:
    EDGES = [0.0, -0.0, 709.0, -709.0, 746.0, -746.0, np.inf, -np.inf]

    @given(arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(EDGES),
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_masked_two_branch_form_bitwise(self, z):
        assert_same_bits(linear.sigmoid(z), masked_sigmoid(z))

    def test_edges_and_nan(self):
        z = np.array(self.EDGES + [np.nan, -np.nan])
        got = linear.sigmoid(z)
        assert_same_bits(got, masked_sigmoid(z))
        assert got[:2].tolist() == [0.5, 0.5]
        assert got[-4:-2].tolist() == [1.0, 0.0]
        assert np.isnan(got[-2:]).all()


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


@st.composite
def logistic_problems(draw):
    """A small dense or sparse problem with every class present, and a
    config across the solver's regimes: tiny and huge C, one iteration,
    tol 0, class weights, and feature scales where no step is
    productive."""
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(n_classes, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 10.0, 1e10])),
                   (n, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        X[rng.random(X.shape) < 0.6] = 0.0  # mostly zero, as TF-IDF rows are
    y = rng.integers(0, n_classes, n)
    y[rng.permutation(n)[:n_classes]] = np.arange(n_classes)
    config = linear.LogisticConfig(
        C=draw(st.sampled_from([1e-3, 1.0, 100.0, 1e12])),
        class_weight=draw(st.sampled_from([None, "balanced"])),
        max_iter=draw(st.sampled_from([1, 2, 7, 40])),
        tol=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
    )
    return X, y, config


class TestGradientOnlyOnAcceptedSteps:
    """fit_logistic computes the objective on every trial and the
    gradient only on the accepted one; the loop that computed both on
    every trial is the bitwise oracle."""

    def assert_same_fit(self, got, want):
        assert_same_bits(got.weights, want.weights)
        assert_same_bits(got.bias, want.bias)
        assert_same_bits(np.array(got.objective_trace), np.array(want.objective_trace))

    @given(logistic_problems())
    @settings(max_examples=150, deadline=None)
    def test_fit_matches_the_gradient_every_trial_loop_bitwise(self, problem):
        X, y, config = problem
        self.assert_same_fit(linear.fit_logistic(X, y, config),
                             gradient_every_trial_fit(X, y, config))

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_fit_without_a_productive_step_matches(self, n_classes):
        # on features of scale 1e10 even a step of 2**-58 overshoots, so
        # the first line search accepts nothing and the fit stops
        X = np.random.default_rng(0).normal(0.0, 1e10, (12, 3))
        y = np.arange(12) % n_classes
        config = linear.LogisticConfig(tol=0.0, max_iter=50)
        got = linear.fit_logistic(X, y, config)
        assert len(got.objective_trace) == 1
        self.assert_same_fit(got, gradient_every_trial_fit(X, y, config))

    @given(logistic_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_objective_then_gradient_is_the_fused_pass(self, problem, seed):
        X, y, config = problem
        n_classes = int(y.max()) + 1
        params = random_params(np.random.default_rng(seed), X.shape[1], n_classes)
        wpc = linear.class_weights(y, config.class_weight, n_classes)
        loss, (grad_w, grad_b) = linear.loss_and_gradient(params, X, y, 1.0 / config.C, wpc)
        want_loss, (want_w, want_b) = fused_loss_and_gradient(
            params, X, y, 1.0 / config.C, wpc)
        assert_same_bits(np.array(loss), np.array(want_loss))
        assert_same_bits(grad_w, want_w)
        assert_same_bits(grad_b, want_b)
