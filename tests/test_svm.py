"""One-vs-one SVM: kernel values, both solvers, vote semantics."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhtext import svm
from mhtext.errors import DataError, UsageError

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def objective(w, b, X, y_signed, effective_c) -> float:
    return svm.hinge_objective(w, b, X, y_signed, effective_c)[0]


def recomputing_subgradient(w, b, X, y_signed, effective_c):
    """Test-local oracle: the subgradient that computed its own margins."""
    margins = y_signed * (X @ w + b)
    viol = margins < 1.0
    coeff = effective_c[viol] * y_signed[viol]
    return w - coeff @ X[viol], -float(coeff.sum())


def full_evaluation_primal(X, y_signed, effective_c, C, max_epochs, tol):
    """Test-local oracle: the primal loop that evaluated the full
    objective for every trial step."""
    n = X.shape[0]
    lam = 1.0 / (C * n)
    w = np.zeros(X.shape[1])
    b = 0.0
    obj = objective(w, b, X, y_signed, effective_c)
    trace = [obj]
    for epoch in range(1, max_epochs + 1):
        grad_w, grad_b = recomputing_subgradient(w, b, X, y_signed, effective_c)
        step = 1.0 / (lam * (epoch + 1))
        accepted = False
        for _ in range(60):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            obj_new = objective(w_new, b_new, X, y_signed, effective_c)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improved = obj - obj_new
        w, b, obj = w_new, b_new, obj_new
        trace.append(obj)
        if improved <= tol * max(1.0, abs(obj)):
            break
    return w, b, trace


def recomputing_margins_primal(X, y_signed, effective_c, C, max_epochs, tol,
                               subgradient=recomputing_subgradient):
    """Test-local oracle: the screening primal loop whose subgradient
    recomputed the margins of the point it had just accepted."""
    n = X.shape[0]
    lam = 1.0 / (C * n)
    w = np.zeros(X.shape[1])
    b = 0.0
    obj = objective(w, b, X, y_signed, effective_c)
    trace = [obj]
    for epoch in range(1, max_epochs + 1):
        grad_w, grad_b = subgradient(w, b, X, y_signed, effective_c)
        step = 1.0 / (lam * (epoch + 1))
        accepted = False
        for _ in range(60):
            w_new = w - step * grad_w
            if 0.5 * float(w_new @ w_new) > obj:
                step *= 0.5
                continue
            b_new = b - step * grad_b
            obj_new = objective(w_new, b_new, X, y_signed, effective_c)
            if obj_new <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improved = obj - obj_new
        w, b, obj = w_new, b_new, obj_new
        trace.append(obj)
        if improved <= tol * max(1.0, abs(obj)):
            break
    return w, b, trace


def numpy_scalar_dual(gram, y_signed, box, max_epochs, tol, seed):
    """Test-local oracle: the dual coordinate loop on numpy scalars,
    reading each column of the Gram matrix in place."""
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


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def signed_problems(draw, max_rows=16):
    """Rows, +-1 labels with both signs present, and per-row C values
    (class-weighted, so they differ between the signs)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_rows))
    X = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 10.0])),
                   (n, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        X[rng.random(X.shape) < 0.6] = 0.0
    y_signed = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y_signed[:2] = [1.0, -1.0]
    C = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e12]))
    weights = {1.0: draw(st.sampled_from([1.0, 0.5, 2.5])), -1.0: 1.0}
    effective_c = C * np.array([weights[s] for s in y_signed])
    return rng, X, y_signed, effective_c, C


class TestKernels:
    def test_rbf_of_identical_vectors_is_one(self):
        spec = svm.SvmConfig(kernel="rbf", gamma=0.7)
        assert svm.kernel_matrix(spec, [1.0, 2.0], [1.0, 2.0])[0, 0] == 1.0

    def test_rbf_hand_value(self):
        spec = svm.SvmConfig(kernel="rbf", gamma=2.0)
        got = svm.kernel_matrix(spec, [0.0, 0.0], [1.0, 0.0])[0, 0]
        assert got == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_linear_is_the_dot_product(self):
        spec = svm.SvmConfig(kernel="linear")
        assert svm.kernel_matrix(spec, [1.0, 2.0], [3.0, 4.0])[0, 0] == 11.0

    def test_polynomial_hand_value(self):
        spec = svm.SvmConfig(kernel="polynomial", degree=2, coef0=1.0)
        assert svm.kernel_matrix(spec, [1.0, 0.0], [1.0, 1.0])[0, 0] == 4.0

    def test_sigmoid_is_tanh_of_affine_inner(self):
        spec = svm.SvmConfig(kernel="sigmoid", alpha=0.5, coef0=0.25)
        got = svm.kernel_matrix(spec, [2.0, 0.0], [1.0, 5.0])[0, 0]
        assert got == pytest.approx(math.tanh(0.5 * 2.0 + 0.25), abs=1e-15)

    def test_matrix_shape_and_symmetry(self, rng):
        X = rng.normal(0, 1, (6, 3))
        gram = svm.kernel_matrix(svm.SvmConfig(kernel="rbf", gamma=1.0), X, X)
        assert gram.shape == (6, 6)
        assert np.allclose(gram, gram.T, atol=1e-15)
        # self-distance carries a few-ulp residue for non-dyadic vectors
        assert np.allclose(np.diag(gram), 1.0, rtol=0, atol=1e-12)
        assert np.all(gram > 0) and np.all(gram <= 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            svm.kernel_matrix(svm.SvmConfig(), np.ones((2, 3)), np.ones((2, 4)))

    def test_gamma_auto_is_reciprocal_dimension(self):
        spec = svm.SvmConfig(kernel="rbf", gamma="auto").resolve(np.ones((5, 4)))
        assert spec.gamma == 0.25

    def test_gamma_scale_uses_feature_variance(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])  # var = 1.0
        spec = svm.SvmConfig(kernel="rbf", gamma="scale").resolve(X)
        assert spec.gamma == pytest.approx(1.0 / 2.0)

    def test_gamma_scale_falls_back_on_constant_data(self):
        spec = svm.SvmConfig(kernel="rbf", gamma="scale").resolve(np.ones((3, 2)))
        assert spec.gamma == 0.5

    def test_numeric_gamma_passes_through_resolve(self):
        spec = svm.SvmConfig(kernel="rbf", gamma=3.0)
        assert spec.resolve(np.ones((2, 2))) is spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            svm.SvmConfig(kernel="quadratic")


class TestHinge:
    # Margins placed well away from the hinge kink at 1 so central
    # differences see a smooth function.
    W = np.array([0.3, -0.2])
    B = 0.1
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.5, 0.5]])
    Y = np.array([1.0, -1.0, 1.0, -1.0])
    C = np.array([2.0, 1.0, 1.0, 2.0])

    def test_objective_hand_value(self):
        w = np.array([1.0, 0.0])
        X = np.array([[2.0, 0.0], [0.5, 0.0]])
        y = np.array([1.0, -1.0])
        c = np.array([1.0, 3.0])
        # margins 2.0 and -0.5; hinges 0 and 1.5
        got, margins = svm.hinge_objective(w, 0.0, X, y, c)
        assert got == 0.5 + 3.0 * 1.5
        assert margins.tolist() == [2.0, -0.5]

    def test_subgradient_matches_finite_differences(self):
        _, margins = svm.hinge_objective(self.W, self.B, self.X, self.Y, self.C)
        gw, gb = svm.hinge_subgradient(self.W, self.X, self.Y, self.C, margins)
        eps = 1e-7
        for i in range(2):
            w = self.W.copy()
            w[i] += eps
            hi = objective(w, self.B, self.X, self.Y, self.C)
            w[i] -= 2 * eps
            lo = objective(w, self.B, self.X, self.Y, self.C)
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - gw[i]) < 1e-6
        hi = objective(self.W, self.B + eps, self.X, self.Y, self.C)
        lo = objective(self.W, self.B - eps, self.X, self.Y, self.C)
        assert abs((hi - lo) / (2 * eps) - gb) < 1e-6


class TestLinearSolver:
    def test_objective_trace_never_increases(self, rng):
        X = rng.normal(0, 1, (40, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        model = svm.fit_svm(X, y, svm.SvmConfig(C=1.0))
        trace = np.array(model.pairs[0].objective_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 0)

    def test_separable_data_fits_exactly(self):
        X = np.array([[-3.0], [-2.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = svm.fit_svm(X, y, svm.SvmConfig(C=10.0, max_epochs=2000, tol=1e-8))
        assert svm.predict(model, X).tolist() == y.tolist()

    def test_binary_decision_function_drives_predictions(self, rng):
        X = rng.normal(0, 1, (30, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        y[:2] = [0, 1]
        model = svm.fit_svm(X, y, svm.SvmConfig(C=1.0))
        margins = model.pairs[0].margins(model.config, X)
        assert margins.shape == (30,)
        assert np.array_equal(svm.predict(model, X), (margins >= 0).astype(int))


class TestDualSolver:
    def test_xor_with_rbf_fits_exactly(self):
        model = svm.fit_svm(XOR_X, XOR_Y, svm.SvmConfig(C=10.0, kernel="rbf"))
        assert svm.predict(model, XOR_X).tolist() == XOR_Y.tolist()

    def test_margins_equal_direct_kernel_expansion(self):
        # Dual route: recompute f(x) = sum_i coef_i K(s_i, x) + b from the
        # stored supports with scalar kernel calls.
        model = svm.fit_svm(XOR_X, XOR_Y, svm.SvmConfig(C=10.0, kernel="rbf"))
        pair = model.pairs[0]
        probes = np.array([[0.2, 0.1], [0.9, 0.8], [0.5, 0.5]])
        got = pair.margins(model.config, probes)
        for row, margin in zip(probes, got):
            expansion = pair.b
            for coef, sv in zip(pair.dual_coef, pair.support_vectors):
                expansion += coef * svm.kernel_matrix(model.config, sv, row)[0, 0]
            assert margin == pytest.approx(expansion, abs=1e-10)

    def test_dual_solution_is_a_constrained_local_max(self, rng):
        # Certificate: no feasible perturbation of alpha improves the
        # dual objective D(a) = sum a - 0.5 a^T (Y K Y) a.
        model = svm.fit_svm(
            XOR_X, XOR_Y, svm.SvmConfig(C=10.0, kernel="rbf", tol=1e-8, max_epochs=2000)
        )
        pair = model.pairs[0]
        y_signed = np.where(XOR_Y == 1, 1.0, -1.0)
        gram = svm.kernel_matrix(model.config, XOR_X, XOR_X)
        alpha = np.zeros(4)
        for coef, sv in zip(pair.dual_coef, pair.support_vectors):
            idx = int(np.flatnonzero((XOR_X == sv).all(axis=1))[0])
            alpha[idx] = abs(coef)
        q = y_signed[:, None] * gram * y_signed[None, :]

        def dual(a):
            return a.sum() - 0.5 * a @ q @ a

        best = dual(alpha)
        box = 10.0
        for _ in range(200):
            probe = np.clip(alpha + rng.normal(0, 0.5, 4), 0.0, box)
            assert dual(probe) <= best + 1e-6

    def test_dual_coefficients_respect_the_box(self):
        model = svm.fit_svm(XOR_X, XOR_Y, svm.SvmConfig(C=2.5, kernel="rbf"))
        pair = model.pairs[0]
        assert np.all(np.abs(pair.dual_coef) <= 2.5 + 1e-12)
        assert np.all(np.abs(pair.dual_coef) > 0)


class TestOneVsOne:
    def make_blobs(self, rng, centers, n_per=10, sigma=0.3):
        X = np.vstack([c + rng.normal(0, sigma, (n_per, 2)) for c in centers])
        y = np.repeat(np.arange(len(centers)), n_per)
        return X, y

    def test_three_classes_make_three_ordered_pairs(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (8, 0), (0, 8)])
        model = svm.fit_svm(X, y, svm.SvmConfig(C=10.0))
        got = [(p.class_neg, p.class_pos) for p in model.pairs]
        assert got == [(0, 1), (0, 2), (1, 2)]
        assert model.n_classes == 3

    def test_zero_margin_counts_for_the_positive_class(self):
        pair = svm.PairModel(class_neg=0, class_pos=1, w=np.zeros(2), b=0.0)
        model = svm.SvmModel(
            config=svm.SvmConfig(),
            classes=(0, 1),
            pairs=[pair],
            weight_per_class=np.ones(2),
        )
        assert svm.predict(model, np.array([[5.0, 5.0]])).tolist() == [1]

    def test_clean_blobs_get_unanimous_votes(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (10, 0), (0, 10)])
        model = svm.fit_svm(X, y, svm.SvmConfig(C=10.0))
        scores = svm.class_scores(model, X)
        votes = np.rint(scores)
        assert np.all(votes[np.arange(len(y)), y] == 2)

    def test_vote_cycle_resolves_to_lowest_id(self):
        # Hand-built cycle: 0 beats 1, 2 beats 0, 1 beats 2; every class
        # gets one vote and argmax must take class 0.
        def pair(neg, pos, b):
            return svm.PairModel(class_neg=neg, class_pos=pos, w=np.zeros(1), b=b)

        model = svm.SvmModel(
            config=svm.SvmConfig(),
            classes=(0, 1, 2),
            pairs=[pair(0, 1, -1.0), pair(0, 2, 1.0), pair(1, 2, -1.0)],
            weight_per_class=np.ones(3),
        )
        x = np.array([[1.0]])
        scores = svm.class_scores(model, x)
        assert np.rint(scores).tolist() == [[1.0, 1.0, 1.0]]
        assert svm.predict(model, x).tolist() == [0]

    def test_scores_stay_within_a_third_of_votes(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (6, 0), (0, 6)])
        model = svm.fit_svm(X, y, svm.SvmConfig(C=1.0))
        scores = svm.class_scores(model, X)
        votes = np.rint(scores)
        assert np.all(np.abs(scores - votes) < 1.0 / 3.0)

    def test_scaling_dual_solution_keeps_predictions(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (4, 4)], n_per=8)
        model = svm.fit_svm(X, y, svm.SvmConfig(C=5.0, kernel="rbf"))
        before = svm.predict(model, X).copy()
        for pair in model.pairs:
            pair.dual_coef = pair.dual_coef * 2.5
            pair.b = pair.b * 2.5
        assert np.array_equal(svm.predict(model, X), before)

    def test_balanced_weights_recorded_on_the_model(self):
        X = np.vstack([np.zeros((75, 2)), np.ones((25, 2))])
        y = np.array([0] * 75 + [1] * 25)
        model = svm.fit_svm(X, y, svm.SvmConfig(class_weight="balanced"))
        assert model.weight_per_class == pytest.approx([2 / 3, 2.0])


class TestValidation:
    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            svm.fit_svm(np.ones((4, 2)), [0, 0, 1, 1], svm.SvmConfig(C=0.0))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            svm.fit_svm(np.ones((3, 2)), [1, 1, 1])


class TestSerialization:
    @pytest.mark.parametrize("kernel", [
        svm.SvmConfig(kernel="linear"),
        svm.SvmConfig(kernel="rbf"),
        svm.SvmConfig(kernel="polynomial", degree=2, coef0=1.0),
    ])
    def test_round_trip_preserves_predictions(self, kernel, rng):
        X = np.vstack([
            rng.normal(0, 0.4, (10, 2)),
            rng.normal(4, 0.4, (10, 2)),
            rng.normal((0, 6), 0.4, (10, 2)),
        ])
        y = np.repeat([0, 1, 2], 10)
        model = svm.fit_svm(X, y, replace(kernel, C=5.0))
        again = svm.from_dict(json.loads(json.dumps(svm.to_dict(model))), 2)
        assert again.classes == model.classes
        assert np.array_equal(svm.predict(again, X), svm.predict(model, X))
        assert np.allclose(
            svm.class_scores(again, X), svm.class_scores(model, X), atol=0
        )

    def test_config_round_trip(self):
        config = svm.SvmConfig(kernel="polynomial", gamma=0.5, degree=4, coef0=1.5)
        assert svm.SvmConfig(**asdict(config)) == config

    def test_bad_schema_rejected(self):
        with pytest.raises(DataError):
            svm.from_dict({"schema_version": 99}, 2)


class TestSolverEconomy:
    """The primal loop skips steps whose penalty alone rejects them, and
    the dual loop runs on Python floats; the loops they replace are the
    bitwise oracles."""

    @given(signed_problems(), st.sampled_from([1, 2, 5, 40]), st.sampled_from([0.0, 1e-6, 1e-2]))
    @settings(max_examples=150, deadline=None)
    def test_primal_matches_the_full_evaluation_loop_bitwise(self, problem, max_epochs, tol):
        _, X, y_signed, effective_c, C = problem
        got = svm._fit_primal_linear(X, y_signed, effective_c, C, max_epochs, tol)
        want = full_evaluation_primal(X, y_signed, effective_c, C, max_epochs, tol)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])
        assert bits(got[2]) == bits(want[2])

    @given(signed_problems(), st.sampled_from([1, 2, 5, 40]), st.sampled_from([0.0, 1e-6, 1e-2]))
    @settings(max_examples=150, deadline=None)
    def test_primal_matches_the_recomputing_margins_loop_bitwise(self, problem, max_epochs, tol):
        _, X, y_signed, effective_c, C = problem
        got = svm._fit_primal_linear(X, y_signed, effective_c, C, max_epochs, tol)
        want = recomputing_margins_primal(X, y_signed, effective_c, C, max_epochs, tol)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])
        assert bits(got[2]) == bits(want[2])

    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_reused_margins_fit_desk_like_rows_bitwise(self, n_classes, class_weight,
                                                       monkeypatch):
        """TF-IDF-like rows (about 2% nonzero, unit length): every class
        pair's w, b and objective trace match the loop that recomputed
        the margins, with one subgradient per epoch in both."""
        rng = np.random.default_rng(n_classes)
        X = rng.random((300, 400)) * (rng.random((300, 400)) < 0.02)
        X[:, 0] += 0.01  # no empty row
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = rng.integers(0, n_classes, 300)
        config = svm.SvmConfig(C=1.0, max_epochs=12, class_weight=class_weight)
        calls = {"new": 0, "old": 0}

        def counting(loop, subgradient):
            def count(*args):
                calls[loop] += 1
                return subgradient(*args)
            return count

        def oracle(*args):
            return recomputing_margins_primal(
                *args, subgradient=counting("old", recomputing_subgradient))

        monkeypatch.setattr(svm, "hinge_subgradient", counting("new", svm.hinge_subgradient))
        got = svm.fit_svm(X, y, config)
        monkeypatch.setattr(svm, "_fit_primal_linear", oracle)
        want = svm.fit_svm(X, y, config)
        assert len(got.pairs) == n_classes * (n_classes - 1) // 2
        for ours, theirs in zip(got.pairs, want.pairs):
            assert bits(ours.w) == bits(theirs.w)
            assert bits(ours.b) == bits(theirs.b)
            assert bits(ours.objective_trace) == bits(theirs.objective_trace)
        assert calls["new"] == calls["old"] >= len(got.pairs)

    @given(signed_problems(max_rows=8), st.sampled_from([1e-3, 1.0, 1e3]),
           st.sampled_from([1.0, 1e-300, 0.0]), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_the_certificate_never_skips_an_accepted_step(self, problem, scale, c_scale, ulps):
        """Whenever 0.5 * ||w||^2 > obj, the full objective exceeds obj
        too: for obj one to three ulps below the penalty or well below
        it, and for hinge sums that are zero or vanish in rounding."""
        rng, X, y_signed, effective_c, _ = problem
        w = rng.normal(0.0, scale, X.shape[1])
        penalty = 0.5 * float(w @ w)
        obj = penalty * float(rng.uniform(0.0, 1.0))
        if ulps:
            obj = penalty
            for _ in range(ulps):
                obj = float(np.nextafter(obj, -np.inf))
        assert penalty > obj
        full = objective(w, float(rng.normal()), X, y_signed, c_scale * effective_c)
        assert full > obj

    def test_the_certificate_skips_objective_evaluations(self, rng, monkeypatch):
        full = svm.hinge_objective
        calls = {"new": 0, "old": 0}

        def counting(loop):
            def count(*args):
                calls[loop] += 1
                return full(*args)
            return count

        X = rng.normal(0.0, 1.0, (60, 4))
        y_signed = np.where(X[:, 0] > 0, 1.0, -1.0)
        c = np.ones(60)
        monkeypatch.setattr(svm, "hinge_objective", counting("new"))
        got = svm._fit_primal_linear(X, y_signed, c, 1.0, 30, 0.0)
        monkeypatch.setattr(svm, "hinge_objective", counting("old"))
        want = full_evaluation_primal(X, y_signed, c, 1.0, 30, 0.0)
        assert bits(got[0]) == bits(want[0]) and bits(got[2]) == bits(want[2])
        assert 0 < calls["new"] < calls["old"]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1, 2, 5, 30]),
           st.sampled_from([0.0, 1e-6, 1e-2]), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_dual_matches_the_numpy_scalar_loop_on_any_matrix(
        self, draw_seed, n, max_epochs, tol, seed
    ):
        """Non-symmetric, indefinite and negative-diagonal matrices too:
        the loop reads column i, never row i."""
        rng = np.random.default_rng(draw_seed)
        gram = rng.normal(0.0, rng.choice([0.1, 1.0, 10.0]), (n, n))
        if rng.random() < 0.3:
            gram[rng.random((n, n)) < 0.5] = 0.0
        y_signed = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        box = rng.choice([1e-3, 1.0, 10.0, 1e12]) * rng.uniform(0.5, 2.0, n)
        got = svm._fit_dual_kernel(gram, y_signed, box, max_epochs, tol, seed)
        want = numpy_scalar_dual(gram, y_signed, box, max_epochs, tol, seed)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])

    @given(signed_problems(), st.sampled_from([
        svm.SvmConfig(kernel="linear"),
        svm.SvmConfig(kernel="rbf", gamma=0.5),
        svm.SvmConfig(kernel="polynomial", degree=3, coef0=1.0),
        svm.SvmConfig(kernel="sigmoid", alpha=0.3, coef0=-0.2),
    ]), st.sampled_from([1, 5, 100]), st.sampled_from([0.0, 1e-3]), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_dual_matches_the_numpy_scalar_loop_on_kernel_matrices(
        self, problem, config, max_epochs, tol, seed
    ):
        _, X, y_signed, effective_c, _ = problem
        gram = svm.kernel_matrix(config, X, X)
        got = svm._fit_dual_kernel(gram, y_signed, effective_c, max_epochs, tol, seed)
        want = numpy_scalar_dual(gram, y_signed, effective_c, max_epochs, tol, seed)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])


class TestNonFiniteKernel:
    def test_overflowing_polynomial_kernel_is_refused(self):
        """A degree-1100 kernel once fitted a constant classifier with no
        support vectors and b = 0."""
        X = np.array([[2.0, 1.0], [1.5, 2.0], [-2.0, -1.0], [-1.0, -2.5]])
        config = svm.SvmConfig(kernel="polynomial", degree=1100, coef0=1.0)
        with pytest.raises(UsageError) as refusal, np.errstate(over="ignore"):
            svm.fit_svm(X, [0, 0, 1, 1], config)
        message = str(refusal.value)
        for part in ("kernel='polynomial'", "degree=1100", "coef0=1.0", "(0, 1)"):
            assert part in message

    def test_finite_polynomial_kernel_fits(self):
        X = np.array([[2.0, 1.0], [1.5, 2.0], [-2.0, -1.0], [-1.0, -2.5]])
        config = svm.SvmConfig(kernel="polynomial", degree=3, coef0=1.0, C=10.0)
        model = svm.fit_svm(X, [0, 0, 1, 1], config)
        assert svm.predict(model, X).tolist() == [0, 0, 1, 1]


class TestDecoderPairRules:
    """from_dict takes only the pairs fit_svm writes, with arrays that
    fit their kernel. Each refusal names `pairs` or the field."""

    @staticmethod
    def written(kernel):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(c, 0.4, (8, 2)) for c in ((0, 0), (4, 0), (0, 4))])
        model = svm.fit_svm(X, np.repeat([0, 1, 2], 8), svm.SvmConfig(kernel=kernel, C=5.0))
        return json.loads(json.dumps(svm.to_dict(model)))

    @pytest.fixture(params=["linear", "rbf"])
    def payload(self, request):
        return self.written(request.param)

    @pytest.fixture
    def linear_payload(self):
        return self.written("linear")

    @pytest.fixture
    def rbf_payload(self):
        return self.written("rbf")

    def refused(self, payload, field):
        with pytest.raises(DataError, match=field):
            svm.from_dict(payload, 2)

    def test_written_payload_decodes(self, payload):
        again = svm.from_dict(payload, 2)
        assert [(p.class_neg, p.class_pos) for p in again.pairs] == [(0, 1), (0, 2), (1, 2)]

    def test_duplicated_pair_is_refused(self, payload):
        payload["pairs"][1] = dict(payload["pairs"][0])
        self.refused(payload, "pairs")

    def test_dropped_pair_is_refused(self, payload):
        payload["pairs"].pop()
        self.refused(payload, "pairs")

    def test_reordered_pairs_are_refused(self, payload):
        payload["pairs"].reverse()
        self.refused(payload, "pairs")

    def test_arrays_of_the_other_kernel_are_refused(self, payload):
        payload["config"]["kernel"] = "rbf" if payload["config"]["kernel"] == "linear" \
            else "linear"
        self.refused(payload, "pairs")

    def test_pair_with_both_kinds_of_arrays_is_refused(self, payload):
        payload["pairs"][0].update(w=[0.0, 0.0], support_vectors=[[0.0, 0.0]], dual_coef=[1.0])
        self.refused(payload, "pairs")

    def test_truncated_w_is_refused(self, linear_payload):
        linear_payload["pairs"][1]["w"].pop()
        self.refused(linear_payload, "w of shapes")

    def test_w_of_two_dimensions_is_refused(self, linear_payload):
        for pair in linear_payload["pairs"]:
            pair["w"] = [pair["w"]]
        self.refused(linear_payload, "w of shapes")

    def test_flat_support_vectors_are_refused(self, rbf_payload):
        pair = rbf_payload["pairs"][0]
        pair["support_vectors"] = [v for row in pair["support_vectors"] for v in row]
        self.refused(rbf_payload, "support_vectors")

    def test_dual_coef_per_row_is_required(self, rbf_payload):
        rbf_payload["pairs"][0]["dual_coef"].pop()
        self.refused(rbf_payload, "dual_coef")

    def test_pair_without_support_vectors_decodes(self, rbf_payload):
        rbf_payload["pairs"][0].update(support_vectors=[], dual_coef=[])
        model = svm.from_dict(rbf_payload, 2)
        pair = model.pairs[0]
        assert pair.margins(model.config, np.ones((2, 2))).tolist() == [pair.b, pair.b]
