"""One-vs-one SVM: kernel values, both solvers, vote semantics."""

import json
import math

import numpy as np
import pytest

from mhtext import svm
from mhtext.errors import DataError

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


class TestKernels:
    def test_rbf_of_identical_vectors_is_one(self):
        spec = svm.KernelSpec("rbf", gamma=0.7)
        assert svm.kernel_eval(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_hand_value(self):
        spec = svm.KernelSpec("rbf", gamma=2.0)
        got = svm.kernel_eval(spec, [0.0, 0.0], [1.0, 0.0])
        assert got == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_linear_is_the_dot_product(self):
        spec = svm.KernelSpec("linear")
        assert svm.kernel_eval(spec, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial_hand_value(self):
        spec = svm.KernelSpec("polynomial", degree=2, coef0=1.0)
        assert svm.kernel_eval(spec, [1.0, 0.0], [1.0, 1.0]) == 4.0

    def test_sigmoid_is_tanh_of_affine_inner(self):
        spec = svm.KernelSpec("sigmoid", alpha=0.5, coef0=0.25)
        got = svm.kernel_eval(spec, [2.0, 0.0], [1.0, 5.0])
        assert got == pytest.approx(math.tanh(0.5 * 2.0 + 0.25), abs=1e-15)

    def test_matrix_shape_and_symmetry(self, rng):
        X = rng.normal(0, 1, (6, 3))
        gram = svm.kernel_matrix(svm.KernelSpec("rbf", gamma=1.0), X, X)
        assert gram.shape == (6, 6)
        assert np.allclose(gram, gram.T, atol=1e-15)
        # self-distance carries a few-ulp residue for non-dyadic vectors
        assert np.allclose(np.diag(gram), 1.0, rtol=0, atol=1e-12)
        assert np.all(gram > 0) and np.all(gram <= 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            svm.kernel_matrix(svm.KernelSpec(), np.ones((2, 3)), np.ones((2, 4)))

    def test_gamma_auto_is_reciprocal_dimension(self):
        spec = svm.KernelSpec("rbf", gamma="auto").resolve(np.ones((5, 4)))
        assert spec.gamma == 0.25

    def test_gamma_scale_uses_feature_variance(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])  # var = 1.0
        spec = svm.KernelSpec("rbf", gamma="scale").resolve(X)
        assert spec.gamma == pytest.approx(1.0 / 2.0)

    def test_gamma_scale_falls_back_on_constant_data(self):
        spec = svm.KernelSpec("rbf", gamma="scale").resolve(np.ones((3, 2)))
        assert spec.gamma == 0.5

    def test_numeric_gamma_passes_through_resolve(self):
        spec = svm.KernelSpec("rbf", gamma=3.0)
        assert spec.resolve(np.ones((2, 2))) is spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            svm.KernelSpec("quadratic")


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
        got = svm.hinge_objective(w, 0.0, X, y, c)
        assert got == 0.5 + 3.0 * 1.5

    def test_subgradient_matches_finite_differences(self):
        gw, gb = svm.hinge_subgradient(self.W, self.B, self.X, self.Y, self.C)
        eps = 1e-7
        for i in range(2):
            w = self.W.copy()
            w[i] += eps
            hi = svm.hinge_objective(w, self.B, self.X, self.Y, self.C)
            w[i] -= 2 * eps
            lo = svm.hinge_objective(w, self.B, self.X, self.Y, self.C)
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - gw[i]) < 1e-6
        hi = svm.hinge_objective(self.W, self.B + eps, self.X, self.Y, self.C)
        lo = svm.hinge_objective(self.W, self.B - eps, self.X, self.Y, self.C)
        assert abs((hi - lo) / (2 * eps) - gb) < 1e-6


class TestLinearSolver:
    def test_objective_trace_never_increases(self, rng):
        X = rng.normal(0, 1, (40, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        model = svm.fit_svm(X, y, c_value=1.0)
        trace = np.array(model.pairs[0].objective_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 0)

    def test_separable_data_fits_exactly(self):
        X = np.array([[-3.0], [-2.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = svm.fit_svm(X, y, c_value=10.0, max_epochs=2000, tol=1e-8)
        assert svm.predict(model, X).tolist() == y.tolist()

    def test_binary_decision_function_drives_predictions(self, rng):
        X = rng.normal(0, 1, (30, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        y[:2] = [0, 1]
        model = svm.fit_svm(X, y, c_value=1.0)
        margins = svm.decision_function(model, X)
        assert margins.shape == (30,)
        assert np.array_equal(svm.predict(model, X), (margins >= 0).astype(int))


class TestDualSolver:
    def test_xor_with_rbf_fits_exactly(self):
        model = svm.fit_svm(
            XOR_X, XOR_Y, c_value=10.0, kernel=svm.KernelSpec("rbf")
        )
        assert svm.predict(model, XOR_X).tolist() == XOR_Y.tolist()

    def test_margins_equal_direct_kernel_expansion(self):
        # Dual route: recompute f(x) = sum_i coef_i K(s_i, x) + b from the
        # stored supports with scalar kernel calls.
        model = svm.fit_svm(
            XOR_X, XOR_Y, c_value=10.0, kernel=svm.KernelSpec("rbf")
        )
        pair = model.pairs[0]
        probes = np.array([[0.2, 0.1], [0.9, 0.8], [0.5, 0.5]])
        got = pair.margins(model.kernel, probes)
        for row, margin in zip(probes, got):
            expansion = pair.b
            for coef, sv in zip(pair.dual_coef, pair.support_vectors):
                expansion += coef * svm.kernel_eval(model.kernel, sv, row)
            assert margin == pytest.approx(expansion, abs=1e-10)

    def test_dual_solution_is_a_constrained_local_max(self, rng):
        # Certificate: no feasible perturbation of alpha improves the
        # dual objective D(a) = sum a - 0.5 a^T (Y K Y) a.
        model = svm.fit_svm(
            XOR_X, XOR_Y, c_value=10.0, kernel=svm.KernelSpec("rbf"),
            tol=1e-8, max_epochs=2000,
        )
        pair = model.pairs[0]
        y_signed = np.where(XOR_Y == 1, 1.0, -1.0)
        gram = svm.kernel_matrix(model.kernel, XOR_X, XOR_X)
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
        model = svm.fit_svm(
            XOR_X, XOR_Y, c_value=2.5, kernel=svm.KernelSpec("rbf")
        )
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
        model = svm.fit_svm(X, y, c_value=10.0)
        got = [(p.class_neg, p.class_pos) for p in model.pairs]
        assert got == [(0, 1), (0, 2), (1, 2)]
        assert model.n_classes == 3

    def test_zero_margin_counts_for_the_positive_class(self):
        pair = svm.PairModel(class_neg=0, class_pos=1, w=np.zeros(2), b=0.0)
        model = svm.SvmModel(
            kernel=svm.KernelSpec("linear"),
            classes=(0, 1),
            pairs=[pair],
            c_value=1.0,
            class_weight=None,
            weight_per_class=np.ones(2),
        )
        assert svm.predict(model, np.array([[5.0, 5.0]])).tolist() == [1]

    def test_clean_blobs_get_unanimous_votes(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (10, 0), (0, 10)])
        model = svm.fit_svm(X, y, c_value=10.0)
        scores = svm.class_scores(model, X)
        votes = np.rint(scores)
        assert np.all(votes[np.arange(len(y)), y] == 2)

    def test_vote_cycle_resolves_to_lowest_id(self):
        # Hand-built cycle: 0 beats 1, 2 beats 0, 1 beats 2; every class
        # gets one vote and argmax must take class 0.
        def pair(neg, pos, b):
            return svm.PairModel(class_neg=neg, class_pos=pos, w=np.zeros(1), b=b)

        model = svm.SvmModel(
            kernel=svm.KernelSpec("linear"),
            classes=(0, 1, 2),
            pairs=[pair(0, 1, -1.0), pair(0, 2, 1.0), pair(1, 2, -1.0)],
            c_value=1.0,
            class_weight=None,
            weight_per_class=np.ones(3),
        )
        x = np.array([[1.0]])
        scores = svm.class_scores(model, x)
        assert np.rint(scores).tolist() == [[1.0, 1.0, 1.0]]
        assert svm.predict(model, x).tolist() == [0]

    def test_scores_stay_within_a_third_of_votes(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (6, 0), (0, 6)])
        model = svm.fit_svm(X, y, c_value=1.0)
        scores = svm.class_scores(model, X)
        votes = np.rint(scores)
        assert np.all(np.abs(scores - votes) < 1.0 / 3.0)

    def test_scaling_dual_solution_keeps_predictions(self, rng):
        X, y = self.make_blobs(rng, [(0, 0), (4, 4)], n_per=8)
        model = svm.fit_svm(X, y, c_value=5.0, kernel=svm.KernelSpec("rbf"))
        before = svm.predict(model, X).copy()
        for pair in model.pairs:
            pair.dual_coef = pair.dual_coef * 2.5
            pair.b = pair.b * 2.5
        assert np.array_equal(svm.predict(model, X), before)

    def test_balanced_weights_recorded_on_the_model(self):
        X = np.vstack([np.zeros((75, 2)), np.ones((25, 2))])
        y = np.array([0] * 75 + [1] * 25)
        model = svm.fit_svm(X, y, class_weight="balanced")
        assert model.weight_per_class == pytest.approx([2 / 3, 2.0])


class TestValidation:
    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            svm.fit_svm(np.ones((4, 2)), [0, 0, 1, 1], c_value=0.0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            svm.fit_svm(np.ones((3, 2)), [1, 1, 1])


class TestSerialization:
    @pytest.mark.parametrize("kernel", [
        svm.KernelSpec("linear"),
        svm.KernelSpec("rbf"),
        svm.KernelSpec("polynomial", degree=2, coef0=1.0),
    ])
    def test_round_trip_preserves_predictions(self, kernel, rng):
        X = np.vstack([
            rng.normal(0, 0.4, (10, 2)),
            rng.normal(4, 0.4, (10, 2)),
            rng.normal((0, 6), 0.4, (10, 2)),
        ])
        y = np.repeat([0, 1, 2], 10)
        model = svm.fit_svm(X, y, c_value=5.0, kernel=kernel)
        again = svm.from_dict(json.loads(json.dumps(svm.to_dict(model))))
        assert again.classes == model.classes
        assert np.array_equal(svm.predict(again, X), svm.predict(model, X))
        assert np.allclose(
            svm.class_scores(again, X), svm.class_scores(model, X), atol=0
        )

    def test_kernel_spec_round_trip(self):
        spec = svm.KernelSpec("polynomial", gamma=0.5, degree=4, coef0=1.5)
        assert svm.KernelSpec.from_dict(spec.to_dict()) == spec

    def test_bad_schema_rejected(self):
        with pytest.raises(DataError):
            svm.from_dict({"schema_version": 99})
