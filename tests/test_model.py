"""Core model: ridge solve, prediction, objectives and their gradients."""

import dataclasses

import numpy as np
import pytest

from sslsq import (
    ClassEncoding,
    Dataset,
    DimensionError,
    InvalidInputError,
    classify,
    decision_values,
    evaluate_error,
    grad_label_objective_u,
    grad_label_objective_w,
    grad_responsibility_objective_q,
    grad_responsibility_objective_w,
    label_objective,
    responsibility_objective,
    ridge_operator,
    ridge_solve,
    supervised_objective,
    update_hard_labels,
    update_soft_labels,
)

from conftest import central_gradient, make_dataset, normal_equation_ridge, relative_error


class TestRidgeSolve:
    def test_identity_design(self):
        w = ridge_solve([[1, 0], [0, 1]], [1, 0], 0.0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_unit_penalty_on_identity(self):
        # (I + I)^-1 [1, 1] = [0.5, 0.5]
        w = ridge_solve([[1, 0], [0, 1]], [1, 1], 1.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_line_fit_matches_normal_equations(self):
        X = [[1, 1], [1, 2], [1, 3]]
        y = [0, 1, 1]
        oracle = normal_equation_ridge(X, y, 0.0)
        np.testing.assert_allclose(oracle, [-1.0 / 3.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(ridge_solve(X, y, 0.0), oracle, atol=1e-12)

    def test_minimum_norm_on_rank_deficient(self):
        # Zero column: its coefficient must stay zero.
        w = ridge_solve([[1, 0], [2, 0]], [1, 2], 0.0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
        # Duplicated column: minimum-norm splits the coefficient evenly.
        w = ridge_solve([[1, 1]], [1], 0.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_normal_equation_residual_bound(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(3, 20)), int(rng.integers(1, 5))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            w = ridge_solve(X, y, lam)
            rhs = X.T @ y
            residual = (X.T @ X + lam * np.eye(d)) @ w - rhs
            assert np.linalg.norm(residual) < 1e-8 * (1.0 + np.linalg.norm(rhs))

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            ridge_solve([[np.nan, 0]], [1], 0.0)
        with pytest.raises(DimensionError):
            ridge_solve([[1, 0]], [1, 2], 0.0)
        with pytest.raises(InvalidInputError):
            ridge_solve([[1, 0]], [1], -0.5)


class TestRidgeOperator:
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("rows", [4, 11, 40])
    def test_stack_slices_equal_lone_calls(self, rng, lam, rows):
        # Slice r of a stacked call must have the bits of a lone call on
        # matrix r, rank-deficient matrices included.
        stack = rng.standard_normal((6, rows, 3))
        stack[..., 2] = 1.0
        stack[1, :, 1] = 2.0 * stack[1, :, 0]
        stack[4] = 0.0
        operators = ridge_operator(stack, lam)
        assert operators.shape == (6, 3, rows)
        for matrix, operator in zip(stack, operators):
            np.testing.assert_array_equal(operator, ridge_operator(matrix, lam))


class TestPrediction:
    def test_decision_values_examples(self):
        np.testing.assert_allclose(decision_values([[1, 0]], [0.7, 3.0]), [0.7])
        np.testing.assert_allclose(decision_values([[0, 0]], [5.0, -2.0]), [0.0])
        np.testing.assert_allclose(
            decision_values([[1, 2], [1, -1]], [0.5, 0.25]), [1.0, 0.25]
        )

    def test_decision_values_dimension_error(self):
        with pytest.raises(DimensionError):
            decision_values([[1, 0]], [1.0])

    def test_classify_threshold(self):
        np.testing.assert_array_equal(classify([0.51]), [1.0])
        # Exactly 1/2 falls on the "otherwise" side.
        np.testing.assert_array_equal(classify([0.5]), [0.0])
        np.testing.assert_array_equal(classify([-3.0, 0.49, 2.0]), [0.0, 0.0, 1.0])

    def test_classify_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            classify([np.inf])

    def test_predictions_invariant_to_null_space_shift(self, rng):
        # Adding a direction orthogonal to every row cannot move any
        # decision value, hence cannot change any prediction.
        X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 3))
        w = rng.standard_normal(3)
        _, _, vt = np.linalg.svd(X)
        null_direction = vt[-1]
        assert np.max(np.abs(X @ null_direction)) < 1e-10
        base = classify(decision_values(X, w))
        shifted = classify(decision_values(X, w + 3.7 * null_direction))
        np.testing.assert_array_equal(base, shifted)


class TestDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0]], [0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Dataset([[np.inf]], [1.0])

    def test_rejects_column_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset([[1.0, 2.0]], [1.0], [[1.0]])

    def test_rejects_empty_labeled_block(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.empty((0, 2)), [])

    def test_arrays_are_read_only(self):
        data = Dataset([[1.0]], [1.0])
        with pytest.raises(ValueError):
            data.labels[0] = 0.0

    @staticmethod
    def assert_blocks_view_extended_design(data):
        extended = data.extended_features
        L = data.n_labeled
        np.testing.assert_array_equal(data.labeled_features, extended[:L])
        np.testing.assert_array_equal(data.unlabeled_features, extended[L:])
        assert data.labeled_features.shape == (L, extended.shape[1])
        assert data.unlabeled_features.shape == (data.n_unlabeled, extended.shape[1])
        # np.shares_memory is False for an empty array, so an empty block is checked by shape.
        for block in (data.labeled_features, data.unlabeled_features):
            assert np.shares_memory(block, extended) or block.size == 0

    def test_blocks_are_views_of_the_extended_design(self, rng):
        data = Dataset(rng.standard_normal((3, 2)), [0, 1, 1], rng.standard_normal((5, 2)))
        self.assert_blocks_view_extended_design(data)
        assert data.n_unlabeled == 5

    def test_feature_arrays_are_read_only(self, rng):
        data = Dataset(rng.standard_normal((3, 2)), [0, 1, 1], rng.standard_normal((5, 2)))
        for array in (data.extended_features, data.labeled_features, data.unlabeled_features):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 7.0
        # A block views the read-only design, so its flag cannot be turned back on.
        for block in (data.labeled_features, data.unlabeled_features):
            with pytest.raises(ValueError):
                block.setflags(write=True)

    def test_writing_the_inputs_leaves_the_dataset_unchanged(self, rng):
        features, labels = rng.standard_normal((3, 2)), np.array([0.0, 1.0, 1.0])
        unlabeled = rng.standard_normal((5, 2))
        data = Dataset(features, labels, unlabeled)
        want = data.extended_features.copy(), data.labels.copy()
        features[:], labels[:], unlabeled[:] = 0.0, 0.0, 0.0
        np.testing.assert_array_equal(data.extended_features, want[0])
        np.testing.assert_array_equal(data.labels, want[1])
        for block in (features, labels, unlabeled):
            assert block.flags.writeable
            assert not np.shares_memory(block, data.extended_features)
        self.assert_blocks_view_extended_design(data)

    def test_no_unlabeled_block_is_an_empty_view(self):
        data = Dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert data.unlabeled_features.shape == (0, 2)
        assert data.unlabeled_features.base is data.extended_features
        self.assert_blocks_view_extended_design(data)

    def test_replace_keeps_the_layout(self, rng):
        data = Dataset(rng.standard_normal((3, 2)), [0, 1, 1], rng.standard_normal((5, 2)))
        relabeled = dataclasses.replace(data, labels=[1, 0, 0])
        np.testing.assert_array_equal(relabeled.labels, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(relabeled.extended_features, data.extended_features)
        self.assert_blocks_view_extended_design(relabeled)
        assert not np.shares_memory(relabeled.extended_features, data.extended_features)


class TestObjectives:
    def test_supervised_zero_weights(self):
        data = Dataset([[1.0], [2.0], [3.0]], [1, 0, 1])
        for lam in (0.0, 0.3, 7.0):
            assert supervised_objective(data, [0.0], lam) == pytest.approx(2.0, abs=1e-14)

    def test_supervised_perfect_fit(self):
        data = Dataset([[1.0]], [1.0])
        assert supervised_objective(data, [1.0], 0.0) == 0.0

    def test_supervised_direct_substitution(self):
        data = Dataset([[1.0]], [1.0])
        assert supervised_objective(data, [0.5], 2.0) == pytest.approx(0.75, abs=1e-14)

    def test_label_objective_empty_unlabeled_equals_supervised(self, rng):
        data = Dataset(rng.standard_normal((5, 2)), [0, 1, 0, 1, 1])
        w = rng.standard_normal(2)
        assert label_objective(data, w, np.zeros(0), 0.4) == pytest.approx(
            supervised_objective(data, w, 0.4), rel=1e-14
        )

    def test_label_objective_interior_match(self):
        # Labeled part contributes nothing; u equals the decision value.
        data = Dataset([[0.0]], [0.0], [[1.0]])
        assert label_objective(data, [0.5], [0.5], 0.0) == 0.0
        assert label_objective(data, [0.5], [1.0], 0.0) == pytest.approx(0.25, abs=1e-14)

    def test_responsibility_examples(self):
        data = Dataset([[0.0]], [0.0], [[1.0]])
        assert responsibility_objective(data, [0.5], [0.5]) == pytest.approx(0.25, abs=1e-14)
        assert responsibility_objective(data, [1.0], [1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_responsibility_rejects_out_of_range(self):
        data = Dataset([[0.0]], [0.0], [[1.0]])
        with pytest.raises(InvalidInputError):
            responsibility_objective(data, [0.5], [1.1])

    def test_vertex_identity(self, rng):
        # Binary responsibilities make both objectives coincide exactly.
        for _ in range(200):
            data = make_dataset(
                rng,
                int(rng.integers(1, 8)),
                int(rng.integers(1, 8)),
                int(rng.integers(1, 4)),
            )
            w = rng.standard_normal(data.n_features)
            q = (rng.random(data.n_unlabeled) < 0.5).astype(float)
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            a = responsibility_objective(data, w, q, ClassEncoding(), lam)
            b = label_objective(data, w, q, lam)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_soft_minimum_dominates_hard_minimum(self, rng):
        # At fixed w, the clamped soft labels minimize the label objective
        # over the box, and any vertex is feasible for the soft problem.
        from sslsq import update_hard_labels, update_soft_labels

        for _ in range(100):
            data = make_dataset(rng, 6, 4, 2)
            w = rng.standard_normal(2)
            soft = label_objective(data, w, update_soft_labels(data, w), 0.0)
            hard = responsibility_objective(data, w, update_hard_labels(data, w))
            assert soft <= hard + 1e-12 * (1.0 + abs(hard))


class TestGradients:
    def test_grad_u_examples(self):
        data = Dataset([[0.0]], [0.0], [[1.0]])
        np.testing.assert_allclose(grad_label_objective_u(data, [0.5], [0.5]), [0.0])
        np.testing.assert_allclose(grad_label_objective_u(data, [1.0], [0.0]), [-2.0])

    def test_grad_q_examples(self):
        data = Dataset([[0.0]], [0.0], [[1.0]])
        np.testing.assert_allclose(grad_responsibility_objective_q(data, [0.5]), [0.0])
        np.testing.assert_allclose(grad_responsibility_objective_q(data, [1.0]), [-1.0])

    def test_grad_q_general_encoding(self):
        data = Dataset([[0.0]], [0.0], [[2.0]])
        encoding = ClassEncoding(positive_code=3.0, negative_code=-1.0)
        w = np.array([0.25])
        expected = 3.0**2 - (-1.0) ** 2 - 2.0 * (3.0 - (-1.0)) * (2.0 * 0.25)
        np.testing.assert_allclose(
            grad_responsibility_objective_q(data, w, encoding), [expected]
        )

    def test_label_gradients_match_finite_differences(self, rng):
        for _ in range(60):
            data = make_dataset(rng, int(rng.integers(2, 9)), int(rng.integers(1, 7)),
                                int(rng.integers(1, 4)))
            w = rng.standard_normal(data.n_features)
            u = rng.random(data.n_unlabeled)
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            grad_w = grad_label_objective_w(data, w, u, lam)
            fd_w = central_gradient(lambda v: label_objective(data, v, u, lam), w)
            assert relative_error(grad_w, fd_w) < 1e-6
            grad_u = grad_label_objective_u(data, w, u)
            fd_u = central_gradient(lambda v: label_objective(data, w, v, lam), u)
            assert relative_error(grad_u, fd_u) < 1e-6

    def test_responsibility_gradients_match_finite_differences(self, rng):
        for _ in range(60):
            data = make_dataset(rng, int(rng.integers(2, 9)), int(rng.integers(1, 7)),
                                int(rng.integers(1, 4)))
            w = rng.standard_normal(data.n_features)
            q = rng.uniform(0.05, 0.95, data.n_unlabeled)
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            encoding = ClassEncoding()
            grad_w = grad_responsibility_objective_w(data, w, q, encoding, lam)
            fd_w = central_gradient(
                lambda v: responsibility_objective(data, v, q, encoding, lam), w
            )
            assert relative_error(grad_w, fd_w) < 1e-6
            grad_q = grad_responsibility_objective_q(data, w, encoding)
            fd_q = central_gradient(
                lambda v: responsibility_objective(data, w, v, encoding, lam), q
            )
            assert relative_error(grad_q, fd_q) < 1e-6


# Every public function that takes a weight vector, called on it with
# valid other arguments: a dataset with U = 4 and d = 3, and a vector u in
# [0, 1] for the imputed labels or responsibilities.
WEIGHT_TAKERS = {
    "decision_values": lambda data, w, u: decision_values(data.unlabeled_features, w),
    "evaluate_error": lambda data, w, u: evaluate_error(w, data.unlabeled_features,
                                                        [0.0, 1.0, 1.0, 0.0]),
    "supervised_objective": lambda data, w, u: supervised_objective(data, w),
    "label_objective": lambda data, w, u: label_objective(data, w, u),
    "responsibility_objective": lambda data, w, u: responsibility_objective(data, w, u),
    "grad_label_objective_u": lambda data, w, u: grad_label_objective_u(data, w, u),
    "grad_label_objective_w": lambda data, w, u: grad_label_objective_w(data, w, u),
    "grad_responsibility_objective_q": lambda data, w, u: grad_responsibility_objective_q(
        data, w),
    "grad_responsibility_objective_w": lambda data, w, u: grad_responsibility_objective_w(
        data, w, u),
    "update_soft_labels": lambda data, w, u: update_soft_labels(data, w),
    "update_hard_labels": lambda data, w, u: update_hard_labels(data, w),
}


class TestWeightChecks:
    @pytest.mark.parametrize("name", sorted(WEIGHT_TAKERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_refused(self, rng, name, bad):
        # Otherwise a NaN weight gives all-zero hard labels or a NaN objective.
        data = make_dataset(rng, 6, 4, 3)
        call = WEIGHT_TAKERS[name]
        u = np.array([0.0, 0.25, 1.0, 0.5])
        call(data, np.ones(3), u)
        for position in range(3):
            w = np.ones(3)
            w[position] = bad
            with pytest.raises(InvalidInputError, match="weights contain non-finite entries"):
                call(data, w, u)

    @pytest.mark.parametrize("name", sorted(WEIGHT_TAKERS))
    def test_weights_of_the_wrong_shape_are_refused(self, rng, name):
        data = make_dataset(rng, 6, 4, 3)
        with pytest.raises(DimensionError, match=r"weights have shape \(2,\), expected \(3,\)"):
            WEIGHT_TAKERS[name](data, np.ones(2), np.zeros(4))


@pytest.mark.parametrize("module", ["datagen", "diagnostics", "experiments", "model", "selflearn"])
def test_package_exports_every_public_name(module):
    # Each name a module lists as public exists there and is importable
    # from the package itself.
    import importlib

    import sslsq

    source = importlib.import_module(f"sslsq.{module}")
    for name in source.__all__:
        assert getattr(sslsq, name) is getattr(source, name), name
