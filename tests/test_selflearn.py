"""BCD updates, fits, stopping and descent invariants, and the Newton soft fit."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sslsq import (
    ClassEncoding,
    Dataset,
    DimensionError,
    InvalidInputError,
    SolverConfig,
    StopReason,
    SyntheticKind,
    SyntheticSpec,
    brute_force_hard_minimum,
    classify,
    decision_values,
    fit_hard,
    fit_soft,
    fit_starts,
    generate,
    grad_label_objective_w,
    grid_soft_minimum,
    label_objective,
    minimize_soft,
    responsibility_objective,
    ridge_operator,
    ridge_solve,
    soft_grid_slack,
    supervised_objective,
    update_hard_labels,
    update_soft_labels,
    update_weights,
)
from sslsq.selflearn import _fit_stack, _run_descent

from conftest import (
    allocating_run_descent,
    make_dataset,
    normal_equation_ridge,
    scaled_collinear_data,
)


def no_unlabeled_dataset(design, seed=0):
    """Seven labeled rows of three features and no unlabeled rows.

    ``design`` is "full-rank", "repeated-column" (the third column
    repeats the first, so the design is rank-deficient) or "scaled"
    (every feature times 1e6).
    """
    data = make_dataset(np.random.default_rng(seed), 7, 0, 3)
    features = data.labeled_features.copy()
    if design == "repeated-column":
        features[:, 2] = features[:, 0]
    elif design == "scaled":
        features *= 1e6
    return Dataset(features, data.labels)


# Every design at lam 0 and 0.5, each under the default round cap and a cap of one round.
NO_UNLABELED_CASES = pytest.mark.parametrize(
    "design, lam, config",
    [
        (design, lam, config)
        for design in ("full-rank", "repeated-column", "scaled")
        for lam in (0.0, 0.5)
        for config in (SolverConfig(), SolverConfig(max_iterations=1))
    ],
    ids=lambda value: f"cap{value.max_iterations}" if isinstance(value, SolverConfig) else None,
)


def assert_supervised_fit(fit, data, lam, reason):
    """A fit with no unlabeled rows has the supervised fit's bits in its one round."""
    weights = ridge_solve(data.labeled_features, data.labels, lam)
    np.testing.assert_array_equal(fit.weights, weights)
    assert fit.final_objective == supervised_objective(data, weights, lam)
    assert fit.iterations == 1
    assert fit.trace.rounds.tolist() == [0]
    assert fit.trace.stop_reason is reason
    assert fit.imputed.shape == (0,)


def supervised_fits(data, method, lam, config):
    """The lone fit and three ``fit_starts`` fits, one from a start scaled by 1e6."""
    rng = np.random.default_rng(1)
    starts = [
        ridge_solve(data.labeled_features, data.labels, lam),
        rng.standard_normal(data.n_features),
        1e6 * rng.standard_normal(data.n_features),
    ]
    return [lone_fit(data, method, lam, config), *fit_starts(data, starts, method, lam, config)]


def cap_data(seed):
    """Overlapping 1-D clusters on which ``fit_hard`` runs 2, 5 or 7 rounds (seeds 1, 2, 3)."""
    return generate(SyntheticSpec(seed=seed, unlabeled_total=400, class_separation=1.0))[0]


def assert_monotone(trace, context=""):
    objectives = trace.objectives
    for k in range(1, len(objectives)):
        slack = 1e-10 * (1.0 + abs(objectives[k - 1]))
        assert objectives[k] <= objectives[k - 1] + slack, (
            f"objective rose at step {k} {context}: "
            f"{objectives[k - 1]} -> {objectives[k]}"
        )


class TestLabelUpdates:
    def test_soft_three_cases(self):
        data = Dataset([[1.0]], [1.0], [[-0.3], [0.4], [1.7]])
        np.testing.assert_allclose(update_soft_labels(data, [1.0]), [0.0, 0.4, 1.0])

    def test_soft_boundary_fixed_points(self):
        data = Dataset([[1.0]], [1.0], [[0.0], [1.0]])
        np.testing.assert_allclose(update_soft_labels(data, [1.0]), [0.0, 1.0])

    def test_soft_interior_is_exact(self, rng):
        data = Dataset([[0.0, 1.0]], [1.0], rng.uniform(0.1, 0.9, (5, 2)))
        w = np.array([0.5, 0.1])
        values = decision_values(data.unlabeled_features, w)
        assert np.all((values > 0) & (values < 1))
        u = update_soft_labels(data, w)
        np.testing.assert_array_equal(u, values)
        labeled_part = (data.labeled_features @ w - data.labels) ** 2
        assert label_objective(data, w, u, 0.0) == pytest.approx(float(labeled_part.sum()))

    def test_hard_threshold(self):
        data = Dataset([[1.0]], [1.0], [[0.6], [0.4]])
        np.testing.assert_allclose(update_hard_labels(data, [1.0]), [1.0, 0.0])

    def test_hard_tie_goes_to_zero(self):
        data = Dataset([[1.0]], [1.0], [[0.5]])
        np.testing.assert_allclose(update_hard_labels(data, [1.0]), [0.0])

    def test_hard_equals_classify(self, rng):
        for _ in range(25):
            data = make_dataset(rng, 4, 6, 2)
            w = rng.standard_normal(2)
            np.testing.assert_array_equal(
                update_hard_labels(data, w),
                classify(decision_values(data.unlabeled_features, w)),
            )


class TestUpdateWeights:
    def test_no_unlabeled_equals_supervised_solve(self, rng):
        data = make_dataset(rng, 6, 0, 2)
        for lam in (0.0, 0.5):
            np.testing.assert_allclose(
                update_weights(data, np.zeros(0), lam),
                ridge_solve(data.labeled_features, data.labels, lam),
                atol=1e-12,
            )

    def test_true_labels_give_pooled_solution(self, rng):
        data = make_dataset(rng, 6, 4, 2)
        truth = (rng.random(4) < 0.5).astype(float)
        pooled_X = np.vstack([data.labeled_features, data.unlabeled_features])
        pooled_y = np.concatenate([data.labels, truth])
        np.testing.assert_allclose(
            update_weights(data, truth, 0.3),
            normal_equation_ridge(pooled_X, pooled_y, 0.3),
            atol=1e-9,
        )

    def test_tiny_instance_stationarity(self):
        data = Dataset([[1.0], [2.0]], [0.0, 1.0], [[3.0]])
        u = np.array([0.7])
        w = update_weights(data, u, 0.0)
        grad = grad_label_objective_w(data, w, u, 0.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    def test_length_mismatch(self, rng):
        data = make_dataset(rng, 4, 3, 2)
        with pytest.raises(DimensionError):
            update_weights(data, np.zeros(2), 0.0)


class TestFitSoft:
    @NO_UNLABELED_CASES
    def test_no_unlabeled_reduces_to_supervised(self, design, lam, config):
        data = no_unlabeled_dataset(design)
        for fit in supervised_fits(data, "soft", lam, config):
            assert_supervised_fit(fit, data, lam, StopReason.OBJECTIVE_TOLERANCE)

    def test_two_point_construction_shifts_boundary(self):
        # Two labeled points at x = 1 (class 0) and x = 2 (class 1), one
        # unlabeled point left of both and one far right. The supervised
        # line crosses 1/2 at x = 1.5; the first round imputes [0, 1] and
        # refits to [1/14, 3/14], moving the crossing to x = 2.
        data = Dataset(
            [[1.0, 1.0], [2.0, 1.0]], [0.0, 1.0], [[0.0, 1.0], [5.0, 1.0]]
        )
        supervised = ridge_solve(data.labeled_features, data.labels, 0.0)
        np.testing.assert_allclose(supervised, [1.0, -1.0], atol=1e-10)
        assert (0.5 - supervised[1]) / supervised[0] == pytest.approx(1.5)

        np.testing.assert_array_equal(update_soft_labels(data, supervised), [0.0, 1.0])
        result = fit_soft(data, 0.0)
        first = result.trace.records[0]
        np.testing.assert_allclose(first.weights, [3.0 / 14.0, 1.0 / 14.0], atol=1e-10)
        boundary = (0.5 - first.weights[1]) / first.weights[0]
        assert boundary == pytest.approx(2.0, abs=1e-9)

    def test_fixed_point_at_convergence(self, rng):
        # The gap to the fixed point scales with the stopping tolerance,
        # so drive the solver to numerical stationarity for this check.
        config = SolverConfig(max_iterations=20000, objective_tolerance=1e-15)
        for _ in range(25):
            data = make_dataset(rng, int(rng.integers(4, 12)), int(rng.integers(1, 8)),
                                int(rng.integers(1, 4)))
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            result = fit_soft(data, lam, config)
            assert result.trace.converged
            u = update_soft_labels(data, result.weights)
            np.testing.assert_allclose(u, result.imputed, atol=1e-8)
            w = update_weights(data, u, lam)
            assert np.max(np.abs(w - result.weights)) < 1e-8

    def test_final_objective_matches_state(self, rng):
        data = make_dataset(rng, 6, 5, 2)
        result = fit_soft(data, 0.1)
        value = label_objective(data, result.weights, result.imputed, 0.1)
        assert abs(value - result.final_objective) <= 1e-12 * (1.0 + abs(value))

    def test_monotone_descent(self, rng):
        for _ in range(20):
            data = make_dataset(rng, int(rng.integers(3, 12)), int(rng.integers(1, 10)),
                                int(rng.integers(1, 4)))
            result = fit_soft(data, float(rng.choice([0.0, 0.1, 1.0])))
            assert_monotone(result.trace, "(soft)")

    def test_given_inits(self, rng):
        # A start from weights, and one from labels through update_weights.
        data = make_dataset(rng, 6, 4, 2)
        from_weights, from_labels = fit_starts(
            data, [np.zeros(2), update_weights(data, np.full(4, 0.5))], "soft"
        )
        assert from_weights.trace.converged
        assert from_labels.trace.converged
        with pytest.raises(DimensionError):
            fit_starts(data, [np.zeros(5)], "soft")


class TestFitHard:
    @NO_UNLABELED_CASES
    def test_no_unlabeled_reduces_to_supervised(self, design, lam, config):
        data = no_unlabeled_dataset(design)
        for fit in supervised_fits(data, "hard", lam, config):
            assert_supervised_fit(fit, data, lam, StopReason.LABELS_STABLE)

    def test_monotone_descent_and_stability(self, rng):
        for _ in range(20):
            data = make_dataset(rng, int(rng.integers(3, 12)), int(rng.integers(1, 10)),
                                int(rng.integers(1, 4)))
            result = fit_hard(data, float(rng.choice([0.0, 0.1, 1.0])))
            assert_monotone(result.trace, "(hard)")
            if result.trace.stop_reason is StopReason.LABELS_STABLE:
                np.testing.assert_array_equal(
                    result.imputed, update_hard_labels(data, result.weights)
                )

    def test_final_objective_matches_state(self, rng):
        data = make_dataset(rng, 6, 5, 2)
        result = fit_hard(data, 0.1)
        value = responsibility_objective(data, result.weights, result.imputed,
                                         ClassEncoding(), 0.1)
        assert abs(value - result.final_objective) <= 1e-12 * (1.0 + abs(value))

    def test_self_consistent_on_separated_clusters(self, rng):
        # Initialize from the true labels on well-separated clusters; the
        # final labeling must equal classify of its own decision values.
        from sslsq import SyntheticSpec, generate

        data, truth = generate(SyntheticSpec(labeled_per_class=5, unlabeled_total=40,
                                             class_separation=6.0, noise_sd=0.5, seed=3))
        result = fit_starts(data, [update_weights(data, truth)], "hard")[0]
        assert result.trace.converged
        np.testing.assert_array_equal(
            result.imputed,
            classify(decision_values(data.unlabeled_features, result.weights)),
        )

    def test_max_iterations_backstop(self):
        # The imputed labels still change after round 1 (the fit runs 5
        # rounds), so a cap of one round stops it.
        data = cap_data(2)
        result = fit_hard(data, 0.0, config=SolverConfig(max_iterations=1))
        assert not result.trace.converged
        assert result.trace.stop_reason is StopReason.MAX_ITERATIONS
        assert result.iterations == 1

    def test_fixed_point_in_the_only_allowed_round_is_stable(self):
        # Round 1 of the two-point construction is a fixed point: its
        # weights impute the labels they were fitted on. So a cap of one
        # round ends the fit on stable labels, with the uncapped fit's bits.
        data = Dataset([[1.0, 1.0], [2.0, 1.0]], [0.0, 1.0], [[0.0, 1.0], [5.0, 1.0]])
        result = fit_hard(data, 0.0, config=SolverConfig(max_iterations=1))
        assert result.trace.converged
        assert result.trace.stop_reason is StopReason.LABELS_STABLE
        assert_same_fit(result, fit_hard(data, 0.0))



def assert_hard_objective(data, lam, weights, labels, objective):
    """``objective`` is the squared objective at 0/1 ``labels``, bit for bit.

    That is ``label_objective``, and it is within criterion 03's 1e-12
    relative of the responsibility objective at those labels.
    """
    assert objective == label_objective(data, weights, labels, lam)
    value = responsibility_objective(data, weights, labels, ClassEncoding(), lam)
    assert abs(objective - value) <= 1e-12 * abs(value)


class TestHardObjective:
    """Hard BCD scores each round as soft BCD does: by the squared objective."""

    @staticmethod
    def assert_trace(data, lam, start, trace):
        # Round k's labels are those its previous weights impute.
        previous = start
        for w, objective in zip(trace.weight_path, trace.objectives):
            assert_hard_objective(data, lam, w, update_hard_labels(data, previous), objective)
            previous = w

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fit_hard_trace(self, seed, lam):
        for data in (cap_data(seed), make_dataset(np.random.default_rng(seed), 8, 30, 3)):
            fit = fit_hard(data, lam)
            assert fit.iterations > 1
            self.assert_trace(data, lam, ridge_solve(data.labeled_features, data.labels, lam),
                              fit.trace)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_lock_step_starts_leaving_in_different_rounds(self, lam):
        data = cap_data(2)
        starts = 2.0 * np.random.default_rng(0).standard_normal((8, data.n_features))
        fits = fit_starts(data, starts, "hard", lam)
        assert len({fit.iterations for fit in fits}) > 2
        for start, fit in zip(starts, fits):
            self.assert_trace(data, lam, start, fit.trace)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_stacked_finals(self, lam):
        datasets = TestFitDatasets.datasets()
        *_, hard = TestFitDatasets.fit_stack(datasets, lam)
        assert len(set(hard.rounds.tolist())) > 1
        for i, data in enumerate(datasets):
            assert_hard_objective(data, lam, hard.weights[i], hard.labels[i], hard.objectives[i])


class TestOverflowingStart:
    @pytest.mark.parametrize("method", ["soft", "hard"])
    def test_refused_by_name_before_any_descent(self, monkeypatch, method):
        # On these 404 rows a start of 1.7e308 overflows its first decision
        # values and one of 1e307 does not. A block holds 40 starts, so
        # start 45 is refused before the first block runs.
        import sslsq.selflearn as selflearn

        data, _ = generate(SyntheticSpec(seed=1, noise_sd=3.0))
        d = data.n_features
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_starts(data, [np.full(d, 1e307)], method)[0].trace.converged

            def no_descent(*args, **kwargs):
                raise AssertionError("a descent ran before every start was checked")

            monkeypatch.setattr(selflearn, "_run_descent", no_descent)
            starts = [np.zeros(d)] * 45 + [np.full(d, 1.7e308)]
            with pytest.raises(InvalidInputError,
                               match="^start 45: its decision values overflow$"):
                fit_starts(data, starts, method)


def soft_value(data, w, lam):
    """g(w): the soft objective at ``w`` with its labels imputed from ``w``."""
    return label_objective(data, w, update_soft_labels(data, w), lam)


def acceptance_instance(rng, max_labeled, max_unlabeled, max_features, min_unlabeled):
    """The random instances of the acceptance criteria, drawn the same way."""
    return make_dataset(
        rng,
        n_labeled=int(rng.integers(2, max_labeled + 1)),
        n_unlabeled=int(rng.integers(min_unlabeled, max_unlabeled + 1)),
        n_features=int(rng.integers(1, max_features + 1)),
    )


def newton_cases(seed, count):
    """(data, lam) pairs: random, rank-deficient at lam 0, and penalized instances."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        if k % 3 == 1:
            # Fewer labeled rows than features: the labeled block, and
            # pieces with few clamped rows, are rank-deficient.
            d = int(rng.integers(3, 8))
            cases.append((make_dataset(rng, int(rng.integers(1, d)), int(rng.integers(0, 12)), d),
                          0.0))
        else:
            data = make_dataset(rng, int(rng.integers(2, 30)), int(rng.integers(0, 30)),
                                int(rng.integers(1, 6)))
            cases.append((data, 0.0 if k % 3 == 0 else float(rng.choice([0.1, 1.0]))))
    return cases


class TestMinimizeSoft:
    TIGHT = SolverConfig(max_iterations=20000, objective_tolerance=1e-15)

    def test_at_or_below_tight_bcd(self):
        for data, lam in newton_cases(1, 60):
            newton = minimize_soft(data, lam)
            assert newton.trace.stop_reason is StopReason.CLAMPED_SET_STABLE
            bcd = soft_value(data, fit_soft(data, lam, self.TIGHT).weights, lam)
            assert soft_value(data, newton.weights, lam) <= bcd + 1e-12 * (1.0 + abs(bcd))
            assert newton.final_objective <= bcd + 1e-12 * (1.0 + abs(bcd))

    def test_soft_relaxation_dominates_the_hard_minimum(self):
        # Criterion 07's soft check, on the same 50 instances.
        rng = np.random.default_rng(107)
        for _ in range(50):
            data = acceptance_instance(rng, 12, 10, 3, 1)
            best = brute_force_hard_minimum(data, 0.0)
            assert minimize_soft(data, 0.0).final_objective <= best.objective + 1e-9

    def test_beats_the_grid_up_to_curvature_slack(self):
        # Criterion 08's check, on the same 30 instances.
        rng = np.random.default_rng(108)
        for _ in range(30):
            data = acceptance_instance(rng, 12, 3, 3, 1)
            grid = grid_soft_minimum(data, 0.0, step=0.02)
            slack = soft_grid_slack(data, 0.0, step=0.02)
            assert minimize_soft(data, 0.0).final_objective - grid.objective - slack <= 0.0

    @pytest.mark.parametrize("design", ["full-rank", "repeated-column", "scaled"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_no_unlabeled_gives_the_ridge_weights(self, design, lam):
        data = no_unlabeled_dataset(design)
        fit = minimize_soft(data, lam)
        weights = ridge_solve(data.labeled_features, data.labels, lam)
        assert np.max(np.abs(fit.weights - weights)) <= 1e-12 * (1.0 + np.max(np.abs(weights)))
        assert fit.trace.stop_reason is StopReason.CLAMPED_SET_STABLE and fit.trace.converged
        assert fit.iterations == 2
        assert fit.imputed.shape == (0,)

    def test_trace_contract(self):
        for data, lam in newton_cases(2, 45):
            fit = minimize_soft(data, lam)
            trace = fit.trace
            rows = len(trace.objectives)
            assert trace.rounds.tolist() == list(range(rows)) and rows == fit.iterations
            assert trace.weight_path.shape == (rows, data.n_features)
            assert_monotone(trace, "(newton)")
            assert np.all(np.diff(trace.objectives)
                          <= 1e-12 * (1.0 + np.abs(trace.objectives[:-1])))
            # A converged run's last round repeats the previous one's weights.
            np.testing.assert_array_equal(trace.weight_path[-1], trace.weight_path[-2])
            np.testing.assert_array_equal(trace.weight_path[-1], fit.weights)
            assert trace.objectives[-1] == fit.final_objective
            np.testing.assert_array_equal(fit.imputed, update_soft_labels(data, fit.weights))
            assert trace.final_labels is fit.imputed
            # The check a reader of the trace file can make: the last
            # objective is that of w with labels imputed from the row before.
            previous = update_soft_labels(data, trace.weight_path[-2])
            value = label_objective(data, fit.weights, previous, lam)
            assert abs(fit.final_objective - value) <= 1e-9 * (1.0 + abs(value))
            for w, objective in zip(trace.weight_path, trace.objectives):
                value = soft_value(data, w, lam)
                assert abs(objective - value) <= 1e-12 * (1.0 + abs(value))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_interior_supervised_start_stops_at_once(self, lam):
        # Every unlabeled decision value of the supervised fit lies in
        # [0, 1], so it is the optimum: two rounds, under a cap of two.
        data = Dataset([[0.0, 1.0], [1.0, 1.0], [3.0, 1.0], [4.0, 1.0]], [0.0, 0.0, 1.0, 1.0],
                       [[1.5, 1.0], [2.0, 1.0], [2.5, 1.0]])
        supervised = ridge_solve(data.labeled_features, data.labels, lam)
        scores = decision_values(data.unlabeled_features, supervised)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        fit = minimize_soft(data, lam, SolverConfig(max_iterations=2))
        assert fit.trace.stop_reason is StopReason.CLAMPED_SET_STABLE
        assert fit.iterations == 2
        np.testing.assert_allclose(fit.weights, supervised, rtol=0.0, atol=1e-12)

    def test_round_cap(self):
        # Overlapping 2-D clusters whose soft optimum takes 10 rounds.
        spec = SyntheticSpec(kind=SyntheticKind.TWO_GAUSSIAN_2D, seed=0, unlabeled_total=1000)
        data = generate(spec)[0]
        fit = minimize_soft(data)
        assert fit.iterations == 10 and fit.trace.converged
        for cap in (1, 5, 9):
            capped = minimize_soft(data, 0.0, SolverConfig(max_iterations=cap))
            assert capped.trace.stop_reason is StopReason.MAX_ITERATIONS
            assert not capped.trace.converged and capped.iterations == cap
            np.testing.assert_array_equal(capped.trace.weight_path, fit.trace.weight_path[:cap])
            np.testing.assert_array_equal(capped.weights, fit.trace.weight_path[cap - 1])

    def test_stationary_at_the_optimum(self):
        # g's gradient, that of the soft objective with labels clip(X_u w),
        # vanishes at the result up to rounding.
        for data, lam in newton_cases(3, 30):
            fit = minimize_soft(data, lam)
            gradient = grad_label_objective_w(data, fit.weights, fit.imputed, lam)
            scale = 1.0 + np.linalg.norm(2.0 * data.labeled_features.T @ data.labels)
            assert np.linalg.norm(gradient) <= 1e-9 * scale

    def test_objective_tolerance_is_unused(self, rng):
        data = make_dataset(rng, 6, 8, 2)
        a = minimize_soft(data, 0.1)
        b = minimize_soft(data, 0.1, SolverConfig(objective_tolerance=1e-2))
        np.testing.assert_array_equal(a.trace.weight_path, b.trace.weight_path)


def reference_descent(data, lam, config, hard):
    """The textbook BCD loop, written out of the public block functions.

    Returns per-round weights and objectives, the last round's imputed
    labels and the stop reason, with the solvers' stopping rules, each
    tested after the round's update.
    """
    w = ridge_solve(data.labeled_features, data.labels, lam)
    weights, objectives = [], []
    labels = previous_objective = None
    reason = StopReason.MAX_ITERATIONS
    for _ in range(config.max_iterations):
        labels = update_hard_labels(data, w) if hard else update_soft_labels(data, w)
        w = update_weights(data, labels, lam)
        value = label_objective(data, w, labels, lam)
        weights.append(w)
        objectives.append(value)
        if hard and np.array_equal(update_hard_labels(data, w), labels):
            reason = StopReason.LABELS_STABLE
            break
        if not hard and previous_objective is not None and (
            previous_objective - value <= config.objective_tolerance * (1.0 + abs(previous_objective))
        ):
            reason = StopReason.OBJECTIVE_TOLERANCE
            break
        previous_objective = value
    return np.array(weights), np.array(objectives), labels, reason


class TestReferenceLoop:
    """``fit_soft``/``fit_hard`` run the same rounds as the textbook loop.

    The solvers take the objective and the next labels from one product
    with the stacked design, where the reference makes separate products
    per block; a BLAS may round those differently in the last bit, so
    weights and objectives are compared to 1e-12 relative.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("hard, config, expected", [
        (False, SolverConfig(), StopReason.OBJECTIVE_TOLERANCE),
        (False, SolverConfig(max_iterations=5), StopReason.MAX_ITERATIONS),
        (True, SolverConfig(), StopReason.LABELS_STABLE),
        (True, SolverConfig(max_iterations=1), StopReason.MAX_ITERATIONS),
    ])
    def test_matches_reference(self, seed, lam, hard, config, expected):
        data = make_dataset(np.random.default_rng(seed), 8, 30, 3)
        weights, objectives, labels, reason = reference_descent(data, lam, config, hard)
        assert reason is expected
        result = fit_hard(data, lam, config=config) if hard else fit_soft(data, lam, config)
        assert result.iterations == len(objectives)
        assert result.trace.stop_reason is reason
        np.testing.assert_allclose(result.trace.weight_path, weights, rtol=1e-12)
        np.testing.assert_allclose(result.trace.objectives, objectives, rtol=1e-12)
        if hard:
            np.testing.assert_array_equal(result.imputed, labels)
        else:
            np.testing.assert_allclose(result.imputed, labels, rtol=1e-12)


def assert_same_fit(a, b):
    """Two fit results with the same bits: weights, labels, stop and trace.

    Each result's final weights and objective are its trace's last round.
    """
    for fit in (a, b):
        np.testing.assert_array_equal(fit.weights, fit.trace.weight_path[-1])
        assert fit.final_objective == fit.trace.objectives[-1]
        assert fit.imputed is fit.trace.final_labels
    assert a.iterations == b.iterations
    assert a.trace.stop_reason is b.trace.stop_reason
    assert a.trace.converged == b.trace.converged
    assert a.final_objective == b.final_objective
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.imputed, b.imputed)
    np.testing.assert_array_equal(a.trace.rounds, b.trace.rounds)
    np.testing.assert_array_equal(a.trace.weight_path, b.trace.weight_path)
    np.testing.assert_array_equal(a.trace.objectives, b.trace.objectives)
    np.testing.assert_array_equal(a.trace.final_labels, b.trace.final_labels)


def lone_fit(data, method, lam, config):
    return {"soft": fit_soft, "hard": fit_hard}[method](data, lam, config)


class TestSupervisedStart:
    @pytest.mark.parametrize("method", ["soft", "hard"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("n_unlabeled", [0, 30])
    def test_fit_is_fit_starts_from_supervised(self, method, lam, n_unlabeled):
        # fit_soft and fit_hard are the one-start case of fit_starts.
        data = make_dataset(np.random.default_rng(4), 8, n_unlabeled, 3)
        w_sup = ridge_solve(data.labeled_features, data.labels, lam)
        for config in (SolverConfig(), SolverConfig(max_iterations=2)):
            [expected] = fit_starts(data, [w_sup], method, lam, config)
            assert_same_fit(lone_fit(data, method, lam, config), expected)


class TestStopAtTheCap:
    """Each round ends in the stop test, the last allowed round too.

    So a fit that converges in exactly ``max_iterations`` rounds reports
    its converged reason and the uncapped fit's bits, and only a fit still
    moving after its last allowed round stops at the cap.
    """

    @pytest.mark.parametrize("seed, rounds", [(1, 2), (2, 5), (3, 7)])
    @pytest.mark.parametrize("entry", ["fit_hard", "fit_starts"])
    def test_hard_fit_at_its_round_count(self, entry, seed, rounds):
        data = cap_data(seed)
        w_sup = ridge_solve(data.labeled_features, data.labels, 0.0)

        def fit(config):
            if entry == "fit_hard":
                return fit_hard(data, 0.0, config)
            return fit_starts(data, [w_sup], "hard", 0.0, config)[0]

        uncapped = fit(SolverConfig())
        assert uncapped.iterations == rounds
        assert uncapped.trace.stop_reason is StopReason.LABELS_STABLE
        at_cap = fit(SolverConfig(max_iterations=rounds))
        assert at_cap.trace.converged
        assert_same_fit(at_cap, uncapped)
        below = fit(SolverConfig(max_iterations=rounds - 1))
        assert not below.trace.converged
        assert below.trace.stop_reason is StopReason.MAX_ITERATIONS
        assert below.iterations == rounds - 1
        np.testing.assert_array_equal(below.trace.weight_path, uncapped.trace.weight_path[:-1])

    @pytest.mark.parametrize("cap", [5, 7, 9])
    def test_block_with_starts_at_and_past_the_cap(self, cap):
        # Eight random starts run 1-14 rounds; the 404-row design fits
        # them in one block. At each cap one start converges in its last
        # allowed round and others are still moving.
        data = cap_data(2)
        starts = 2.0 * np.random.default_rng(0).standard_normal((8, data.n_features))
        uncapped = fit_starts(data, starts, "hard")
        natural = [fit.iterations for fit in uncapped]
        assert natural == [2, 1, 1, 14, 2, 9, 7, 5]
        capped = fit_starts(data, starts, "hard", 0.0, SolverConfig(max_iterations=cap))
        for fit, alone in zip(capped, uncapped):
            if alone.iterations <= cap:
                assert_same_fit(fit, alone)
            else:
                assert fit.trace.stop_reason is StopReason.MAX_ITERATIONS
                assert fit.iterations == cap
                np.testing.assert_array_equal(
                    fit.trace.weight_path, alone.trace.weight_path[:cap]
                )
        reasons = [fit.trace.stop_reason for fit in capped]
        assert reasons.count(StopReason.MAX_ITERATIONS) == sum(n > cap for n in natural)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("data", ["clusters", "u30"])
    def test_soft_fit_at_its_round_count_is_unchanged(self, data, lam):
        data = cap_data(2) if data == "clusters" else make_dataset(
            np.random.default_rng(0), 8, 30, 3
        )
        uncapped = fit_soft(data, lam)
        rounds = uncapped.iterations
        assert uncapped.trace.stop_reason is StopReason.OBJECTIVE_TOLERANCE
        assert_same_fit(fit_soft(data, lam, SolverConfig(max_iterations=rounds)), uncapped)
        below = fit_soft(data, lam, SolverConfig(max_iterations=rounds - 1))
        assert below.trace.stop_reason is StopReason.MAX_ITERATIONS
        assert below.iterations == rounds - 1


class TestLongDesign:
    @pytest.mark.parametrize("method", ["soft", "hard"])
    def test_each_start_has_its_lone_fit_bits(self, method):
        # On a block of two or more rows numpy's einsum sums a row longer
        # than its 8,192-entry buffer in pieces, in another order than the
        # row alone. So the starts over this 8,596-row design run one per
        # block; the hard objective sums its 8,196 labeled rows.
        data = make_dataset(np.random.default_rng(6), 8196, 400, 3)
        starts = 2.0 * np.random.default_rng(7).standard_normal((3, 3))
        config = SolverConfig(max_iterations=4)
        fits = fit_starts(data, starts, method, 0.0, config)
        for start, fit in zip(starts, fits):
            assert_same_fit(fit, fit_starts(data, [start], method, 0.0, config)[0])


class TestFitDatasets:
    """``_fit_stack`` runs same-shape datasets as one stack, each with a lone fit's final bits."""

    @staticmethod
    def datasets(count=7):
        rng = np.random.default_rng(0)
        return [make_dataset(rng, 8, 30, 3) for _ in range(count)]

    @staticmethod
    def fit_stack(datasets, lam, config=SolverConfig()):
        known = np.stack([data.labels for data in datasets])
        design = np.stack([data.extended_features for data in datasets])
        return _fit_stack(known, design, lam, config)

    @staticmethod
    def assert_final_equals(finals, i, fit):
        """Entry ``i`` of a stack's finals has the lone fit's final bits."""
        np.testing.assert_array_equal(finals.weights[i], fit.weights)
        assert finals.objectives[i] == fit.final_objective
        assert finals.reasons[i] is fit.trace.stop_reason
        assert finals.rounds[i] == fit.iterations
        np.testing.assert_array_equal(finals.labels[i], fit.imputed)

    @pytest.mark.parametrize("method", ["soft", "hard"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_equals_lone_fits(self, method, lam, count):
        # The round cap stops some datasets and not others, so they leave
        # the stack in different rounds; stacks of one and three datasets
        # take the first ones. The hard fits run 1-4 rounds (lam 0) and
        # 1-3 (lam 0.5), so a cap of 2 stops some at the cap and ends
        # others on stable labels in the last allowed round.
        config = SolverConfig(max_iterations={"soft": 20, "hard": 2}[method])
        datasets = self.datasets()
        alone = [lone_fit(data, method, lam, config) for data in datasets]
        reasons = {result.trace.stop_reason for result in alone}
        assert StopReason.MAX_ITERATIONS in reasons and len(reasons) == 2
        _, _, soft, hard = self.fit_stack(datasets[:count], lam, config)
        stacked = {"soft": soft, "hard": hard}[method]
        assert stacked.weights.shape == (count, 3) and len(stacked.reasons) == count
        for i, fit in enumerate(alone[:count]):
            self.assert_final_equals(stacked, i, fit)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("design", ["u30", "full-rank", "repeated-column", "scaled"])
    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(max_iterations=1)],
                             ids=["cap1000", "cap1"])
    def test_methods_share_factorizations(self, lam, design, config):
        # One call fits both solvers; its supervised weights and operators
        # are the lone ridge solves and operators of every dataset. With no
        # unlabeled rows every fit is the supervised fit, bit for bit.
        if design == "u30":
            datasets = self.datasets(count=4)
        else:
            datasets = [no_unlabeled_dataset(design, seed) for seed in range(4)]
        supervised, operators, soft, hard = self.fit_stack(datasets, lam, config)
        fits = {"soft": soft, "hard": hard}
        converged = {"soft": StopReason.OBJECTIVE_TOLERANCE, "hard": StopReason.LABELS_STABLE}
        for i, data in enumerate(datasets):
            np.testing.assert_array_equal(
                supervised[i], ridge_solve(data.labeled_features, data.labels, lam)
            )
            np.testing.assert_array_equal(
                operators[i], ridge_operator(data.extended_features, lam)
            )
            for method in ("soft", "hard"):
                fit = lone_fit(data, method, lam, config)
                if design != "u30":
                    assert_supervised_fit(fit, data, lam, converged[method])
                self.assert_final_equals(fits[method], i, fit)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestBufferedLoop:
    """``_run_descent`` writes its rounds into per-block buffers with the frozen loop's bits."""

    @staticmethod
    def problem(case, n_unlabeled, lam):
        """Known labels, design, ridge operator and starts of one lock-step block.

        "one" is the supervised start on one dataset, "random-7" seven
        random starts on it, and "stack-5" five datasets, each from its
        supervised weights.
        """
        rng = np.random.default_rng(5)
        if case == "stack-5":
            datasets = [make_dataset(rng, 8, n_unlabeled, 3) for _ in range(5)]
            known = np.stack([data.labels for data in datasets])
            design = np.stack([data.extended_features for data in datasets])
            starts = (ridge_operator(design[:, :8], lam) @ known[:, :, None])[:, :, 0]
        else:
            data = make_dataset(rng, 8, n_unlabeled, 3)
            known, design = data.labels, data.extended_features
            if case == "one":
                starts = ridge_solve(data.labeled_features, known, lam)[None, :]
            else:
                starts = 2.0 * rng.standard_normal((7, 3))
        return known, design, ridge_operator(design, lam), starts

    @staticmethod
    def expected_reasons(config, problem, lam, hard, expected):
        """The frozen loop's stop reasons, but stable where its round cap met a fixed point.

        The frozen loop tests hard stability at the top of the next round,
        so a start whose last allowed round is a fixed point stops there
        at the cap. One round more shows which starts those are: the
        frozen loop then stops them on stable labels after exactly the
        capped number of rounds.
        """
        if not hard:
            return expected.reasons
        more = SolverConfig(max_iterations=config.max_iterations + 1)
        longer = allocating_run_descent(more, *problem, lam, hard)
        return [
            StopReason.LABELS_STABLE
            if reason is StopReason.MAX_ITERATIONS
            and longer.reasons[i] is StopReason.LABELS_STABLE
            and longer.rounds[i] == config.max_iterations
            else reason
            for i, reason in enumerate(expected.reasons)
        ]

    def check_against_allocating_loop(self, max_iterations, problem, lam, hard):
        """Run both loops on ``problem``, compare every final and path entry, return the finals."""
        config = SolverConfig(max_iterations=max_iterations)
        path, expected_path = [], []
        finals = _run_descent(config, *problem, lam, hard, path)
        expected = allocating_run_descent(config, *problem, lam, hard, expected_path)
        for name in ("weights", "objectives", "labels", "rounds"):
            assert_same_bits(getattr(finals, name), getattr(expected, name))
        assert finals.reasons == self.expected_reasons(config, problem, lam, hard, expected)
        assert len(path) == len(expected_path)
        # Each entry is tagged with its round; below the trace limit every round is kept.
        assert [iteration for iteration, *_ in path] == list(range(len(path)))
        path = [entry[1:] for entry in path]
        for (active, W, values), (want_active, want_W, want_values) in zip(path, expected_path):
            assert_same_bits(active, want_active)
            assert_same_bits(W, want_W)
            assert_same_bits(values, want_values)
        # Every round's weights are a new array: the traces keep them all.
        spans = sorted((W.__array_interface__["data"][0], W.nbytes) for _, W, _ in path)
        assert all(W.flags.c_contiguous for _, W, _ in path)
        assert all(start + size <= after for (start, size), (after, _) in zip(spans, spans[1:]))
        return finals

    # On the seven random starts with U = 30, the hard solver's cap of 4
    # and the soft solver's caps of 18 and 19 stop some starts at the cap
    # in the round that others stop in by their own rule.
    @pytest.mark.parametrize("max_iterations", [1, 3, 4, 18, 19, 1000])
    @pytest.mark.parametrize("n_unlabeled", [0, 30])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("case", ["one", "random-7", "stack-5"])
    @pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
    def test_matches_allocating_loop(self, hard, case, lam, n_unlabeled, max_iterations):
        problem = self.problem(case, n_unlabeled, lam)
        finals = self.check_against_allocating_loop(max_iterations, problem, lam, hard)
        if case != "one" and n_unlabeled and max_iterations == 1000:
            # The starts leave the block in different rounds (soft 16-27,
            # hard 1-5), so the round views are rebuilt after departures,
            # in per-start mode with the stack's rows too.
            assert len(set(finals.rounds.tolist())) > 1

    @pytest.mark.parametrize("max_iterations", [1, 3, 1000])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
    def test_matches_allocating_loop_on_a_large_design(self, hard, lam, max_iterations):
        # One start with U = 2,000: the products of a 2,008-row design
        # take other BLAS paths than those of the 38-row ones above.
        problem = self.problem("one", 2000, lam)
        self.check_against_allocating_loop(max_iterations, problem, lam, hard)

    @pytest.mark.parametrize("case", ["random-7", "stack-5"])
    @pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
    def test_leaves_its_inputs_unchanged(self, hard, case):
        # The rounds write through views of the block's own buffers, never
        # into the caller's known labels, design, operator or starts, with
        # a shared problem or one per start, and as starts leave.
        problem = self.problem(case, 30, 0.5)
        copies = [array.copy() for array in problem]
        finals = _run_descent(SolverConfig(), *problem, 0.5, hard, [])
        assert len(set(finals.rounds.tolist())) > 1
        for array, copy in zip(problem, copies):
            assert_same_bits(array, copy)


class TestTraceMemory:
    def test_only_final_record_holds_labels(self):
        # Soft BCD on these overlapping clusters is still descending after
        # 500 rounds, so the zero tolerance never stops it early.
        data, _ = generate(SyntheticSpec(kind=SyntheticKind.TWO_GAUSSIAN_2D,
                                         labeled_per_class=2, unlabeled_total=1000, seed=0))
        config = SolverConfig(max_iterations=500, objective_tolerance=0.0)
        result = fit_soft(data, 0.0, config)
        records = result.trace.records
        assert result.trace.stop_reason is StopReason.MAX_ITERATIONS
        assert len(records) == 500
        assert sum(r.labels.nbytes for r in records) == 8 * data.n_unlabeled
        assert all(r.labels.size == 0 for r in records[:-1])
        assert records[-1].labels is result.imputed
        np.testing.assert_allclose(
            result.imputed, update_soft_labels(data, records[-2].weights), rtol=1e-12
        )

    def test_peak_is_bounded_in_the_round_count(self):
        # The first coordinate fits the labeled row (1, 0) exactly; along
        # the second, the labeled row (0, 1e-3) pulls the weight to 0 against
        # unlabeled rows whose decision values stay inside (0, 1). Each round
        # moves it by a factor of about 1 - 3e-7, so the objective still
        # falls after 50,000 rounds and the zero tolerance never stops it.
        # The trace thins while the run goes, so its peak is set by the
        # 10,000 rounds kept up to the limit, not by the run's length: the
        # two peaks measured 4.6 and 4.5 MB, against 6.1 and 25 MB when the
        # trace was thinned only after the run.
        c = np.linspace(-1.0, 1.0, 10)
        data = Dataset([[1.0, 0.0], [0.0, 1e-3]], [1.0, 0.0],
                       np.column_stack([np.full(10, 0.5), c]))
        peaks = []
        for rounds in 12_000, 50_000:
            config = SolverConfig(max_iterations=rounds, objective_tolerance=0.0)
            tracemalloc.start()
            try:
                fit = fit_starts(data, [np.array([1.0, 0.4])], "soft", 0.0, config)[0]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert fit.trace.stop_reason is StopReason.MAX_ITERATIONS
            assert len(fit.trace.rounds) == rounds // 10 + 1
            peaks.append(peak)
        assert peaks[1] < 1.5 * peaks[0]

    # Seven random starts on one problem leave the lock-step block in
    # different rounds: soft at 53-69 (zero tolerance) and 30-42, hard at
    # 2-5. Each limit has starts on both sides of it but the 10.
    @pytest.mark.parametrize("method, tolerance, limit", [
        ("soft", 0.0, 60), ("soft", 1e-10, 36), ("soft", 0.0, 10), ("hard", 1e-10, 3),
    ])
    def test_thinning_while_running_keeps_the_rounds_of_a_full_path(
        self, monkeypatch, method, tolerance, limit
    ):
        import sslsq.selflearn as selflearn

        rng = np.random.default_rng(1)
        data = make_dataset(rng, 8, 30, 3)
        starts = list(2.0 * rng.standard_normal((7, 3)))
        config = SolverConfig(max_iterations=300, objective_tolerance=tolerance)
        full = fit_starts(data, starts, method, 0.0, config)
        monkeypatch.setattr(selflearn, "_TRACE_LIMIT", limit)
        thinned = fit_starts(data, starts, method, 0.0, config)
        counts = [fit.iterations for fit in full]
        assert max(counts) > limit
        for whole, fit in zip(full, thinned):
            count = whole.iterations
            kept = list(range(count))
            if count > limit:
                kept = list(range(0, count, 10)) + ([count - 1] if (count - 1) % 10 else [])
            assert fit.trace.rounds.tolist() == kept
            assert fit.trace.weight_path.tobytes() == whole.trace.weight_path[kept].tobytes()
            assert fit.trace.objectives.tobytes() == whole.trace.objectives[kept].tobytes()
            assert fit.weights.tobytes() == whole.weights.tobytes()
            assert fit.imputed.tobytes() == whole.imputed.tobytes()
            assert fit.final_objective == whole.final_objective
            assert fit.trace.stop_reason is whole.trace.stop_reason


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iterations=0)
        with pytest.raises(InvalidInputError):
            SolverConfig(objective_tolerance=-1.0)

    # A float cap would fail in the descent loop's range(), and a NaN
    # tolerance would never stop a soft fit before the cap.
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iterations": 2.5}, "max_iterations must be an integer"),
        ({"max_iterations": 3.0}, "max_iterations must be an integer"),
        ({"max_iterations": "10"}, "max_iterations must be an integer"),
        ({"objective_tolerance": float("nan")}, "objective_tolerance must be nonnegative"),
    ])
    def test_refuses_values_the_loop_cannot_run(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=message):
            SolverConfig(**kwargs)

    def test_accepts_a_numpy_integer_cap(self):
        data = make_dataset(np.random.default_rng(0), 8, 30, 3)
        result = fit_soft(data, 0.0, SolverConfig(max_iterations=np.int64(3)))
        assert result.iterations == 3

    def test_trace_thinning(self, rng, monkeypatch):
        import sslsq.selflearn as selflearn

        monkeypatch.setattr(selflearn, "_TRACE_LIMIT", 50)
        data = make_dataset(rng, 5, 6, 2)
        config = SolverConfig(max_iterations=200, objective_tolerance=0.0)
        result = fit_soft(data, 0.0, config)
        records = result.trace.records
        assert len(records) <= 200 // 10 + 1
        # The last computed state must survive thinning.
        assert result.final_objective == records[-1].objective
        assert_monotone(result.trace, "(thinned)")

    def test_iterations_count_rounds_after_thinning(self, monkeypatch):
        # Thinning keeps 21 of 200 records; the round count must not follow it.
        import sslsq.selflearn as selflearn

        monkeypatch.setattr(selflearn, "_TRACE_LIMIT", 50)
        data, _ = generate(SyntheticSpec(kind=SyntheticKind.TWO_GAUSSIAN_2D,
                                         labeled_per_class=2, unlabeled_total=200, seed=0))
        config = SolverConfig(max_iterations=200, objective_tolerance=0.0)
        result = fit_soft(data, 0.0, config)
        assert result.trace.stop_reason is StopReason.MAX_ITERATIONS
        assert len(result.trace.records) == 21
        assert result.iterations == 200
        assert result.trace.rounds.tolist() == list(range(0, 200, 10)) + [199]


class TestPenalizedSolveAccuracy:
    """With lam > 0 every solve must match lstsq on the augmented system.

    Two near-collinear columns scaled by 1e6 make the extended design
    ill-conditioned; solving through the normal equations would square
    its condition number and lose about seven digits here.
    """

    @pytest.mark.parametrize("lam", [1e-8, 1e-4, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_match_augmented_lstsq(self, lam, seed):
        data = scaled_collinear_data(seed)
        d = data.n_features
        augmented = np.vstack([data.extended_features, np.sqrt(lam) * np.eye(d)])
        soft = fit_soft(data, lam)
        hard = fit_hard(data, lam)
        brute = brute_force_hard_minimum(data, lam)
        for name, weights, imputed in [
            ("soft", soft.weights, soft.imputed),
            ("hard", hard.weights, hard.imputed),
            ("brute force", brute.weights, brute.labels),
        ]:
            targets = np.concatenate([data.labels, imputed, np.zeros(d)])
            expected = np.linalg.lstsq(augmented, targets, rcond=None)[0]
            error = np.max(np.abs(weights - expected) / np.abs(expected))
            assert error <= 1e-10, f"{name}: relative error {error:.2e}"
