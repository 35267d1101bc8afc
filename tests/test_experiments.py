"""Experiment harnesses: restarts, clustering, studies and curves."""

import tracemalloc

import numpy as np
import pytest

from sslsq import (
    CapacityError,
    Dataset,
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    SolverConfig,
    StopReason,
    SyntheticKind,
    SyntheticSpec,
    count_unique_optima,
    evaluate_error,
    fit_hard,
    fit_soft,
    fit_starts,
    generate,
    random_init_near_supervised,
    ridge_solve,
    run_basin_study,
    run_learning_curve,
    run_local_optima_study,
)
from sslsq.datagen import derive_rng, sample_learning_curve_split
from sslsq.experiments import METHODS, LearningCurveAggregate
from sslsq.model import decision_values

from conftest import lone_learning_curve, make_dataset, pairwise_count_unique_optima


class TestEvaluateError:
    def test_perfect_classifier(self):
        w = np.array([1.0, 0.0])
        features = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert evaluate_error(w, features, [1.0, 0.0]) == 0.0

    def test_constant_zero_on_balanced_set(self):
        w = np.zeros(2)
        features = np.ones((4, 2))
        assert evaluate_error(w * 0.0, features, [1.0, 1.0, 0.0, 0.0]) == 0.5

    def test_flip_symmetry(self, rng):
        features = rng.standard_normal((20, 3))
        labels = (rng.random(20) < 0.5).astype(float)
        w = rng.standard_normal(3)
        error = evaluate_error(w, features, labels)
        flipped = evaluate_error(w, features, 1.0 - labels)
        assert error + flipped == pytest.approx(1.0)

    def test_empty_test_set(self):
        with pytest.raises(DegenerateInputError):
            evaluate_error(np.ones(2), np.empty((0, 2)), [])


def place_on_threshold(features, row, w, target, rng):
    """Set ``features[row]`` so that its decision value under ``w`` is exactly ``target``.

    Values are read through ``decision_values`` on the whole matrix, the
    product ``evaluate_error`` takes, and one coordinate is stepped an ulp
    at a time from a random row until the value lands.
    """
    k = int(np.argmax(np.abs(w)))
    x = features[row]
    for _ in range(100):
        x[:] = rng.standard_normal(w.size)
        x[k] = 0.0
        x[k] = (target - x @ w) / w[k]
        for _ in range(20):
            value = decision_values(features, w)[row]
            if value == target:
                return
            x[k] = np.nextafter(x[k], np.inf if (value < target) == (w[k] > 0) else -np.inf)
    raise AssertionError(f"no row has decision value {target!r}")


class TestStackedErrors:
    """The learning curve's stacked test errors against per-vector ``evaluate_error``."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_equal_lone_errors_at_the_threshold(self, rng, lam):
        # Each method's weights get test rows on the threshold and one ulp
        # below and above it, where a decision value one ulp off flips a
        # prediction and so the error.
        from sslsq.experiments import _stacked_errors

        pool = fully_labeled_pool(60, 5, kind=SyntheticKind.TWO_GAUSSIAN_2D, separation=3.0)
        targets = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
        crafted = len(METHODS) * len(targets)
        weights, features, labels = [], [], []
        for repeat in range(3):
            split = sample_learning_curve_split(pool, 8, 10, derive_rng(4, repeat))
            train = split.train
            row = [
                ridge_solve(train.labeled_features, train.labels, lam),
                fit_soft(train, lam).weights,
                fit_hard(train, lam).weights,
                ridge_solve(train.extended_features,
                            np.concatenate([train.labels, split.unlabeled_truth]), lam),
            ]
            test = np.vstack([split.test_features, np.zeros((crafted, 3))])
            first = len(split.test_labels)
            for m, w in enumerate(row):
                for t, target in enumerate(targets):
                    place_on_threshold(test, first + 3 * m + t, w, target, rng)
            weights.append(row)
            features.append(test)
            labels.append(np.concatenate([split.test_labels, np.ones(crafted)]))
        weights, features, labels = np.array(weights), np.array(features), np.array(labels)
        for w_row, test in zip(weights, features):
            for m, w in enumerate(w_row):
                values = decision_values(test, w)[-crafted:][3 * m : 3 * m + 3]
                np.testing.assert_array_equal(values, targets)
        lone = [[evaluate_error(w, test, y) for w in w_row]
                for w_row, test, y in zip(weights, features, labels)]
        np.testing.assert_array_equal(_stacked_errors(weights, features, labels), lone)

    def test_overflowing_decision_values_raise(self):
        from sslsq.experiments import _stacked_errors

        weights = np.ones((2, 4, 3))
        weights[1, 2] = 1e300
        features = np.full((2, 5, 3), 1e10)
        labels = np.zeros((2, 5))
        message = "decision values contain non-finite entries"
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidInputError, match=message):
                _stacked_errors(weights, features, labels)
            with pytest.raises(InvalidInputError, match=message):
                evaluate_error(weights[1, 2], features[1], labels[1])


class TestRandomInit:
    def test_reproducible(self, rng):
        data = make_dataset(rng, 6, 3, 2)
        a = random_init_near_supervised(data, 0.0, 5, 1.0, seed=9)
        b = random_init_near_supervised(data, 0.0, 5, 1.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_small_scale_stays_close(self, rng):
        data = make_dataset(rng, 6, 3, 2)
        w_sup = ridge_solve(data.labeled_features, data.labels, 0.0)
        starts = random_init_near_supervised(data, 0.0, 50, 1e-9, seed=9)
        assert np.max(np.abs(starts - w_sup)) < 1e-6

    def test_mean_recovers_center(self, rng):
        data = make_dataset(rng, 6, 3, 2)
        w_sup = ridge_solve(data.labeled_features, data.labels, 0.0)
        starts = random_init_near_supervised(data, 0.0, 10000, 0.5, seed=9)
        sd = 0.5 * max(1.0, float(np.linalg.norm(w_sup)))
        standard_error = sd / np.sqrt(10000)
        assert np.max(np.abs(starts.mean(axis=0) - w_sup)) < 3.0 * standard_error

    def test_validation(self, rng):
        data = make_dataset(rng, 6, 3, 2)
        with pytest.raises(InvalidInputError):
            random_init_near_supervised(data, 0.0, 0, 1.0)
        with pytest.raises(InvalidInputError):
            random_init_near_supervised(data, 0.0, 5, 0.0)
        for scale in (-1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="scale must be positive and finite"):
                random_init_near_supervised(data, 0.0, 5, scale)
        for seed in (-1, 2**64):
            with pytest.raises(InvalidInputError, match="seed must fit in 64 unsigned bits"):
                random_init_near_supervised(data, 0.0, 5, 1.0, seed=seed)


class TestUniqueOptima:
    def test_counts_well_separated_clusters(self):
        finals = np.array([[0.0, 0.0], [1e-6, 0.0], [1.0, 1.0], [5.0, -1.0]])
        count, labels = count_unique_optima(finals)
        assert count == 3
        assert labels[0] == labels[1]

    def test_order_invariance(self, rng):
        finals = np.vstack(
            [rng.standard_normal(3) + center for center in (0.0, 10.0, -7.0)
             for _ in range(5)]
        ) * 1e-6 + np.repeat([[0.0, 0, 0], [10.0, 0, 0], [-7.0, 0, 0]], 5, axis=0)
        count, _ = count_unique_optima(finals)
        permutation = rng.permutation(len(finals))
        count_permuted, _ = count_unique_optima(finals[permutation])
        assert count == count_permuted == 3

    def test_empty(self):
        count, labels = count_unique_optima(np.zeros((0, 2)))
        assert count == 0 and labels.size == 0

    @pytest.mark.parametrize("block_elements", [1, 50, 16384])
    def test_blocked_adjacency_matches_pairwise(self, monkeypatch, rng, block_elements):
        # Blocks of one row, of a few rows and of every row must give the
        # all-pairs reference's count and ids, on random vectors, duplicates,
        # a chain linked only through its neighbours, a pair exactly at the
        # threshold (1e-4 * (1 + 3) here) and a pair one ulp inside it.
        import sslsq.experiments as experiments

        monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", block_elements)
        base = rng.uniform(-3.0, 3.0, (12, 3))
        base[0, 0] = 3.0
        chain = np.full((6, 3), 1.5)
        chain[:, 0] += 2.4e-4 * np.arange(6)
        at = np.array([[0.0, 1.0, 2.0], [4e-4, 1.0, 2.0],
                       [0.0, -1.0, 2.0], [np.nextafter(4e-4, 0.0), -1.0, 2.0]])
        finals = np.vstack([base, base[3:7], chain, at])
        for vectors in (finals, rng.permutation(finals), np.round(finals, 1), finals[:1]):
            count, ids = count_unique_optima(vectors)
            expected_count, expected_ids = pairwise_count_unique_optima(vectors)
            assert count == expected_count
            np.testing.assert_array_equal(ids, expected_ids)

    @pytest.mark.parametrize("block_elements", [1, 30, 16384])
    def test_every_reached_vector_is_expanded(self, monkeypatch, rng, block_elements):
        # A fork whose two arms meet only at its first vector, so the
        # search must expand both arms, however its frontier is split
        # into blocks of rows (one, four or all seven here).
        import sslsq.experiments as experiments

        monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", block_elements)
        arms = np.outer([0.0, 3e-4, -3e-4, 6e-4, -6e-4, 9e-4, -9e-4], [1.0, 0.0, 0.0])
        fork = np.array([1.0, -2.0, 3.0]) + arms
        assert count_unique_optima(fork)[0] == 1
        for vectors in (fork, rng.permutation(fork), np.vstack([fork, 5.0 - fork])):
            count, ids = count_unique_optima(vectors)
            expected_count, expected_ids = pairwise_count_unique_optima(vectors)
            assert count == expected_count
            np.testing.assert_array_equal(ids, expected_ids)

    def test_memory_stays_bounded(self, rng):
        # An (n, n) bool adjacency alone would take 4 MB here; building
        # every pairwise difference at once peaked at 183 MB.
        finals = rng.standard_normal((2000, 3))
        tracemalloc.start()
        try:
            count, _ = count_unique_optima(finals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2000
        assert peak < 2e6


def small_two_cluster(seed=21):
    return generate(SyntheticSpec(labeled_per_class=2, unlabeled_total=60,
                                  class_separation=4.0, noise_sd=1.0, seed=seed))


class TestBasinStudy:
    def test_row_and_cluster_bookkeeping(self):
        data, truth = small_two_cluster()
        starts = random_init_near_supervised(data, 0.0, 8, 1.0, seed=2)
        result = run_basin_study(data, 0.0, "hard", list(starts),
                                 data.unlabeled_features, truth)
        assert [record.start_index for record in result.runs] == list(range(-1, 8))
        assert result.unique_optima_count <= 9
        for record in result.runs:
            assert 0 <= record.optimum_id < result.unique_optima_count
            assert 0.0 <= record.test_error <= 1.0
            objectives = record.fit.trace.objectives
            for k in range(1, len(objectives)):
                assert objectives[k] <= objectives[k - 1] + 1e-10 * (1 + abs(objectives[k - 1]))

    def test_soft_reaches_single_optimum(self):
        data, truth = small_two_cluster()
        starts = random_init_near_supervised(data, 0.0, 12, 1.0, seed=2)
        config = SolverConfig(max_iterations=5000, objective_tolerance=1e-13)
        result = run_basin_study(data, 0.0, "soft", list(starts),
                                 data.unlabeled_features, truth, config=config)
        assert result.unique_optima_count == 1

    def test_start_at_fixed_point_stays_put(self):
        # Tolerance 0 runs the first fit to exact numerical stationarity,
        # so restarting there cannot move.
        data, truth = small_two_cluster()
        config = SolverConfig(max_iterations=20000, objective_tolerance=0.0)
        settled = fit_soft(data, 0.0, config).weights
        result = run_basin_study(data, 0.0, "soft", [settled], config=config)
        record = result.runs[1]
        assert record.fit.iterations <= 2
        assert np.max(np.abs(record.fit.weights - settled)) < 1e-8

    @pytest.mark.parametrize("method", ["soft", "hard"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_batch_equals_one_start_at_a_time(self, method, lam):
        # The study runs all starts in lock-step; each record must match a
        # lone fit from that start. The round cap stops some starts and
        # not others, so starts leave the batch in different rounds; the
        # last start is a settled fixed point.
        data, truth = small_two_cluster()
        cap = {"soft": 120, "hard": 3}[method]
        config = SolverConfig(max_iterations=cap)
        fit = {"soft": fit_soft, "hard": fit_hard}[method]
        settled = fit(data, lam, SolverConfig(max_iterations=20000, objective_tolerance=0.0))
        starts = list(random_init_near_supervised(data, lam, 6, 1.0, seed=2))
        starts.append(settled.weights)
        result = run_basin_study(data, lam, method, starts, data.unlabeled_features, truth,
                                 config=config)
        batch = fit_starts(data, starts, method, lam, config=config)
        for record, start, fitted in zip(result.runs[1:], starts, batch):
            alone = fit_starts(data, [start], method, lam, config=config)[0]
            trace = record.fit.trace
            assert record.fit.iterations == alone.iterations
            assert trace.stop_reason is alone.trace.stop_reason
            assert trace.converged == alone.trace.converged
            np.testing.assert_allclose(trace.weight_path, alone.trace.weight_path, rtol=1e-12)
            np.testing.assert_allclose(trace.objectives, alone.trace.objectives, rtol=1e-12)
            np.testing.assert_array_equal(trace.rounds, alone.trace.rounds)
            assert record.test_error == evaluate_error(alone.weights, data.unlabeled_features,
                                                       truth)
            if method == "hard":
                np.testing.assert_array_equal(fitted.imputed, alone.imputed)
            else:
                np.testing.assert_allclose(fitted.imputed, alone.imputed, rtol=1e-12)
        assert result.runs[-1].fit.iterations <= 2
        reasons = {r.fit.trace.stop_reason for r in result.runs[1:]}
        assert StopReason.MAX_ITERATIONS in reasons and len(reasons) == 2
        assert len({r.fit.iterations for r in result.runs[1:]}) >= 3

    def test_block_size_does_not_change_results(self, monkeypatch):
        # Starts run in blocks capped by selflearn._BLOCK_ELEMENTS; blocks of
        # two starts must give the very bits of one block of seven.
        import sslsq.selflearn as selflearn

        data, _ = small_two_cluster()
        starts = random_init_near_supervised(data, 0.0, 7, 1.0, seed=4)
        config = SolverConfig(max_iterations=150)
        whole = fit_starts(data, starts, "soft", config=config)
        rows = data.n_labeled + data.n_unlabeled
        monkeypatch.setattr(selflearn, "_BLOCK_ELEMENTS", 2 * rows)
        split = fit_starts(data, starts, "soft", config=config)
        assert len({a.iterations for a in whole}) > 1
        for a, b in zip(whole, split):
            assert a.iterations == b.iterations
            assert a.trace.stop_reason is b.trace.stop_reason
            np.testing.assert_array_equal(a.trace.weight_path, b.trace.weight_path)
            np.testing.assert_array_equal(a.trace.objectives, b.trace.objectives)
            np.testing.assert_array_equal(a.imputed, b.imputed)

    @pytest.mark.parametrize("method", ["soft", "hard"])
    def test_bad_starts_raise(self, monkeypatch, method):
        # A bad start anywhere in the list raises the error fit_starts
        # raises for it, before any descent runs.
        import sslsq.selflearn as selflearn

        data, truth = small_two_cluster()
        good = list(random_init_near_supervised(data, 0.0, 3, 1.0, seed=2))
        cases = [
            (np.array([np.nan, 1.0]), InvalidInputError,
             "initial weights contain non-finite entries"),
            (np.array([np.inf, 1.0]), InvalidInputError,
             "initial weights contain non-finite entries"),
            (np.ones(3), DimensionError, r"initial weights have shape \(3,\), expected \(2,\)"),
        ]

        def no_descent(*args, **kwargs):
            raise AssertionError("a descent ran before every start was checked")

        monkeypatch.setattr(selflearn, "_run_descent", no_descent)
        for bad, error, message in cases:
            with pytest.raises(error, match=message):
                fit_starts(data, [good[0], bad, good[1]], method)
            with pytest.raises(error, match=message):
                run_basin_study(data, 0.0, method, [good[0], bad, good[1]],
                                data.unlabeled_features, truth)

    def test_unknown_method_raises(self, monkeypatch):
        # The method is checked first: before the starts and before any
        # descent, on data with unlabeled rows and on data with none.
        import sslsq.selflearn as selflearn

        data, truth = small_two_cluster()
        supervised_only = Dataset(data.labeled_features, data.labels)

        def no_descent(*args, **kwargs):
            raise AssertionError("a descent ran before the method was checked")

        monkeypatch.setattr(selflearn, "_run_descent", no_descent)
        for problem in (data, supervised_only):
            w = ridge_solve(problem.labeled_features, problem.labels, 0.0)
            for starts in ([w], []):
                with pytest.raises(InvalidInputError, match="unknown method 'medium'"):
                    fit_starts(problem, starts, "medium")
            with pytest.raises(InvalidInputError, match="unknown method 'medium'"):
                run_basin_study(problem, 0.0, "medium", [w], data.unlabeled_features, truth)

    def test_iterations_survive_trace_thinning(self, monkeypatch):
        import sslsq.selflearn as selflearn

        monkeypatch.setattr(selflearn, "_TRACE_LIMIT", 50)
        data, truth = small_two_cluster()
        config = SolverConfig(max_iterations=200, objective_tolerance=0.0)
        result = run_basin_study(data, 0.0, "soft", [np.zeros(2)], config=config)
        record = result.runs[1]
        assert record.fit.iterations == 200
        assert record.fit.trace.rounds.tolist() == list(range(0, 200, 10)) + [199]
        assert len(record.fit.trace.objectives) == len(record.fit.trace.rounds)

    def test_requires_starts(self):
        data, _ = small_two_cluster()
        with pytest.raises(InvalidInputError):
            run_basin_study(data, 0.0, "hard", [])

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("block", [1, 2, None])
    def test_stacked_test_errors_equal_lone_errors_at_the_threshold(self, monkeypatch, rng,
                                                                    lam, block):
        # As in TestStackedErrors: each start's final weights get test rows
        # on the threshold and one ulp below and above it, where a decision
        # value one ulp off flips a prediction. Starts are scored in blocks
        # of one, two or all of them.
        import sslsq.experiments as experiments

        data, truth = small_two_cluster()
        starts = list(random_init_near_supervised(data, lam, 5, 1.0, seed=2))
        finals = [r.fit.weights for r in run_basin_study(data, lam, "hard", starts).runs]
        targets = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
        first = data.n_unlabeled
        test = np.vstack([data.unlabeled_features, np.zeros((3 * len(finals), 2))])
        for k, w in enumerate(finals):
            for t, target in enumerate(targets):
                place_on_threshold(test, first + 3 * k + t, w, target, rng)
        for k, w in enumerate(finals):
            values = decision_values(test, w)[first + 3 * k : first + 3 * k + 3]
            np.testing.assert_array_equal(values, targets)
        labels = np.concatenate([truth, np.ones(3 * len(finals))])
        if block is not None:
            monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", block * len(labels))
        result = run_basin_study(data, lam, "hard", starts, test, labels)
        assert len({tuple(w) for w in finals}) > 1
        for record, w in zip(result.runs, finals):
            np.testing.assert_array_equal(record.fit.weights, w)
            assert record.test_error == evaluate_error(w, test, labels)

    def test_bad_test_features_raise_as_evaluate_error_does(self, monkeypatch):
        # Same class and message as a lone evaluate_error, before any fit runs.
        import sslsq.selflearn as selflearn

        def no_descent(*args, **kwargs):
            raise AssertionError("a descent ran before the test set was checked")

        data, truth = small_two_cluster()
        starts = random_init_near_supervised(data, 0.0, 3, 1.0, seed=2)
        w_sup = ridge_solve(data.labeled_features, data.labels, 0.0)
        non_finite = data.unlabeled_features.copy()
        non_finite[4, 0] = np.inf
        monkeypatch.setattr(selflearn, "_run_descent", no_descent)
        for features in (np.ones((60, 3)), non_finite, np.ones(60)):
            with pytest.raises(Exception) as lone:
                evaluate_error(w_sup, features, truth)
            with pytest.raises(type(lone.value)) as stacked:
                run_basin_study(data, 0.0, "soft", starts, features, truth)
            assert str(stacked.value) == str(lone.value)


def fully_labeled_pool(n, seed, kind=SyntheticKind.TWO_CLUSTER_1D, separation=4.0):
    data, _ = generate(SyntheticSpec(kind=kind, labeled_per_class=n // 2,
                                     unlabeled_total=0, class_separation=separation,
                                     noise_sd=1.0, seed=seed))
    return data


class TestLocalOptimaStudy:
    def test_single_restart_bookkeeping(self):
        datasets = {"a": fully_labeled_pool(40, 1), "b": fully_labeled_pool(40, 2)}
        report = run_local_optima_study(datasets, restarts=1, lam=0.0, seed=0)
        assert [r.name for r in report.records] == ["a", "b"]
        for record in report.records:
            assert [len(record.studies[m].runs[1:]) for m in ("soft", "hard")] == [1, 1]

    def test_soft_has_no_more_minima_than_hard(self):
        datasets = {"clusters": fully_labeled_pool(120, 3)}
        report = run_local_optima_study(datasets, restarts=12, lam=0.0, seed=5)
        record = report.records[0]
        assert (record.studies["soft"].unique_optima_count
                <= record.studies["hard"].unique_optima_count)

    def test_degenerate_dataset_is_skipped(self):
        ok = fully_labeled_pool(40, 1)
        single_class = Dataset(np.arange(30.0).reshape(-1, 1), np.ones(30))
        report = run_local_optima_study({"good": ok, "flat": single_class},
                                        restarts=2, seed=0)
        assert [r.name for r in report.records] == ["good"]
        assert report.skipped and report.skipped[0][0] == "flat"

    @pytest.mark.parametrize("lam, scale, message", [
        (-1.0, 1.0, "ridge penalty must be a finite nonnegative real"),
        (float("nan"), 1.0, "ridge penalty must be a finite nonnegative real"),
        (float("inf"), 1.0, "ridge penalty must be a finite nonnegative real"),
        (0.0, -1.0, "scale must be positive and finite"),
        (0.0, 0.0, "scale must be positive and finite"),
        (0.0, float("nan"), "scale must be positive and finite"),
    ])
    def test_bad_lambda_or_scale_raises_before_any_split(self, monkeypatch, lam, scale,
                                                         message):
        # The 4-row pool's split is always degenerate, so the dataset would
        # be skipped and neither value would ever reach a solve.
        import sslsq.experiments as experiments

        pool = fully_labeled_pool(4, 3)
        assert run_local_optima_study({"p": pool}, restarts=2, seed=1).skipped

        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn before lam and scale were checked")

        monkeypatch.setattr(experiments, "split_for_local_optima", no_split)
        with pytest.raises(InvalidInputError, match=message):
            run_local_optima_study({"p": pool}, restarts=2, lam=lam, seed=1, scale=scale)

    def test_errors_lie_in_unit_interval(self):
        report = run_local_optima_study({"a": fully_labeled_pool(60, 9)},
                                        restarts=5, seed=1)
        record = report.records[0]
        values = np.array([record.supervised_error] + [
            start.test_error for study in record.studies.values() for start in study.runs
        ])
        assert np.all((values >= 0.0) & (values <= 1.0))


class TestLearningCurve:
    def pool(self):
        return fully_labeled_pool(120, 13, kind=SyntheticKind.TWO_GAUSSIAN_2D,
                                  separation=3.0)

    def test_cell_and_aggregate_shapes(self):
        report = run_learning_curve(self.pool(), 8, [0, 4, 16], repeats=3, seed=1)
        assert report.errors.shape == (3, 3, 4)
        assert report.u_values == [0, 4, 16]
        assert report.test_sizes == [112, 108, 96]
        assert len(report.aggregates) == 3 * 4
        assert all(a.repeats_used == 3 for a in report.aggregates)

    def test_methods_share_split_within_cell(self):
        # One hash per repeat and count serves all four methods' errors.
        pool = self.pool()
        report = run_learning_curve(pool, 8, [4, 8], repeats=2, seed=1)
        assert [len(row) for row in report.partition_hashes] == [2, 2]
        for repeat, row in enumerate(report.partition_hashes):
            for u_index, u in enumerate([4, 8]):
                split = sample_learning_curve_split(pool, 8, u, derive_rng(1, repeat, u_index))
                assert row[u_index] == split.partition_hash

    def test_u_zero_collapses_all_methods(self):
        report = run_learning_curve(self.pool(), 8, [0], repeats=2, seed=1)
        for repeat in (0, 1):
            assert len(set(report.errors[repeat, 0].tolist())) == 1

    def test_oracle_equals_pooled_supervised(self):
        # With the truth revealed, the oracle is by definition the
        # supervised solve on the pooled data; check against a direct one.
        pool = self.pool()
        report = run_learning_curve(pool, 8, [10], repeats=1, seed=3)
        split = sample_learning_curve_split(pool, 8, 10, derive_rng(3, 0, 0))
        pooled_w = ridge_solve(
            np.vstack([split.train.labeled_features, split.train.unlabeled_features]),
            np.concatenate([split.train.labels, split.unlabeled_truth]),
            0.0,
        )
        direct = evaluate_error(pooled_w, split.test_features, split.test_labels)
        assert report.errors[0, 0, METHODS.index("oracle")] == pytest.approx(direct)

    def test_empty_test_cells_are_flagged(self, monkeypatch):
        # Every cell of an empty test set is NaN, so its repeats are not
        # fitted; their splits are still drawn for the partition hashes.
        import sslsq.experiments as experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted repeats with an empty test set")

        monkeypatch.setattr(experiments, "_fit_stack", no_fit)
        pool = fully_labeled_pool(20, 4)
        report = run_learning_curve(pool, 10, [10], repeats=2, seed=1)
        assert report.errors.shape == (2, 1, len(METHODS))
        assert np.isnan(report.errors).all()
        assert report.test_sizes == [0]
        assert all(a.repeats_used == 0 for a in report.aggregates)
        for repeat, (partition_hash,) in enumerate(report.partition_hashes):
            split = sample_learning_curve_split(pool, 10, 10, derive_rng(1, repeat, 0))
            assert partition_hash == split.partition_hash

    @staticmethod
    def lone_reference(pool, labeled, u_values, repeats, lam, seed, config):
        """``lone_learning_curve``'s errors, hashes, test sizes and fits, with
        aggregates taken from its errors one column at a time."""
        errors, hashes, test_sizes, fits = lone_learning_curve(
            pool, labeled, u_values, repeats, lam, seed, config)
        aggregates = []
        for u_index, u in enumerate(u_values):
            for m, method in enumerate(METHODS):
                column = [e for e in errors[:, u_index, m].tolist() if not np.isnan(e)]
                used = len(column)
                aggregates.append(LearningCurveAggregate(
                    u, method, float(np.mean(column)) if used else float("nan"),
                    float(np.std(column, ddof=1) / np.sqrt(used)) if used > 1 else float("nan"),
                    used))
        return errors, hashes, test_sizes, aggregates, fits

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("block", [1, 9, None])
    def test_stacked_cells_equal_lone_fits(self, monkeypatch, lam, chunk, block):
        # Eleven repeats run in blocks of one, of nine (so u = 12 spans a
        # block of nine and one of two) or all at once, and are scored in
        # chunks of one or of three repeats. u = 0 leaves no unlabeled part
        # and u = 32 no test set in the 40-row pool; the round cap stops
        # some soft fits and not others.
        import sslsq.experiments as experiments

        pool = fully_labeled_pool(40, 5, kind=SyntheticKind.TWO_GAUSSIAN_2D, separation=3.0)
        labeled, u_values, repeats = 8, [4, 0, 12, 32], 11
        config = SolverConfig(max_iterations=15)
        entries = {1: 1, 9: 9 * (labeled + 12) * 3, None: 10**9}[block]
        monkeypatch.setattr(experiments, "_BLOCK_DESIGN_ENTRIES", entries)
        # Chunks of three at the 32 test rows of u = 0 and the 28 of u = 4.
        monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", {1: 1, 3: 3 * 4 * 32}[chunk])
        blocks, chunks = [], []
        fit_stack, stacked_errors = experiments._fit_stack, experiments._stacked_errors

        def record_block(known, design, *args):
            blocks.append((design.shape[1] - labeled, len(known)))
            return fit_stack(known, design, *args)

        def record_chunk(weights, features, labels):
            chunks.append((features.shape[1], len(weights)))
            return stacked_errors(weights, features, labels)

        monkeypatch.setattr(experiments, "_fit_stack", record_block)
        monkeypatch.setattr(experiments, "_stacked_errors", record_chunk)
        report = run_learning_curve(pool, labeled, u_values, repeats, lam, seed=3,
                                    config=config)
        sizes = {u: [size for v, size in blocks if v == u] for u in (4, 0, 12)}
        assert sizes == {
            1: {u: [1] * repeats for u in (4, 0, 12)},
            9: {4: [repeats], 0: [repeats], 12: [9, 2]},
            None: {u: [repeats] for u in (4, 0, 12)},
        }[block]
        chunked = [size for test_rows, size in chunks if test_rows in (28, 32)]
        assert max(chunked) == min(chunk, block or repeats)
        errors, hashes, test_sizes, aggregates, fits = self.lone_reference(
            pool, labeled, u_values, repeats, lam, 3, config)
        reasons = {fit.trace.stop_reason for fit in fits}
        assert StopReason.MAX_ITERATIONS in reasons and len(reasons) == 3

        def fields(rows):
            return [tuple(v for v in vars(row).values() if not isinstance(v, float))
                    for row in rows]

        def floats(rows):
            return np.array([[v for v in vars(row).values() if isinstance(v, float)]
                             for row in rows])

        assert report.u_values == u_values
        assert report.test_sizes == test_sizes
        assert report.partition_hashes == hashes
        np.testing.assert_array_equal(report.errors, errors)
        assert fields(report.aggregates) == fields(aggregates)
        np.testing.assert_array_equal(floats(report.aggregates), floats(aggregates))
        assert np.isnan(report.errors).any()

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_method_weights_equal_lone_solves(self, monkeypatch, lam):
        # Every weight vector the runner scores, and the test rows it scores
        # it on, must have the bits of the lone call and the lone split.
        import sslsq.experiments as experiments

        scored = []
        stacked_errors = experiments._stacked_errors

        def record(weights, features, labels):
            scored.append((weights.copy(), features.copy(), labels.copy()))
            return stacked_errors(weights, features, labels)

        monkeypatch.setattr(experiments, "_stacked_errors", record)
        pool = self.pool()
        config = SolverConfig(max_iterations=15)
        u_values = (0, 6, 30)
        run_learning_curve(pool, 8, u_values, 5, lam, seed=9, config=config)
        assert sum(len(weights) for weights, _, _ in scored) == 5 * len(u_values)
        rows = [row for chunk in scored for row in zip(*chunk)]
        for u_index, u in enumerate(u_values):
            for repeat in range(5):
                weights, features, labels = rows[5 * u_index + repeat]
                split = sample_learning_curve_split(pool, 8, u, derive_rng(9, repeat, u_index))
                train = split.train
                lone = [
                    ridge_solve(train.labeled_features, train.labels, lam),
                    fit_soft(train, lam, config).weights,
                    fit_hard(train, lam, config=config).weights,
                    ridge_solve(train.extended_features,
                                np.concatenate([train.labels, split.unlabeled_truth]), lam),
                ]
                np.testing.assert_array_equal(weights, lone)
                np.testing.assert_array_equal(features, split.test_features)
                np.testing.assert_array_equal(labels, split.test_labels)

    @pytest.mark.parametrize("u", [1, 256])
    def test_memory_is_bounded_at_one_hundred_repeats(self, u):
        # At u = 1 the pool's test rows dominate what one block could hold,
        # and at u = 256 the stacked designs do. Neither may be held for all
        # 100 repeats at once: one such block, test rows included, peaked at
        # 6.8 MB, where design-sized blocks scored in chunks peak at 1.1 MB.
        pool = fully_labeled_pool(600, 3, kind=SyntheticKind.TWO_GAUSSIAN_2D)
        tracemalloc.start()
        try:
            report = run_learning_curve(pool, 10, [u], repeats=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.errors.shape == (100, 1, len(METHODS))
        assert peak < 3e6

    @pytest.mark.parametrize("labeled, u_values, error, message", [
        (10, [1, 595], CapacityError, r"requested 10 \+ 595 examples from 600"),
        (10, [1, 600, 595], CapacityError, r"requested 10 \+ 600 examples from 600"),
        (3, [1, 2], InvalidInputError, r"must exceed the feature count \(3\)"),
    ])
    def test_counts_are_checked_before_any_fit(self, monkeypatch, labeled, u_values, error,
                                               message):
        import sslsq.experiments as experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the counts were checked")

        monkeypatch.setattr(experiments, "_fit_stack", no_fit)
        pool = fully_labeled_pool(600, 5, kind=SyntheticKind.TWO_GAUSSIAN_2D)
        with pytest.raises(error, match=message):
            run_learning_curve(pool, labeled, u_values, repeats=3)

    def test_rejects_repeated_or_missing_unlabeled_counts(self):
        with pytest.raises(InvalidInputError, match=r"repeated: \[4\]"):
            run_learning_curve(self.pool(), 8, [4, 2, 4], repeats=3)
        with pytest.raises(InvalidInputError, match="at least one"):
            run_learning_curve(self.pool(), 8, [], repeats=3)

    def test_reports_are_reproducible(self):
        a = run_learning_curve(self.pool(), 8, [2, 8], repeats=2, seed=7)
        b = run_learning_curve(self.pool(), 8, [2, 8], repeats=2, seed=7)
        np.testing.assert_array_equal(a.errors, b.errors)
        assert (a.u_values, a.test_sizes, a.partition_hashes) == (
            b.u_values, b.test_sizes, b.partition_hashes)
        assert a.aggregates == b.aggregates
