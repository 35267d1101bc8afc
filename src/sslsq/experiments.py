"""Experiment harnesses: basin studies, local-optima studies, learning curves.

All runners are deterministic functions of their inputs and a base seed,
and none uses threads. Basin and local-optima studies run all starts of
a study, the supervised one first, through one ``fit_starts`` call,
which advances them in lock-step, and a bad start raises before any fit
runs. A basin study holds one ``FitResult`` per run and arrays of the
runs' test errors and optimum ids; a local-optima study keeps only the
arrays. The test errors of a study's starts come from one stacked
product per block of starts. The learning curve runs
the repeats of one unlabeled count as blocks of same-shape splits, sized
by their stacked designs. A block's designs and labels are gathered from
the pool by index straight into stacked arrays and fitted as one stack
that keeps only each fit's final weights. Its test rows are gathered
from the pool a chunk of repeats at a time, and each chunk scores all
four methods with one stacked product. A repeat derives its split from
(base seed, repeat, unlabeled-count index), so neither the blocks nor
the chunks change the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import (
    _check_learning_curve_counts,
    _check_seed,
    _gather_learning_curve_splits,
    derive_rng,
    split_for_local_optima,
)
from .errors import (
    DegenerateInputError,
    DegenerateSplitError,
    DimensionError,
    InvalidInputError,
)
from .model import (
    _above_threshold,
    _check_binary,
    _check_count,
    _check_decision_inputs,
    _check_lam,
    _check_positive,
    classify,
    ridge_solve,
)
from .selflearn import _BLOCK_ELEMENTS, FitResult, SolverConfig, _fit_stack, fit_starts

__all__ = [
    "BasinStudyResult",
    "LearningCurveAggregate",
    "LearningCurveReport",
    "LocalOptimaReport",
    "count_unique_optima",
    "evaluate_error",
    "random_init_near_supervised",
    "run_basin_study",
    "run_learning_curve",
    "run_local_optima_study",
]

METHODS = ("supervised", "soft", "hard", "oracle")
# The solvers of a local-optima study, in the order of its arrays' axis 1.
SOLVERS = ("soft", "hard")
CLUSTER_TOLERANCE = 1e-4


def evaluate_error(w, test_features, test_labels):
    """Fraction of test points whose thresholded prediction differs from the truth.

    Raises ``DegenerateInputError`` for an empty test set,
    ``DimensionError`` unless there is one label per test row, and
    ``InvalidInputError`` for a label other than 0 or 1.
    """
    test_features, w, test_labels = _check_test_set(test_features, test_labels, w)
    return float(np.mean(classify(test_features @ w) != test_labels))


def _check_test_set(test_features, test_labels, w):
    """The test set and weights ``evaluate_error`` scores, the labels as floats, each 0 or 1."""
    if np.asarray(test_labels).size == 0:
        raise DegenerateInputError("empty test set")
    test_features, w = _check_decision_inputs(test_features, w)
    rows = len(test_features)
    test_labels = np.asarray(test_labels, dtype=float)
    if test_labels.shape != (rows,):
        raise DimensionError(f"test labels have shape {test_labels.shape}, expected ({rows},)")
    _check_binary(test_labels, "test labels")
    return test_features, w, test_labels


def random_init_near_supervised(data, lam, count, scale=1.0, seed=0):
    """Gaussian perturbations of the supervised solution, one per row.

    The per-coordinate standard deviation is ``scale * max(1, |w_sup|_2)``
    so the cloud stays proportionate to the solution it surrounds. A
    cloud that overflows raises ``InvalidInputError`` naming ``scale``.
    """
    count = _check_count(count, "count", minimum=1)
    _check_positive(scale, "scale")
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    sd = scale * max(1.0, float(np.linalg.norm(w_sup)))
    rng = derive_rng(seed)
    with np.errstate(over="ignore"):
        starts = w_sup + sd * rng.standard_normal((count, w_sup.size))
    if not np.all(np.isfinite(starts)):
        raise InvalidInputError(f"scale {scale!r} overflows the restart cloud")
    return starts


def count_unique_optima(finals):
    """Number of distinct converged weight vectors, and a cluster id per vector.

    Two vectors belong to the same optimum when their max-norm distance is
    below ``CLUSTER_TOLERANCE * (1 + largest entry magnitude over all vectors)``;
    clusters are the connected components of that relation, so the count
    does not depend on input order.
    """
    finals = np.asarray(finals, dtype=float)
    if len(finals) == 0:
        return 0, np.zeros(0, dtype=int)
    # Zero-width vectors are all one optimum.
    threshold = CLUSTER_TOLERANCE * (1.0 + float(np.max(np.abs(finals), initial=0.0)))
    n, d = finals.shape
    # A breadth-first search from each vector not yet reached, in index
    # order, so ids follow each cluster's first vector. The frontier is
    # expanded a block of rows at a time, so the (rows, n) distances stay
    # within _BLOCK_ELEMENTS entries however many vectors there are, and
    # nothing of size n^2 is ever built.
    rows = max(1, _BLOCK_ELEMENTS // n)
    labels = np.full(n, -1)
    count = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = count
        frontier = np.array([seed])
        while frontier.size:
            block, frontier = finals[frontier[:rows]], frontier[rows:]
            # Column by column: the same bits as a max over the last axis
            # of the (rows, n, d) differences, without building them.
            distances = np.zeros((len(block), n))
            for k in range(d):
                np.maximum(distances, np.abs(block[:, None, k] - finals[None, :, k]), out=distances)
            reached = np.flatnonzero((distances < threshold).any(axis=0) & (labels < 0))
            labels[reached] = count
            frontier = np.concatenate([frontier, reached])
        count += 1
    return count, labels


# The reports that hold arrays compare by identity: a generated == would
# compare the arrays inside a tuple and raise on their ambiguous truth value.
@dataclass(eq=False)
class BasinStudyResult:
    """Every run of a basin study: its fit, test error and optimum.

    Run 0 is the run from the supervised solution and run i the run from
    ``starts[i - 1]``. ``fits[i]`` is run i's ``FitResult``, with its
    weights, objective, stop reason and trace; ``test_errors[i]`` its test
    error, NaN without a test set; and ``optimum_ids[i]`` its cluster in
    ``count_unique_optima``.
    """

    fits: list[FitResult]
    test_errors: np.ndarray
    optimum_ids: np.ndarray
    unique_optima_count: int


def run_basin_study(
    data,
    lam,
    method,
    starts,
    test_features=None,
    test_labels=None,
    config=SolverConfig(),
):
    """Run one solver from many starting weights and cluster the optima.

    ``starts`` is a sequence of weight vectors; a run from the supervised
    solution is always added, first. All starts run through one
    ``fit_starts`` call, so a start of the wrong shape or with a
    non-finite entry raises its error before any fit runs; so does a test
    set ``evaluate_error`` would refuse: no labels at all, features of the
    wrong width or with a non-finite entry, or labels that are not one 0
    or 1 per test row; ``test_labels=None`` means no test set. Returns a
    ``BasinStudyResult`` with one ``FitResult`` per run, the supervised
    run first, and the runs' test errors and cluster ids as arrays. Test
    errors are scored from all final weights with stacked products, each
    error with the bits ``evaluate_error`` gives. Unique optima are
    counted over all runs, supervised start included.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]
    if not starts:
        raise InvalidInputError("need at least one starting point")
    has_test = test_labels is not None
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    if has_test:
        # The checks, and messages, evaluate_error makes, before any fit runs.
        test_features, _, test_labels = _check_test_set(test_features, test_labels, w_sup)
    starts = [w_sup, *starts]
    results = fit_starts(data, starts, method, lam, config)
    finals = np.array([result.weights for result in results])
    count, cluster_ids = count_unique_optima(finals)
    errors = np.full(len(results), np.nan)
    if has_test:
        # Starts are scored a block at a time, so the (starts, test rows)
        # decision values stay within _BLOCK_ELEMENTS entries.
        block = max(1, _BLOCK_ELEMENTS // test_labels.size)
        for first in range(0, len(results), block):
            errors[first : first + block] = _stacked_errors(
                finals[None, first : first + block], test_features[None], test_labels[None]
            )[0]
    return BasinStudyResult(results, errors, cluster_ids, count)


@dataclass(eq=False)
class LocalOptimaReport:
    """A local-optima study's test errors and optimum counts, as arrays.

    ``names`` are the D fitted datasets, in input order, and ``skipped``
    a (name, reason) pair per dataset whose split is degenerate. Axis 1 of
    ``test_errors`` (D, 2, restarts + 1) and ``unique_optima`` (D, 2) is
    ``SOLVERS``. Run 0 starts from the supervised solution, whose own test
    errors are ``supervised_errors`` (D,), and run j from random start j - 1.
    """

    names: list[str]
    supervised_errors: np.ndarray
    test_errors: np.ndarray
    unique_optima: np.ndarray
    skipped: list[tuple[str, str]]


def run_local_optima_study(
    datasets,
    restarts=50,
    lam=0.0,
    seed=0,
    scale=1.0,
):
    """Random-restart comparison of both solvers across named datasets.

    Each fully labeled dataset is split by ``split_for_local_optima`` (a
    test fifth, then labels hidden from four fifths of the rest), and one
    basin study per solver runs it from the supervised solution and from
    ``restarts`` random perturbations of it, collecting test errors and
    unique-minima counts. Input i's split comes from ``derive_rng(seed,
    i, 0)`` and its starts from ``derive_rng(seed, i, 1)``. Datasets whose
    split is degenerate are skipped with a recorded reason. ``restarts``,
    ``seed``, ``lam`` and ``scale`` are checked before any split is drawn,
    so a bad value raises even when every dataset would be skipped.
    """
    restarts = _check_count(restarts, "restarts", minimum=1)
    seed = _check_seed(seed)
    lam = _check_lam(lam)
    _check_positive(scale, "scale")
    names, supervised_errors, test_errors, unique_optima, skipped = [], [], [], [], []
    for position, (name, data) in enumerate(datasets.items()):
        try:
            split = split_for_local_optima(data, derive_rng(seed, position, 0))
        except DegenerateSplitError as exc:
            skipped.append((name, str(exc)))
            continue
        train = split.train
        w_sup = ridge_solve(train.labeled_features, train.labels, lam)
        test = split.test_features, split.test_labels
        names.append(name)
        supervised_errors.append(evaluate_error(w_sup, *test))
        starts = random_init_near_supervised(
            train, lam, restarts, scale, derive_rng(seed, position, 1)
        )
        for method in SOLVERS:
            study = run_basin_study(train, lam, method, starts, *test)
            test_errors.append(study.test_errors)
            unique_optima.append(study.unique_optima_count)
    shape = (len(names), len(SOLVERS))
    return LocalOptimaReport(
        names, np.array(supervised_errors), np.reshape(test_errors, (*shape, restarts + 1)),
        np.array(unique_optima, dtype=int).reshape(shape), skipped,
    )


def _mean_and_std_error(values):
    """Mean and ``ddof=1`` standard error over the last axis; NaN errors below two values."""
    count = values.shape[-1]
    mean = values.mean(axis=-1)
    if count < 2:
        return mean, np.full(mean.shape, np.nan)
    return mean, values.std(axis=-1, ddof=1) / np.sqrt(count)


def _one_nan(value):
    """``value``, or the shared ``math.nan`` when it is NaN."""
    return math.nan if math.isnan(value) else value


@dataclass(frozen=True)
class LearningCurveAggregate:
    """One unlabeled count's and method's entry of ``LearningCurveReport.aggregates``."""

    u: int
    method: str
    mean_error: float
    std_error: float
    repeats_used: int


@dataclass(eq=False)
class LearningCurveReport:
    """Every test error of a learning curve, and their aggregates, as arrays.

    ``errors[r, k, m]`` is method ``METHODS[m]``'s test error in repeat r
    at unlabeled count ``u_values[k]``, NaN when that split has no test
    rows; ``test_sizes[k]`` is the test row count at ``u_values[k]`` and
    ``partition_hashes[r][k]`` the split's partition hash.
    ``mean_errors``, ``std_errors`` and ``repeats_used`` are (count, method)
    arrays over the repeats with a test set: all of them, or none, with
    NaN aggregates, when the count leaves no test rows.
    """

    u_values: list[int]
    test_sizes: list[int]
    errors: np.ndarray
    partition_hashes: list[list[str]]
    mean_errors: np.ndarray
    std_errors: np.ndarray
    repeats_used: np.ndarray

    @property
    def aggregates(self):
        """One ``LearningCurveAggregate`` per count and method, built from the arrays.

        Every NaN entry is the one ``math.nan`` object, so the aggregates of
        two equal reports compare equal: equality takes an object as equal
        to itself, where two NaN floats are never equal.
        """
        return [
            LearningCurveAggregate(u, method, _one_nan(mean), _one_nan(std_error), used)
            for u, *rows in zip(self.u_values, self.mean_errors.tolist(),
                                self.std_errors.tolist(), self.repeats_used.tolist())
            for method, mean, std_error, used in zip(METHODS, *rows)
        ]


def run_learning_curve(
    data,
    labeled_count,
    u_values,
    repeats,
    lam=0.0,
    seed=0,
    config=SolverConfig(),
):
    """Test-error curves over growing unlabeled counts, with an oracle.

    Per repeat and unlabeled count a fresh split is sampled; all four
    methods (supervised, soft, hard, oracle) are trained on that same
    split. The oracle solves the pooled system using the true labels of
    the unlabeled part. Returns a ``LearningCurveReport`` whose (repeats,
    unlabeled counts, methods) ``errors`` carry NaN where a split has no
    test rows, and whose (unlabeled counts, methods) ``mean_errors``,
    ``std_errors`` and ``repeats_used`` aggregate the rest. Every count
    and the seed must be integers, and all are checked before any split
    is drawn. The splits of one unlabeled count share their shapes, so
    they are gathered and fitted in blocks, each as one stack, and scored
    in chunks of repeats; every weight vector and test error equals the
    one a lone fit on its split and ``evaluate_error`` give.
    """
    repeats = _check_count(repeats, "repeats", minimum=1)
    seed = _check_seed(seed)
    u_values = list(u_values)
    if not u_values:
        raise InvalidInputError("need at least one unlabeled count")
    # Every count is checked before any split is drawn or fitted.
    labeled_count, u_values = _check_learning_curve_counts(data, labeled_count, u_values)
    repeated = sorted({u for u in u_values if u_values.count(u) > 1})
    if repeated:
        raise InvalidInputError(f"unlabeled counts must be distinct; repeated: {repeated}")
    lam = _check_lam(lam)
    errors = np.full((repeats, len(u_values), len(METHODS)), np.nan)
    hashes = [[None] * len(u_values) for _ in range(repeats)]
    test_sizes = [data.n_labeled - labeled_count - u for u in u_values]
    for u_index, u in enumerate(u_values):
        # Blocks of R repeats whose stacked designs hold at most _BLOCK_ELEMENTS
        # entries in all, R * (L + U) * d: the designs, their operators and
        # each round's working arrays scale with it. Test rows are gathered per
        # scoring chunk instead. With 10 labeled rows from a 600 x 3 pool, as
        # in the bench's learning-curve workload, that is 100 repeats per
        # block up to u = 32, then 73, 39 and 20 at u = 64, 128 and 256: 16
        # blocks in all, at a peak traced memory near 1.1 MB. A design of more
        # than 8,192 rows is fitted alone, as ``model._row_dots`` needs, and a
        # label-only pool (d = 0) has no entries, so its repeats share a block.
        entries = (labeled_count + u) * data.n_features
        block = max(1, _BLOCK_ELEMENTS // max(1, entries))
        for first in range(0, repeats, block):
            indices = range(first, min(first + block, repeats))
            rngs = [derive_rng(seed, repeat, u_index) for repeat in indices]
            splits = _gather_learning_curve_splits(data, labeled_count, u, rngs)
            for repeat, partition_hash in zip(indices, splits.partition_hashes):
                hashes[repeat][u_index] = partition_hash
            # With no test set every cell is NaN, so nothing is fitted.
            if test_sizes[u_index]:
                errors[indices.start : indices.stop, u_index] = _block_errors(
                    data, splits, lam, config
                )
            # Drop this block's stacks before the next block gathers its own.
            del splits

    # Over a contiguous last axis each mean is summed as its lone 1-D column
    # would be. Only the test size depends on u, so a u slice is NaN
    # throughout or nowhere.
    means, std_errors = _mean_and_std_error(np.ascontiguousarray(errors.transpose(1, 2, 0)))
    used = np.where(np.isnan(means), 0, repeats)
    return LearningCurveReport(u_values, test_sizes, errors, hashes, means, std_errors, used)


def _block_errors(data, splits, lam, config):
    """The (R, 4) test errors of ``METHODS`` on a block of R splits gathered from ``data``.

    Each split's test rows are the pool rows after its training rows in
    ``splits.order``. They are gathered a chunk of repeats at a time, so a
    chunk's (repeats, methods, test rows) decision values stay within
    ``_BLOCK_ELEMENTS`` entries.
    """
    supervised, operators, soft, hard = _fit_stack(splits.labels, splits.design, lam, config)
    # The oracle's design is the extended design, with the true labels of
    # the unlabeled part as its targets.
    truth = np.concatenate([splits.labels, splits.truth], axis=1)
    weights = {
        "supervised": supervised,
        "soft": soft.weights,
        "hard": hard.weights,
        "oracle": (operators @ truth[:, :, None])[:, :, 0],
    }
    weights = np.stack([weights[method] for method in METHODS], axis=1)
    test = splits.order[:, splits.design.shape[1] :]
    chunk = max(1, _BLOCK_ELEMENTS // (len(METHODS) * test.shape[1]))
    errors = np.empty(weights.shape[:2])
    for first in range(0, len(test), chunk):
        rows = test[first : first + chunk]
        errors[first : first + chunk] = _stacked_errors(
            weights[first : first + chunk], data.labeled_features[rows], data.labels[rows]
        )
    return errors


def _stacked_errors(weights, test_features, test_labels):
    """``evaluate_error`` of every weight vector on its own repeat's test set.

    ``weights`` is (R, M, d), ``test_features`` (R, T, d) and
    ``test_labels`` (R, T) with T >= 1; returns the (R, M) errors. Each
    (T, d) @ (d, 1) slice of the broadcast product makes the BLAS
    matrix-vector call that ``X @ w`` makes in ``evaluate_error``, where a
    matrix-matrix product would not, so every decision value, and with it
    every error, has that function's bits.
    """
    values = (test_features[:, None] @ weights[..., None])[..., 0]
    # The booleans of ``classify``, compared with the labels without its float copy.
    mismatches = _above_threshold(values) != test_labels[:, None, :]
    return mismatches.mean(axis=-1)
