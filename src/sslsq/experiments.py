"""Experiment harnesses: basin studies, local-optima studies, learning curves.

All runners are deterministic functions of their inputs and a base seed,
and none uses threads. Basin and local-optima studies run all starts of
a study, the supervised one first, through one ``fit_starts`` call,
which advances them in lock-step; each start's record holds its
``FitResult``, and a bad start raises before any fit runs. The test
errors of a study's starts come from one stacked product per block of
starts. The learning curve runs the repeats of one unlabeled count as
blocks of same-shape splits, sized by their stacked designs. A block's
designs and labels are gathered from the pool by index straight into
stacked arrays and fitted as one stack that keeps only each fit's final
weights. Its test rows are gathered from the pool a chunk of repeats at a
time, and each chunk scores all four methods with one stacked product. A
repeat derives its split from (base seed, repeat, unlabeled-count index),
so neither the blocks nor the chunks change the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import (
    _check_learning_curve_counts,
    _gather_learning_curve_splits,
    derive_rng,
    split_for_local_optima,
)
from .errors import DegenerateInputError, DegenerateSplitError, InvalidInputError
from .model import (
    _above_threshold,
    _check_decision_inputs,
    _check_lam,
    classify,
    decision_values,
    ridge_solve,
)
from .selflearn import _BLOCK_ELEMENTS, FitResult, SolverConfig, _fit_stack, fit_starts

__all__ = [
    "BasinStudyResult",
    "DatasetOptimaRecord",
    "LearningCurveAggregate",
    "LearningCurveReport",
    "LocalOptimaReport",
    "StartRecord",
    "count_unique_optima",
    "evaluate_error",
    "random_init_near_supervised",
    "run_basin_study",
    "run_learning_curve",
    "run_local_optima_study",
]

METHODS = ("supervised", "soft", "hard", "oracle")
CLUSTER_TOLERANCE = 1e-4

# The learning curve fits the repeats of one unlabeled count in blocks of R
# repeats whose stacked designs hold at most this many entries in all,
# R * (L + U) * d: the designs, their operators and each round's working
# arrays scale with it. Test rows are not part of a block; they are gathered
# per scoring chunk. With 10 labeled rows from a 600 x 3 pool, as in the
# bench's learning-curve workload, that is 100 repeats per block up to
# u = 32, then 73, 39 and 20 at u = 64, 128 and 256: 16 blocks in all.
# There, peak traced memory stays near 1.1 MB at u = 1 and at u = 256.
_BLOCK_DESIGN_ENTRIES = 16384


def evaluate_error(w, test_features, test_labels):
    """Fraction of test points whose thresholded prediction differs from the truth."""
    test_labels = np.asarray(test_labels, dtype=float)
    if test_labels.size == 0:
        raise DegenerateInputError("empty test set")
    predictions = classify(decision_values(test_features, w))
    return float(np.mean(predictions != test_labels))


def _check_scale(scale):
    """The one rule for a restart cloud's scale: positive and finite."""
    if not 0.0 < scale < np.inf:
        raise InvalidInputError("scale must be positive and finite")


def random_init_near_supervised(data, lam, count, scale=1.0, seed=0):
    """Gaussian perturbations of the supervised solution, one per row.

    The per-coordinate standard deviation is ``scale * max(1, |w_sup|_2)``
    so the cloud stays proportionate to the solution it surrounds.
    """
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    _check_scale(scale)
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    sd = scale * max(1.0, float(np.linalg.norm(w_sup)))
    rng = derive_rng(seed)
    return w_sup + sd * rng.standard_normal((int(count), w_sup.size))


def count_unique_optima(finals):
    """Number of distinct converged weight vectors, and a cluster id per vector.

    Two vectors belong to the same optimum when their max-norm distance is
    below ``CLUSTER_TOLERANCE * (1 + largest entry magnitude over all vectors)``;
    clusters are the connected components of that relation, so the count
    does not depend on input order.
    """
    finals = np.asarray(finals, dtype=float)
    if finals.size == 0:
        return 0, np.zeros(0, dtype=int)
    threshold = CLUSTER_TOLERANCE * (1.0 + float(np.max(np.abs(finals))))
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
            distances = np.abs(block[:, None, 0] - finals[None, :, 0])
            for k in range(1, d):
                np.maximum(distances, np.abs(block[:, None, k] - finals[None, :, k]), out=distances)
            reached = np.flatnonzero((distances < threshold).any(axis=0) & (labels < 0))
            labels[reached] = count
            frontier = np.concatenate([frontier, reached])
        count += 1
    return count, labels


@dataclass
class StartRecord:
    """One descent run inside a basin study.

    ``start_index`` is -1 for the supervised start and the start's
    position otherwise; ``fit`` is the run's ``FitResult``, with its
    weights, objective, stop reason and trace. ``test_error`` is NaN
    without a test set, and ``optimum_id`` is the run's cluster in
    ``count_unique_optima``.
    """

    start_index: int
    fit: FitResult
    test_error: float
    optimum_id: int


@dataclass
class BasinStudyResult:
    """Every run of a basin study, in one list.

    ``runs[0]`` is the run from the supervised solution (``start_index``
    -1), and ``runs[i]`` the run from ``starts[i - 1]``.
    """

    runs: list[StartRecord]
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
    non-finite entry raises its error before any fit runs; so do test
    features of the wrong width or with a non-finite entry. Each record
    holds its run's ``FitResult``. Test errors are scored from all final
    weights with stacked products, each error with the bits
    ``evaluate_error`` gives. Unique optima are counted over all runs,
    supervised start included.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]
    if not starts:
        raise InvalidInputError("need at least one starting point")
    has_test = test_labels is not None and np.asarray(test_labels).size > 0
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    if has_test:
        # The checks, and messages, evaluate_error makes, before any fit runs.
        test_features, _ = _check_decision_inputs(test_features, w_sup)
        test_labels = np.asarray(test_labels, dtype=float)
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
    runs = [
        StartRecord(start_index=index - 1, fit=result, test_error=error, optimum_id=int(cluster))
        for index, (result, error, cluster) in enumerate(
            zip(results, errors.tolist(), cluster_ids)
        )
    ]
    return BasinStudyResult(runs=runs, unique_optima_count=count)


@dataclass
class DatasetOptimaRecord:
    """Per-dataset outcome of the local-optima study.

    ``studies`` maps each method ("soft", "hard") to its basin study on
    the training split, with test errors measured on the held-out part.
    """

    name: str
    supervised_error: float
    studies: dict[str, BasinStudyResult]
    partition_hash: str


@dataclass
class LocalOptimaReport:
    records: list[DatasetOptimaRecord]
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
    unique-minima counts. Datasets whose split is degenerate are skipped
    with a recorded reason. ``lam`` and ``scale`` are checked before any
    split is drawn, so a bad value raises even when every dataset would
    be skipped.
    """
    if restarts < 1:
        raise InvalidInputError("restarts must be at least 1")
    lam = _check_lam(lam)
    _check_scale(scale)
    records, skipped = [], []
    for position, (name, data) in enumerate(datasets.items()):
        try:
            split = split_for_local_optima(data, derive_rng(seed, position, 0))
        except DegenerateSplitError as exc:
            skipped.append((name, str(exc)))
            continue
        train = split.train
        w_sup = ridge_solve(train.labeled_features, train.labels, lam)
        supervised_error = evaluate_error(w_sup, split.test_features, split.test_labels)
        starts = random_init_near_supervised(
            train, lam, restarts, scale, derive_rng(seed, position, 1)
        )
        studies = {
            method: run_basin_study(
                train, lam, method, starts, split.test_features, split.test_labels
            )
            for method in ("soft", "hard")
        }
        records.append(
            DatasetOptimaRecord(name, supervised_error, studies, split.partition_hash)
        )
    return LocalOptimaReport(records=records, skipped=skipped)


@dataclass(frozen=True)
class LearningCurveAggregate:
    u: int
    method: str
    mean_error: float
    std_error: float
    repeats_used: int


@dataclass
class LearningCurveReport:
    """Every test error of a learning curve, as one array.

    ``errors[r, k, m]`` is method ``METHODS[m]``'s test error in repeat r
    at unlabeled count ``u_values[k]``, NaN when that split has no test
    rows; ``test_sizes[k]`` is the test row count at ``u_values[k]`` and
    ``partition_hashes[r][k]`` the split's partition hash.
    ``aggregates`` holds one entry per unlabeled count and method.
    """

    u_values: list[int]
    test_sizes: list[int]
    errors: np.ndarray
    partition_hashes: list[list[str]]
    aggregates: list[LearningCurveAggregate]


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
    test rows; those are excluded from aggregation. The labeled count and
    every unlabeled count are checked against the pool before any split
    is drawn. The splits of one unlabeled count share their shapes, so
    they are gathered and fitted in blocks, each as one stack, and scored
    in chunks of repeats; every weight vector and test error equals the
    one a lone fit on its split and ``evaluate_error`` give.
    """
    u_values = [int(u) for u in u_values]
    if repeats < 1:
        raise InvalidInputError("repeats must be at least 1")
    if not u_values:
        raise InvalidInputError("need at least one unlabeled count")
    if any(u < 0 for u in u_values):
        raise InvalidInputError("unlabeled counts must be nonnegative")
    repeated = sorted({u for u in u_values if u_values.count(u) > 1})
    if repeated:
        raise InvalidInputError(f"unlabeled counts must be distinct; repeated: {repeated}")
    lam = _check_lam(lam)
    # Every count is checked before any split is drawn or fitted.
    labeled_count = _check_learning_curve_counts(data, labeled_count, u_values)
    repeats = int(repeats)
    errors = np.full((repeats, len(u_values), len(METHODS)), np.nan)
    hashes = [[None] * len(u_values) for _ in range(repeats)]
    test_sizes = [data.n_labeled - labeled_count - u for u in u_values]
    for u_index, u in enumerate(u_values):
        block = max(1, _BLOCK_DESIGN_ENTRIES // ((labeled_count + u) * data.n_features))
        for first in range(0, repeats, block):
            indices = range(first, min(first + block, repeats))
            seeds = [derive_rng(seed, repeat, u_index) for repeat in indices]
            splits = _gather_learning_curve_splits(data, labeled_count, u, seeds)
            for repeat, partition_hash in zip(indices, splits.partition_hashes):
                hashes[repeat][u_index] = partition_hash
            # With no test set every cell is NaN, so nothing is fitted.
            if test_sizes[u_index]:
                errors[indices.start : indices.stop, u_index] = _block_errors(
                    data, splits, lam, config
                )
            # Drop this block's stacks before the next block gathers its own.
            del splits

    aggregates = []
    for u_index, u in enumerate(u_values):
        for m, method in enumerate(METHODS):
            column = errors[:, u_index, m]
            column = column[~np.isnan(column)]
            used = int(column.size)
            mean = float(np.mean(column)) if used else float("nan")
            std_error = (
                float(np.std(column, ddof=1) / np.sqrt(used)) if used > 1 else float("nan")
            )
            aggregates.append(
                LearningCurveAggregate(
                    u=u, method=method, mean_error=mean, std_error=std_error, repeats_used=used
                )
            )
    return LearningCurveReport(u_values, test_sizes, errors, hashes, aggregates)


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
