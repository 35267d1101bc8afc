"""Experiment harnesses: basin studies, local-optima studies, learning curves.

All runners are deterministic functions of their inputs and a base seed.
Basin and local-optima studies run all starts of a study as one batch,
advanced in lock-step by ``fit_starts``. Only the learning curve uses
threads: its repeats derive their own seed from (base seed, task index),
so reports are identical regardless of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datagen import derive_rng, sample_learning_curve_split, split_for_local_optima
from .errors import DegenerateInputError, DegenerateSplitError, Error, InvalidInputError
from .model import ClassEncoding, classify, decision_values, ridge_solve
from .selflearn import SolverConfig, StopReason, check_start, fit_hard, fit_soft, fit_starts

__all__ = [
    "BasinStudyResult",
    "DatasetOptimaRecord",
    "LearningCurveCell",
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


def evaluate_error(w, test_features, test_labels):
    """Fraction of test points whose thresholded prediction differs from the truth."""
    test_labels = np.asarray(test_labels, dtype=float)
    if test_labels.size == 0:
        raise DegenerateInputError("empty test set")
    predictions = classify(decision_values(test_features, w))
    return float(np.mean(predictions != test_labels))


def random_init_near_supervised(data, lam, count, scale=1.0, seed=0):
    """Gaussian perturbations of the supervised solution, one per row.

    The per-coordinate standard deviation is ``scale * max(1, |w_sup|_2)``
    so the cloud stays proportionate to the solution it surrounds.
    """
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    if not scale > 0.0:
        raise InvalidInputError("scale must be positive")
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    sd = scale * max(1.0, float(np.linalg.norm(w_sup)))
    rng = derive_rng(seed)
    return w_sup + sd * rng.standard_normal((int(count), w_sup.size))


def count_unique_optima(finals, rel_tolerance=CLUSTER_TOLERANCE):
    """Number of distinct converged weight vectors, and a cluster id per vector.

    Two vectors belong to the same optimum when their max-norm distance is
    below ``rel_tolerance * (1 + largest entry magnitude over all vectors)``;
    clusters are the connected components of that relation, so the count
    does not depend on input order.
    """
    finals = np.asarray(finals, dtype=float)
    if finals.size == 0:
        return 0, np.zeros(0, dtype=int)
    threshold = rel_tolerance * (1.0 + float(np.max(np.abs(finals))))
    distances = np.max(np.abs(finals[:, None, :] - finals[None, :, :]), axis=2)
    adjacent = distances < threshold
    n = len(finals)
    labels = np.full(n, -1, dtype=int)
    next_label = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = next_label
        while stack:
            j = stack.pop()
            for k in np.nonzero(adjacent[j])[0]:
                if labels[k] < 0:
                    labels[k] = next_label
                    stack.append(int(k))
        next_label += 1
    return next_label, labels


@dataclass
class StartRecord:
    """Outcome of one descent run inside a basin study."""

    start_index: int
    init_kind: str
    initial_weights: np.ndarray
    final_weights: np.ndarray | None
    final_objective: float
    test_error: float
    iterations: int
    converged: bool
    stop_reason: StopReason | None
    objective_path: np.ndarray
    weight_path: np.ndarray
    iteration_path: np.ndarray
    status: str
    optimum_id: int = -1


@dataclass
class BasinStudyResult:
    records: list[StartRecord]
    supervised_record: StartRecord
    unique_optima_count: int

    @property
    def all_records(self):
        return [self.supervised_record] + self.records


def _map_indexed(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def run_basin_study(
    data,
    lam,
    method,
    starts,
    test_features=None,
    test_labels=None,
    encoding=ClassEncoding(),
    config=SolverConfig(),
):
    """Run one solver from many starting weights and cluster the optima.

    ``starts`` is a sequence of weight vectors; a run from the supervised
    solution is always added. All valid starts run as one lock-step
    batch. A start of the wrong shape or with a non-finite entry is
    recorded with an ``error: ...`` status rather than raised. Unique
    optima are counted over all successful runs, supervised start
    included.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]
    if not starts:
        raise InvalidInputError("need at least one starting point")
    has_test = test_labels is not None and np.asarray(test_labels).size > 0
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    tasks = [(-1, "supervised", w_sup)] + [(i, "random", w0) for i, w0 in enumerate(starts)]
    outcomes = [
        StartRecord(
            start_index=index,
            init_kind=kind,
            initial_weights=w0,
            final_weights=None,
            final_objective=float("nan"),
            test_error=float("nan"),
            iterations=0,
            converged=False,
            stop_reason=None,
            objective_path=np.zeros(0),
            weight_path=np.zeros((0, w0.size)),
            iteration_path=np.zeros(0, dtype=int),
            status="ok",
        )
        for index, kind, w0 in tasks
    ]

    successful = []
    for record in outcomes:
        try:
            check_start(data, record.initial_weights)
        except Error as exc:
            record.status = f"error: {exc}"
        else:
            successful.append(record)
    results = fit_starts(
        data, [r.initial_weights for r in successful], method, lam, encoding, config
    )
    for record, result in zip(successful, results):
        record.final_weights = result.weights
        record.final_objective = result.final_objective
        record.iterations = result.iterations
        record.converged = result.trace.converged
        record.stop_reason = result.trace.stop_reason
        record.objective_path = result.trace.objectives
        record.weight_path = result.trace.weight_path
        record.iteration_path = result.trace.rounds
        if has_test:
            record.test_error = evaluate_error(result.weights, test_features, test_labels)

    count, cluster_ids = count_unique_optima([r.final_weights for r in successful])
    for record, cluster in zip(successful, cluster_ids):
        record.optimum_id = int(cluster)
    return BasinStudyResult(
        records=outcomes[1:], supervised_record=outcomes[0], unique_optima_count=count
    )


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
    test_fraction=0.2,
    unlabel_fraction=0.8,
    encoding=ClassEncoding(),
    config=SolverConfig(),
):
    """Random-restart comparison of both solvers across named datasets.

    Each fully labeled dataset is split (test fraction, then hidden-label
    fraction), and one basin study per solver runs it from the supervised
    solution and from ``restarts`` random perturbations of it, collecting
    test errors and unique-minima counts. Datasets whose split is
    degenerate are skipped with a recorded reason.
    """
    if restarts < 1:
        raise InvalidInputError("restarts must be at least 1")
    records, skipped = [], []
    for position, (name, data) in enumerate(datasets.items()):
        try:
            split = split_for_local_optima(
                data, test_fraction, unlabel_fraction, derive_rng(seed, position, 0)
            )
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
                train, lam, method, starts, split.test_features, split.test_labels,
                encoding, config,
            )
            for method in ("soft", "hard")
        }
        records.append(
            DatasetOptimaRecord(name, supervised_error, studies, split.partition_hash)
        )
    return LocalOptimaReport(records=records, skipped=skipped)


@dataclass(frozen=True)
class LearningCurveCell:
    u: int
    repeat: int
    method: str
    error: float
    test_size: int
    partition_hash: str


@dataclass(frozen=True)
class LearningCurveAggregate:
    u: int
    method: str
    mean_error: float
    std_error: float
    repeats_used: int


@dataclass
class LearningCurveReport:
    cells: list[LearningCurveCell]
    aggregates: list[LearningCurveAggregate]


def run_learning_curve(
    data,
    labeled_count,
    u_values,
    repeats,
    lam=0.0,
    seed=0,
    encoding=ClassEncoding(),
    config=SolverConfig(),
    threads=1,
):
    """Test-error curves over growing unlabeled counts, with an oracle.

    Per repeat and unlabeled count a fresh split is sampled; all four
    methods (supervised, soft, hard, oracle) are trained on that same
    split. The oracle solves the pooled system using the true labels of
    the unlabeled part. Cells with an empty test set carry NaN and are
    excluded from aggregation.
    """
    u_values = [int(u) for u in u_values]
    if repeats < 1:
        raise InvalidInputError("repeats must be at least 1")
    if any(u < 0 for u in u_values):
        raise InvalidInputError("unlabeled counts must be nonnegative")

    def run_repeat(repeat):
        cells = []
        for u_index, u in enumerate(u_values):
            split = sample_learning_curve_split(
                data, labeled_count, u, derive_rng(seed, repeat, u_index)
            )
            train = split.train
            weights = {
                "supervised": ridge_solve(train.labeled_features, train.labels, lam),
                "soft": fit_soft(train, lam, config).weights,
                "hard": fit_hard(train, lam, encoding, config).weights,
                "oracle": ridge_solve(
                    np.vstack([train.labeled_features, train.unlabeled_features]),
                    np.concatenate([train.labels, split.unlabeled_truth]),
                    lam,
                ),
            }
            for method in METHODS:
                error = (
                    evaluate_error(weights[method], split.test_features, split.test_labels)
                    if split.has_test
                    else float("nan")
                )
                cells.append(
                    LearningCurveCell(
                        u=u,
                        repeat=repeat,
                        method=method,
                        error=error,
                        test_size=int(split.test_labels.size),
                        partition_hash=split.partition_hash,
                    )
                )
        return cells

    nested = _map_indexed(run_repeat, list(range(int(repeats))), threads)
    cells = [cell for group in nested for cell in group]

    aggregates = []
    for u in u_values:
        for method in METHODS:
            errors = np.array(
                [c.error for c in cells if c.u == u and c.method == method and not np.isnan(c.error)]
            )
            used = int(errors.size)
            mean = float(np.mean(errors)) if used else float("nan")
            std_error = (
                float(np.std(errors, ddof=1) / np.sqrt(used)) if used > 1 else float("nan")
            )
            aggregates.append(
                LearningCurveAggregate(
                    u=u, method=method, mean_error=mean, std_error=std_error, repeats_used=used
                )
            )
    return LearningCurveReport(cells=cells, aggregates=aggregates)
