"""Block coordinate descent solvers for the two self-learning objectives.

Both solvers alternate exact block updates: impute targets for the
unlabeled block from the current weights, then re-fit the weights by the
closed-form ridge solve on the extended system, through one ridge
operator built per fit. Each half-step minimizes its block exactly, so
the objective never increases. The soft variant imputes clamped
decision values and stops on a relative objective decrease; the hard
variant imputes 0/1 responsibilities and stops when they no longer
change between rounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InvalidInputError
from .model import (
    ClassEncoding,
    _check_lam,
    _responsibility_value,
    _squared_objective,
    ridge_operator,
    ridge_solve,
    supervised_objective,
)

__all__ = [
    "FitResult",
    "FitTrace",
    "GivenLabels",
    "GivenWeights",
    "SolverConfig",
    "StopReason",
    "TraceRecord",
    "fit_hard",
    "fit_soft",
    "update_hard_labels",
    "update_soft_labels",
    "update_weights",
]

SUPERVISED_INIT = "supervised"


class StopReason(enum.Enum):
    LABELS_STABLE = "labels-stable"
    OBJECTIVE_TOLERANCE = "objective-tolerance"
    MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class GivenWeights:
    """Start the descent from an explicit weight vector."""

    weights: np.ndarray


@dataclass(frozen=True)
class GivenLabels:
    """Start the descent from explicit imputed labels in [0, 1]^U."""

    labels: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, stopping rule and initialization.

    The soft solver stops on a relative objective decrease below
    ``objective_tolerance``; the hard solver stops on exact label
    stability.
    """

    max_iterations: int = 1000
    objective_tolerance: float = 1e-10
    init: str | GivenWeights | GivenLabels = SUPERVISED_INIT
    trace_limit: int = 10_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.objective_tolerance < 0.0:
            raise InvalidInputError("objective_tolerance must be nonnegative")
        ok = self.init == SUPERVISED_INIT or isinstance(self.init, (GivenWeights, GivenLabels))
        if not ok:
            raise InvalidInputError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One descent round: its index, the re-fitted weights and the objective.

    Only the final record carries the round's imputed labels (the same
    array as ``FitResult.imputed``); every earlier record holds an empty
    array, so a trace costs O(rounds * d + U) memory rather than
    O(rounds * U).
    """

    iteration: int
    weights: np.ndarray
    labels: np.ndarray
    objective: float


@dataclass
class FitTrace:
    """Per-round records of a descent run; objectives are non-increasing.

    Every record keeps the round's weights and objective; imputed labels
    appear on the final record only.
    """

    records: list[TraceRecord]
    converged: bool
    stop_reason: StopReason

    @property
    def objectives(self):
        return np.array([r.objective for r in self.records])

    @property
    def weight_path(self):
        return np.array([r.weights for r in self.records])


@dataclass
class FitResult:
    weights: np.ndarray
    imputed: np.ndarray
    final_objective: float
    trace: FitTrace

    @property
    def iterations(self):
        return len(self.trace.records)


def update_soft_labels(data, w):
    """Imputed soft labels: decision values clamped to [0, 1].

    Values below 0 map to 0, values above 1 map to 1, and anything in
    between is kept as is (the unconstrained per-point minimizer).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (data.n_features,):
        raise DimensionError(f"weights have shape {w.shape}, expected ({data.n_features},)")
    return _soft_labels(data.unlabeled_features @ w)


def _soft_labels(scores):
    return np.clip(scores, 0.0, 1.0)


def update_hard_labels(data, w, encoding=ClassEncoding()):
    """Imputed responsibilities: 1 where the objective decreases in q, else 0.

    With (1, 0) encoding this assigns 1 exactly when the decision value
    exceeds 0.5; a value of exactly 0.5 gets 0, matching ``classify``.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (data.n_features,):
        raise DimensionError(f"weights have shape {w.shape}, expected ({data.n_features},)")
    return _hard_labels(data.unlabeled_features @ w, encoding)


def _hard_labels(scores, encoding):
    m, n = encoding.positive_code, encoding.negative_code
    slope = (m * m - n * n) - 2.0 * (m - n) * scores
    return np.where(slope < 0.0, 1.0, 0.0)


def update_weights(data, imputed, lam=0.0):
    """Ridge solve on the extended system with targets ``[labels; imputed]``."""
    targets = data.extended_targets(imputed)
    return ridge_solve(data.extended_features, targets, lam)


def _initial_weights(data, lam, config, to_targets, solve):
    init = config.init
    if init == SUPERVISED_INIT:
        return ridge_solve(data.labeled_features, data.labels, lam)
    if isinstance(init, GivenWeights):
        w = np.asarray(init.weights, dtype=float)
        if w.shape != (data.n_features,):
            raise DimensionError(
                f"initial weights have shape {w.shape}, expected ({data.n_features},)"
            )
        if w.size and not np.all(np.isfinite(w)):
            raise InvalidInputError("initial weights contain non-finite entries")
        return w
    labels = np.asarray(init.labels, dtype=float)
    if labels.shape != (data.n_unlabeled,):
        raise DimensionError(
            f"initial labels have shape {labels.shape}, expected ({data.n_unlabeled},)"
        )
    if labels.size and (np.any(labels < 0.0) or np.any(labels > 1.0)):
        raise InvalidInputError("initial labels must lie in [0, 1]")
    return solve @ data.extended_targets(to_targets(labels))


def _supervised_result(data, lam, hard):
    w = ridge_solve(data.labeled_features, data.labels, lam)
    objective = supervised_objective(data, w, lam)
    empty = np.zeros(0)
    trace = FitTrace(
        records=[TraceRecord(0, w, empty, objective)],
        converged=True,
        stop_reason=StopReason.LABELS_STABLE if hard else StopReason.OBJECTIVE_TOLERANCE,
    )
    return FitResult(w, empty, objective, trace)


def _thin(records, limit):
    if len(records) <= limit:
        return records
    thinned = records[::10]
    if thinned[-1].iteration != records[-1].iteration:
        thinned.append(records[-1])
    return thinned


# Shared by every trace record but the last, which holds the imputed labels.
_NO_LABELS = np.zeros(0)
_NO_LABELS.setflags(write=False)


def _run_descent(data, lam, config, impute, to_targets, objective, hard):
    """Alternate label imputation and weight re-fits on the extended system.

    ``impute`` maps unlabeled decision values to labels, ``to_targets``
    maps labels to regression targets, and ``objective(fitted, targets,
    labels, w)`` scores a round from the fitted values ``X w`` of the
    stacked design. One product ``X w`` per round serves both that
    round's objective and the next round's imputation.
    """
    extended = data.extended_features
    n_labeled = data.n_labeled
    # The design stays fixed over the fit, so it is factorized once.
    solve = ridge_operator(extended, lam)
    w = _initial_weights(data, lam, config, to_targets, solve)
    scores = data.unlabeled_features @ w

    records = []
    converged = False
    reason = StopReason.MAX_ITERATIONS
    labels = None
    previous_objective = None
    for k in range(config.max_iterations):
        candidate = impute(scores)
        if hard and labels is not None and np.array_equal(candidate, labels):
            converged = True
            reason = StopReason.LABELS_STABLE
            break
        labels = candidate
        targets = np.concatenate([data.labels, to_targets(labels)])
        w = solve @ targets
        fitted = extended @ w
        value = objective(fitted, targets, labels, w)
        records.append(TraceRecord(k, w, _NO_LABELS, value))
        if not hard and previous_objective is not None:
            if previous_objective - value <= config.objective_tolerance * (
                1.0 + abs(previous_objective)
            ):
                converged = True
                reason = StopReason.OBJECTIVE_TOLERANCE
                break
        previous_objective = value
        scores = fitted[n_labeled:]

    records = _thin(records, config.trace_limit)
    last = records[-1] = replace(records[-1], labels=labels)
    trace = FitTrace(records, converged, reason)
    return FitResult(last.weights, labels, last.objective, trace)


def fit_soft(data, lam=0.0, config=SolverConfig()):
    """Alternating minimization of the soft-label objective.

    Starting weights come from ``config.init`` (the supervised solution
    by default); every round imputes clamped decision values and re-fits
    the weights. Stops when the relative objective decrease falls to
    ``config.objective_tolerance`` or at ``max_iterations``.
    """
    lam = _check_lam(lam)
    if data.n_unlabeled == 0:
        return _supervised_result(data, lam, hard=False)
    return _run_descent(
        data,
        lam,
        config,
        impute=_soft_labels,
        to_targets=lambda labels: labels,
        objective=lambda fitted, targets, labels, w: _squared_objective(fitted - targets, w, lam),
        hard=False,
    )


def fit_hard(data, lam=0.0, encoding=ClassEncoding(), config=SolverConfig()):
    """Alternating minimization of the responsibility objective.

    Every round assigns 0/1 responsibilities by thresholding decision
    values, then re-fits the weights on the induced class targets. Stops
    when the responsibilities repeat exactly; equal-objective cycles are
    cut off by ``max_iterations`` with stop reason MAX_ITERATIONS.
    """
    lam = _check_lam(lam)
    if data.n_unlabeled == 0:
        return _supervised_result(data, lam, hard=True)
    m, n = encoding.positive_code, encoding.negative_code
    n_labeled = data.n_labeled
    return _run_descent(
        data,
        lam,
        config,
        impute=lambda scores: _hard_labels(scores, encoding),
        to_targets=lambda labels: n + labels * (m - n),
        objective=lambda fitted, targets, labels, w: _responsibility_value(
            fitted[:n_labeled] - targets[:n_labeled], fitted[n_labeled:], labels, w, encoding, lam
        ),
        hard=True,
    )
