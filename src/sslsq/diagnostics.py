"""Convexity diagnostics and brute-force oracles for small instances.

``build_hessian`` assembles the curvature matrix used by the basin
analysis for each semi-supervised objective, ``is_psd``/``find_witness``
certify (non-)convexity, and the brute-force routines provide
ground-truth minima that the descent solvers can be checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DegenerateInputError,
    InvalidInputError,
    NoWitnessError,
)
from .model import (
    ClassEncoding,
    label_objective,
    responsibility_objective,
    ridge_operator,
    supervised_objective,
)
from .selflearn import update_weights

__all__ = [
    "BruteForceResult",
    "GridSearchResult",
    "HessianBlock",
    "HessianKind",
    "NonconvexityWitness",
    "brute_force_hard_minimum",
    "build_hessian",
    "find_witness",
    "grid_soft_minimum",
    "is_psd",
    "soft_grid_slack",
]

ENUMERATION_CAP = 20
GRID_CAP = 3


class HessianKind(enum.Enum):
    LABEL_BASED = "label-based"
    RESPONSIBILITY_BASED = "responsibility-based"


@dataclass(frozen=True)
class HessianBlock:
    """Symmetric (d+U) x (d+U) curvature matrix in block form.

    The leading block is ``2 X_e'X_e`` (plus ``2 lam I`` when lam > 0),
    the off-diagonal blocks couple weights and imputed labels through the
    unlabeled design matrix, and the trailing block is ``-2 I`` for the
    label-based kind and ``0`` for the responsibility-based kind.
    """

    matrix: np.ndarray
    kind: HessianKind


@dataclass(frozen=True)
class NonconvexityWitness:
    """Direction ``[z1; z2]`` with a strictly negative quadratic form."""

    z1: np.ndarray
    z2: np.ndarray
    quadratic_form_value: float


class BruteForceResult(NamedTuple):
    labels: np.ndarray
    weights: np.ndarray
    objective: float


class GridSearchResult(NamedTuple):
    soft_labels: np.ndarray
    weights: np.ndarray
    objective: float


def build_hessian(data, kind, encoding=ClassEncoding(), lam=0.0):
    """Assemble the block curvature matrix for the chosen objective kind."""
    if data.n_unlabeled == 0:
        raise DegenerateInputError("hessian in (weights, labels) needs an unlabeled block")
    d, unlabeled_count = data.n_features, data.n_unlabeled
    extended = data.extended_features
    unlabeled = data.unlabeled_features
    top_left = 2.0 * (extended.T @ extended)
    if lam > 0.0:
        top_left = top_left + 2.0 * lam * np.eye(d)
    if kind == HessianKind.LABEL_BASED:
        cross = -2.0 * unlabeled.T
        bottom = -2.0 * np.eye(unlabeled_count)
    elif kind == HessianKind.RESPONSIBILITY_BASED:
        gap = encoding.positive_code - encoding.negative_code
        cross = -2.0 * gap * unlabeled.T
        bottom = np.zeros((unlabeled_count, unlabeled_count))
    else:
        raise InvalidInputError(f"unknown hessian kind {kind!r}")
    matrix = np.block([[top_left, cross], [cross.T, bottom]])
    return HessianBlock(matrix=matrix, kind=kind)


def is_psd(matrix, tolerance=None):
    """True iff the smallest eigenvalue is at least ``-tolerance``.

    ``tolerance`` defaults to ``1e-8 * ||H||`` (spectral norm). Inputs
    asymmetric beyond 1e-10 (scaled by the largest entry) are rejected.
    """
    H = np.asarray(matrix, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))) if H.size else 0.0)
    if float(np.max(np.abs(H - H.T))) > 1e-10 * scale:
        raise InvalidInputError("matrix is not symmetric")
    eigenvalues = np.linalg.eigvalsh(0.5 * (H + H.T))
    if tolerance is None:
        tolerance = 1e-8 * float(np.max(np.abs(eigenvalues)))
    return bool(eigenvalues[0] >= -tolerance)


def find_witness(data, kind, encoding=ClassEncoding(), lam=0.0):
    """Construct a direction with a negative quadratic form for the Hessian.

    For the label-based kind any unit vector in the label block works
    (the trailing block carries -2 on the diagonal). For the
    responsibility-based kind a direction ``z2 = c * X_u z1`` is scaled
    past the threshold at which the cross term dominates the positive
    leading block, with a factor-2 margin; this requires a nonzero
    unlabeled design matrix.
    """
    block = build_hessian(data, kind, encoding, lam)
    d, unlabeled_count = data.n_features, data.n_unlabeled
    if kind == HessianKind.LABEL_BASED:
        z1 = np.zeros(d)
        z2 = np.zeros(unlabeled_count)
        z2[0] = 1.0
    else:
        unlabeled = data.unlabeled_features
        row_norms = np.einsum("ij,ij->i", unlabeled, unlabeled)
        if not np.any(row_norms > 0.0):
            raise NoWitnessError(
                "unlabeled features are all zero; the responsibility hessian is PSD"
            )
        z1 = unlabeled[int(np.argmax(row_norms))].copy()
        pushed = unlabeled @ z1
        leading = float(z1 @ (block.matrix[:d, :d] @ z1))
        gap = encoding.positive_code - encoding.negative_code
        # The form along z2 = c * X_u z1 is leading - 4 gap c |X_u z1|^2;
        # take twice the zero-crossing c for margin against rounding.
        threshold = leading / (4.0 * gap * float(pushed @ pushed))
        z2 = 2.0 * threshold * pushed
    z = np.concatenate([z1, z2])
    value = float(z @ (block.matrix @ z))
    if not value < 0.0:
        raise NoWitnessError(f"constructed direction is not a witness (form = {value})")
    return NonconvexityWitness(z1=z1, z2=z2, quadratic_form_value=value)


def brute_force_hard_minimum(data, lam=0.0, encoding=ClassEncoding(), chunk=4096):
    """Exhaustive global minimum of the responsibility objective.

    Enumerates all ``2^U`` binary labelings (capped at U <= 20), solving
    the weights exactly for each, and returns the best one. Ties are
    broken toward the lexicographically smallest labeling; enumeration
    runs in lexicographic order so the first strict improvement wins.
    """
    unlabeled_count = data.n_unlabeled
    if unlabeled_count > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration of 2^{unlabeled_count} labelings exceeds the U <= {ENUMERATION_CAP} cap"
        )
    if unlabeled_count == 0:
        w = update_weights(data, np.zeros(0), lam)
        return BruteForceResult(np.zeros(0), w, supervised_objective(data, w, lam))

    operator = ridge_operator(data.extended_features, lam)
    labeled = data.labeled_features
    unlabeled = data.unlabeled_features
    y = data.labels
    m, n = encoding.positive_code, encoding.negative_code
    # Bit j of the enumeration index is label j (most significant first),
    # so ascending indices enumerate labelings lexicographically.
    shifts = np.arange(unlabeled_count - 1, -1, -1, dtype=np.int64)

    best_objective = np.inf
    best_index = -1
    best_weights = None
    total = 1 << unlabeled_count
    for start in range(0, total, chunk):
        indices = np.arange(start, min(start + chunk, total), dtype=np.int64)
        q = ((indices[:, None] >> shifts[None, :]) & 1).astype(float)
        targets = np.hstack([np.tile(y, (len(indices), 1)), n + q * (m - n)])
        weights = targets @ operator.T
        labeled_residual = weights @ labeled.T - y[None, :]
        scores = weights @ unlabeled.T
        objectives = (
            np.einsum("ij,ij->i", labeled_residual, labeled_residual)
            + np.sum(q * (scores - m) ** 2 + (1.0 - q) * (scores - n) ** 2, axis=1)
            + lam * np.einsum("ij,ij->i", weights, weights)
        )
        local = int(np.argmin(objectives))
        if objectives[local] < best_objective:
            best_objective = float(objectives[local])
            best_index = int(indices[local])
            best_weights = weights[local].copy()

    labels = ((best_index >> shifts) & 1).astype(float)
    # Recompute through the scalar path so the reported value matches
    # responsibility_objective bit for bit.
    objective = responsibility_objective(data, best_weights, labels, encoding, lam)
    return BruteForceResult(labels, best_weights, objective)


def _grid_axis(step):
    if not 0.0 < step <= 0.5:
        raise InvalidInputError(f"grid step must lie in (0, 0.5], got {step}")
    axis = np.arange(0.0, 1.0 + 1e-12, step)
    if axis[-1] < 1.0 - 1e-12:
        axis = np.append(axis, 1.0)
    axis[-1] = min(axis[-1], 1.0)
    return axis


def grid_soft_minimum(data, lam=0.0, step=0.05):
    """Exhaustive grid search over soft labelings, capped at U <= 3.

    Every grid point gets its exact optimal weights; serves as an
    independent check on the soft descent solver.
    """
    unlabeled_count = data.n_unlabeled
    if unlabeled_count > GRID_CAP:
        raise CapacityError(f"grid search limited to U <= {GRID_CAP}, got {unlabeled_count}")
    axis = _grid_axis(step)
    if unlabeled_count == 0:
        w = update_weights(data, np.zeros(0), lam)
        return GridSearchResult(np.zeros(0), w, supervised_objective(data, w, lam))

    grids = np.meshgrid(*([axis] * unlabeled_count), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    extended = data.extended_features
    operator = ridge_operator(extended, lam)
    targets = np.hstack([np.tile(data.labels, (len(points), 1)), points])
    weights = targets @ operator.T
    residuals = weights @ extended.T - targets
    objectives = np.einsum("ij,ij->i", residuals, residuals)
    if lam > 0.0:
        objectives = objectives + lam * np.einsum("ij,ij->i", weights, weights)
    best = int(np.argmin(objectives))
    u = points[best].copy()
    w = weights[best].copy()
    return GridSearchResult(u, w, label_objective(data, w, u, lam))


def soft_grid_slack(data, lam=0.0, step=0.05):
    """Worst-case gap between the grid minimum and the true soft minimum.

    The partially minimized soft objective is a quadratic in the imputed
    labels; rounding the minimizer to the nearest grid point moves each
    free coordinate by at most ``step / 2``, so the gap is bounded by
    ``lam_max * U * step^2 / 4`` with ``lam_max`` the largest eigenvalue
    of the reduced Hessian, computed here from the actual data.
    """
    _grid_axis(step)
    unlabeled_count = data.n_unlabeled
    if unlabeled_count == 0:
        return 0.0
    extended = data.extended_features
    operator = ridge_operator(extended, lam)
    fitted = extended @ operator - np.eye(extended.shape[0])
    reduced = fitted.T @ fitted
    if lam > 0.0:
        reduced = reduced + lam * (operator.T @ operator)
    tail = reduced[data.n_labeled :, data.n_labeled :]
    lam_max = float(np.max(np.linalg.eigvalsh(0.5 * (tail + tail.T))))
    return max(lam_max, 0.0) * unlabeled_count * step * step / 4.0 + 1e-12
