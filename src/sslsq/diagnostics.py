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

from .errors import CapacityError, DegenerateInputError, InvalidInputError, NoWitnessError
from .model import (
    _CLASS_CODES,
    _check_lam,
    _row_dots,
    _squared_objective,
    label_objective,
    responsibility_objective,
    ridge_operator,
)

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


def _bottom_diagonal(data, kind):
    """The trailing block's diagonal value of the kind's Hessian: -2 or 0.

    Raises when ``data`` has no unlabeled block or ``kind`` is unknown.
    """
    if data.n_unlabeled == 0:
        raise DegenerateInputError("hessian in (weights, labels) needs an unlabeled block")
    if kind == HessianKind.LABEL_BASED:
        return -2.0
    if kind == HessianKind.RESPONSIBILITY_BASED:
        return 0.0
    raise InvalidInputError(f"unknown hessian kind {kind!r}")


def build_hessian(data, kind, lam=0.0):
    """Assemble the block curvature matrix for the chosen objective kind.

    The imputed variables are the unlabeled rows' targets for the
    label-based kind and their responsibilities between the class codes
    1 and 0 for the responsibility-based kind, so with those codes the
    two kinds share their off-diagonal blocks.
    """
    bottom_diagonal = _bottom_diagonal(data, kind)
    lam = _check_lam(lam)
    extended, coupling = data.extended_features, -2.0 * data.unlabeled_features
    d, k = data.n_features, data.n_unlabeled
    matrix = np.zeros((d + k, d + k))
    with np.errstate(over="ignore", invalid="ignore"):
        matrix[:d, :d] = 2.0 * (extended.T @ extended) + 2.0 * lam * np.eye(d)
    if not np.all(np.isfinite(matrix[:d, :d])):
        raise DegenerateInputError("the hessian's weight block overflows double precision")
    matrix[d:, :d] = coupling
    matrix[:d, d:] = coupling.T
    np.fill_diagonal(matrix[d:, d:], bottom_diagonal)
    return HessianBlock(matrix, kind)


def is_psd(matrix):
    """True iff the smallest eigenvalue is at least ``-1e-8 * ||H||``.

    ``||H||`` is the spectral norm, the largest eigenvalue magnitude.
    Inputs asymmetric beyond 1e-10 (scaled by the largest entry) are
    rejected.
    """
    H = np.asarray(matrix, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {H.shape}")
    if H.size == 0:
        return True  # an empty matrix is vacuously PSD
    scale = max(1.0, float(np.max(np.abs(H))))
    # One (n, n) work array serves the symmetry check and the
    # symmetrized copy.
    work = np.subtract(H, H.T)
    if float(np.max(np.abs(work, out=work))) > 1e-10 * scale:
        raise InvalidInputError("matrix is not symmetric")
    work = np.add(H, H.T, out=work)
    work *= 0.5
    eigenvalues = np.linalg.eigvalsh(work)
    return bool(np.min(eigenvalues) >= -1e-8 * float(np.max(np.abs(eigenvalues))))


def _psd_verdict(data, kind, lam=0.0):
    """Whether ``build_hessian(data, kind, lam).matrix`` is PSD, and its smallest diagonal entry.

    Both are read off the block form ``[[A, B'], [B, delta I]]``, with no
    matrix and no factorization. The weights' diagonal ``2 |column|^2 +
    2 lam`` is never negative, so the smallest entry is delta. The
    label-based kind (delta = -2) is never PSD. A PSD matrix with a zero
    diagonal entry is zero in that row and column (Horn and Johnson,
    *Matrix Analysis*, ch. 7), so the responsibility-based kind (delta =
    0) is PSD exactly when ``B = -2 X_u`` is zero. Unlike ``is_psd``
    there is no tolerance, so at extreme feature scales the two can
    disagree.
    """
    bottom_diagonal = _bottom_diagonal(data, kind)
    _check_lam(lam)
    return bottom_diagonal == 0.0 and not np.any(data.unlabeled_features), bottom_diagonal


def find_witness(data, kind, lam=0.0):
    """Construct a direction with a negative quadratic form for the Hessian.

    For the label-based kind any unit vector in the label block works
    (the trailing block carries -2 on the diagonal); the first one is
    taken, and its value -2 needs no matrix. For the
    responsibility-based kind see ``_responsibility_witness``. Neither
    builds the (d+U)^2 matrix or its weight block, and each sum over
    rows goes through ``model._row_dots``.
    """
    bottom_diagonal = _bottom_diagonal(data, kind)
    lam = _check_lam(lam)
    if kind == HessianKind.RESPONSIBILITY_BASED:
        return _responsibility_witness(data, lam)
    # The form along the first label's unit vector is the label
    # block's diagonal.
    z2 = np.zeros(data.n_unlabeled)
    z2[0] = 1.0
    return NonconvexityWitness(np.zeros(data.n_features), z2, bottom_diagonal)


def _responsibility_witness(data, lam):
    """The responsibility kind's witness, from the design alone.

    There is none exactly when the unlabeled design matrix is zero, the
    rule that makes the Hessian PSD (see ``_psd_verdict``). Otherwise
    ``z1`` is the largest-norm unlabeled row and ``z2 = c X_u z1``,
    with ``c`` scaled past the threshold at which the cross term
    dominates the positive leading block ``A = 2 X_e'X_e + 2 lam I``,
    with a factor-2 margin. The trailing block is zero, so
    ``z'Hz = z1'A z1 - 4 (X_u z1)'z2 = z1'A z1 - 4 c |X_u z1|^2``, with
    ``z1'A z1`` taken as ``2 (|X_e z1|^2 + lam |z1|^2)``: O((L + U) d)
    time and memory, and no A. It rounds differently from the dense
    ``z @ (H @ z)``, by a few ulps of the terms. Its exact value is
    ``-z1'A z1 < 0``, so a non-finite or non-negative value means the
    arithmetic left double range, and is refused. So is an A that
    overflows, as ``build_hessian`` refuses it: A is finite when its
    diagonal is, since ``|A_jk| <= sqrt(A_jj A_kk)``.
    """
    with np.errstate(over="ignore"):
        diagonal = 2.0 * _row_dots(data.extended_features.T) + 2.0 * lam
    if not np.all(np.isfinite(diagonal)):
        raise DegenerateInputError("the hessian's weight block overflows double precision")
    unlabeled = data.unlabeled_features
    if not np.any(unlabeled):
        raise NoWitnessError("unlabeled features are all zero; the responsibility hessian is PSD")
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        z1 = unlabeled[int(np.argmax(_row_dots(unlabeled)))].copy()
        pushed = unlabeled @ z1
        form = 2.0 * _squared_objective(data.extended_features @ z1, z1, lam)
        push = _row_dots(pushed)
        # The form along z2 = c * X_u z1 is form - 4 c |X_u z1|^2;
        # take twice the zero-crossing c for margin against rounding.
        c = 2.0 * (form / (4.0 * push))
        z2 = c * pushed
        value = float(form - 4.0 * c * push)
    if not (np.isfinite(value) and value < 0.0):
        # In exact arithmetic form >= 2 push > 0 (A contains 2 X_u'X_u), so
        # either a term vanished (underflow) or one left range (overflow).
        flow = "underflows" if form == 0.0 or push == 0.0 else "overflows"
        raise DegenerateInputError(f"the responsibility witness {flow} (form = {value})")
    return NonconvexityWitness(z1=z1, z2=z2, quadratic_form_value=value)


def _label_columns(data, lam):
    """``P``, the (N + d, U) label columns ``C`` and the base residual ``r``.

    With ``P = ridge_operator(X_e, lam)`` and ``X_lam = [X_e; sqrt(lam) I]``,
    targets ``t = [y; q]`` get the weights ``P t`` and the objective
    ``||X_lam P t - [t; 0]||^2 = ||r + C q||^2``, where
    ``C = X_lam P[:, L:] - E_u`` (``E_u`` the unlabeled rows' unit columns)
    and ``r = X_lam P[:, :L] y - [y; 0]``.
    """
    operator = ridge_operator(data.extended_features, lam)
    labeled, unlabeled_count = data.n_labeled, data.n_unlabeled
    augmented = np.vstack([data.extended_features, np.sqrt(lam) * np.eye(data.n_features)])
    columns = augmented @ operator[:, labeled:]
    columns[labeled + np.arange(unlabeled_count), np.arange(unlabeled_count)] -= 1.0
    residual = augmented @ (operator[:, :labeled] @ data.labels)
    residual[:labeled] -= data.labels
    return operator, columns, residual


def _bit_rows(count):
    """All ``2^count`` labelings of ``count`` points as rows, in lexicographic order."""
    shifts = np.arange(count - 1, -1, -1, dtype=np.int64)
    return ((np.arange(1 << count, dtype=np.int64)[:, None] >> shifts) & 1).astype(float)


def _half_table(constant, linear, quadratic, bits):
    """``constant + 2 g'q + q'A q`` for every row ``q`` of ``bits``."""
    return constant + 2.0 * (bits @ linear) + np.einsum("ij,ij->i", bits @ quadratic, bits)


# The rescoring slack in ulps of the term scale, per label. A table entry
# and its rescored objective differed by at most 0.04 of these on
# well-conditioned data, and by 28 on the 1e6-scaled collinear designs.
_SLACK_ULPS = 1024

# The rounding error of forming a label column of C = X_lam P[:, L:] - E_u,
# in ulps of ||X_e||_F ||P||_F. A label whose column is no longer than
# this cannot move the objective. Such columns measured at most 18 of
# these (interpolating designs up to 1e8-conditioned, and leverage-1
# points, at lam = 0); every other column at lam = 0 or 0.5 measured at
# least 1e5. A penalty near 1e-8 puts interpolating columns on both sides.
_VANISH_ULPS = 1024

# The (a, b) sums are scanned in blocks of about this many labelings.
_CHUNK_LABELINGS = 4096


def brute_force_hard_minimum(data, lam=0.0):
    """Exact global minimum of the responsibility objective over binary labels.

    Covers all ``2^U`` labelings (capped at U <= 20) by meet in the
    middle, after Horowitz and Sahni (1974). With optimal weights, the
    objective for a binary labeling ``q`` is ``||r + C q||^2`` (see
    ``_label_columns``), the quadratic ``c + 2 g'q + q'A q`` with
    ``c = r'r``, ``g = C'r`` and ``A = C'C``. Its terms come from the U
    label columns, in O(N d U) time and O(N U) memory. Split ``q`` into
    its first ``floor(U/2)`` labels ``a`` and the rest ``b``: the value is
    ``f(a) + h(b) + 2 a'A_ab b``. The two half-tables ``f`` and ``h`` have
    ``2^(U/2)`` entries each, and the ``(a, b)`` sums are scanned in blocks
    of about ``_CHUNK_LABELINGS`` labelings (at least one ``a`` row each),
    so no labeling needs its own solve and memory stays bounded.

    The scan is pruned, after the branch and bound of Land and Doig
    (1960). Every value in row ``a`` is at least ``f(a) + min h`` plus the
    negative entries of ``2 a'A_ab``, and a block's bound is the least of
    its rows'. Blocks are scored in ascending (stable) order of bound,
    and the scan stops at the first block whose bound exceeds the best
    value by more than twice the rounding slack: a value and its bound
    each round by about ``(k+3) eps`` of the scale (``k`` labels in
    ``b``), far less than the slack, so no unscored value lies within
    the slack of the best. On an all-ties design every block is scored,
    so the worst case is still all ``2^U`` labelings.

    Row-major order over ``(a, b)`` is lexicographic order. The table
    rounds differently from the objective, so every labeling within a
    rounding slack of the minimum is kept; the slack scales with
    ``|c| + 2 ||g||_1 + ||A||_1`` (sums of absolute entries). The kept
    set does not depend on the order the blocks are scored in. Each kept
    labeling is rescored exactly, in lexicographic order, with
    ``w = P t`` and ``responsibility_objective``, and the first strict
    minimum wins. So ties go to the lexicographically smallest labeling,
    and the result carries the bits of the same solve a hard fit makes.
    Many exact ties make the rescoring longer.
    A label that cannot move the objective by more than rounding error
    (its column of ``C`` vanishes) ties with itself flipped, so it is
    fixed to 0 and only the other labels are enumerated. On a design that
    fits every labeling exactly at ``lam = 0`` that fixes all of them, and
    the all-zero labeling is returned, rescored the same way. With no
    unlabeled rows the one empty labeling is rescored: the supervised fit.
    """
    unlabeled_count = data.n_unlabeled
    if unlabeled_count > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration of 2^{unlabeled_count} labelings exceeds the U <= {ENUMERATION_CAP} cap"
        )

    operator, columns, residual = _label_columns(data, lam)
    gram = columns.T @ columns
    # Label j moves the objective only through column j of C, whose
    # squared norm is gram[j, j]. Labels whose column is rounding error
    # stay 0; only the free ones are enumerated.
    extended = data.extended_features
    noise = _VANISH_ULPS * np.finfo(float).eps * np.linalg.norm(extended) * np.linalg.norm(operator)
    free = np.flatnonzero(np.diagonal(gram) > noise * noise)
    constant = float(_row_dots(residual))
    linear = columns[:, free].T @ residual
    quadratic = gram[np.ix_(free, free)]

    high = len(free) // 2
    high_bits, low_bits = _bit_rows(high), _bit_rows(len(free) - high)
    row_values = _half_table(constant, linear[:high], quadratic[:high, :high], high_bits)
    column_values = _half_table(0.0, linear[high:], quadratic[high:, high:], low_bits)
    cross = 2.0 * (high_bits @ quadratic[:high, high:])
    scale = abs(constant) + 2.0 * np.sum(np.abs(linear)) + np.sum(np.abs(quadratic))
    slack = _SLACK_ULPS * len(free) * np.finfo(float).eps * scale

    # Index i * width + j is labeling (a_i, b_j), whose bits, most
    # significant first, are the free labels. Row i's values are at least
    # its bound: the best column plus every negative cross term.
    width = len(column_values)
    rows = max(1, _CHUNK_LABELINGS // width)
    firsts = np.arange(0, len(row_values), rows)
    row_bounds = row_values + column_values.min() + np.minimum(cross, 0.0).sum(axis=1)
    block_bounds = np.minimum.reduceat(row_bounds, firsts)
    best = np.inf
    kept = np.zeros(0, dtype=np.int64)
    kept_values = np.zeros(0)
    for block_index in np.argsort(block_bounds, kind="stable"):
        # A value and its bound each round by far less than slack, so no
        # later block holds a value within slack of the best.
        if block_bounds[block_index] > best + 2.0 * slack:
            break
        first = int(firsts[block_index])
        block = slice(first, first + rows)
        values = _block_values(row_values[block], column_values, cross[block], low_bits)
        lowest = float(values.min())
        if lowest > best + slack:
            continue
        if lowest < best:
            best = lowest
            keep = kept_values <= best + slack
            kept, kept_values = kept[keep], kept_values[keep]
        hits = np.flatnonzero(values <= best + slack)
        kept = np.concatenate([kept, first * width + hits])
        kept_values = np.concatenate([kept_values, values.reshape(-1)[hits]])

    result = None
    for index in np.sort(kept):
        row, column = divmod(int(index), width)
        labels = np.zeros(unlabeled_count)
        labels[free] = np.concatenate([high_bits[row], low_bits[column]])
        candidate = _rescored(data, operator, labels, lam)
        if result is None or candidate.objective < result.objective:
            result = candidate
    return result


def _block_values(row_values, column_values, cross, low_bits):
    """Table values of the labelings ``(a_i, b_j)`` for one block's rows ``i``, one row each."""
    return row_values[:, None] + column_values[None, :] + cross @ low_bits.T


def _rescored(data, operator, labels, lam):
    """Labeling ``labels`` with the weights and objective a lone hard solve gives it."""
    w = operator @ np.concatenate([data.labels, labels])
    return BruteForceResult(labels, w, responsibility_objective(data, w, labels, _CLASS_CODES, lam))


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

    With optimal weights, the soft labeling ``u`` scores ``||r + C u||^2``
    (see ``_label_columns``), so every grid point is scored from the U
    label columns by ``_half_table``, in O(points * U) memory whatever the
    number of rows. The best point's weights and objective are its exact
    solve, ``P [y; u]`` and ``label_objective``. The table rounds
    differently from that objective, so of exactly tied points another
    than the first may be chosen. With no unlabeled rows the one empty
    point is taken: the supervised fit. Serves as an independent check on
    the soft descent solver.
    """
    unlabeled_count = data.n_unlabeled
    if unlabeled_count > GRID_CAP:
        raise CapacityError(f"grid search limited to U <= {GRID_CAP}, got {unlabeled_count}")
    axis = _grid_axis(step)
    # All axis.size^U points as rows, in lexicographic order; U = 0 gives one empty row.
    shape = (axis.size,) * unlabeled_count
    points = axis[np.indices(shape).reshape(unlabeled_count, axis.size**unlabeled_count).T]
    operator, columns, residual = _label_columns(data, lam)
    objectives = _half_table(
        float(_row_dots(residual)), columns.T @ residual, columns.T @ columns, points
    )
    u = points[int(np.argmin(objectives))].copy()
    w = operator @ data.extended_targets(u)
    return GridSearchResult(u, w, label_objective(data, w, u, lam))


def soft_grid_slack(data, lam=0.0, step=0.05):
    """Worst-case gap between the grid minimum and the true soft minimum.

    The partially minimized soft objective is ``||r + C u||^2`` in the
    imputed labels ``u`` (see ``_label_columns``); rounding the minimizer
    to the nearest grid point moves each free coordinate by at most
    ``step / 2``, so the gap is bounded by ``lam_max * U * step^2 / 4``
    with ``lam_max`` the largest eigenvalue of the (U, U) matrix ``C'C``.
    """
    _check_lam(lam)
    _grid_axis(step)
    unlabeled_count = data.n_unlabeled
    if unlabeled_count == 0:
        return 0.0
    _, columns, _ = _label_columns(data, lam)
    lam_max = float(np.max(np.linalg.eigvalsh(columns.T @ columns)))
    return max(lam_max, 0.0) * unlabeled_count * step * step / 4.0 + 1e-12
