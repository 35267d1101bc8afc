"""Core data model: datasets, the ridge solve, objectives and gradients.

The classifier is linear with class targets encoded as {0, 1}; a point is
assigned class 1 when its decision value exceeds 1/2. Two semi-supervised
objectives extend the supervised squared loss. ``label_objective`` treats
the missing labels as free variables ``u`` in [0, 1] and fits them like
known targets. ``responsibility_objective`` instead carries a weight
``q`` in [0, 1] per unlabeled point that splits its loss between the two
class targets; it is linear in ``q``, so its per-point optimum always sits
at a vertex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError

__all__ = [
    "ClassEncoding",
    "Dataset",
    "classify",
    "decision_values",
    "grad_label_objective_u",
    "grad_label_objective_w",
    "grad_responsibility_objective_q",
    "grad_responsibility_objective_w",
    "label_objective",
    "responsibility_objective",
    "ridge_operator",
    "ridge_solve",
    "supervised_objective",
]


def _as_float_array(value, name, ndim, copy=True):
    """``value`` as a finite float array of ``ndim`` axes; with ``copy``, a read-only copy."""
    arr = np.array(value, dtype=float) if copy else np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if copy:
        arr.setflags(write=False)
    return arr


def _check_lam(lam):
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidInputError(f"ridge penalty must be a finite nonnegative real, got {lam}")
    return lam


def _check_positive(value, name):
    """Raise unless ``value`` is positive and finite; a NaN fails too."""
    if not 0.0 < value < np.inf:
        raise InvalidInputError(f"{name} must be positive and finite")


def _check_binary(values, name):
    """Raise unless every entry of the float array ``values`` is exactly 0 or 1."""
    if np.any((values != 0.0) & (values != 1.0)):
        raise InvalidInputError(f"{name} must be exactly 0 or 1")


def _check_count(value, name, minimum=None):
    """A count as an int, by ``operator.index``: a float or string is refused, not truncated."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, not {value!r}") from None
    if minimum is not None and count < minimum:
        raise InvalidInputError(f"{name} must be at least {minimum}")
    return count


@dataclass(frozen=True)
class Dataset:
    """Feature matrices for the labeled and unlabeled blocks.

    ``labeled_features`` is (L, d) with L >= 1, ``labels`` is (L,) with
    entries exactly 0 or 1, and ``unlabeled_features`` is (U, d) with
    U >= 0 (``None`` means an empty block). Both blocks share the column
    count d; an intercept, when used, is an ordinary constant-ones column
    (by convention the last one). Instances are immutable. The features
    are held once, as the read-only (L + U, d) extended design, copied
    from the blocks at construction with the labeled rows first; the two
    blocks are views of its first L and last U rows, and ``labels`` is a
    read-only copy.
    """

    labeled_features: np.ndarray
    labels: np.ndarray
    unlabeled_features: np.ndarray | None = None

    def __post_init__(self):
        features = _as_float_array(self.labeled_features, "labeled_features", 2, copy=False)
        labels = _as_float_array(self.labels, "labels", 1)
        unlabeled = self.unlabeled_features
        if unlabeled is None:
            unlabeled = np.empty((0, features.shape[1]))
        unlabeled = _as_float_array(unlabeled, "unlabeled_features", 2, copy=False)
        if features.shape[0] < 1:
            raise InvalidInputError("need at least one labeled example")
        if labels.shape[0] != features.shape[0]:
            raise DimensionError(
                f"{labels.shape[0]} labels for {features.shape[0]} labeled rows"
            )
        if unlabeled.shape[1] != features.shape[1]:
            raise DimensionError(
                "labeled and unlabeled blocks disagree on column count: "
                f"{features.shape[1]} vs {unlabeled.shape[1]}"
            )
        _check_binary(labels, "labels")
        extended = np.concatenate([features, unlabeled])
        extended.setflags(write=False)
        n_labeled = features.shape[0]
        object.__setattr__(self, "labeled_features", extended[:n_labeled])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unlabeled_features", extended[n_labeled:])
        object.__setattr__(self, "_extended_features", extended)

    @property
    def n_labeled(self):
        return self.labeled_features.shape[0]

    @property
    def n_unlabeled(self):
        return self.unlabeled_features.shape[0]

    @property
    def n_features(self):
        return self.labeled_features.shape[1]

    @property
    def extended_features(self):
        """Row concatenation of the labeled and unlabeled blocks."""
        return self._extended_features

    def extended_targets(self, imputed):
        """Concatenate the known labels with imputed targets for the unlabeled block."""
        imputed = np.asarray(imputed, dtype=float)
        if imputed.shape != (self.n_unlabeled,):
            raise DimensionError(
                f"imputed labels have shape {imputed.shape}, expected ({self.n_unlabeled},)"
            )
        return np.concatenate([self.labels, imputed])


@dataclass(frozen=True)
class ClassEncoding:
    """Numeric codes for the two classes; defaults to 1 and 0.

    Only the responsibility objective and its two gradients take other
    codes. The solvers and oracles fit the known 0/1 labels, so they
    always use the default.
    """

    positive_code: float = 1.0
    negative_code: float = 0.0

    def __post_init__(self):
        if self.positive_code == self.negative_code:
            raise InvalidInputError("class codes must differ")


# The class codes of every solver and oracle: 1 and 0, as for known labels.
_CLASS_CODES = ClassEncoding()


def _check_weights(data, w):
    return _weight_vector(w, data.n_features)


def _weight_vector(w, width, name="weights"):
    """``w`` as a float vector of ``width`` finite entries, called ``name`` when refused."""
    w = np.asarray(w, dtype=float)
    if w.shape != (width,):
        raise DimensionError(f"{name} have shape {w.shape}, expected ({width},)")
    if w.size and not np.all(np.isfinite(w)):
        raise InvalidInputError(f"{name} contain non-finite entries")
    return w


def ridge_operator(features, lam=0.0):
    """The (d, N) matrix ``P`` for which ``P @ t`` minimizes ``||X w - t||^2 + lam * ||w||^2``.

    Every least-squares solve in the package goes through this function.
    The penalty becomes d extra rows ``sqrt(lam) I`` under the design, and
    ``P`` is the first N columns of the pseudo-inverse (SVD) of that
    augmented matrix, so the condition number is never squared. Singular
    values below ``max(rows, d) * eps`` times the largest are dropped.
    With ``lam == 0`` nothing is appended and ``P @ t`` is the
    minimum-norm solution, so rank-deficient designs are accepted.

    A stack of designs, shape (R, N, d), gives the stack (R, d, N) of
    their operators, the penalty rows appended to each matrix; each slice
    has the bits of a lone call on that matrix.
    """
    X = np.asarray(features, dtype=float)
    n, d = X.shape[-2:]
    lam = _check_lam(lam)
    if lam > 0.0:
        penalty = np.broadcast_to(np.sqrt(lam) * np.eye(d), X.shape[:-2] + (d, d))
        X = np.concatenate([X, penalty], axis=-2)
    return np.linalg.pinv(X, rcond=max(X.shape[-2:]) * np.finfo(float).eps)[..., :n]


def ridge_solve(features, targets, lam=0.0):
    """Minimizer of ``||X w - t||^2 + lam * ||w||^2`` for (N, d) ``X`` and (N,) ``t``.

    Returns the (d,) weights ``ridge_operator(X, lam) @ t``.
    """
    X = _as_float_array(features, "features", 2)
    t = _as_float_array(targets, "targets", 1)
    if X.shape[0] < 1:
        raise InvalidInputError("need at least one row to solve")
    if t.shape[0] != X.shape[0]:
        raise DimensionError(f"{t.shape[0]} targets for {X.shape[0]} rows")
    return ridge_operator(X, lam) @ t


def _check_decision_inputs(features, w):
    """``features`` as a finite 2-D float array and ``w`` as a finite vector of its width."""
    X = _as_float_array(features, "features", 2)
    return X, _weight_vector(w, X.shape[1])


def decision_values(features, w):
    """Inner product of every feature row with the weight vector."""
    X, w = _check_decision_inputs(features, w)
    return X @ w


def classify(values):
    """Threshold decision values at 1/2: strictly above maps to class 1.

    A value of exactly 0.5 maps to class 0.
    """
    return _above_threshold(np.asarray(values, dtype=float)).astype(float)


def _above_threshold(values):
    """``values > 0.5`` as booleans; raises on a non-finite decision value."""
    if values.size and not np.all(np.isfinite(values)):
        raise InvalidInputError("decision values contain non-finite entries")
    return values > 0.5


def supervised_objective(data, w, lam=0.0):
    """Squared error on the labeled block plus the ridge penalty."""
    w = _check_weights(data, w)
    lam = _check_lam(lam)
    return float(_squared_objective(data.labeled_features @ w - data.labels, w, lam))


def _row_dots(a):
    """``a @ a`` over the last axis: a scalar for a vector, one value per row of a block.

    The package's one sum over rows: every objective and witness sums
    through it. ``einsum`` sums in an order that BLAS does not thread, so
    no value depends on the BLAS thread count. A row of a block gets its
    lone bits if it has at most 8,192 entries, numpy's ``einsum`` buffer;
    on a block of two or more rows a longer row is summed in pieces.
    One-row blocks and vectors of any length match, so the block caps
    ``selflearn._BLOCK_ELEMENTS`` and ``experiments._BLOCK_DESIGN_ENTRIES``
    give a design of more than 8,192 rows one row per block.
    """
    return np.einsum("...i,...i->...", a, a)


def _squared_objective(residual, w, lam):
    """``||residual||^2 + lam * ||w||^2``, per row for (S, N) residuals and (S, d) weights."""
    return _add_penalty(_row_dots(residual), w, lam)


def _add_penalty(value, w, lam):
    # Adding 0 * ||w||^2 would not change a bit, so lam == 0 skips it.
    return value + lam * _row_dots(w) if lam else value


def label_objective(data, w, u, lam=0.0):
    """Squared error over both blocks with imputed targets ``u`` for the unlabeled one."""
    w = _check_weights(data, w)
    lam = _check_lam(lam)
    return float(
        _squared_objective(data.extended_features @ w - data.extended_targets(u), w, lam)
    )


def _check_responsibilities(data, q):
    q = np.asarray(q, dtype=float)
    if q.shape != (data.n_unlabeled,):
        raise DimensionError(
            f"responsibilities have shape {q.shape}, expected ({data.n_unlabeled},)"
        )
    if q.size and (np.any(q < 0.0) or np.any(q > 1.0)):
        raise InvalidInputError("responsibilities must lie in [0, 1]")
    return q


def responsibility_objective(data, w, q, encoding=_CLASS_CODES, lam=0.0):
    """Labeled squared error plus a q-weighted mix of the two class losses.

    Each unlabeled point contributes ``q * (s - m)^2 + (1 - q) * (s - n)^2``
    where ``s`` is its decision value and ``(m, n)`` are the class codes.
    For binary ``q`` this equals ``label_objective`` with ``u = q``.
    """
    w = _check_weights(data, w)
    q = _check_responsibilities(data, q)
    lam = _check_lam(lam)
    labeled_residual = data.labeled_features @ w - data.labels
    scores = data.unlabeled_features @ w
    return float(_responsibility_value(labeled_residual, scores, q, w, encoding, lam))


def _responsibility_value(labeled_residual, scores, q, w, encoding, lam):
    """Responsibility objective from labeled residuals and unlabeled decision values.

    Works per row on blocks as ``_squared_objective`` does. The terms are
    summed in a fixed order (labeled error, penalty, then the per-point
    mix) so every caller gets the same bits.
    """
    m, n = encoding.positive_code, encoding.negative_code
    mix = np.sum(q * (scores - m) ** 2 + (1.0 - q) * (scores - n) ** 2, axis=-1)
    return _add_penalty(_row_dots(labeled_residual), w, lam) + mix


def grad_label_objective_u(data, w, u):
    """Gradient of ``label_objective`` in the imputed labels: ``-2 (X_u w - u)``."""
    w = _check_weights(data, w)
    u = np.asarray(u, dtype=float)
    if u.shape != (data.n_unlabeled,):
        raise DimensionError(f"imputed labels have shape {u.shape}, expected ({data.n_unlabeled},)")
    return -2.0 * (data.unlabeled_features @ w - u)


def grad_label_objective_w(data, w, u, lam=0.0):
    """Gradient of ``label_objective`` in the weights."""
    w = _check_weights(data, w)
    lam = _check_lam(lam)
    extended = data.extended_features
    residual = extended @ w - data.extended_targets(u)
    return 2.0 * (extended.T @ residual) + 2.0 * lam * w


def grad_responsibility_objective_q(data, w, encoding=_CLASS_CODES):
    """Per-point gradient of ``responsibility_objective`` in ``q``.

    The objective is linear in ``q``; entry i equals
    ``m^2 - n^2 - 2 (m - n) x_i.w``, which under (1, 0) encoding reduces
    to ``-2 (x_i.w - 0.5)``.
    """
    w = _check_weights(data, w)
    m, n = encoding.positive_code, encoding.negative_code
    s = data.unlabeled_features @ w
    return (m * m - n * n) - 2.0 * (m - n) * s


def grad_responsibility_objective_w(data, w, q, encoding=_CLASS_CODES, lam=0.0):
    """Gradient of ``responsibility_objective`` in the weights.

    The unlabeled pull enters through the per-point target
    ``q (m - n) + n``, applied via the transposed unlabeled design matrix.
    """
    w = _check_weights(data, w)
    q = _check_responsibilities(data, q)
    lam = _check_lam(lam)
    extended = data.extended_features
    m, n = encoding.positive_code, encoding.negative_code
    pulled = n + q * (m - n)
    return (
        2.0 * (extended.T @ (extended @ w))
        - 2.0 * (data.labeled_features.T @ data.labels)
        - 2.0 * (data.unlabeled_features.T @ pulled)
        + 2.0 * lam * w
    )
