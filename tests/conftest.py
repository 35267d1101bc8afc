"""Shared fixtures and independent oracle helpers.

The helpers here deliberately avoid the library's own code paths: the
ridge oracle goes through explicitly formed normal equations, gradients
and Hessians come from central finite differences, and the exhaustive
minimum uses plain itertools enumeration. Tests compare the library
against these. Nine helpers are frozen copies of earlier library code:
``chunked_gemm_hard_minimum``, the batched enumeration the oracle used
before its meet-in-the-middle search, kept to pin the search at sizes the
plain loop cannot reach; ``rowwise_load_csv``, the row-by-row CSV loader
that preceded the columnar one, kept to pin its arrays and errors;
``pairwise_count_unique_optima``, the clustering that built all pairwise
differences at once, kept to pin the blocked one's counts and ids; and
``rowwise_write_csv``, the report writer that formatted one field at a
time before the columnar one, kept to pin its bytes;
``rowwise_save_csv``, the dataset writer that wrote through
``csv.writer`` a row at a time before ``save_csv`` wrote through the
columnar writer, kept to pin its bytes; ``allocating_run_descent``,
the lock-step descent loop that built new (starts, N) arrays every round
before the loop wrote its rounds into per-block buffers, kept to pin
its finals and per-round path; ``unpruned_hard_minimum``, the
meet-in-the-middle search that scored every block of sums in order
before the search skipped blocks by their lower bounds, kept to pin the
pruned search's labels, weights and objective;
``dense_responsibility_witness``, the responsibility witness's
direction, its sums rounded as the package rounds them, with the value
read off the dense (d+U)^2 Hessian, kept to pin the block form's
direction and to check its value;
and ``tiled_grid_soft_minimum``, the soft grid search that solved every
grid point's targets before the search scored its points from the label
columns, kept to pin the chosen point and objective.
``lone_learning_curve`` is the learning curve run one split and one lone
fit at a time, the reference its stacked runner and report are pinned to.
"""

import csv
import itertools
import math
from itertools import compress

import numpy as np
import pytest

from sslsq import (
    ClassEncoding,
    Dataset,
    HessianKind,
    build_hessian,
    evaluate_error,
    fit_hard,
    fit_soft,
    label_objective,
    responsibility_objective,
    ridge_operator,
    ridge_solve,
    sample_learning_curve_split,
    supervised_objective,
    update_weights,
)
from sslsq.datagen import derive_rng
from sslsq.diagnostics import _grid_axis
from sslsq.experiments import METHODS
from sslsq.errors import DimensionError, InvalidInputError, ParseError, SchemaError
from sslsq.model import _row_dots, _squared_objective
from sslsq.selflearn import StopReason, _Finals


def make_dataset(rng, n_labeled=8, n_unlabeled=5, n_features=3):
    """Random dense dataset with both classes present when possible."""
    labeled = rng.standard_normal((n_labeled, n_features))
    labels = (rng.random(n_labeled) < 0.5).astype(float)
    if n_labeled >= 2:
        labels[0], labels[1] = 0.0, 1.0
    unlabeled = rng.standard_normal((n_unlabeled, n_features))
    return Dataset(labeled, labels, unlabeled)


def scaled_collinear_data(seed):
    """Ill-conditioned dataset: two near-collinear columns scaled by 1e6, U = 12."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(20)
    noise = rng.standard_normal(20)
    X = np.column_stack([1e6 * x, 1e6 * (x + 1e-4 * noise), np.ones(20)])
    return Dataset(X[:8], np.tile([0.0, 1.0], 4), X[8:])


def normal_equation_ridge(features, targets, lam):
    """Independent ridge solve via explicitly assembled normal equations."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    gram = X.T @ X + lam * np.eye(X.shape[1])
    return np.linalg.solve(gram, X.T @ y)


def central_gradient(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = step
        grad[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * step)
    return grad


def central_hessian(fn, x, step=1e-4):
    """Central finite-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hessian = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            hessian[i, j] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * step * step)
    return hessian


def exhaustive_hard_minimum(data, lam, objective, solve):
    """Plain-loop enumeration of all binary labelings (independent oracle)."""
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=data.n_unlabeled):
        q = np.array(bits)
        w = solve(data, q, lam)
        value = objective(data, w, q, lam)
        if best is None or value < best[2]:
            best = (q, w, value)
    return best


def chunked_gemm_hard_minimum(data, lam, encoding=ClassEncoding(), chunk=4096):
    """The earlier oracle: weights and objective of all 2^U labelings by chunked GEMMs.

    Returns ``(labels, weights, objective)`` with ties to the
    lexicographically smallest labeling; the objective is recomputed
    with ``responsibility_objective`` at the winning GEMM weights.
    """
    operator = ridge_operator(data.extended_features, lam)
    labeled = data.labeled_features
    unlabeled = data.unlabeled_features
    y = data.labels
    m, n = encoding.positive_code, encoding.negative_code
    shifts = np.arange(data.n_unlabeled - 1, -1, -1, dtype=np.int64)
    best_objective = np.inf
    best_index = -1
    best_weights = None
    total = 1 << data.n_unlabeled
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
    objective = responsibility_objective(data, best_weights, labels, encoding, lam)
    return labels, best_weights, objective


def _rowwise_label(token, row_number):
    token = token.strip()
    if token == "":
        return None
    try:
        value = float(token)
    except ValueError:
        raise SchemaError(
            f"row {row_number}: label {token!r} is neither 0, 1 nor empty", row=row_number
        ) from None
    if value not in (0.0, 1.0):
        raise SchemaError(
            f"row {row_number}: label value {value} outside {{0, 1}}", row=row_number
        )
    return value


def rowwise_load_csv(path, intercept=True):
    """The earlier loader: ``csv.reader`` rows parsed one field at a time.

    Returns ``(dataset, unlabeled_truth_or_None)`` and raises the first
    error in row order, as ``sslsq.load_csv`` must. It reads the file
    through a strict UTF-8 text stream, so an undecodable byte raises
    ``UnicodeDecodeError`` here. It reads a repeated ``label`` or
    ``true_label`` header column as a feature, which ``load_csv`` refuses.
    It keeps a leading byte-order mark in the first header name, which
    ``load_csv`` drops.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: file is empty")

    header = [name.strip() for name in rows[0]]
    body = rows[1:]
    if "label" not in header:
        raise SchemaError(f"{path}: missing label column 'label'")
    label_index = header.index("label")
    truth_index = header.index("true_label") if "true_label" in header else None
    width = len(rows[0])
    feature_indices = [
        i for i in range(width) if i != label_index and (truth_index is None or i != truth_index)
    ]
    if not body:
        raise SchemaError(f"{path}: no data rows")

    labeled_rows, labels = [], []
    unlabeled_rows, truth = [], []
    for row_number, row in enumerate(body, start=1):
        if len(row) != width:
            raise ParseError(
                f"row {row_number}: expected {width} fields, found {len(row)}",
                row=row_number,
            )
        features = np.empty(len(feature_indices))
        for j, column in enumerate(feature_indices):
            token = row[column].strip()
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"row {row_number}, column {column + 1}: "
                    f"cannot parse {token!r} as a finite number",
                    row=row_number,
                    column=column + 1,
                )
            features[j] = value
        label = _rowwise_label(row[label_index], row_number)
        if label is None:
            unlabeled_rows.append(features)
            if truth_index is not None:
                true_token = row[truth_index].strip()
                try:
                    true_value = float(true_token)
                except ValueError:
                    raise SchemaError(
                        f"row {row_number}: true_label {true_token!r} is not a number",
                        row=row_number,
                    ) from None
                if true_value not in (0.0, 1.0):
                    raise SchemaError(
                        f"row {row_number}: true_label value {true_value} outside {{0, 1}}",
                        row=row_number,
                    )
                truth.append(true_value)
        else:
            labeled_rows.append(features)
            labels.append(label)

    if not labeled_rows:
        raise InvalidInputError(f"{path}: no labeled rows")
    labeled = np.array(labeled_rows)
    unlabeled = np.array(unlabeled_rows) if unlabeled_rows else np.empty((0, labeled.shape[1]))

    if intercept:
        labeled = np.hstack([labeled, np.ones((labeled.shape[0], 1))])
        unlabeled = np.hstack([unlabeled, np.ones((unlabeled.shape[0], 1))])

    dataset = Dataset(labeled, np.array(labels), unlabeled)
    unlabeled_truth = np.array(truth) if truth_index is not None else None
    return dataset, unlabeled_truth


def pairwise_count_unique_optima(finals, rel_tolerance=1e-4):
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


def _rowwise_field(value):
    if type(value) is float:
        return "" if math.isnan(value) else repr(value)
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def rowwise_write_csv(path, header, rows):
    """The earlier report writer: one ``_fmt`` call per field, one write per row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(_rowwise_field, row)) + "\n")


def _format_number(value):
    return repr(float(value))


def rowwise_save_csv(path, data, unlabeled_truth=None, intercept=True):
    """The earlier ``save_csv``: ``csv.writer``, one row at a time."""
    features_l = data.labeled_features
    features_u = data.unlabeled_features
    if intercept:
        trailing = np.concatenate([features_l[:, -1], features_u[:, -1]])
        if not np.all(trailing == 1.0):
            raise InvalidInputError("last column is not a constant intercept column")
        features_l = features_l[:, :-1]
        features_u = features_u[:, :-1]
    if unlabeled_truth is not None:
        unlabeled_truth = np.asarray(unlabeled_truth, dtype=float)
        if unlabeled_truth.shape != (data.n_unlabeled,):
            raise DimensionError(
                f"truth has shape {unlabeled_truth.shape}, expected ({data.n_unlabeled},)"
            )

    width = features_l.shape[1]
    header = [f"x{i}" for i in range(width)] + ["label"]
    if unlabeled_truth is not None:
        header.append("true_label")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row, label in zip(features_l, data.labels):
            record = [_format_number(v) for v in row] + [_format_number(label)]
            if unlabeled_truth is not None:
                record.append(_format_number(label))
            writer.writerow(record)
        for i, row in enumerate(features_u):
            record = [_format_number(v) for v in row] + [""]
            if unlabeled_truth is not None:
                record.append(_format_number(unlabeled_truth[i]))
            writer.writerow(record)


# The helpers of ``allocating_run_descent``, frozen with it.


def _by_rows(block, matrix):
    """``block @ matrix`` as one BLAS matrix-vector product per row.

    ``matrix`` is either shared by every row or a stack with one matrix
    per row. A row then gets the bits it would get alone, which a
    matrix-matrix product does not promise, so a start's path does not
    depend on the starts it runs with.
    """
    return (block[:, None, :] @ matrix)[:, 0, :]


def _soft_labels(scores):
    return np.minimum(np.maximum(scores, 0.0), 1.0)


def _hard_labels(scores):
    return np.where(scores > 0.5, 1.0, 0.0)


def allocating_run_descent(config, known, design, solve, starts, lam, hard, path=None):
    """Advance a block of starts in lock-step until each one stops.

    ``starts`` is an (S, d) array, one starting weight vector per row.
    The starts share one problem, given as the known labels ``known``
    (L,), the stacked design ``design`` (N, d) and its ridge operator
    ``solve`` (d, N), or each start has its own: ``known`` (S, L),
    ``design`` (S, N, d) and ``solve`` (S, d, N). ``hard`` picks the
    solver: 0/1 responsibilities or clamped decision values, each
    scored by the squared objective with ridge penalty ``lam``. Every
    round imputes the labels of all working starts from their decision
    values, re-fits their weights with one product with the ridge
    operator, and takes their objectives and next decision values from
    one product with the design. A start leaves the block, with its rows of any per-start
    stack, in the round it stops: on stable labels (hard), on the
    relative objective decrease (soft) or at ``max_iterations``. With
    no unlabeled rows (N == L), round 0 is the supervised fit, and every
    start leaves after it with the solver's converged stop reason, even
    at ``max_iterations=1``. Returns the ``_Finals`` of the starts, in
    order. Nothing is kept per round unless ``path`` is a list: it then
    receives every round's working block as (start ids, weights,
    objectives), which ``_start_results`` splits into traces.
    """
    n_labeled = known.shape[-1]
    settled = design.shape[-2] == n_labeled  # no unlabeled rows
    per_start = design.ndim == 3
    tolerance = config.objective_tolerance
    count = len(starts)
    active = np.arange(count)
    if not per_start:
        known = known[None, :].repeat(count, axis=0)
    operator_t, design_t = solve.swapaxes(-1, -2), design.swapaxes(-1, -2)
    scores = _by_rows(starts, design_t[..., n_labeled:])
    finals = _Finals(
        weights=np.empty(starts.shape),
        objectives=np.empty(count),
        labels=np.empty(scores.shape),
        reasons=[None] * count,
        rounds=np.empty(count, dtype=int),
    )
    labels = W = values = previous = None

    def leave(mask, reason, rounds_run):
        # The last round's rows of the leaving starts; fancy indexing copies.
        ids = active[mask]
        finals.weights[ids] = W[mask]
        finals.objectives[ids] = np.compress(mask, values)
        finals.labels[ids] = labels[mask]
        finals.rounds[ids] = rounds_run
        for i in ids.tolist():
            finals.reasons[i] = reason

    def shrink(keep):
        nonlocal active, known, solve, design, operator_t, design_t
        active = active[keep]
        if per_start:
            # Transpose after the copy, so each slice keeps the strides,
            # and with them the BLAS call, of a lone fit's operator.
            known, solve, design = known[keep], solve[keep], design[keep]
            operator_t, design_t = solve.swapaxes(1, 2), design.swapaxes(1, 2)
        else:
            known = known[: active.size]

    for iteration in range(config.max_iterations):
        candidate = _hard_labels(scores) if hard else _soft_labels(scores)
        if hard and labels is not None:
            stable = (candidate == labels).all(axis=1)
            stopped = np.count_nonzero(stable)
            if stopped:
                leave(stable, StopReason.LABELS_STABLE, iteration)
                if stopped == active.size:
                    break
                keep = ~stable
                shrink(keep)
                candidate = candidate[keep]
        labels = candidate
        targets = np.concatenate((known, labels), axis=1)
        W = _by_rows(targets, operator_t)
        fitted = _by_rows(W, design_t)
        # The targets are spent once W is known, so the residual overwrites them.
        residual = np.subtract(fitted, targets, out=targets)
        values = _squared_objective(residual, W, lam)
        # Python floats: a trace stores them, and on a one-start block
        # the stop test costs less in Python than in numpy calls.
        values = values.tolist()
        if path is not None:
            path.append((active, W, values))
        if settled:
            reason = StopReason.LABELS_STABLE if hard else StopReason.OBJECTIVE_TOLERANCE
            leave(np.ones(active.size, dtype=bool), reason, 1)
            break
        if not hard and previous is not None:
            done = [p - v <= tolerance * (1.0 + abs(p)) for p, v in zip(previous, values)]
            stopped = done.count(True)
            if stopped:
                done = np.array(done)
                leave(done, StopReason.OBJECTIVE_TOLERANCE, iteration + 1)
                if stopped == active.size:
                    break
                keep = ~done
                shrink(keep)
                labels, fitted, W = labels[keep], fitted[keep], W[keep]
                values = list(compress(values, keep))
        previous = values
        scores = fitted[:, n_labeled:]
    else:  # the round cap stops every start still working
        leave(np.ones(active.size, dtype=bool), StopReason.MAX_ITERATIONS, config.max_iterations)
    return finals



# The helpers of ``unpruned_hard_minimum``, frozen with it.
# ``_reduced_quadratic`` is the (N, N) matrix the oracles read before they
# read the U label columns; the grid slack is also pinned against it.


def _reduced_quadratic(extended, operator, lam):
    fitted = extended @ operator - np.eye(extended.shape[0])
    reduced = fitted.T @ fitted
    if lam > 0.0:
        reduced = reduced + lam * (operator.T @ operator)
    return reduced


def _bit_rows(count):
    shifts = np.arange(count - 1, -1, -1, dtype=np.int64)
    return ((np.arange(1 << count, dtype=np.int64)[:, None] >> shifts) & 1).astype(float)


def _half_table(constant, linear, quadratic, bits):
    return constant + 2.0 * (bits @ linear) + np.einsum("ij,ij->i", bits @ quadratic, bits)


def _rescored(data, operator, labels, lam):
    w = operator @ np.concatenate([data.labels, labels])
    return labels, w, label_objective(data, w, labels, lam)


def unpruned_hard_minimum(data, lam=0.0, chunk=4096):
    """The earlier meet-in-the-middle search, which scored every block of sums.

    Returns ``(labels, weights, objective)``. The blocks of about
    ``chunk`` labelings are scored in row order, every labeling within
    the rounding slack of the running minimum is kept, and the kept
    labelings are rescored in lexicographic order.
    """
    unlabeled_count = data.n_unlabeled
    extended = data.extended_features
    operator = ridge_operator(extended, lam)
    reduced = _reduced_quadratic(extended, operator, lam)
    y = data.labels
    noise = 1024 * np.finfo(float).eps * np.linalg.norm(extended) * np.linalg.norm(operator)
    free = np.flatnonzero(np.diagonal(reduced)[data.n_labeled :] > noise * noise)
    base = np.concatenate([y, np.zeros(unlabeled_count)])
    tail = reduced[data.n_labeled + free]
    constant = float(base @ (reduced @ base))
    linear = tail @ base
    quadratic = tail[:, data.n_labeled + free]

    high = len(free) // 2
    high_bits, low_bits = _bit_rows(high), _bit_rows(len(free) - high)
    row_values = _half_table(constant, linear[:high], quadratic[:high, :high], high_bits)
    column_values = _half_table(0.0, linear[high:], quadratic[high:, high:], low_bits)
    cross = 2.0 * (high_bits @ quadratic[:high, high:])
    scale = abs(constant) + 2.0 * np.sum(np.abs(linear)) + np.sum(np.abs(quadratic))
    slack = 1024 * len(free) * np.finfo(float).eps * scale

    width = len(column_values)
    rows = max(1, chunk // width)
    best = np.inf
    kept = np.zeros(0, dtype=np.int64)
    kept_values = np.zeros(0)
    for first in range(0, len(row_values), rows):
        block = slice(first, first + rows)
        values = row_values[block, None] + column_values[None, :] + cross[block] @ low_bits.T
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
    for index in kept:
        row, column = divmod(int(index), width)
        labels = np.zeros(unlabeled_count)
        labels[free] = np.concatenate([high_bits[row], low_bits[column]])
        candidate = _rescored(data, operator, labels, lam)
        if result is None or candidate[2] < result[2]:
            result = candidate
    return result


def dense_responsibility_witness(data, lam=0.0):
    """The responsibility witness's ``(z1, z2, z'Hz)``, with ``z'Hz`` read off the dense Hessian.

    The direction's two sums, ``z1'A z1 = 2 (|X_e z1|^2 + lam |z1|^2)`` and
    ``|X_u z1|^2``, go through the package's one sum rule, ``_row_dots``,
    so ``z2`` has the package's bits; ``z'Hz`` is the dense product.
    """
    H = build_hessian(data, HessianKind.RESPONSIBILITY_BASED, lam).matrix
    unlabeled = data.unlabeled_features
    row_norms = np.einsum("ij,ij->i", unlabeled, unlabeled)
    z1 = unlabeled[int(np.argmax(row_norms))].copy()
    pushed = unlabeled @ z1
    leading = float(2.0 * _squared_objective(data.extended_features @ z1, z1, lam))
    threshold = leading / (4.0 * float(_row_dots(pushed)))
    z2 = 2.0 * threshold * pushed
    z = np.concatenate([z1, z2])
    return z1, z2, float(z @ (H @ z))


def tiled_grid_soft_minimum(data, lam=0.0, step=0.05):
    """The earlier soft grid search, which solved every point's (N,) targets at once.

    Returns ``(soft_labels, weights, objective)``. The targets of all grid
    points are one (points, N) matrix, their weights one product with the
    ridge operator, and each point is scored by its residuals.
    """
    axis = _grid_axis(step)
    if data.n_unlabeled == 0:
        w = update_weights(data, np.zeros(0), lam)
        return np.zeros(0), w, supervised_objective(data, w, lam)

    grids = np.meshgrid(*([axis] * data.n_unlabeled), indexing="ij")
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
    return u, w, label_objective(data, w, u, lam)


def lone_learning_curve(pool, labeled, u_values, repeats, lam, seed, config):
    """The learning curve from one lone split, solve and fit per repeat and count.

    Returns the (repeats, counts, methods) errors, NaN where a split has
    no test rows, the partition hashes by repeat and count, the test
    sizes by count and every soft and hard fit.
    """
    errors = np.full((repeats, len(u_values), len(METHODS)), np.nan)
    hashes = [[None] * len(u_values) for _ in range(repeats)]
    test_sizes, fits = [None] * len(u_values), []
    for repeat in range(repeats):
        for u_index, u in enumerate(u_values):
            split = sample_learning_curve_split(pool, labeled, u,
                                                derive_rng(seed, repeat, u_index))
            train = split.train
            soft, hard = fit_soft(train, lam, config), fit_hard(train, lam, config=config)
            weights = {
                "supervised": ridge_solve(train.labeled_features, train.labels, lam),
                "soft": soft.weights,
                "hard": hard.weights,
                "oracle": ridge_solve(
                    np.vstack([train.labeled_features, train.unlabeled_features]),
                    np.concatenate([train.labels, split.unlabeled_truth]), lam),
            }
            fits += [soft, hard]
            if split.has_test:
                errors[repeat, u_index] = [
                    evaluate_error(weights[method], split.test_features, split.test_labels)
                    for method in METHODS
                ]
            hashes[repeat][u_index] = split.partition_hash
            test_sizes[u_index] = int(split.test_labels.size)
    return errors, hashes, test_sizes, fits


def column_aggregates(errors):
    """The (count, method) means, standard errors and repeats used of the
    (repeats, counts, methods) ``errors``, taken one column at a time over
    its non-NaN cells; a mean of no cells, and a standard error of fewer
    than two, is NaN."""
    shape = errors.shape[1:]
    means, std_errors = np.full(shape, np.nan), np.full(shape, np.nan)
    used = np.zeros(shape, dtype=int)
    for k, m in np.ndindex(shape):
        column = [e for e in errors[:, k, m].tolist() if not np.isnan(e)]
        used[k, m] = len(column)
        if column:
            means[k, m] = np.mean(column)
        if len(column) > 1:
            std_errors[k, m] = np.std(column, ddof=1) / np.sqrt(len(column))
    return means, std_errors, used

def relative_error(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 0.0)
    return float(np.max(np.abs(actual - expected))) / scale if actual.size else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
