"""Block coordinate descent solvers for the two self-learning objectives.

Both solvers alternate exact block updates: impute targets for the
unlabeled block from the current weights, then re-fit the weights by the
closed-form ridge solve on the extended system, through one ridge
operator built per fit. Each half-step minimizes its block exactly, so
the objective never increases. The soft variant imputes clamped
decision values and stops on a relative objective decrease; the hard
variant imputes 0/1 responsibilities and stops when they no longer
change between rounds.

One descent loop serves every fit. It advances a block of starts in
lock-step, one row of weights per start; ``fit_starts`` hands it many
starts on one dataset, and ``fit_soft``/``fit_hard`` are its one-start
case. Those fits keep every round for their traces. The learning curve
hands it a stack of same-shape problems, one supervised start per
problem and solver, through ``_fit_stack``, which keeps only each fit's
final weights, objective, stop reason and round count. A fit with no
unlabeled rows takes the same loop: it runs one round, the supervised
fit, and stops with the solver's converged stop reason. Every
objective here sums through ``model._row_dots``, which BLAS does not thread.

``minimize_soft`` reaches the soft objective's minimum by another road.
With the soft labels eliminated the objective is the convex, piecewise
quadratic g(w) = ||X_l w - y||^2 + lam ||w||^2 + sum_u dist(x_i.w, [0, 1])^2,
and an active-set (semismooth) Newton method minimizes it exactly with
one ridge solve per clamped set it visits, where BCD converges only at
the rate of the missing information.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .model import (
    _add_penalty,
    _check_count,
    _check_lam,
    _check_weights,
    _row_dots,
    _squared_objective,
    _weight_vector,
    ridge_operator,
    ridge_solve,
)

__all__ = [
    "FitResult",
    "FitTrace",
    "SolverConfig",
    "StopReason",
    "TraceRecord",
    "fit_hard",
    "fit_soft",
    "fit_starts",
    "minimize_soft",
    "update_hard_labels",
    "update_soft_labels",
    "update_weights",
]

class StopReason(enum.Enum):
    """Why a fit stopped; every reason but MAX_ITERATIONS means it converged.

    LABELS_STABLE: hard BCD's next round would impute the same labels.
    OBJECTIVE_TOLERANCE: soft BCD's relative objective decrease fell to
    the tolerance. MAX_ITERATIONS: the round cap. CLAMPED_SET_STABLE:
    ``minimize_soft``'s next round would repeat its last one, at g's
    minimum.
    """

    LABELS_STABLE = "labels-stable"
    OBJECTIVE_TOLERANCE = "objective-tolerance"
    MAX_ITERATIONS = "max-iterations"
    CLAMPED_SET_STABLE = "clamped-set-stable"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping rule.

    The soft solver stops on a relative objective decrease below
    ``objective_tolerance``, the hard solver when a round's weights would
    impute the labels they were fitted on; each tests after every round,
    the last allowed one too. A fit still working after
    ``max_iterations`` rounds stops with MAX_ITERATIONS. For
    ``minimize_soft`` a round is one Newton step, and
    ``objective_tolerance`` is unused.
    """

    max_iterations: int = 1000
    objective_tolerance: float = 1e-10

    def __post_init__(self):
        _check_count(self.max_iterations, "max_iterations", minimum=1)
        # Written so that a NaN tolerance, which no decrease would ever meet, fails too.
        if not self.objective_tolerance >= 0.0:
            raise InvalidInputError(
                f"objective_tolerance must be nonnegative, not {self.objective_tolerance!r}"
            )


@dataclass(frozen=True)
class TraceRecord:
    """One descent round: its index, the re-fitted weights and the objective.

    Only the final record carries the round's imputed labels (the same
    array as ``FitResult.imputed``); every earlier record holds an empty
    array.
    """

    iteration: int
    weights: np.ndarray
    labels: np.ndarray
    objective: float


# Shared by every trace record but the last, which holds the imputed labels.
_NO_LABELS = np.zeros(0)
_NO_LABELS.setflags(write=False)

# A run longer than this many rounds keeps every tenth round and the last.
_TRACE_LIMIT = 10_000


@dataclass
class FitTrace:
    """Per-round weights and objectives of a fit; objectives are non-increasing.

    Entry k of ``rounds`` and ``objectives`` and row k of ``weight_path``
    describe one kept round. A run longer than 10,000 rounds (the fixed
    ``_TRACE_LIMIT``) keeps every tenth round and the last one.
    ``final_labels`` are the last round's imputed labels, so a trace
    costs O(rounds * d + U) memory.
    """

    rounds: np.ndarray
    weight_path: np.ndarray
    objectives: np.ndarray
    final_labels: np.ndarray
    stop_reason: StopReason

    @property
    def converged(self):
        """True unless the run stopped at the round cap."""
        return self.stop_reason is not StopReason.MAX_ITERATIONS

    @property
    def records(self):
        """The kept rounds as ``TraceRecord``s; only the last one carries labels."""
        records = list(
            map(
                TraceRecord,
                self.rounds.tolist(),
                self.weight_path,
                repeat(_NO_LABELS),
                self.objectives.tolist(),
            )
        )
        last = records[-1]
        records[-1] = TraceRecord(last.iteration, last.weights, self.final_labels, last.objective)
        return records


@dataclass
class FitResult:
    weights: np.ndarray
    imputed: np.ndarray
    final_objective: float
    trace: FitTrace

    @property
    def iterations(self):
        """Rounds run; a thinned trace keeps the last round."""
        return int(self.trace.rounds[-1]) + 1


def update_soft_labels(data, w):
    """Imputed soft labels: decision values clamped to [0, 1].

    Values below 0 map to 0, values above 1 map to 1, and anything in
    between is kept as is (the unconstrained per-point minimizer).
    """
    return np.clip(data.unlabeled_features @ _check_weights(data, w), 0.0, 1.0)


def update_hard_labels(data, w):
    """Imputed responsibilities: 1 where the decision value exceeds 0.5, else 0.

    With class codes 1 and 0 that is where the responsibility objective
    decreases in q. A value of exactly 0.5 gets 0, matching ``classify``.
    """
    return np.where(data.unlabeled_features @ _check_weights(data, w) > 0.5, 1.0, 0.0)


def update_weights(data, imputed, lam=0.0):
    """Ridge solve on the extended system with targets ``[labels; imputed]``."""
    targets = data.extended_targets(imputed)
    return ridge_solve(data.extended_features, targets, lam)


# Starts run in blocks of at most this many (start, design row) entries.
# A block keeps three such (starts, N) buffers, its targets, fitted values
# and residuals, so the cap bounds its memory whatever the number of
# starts, and at 128 KiB per buffer a round stays in a per-core cache.
# On a 2-vCPU x86-64 machine with OpenBLAS, 101 starts over a 416-row
# design ran the studies about 15% faster in blocks of 39 than in one
# block, and raised peak RSS by 1.4 MB, not 4.5. It gives a design of
# more than 8,192 rows one start per block, as ``model._row_dots`` needs.
_BLOCK_ELEMENTS = 16384


class _Finals(NamedTuple):
    """How each start of a lock-step descent ended, one row or entry per start.

    ``weights`` (S, d) and ``objectives`` (S,) are the start's last
    round's, ``labels`` (S, U) that round's imputed labels, ``reasons``
    its ``StopReason``s and ``rounds`` (S,) the number of rounds it ran.
    """

    weights: np.ndarray
    objectives: np.ndarray
    labels: np.ndarray
    reasons: list
    rounds: np.ndarray


def _run_descent(config, known, design, solve, starts, lam, hard, path=None):
    """Advance a block of starts in lock-step until each one stops.

    ``starts`` is an (S, d) array, one starting weight vector per row.
    The starts share one problem, given as the known labels ``known``
    (L,), the stacked design ``design`` (N, d) and its ridge operator
    ``solve`` (d, N), or each start has its own: ``known`` (S, L),
    ``design`` (S, N, d) and ``solve`` (S, d, N). ``hard`` picks the
    solver's imputation: 0/1 responsibilities or clamped decision
    values. Both solvers score a round by the squared objective
    ``||X_e w - t||^2 + lam ||w||^2`` at its targets ``t``, which at 0/1
    targets is the responsibility objective. Every round imputes the
    labels of all working starts from their decision values, re-fits
    their weights with one product with the ridge operator, and takes
    their objectives and next decision values from one product with the
    design. Each round ends in one stop test, and a start leaves the
    block, with its rows of any per-start stack, in the round it passes
    it: the next round would impute the labels this one did (hard), or
    the relative objective decrease is within ``objective_tolerance``
    (soft). A start that passes it in round ``max_iterations - 1`` stops
    with its converged reason like any other; the starts still working
    after that round stop at the cap. With no unlabeled rows (N == L),
    round 0 is the supervised fit, and every start passes the test after
    it. Returns the ``_Finals`` of the starts, in order. Nothing is kept
    per round unless ``path`` is a list: it then receives the working
    block of every round a trace keeps as (round, start ids, weights,
    objectives), which ``_start_results`` splits into traces. Past
    ``_TRACE_LIMIT`` rounds only every tenth round is kept, and the starts
    still working then drop their earlier rounds that are not multiples
    of 10, so a run's path holds at most about ``_TRACE_LIMIT`` rounds
    while it runs. A start's last round, if not kept, is in the
    ``_Finals``.

    The rounds write into buffers allocated once per block: the (S, N)
    targets, whose first L columns hold the known labels and the rest
    the imputed ones, fitted values and residuals. The working starts own
    the leading rows, which move up when starts leave. Only the weights
    are new every round, as ``path`` keeps them.
    Every round calls numpy's products directly on (S, 1, N) row views of
    the buffers, rebuilt after each departure: one BLAS matrix-vector call
    per row, which a matrix-matrix product does not promise. Each
    objective is one ``model._row_dots`` pass per row. So a row gets the
    bits it would get alone, whatever starts it runs with.
    """
    n_labeled = known.shape[-1]
    per_start = design.ndim == 3
    tolerance = config.objective_tolerance
    count = len(starts)
    active = np.arange(count)
    operator_t, design_t = solve.swapaxes(-1, -2), design.swapaxes(-1, -2)
    # The round buffers; each name holds the working starts' leading rows.
    targets = np.empty((count, design.shape[-2]))
    targets[:, :n_labeled] = known
    fitted = np.empty_like(targets)
    residual = np.empty_like(targets)
    n_unlabeled = targets.shape[1] - n_labeled

    def views():
        # The working rows' label and score columns and the products' 3-D operands.
        nonlocal labels, scores, targets3, fitted3
        labels, scores = targets[:, n_labeled:], fitted[:, n_labeled:]
        targets3, fitted3 = targets[:, None, :], fitted[:, None, :]

    labels = scores = targets3 = fitted3 = None
    views()
    np.matmul(starts[:, None, :], design_t[..., n_labeled:], out=scores[:, None, :])
    finals = _Finals(
        weights=np.empty(starts.shape),
        objectives=np.empty(count),
        labels=np.empty((count, n_unlabeled)),
        reasons=[None] * count,
        rounds=np.empty(count, dtype=int),
    )
    converged = StopReason.LABELS_STABLE if hard else StopReason.OBJECTIVE_TOLERANCE
    W = values = previous = None

    def leave(mask, reason, rounds_run):
        # The last round's rows of the leaving starts; fancy indexing copies.
        ids = active[mask]
        finals.weights[ids] = W[mask]
        finals.objectives[ids] = np.compress(mask, values)
        finals.labels[ids] = labels[mask]
        finals.rounds[ids] = rounds_run
        for i in ids.tolist():
            finals.reasons[i] = reason

    for iteration in range(config.max_iterations):
        if hard:
            np.greater(scores, 0.5, out=labels)
        else:
            scores.clip(0.0, 1.0, out=labels)
        W3 = np.matmul(targets3, operator_t)
        W = W3[:, 0, :]
        np.matmul(W3, design_t, out=fitted3)
        np.subtract(fitted, targets, out=residual)
        values = _squared_objective(residual, W, lam)
        # Python floats: a trace stores them, and on one-start blocks, which
        # every large fit runs, the stop test costs less on lists than in numpy.
        values = values.tolist()
        if path is not None:
            if iteration == _TRACE_LIMIT:
                _thin_path(path, active)
            if iteration < _TRACE_LIMIT or iteration % 10 == 0:
                path.append((iteration, active, W, values))
        # The one stop test: the next round's labels would repeat this
        # round's (hard), or the objective's relative decrease is within
        # tolerance (soft). With no unlabeled rows round 0 passes it.
        if hard:
            done = ((scores > 0.5) == labels).all(axis=1).tolist()
        elif previous is None:
            done = [n_unlabeled == 0] * active.size
        else:
            done = [p - v <= tolerance * (1.0 + abs(p)) for p, v in zip(previous, values)]
        stopped = done.count(True)
        if stopped:
            done = np.array(done)
            leave(done, converged, iteration + 1)
            if stopped == active.size:
                break
            keep = ~done
            active, W, values = active[keep], W[keep], list(compress(values, keep))
            if per_start:
                # Transpose after the copy, so each slice keeps the strides,
                # and with them the BLAS call, of a lone fit's operator.
                solve, design = solve[keep], design[keep]
                operator_t, design_t = solve.swapaxes(1, 2), design.swapaxes(1, 2)
            # Move the kept rows to the front; fancy indexing copies first.
            n = active.size
            targets[:n], fitted[:n] = targets[keep], fitted[keep]
            targets, fitted, residual = targets[:n], fitted[:n], residual[:n]
            views()
        previous = values
    else:  # the round cap stops every start still working
        leave(np.ones(active.size, dtype=bool), StopReason.MAX_ITERATIONS, config.max_iterations)
    return finals


def _thin_path(path, passing):
    """Drop the ``passing`` starts' rounds that are not multiples of 10 from ``path``.

    ``path`` holds rounds 0 to ``_TRACE_LIMIT - 1``, one entry each, and
    ``passing`` the starts that run past them. The starts that left
    before keep every round; an entry left with no rows is removed.
    """
    # Round 0 holds every start, so its ids size the lookup.
    left = np.ones(path[0][1].size, dtype=bool)
    left[passing] = False
    kept = []
    for iteration, active, W, values in path:
        if iteration % 10:
            stay = left[active]
            if not stay.any():
                continue
            active, W, values = active[stay], W[stay], list(compress(values, stay))
        kept.append((iteration, active, W, values))
    path[:] = kept


def _start_results(path, finals):
    """One ``FitResult`` per start of a lock-step run, traced from its kept rounds ``path``.

    A start works from round 0 until it leaves, so after a stable sort
    by start id its rows are its kept rounds in order, each tagged with
    its round. The last round, when the path did not keep it, comes from
    ``finals``.
    """
    iterations, actives, weight_blocks, value_lists = zip(*path)
    ids = np.concatenate(actives)
    order = np.argsort(ids, kind="stable")
    tags = np.repeat(iterations, list(map(len, actives)))[order]
    weights = np.concatenate(weight_blocks)[order]
    objectives = np.array(list(chain.from_iterable(value_lists)))[order]
    counts = np.bincount(ids, minlength=len(finals.rounds)).tolist()
    results = []
    end = 0
    for i, rounds_run in enumerate(finals.rounds.tolist()):
        begin, end = end, end + counts[i]
        rounds, weight_path, values = tags[begin:end], weights[begin:end], objectives[begin:end]
        if rounds[-1] != rounds_run - 1:
            rounds = np.append(rounds, rounds_run - 1)
            weight_path = np.vstack([weight_path, finals.weights[i]])
            values = np.append(values, finals.objectives[i])
        labels = finals.labels[i]
        trace = FitTrace(
            rounds=rounds,
            weight_path=weight_path,
            objectives=values,
            final_labels=labels,
            stop_reason=finals.reasons[i],
        )
        results.append(FitResult(finals.weights[i], labels, float(finals.objectives[i]), trace))
    return results


def _fit(data, starts, method, lam, config):
    """Traced ``FitResult``s of ``starts``, run in blocks of at most ``_BLOCK_ELEMENTS`` entries."""
    lam = _check_lam(lam)
    if method not in ("soft", "hard"):
        raise InvalidInputError(f"unknown method {method!r}")
    hard = method == "hard"
    starts = [_weight_vector(w, data.n_features, "initial weights") for w in starts]
    if not starts:
        return []
    starts = np.asarray(starts)
    known, design = data.labels, data.extended_features
    # The design stays fixed over the fit, so it is factorized once.
    solve = ridge_operator(design, lam)
    rows = max(1, _BLOCK_ELEMENTS // design.shape[0])
    # A start whose decision values overflow is refused before any descent
    # runs; each block's product is the one its descent starts with.
    for first in range(0, len(starts), rows):
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.matmul(starts[first : first + rows, None, :], data.unlabeled_features.T)
        finite = np.isfinite(scores).all(axis=(1, 2))
        if not finite.all():
            raise InvalidInputError(
                f"start {first + int(np.argmin(finite))}: its decision values overflow"
            )
    results = []
    for first in range(0, len(starts), rows):
        path = []
        block = starts[first : first + rows]
        finals = _run_descent(config, known, design, solve, block, lam, hard, path)
        results += _start_results(path, finals)
    return results


def fit_soft(data, lam=0.0, config=SolverConfig()):
    """Alternating minimization of the soft-label objective.

    Starts from the supervised solution; every round imputes clamped
    decision values and re-fits the weights. Stops when the relative
    objective decrease falls to ``config.objective_tolerance`` or at
    ``max_iterations``. With no unlabeled rows it runs one round, the
    supervised fit, and stops with OBJECTIVE_TOLERANCE.
    """
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    return _fit(data, [w_sup], "soft", lam, config)[0]


def fit_hard(data, lam=0.0, config=SolverConfig()):
    """Alternating minimization of the responsibility objective.

    Starts from the supervised solution. Every round assigns 0/1
    responsibilities ``q`` by thresholding decision values at 0.5, then
    re-fits the weights on them as class targets. Each round's value is
    ``||X_e w - [y; q]||^2 + lam ||w||^2``, the responsibility objective
    at binary ``q``. Stops with LABELS_STABLE after
    a round whose weights would assign the same responsibilities again,
    the last allowed round too; equal-objective cycles are cut off by
    ``max_iterations`` with stop reason MAX_ITERATIONS. With no unlabeled
    rows it runs one round, the supervised fit, and stops with
    LABELS_STABLE.
    """
    w_sup = ridge_solve(data.labeled_features, data.labels, lam)
    return _fit(data, [w_sup], "hard", lam, config)[0]


def _soft_value(data, w, lam):
    """g(w), the soft objective with its labels eliminated, and the decision values ``X_u w``."""
    residual = data.labeled_features @ w - data.labels
    scores = data.unlabeled_features @ w
    excess = scores - scores.clip(0.0, 1.0)
    return float(_add_penalty(_row_dots(residual) + _row_dots(excess), w, lam)), scores


def _clamp_pattern(scores):
    """Each decision value's clamp: -1 below 0, +1 above 1, 0 in between."""
    return (scores > 1.0).astype(np.int8) - (scores < 0.0)


def minimize_soft(data, lam=0.0, config=SolverConfig()):
    """The soft-label objective's minimum, by active-set Newton on g(w).

    Eliminating the labels leaves the convex piecewise quadratic
    g(w) = ||X_l w - y||^2 + lam ||w||^2 + sum_u dist(x_i.w, [0, 1])^2,
    whose minimizer, with its labels ``clip(X_u w, 0, 1)``, minimizes the
    soft-label objective. Starting from the supervised solution, every
    round takes the clamp pattern of ``X_u w`` (rows below 0 and above 1
    are clamped to 0 and 1) and solves that piece: one ``ridge_solve``
    on the labeled rows and the clamped rows, with targets 0 or 1. A
    full step to the piece's solution is taken when g falls, and always
    when the solution lands on the pattern it was solved on, for it is
    then g's exact minimizer, however g's last bits move; a full step's
    weights are the solve's output itself. Otherwise the step is halved
    until g falls. When no step moves w and lowers g, w is a minimizer
    to working precision (as where a rank-deficient piece at ``lam = 0``
    has many minimizers) and the round keeps it. Either way every
    further round would repeat the last one, so the next round is run
    without its solve: it keeps the weights and stops with
    CLAMPED_SET_STABLE. A converged trace thus ends in two rows with
    equal weights; with no unlabeled rows it is two rows of the
    supervised fit. Each round keeps one trace row, its weights and g at
    them, and g never rises along it. The trace keeps every round, so
    ``config.max_iterations`` caps the rounds and the trace length; a fit
    still working then stops with MAX_ITERATIONS. The final round needs
    a round of its own, so a cap of 1 always stops there.
    ``config.objective_tolerance`` is unused. g sums through
    ``model._row_dots``, whose order BLAS does not thread; the fit has
    the same bits with OpenBLAS at 1 and 2 threads, but each round's
    ``ridge_solve`` still runs through BLAS and LAPACK.

    (Mangasarian, Optim. Methods Softw. 17, 2002; Keerthi & DeCoste,
    JMLR 6, 2005.) ``fit_soft`` descends the same objective by BCD from
    the same start, the path the basin and restart studies examine.
    """
    lam = _check_lam(lam)
    labeled, unlabeled, labels = data.labeled_features, data.unlabeled_features, data.labels
    w = ridge_solve(labeled, labels, lam)
    value, scores = _soft_value(data, w, lam)
    pattern = _clamp_pattern(scores)
    weights, values = [], []
    # True once the next round would repeat the last one: it is then run
    # without its solve, and the fit stops.
    stable = False
    reason = StopReason.MAX_ITERATIONS
    for _ in range(config.max_iterations):
        if stable:
            weights.append(w)
            values.append(value)
            reason = StopReason.CLAMPED_SET_STABLE
            break
        clamped = pattern != 0
        target = ridge_solve(
            np.concatenate([labeled, unlabeled[clamped]]),
            np.concatenate([labels, pattern[clamped] > 0]),
            lam,
        )
        step_value, step_scores = _soft_value(data, target, lam)
        step_pattern = _clamp_pattern(step_scores)
        stable = np.array_equal(step_pattern, pattern)
        if not (stable or step_value < value):
            direction, fraction = target - w, 0.5
            while True:
                target = w + fraction * direction
                if np.array_equal(target, w):
                    # No step lowers g: w is a minimizer to working
                    # precision, and every further round would repeat this one.
                    target, step_value, step_scores, step_pattern = w, value, scores, pattern
                    stable = True
                    break
                step_value, step_scores = _soft_value(data, target, lam)
                if step_value < value:
                    step_pattern = _clamp_pattern(step_scores)
                    break
                fraction *= 0.5
        w, value, scores, pattern = target, step_value, step_scores, step_pattern
        weights.append(w)
        values.append(value)
    imputed = scores.clip(0.0, 1.0)
    trace = FitTrace(
        rounds=np.arange(len(values)),
        weight_path=np.array(weights),
        objectives=np.array(values),
        final_labels=imputed,
        stop_reason=reason,
    )
    return FitResult(w, imputed, value, trace)


def fit_starts(data, starts, method, lam=0.0, config=SolverConfig()):
    """Run one solver ("soft" or "hard") from each of many starting weights.

    The one way to start a descent anywhere but at the supervised
    solution; a start from imputed labels ``q`` is the start
    ``update_weights(data, q, lam)``. Each start's ``FitResult`` has the
    bits a fit from it alone would have, and ``fit_soft``/``fit_hard``
    are the case of the one start ``ridge_solve(X_l, y, lam)``
    (``minimize_soft`` is not a descent and takes no start). The
    starts advance in lock-step as blocks of weight rows, so a round
    costs two matrix products per block rather than per start. Every
    start is checked before any descent runs: a start of the wrong shape
    raises ``DimensionError``, and one with a non-finite entry or whose
    decision values on the unlabeled rows overflow ``InvalidInputError``.
    Returns one ``FitResult`` per start, in order.
    """
    return _fit(data, starts, method, lam, config)


def _fit_stack(known, design, lam, config):
    """Soft and hard fits of a stack of same-shape problems, each from its supervised weights.

    ``known`` (R, L) holds each problem's labels and ``design``
    (R, L + U, d) its extended design, labeled rows first; ``lam`` is
    already checked. The whole stack runs as one lock-step block, so the
    caller bounds its size. Each fit's final weights, objective, stop
    reason and round count have the bits of ``fit_soft``/``fit_hard``
    with ``config`` on its problem alone, but no fit keeps a per-round
    trace. Both solvers share the stack's factorizations: one stacked
    ``ridge_operator`` call for the labeled blocks, whose supervised
    weights start the fits, and one for the extended designs (the same
    matrices when U = 0). Returns the supervised weights (R, d), the
    extended designs' operators (R, d, L + U), and the soft and the hard
    fits' ``_Finals``, in problem order.
    """
    n_labeled = known.shape[1]
    supervised = (ridge_operator(design[:, :n_labeled], lam) @ known[:, :, None])[:, :, 0]
    solve = ridge_operator(design, lam)
    fits = [
        _run_descent(config, known, design, solve, supervised, lam, hard)
        for hard in (False, True)
    ]
    return supervised, solve, *fits
