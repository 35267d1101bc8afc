"""Spans around the package's public functions, recorded from outside it.

``install`` replaces every public function of the traced modules, in every
``sslsq`` module namespace that bound it, with a wrapper that records a
span: name, start, end, parent span id, pass id and a few counts taken
from the arguments or the result. Spans stay in memory; ``layer_metrics``
derives the per-layer figures from one pass's spans.

Parents follow the calling thread's stack. A span opened on a pool thread
with an empty stack is attached to the innermost open span of the thread
that installed the tracer: the package only fans work out from inside an
experiment runner, which blocks on the pool meanwhile.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from typing import NamedTuple

TRACED_MODULES = ("datagen", "selflearn", "model", "experiments", "diagnostics", "cli")

# Raw span names that are reported under one layer name.
GROUPS = {
    "datagen.sample_learning_curve_split": "datagen.split",
    "datagen.split_for_local_optima": "datagen.split",
    "selflearn.update_soft_labels": "selflearn.update_labels",
    "selflearn.update_hard_labels": "selflearn.update_labels",
    "model.label_objective": "model.objective",
    "model.responsibility_objective": "model.objective",
    "model.supervised_objective": "model.objective",
    "diagnostics.brute_force_hard_minimum": "diagnostics.brute_force",
    "cli.cmd_fit": "cli.fit",
    "cli.cmd_basin": "cli.basin",
    "cli.cmd_local_optima": "cli.local_optima",
    "cli.cmd_learning_curve": "cli.learning_curve",
    "cli.cmd_diagnose": "cli.diagnose",
}
FITS = ("selflearn.fit_soft", "selflearn.fit_hard")
STUDIES = ("experiments.run_basin_study", "experiments.run_local_optima_study",
           "experiments.run_learning_curve")
SUBCOMMANDS = ("fit", "basin", "local_optima", "learning_curve", "diagnose")


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    pass_id: int
    name: str
    start: float
    end: float
    attrs: dict | None


def _fit_attrs(args, kwargs, result):
    records = result.trace.records
    return {
        "rounds": result.iterations,
        "max_iter": int(result.trace.stop_reason.value == "max-iterations"),
        "trace_records": len(records),
        "trace_bytes": sum(r.weights.nbytes + r.labels.nbytes for r in records),
    }


def _brute_attrs(args, kwargs, result):
    data = args[0]
    labelings = 1 << data.n_unlabeled
    n = data.n_labeled + data.n_unlabeled
    # Per labeling: weights (N x d), labeled residuals (L x d) and scores
    # (U x d) as multiply-adds, so 2 * d * (N + L + U) = 4 N d flops.
    return {"labelings": labelings, "flop": labelings * 4 * n * data.n_features}


ATTRS = {
    "datagen.load_csv": lambda a, k, r: {"rows": r[0].n_labeled + r[0].n_unlabeled},
    "selflearn.fit_soft": _fit_attrs,
    "selflearn.fit_hard": _fit_attrs,
    "model.extended_features": lambda a, k, r: {"bytes": r.nbytes},
    "diagnostics.brute_force_hard_minimum": _brute_attrs,
}


class Tracer:
    """Collects spans; ``pass_id`` is set by the caller between passes."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # A call that raised has no result and so no counts.
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else None
                self.spans.append(Span(span_id, parent, self.pass_id, name, start, end, attrs))

        return traced

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _public_functions(module, short):
    if short == "cli":
        names = [n for n in vars(module) if n.startswith("cmd_")]
    else:
        names = module.__all__
    return {n: getattr(module, n) for n in names if inspect.isfunction(getattr(module, n))}


def install(tracer, package):
    """Wrap the traced modules' public functions; returns a function that undoes it."""
    modules = {short: importlib.import_module(f"{package}.{short}") for short in TRACED_MODULES}
    namespaces = [importlib.import_module(package)] + list(modules.values())
    undo = []
    for short, module in modules.items():
        for name, fn in _public_functions(module, short).items():
            traced = tracer.wrap(f"{short}.{name}", fn)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, attr, traced)
                        undo.append((namespace, attr, fn))
    dataset = modules["model"].Dataset
    prop = dataset.__dict__["extended_features"]
    dataset.extended_features = property(tracer.wrap("model.extended_features", prop.fget),
                                         doc=prop.__doc__)
    undo.append((dataset, "extended_features", prop))

    def uninstall():
        for namespace, attr, original in reversed(undo):
            setattr(namespace, attr, original)

    return uninstall


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id to its duration minus the part its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _layer(span):
    return GROUPS.get(span.name, span.name)


def _has_ancestor(span, by_id, names):
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(spans):
    """Per-layer figures of one pass: counts are exact, times in seconds."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls, busy, own, sums = {}, {}, {}, {}
    for s in spans:
        layer = _layer(s)
        calls[layer] = calls.get(layer, 0) + 1
        busy[layer] = busy.get(layer, 0.0) + (s.end - s.start)
        own[layer] = own.get(layer, 0.0) + selfs[s.id]
        for key, value in (s.attrs or {}).items():
            sums[(layer, key)] = sums.get((layer, key), 0) + value

    def count(layer, key=None):
        return sums.get((layer, key), 0) if key else calls.get(layer, 0)

    m = {
        "datagen.load_csv.s": busy.get("datagen.load_csv", 0.0),
        "datagen.load_csv.rows": count("datagen.load_csv", "rows"),
        "datagen.split.s": busy.get("datagen.split", 0.0),
        "datagen.split.calls": count("datagen.split"),
    }
    for fit in FITS:
        m[f"{fit}.calls"] = count(fit)
        m[f"{fit}.s"] = busy.get(fit, 0.0)
        m[f"{fit}.self_s"] = own.get(fit, 0.0)
    m["selflearn.soft_rounds"] = count("selflearn.fit_soft", "rounds")
    m["selflearn.hard_rounds"] = count("selflearn.fit_hard", "rounds")
    m["selflearn.max_iter_stops"] = sum(count(f, "max_iter") for f in FITS)
    m["selflearn.update_labels.calls"] = count("selflearn.update_labels")
    m["selflearn.update_labels.s"] = busy.get("selflearn.update_labels", 0.0)
    m["selflearn.trace_records"] = sum(count(f, "trace_records") for f in FITS)
    m["selflearn.trace_bytes"] = sum(count(f, "trace_bytes") for f in FITS)
    for layer in ("model.ridge_solve", "model.objective", "model.extended_features",
                  "experiments.evaluate_error"):
        m[f"{layer}.calls"] = count(layer)
        m[f"{layer}.s"] = busy.get(layer, 0.0)
    m["model.extended_features.bytes"] = count("model.extended_features", "bytes")
    for study in STUDIES:
        m[f"{study}.s"] = busy.get(study, 0.0)
        m[f"{study}.self_s"] = own.get(study, 0.0)
    m["experiments.count_unique_optima.s"] = busy.get("experiments.count_unique_optima", 0.0)
    study_time = sum(busy.get(s, 0.0) for s in STUDIES)
    fit_time = sum(s.end - s.start for s in spans
                   if s.name in FITS and _has_ancestor(s, by_id, STUDIES))
    m["experiments.fit_concurrency"] = fit_time / study_time if study_time else 0.0
    brute_s = busy.get("diagnostics.brute_force", 0.0)
    labelings = count("diagnostics.brute_force", "labelings")
    m["diagnostics.brute_force.s"] = brute_s
    m["diagnostics.brute_force.labelings"] = labelings
    m["diagnostics.brute_force.labelings_per_s"] = labelings / brute_s if brute_s else 0.0
    m["diagnostics.brute_force.flop_computed"] = count("diagnostics.brute_force", "flop")
    for name in ("build_hessian", "is_psd", "find_witness"):
        m[f"diagnostics.{name}.s"] = busy.get(f"diagnostics.{name}", 0.0)
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = busy.get(f"cli.{sub}", 0.0)
        m[f"cli.{sub}.self_s"] = own.get(f"cli.{sub}", 0.0)
    m["trace.spans"] = len(spans)
    return m


def fit_percentiles(fit_ms):
    """p50 and p95 of fit durations in ms, given as ``{fit name: [ms, ...]}``."""
    out = {}
    for fit in FITS:
        durations = sorted(fit_ms[fit])
        if len(durations) >= 2:
            q = statistics.quantiles(durations, n=100, method="inclusive")
            out[f"{fit}.p50_ms"], out[f"{fit}.p95_ms"] = q[49], q[94]
        else:
            out[f"{fit}.p50_ms"] = out[f"{fit}.p95_ms"] = durations[0] if durations else 0.0
    return out
