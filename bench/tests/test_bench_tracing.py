"""Self-time arithmetic and the traced wrappers.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def span(id, parent, name, start, end, attrs=None):
    return Span(id, parent, 0, name, start, end, attrs)


def test_self_time_on_hand_built_tree():
    # A [0, 10] has children B [1, 4] and C [3, 6], which overlap as pool
    # threads do, and D [8, 12], which outlives it; B has child E [2, 3].
    spans = [
        span(1, 0, "cli.cmd_basin", 0.0, 10.0),
        span(2, 1, "selflearn.fit_soft", 1.0, 4.0),
        span(3, 1, "selflearn.fit_soft", 3.0, 6.0),
        span(4, 1, "selflearn.fit_hard", 8.0, 12.0),
        span(5, 2, "model.label_objective", 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0})
    m = tracing.layer_metrics(spans)
    assert m["cli.basin.s"] == pytest.approx(10.0)
    assert m["cli.basin.self_s"] == pytest.approx(3.0)
    assert m["selflearn.fit_soft.calls"] == 2
    assert m["selflearn.fit_soft.s"] == pytest.approx(6.0)
    assert m["selflearn.fit_soft.self_s"] == pytest.approx(5.0)
    assert m["model.objective.calls"] == 1
    assert m["trace.spans"] == 5


@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(1.0, 2.0), (3.0, 4.0)], 2.0),
    ([(1.0, 3.0), (2.0, 4.0), (2.5, 2.6)], 3.0),
    ([(-5.0, 1.0), (9.0, 20.0)], 2.0),
    ([(11.0, 12.0)], 0.0),
])
def test_union_length(intervals, expected):
    assert tracing.union_length(intervals, 0.0, 10.0) == pytest.approx(expected)


def test_fit_concurrency_counts_fits_under_studies_only():
    spans = [
        span(1, 0, "experiments.run_learning_curve", 0.0, 4.0),
        span(2, 1, "selflearn.fit_soft", 0.0, 3.0),
        span(3, 1, "selflearn.fit_hard", 1.0, 4.0),
        span(4, 0, "selflearn.fit_soft", 5.0, 9.0),
    ]
    assert tracing.layer_metrics(spans)["experiments.fit_concurrency"] == pytest.approx(1.5)


def test_install_wraps_every_binding_and_uninstall_restores():
    import sslsq
    from sslsq import experiments, model, selflearn

    original = model.ridge_solve
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, "sslsq")
    try:
        assert selflearn.ridge_solve is model.ridge_solve is sslsq.ridge_solve
        assert model.ridge_solve is not original
        data = model.Dataset([[0.0, 1.0], [1.0, 1.0], [3.0, 1.0]], [0.0, 0.0, 1.0],
                             [[-1.0, 1.0], [4.0, 1.0]])
        # A pool thread's spans hang under the span open on the installing thread.
        experiments.run_basin_study(data, 0.0, "hard", [np.zeros(2), np.ones(2)], threads=2)
        spans = tracer.take()
    finally:
        uninstall()
    assert model.ridge_solve is original and selflearn.ridge_solve is original
    assert isinstance(model.Dataset.__dict__["extended_features"], property)
    by_id = {s.id: s for s in spans}
    study = [s for s in spans if s.name == "experiments.run_basin_study"]
    fits = [s for s in spans if s.name == "selflearn.fit_hard"]
    assert len(study) == 1 and len(fits) == 3
    assert all(by_id[f.parent] is study[0] for f in fits)
    assert {s.pass_id for s in spans} == {0}
    m = tracing.layer_metrics(spans)
    assert m["selflearn.fit_hard.calls"] == 3
    assert m["selflearn.hard_rounds"] == sum(s.attrs["rounds"] for s in fits)


def test_span_recorded_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("model.ridge_solve", boom)
    with pytest.raises(ValueError):
        wrapped()
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(tracer.wrap("model.classify", lambda: 7)).result() == 7
    spans = tracer.take()
    assert [s.name for s in spans] == ["model.ridge_solve", "model.classify"]
    assert all(s.end >= s.start and s.parent == 0 for s in spans)
