"""The benchmark's output checks accept real outputs and reject corrupted ones.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from sslsq import cli  # noqa: E402
from workloads import Command, experiment_outputs  # noqa: E402


def sslsq(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


@pytest.fixture
def files(tmp_path):
    specs = (inputs.InputSpec("small", 1, 2, 40), inputs.InputSpec("pool", 2, 40))
    written = inputs.materialize(specs, 5, tmp_path)
    ctx = checks.Context(written.values())
    return {name: path for name, (path, _) in written.items()}, ctx, tmp_path


def fit(files, method):
    paths, ctx, tmp = files
    trace = tmp / f"fit-{method}.csv"
    command = Command("fit", (), (trace, trace.with_name(trace.stem + ".manifest.txt")),
                      {"data": paths["small"], "method": method, "lam": 0.0})
    code, stdout = sslsq(["fit", "--data", paths["small"], "--method", method, "--trace", trace])
    return command, code, stdout


def replace_weights(command, stdout, w):
    """Write ``w`` as the printed result and as the trace's last row."""
    text = ",".join(repr(float(x)) for x in w)
    lines = [f"weights = {text}" if line.startswith("weights = ") else line
             for line in stdout.splitlines()]
    trace = command.outputs[0]
    rows = trace.read_text().splitlines()
    last = rows[-1].split(",")
    rows[-1] = ",".join(last[:2]) + "," + text
    trace.write_text("\n".join(rows) + "\n")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("method", ["soft", "hard"])
def test_real_fit_passes(files, method):
    command, code, stdout = fit(files, method)
    verdict = checks.check(command, code, stdout, files[1])
    assert verdict.problems == []
    assert len(verdict.converged) == 1
    assert len(verdict.soft_residuals) == (method == "soft")


def test_loosely_converged_soft_fit_rejected(files):
    # Cut a real soft fit after its second round and report that round as
    # converged: trace, weights and objective stay consistent, but the
    # weights are far from stationary.
    command, code, stdout = fit(files, "soft")
    trace = command.outputs[0]
    header, *rows = trace.read_text().splitlines()
    assert len(rows) > 2
    last = rows[1].split(",")
    trace.write_text("\n".join([header, *rows[:2]]) + "\n")
    summary = {"iterations": "2", "converged": "True", "stop_reason": "objective-tolerance",
               "final_objective": last[1], "weights": ",".join(last[2:])}
    lines = [f"{k} = {summary[k]}" if k in summary else line
             for line in stdout.splitlines() for k in [line.partition(" = ")[0]]]
    verdict = checks.check(command, code, "\n".join(lines) + "\n", files[1])
    assert len(verdict.problems) == 1
    assert "reports convergence at residual" in verdict.problems[0]


def test_wrong_weights_rejected(files):
    command, code, stdout = fit(files, "soft")
    w = checks.parse_summary(stdout)["weights"].split(",")
    wrong = np.array([float(x) for x in w]) * 1.01
    verdict = checks.check(command, code, replace_weights(command, stdout, wrong), files[1])
    assert any("final objective" in p for p in verdict.problems)


def test_printed_weights_must_match_trace(files):
    command, code, stdout = fit(files, "soft")
    corrupted = stdout.replace("weights = ", "weights = 1")
    verdict = checks.check(command, code, corrupted, files[1])
    assert any("last trace row" in p for p in verdict.problems)


def test_flipped_hard_label_rejected(files):
    command, code, stdout = fit(files, "hard")
    data = files[1].data(files[0]["small"])
    w = np.array([float(x) for x in checks.parse_summary(stdout)["weights"].split(",")])
    assert checks.hard_fixed_point_gap(data, w, 0.0) <= checks.FIXED_POINT_RTOL
    # Flip the label of the most confidently classified point and re-solve:
    # the point keeps its side, so the new weights are not a fixed point.
    q = checks.impute(data, w, "hard")
    j = int(np.argmax(np.abs(data.unlabeled @ w - 0.5)))
    q[j] = 1.0 - q[j]
    flipped = checks.ridge(data.extended, np.concatenate([data.labels, q]), 0.0)
    assert checks.impute(data, flipped, "hard")[j] != q[j]
    verdict = checks.check(command, code, replace_weights(command, stdout, flipped), files[1])
    assert any("fixed point" in p for p in verdict.problems)


def basin(files, method="hard", starts=5):
    paths, ctx, tmp = files
    report = tmp / f"basin-{method}.csv"
    argv = ["basin", "--data", paths["small"], "--method", method, "--starts", starts,
            "--seed", 3, "--out", report]
    outputs = experiment_outputs(report)
    path_file = None
    if method == "soft":
        path_file = tmp / "paths.csv"
        argv += ["--paths", path_file]
        outputs += (path_file,)
    command = Command("basin", (), outputs, {"data": paths["small"], "method": method,
                                             "lam": 0.0, "starts": starts, "paths": path_file})
    return command, *sslsq(argv)


@pytest.mark.parametrize("method", ["soft", "hard"])
def test_real_basin_passes(files, method):
    command, code, stdout = basin(files, method)
    assert checks.check(command, code, stdout, files[1]).problems == []


def test_truncated_report_rejected(files):
    command, code, stdout = basin(files)
    report = command.outputs[0]
    report.write_text("".join(report.read_text().splitlines(keepends=True)[:-1]))
    verdict = checks.check(command, code, stdout, files[1])
    assert any("report has 5 rows" in p for p in verdict.problems)


def test_truncated_learning_curve_rejected(files):
    paths, ctx, tmp = files
    report = tmp / "lc.csv"
    command = Command("learning-curve", (), experiment_outputs(report), {
        "data": paths["pool"], "labeled": 5, "u_values": (1, 4), "repeats": 3})
    code, stdout = sslsq(["learning-curve", "--data", paths["pool"], "--labeled", 5,
                          "--u-values", "1,4", "--repeats", 3, "--seed", 1, "--out", report])
    assert checks.check(command, code, stdout, ctx).problems == []
    agg = command.outputs[1]
    agg.write_text("".join(agg.read_text().splitlines(keepends=True)[:-1]))
    verdict = checks.check(command, code, stdout, ctx)
    assert any("aggregate row count" in p for p in verdict.problems)


def test_wrong_brute_force_rejected(files, tmp_path):
    specs = (inputs.InputSpec("tiny", 1, 2, 8),)
    written = inputs.materialize(specs, 2, tmp_path)
    ctx = checks.Context(written.values())
    path = written["tiny"][0]
    command = Command("diagnose", (), (), {"data": path, "lam": 0.0})
    code, stdout = sslsq(["diagnose", "--data", path])
    assert checks.check(command, code, stdout, ctx).problems == []
    brute = checks.parse_summary(stdout)["brute_force_objective"]
    wrong = stdout.replace(f"brute_force_objective = {brute}",
                           f"brute_force_objective = {float(brute) * 1.001!r}")
    assert checks.check(command, code, wrong, ctx).problems


def test_nonzero_exit_and_changed_bytes_count_as_failures(files):
    command, code, stdout = fit(files, "soft")
    good = {"code": code, "stdout": stdout, "digest": "a", "bytes": 1}
    passes = [{"worker": 0, "commands": [c]}
              for c in (good, dict(good, digest="b"), dict(good, code=2), good)]
    attempted, failed, problems, quality = run.judge([command], passes, files[1])
    assert (attempted, failed) == (4, 2)
    assert any("differ between passes" in p for p in problems)
    assert quality["unconverged_ratio"] == 0.0 and quality["soft_weight_vectors"] == 1


def test_bytes_that_change_between_processes_fail(files):
    command, code, stdout = fit(files, "soft")
    good = {"code": code, "stdout": stdout, "digest": "a", "bytes": 1}
    passes = [{"worker": 0, "commands": [good]}, {"worker": 0, "commands": [good]},
              {"worker": 1, "commands": [dict(good, digest="b")]}]
    attempted, failed, problems, _ = run.judge([command], passes, files[1])
    assert (attempted, failed) == (3, 1)
    assert any("differ between processes" in p for p in problems)


def test_inputs_depend_only_on_seed(tmp_path):
    spec = (inputs.InputSpec("a", 2, 2, 10),)
    first = inputs.materialize(spec, 9, tmp_path)["a"][1]
    assert inputs.materialize(spec, 9, tmp_path)["a"][1] == first
    assert inputs.materialize(spec, 10, tmp_path)["a"][1] != first
