"""Output checks, written with the benchmark's own parser and numpy algebra.

Each ``check_<kind>`` takes a command, its exit code and captured stdout
and returns a ``Verdict``: the problems found (empty when the output is
correct) plus the solve-quality facts the outputs reveal, namely which
fits report convergence and the stationarity residual of each soft weight
vector they print. A fit that reports convergence must have converged:
hard weights to a fixed point, soft weights to a residual at most
SOFT_RESIDUAL_TOL.

Class codes are 1 and 0, so a point is positive when its decision value
exceeds 1/2, as the package documents.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

OBJECTIVE_RTOL = 1e-9
FIXED_POINT_RTOL = 1e-8
# Converged soft fits of the benchmark's inputs reach residuals up to 2e-5
# (basin, seeds 101-110); a fit stopped well short of the optimum is far
# above. Unconverged fits are reported, not failed.
SOFT_RESIDUAL_TOL = 1e-4
ENUMERATION_CAP = 20
ENUMERATION_CHUNK = 1 << 15


@dataclass
class Data:
    """A dataset file as the loader sees it: intercept column appended."""

    labeled: np.ndarray
    labels: np.ndarray
    unlabeled: np.ndarray

    @property
    def extended(self):
        return np.vstack([self.labeled, self.unlabeled])


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    converged: list = field(default_factory=list)  # one bool per fit that reports it
    soft_residuals: list = field(default_factory=list)  # one per soft weight vector

    def require(self, condition, message):
        if not condition:
            self.problems.append(message)
        return condition


def read_data(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    label = header.index("label")
    truth = header.index("true_label") if "true_label" in header else None
    feats = [i for i in range(len(header)) if i not in (label, truth)]
    x = np.array([[float(r[i]) for i in feats] for r in body])
    x = np.hstack([x, np.ones((len(body), 1))])
    hidden = np.array([r[label] == "" for r in body])
    labels = np.array([float(r[label]) for r, h in zip(body, hidden) if not h])
    return Data(x[~hidden], labels, x[hidden])


def read_table(path):
    """CSV as ``(header, rows)`` with every field left as text."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


def parse_summary(stdout):
    """``key = value`` lines of a subcommand's stdout as a dict."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def ridge(x, t, lam):
    if lam > 0.0:
        d = x.shape[1]
        x = np.vstack([x, np.sqrt(lam) * np.eye(d)])
        t = np.concatenate([t, np.zeros(d)])
    return np.linalg.lstsq(x, t, rcond=None)[0]


def soft_objective(data, w, u, lam):
    r_l = data.labeled @ w - data.labels
    r_u = data.unlabeled @ w - u
    return float(r_l @ r_l + r_u @ r_u + lam * (w @ w))


def hard_objective(data, w, q, lam):
    s = data.unlabeled @ w
    r_l = data.labeled @ w - data.labels
    return float(r_l @ r_l + np.sum(q * (s - 1.0) ** 2 + (1.0 - q) * s ** 2) + lam * (w @ w))


def impute(data, w, method):
    s = data.unlabeled @ w
    return np.clip(s, 0.0, 1.0) if method == "soft" else (s > 0.5).astype(float)


def soft_residual(data, w, lam):
    """Relative stationarity residual of the eliminated soft objective at ``w``."""
    s = data.unlabeled @ w
    grad = (2.0 * data.labeled.T @ (data.labeled @ w - data.labels) + 2.0 * lam * w
            + 2.0 * data.unlabeled.T @ (s - np.clip(s, 0.0, 1.0)))
    return float(np.linalg.norm(grad) / (1.0 + np.linalg.norm(2.0 * data.labeled.T @ data.labels)))


def hard_fixed_point_gap(data, w, lam):
    """Distance from ``w`` to the ridge solve on its own thresholded labels."""
    q = impute(data, w, "hard")
    target = ridge(data.extended, np.concatenate([data.labels, q]), lam)
    return float(np.max(np.abs(w - target)) / (1.0 + np.max(np.abs(w))))


def check_soft_residual(v, data, w, lam, converged, where):
    residual = soft_residual(data, w, lam)
    v.soft_residuals.append(residual)
    if converged:
        v.require(residual <= SOFT_RESIDUAL_TOL,
                  f"{where}: soft fit reports convergence at residual {residual:.3g}")


def close(a, b, rtol=OBJECTIVE_RTOL):
    return abs(a - b) <= rtol * (1.0 + abs(b))


def check_final_objective(v, data, method, lam, w, w_prev, printed, where):
    """The objective a round reports is that of ``w`` with labels imputed from ``w_prev``."""
    objective = soft_objective if method == "soft" else hard_objective
    value = objective(data, w, impute(data, w_prev, method), lam)
    v.require(close(printed, value), f"{where}: final objective {printed!r} != recomputed {value!r}")


def check_manifest(v, path, subcommand, inputs):
    lines = parse_summary(path.read_text(encoding="utf-8"))
    v.require(lines.get("subcommand") == subcommand, f"{path.name}: wrong subcommand")
    for name, digest in inputs.items():
        v.require(lines.get(f"input.{name}.sha256") == digest,
                  f"{path.name}: input.{name}.sha256 does not match the input file")


def _floats(row):
    return np.array([float(x) for x in row])


def check_fit(command, stdout, ctx):
    v = Verdict()
    p = command.params
    data, lam, method = ctx.data(p["data"]), p["lam"], p["method"]
    s = parse_summary(stdout)
    keys = ("labeled", "unlabeled", "iterations", "converged", "stop_reason",
            "final_objective", "weights")
    if not v.require(all(k in s for k in keys), "fit: summary lines missing"):
        return v
    v.require(int(s["labeled"]) == len(data.labels), "fit: labeled count")
    v.require(int(s["unlabeled"]) == len(data.unlabeled), "fit: unlabeled count")
    w = _floats(s["weights"].split(","))
    final = float(s["final_objective"])
    converged = s["converged"] == "True"
    v.converged.append(converged)
    v.require(converged == (s["stop_reason"] != "max-iterations"), "fit: stop reason")
    if method == "soft":
        check_soft_residual(v, data, w, lam, converged, "fit")
    header, rows = read_table(command.outputs[0])
    if not v.require(len(rows) == int(s["iterations"]) and len(rows) >= 1,
                     f"fit: trace has {len(rows)} rows, summary says {s['iterations']}"):
        return v
    v.require(header[:2] == ["iteration", "objective"] and len(header) == 2 + len(w),
              "fit: trace header")
    trace = np.array([_floats(r) for r in rows])
    v.require(np.array_equal(trace[:, 0], np.arange(len(rows))), "fit: trace iterations")
    v.require(np.array_equal(trace[-1, 2:], w) and trace[-1, 1] == final,
              "fit: last trace row differs from the printed result")
    objectives = trace[:, 1]
    v.require(np.all(np.diff(objectives) <= 1e-12 * (1.0 + np.abs(objectives[:-1]))),
              "fit: objective increases along the trace")
    w_prev = trace[-2, 2:] if len(rows) > 1 else ridge(data.labeled, data.labels, lam)
    check_final_objective(v, data, method, lam, w, w_prev, final, "fit")
    if method == "hard" and converged:
        gap = hard_fixed_point_gap(data, w, lam)
        v.require(gap <= FIXED_POINT_RTOL, f"fit: hard weights are not a fixed point ({gap:.3g})")
    check_manifest(v, command.outputs[1], "fit", {"data": ctx.digest(p["data"])})
    return v


BASIN_HEADER = ["start", "init", "iterations", "converged", "stop_reason",
                "final_objective", "test_error", "optimum", "status"]


def check_basin(command, stdout, ctx):
    v = Verdict()
    p = command.params
    data, lam, method = ctx.data(p["data"]), p["lam"], p["method"]
    s = parse_summary(stdout)
    header, rows = read_table(command.outputs[0])
    runs = p["starts"] + 1
    v.require(s.get("runs") == str(runs), "basin: printed run count")
    if not v.require(len(rows) == runs and header[:9] == BASIN_HEADER,
                     f"basin: report has {len(rows)} rows, expected {runs}"):
        return v
    v.require(rows[0][:2] == ["-1", "supervised"], "basin: first row is not the supervised start")
    v.require(all(r[8] == "ok" for r in rows), "basin: a start failed")
    paths = None
    if p["paths"] is not None:
        _, path_rows = read_table(p["paths"])
        paths = np.array([_floats(r) for r in path_rows]) if path_rows else np.zeros((0, 3))
        v.require(len(path_rows) == sum(int(r[2]) for r in rows),
                  "basin: path rows != total iterations")
    for r in rows:
        start, iterations, final = int(r[0]), int(r[2]), float(r[5])
        w = _floats(r[9:])
        converged = r[3] == "True"
        v.converged.append(converged)
        v.require(0.0 <= float(r[6]) <= 1.0, "basin: test error outside [0, 1]")
        if method == "soft":
            check_soft_residual(v, data, w, lam, converged, f"basin start {start}")
        if paths is not None:
            own = paths[paths[:, 0] == start]
            if not v.require(len(own) == iterations and np.array_equal(own[-1, 3:], w)
                             and own[-1, 2] == final,
                             f"basin: path of start {start} disagrees with the report"):
                continue
            if iterations > 1:
                check_final_objective(v, data, method, lam, w, own[-2, 3:], final,
                                      f"basin start {start}")
        if method == "hard" and converged:
            # Stable labels mean w's own labels produced w: a fixed point.
            check_final_objective(v, data, method, lam, w, w, final, f"basin start {start}")
            gap = hard_fixed_point_gap(data, w, lam)
            v.require(gap <= FIXED_POINT_RTOL,
                      f"basin start {start}: hard weights are not a fixed point ({gap:.3g})")
    _, agg = read_table(command.outputs[1])
    v.require(str(len(agg)) == s.get("unique_optima"), "basin: aggregate rows != unique optima")
    v.require(sum(int(a[1]) for a in agg) == runs, "basin: optimum sizes do not sum to runs")
    check_manifest(v, command.outputs[2], "basin", {"data": ctx.digest(p["data"])})
    return v


def _group_means(rows, key_cols, value_col):
    groups = {}
    for r in rows:
        if r[value_col] != "":
            groups.setdefault(tuple(r[c] for c in key_cols), []).append(float(r[value_col]))
    return {k: float(np.mean(vals)) for k, vals in groups.items()}


def check_local_optima(command, stdout, ctx):
    v = Verdict()
    p = command.params
    s = parse_summary(stdout)
    n = len(p["pools"])
    v.require(s.get("datasets") == str(n) and s.get("skipped") == "0",
              "local-optima: a dataset was skipped")
    header, rows = read_table(command.outputs[0])
    if not v.require(len(rows) == n * (3 + 2 * p["restarts"]),
                     f"local-optima: report has {len(rows)} rows"):
        return v
    v.require(all(r[5] == "ok" and 0.0 <= float(r[4]) <= 1.0 for r in rows),
              "local-optima: bad status or error value")
    _, agg = read_table(command.outputs[1])
    v.require(len(agg) == 2 * n, "local-optima: aggregate row count")
    means = _group_means([r for r in rows if r[2] == "random"], (0, 1), 4)
    for a in agg:
        v.require(close(float(a[4]), means.get((a[0], a[1]), np.nan), 1e-12),
                  f"local-optima: mean error of {a[0]}/{a[1]} disagrees with the report")
        v.require(1 <= int(a[6]) <= p["restarts"] + 1, "local-optima: unique minima count")
    names = {path.stem: ctx.digest(path) for path in p["pools"]}
    check_manifest(v, command.outputs[2], "local-optima", names)
    return v


def check_learning_curve(command, stdout, ctx):
    v = Verdict()
    p = command.params
    total = len(ctx.data(p["data"]).labels)
    cells = p["repeats"] * len(p["u_values"]) * 4
    header, rows = read_table(command.outputs[0])
    if not v.require(len(rows) == cells, f"learning-curve: report has {len(rows)} rows"):
        return v
    for r in rows:
        if not v.require(int(r[4]) == total - p["labeled"] - int(r[0]) and r[6] == "ok"
                         and 0.0 <= float(r[3]) <= 1.0, "learning-curve: bad cell row"):
            break
    hashes = {}
    for r in rows:
        hashes.setdefault((r[0], r[1]), set()).add(r[5])
    v.require(all(len(h) == 1 for h in hashes.values()),
              "learning-curve: methods of one cell saw different partitions")
    _, agg = read_table(command.outputs[1])
    v.require(len(agg) == len(p["u_values"]) * 4, "learning-curve: aggregate row count")
    means = _group_means(rows, (0, 2), 3)
    for a in agg:
        v.require(close(float(a[2]), means.get((a[0], a[1]), np.nan), 1e-12)
                  and a[4] == str(p["repeats"]),
                  f"learning-curve: aggregate u={a[0]} {a[1]} disagrees with the report")
    check_manifest(v, command.outputs[2], "learning-curve", {"data": ctx.digest(p["data"])})
    return v


def brute_force_minimum(data, lam):
    """Smallest hard objective over all 2^U labelings, by the benchmark's own algebra."""
    u = len(data.unlabeled)
    ext = data.extended
    gram = ext.T @ ext + lam * np.eye(ext.shape[1])
    op = np.linalg.pinv(ext) if lam == 0.0 else np.linalg.solve(gram, ext.T)
    base = op[:, :len(data.labels)] @ data.labels
    op_u = op[:, len(data.labels):]
    bits = 1 << np.arange(u - 1, -1, -1)
    best = np.inf
    for start in range(0, 1 << u, ENUMERATION_CHUNK):
        idx = np.arange(start, min(start + ENUMERATION_CHUNK, 1 << u))
        q = ((idx[:, None] & bits) > 0).astype(float)
        w = base + q @ op_u.T
        r_l = w @ data.labeled.T - data.labels
        r_u = w @ data.unlabeled.T - q
        obj = np.sum(r_l * r_l, axis=1) + np.sum(r_u * r_u, axis=1) + lam * np.sum(w * w, axis=1)
        best = min(best, float(obj.min()))
    return best


def check_diagnose(command, stdout, ctx):
    v = Verdict()
    p = command.params
    data, lam = ctx.data(p["data"]), p["lam"]
    s = parse_summary(stdout)
    u = len(data.unlabeled)
    v.require(s.get("labeled") == str(len(data.labels)) and s.get("unlabeled") == str(u),
              "diagnose: block sizes")
    v.require(s.get("label_hessian_psd") == "False", "diagnose: label Hessian called PSD")
    v.require(s.get("label_hessian_min_diagonal") == "-2.0", "diagnose: label Hessian diagonal")
    v.require(s.get("label_witness_value") == "-2.0", "diagnose: label witness value")
    v.require(s.get("responsibility_hessian_psd") == "False",
              "diagnose: responsibility Hessian called PSD")
    value = s.get("responsibility_witness_value", "none")
    v.require(not value.startswith("none") and float(value) < 0.0,
              "diagnose: no responsibility witness")
    if u > ENUMERATION_CAP:
        v.require(s.get("brute_force_objective", "").startswith("skipped"),
                  "diagnose: brute force not skipped above the cap")
        return v
    if not v.require(all(k in s for k in ("brute_force_objective", "optimality_gap",
                                          "hard_from_supervised_objective")),
                     "diagnose: brute-force lines missing"):
        return v
    brute, local = float(s["brute_force_objective"]), float(s["hard_from_supervised_objective"])
    v.require(close(brute, brute_force_minimum(data, lam)),
              "diagnose: brute-force objective is not the minimum over all labelings")
    v.require(brute <= local * (1.0 + OBJECTIVE_RTOL), "diagnose: local fit beats the global minimum")
    v.require(float(s["optimality_gap"]) == local - brute, "diagnose: optimality gap")
    return v


CHECKS = {
    "fit": check_fit,
    "basin": check_basin,
    "local-optima": check_local_optima,
    "learning-curve": check_learning_curve,
    "diagnose": check_diagnose,
}


class Context:
    """Parses each input file once and remembers its digest."""

    def __init__(self, digests):
        self._digests = {str(path): digest for path, digest in digests}
        self._data = {}

    def data(self, path):
        if str(path) not in self._data:
            self._data[str(path)] = read_data(path)
        return self._data[str(path)]

    def digest(self, path):
        return self._digests[str(path)]


def check(command, code, stdout, ctx):
    """Verdict on one command's exit code and outputs."""
    if code != 0:
        return Verdict([f"{command.kind}: exit code {code}"])
    try:
        return CHECKS[command.kind](command, stdout, ctx)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return Verdict([f"{command.kind}: unreadable output ({type(exc).__name__}: {exc})"])
