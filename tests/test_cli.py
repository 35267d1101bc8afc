"""CLI subcommands: behavior, file outputs, exit codes and determinism."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sslsq.cli as cli
from sslsq import (
    CapacityError,
    DegenerateInputError,
    DegenerateSplitError,
    DimensionError,
    Error,
    HessianKind,
    InvalidInputError,
    NoWitnessError,
    ParseError,
    SchemaError,
    SolverConfig,
    __version__,
    build_hessian,
    count_unique_optima,
    datagen,
    derive_rng,
    diagnostics,
    evaluate_error,
    experiments,
    fit_starts,
    is_psd,
    load_csv,
    random_init_near_supervised,
    ridge_solve,
    split_for_local_optima,
)
from sslsq.cli import (
    EXIT_CAPACITY,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from sslsq.datagen import _fmt, _write_columns
from sslsq.experiments import METHODS

from conftest import column_aggregates, lone_learning_curve, rowwise_write_csv


def run_cli(args):
    """Invoke the CLI in-process; argparse usage errors become exit code 2."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def write_scaled_generated(tmp_path, scale):
    """``generate --seed 1 --unlabeled 40`` with its ``x0`` column times ``scale``."""
    path = tmp_path / "plain.csv"
    code = run_cli(["generate", "--seed", "1", "--unlabeled", "40", "--out", str(path)])
    assert code == EXIT_OK
    header, *rows = path.read_text().splitlines()
    assert header.split(",")[0] == "x0"
    scaled = tmp_path / "scaled.csv"
    pairs = (row.split(",", 1) for row in rows)
    lines = [header] + [f"{float(x0) * scale!r},{rest}" for x0, rest in pairs]
    scaled.write_text("\n".join(lines) + "\n")
    return scaled


def write_cluster_data(tmp_path, name="clusters.csv", seed=7, unlabeled=40):
    path = tmp_path / name
    code = run_cli([
        "generate", "--kind", "two-cluster-1d", "--seed", str(seed),
        "--unlabeled", str(unlabeled), "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


def write_pool(tmp_path, name="pool.csv", n=60, seed=3, kind="two-gaussian-2d"):
    path = tmp_path / name
    code = run_cli([
        "generate", "--kind", kind, "--seed", str(seed),
        "--labeled-per-class", str(n // 2), "--unlabeled", "0",
        "--separation", "3.0", "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


def write_tiny_pool(tmp_path, name="tiny.csv"):
    """A 4-row fully labeled pool, whose local-optima split is always degenerate."""
    path = tmp_path / name
    assert run_cli(["generate", "--unlabeled", "0", "--seed", "3", "--out", str(path)]) == EXIT_OK
    return path


def snapshot(directory):
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def assert_clash_refused(code, capsys, clash, directory, before):
    """An output that would overwrite a file exits 2, naming both paths,
    and leaves ``directory`` as ``snapshot`` found it: no input changed
    and nothing written."""
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert clash in err
    assert "an output may not overwrite an input or another output" in err
    assert snapshot(directory) == before


SPECIAL_FLOATS = [float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 5e-324, 2.5e16,
                  0.1 + 0.2, 1.0 / 3.0, -1.5]


class Shown(str):
    """A ``str`` subclass whose ``str()`` differs from its value, as an enum-like tag's may."""

    def __str__(self):
        return f"shown-{super().__str__()}"


def mixed_table(rows):
    """Columns of every form the report writer takes, cycling through edge values."""
    def cycle(values):
        return [values[i % len(values)] for i in range(rows)]

    floats = cycle(SPECIAL_FLOATS)
    return [
        np.array(floats),
        floats,
        np.array(cycle(SPECIAL_FLOATS[::-1]), dtype=np.float32),
        np.arange(rows, dtype=np.int64) - 3,
        cycle([np.int64(-7), 0, 2**40, np.uint8(255)]),
        cycle([True, False]),
        np.array(cycle([True, False, False])),
        cycle([None, "ok", "empty-test", np.float64("nan"), np.float64(-0.0), np.bool_(True)]),
        cycle(["soft", Shown("hard"), "", Shown("")]),
    ]


class TestWriteColumns:
    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_bytes_equal_the_rowwise_writer(self, tmp_path, monkeypatch, chunk):
        # The rowwise writer saw each array entry as a numpy scalar and each
        # list entry as is; both must render as it rendered them, in and
        # across chunk boundaries and with no rows at all.
        if chunk is not None:
            monkeypatch.setattr(datagen, "_CHUNK_ROWS", chunk)
        size = datagen._CHUNK_ROWS
        header = [f"c{k}" for k in range(len(mixed_table(0)))]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        for rows in sorted({0, size - 1, size, size + 1, 2 * size + 1}):
            columns = mixed_table(rows)
            _write_columns(new, header, columns)
            rowwise_write_csv(old, header, list(zip(*columns)))
            assert new.read_bytes() == old.read_bytes()
        _write_columns(new, header, mixed_table(0))
        assert new.read_text() == ",".join(header) + "\n"

    def test_string_fields_pass_through_and_subclasses_take_str(self):
        assert _fmt("soft") == "soft"
        assert _fmt("") == ""
        assert _fmt(Shown("hard")) == "shown-hard"

    def test_lone_empty_field_is_quoted(self, tmp_path):
        # A blank line is no record to a csv reader, so a one-column row
        # with an empty field is written as "".
        path = tmp_path / "x.csv"
        _write_columns(path, ["label"], [np.array([1.0, np.nan, 0.0])])
        assert path.read_bytes() == b'label\n1.0\n""\n0.0\n'
        _write_columns(path, ["a", "b"], [np.array([np.nan]), [None]])
        assert path.read_bytes() == b"a,b\n,\n"

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="report columns differ in length"):
            _write_columns(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), [1, 2]])

    def test_memory_stays_within_one_chunk(self, tmp_path):
        # A paths-shaped table (start, iteration, objective, two weights):
        # only one chunk's text is held, however many rows there are.
        rows = 100_000
        rng = np.random.default_rng(0)
        columns = [np.repeat(np.arange(100), 1000), np.tile(np.arange(1000), 100),
                   rng.random(rows), *rng.standard_normal((2, rows))]
        tracemalloc.start()
        try:
            _write_columns(tmp_path / "paths.csv", ["start", "iteration", "objective",
                                                    "w_0", "w_1"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "paths.csv").read_text().splitlines()) == rows + 1
        assert peak < 0.5e6


class TestGenerate:
    def test_identical_files_for_identical_flags(self, tmp_path):
        a = write_cluster_data(tmp_path, "a.csv", unlabeled=396)
        b = write_cluster_data(tmp_path, "b.csv", unlabeled=396)
        assert a.read_bytes() == b.read_bytes()
        # 4 + 396 data rows plus one header line.
        assert len(a.read_text().splitlines()) == 401

    def test_invalid_kind_is_usage_error(self, tmp_path):
        code = run_cli(["generate", "--kind", "spiral", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_manifest_written(self, tmp_path):
        path = write_cluster_data(tmp_path)
        manifest = (tmp_path / "clusters.manifest.txt").read_text()
        assert "subcommand = generate" in manifest
        assert "seed = 7" in manifest

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise-sd", "inf", "noise_sd must be positive and finite"),
        ("--separation", "inf", "class_separation must be positive and finite"),
        ("--noise-sd", "1e308", "noise_sd 1e+308 overflows the noise draw"),
    ])
    def test_out_of_range_scale_is_refused_by_name(self, tmp_path, capsys, flag, value,
                                                   message):
        # Refused with the flag's parameter named, with no numpy warning,
        # before any file is written.
        before = snapshot(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["generate", flag, value, "--out", str(tmp_path / "g.csv")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert snapshot(tmp_path) == before


def assert_test_refused(code, capsys, error, directory, before):
    """A ``--test`` file refused with exit 2 and ``error``, before any fit
    prints or any file is written."""
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert snapshot(directory) == before


def assert_unlabeled_test_refused(code, capsys, test, unlabeled, directory, before):
    """A ``--test`` file with unlabeled rows is refused, naming the file and its unlabeled count."""
    error = f"{test}: --test input must be fully labeled, but it has {unlabeled} unlabeled rows"
    assert_test_refused(code, capsys, error, directory, before)


def assert_empty_test_path_refused(code, capsys, directory, before):
    """An empty ``--test`` path is opened like any other, so it exits 3 as a missing file
    does, with nothing on stdout and no file written."""
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert snapshot(directory) == before


class TestFit:
    def test_supervised_objective_matches_direct_computation(self, tmp_path, capsys):
        path = write_cluster_data(tmp_path)
        capsys.readouterr()
        assert run_cli(["fit", "--data", str(path), "--method", "supervised"]) == EXIT_OK
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
        )
        from sslsq import load_csv, ridge_solve, supervised_objective

        data, _ = load_csv(path)
        w = ridge_solve(data.labeled_features, data.labels, 0.0)
        assert float(out["final_objective"]) == pytest.approx(
            supervised_objective(data, w, 0.0), rel=1e-12
        )
        assert out["iterations"] == "1"

    def test_soft_on_fully_labeled_equals_supervised(self, tmp_path, capsys):
        path = write_pool(tmp_path)
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_OK
        soft_out = capsys.readouterr().out
        assert run_cli(["fit", "--data", str(path), "--method", "supervised"]) == EXIT_OK
        supervised_out = capsys.readouterr().out
        weights = lambda text: next(
            line for line in text.splitlines() if line.startswith("weights")
        )
        assert weights(soft_out) == weights(supervised_out)

    def test_trace_is_monotone(self, tmp_path, capsys):
        path = write_cluster_data(tmp_path)
        trace = tmp_path / "trace.csv"
        assert run_cli([
            "fit", "--data", str(path), "--method", "soft", "--trace", str(trace),
        ]) == EXIT_OK
        rows = trace.read_text().splitlines()
        assert rows[0].startswith("iteration,objective,w_0")
        objectives = [float(line.split(",")[1]) for line in rows[1:]]
        assert all(
            objectives[k] <= objectives[k - 1] + 1e-10 * (1 + abs(objectives[k - 1]))
            for k in range(1, len(objectives))
        )
        assert (tmp_path / "trace.manifest.txt").exists()

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # fit draws no random numbers, so its trace manifest records no seed.
        path = write_cluster_data(tmp_path, unlabeled=8)
        trace = tmp_path / "trace.csv"
        code = run_cli(["fit", "--data", str(path), "--method", "soft", "--trace", str(trace),
                        "--seed", "1"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("data_name, trace_name, clash", [
        ("d.csv", "d.csv", "--trace {trace} is the same file as --data {data}"),
        ("d.csv", "test.csv", "--trace {trace} is the same file as --test {test}"),
        ("t.manifest.txt", "t.csv", "manifest {data} is the same file as --data {data}"),
    ])
    def test_outputs_may_not_overwrite_inputs(self, tmp_path, capsys, data_name, trace_name,
                                              clash):
        data = write_cluster_data(tmp_path, data_name)
        test = write_pool(tmp_path, "test.csv")
        trace = tmp_path / trace_name
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["fit", "--data", str(data), "--method", "soft", "--test", str(test),
                        "--trace", str(trace)])
        assert_clash_refused(code, capsys, clash.format(data=data, test=test, trace=trace),
                             tmp_path, before)

    @pytest.mark.parametrize("method", ["supervised", "soft", "hard"])
    def test_test_file_with_unlabeled_rows_is_refused(self, tmp_path, capsys, method):
        # Scoring such a file would silently drop its 40 unlabeled rows.
        data = write_cluster_data(tmp_path, unlabeled=40)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["fit", "--data", str(data), "--method", method, "--test", str(data),
                        "--trace", str(tmp_path / "trace.csv")])
        assert_unlabeled_test_refused(code, capsys, data, 40, tmp_path, before)

    def test_test_file_of_another_width_is_refused(self, tmp_path, capsys):
        # The fit used to run and print its summary before the width clash.
        data = write_cluster_data(tmp_path, unlabeled=30)
        test = write_pool(tmp_path, "test.csv")
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["fit", "--data", str(data), "--method", "soft", "--test", str(test),
                        "--trace", str(tmp_path / "trace.csv")])
        assert_test_refused(code, capsys, f"{test}: --test input has 2 feature columns, "
                            "but --data has 1", tmp_path, before)

    def test_empty_test_path_is_a_missing_file(self, tmp_path, capsys):
        # An empty path used to count as no --test at all: the fit ran and exited 0.
        data = write_cluster_data(tmp_path)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["fit", "--data", str(data), "--method", "soft", "--test", ""])
        assert_empty_test_path_refused(code, capsys, tmp_path, before)

    @pytest.mark.parametrize("cap", [4, 5])
    def test_hard_fit_converging_at_the_cap(self, tmp_path, capsys, monkeypatch, cap):
        # The hard fit on these overlapping clusters stops on stable labels
        # after 5 rounds. At a cap of 5 it reports that, as the uncapped
        # fit does, with no warning; at 4 it stops at the cap and warns.
        path = tmp_path / "g.csv"
        assert run_cli(["generate", "--seed", "2", "--unlabeled", "400",
                        "--separation", "1.0", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert run_cli(["fit", "--data", str(path), "--method", "hard"]) == EXIT_OK
        uncapped = capsys.readouterr().out
        monkeypatch.setattr(cli, "SolverConfig", lambda: SolverConfig(max_iterations=cap))
        assert run_cli(["fit", "--data", str(path), "--method", "hard"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert f"iterations = {cap}" in lines
        if cap == 5:
            assert captured.out == uncapped
            assert "converged = True" in lines and "stop_reason = labels-stable" in lines
            assert captured.err == ""
        else:
            assert "converged = False" in lines and "stop_reason = max-iterations" in lines
            assert captured.err == (
                "warning: hard fit stopped at the round cap of 4 rounds before converging\n"
            )

    def test_round_cap_warning_on_stderr_only(self, tmp_path, capsys, monkeypatch):
        # The soft fit of these overlapping clusters takes 10 Newton rounds,
        # so a cap of 5 stops it; the hard fit on them converges.
        path = tmp_path / "overlap.csv"
        assert run_cli([
            "generate", "--kind", "two-gaussian-2d", "--seed", "0",
            "--unlabeled", "1000", "--out", str(path),
        ]) == EXIT_OK
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "SolverConfig", lambda: SolverConfig(max_iterations=5))
            assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "stop_reason = max-iterations" in captured.out
        assert "warning" not in captured.out
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning:") and "5 rounds" in warnings[0]
        assert run_cli(["fit", "--data", str(path), "--method", "hard"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "stop_reason = labels-stable" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("generate, command, line", [
        pytest.param(["--unlabeled", "20000"],
                     ["fit", "--method", "soft", "--lambda", "0", "--trace", "trace.csv"],
                     b"stop_reason = clamped-set-stable", id="fit-soft-lambda0"),
        pytest.param(["--unlabeled", "20000"],
                     ["fit", "--method", "soft", "--lambda", "1", "--trace", "trace.csv"],
                     b"stop_reason = clamped-set-stable", id="fit-soft-lambda1"),
        pytest.param(["--unlabeled", "20000"], ["diagnose"],
                     b"responsibility_witness_value = -", id="diagnose-20k-unlabeled"),
        pytest.param(["--labeled-per-class", "10000", "--unlabeled", "20"], ["diagnose"],
                     b"optimality_gap = ", id="diagnose-20k-labeled"),
        pytest.param(["--unlabeled", "20000"],
                     ["basin", "--method", "soft", "--starts", "1", "--seed", "1",
                      "--out", "basin.csv", "--paths", "paths.csv"],
                     b"unique_optima = ", id="basin-soft-paths"),
    ])
    def test_outputs_are_the_same_at_one_and_two_blas_threads(
        self, tmp_path, generate, command, line
    ):
        # Each run is a fresh interpreter, as BLAS reads its thread count
        # once. OpenBLAS splits a 20,000-term dot across its threads, so an
        # objective, witness or oracle table summed through BLAS would
        # differ in its last bits; every file a run writes is compared.
        data = tmp_path / "data.csv"
        assert run_cli(["generate", *generate, "--seed", "1", "--out", str(data)]) == EXIT_OK
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            work = tmp_path / f"threads{threads}"
            work.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-m", "sslsq", command[0], "--data", str(data), *command[1:]],
                capture_output=True, cwd=work, env=env, timeout=120, check=True)
            written = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
            runs.append((done.stdout, done.stderr, written))
        assert line in runs[0][0]
        assert runs[0][2] or command[0] == "diagnose"
        assert runs[0] == runs[1]

    def test_oracle_needs_truth_column(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("x0,label\n0.0,0\n1.0,1\n2.0,\n")
        assert run_cli(["fit", "--data", str(path), "--method", "oracle"]) == EXIT_PARSE
        assert "true_label" in capsys.readouterr().err

    @pytest.mark.parametrize("body, location", [
        ("0.0,1.0,0\n1.0,nan,1\n2.0,3.0,\n", "row 2, column 2"),
        ("0.0,1.0,0\n1.0,2.0,1\ninf,3.0,\n", "row 3, column 1"),
    ])
    def test_non_finite_feature_is_parse_error(self, tmp_path, capsys, body, location):
        path = tmp_path / "nonfinite.csv"
        path.write_text("x0,x1,label\n" + body)
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_PARSE
        assert location in capsys.readouterr().err

    def test_undecodable_byte_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x0,label\n1.0,0\n\xff2.0,1\n3.0,\n")
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "row 2, column 1" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_overlong_quoted_field_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_bytes(b'x0,label\n"' + b"1" * 140_000 + b'",0\n2.0,1\n3.0,\n')
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "row 1" in err and "field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content, name, column", [
        ("x0,label,label\n0.0,0,0\n1.0,1,1\n2.0,,\n", "label", 3),
        ("x0,label,true_label,true_label\n0.0,0,0,0\n1.0,1,1,1\n2.0,,1,1\n", "true_label", 4),
    ], ids=["label", "true_label"])
    def test_duplicate_label_column_is_parse_class(self, tmp_path, capsys, content, name, column):
        path = tmp_path / "dup.csv"
        path.write_text(content)
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert f"header, column {column}: duplicate column {name!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content", [
        "x0;label\n1.5;0\n2.5;\n3.5;1\n",
        "x0\tx1\tlabel\n1.0\t2.0\t0\n3.0\t4.0\t\n5.0\t6.0\t1\n",
        "1.0,2.0,1\n3.0,4.0,\n5.0,6.0,0\n",
    ], ids=["semicolon", "tab", "no-header"])
    def test_other_dialects_are_refused(self, tmp_path, capsys, content):
        path = tmp_path / "dialect.csv"
        path.write_text(content)
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_PARSE
        assert "missing label column 'label'" in capsys.readouterr().err

    def test_oracle_uses_truth_column(self, tmp_path, capsys):
        data = write_cluster_data(tmp_path, unlabeled=20)
        capsys.readouterr()
        assert run_cli(["fit", "--data", str(data), "--method", "oracle"]) == EXIT_OK
        out = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
            if " = " in line
        )
        # The oracle solves the pooled system with the hidden labels.
        from sslsq import load_csv, ridge_solve

        loaded, truth = load_csv(data)
        pooled = np.vstack([loaded.labeled_features, loaded.unlabeled_features])
        targets = np.concatenate([loaded.labels, truth])
        expected = ridge_solve(pooled, targets, 0.0)
        reported = np.array([float(v) for v in out["weights"].split(",")])
        np.testing.assert_allclose(reported, expected, atol=1e-12)

    def test_test_error_reported(self, tmp_path, capsys):
        data = write_cluster_data(tmp_path)
        test = write_pool(tmp_path, "test.csv", n=20, seed=9, kind="two-cluster-1d")
        assert run_cli([
            "fit", "--data", str(data), "--method", "hard", "--test", str(test),
        ]) == EXIT_OK
        assert "test_error = " in capsys.readouterr().out


class TestDiagnose:
    def test_reports_verdicts_and_gap(self, tmp_path, capsys):
        path = write_cluster_data(tmp_path, unlabeled=8)
        assert run_cli(["diagnose", "--data", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "label_hessian_psd = False" in out
        assert "label_hessian_min_diagonal = -2.0" in out
        assert "responsibility_witness_value = -" in out
        gap = float(next(
            line.split(" = ")[1] for line in out.splitlines()
            if line.startswith("optimality_gap")
        ))
        assert gap >= -1e-9

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,label\nabc,1\n")
        assert run_cli(["diagnose", "--data", str(bad)]) == EXIT_PARSE

    def test_missing_file_is_parse_class(self, tmp_path):
        assert run_cli(["diagnose", "--data", str(tmp_path / "nope.csv")]) == EXIT_PARSE

    def test_handler_rebound_after_parser_is_built_is_called(self, tmp_path, monkeypatch):
        path = write_cluster_data(tmp_path, unlabeled=8)
        assert run_cli(["diagnose", "--data", str(path)]) == EXIT_OK
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_diagnose", lambda args: seen.append(args.data) or 42)
        assert run_cli(["diagnose", "--data", str(path)]) == 42
        assert seen == [str(path)]

    def test_no_unlabeled_rows_is_numerical_class(self, tmp_path, capsys):
        pool = write_pool(tmp_path, n=10)
        capsys.readouterr()
        assert run_cli(["diagnose", "--data", str(pool)]) == EXIT_NUMERICAL
        # Refused before any line of the report is printed.
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: diagnostics need at least one unlabeled row\n"

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    def test_overflow_is_refused_before_any_output(self, tmp_path, capsys, scale):
        # The feature column times 1e80 overflows the responsibility form,
        # and times 1e160 the weights' block too. Either exits 5 before the
        # first line, not with a witness of "none (... form = nan)", and
        # numpy raises no warning on the way.
        scaled = write_scaled_generated(tmp_path, scale)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["diagnose", "--data", str(scaled)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows" in captured.err
        assert captured.err.count("\n") == 1

    def test_weight_block_overflow_is_refused_before_any_output(self, tmp_path, capsys):
        # Only labeled rows reach 1e160, so the witness's direction, an
        # unlabeled row, has a finite form. The weight block 2 X_e'X_e
        # overflows all the same, and is refused by name before the first
        # line, before the hard oracle would warn on the design's norm.
        path = tmp_path / "wide_labeled.csv"
        path.write_text("x0,x1,label\n1e160,1,0\n-1e160,2,1\n0,3,\n0,-1,\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["diagnose", "--data", str(path)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the hessian's weight block overflows double precision\n"

    @pytest.mark.parametrize("k, witness", [
        (0, -5879.91578455543),
        (3, -5838287981052929.0),
        (4, -5.838288026961364e19),
        (8, -5.838288027425088e35),
        (76, -5.838288027425092e307),
    ])
    def test_verdicts_do_not_depend_on_feature_scale(self, tmp_path, capsys, k, witness):
        # Both Hessians have a witness at every scale, so both verdicts
        # read False. A -1e-8 * ||H|| eigenvalue tolerance said True beside
        # that witness from 10^3 (responsibility) and 10^4 (label) on.
        scaled = write_scaled_generated(tmp_path, 10.0**k)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["diagnose", "--data", str(scaled)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        witness_line = lines.pop(6)
        assert witness_line.startswith("responsibility_witness_value = ")
        assert float(witness_line.split(" = ")[1]) == pytest.approx(witness, rel=1e-12)
        assert lines == [
            "labeled = 4",
            "unlabeled = 40",
            "label_hessian_psd = False",
            "label_hessian_min_diagonal = -2.0",
            "label_witness_value = -2.0",
            "responsibility_hessian_psd = False",
            "brute_force_objective = skipped (U > 20)",
        ]

    def test_hard_oracle_does_not_depend_on_feature_units(self, tmp_path, capsys):
        # The oracle's label columns come from the orthonormal basis of the
        # ridge SVD, so their vanishing cutoff needs no design norm. Scaled
        # by that norm it fixed labels that move the objective on x0 times
        # 1e-13, and printed a "global minimum" above the local fit.
        plain = tmp_path / "plain.csv"
        assert run_cli(["generate", "--unlabeled", "20", "--seed", "1",
                        "--out", str(plain)]) == EXIT_OK
        header, *rows = plain.read_text().splitlines()
        scaled = tmp_path / "scaled.csv"
        pairs = (row.split(",", 1) for row in rows)
        scaled.write_text("\n".join([header] + [f"{float(x0) * 1e-13!r},{rest}"
                                                for x0, rest in pairs]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["diagnose", "--data", str(scaled)]) == EXIT_OK
        values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert values["brute_force_objective"] == values["hard_from_supervised_objective"]
        assert float(values["optimality_gap"]) >= 0.0

    @pytest.mark.parametrize("scale", [1e-170, 1e-120])
    def test_underflow_is_refused_before_any_output(self, tmp_path, capsys, scale):
        # Nonzero unlabeled features whose witness underflows exit 5: not
        # "none (unlabeled features are all zero ...)" beside a False
        # verdict at 1e-170, and not a witness said to overflow at 1e-120.
        path = tmp_path / "tiny.csv"
        path.write_text(f"x0,label\n1.0,0\n2.0,1\n3.0,1\n{scale!r},\n{2 * scale!r},\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["diagnose", "--data", str(path), "--no-intercept"])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the responsibility witness underflows")
        assert captured.err.count("\n") == 1

    def test_verdicts_come_without_the_dense_psd_test(self, tmp_path, capsys, monkeypatch):
        path = write_cluster_data(tmp_path, unlabeled=396)
        data, _ = load_csv(path)
        expected = [is_psd(build_hessian(data, kind).matrix) for kind in HessianKind]

        def refuse(*args, **kwargs):
            raise AssertionError("diagnose took a verdict from the dense matrix")

        built = []

        def counting_build(data, kind, lam=0.0):
            built.append(kind)
            return build_hessian(data, kind, lam)

        def no_factorization(*args, **kwargs):
            raise AssertionError("diagnose took a verdict from a factorization")

        monkeypatch.setattr(cli, "is_psd", refuse, raising=False)
        monkeypatch.setattr(cli, "build_hessian", refuse, raising=False)
        monkeypatch.setattr(diagnostics, "is_psd", refuse)
        monkeypatch.setattr(diagnostics, "build_hessian", counting_build)
        monkeypatch.setattr(np.linalg, "qr", no_factorization)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_factorization)
        capsys.readouterr()
        assert run_cli(["diagnose", "--data", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"label_hessian_psd = {expected[0]}" in out
        assert "label_hessian_min_diagonal = -2.0" in out
        assert f"responsibility_hessian_psd = {expected[1]}" in out
        assert "responsibility_witness_value = -" in out
        # Neither verdict nor witness builds the dense matrix, and the
        # verdicts are read off its block form with no QR or eigenvalues.
        assert built == []

    def test_memory_is_linear_in_unlabeled_count(self, tmp_path, capsys, monkeypatch):
        # At U = 20,000 the dense (d+U)^2 matrix alone would take 3.2 GB.
        path = tmp_path / "big.csv"
        generated = run_cli(["generate", "--unlabeled", "20000", "--seed", "1", "--out", str(path)])
        assert generated == EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("diagnose built or tested the dense matrix")

        monkeypatch.setattr(diagnostics, "build_hessian", refuse)
        monkeypatch.setattr(diagnostics, "is_psd", refuse)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run_cli(["diagnose", "--data", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "unlabeled = 20000" in out
        assert "responsibility_witness_value = -" in out
        assert out.endswith("brute_force_objective = skipped (U > 20)\n")
        assert peak < 16e6

    @pytest.mark.parametrize("unlabeled", [20, 396])
    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_lambda_is_refused_before_any_output(self, tmp_path, capsys, unlabeled, lam):
        # Refused up front: not read as lam = 0 (U = 396), and not after the
        # verdict lines are out (U = 20).
        path = write_cluster_data(tmp_path, unlabeled=unlabeled)
        capsys.readouterr()
        assert run_cli(["diagnose", "--data", str(path), "--lambda", lam]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ridge penalty")
        assert captured.err.count("\n") == 1

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        # diagnose draws no random numbers and writes no manifest.
        path = write_cluster_data(tmp_path, unlabeled=8)
        assert run_cli(["diagnose", "--data", str(path), "--seed", "1"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def csv_text(rows):
    """A report's text from its header and rows of Python values, floats by ``repr``."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def duplicating(real):
    """``random_init_near_supervised`` with its starts 0, 1 and 2 repeated."""
    def starts(*args):
        return real(*args)[[0, 1, 0, 2, 1, 0]]
    return starts


def basin_reference(data, truth, starts, method):
    """The basin report and ``.agg`` text, from lone fits of the supervised start and ``starts``."""
    fits = [fit_starts(data, [w], method)[0]
            for w in [ridge_solve(data.labeled_features, data.labels), *starts]]
    errors = [evaluate_error(fit.weights, data.unlabeled_features, truth) for fit in fits]
    count, ids = count_unique_optima([fit.weights for fit in fits])
    report = [["start", "init", "iterations", "converged", "stop_reason", "final_objective",
               "test_error", "optimum", "status", "w_0", "w_1"]]
    for i, (fit, error) in enumerate(zip(fits, errors)):
        report.append([i - 1, "random" if i else "supervised", fit.iterations,
                       fit.trace.converged, fit.trace.stop_reason.value,
                       repr(fit.final_objective), repr(error), ids[i], "ok",
                       *map(repr, fit.weights.tolist())])
    agg = [["optimum", "size", "objective", "mean_test_error", "w_0", "w_1"]]
    ties = 0
    for k in range(count):
        members = [i for i in range(len(fits)) if ids[i] == k]
        best = min(members, key=lambda i: (fits[i].final_objective, i))
        ties += sum(fits[i].final_objective == fits[best].final_objective for i in members) > 1
        agg.append([k, len(members), repr(fits[best].final_objective),
                    repr(float(np.mean([errors[i] for i in members]))),
                    *map(repr, fits[best].weights.tolist())])
    return csv_text(report), csv_text(agg), ties


class TestBasin:
    @pytest.mark.parametrize("method", ["soft", "hard"])
    def test_label_only_file_without_intercept_has_one_optimum(self, tmp_path, capsys, method):
        # With no feature column and no intercept every weight vector is
        # empty, so every run ends at the one optimum.
        data = tmp_path / "labels.csv"
        data.write_text('label\n1\n0\n1\n""\n""\n""\n')
        out = tmp_path / "b.csv"
        assert run_cli(["basin", "--data", str(data), "--method", method, "--starts", "3",
                        "--seed", "1", "--no-intercept", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "unique_optima = 1\nruns = 4\n"
        assert [row.split(",")[7] for row in out.read_text().splitlines()[1:]] == ["0"] * 4
        aggregate = (tmp_path / "b.agg.csv").read_text().splitlines()
        assert aggregate[0] == "optimum,size,objective,mean_test_error"
        assert len(aggregate) == 2 and aggregate[1].startswith("0,4,")

    @pytest.mark.parametrize("method", ["soft", "hard"])
    def test_report_and_aggregate_equal_lone_references(self, tmp_path, monkeypatch, method):
        # Starts 0, 1 and 2 run more than once, so their optima hold runs
        # of equal objective: a tie in the .agg rule.
        path = write_cluster_data(tmp_path, unlabeled=40)
        data, truth = load_csv(path)
        starts = duplicating(random_init_near_supervised)
        monkeypatch.setattr(experiments, "random_init_near_supervised", starts)
        out = tmp_path / "b.csv"
        assert run_cli(["basin", "--data", str(path), "--method", method, "--starts", "3",
                        "--seed", "4", "--out", str(out)]) == EXIT_OK
        report, agg, ties = basin_reference(data, truth, starts(data, 0.0, 3, 1.0, 4), method)
        assert ties
        assert out.read_text() == report
        assert (tmp_path / "b.agg.csv").read_text() == agg

    @pytest.mark.parametrize("method", ["soft", "hard"])
    def test_aggregate_tie_goes_to_the_earliest_start(self, tmp_path, monkeypatch, method):
        # Runs from one start tie in their objective and share their bits.
        # Every later run of a tie gets its weights nudged, so an .agg row
        # shows the earliest run's unnudged weights only if the tie goes
        # to it.
        path = write_cluster_data(tmp_path, unlabeled=40)
        data, truth = load_csv(path)
        starts = duplicating(random_init_near_supervised)
        study = experiments.run_basin_study

        def nudged(*args, **kwargs):
            result = study(*args, **kwargs)
            seen = set()
            for i, fit in enumerate(result.fits):
                key = (int(result.optimum_ids[i]), fit.final_objective)
                if key in seen:
                    result.fits[i] = dataclasses.replace(fit, weights=fit.weights * (1 + 1e-9))
                seen.add(key)
            return result

        monkeypatch.setattr(experiments, "random_init_near_supervised", starts)
        monkeypatch.setattr(experiments, "run_basin_study", nudged)
        out = tmp_path / "b.csv"
        assert run_cli(["basin", "--data", str(path), "--method", method, "--starts", "3",
                        "--seed", "4", "--out", str(out)]) == EXIT_OK
        _, agg, ties = basin_reference(data, truth, starts(data, 0.0, 3, 1.0, 4), method)
        assert ties
        assert (tmp_path / "b.agg.csv").read_text() == agg

    def test_row_count_and_determinism(self, tmp_path):
        data = write_cluster_data(tmp_path, unlabeled=60)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["basin", "--data", str(data), "--method", "hard", "--starts", "10",
                "--seed", "1"]
        assert run_cli(base + ["--out", str(out_a)]) == EXIT_OK
        assert run_cli(base + ["--out", str(out_b), "--threads", "3"]) == EXIT_OK
        # 10 random starts + 1 supervised start + header.
        lines = out_a.read_text().splitlines()
        assert len(lines) == 12
        assert [line.split(",")[:2] for line in lines] == (
            [["start", "init"], ["-1", "supervised"]] + [[str(i), "random"] for i in range(10)]
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()
        manifest_a = (tmp_path / "a.manifest.txt").read_text()
        manifest_b = (tmp_path / "b.manifest.txt").read_text()
        assert manifest_a == manifest_b
        assert "threads" not in manifest_a

    def test_seed_required(self, tmp_path):
        data = write_cluster_data(tmp_path)
        code = run_cli(["basin", "--data", str(data), "--method", "hard",
                        "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("starts", ["0", "-1"])
    def test_no_starts_is_refused_by_its_option(self, tmp_path, capsys, starts):
        data = write_cluster_data(tmp_path)
        out = tmp_path / "o.csv"
        assert run_cli(["basin", "--data", str(data), "--method", "hard", "--starts", starts,
                        "--seed", "1", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --starts must be at least 1\n"
        assert not out.exists()

    def test_paths_file(self, tmp_path):
        data = write_cluster_data(tmp_path, unlabeled=30)
        out = tmp_path / "o.csv"
        paths = tmp_path / "paths.csv"
        assert run_cli([
            "basin", "--data", str(data), "--method", "soft", "--starts", "3",
            "--seed", "1", "--out", str(out), "--paths", str(paths),
        ]) == EXIT_OK
        lines = paths.read_text().splitlines()
        assert lines[0].startswith("start,iteration,objective")
        assert len(lines) > 4

    @pytest.mark.parametrize("out_name, paths_name, clash", [
        ("r.csv", "r.csv", "--paths {paths} is the same file as --out {out}"),
        ("r.csv", "r.agg.csv", "--paths {paths} is the same file as aggregate {paths}"),
        ("r.csv", "r.manifest.txt", "--paths {paths} is the same file as manifest {paths}"),
        ("r.csv", "test.csv", "--paths {paths} is the same file as --test {test}"),
        ("d.csv", None, "--out {out} is the same file as --data {data}"),
    ])
    def test_outputs_may_not_overwrite_inputs_or_each_other(self, tmp_path, capsys, out_name,
                                                            paths_name, clash):
        data = write_cluster_data(tmp_path, "d.csv", unlabeled=30)
        test = write_pool(tmp_path, "test.csv")
        out = tmp_path / out_name
        argv = ["basin", "--data", str(data), "--method", "soft", "--starts", "3",
                "--seed", "1", "--test", str(test), "--out", str(out)]
        paths = None
        if paths_name is not None:
            paths = tmp_path / paths_name
            argv += ["--paths", str(paths)]
        before = snapshot(tmp_path)
        capsys.readouterr()
        assert_clash_refused(run_cli(argv), capsys,
                             clash.format(data=data, test=test, out=out, paths=paths),
                             tmp_path, before)

    def test_test_file_with_unlabeled_rows_is_refused(self, tmp_path, capsys):
        data = write_cluster_data(tmp_path, "d.csv", unlabeled=30)
        test = write_cluster_data(tmp_path, "test.csv", seed=8, unlabeled=12)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["basin", "--data", str(data), "--method", "soft", "--starts", "3",
                        "--seed", "1", "--test", str(test), "--out", str(tmp_path / "o.csv"),
                        "--paths", str(tmp_path / "p.csv")])
        assert_unlabeled_test_refused(code, capsys, test, 12, tmp_path, before)

    def test_test_file_of_another_width_is_refused(self, tmp_path, capsys):
        data = write_cluster_data(tmp_path, "d.csv", unlabeled=30)
        test = write_pool(tmp_path, "test.csv")
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["basin", "--data", str(data), "--method", "soft", "--starts", "3",
                        "--seed", "1", "--test", str(test), "--out", str(tmp_path / "o.csv")])
        assert_test_refused(code, capsys, f"{test}: --test input has 2 feature columns, "
                            "but --data has 1", tmp_path, before)

    def test_empty_test_path_is_a_missing_file(self, tmp_path, capsys):
        # An empty path used to count as no --test at all: the study ran and wrote its report.
        data = write_cluster_data(tmp_path, "d.csv", unlabeled=30)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["basin", "--data", str(data), "--method", "hard", "--starts", "3",
                        "--seed", "1", "--test", "", "--out", str(tmp_path / "o.csv")])
        assert_empty_test_path_refused(code, capsys, tmp_path, before)

    @pytest.mark.parametrize("scale", ["inf", "nan", "0"])
    def test_non_finite_or_nonpositive_scale_is_usage_error(self, tmp_path, capsys, scale):
        data = write_cluster_data(tmp_path)
        out = tmp_path / "o.csv"
        code = run_cli(["basin", "--data", str(data), "--method", "hard", "--starts", "3",
                        "--scale", scale, "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "scale must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_scale_is_usage_error(self, tmp_path, capsys):
        # A finite scale whose restart cloud overflows is refused by name,
        # with no numpy warning, before any file is written.
        data = write_cluster_data(tmp_path, unlabeled=20)
        before = snapshot(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["basin", "--data", str(data), "--method", "soft", "--starts", "20",
                            "--seed", "3", "--scale", "1e308", "--out", str(tmp_path / "s.csv")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == "error: scale 1e+308 overflows the restart cloud\n"
        assert captured.out == ""
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 2.5e16, 1.0 / 3.0, float("inf"),
                                       float("nan")])
    def test_float_fields_render_alike_from_python_and_numpy(self, value):
        # Path rows hold Python floats, report rows numpy floats.
        assert _fmt(value) == _fmt(np.float64(value))


def local_optima_reference(paths, restarts, seed):
    """The local-optima report and ``.agg`` text, from lone fits and errors on each split.

    Dataset i's split is drawn from ``derive_rng(seed, i, 0)`` and its
    starts from ``derive_rng(seed, i, 1)``; a dataset whose split is
    degenerate gets one skipped row, after every fitted dataset's rows.
    """
    report = [["dataset", "method", "init", "start", "error", "status"]]
    agg = [["dataset", "method", "supervised_error", "from_supervised_error",
            "random_mean_error", "random_std_error", "unique_minima"]]
    skipped = []
    for position, path in enumerate(paths):
        name = path.stem
        data, _ = load_csv(path)
        try:
            split = split_for_local_optima(data, derive_rng(seed, position, 0))
        except DegenerateSplitError as exc:
            skipped.append([name, "", "", "", "", f"skipped: {exc}"])
            continue
        train = split.train
        w_sup = ridge_solve(train.labeled_features, train.labels)
        starts = random_init_near_supervised(train, 0.0, restarts, 1.0,
                                             derive_rng(seed, position, 1))

        def error(w):
            return evaluate_error(w, split.test_features, split.test_labels)

        finals = {method: [fit_starts(train, [w], method)[0].weights for w in [w_sup, *starts]]
                  for method in ("soft", "hard")}
        errors = {method: [error(w) for w in finals[method]] for method in finals}
        report.append([name, "supervised", "supervised", -1, repr(error(w_sup)), "ok"])
        report += [[name, method, "supervised", -1, repr(errors[method][0]), "ok"]
                   for method in finals]
        report += [[name, method, "random", start, repr(e), "ok"]
                   for method in finals for start, e in enumerate(errors[method][1:])]
        for method in finals:
            randoms = errors[method][1:]
            std_error = (repr(float(np.std(randoms, ddof=1) / np.sqrt(restarts)))
                         if restarts > 1 else "")
            agg.append([name, method, repr(error(w_sup)), repr(errors[method][0]),
                        repr(float(np.mean(randoms))), std_error,
                        count_unique_optima(finals[method])[0]])
    return csv_text(report + skipped), csv_text(agg)


class TestLocalOptima:
    def test_label_only_file_without_intercept_has_one_minimum_per_solver(self, tmp_path,
                                                                          capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(40)))
        out = tmp_path / "lo.csv"
        assert run_cli(["local-optima", "--data", str(data), "--restarts", "3", "--seed", "1",
                        "--no-intercept", "--out", str(out)]) == EXIT_OK
        rows = (tmp_path / "lo.agg.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in rows] == ["unique_minima", "1", "1"]

    @pytest.mark.parametrize("restarts", [3, 1])
    def test_report_equals_lone_references(self, tmp_path, restarts):
        # Every report row and .agg field, from lone fits on each dataset's
        # split. The 4-row pool in the middle is always skipped and keeps
        # its position in the seed streams; with one restart there is no
        # standard error, so that field is blank.
        pools = [write_pool(tmp_path, "a.csv", n=50, seed=1), write_tiny_pool(tmp_path),
                 write_pool(tmp_path, "b.csv", n=50, seed=2)]
        out = tmp_path / "lo.csv"
        assert run_cli(["local-optima", "--data", *map(str, pools), "--restarts",
                        str(restarts), "--seed", "5", "--out", str(out)]) == EXIT_OK
        report, agg = local_optima_reference(pools, restarts, 5)
        assert report.splitlines()[-1].startswith("tiny,,,,,skipped: ")
        assert out.read_text() == report
        assert (tmp_path / "lo.agg.csv").read_text() == agg
        std_errors = [line.split(",")[5] for line in agg.splitlines()[1:]]
        assert len(std_errors) == 4
        assert all((field == "") == (restarts == 1) for field in std_errors)

    def test_every_dataset_skipped_writes_a_header_only_aggregate(self, tmp_path, capsys):
        tiny = write_tiny_pool(tmp_path)
        out = tmp_path / "lo.csv"
        capsys.readouterr()
        assert run_cli(["local-optima", "--data", str(tiny), "--restarts", "2",
                        "--seed", "5", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "datasets = 0\nskipped = 1\n"
        report, agg = local_optima_reference([tiny], 2, 5)
        assert out.read_text() == report
        assert (tmp_path / "lo.agg.csv").read_text() == agg == (
            "dataset,method,supervised_error,from_supervised_error,random_mean_error,"
            "random_std_error,unique_minima\n")

    def test_report_shape(self, tmp_path):
        a = write_pool(tmp_path, "a.csv", n=50, seed=1)
        b = write_pool(tmp_path, "b.csv", n=50, seed=2)
        out = tmp_path / "lo.csv"
        assert run_cli([
            "local-optima", "--data", str(a), str(b), "--restarts", "2",
            "--seed", "5", "--out", str(out),
        ]) == EXIT_OK
        lines = out.read_text().splitlines()
        # Per dataset: supervised + 2 from-supervised + 2 methods x 2 restarts.
        assert len(lines) == 1 + 2 * (3 + 4)
        expected = [["dataset", "method", "init", "start"]]
        for name in ("a", "b"):
            expected.append([name, "supervised", "supervised", "-1"])
            expected += [[name, method, "supervised", "-1"] for method in ("soft", "hard")]
            expected += [[name, method, "random", str(i)]
                         for method in ("soft", "hard") for i in range(2)]
        assert [line.split(",")[:4] for line in lines] == expected
        agg = (tmp_path / "lo.agg.csv").read_text().splitlines()
        assert len(agg) == 1 + 2 * 2

    def test_rejects_partially_labeled_input(self, tmp_path):
        data = write_cluster_data(tmp_path)
        code = run_cli(["local-optima", "--data", str(data), "--seed", "1",
                        "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_rejects_repeated_file_stems(self, tmp_path, capsys):
        # Datasets are named by file stem; a second file of the same stem
        # would silently replace the first.
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        a = write_pool(tmp_path / "d1", n=50, seed=1)
        b = write_pool(tmp_path / "d2", n=50, seed=2)
        out = tmp_path / "lo.csv"
        code = run_cli(["local-optima", "--data", str(a), str(b), "--restarts", "2",
                        "--seed", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{a} and {b} share the dataset name 'pool'" in err
        assert not out.exists()

    @pytest.mark.parametrize("stem", ["p,q", 'p"q', "p\nq", "p\rq"],
                             ids=["comma", "quote", "lf", "cr"])
    def test_rejects_stems_a_report_field_cannot_hold(self, tmp_path, capsys, stem):
        # The stem is the report's dataset field, which is never quoted.
        a = write_pool(tmp_path, "a.csv", n=50, seed=1)
        try:
            bad = write_pool(tmp_path, f"{stem}.csv", n=50, seed=2)
        except OSError:
            pytest.skip(f"the file system refuses the name {stem!r}")
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["local-optima", "--data", str(a), str(bad), "--restarts", "2",
                        "--seed", "5", "--out", str(tmp_path / "lo.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "may not hold a comma, quote or line break" in err
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("out_name, clash", [
        ("b.csv", "--out {out} is the same file as --data {b}"),
        ("lo.csv", "aggregate {agg} is the same file as --data {agg}"),
    ])
    def test_outputs_may_not_overwrite_inputs(self, tmp_path, capsys, out_name, clash):
        a = write_pool(tmp_path, "lo.agg.csv", n=50, seed=1)
        b = write_pool(tmp_path, "b.csv", n=50, seed=2)
        out = tmp_path / out_name
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["local-optima", "--data", str(a), str(b), "--restarts", "2",
                        "--seed", "5", "--out", str(out)])
        assert_clash_refused(code, capsys, clash.format(out=out, b=b, agg=a), tmp_path, before)

    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda", "-1", "ridge penalty must be a finite nonnegative real, got -1.0"),
        ("--lambda", "nan", "ridge penalty must be a finite nonnegative real, got nan"),
        ("--lambda", "inf", "ridge penalty must be a finite nonnegative real, got inf"),
        ("--scale", "-1", "scale must be positive and finite"),
        ("--scale", "0", "scale must be positive and finite"),
        ("--scale", "nan", "scale must be positive and finite"),
    ])
    def test_bad_lambda_or_scale_is_refused_when_every_dataset_is_skipped(
            self, tmp_path, capsys, flag, value, message):
        # The 4-row pool's split is degenerate, so its dataset is skipped
        # and no split reaches a solve that would check the value.
        path = write_tiny_pool(tmp_path)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["local-optima", "--data", str(path), "--restarts", "2",
                        flag, value, "--seed", "5", "--out", str(tmp_path / "lo.csv")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert snapshot(tmp_path) == before

    def test_infinite_scale_is_usage_error(self, tmp_path, capsys):
        pool = write_pool(tmp_path, n=50)
        out = tmp_path / "lo.csv"
        code = run_cli(["local-optima", "--data", str(pool), "--restarts", "2",
                        "--scale", "inf", "--seed", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "scale must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestLearningCurve:
    def test_aggregate_row_count(self, tmp_path):
        pool = write_pool(tmp_path, n=60)
        out = tmp_path / "lc.csv"
        assert run_cli([
            "learning-curve", "--data", str(pool), "--labeled", "8",
            "--u-values", "1,2,4", "--repeats", "5", "--seed", "2",
            "--out", str(out),
        ]) == EXIT_OK
        agg = (tmp_path / "lc.agg.csv").read_text().splitlines()
        assert len(agg) == 1 + 3 * 4
        cells = out.read_text().splitlines()
        assert len(cells) == 1 + 3 * 5 * 4

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_report_rows_follow_repeat_then_u_then_method(self, tmp_path, capsys, repeats):
        # In the 60-row pool, u = 0 leaves no unlabeled part and u = 52 no
        # test rows. Every row must be the lone reference's, in repeat, then
        # u, then method order, and the three counts give distinct sizes.
        # The aggregate rows are the lone columns' means and standard
        # errors, in u, then method order; one repeat has no standard error.
        path = write_pool(tmp_path, n=60)
        out = tmp_path / "lc.csv"
        u_values = [4, 0, 52]
        capsys.readouterr()
        assert run_cli(["learning-curve", "--data", str(path), "--labeled", "8",
                        "--u-values", "4,0,52", "--repeats", str(repeats), "--seed", "2",
                        "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"cells = {12 * repeats}\naggregates = 12\n"
        pool, _ = load_csv(path)
        errors, hashes, test_sizes, _ = lone_learning_curve(pool, 8, u_values, repeats, 0.0, 2,
                                                            SolverConfig())
        assert test_sizes == [48, 52, 0]
        lines = ["u,repeat,method,error,test_size,partition,status"]
        for repeat in range(repeats):
            for k, u in enumerate(u_values):
                for m, method in enumerate(METHODS):
                    error = errors[repeat, k, m]
                    lines.append(f"{u},{repeat},{method},{_fmt(error)},{test_sizes[k]},"
                                 f"{hashes[repeat][k]},{'empty-test' if np.isnan(error) else 'ok'}")
        assert out.read_text() == "\n".join(lines) + "\n"
        means, std_errors, used = column_aggregates(errors)

        def field(value):
            return "" if np.isnan(value) else repr(float(value))

        lines = ["u,method,mean_error,std_error,repeats_used"] + [
            f"{u},{method},{field(means[k, m])},{field(std_errors[k, m])},{used[k, m]}"
            for k, u in enumerate(u_values) for m, method in enumerate(METHODS)
        ]
        agg = (tmp_path / "lc.agg.csv").read_text()
        assert agg == "\n".join(lines) + "\n"
        assert [row.split(",")[3] == "" for row in lines[1:]] == [
            repeats == 1 or u == 52 for u in u_values for _ in METHODS]

    def test_label_only_file_without_intercept(self, tmp_path, capsys):
        # With no feature column and no intercept a split's design has no
        # entries, so the block rule may not divide by the entry count.
        # Every weight vector is empty, so every cell is the lone reference's.
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "1\n0\n" * 6)
        out = tmp_path / "lc.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["learning-curve", "--data", str(path), "--labeled", "4",
                            "--u-values", "0,2,4", "--repeats", "2", "--seed", "1",
                            "--no-intercept", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "cells = 24\naggregates = 12\n"
        pool, _ = load_csv(path, intercept=False)
        errors, *_ = lone_learning_curve(pool, 4, [0, 2, 4], 2, 0.0, 1, SolverConfig())
        cells = [row.split(",")[3] for row in out.read_text().splitlines()[1:]]
        assert cells == [_fmt(error) for error in errors.reshape(-1)]

    @pytest.mark.parametrize("alias", ["same", "relative", "symlink", "hardlink"])
    def test_output_may_not_overwrite_the_input(self, tmp_path, capsys, monkeypatch, alias):
        # Files are compared, not path strings, so another name of the
        # input file is refused as well.
        pool = write_pool(tmp_path, n=60)
        out = {"same": pool, "relative": "pool.csv", "symlink": tmp_path / "link.csv",
               "hardlink": tmp_path / "hard.csv"}[alias]
        if alias == "symlink":
            out.symlink_to(pool)
        if alias == "hardlink":
            out.hardlink_to(pool)
        monkeypatch.chdir(tmp_path)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(["learning-curve", "--data", str(pool), "--labeled", "8",
                        "--u-values", "1,2", "--repeats", "2", "--seed", "2",
                        "--out", str(out)])
        assert_clash_refused(code, capsys, f"--out {out} is the same file as --data {pool}",
                             tmp_path, before)

    def test_capacity_exit_code(self, tmp_path):
        pool = write_pool(tmp_path, n=20)
        code = run_cli([
            "learning-curve", "--data", str(pool), "--labeled", "8",
            "--u-values", "64", "--repeats", "2", "--seed", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_CAPACITY

    def test_capacity_is_checked_before_any_fit(self, tmp_path, capsys, monkeypatch):
        import sslsq.experiments as experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the counts were checked")

        monkeypatch.setattr(experiments, "_fit_stack", no_fit)
        pool = write_pool(tmp_path, n=600)
        out = tmp_path / "x.csv"
        code = run_cli([
            "learning-curve", "--data", str(pool), "--labeled", "10",
            "--u-values", "1,595", "--repeats", "2", "--seed", "2", "--out", str(out),
        ])
        assert code == EXIT_CAPACITY
        assert "requested 10 + 595 examples from 600" in capsys.readouterr().err
        assert not out.exists()

    def test_labeled_must_exceed_dimension(self, tmp_path):
        pool = write_pool(tmp_path, n=30)
        code = run_cli([
            "learning-curve", "--data", str(pool), "--labeled", "2",
            "--u-values", "1", "--repeats", "1", "--seed", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("u_values, message", [
        ("4,x", "--u-values: 'x' is not an integer"),
        ("4, 2.5", "--u-values: '2.5' is not an integer"),
        ("", "need at least one unlabeled count"),
        (" , ", "need at least one unlabeled count"),
        ("4,2,4", "unlabeled counts must be distinct; repeated: [4]"),
    ])
    def test_bad_u_values_are_usage_errors(self, tmp_path, capsys, u_values, message):
        pool = write_pool(tmp_path, n=60)
        out = tmp_path / "x.csv"
        code = run_cli([
            "learning-curve", "--data", str(pool), "--labeled", "8",
            "--u-values", u_values, "--repeats", "2", "--seed", "2", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_across_threads(self, tmp_path):
        pool = write_pool(tmp_path, n=60)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["learning-curve", "--data", str(pool), "--labeled", "8",
                "--u-values", "1,4", "--repeats", "4", "--seed", "2"]
        assert run_cli(base + ["--out", str(out_a)]) == EXIT_OK
        assert run_cli(base + ["--out", str(out_b), "--threads", "4"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("subcommand", ["basin", "local-optima", "learning-curve"])
    def test_seed_outside_64_unsigned_bits_is_usage_error(self, tmp_path, capsys, subcommand,
                                                          seed):
        # Every seed that draws random numbers keeps generate's rule.
        clusters = write_cluster_data(tmp_path)
        pool = write_pool(tmp_path)
        argv = {
            "basin": ["basin", "--data", str(clusters), "--method", "hard", "--starts", "3"],
            "local-optima": ["local-optima", "--data", str(pool), "--restarts", "2"],
            "learning-curve": ["learning-curve", "--data", str(pool), "--labeled", "8",
                               "--u-values", "1,2", "--repeats", "2"],
        }[subcommand]
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(argv + ["--seed", seed, "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_USAGE
        assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
        assert snapshot(tmp_path) == before


class TestImpossibleAllocation:
    @pytest.mark.parametrize("subcommand", ["basin", "local-optima", "learning-curve"])
    def test_count_too_large_to_hold_is_capacity_error(self, tmp_path, capsys, subcommand):
        # 10^16 repeats, starts or restarts need arrays of 10^17 bytes and
        # more, past any machine's address space, so numpy refuses them
        # before it writes a byte, and the test uses no memory.
        clusters = write_cluster_data(tmp_path)
        pool = write_pool(tmp_path)
        count = str(10**16)
        argv = {
            "basin": ["basin", "--data", str(clusters), "--method", "hard", "--starts", count],
            "local-optima": ["local-optima", "--data", str(pool), "--restarts", count],
            "learning-curve": ["learning-curve", "--data", str(pool), "--labeled", "8",
                               "--u-values", "1,2", "--repeats", count],
        }[subcommand]
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = run_cli(argv + ["--seed", "1", "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_CAPACITY
        assert err.startswith("error: ") and err.count("\n") == 1
        assert snapshot(tmp_path) == before


# Each error class a handler may raise, the exit code it gets and the text
# after "error: " on stderr. A MemoryError with no message, as numpy raises
# for an array the machine cannot map, still says why.
EXIT_CASES = [
    (ParseError("row 2: bad field", row=2, column=1), EXIT_PARSE, "row 2: bad field"),
    (SchemaError("missing label column"), EXIT_PARSE, "missing label column"),
    (FileNotFoundError(2, "No such file or directory", "x.csv"), EXIT_PARSE,
     "[Errno 2] No such file or directory: 'x.csv'"),
    (OSError("disk gone"), EXIT_PARSE, "disk gone"),
    (CapacityError("U > 20"), EXIT_CAPACITY, "U > 20"),
    (MemoryError(), EXIT_CAPACITY, "out of memory"),
    (MemoryError("Unable to allocate 8 EiB"), EXIT_CAPACITY, "Unable to allocate 8 EiB"),
    (DegenerateInputError("empty test set"), EXIT_NUMERICAL, "empty test set"),
    (DegenerateSplitError("one class"), EXIT_NUMERICAL, "one class"),
    (NoWitnessError("no witness"), EXIT_NUMERICAL, "no witness"),
    (InvalidInputError("bad seed"), EXIT_USAGE, "bad seed"),
    (DimensionError("wrong width"), EXIT_USAGE, "wrong width"),
    (Error("bare"), EXIT_NUMERICAL, "bare"),
]


class TestExitCodes:
    @pytest.mark.parametrize("error, code, message", EXIT_CASES,
                             ids=[type(error).__name__ for error, _, _ in EXIT_CASES])
    def test_each_error_class_has_its_exit_code(self, monkeypatch, capsys, error, code,
                                                message):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_diagnose", fail)
        assert run_cli(["diagnose", "--data", "unused.csv"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_other_exceptions_propagate(self, monkeypatch):
        def fail(args):
            raise ValueError("a bug, not an input error")

        monkeypatch.setattr(cli, "cmd_diagnose", fail)
        with pytest.raises(ValueError, match="a bug"):
            run_cli(["diagnose", "--data", "unused.csv"])


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestManifest:
    """Every line of each manifest: the subcommand, its seed if it draws
    random numbers, its sorted parameters and its inputs' hashes."""

    HEAD = ["format = sslsq-manifest-v1", f"tool = sslsq {__version__}"]

    def test_generate(self, tmp_path):
        assert run_cli(["generate", "--kind", "two-gaussian-2d", "--labeled-per-class", "3",
                        "--unlabeled", "5", "--separation", "2", "--noise-sd", "0.5",
                        "--seed", "11", "--no-intercept", "--out", str(tmp_path / "g.csv")]) == 0
        assert manifest_lines(tmp_path / "g.manifest.txt") == self.HEAD + [
            "subcommand = generate",
            "seed = 11",
            "param.intercept = False",
            "param.kind = two-gaussian-2d",
            "param.labeled_per_class = 3",
            "param.noise_sd = 0.5",
            "param.separation = 2.0",
            "param.unlabeled = 5",
        ]

    @pytest.mark.parametrize("with_test", [False, True], ids=["data", "data-and-test"])
    def test_fit_trace(self, tmp_path, capsys, with_test):
        data = write_cluster_data(tmp_path, unlabeled=8)
        argv = ["fit", "--data", str(data), "--method", "hard", "--lambda", "0.5",
                "--trace", str(tmp_path / "t.csv")]
        inputs = [f"input.data.sha256 = {sha256_of(data)}"]
        if with_test:
            test = write_cluster_data(tmp_path, "test.csv", seed=8, unlabeled=0)
            argv += ["--test", str(test)]
            inputs.append(f"input.test.sha256 = {sha256_of(test)}")
        assert run_cli(argv) == EXIT_OK
        # fit draws no random numbers, so it records no seed.
        assert manifest_lines(tmp_path / "t.manifest.txt") == self.HEAD + [
            "subcommand = fit",
            "param.intercept = True",
            "param.lambda = 0.5",
            "param.method = hard",
        ] + inputs

    @pytest.mark.parametrize("with_test", [False, True], ids=["data", "data-and-test"])
    def test_basin(self, tmp_path, capsys, with_test):
        data = write_cluster_data(tmp_path, unlabeled=8)
        argv = ["basin", "--data", str(data), "--method", "soft", "--starts", "3",
                "--scale", "0.5", "--lambda", "0.25", "--seed", "9", "--threads", "2",
                "--no-intercept", "--out", str(tmp_path / "b.csv")]
        inputs = [f"input.data.sha256 = {sha256_of(data)}"]
        if with_test:
            test = write_cluster_data(tmp_path, "test.csv", seed=8, unlabeled=0)
            argv += ["--test", str(test)]
            inputs.append(f"input.test.sha256 = {sha256_of(test)}")
        assert run_cli(argv) == EXIT_OK
        assert manifest_lines(tmp_path / "b.manifest.txt") == self.HEAD + [
            "subcommand = basin",
            "seed = 9",
            "param.intercept = False",
            "param.lambda = 0.25",
            "param.method = soft",
            "param.scale = 0.5",
            "param.starts = 3",
        ] + inputs

    def test_local_optima(self, tmp_path, capsys):
        # Inputs are named by their file stems, in sorted order.
        zeta = write_pool(tmp_path, "zeta.csv", seed=4)
        alpha = write_pool(tmp_path, "alpha.csv")
        assert run_cli(["local-optima", "--data", str(zeta), str(alpha), "--restarts", "2",
                        "--scale", "2", "--seed", "5", "--out", str(tmp_path / "lo.csv")]) == 0
        assert manifest_lines(tmp_path / "lo.manifest.txt") == self.HEAD + [
            "subcommand = local-optima",
            "seed = 5",
            "param.intercept = True",
            "param.lambda = 0.0",
            "param.restarts = 2",
            "param.scale = 2.0",
            f"input.alpha.sha256 = {sha256_of(alpha)}",
            f"input.zeta.sha256 = {sha256_of(zeta)}",
        ]

    def test_learning_curve(self, tmp_path, capsys):
        pool = write_pool(tmp_path)
        assert run_cli(["learning-curve", "--data", str(pool), "--labeled", "8",
                        "--u-values", "4, 0,,16", "--repeats", "2", "--lambda", "1e-3",
                        "--seed", "2", "--out", str(tmp_path / "lc.csv")]) == EXIT_OK
        assert manifest_lines(tmp_path / "lc.manifest.txt") == self.HEAD + [
            "subcommand = learning-curve",
            "seed = 2",
            "param.intercept = True",
            "param.labeled = 8",
            "param.lambda = 0.001",
            "param.repeats = 2",
            "param.u_values = 4,0,16",
            f"input.data.sha256 = {sha256_of(pool)}",
        ]
