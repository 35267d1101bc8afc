"""CLI subcommands: behavior, file outputs, exit codes and determinism."""

import tracemalloc

import numpy as np
import pytest

import sslsq.cli as cli
from sslsq import (
    HessianKind,
    SolverConfig,
    build_hessian,
    datagen,
    diagnostics,
    is_psd,
    load_csv,
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

from conftest import lone_learning_curve, rowwise_write_csv


def run_cli(args):
    """Invoke the CLI in-process; argparse usage errors become exit code 2."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


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

    def test_round_cap_warning_on_stderr_only(self, tmp_path, capsys):
        # Soft BCD on these overlapping clusters is still descending at the
        # default 1000-round cap; the hard fit on them converges.
        path = tmp_path / "overlap.csv"
        assert run_cli([
            "generate", "--kind", "two-gaussian-2d", "--seed", "0",
            "--unlabeled", "1000", "--out", str(path),
        ]) == EXIT_OK
        capsys.readouterr()
        assert run_cli(["fit", "--data", str(path), "--method", "soft"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "stop_reason = max-iterations" in captured.out
        assert "warning" not in captured.out
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning:") and "1000 rounds" in warnings[0]
        assert run_cli(["fit", "--data", str(path), "--method", "hard"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "stop_reason = labels-stable" in captured.out
        assert captured.err == ""

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

    def test_no_unlabeled_rows_is_numerical_class(self, tmp_path):
        pool = write_pool(tmp_path, n=10)
        assert run_cli(["diagnose", "--data", str(pool)]) == EXIT_NUMERICAL

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

        monkeypatch.setattr(cli, "is_psd", refuse, raising=False)
        monkeypatch.setattr(cli, "build_hessian", refuse, raising=False)
        monkeypatch.setattr(diagnostics, "is_psd", refuse)
        monkeypatch.setattr(diagnostics, "build_hessian", counting_build)
        capsys.readouterr()
        assert run_cli(["diagnose", "--data", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"label_hessian_psd = {expected[0]}" in out
        assert "label_hessian_min_diagonal = -2.0" in out
        assert f"responsibility_hessian_psd = {expected[1]}" in out
        # Only the responsibility witness still builds the dense matrix.
        assert built == [HessianKind.RESPONSIBILITY_BASED]

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


class TestBasin:
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

    @pytest.mark.parametrize("scale", ["inf", "nan", "0"])
    def test_non_finite_or_nonpositive_scale_is_usage_error(self, tmp_path, capsys, scale):
        data = write_cluster_data(tmp_path)
        out = tmp_path / "o.csv"
        code = run_cli(["basin", "--data", str(data), "--method", "hard", "--starts", "3",
                        "--scale", scale, "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "scale must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 2.5e16, 1.0 / 3.0, float("inf"),
                                       float("nan")])
    def test_float_fields_render_alike_from_python_and_numpy(self, value):
        # Path rows hold Python floats, report rows numpy floats.
        assert _fmt(value) == _fmt(np.float64(value))


class TestLocalOptima:
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
        path = tmp_path / "tiny.csv"
        assert run_cli(["generate", "--unlabeled", "0", "--seed", "3",
                        "--out", str(path)]) == EXIT_OK
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

    def test_report_rows_follow_repeat_then_u_then_method(self, tmp_path, capsys):
        # In the 60-row pool, u = 0 leaves no unlabeled part and u = 52 no
        # test rows. Every row must be the lone reference's, in repeat, then
        # u, then method order, and the three counts give distinct sizes.
        path = write_pool(tmp_path, n=60)
        out = tmp_path / "lc.csv"
        u_values, repeats = [4, 0, 52], 3
        capsys.readouterr()
        assert run_cli(["learning-curve", "--data", str(path), "--labeled", "8",
                        "--u-values", "4,0,52", "--repeats", str(repeats), "--seed", "2",
                        "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "cells = 36\naggregates = 12\n"
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
