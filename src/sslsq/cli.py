"""Command-line frontend.

Subcommands: generate, fit, diagnose, basin, local-optima, learning-curve.
Experiment subcommands require an explicit --seed and write long-format
CSV reports (one row per run/cell), an aggregated CSV next to them and a
key-value manifest sidecar. All output is deterministic given the flags,
the seed and the input files. Every experiment runs in one thread; the
--threads flag is still accepted and ignored. Every CSV file is written
by ``datagen``'s one writer, the one ``save_csv`` uses.

Exit codes: 0 success, 2 usage / invalid input, 3 file parse or schema
errors, 4 capacity limits (an allocation the machine refuses included),
5 numerical or degenerate-input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (
    SyntheticKind,
    SyntheticSpec,
    _fmt,
    _write_columns,
    generate,
    load_csv,
    save_csv,
)
from .diagnostics import (
    ENUMERATION_CAP,
    HessianKind,
    _psd_verdict,
    brute_force_hard_minimum,
    find_witness,
)
from .errors import (
    CapacityError,
    DegenerateInputError,
    DimensionError,
    Error,
    InvalidInputError,
    NoWitnessError,
    ParseError,
    SchemaError,
)
from .experiments import (
    METHODS,
    evaluate_error,
    random_init_near_supervised,
    run_basin_study,
    run_learning_curve,
    run_local_optima_study,
)
from .model import _check_lam, label_objective, ridge_solve, supervised_objective
from .selflearn import SolverConfig, StopReason, fit_hard, fit_soft, update_weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_NUMERICAL = 5

MANIFEST_FORMAT = "sslsq-manifest-v1"


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest_path(output_path):
    output_path = Path(output_path)
    return output_path.with_name(output_path.stem + ".manifest.txt")


def _aggregate_path(output_path):
    output_path = Path(output_path)
    return output_path.with_name(output_path.stem + ".agg" + output_path.suffix)


def _file_identity(path):
    """The device and inode of an existing file, else its resolved path.

    Two paths with one identity name one file, whether through another
    spelling, a symbolic link or a hard link.
    """
    path = Path(path)
    try:
        status = path.stat()
    except OSError:
        return path.resolve()
    return status.st_dev, status.st_ino


def _check_outputs(outputs, inputs):
    """Refuse outputs that coincide with each other or with an input file.

    ``outputs`` and ``inputs`` are ``(name, path)`` pairs, a ``None`` path
    standing for a file not asked for.
    """
    seen = {}
    for name, path in inputs:
        if path is not None:
            seen.setdefault(_file_identity(path), f"{name} {path}")
    for name, path in outputs:
        if path is None:
            continue
        key = _file_identity(path)
        if key in seen:
            raise InvalidInputError(
                f"{name} {path} is the same file as {seen[key]}; "
                "an output may not overwrite an input or another output"
            )
        seen[key] = f"{name} {path}"


def _experiment_outputs(out):
    """The report, aggregate and manifest an experiment subcommand writes."""
    return [("--out", out), ("aggregate", _aggregate_path(out)),
            ("manifest", _manifest_path(out))]


def _write_manifest(output_path, subcommand, params, inputs, seed=None):
    # Execution-only knobs (--threads, output paths) are deliberately not
    # recorded: they never influence the produced bytes.
    lines = [
        f"format = {MANIFEST_FORMAT}",
        f"tool = sslsq {__version__}",
        f"subcommand = {subcommand}",
    ]
    if seed is not None:
        lines.append(f"seed = {seed}")
    for key in sorted(params):
        lines.append(f"param.{key} = {_fmt(params[key])}")
    for name in sorted(inputs):
        lines.append(f"input.{name}.sha256 = {_sha256(inputs[name])}")
    _manifest_path(output_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _weight_columns(d):
    return [f"w_{i}" for i in range(d)]


def cmd_generate(args):
    spec = SyntheticSpec(
        kind=SyntheticKind(args.kind),
        labeled_per_class=args.labeled_per_class,
        unlabeled_total=args.unlabeled,
        class_separation=args.separation,
        noise_sd=args.noise_sd,
        seed=args.seed,
        intercept=not args.no_intercept,
    )
    data, truth = generate(spec)
    save_csv(args.out, data, unlabeled_truth=truth, intercept=spec.intercept)
    _write_manifest(
        args.out,
        "generate",
        params={
            "kind": args.kind,
            "labeled_per_class": spec.labeled_per_class,
            "unlabeled": spec.unlabeled_total,
            "separation": spec.class_separation,
            "noise_sd": spec.noise_sd,
            "intercept": spec.intercept,
        },
        inputs={},
        seed=spec.seed,
    )
    print(f"wrote {args.out}: {data.n_labeled} labeled + {data.n_unlabeled} unlabeled rows")
    return EXIT_OK


def _load_test_set(args, data):
    """Features and labels of the ``--test`` file.

    The file must have no unlabeled rows and the feature columns of ``data``.
    """
    test_data, _ = load_csv(args.test, intercept=not args.no_intercept)
    if test_data.n_unlabeled:
        raise InvalidInputError(
            f"{args.test}: --test input must be fully labeled, "
            f"but it has {test_data.n_unlabeled} unlabeled rows"
        )
    if test_data.n_features != data.n_features:
        intercept = 0 if args.no_intercept else 1
        raise DimensionError(
            f"{args.test}: --test input has {test_data.n_features - intercept} feature "
            f"columns, but --data has {data.n_features - intercept}"
        )
    return test_data.labeled_features, test_data.labels


def cmd_fit(args):
    if args.trace:
        _check_outputs(
            [("--trace", args.trace), ("manifest", _manifest_path(args.trace))],
            [("--data", args.data), ("--test", args.test)],
        )
    data, truth = load_csv(args.data, intercept=not args.no_intercept)
    lam = args.lam
    test = _load_test_set(args, data) if args.test else None

    if args.method in ("soft", "hard"):
        config = SolverConfig()
        fit = (fit_soft if args.method == "soft" else fit_hard)(data, lam, config)
        if fit.trace.stop_reason is StopReason.MAX_ITERATIONS:
            print(
                f"warning: {args.method} fit stopped at the round cap of "
                f"{config.max_iterations} rounds before converging",
                file=sys.stderr,
            )
        weights = fit.weights
        objective = fit.final_objective
        iterations = fit.iterations
        converged = fit.trace.converged
        stop_reason = fit.trace.stop_reason.value
        trace = (fit.trace.rounds, fit.trace.objectives, fit.trace.weight_path)
    else:
        if args.method == "supervised":
            weights = ridge_solve(data.labeled_features, data.labels, lam)
            objective = supervised_objective(data, weights, lam)
        else:
            if truth is None:
                raise SchemaError("oracle fitting needs a true_label column in the data file")
            weights = update_weights(data, truth, lam)
            objective = label_objective(data, weights, truth, lam)
        # One closed-form solve: a one-round trace whose stop reason is the method.
        iterations, converged, stop_reason = 1, True, args.method
        trace = (np.zeros(1, dtype=int), np.array([objective]), weights[None])

    print(f"method = {args.method}")
    print(f"lambda = {_fmt(lam)}")
    print(f"labeled = {data.n_labeled}")
    print(f"unlabeled = {data.n_unlabeled}")
    print(f"iterations = {iterations}")
    print(f"converged = {converged}")
    print(f"stop_reason = {stop_reason}")
    print(f"final_objective = {_fmt(objective)}")
    print("weights = " + ",".join(_fmt(w) for w in weights))
    if test is not None:
        print(f"test_error = {_fmt(evaluate_error(weights, *test))}")

    if args.trace:
        rounds, objectives, weight_path = trace
        _write_columns(
            args.trace,
            ["iteration", "objective"] + _weight_columns(data.n_features),
            [rounds, objectives, *weight_path.T],
        )
        inputs = {"data": args.data}
        if args.test:
            inputs["test"] = args.test
        _write_manifest(
            args.trace,
            "fit",
            params={"method": args.method, "lambda": lam, "intercept": not args.no_intercept},
            inputs=inputs,
        )
    return EXIT_OK


def cmd_diagnose(args):
    # Refused before any line is printed, not halfway through the report.
    lam = _check_lam(args.lam)
    data, _ = load_csv(args.data, intercept=not args.no_intercept)
    print(f"labeled = {data.n_labeled}")
    print(f"unlabeled = {data.n_unlabeled}")
    if data.n_unlabeled == 0:
        raise DegenerateInputError("diagnostics need at least one unlabeled row")

    label_psd, label_min_diagonal = _psd_verdict(data, HessianKind.LABEL_BASED, lam)
    print(f"label_hessian_psd = {label_psd}")
    print(f"label_hessian_min_diagonal = {_fmt(label_min_diagonal)}")
    label_witness = find_witness(data, HessianKind.LABEL_BASED, lam=lam)
    print(f"label_witness_value = {_fmt(label_witness.quadratic_form_value)}")
    resp_psd, _ = _psd_verdict(data, HessianKind.RESPONSIBILITY_BASED, lam)
    print(f"responsibility_hessian_psd = {resp_psd}")
    try:
        witness = find_witness(data, HessianKind.RESPONSIBILITY_BASED, lam=lam)
        print(f"responsibility_witness_value = {_fmt(witness.quadratic_form_value)}")
    except NoWitnessError as exc:
        print(f"responsibility_witness_value = none ({exc})")

    if data.n_unlabeled <= ENUMERATION_CAP:
        brute = brute_force_hard_minimum(data, lam)
        local = fit_hard(data, lam)
        gap = local.final_objective - brute.objective
        print(f"brute_force_objective = {_fmt(brute.objective)}")
        print(f"hard_from_supervised_objective = {_fmt(local.final_objective)}")
        print(f"optimality_gap = {_fmt(gap)}")
    else:
        print(f"brute_force_objective = skipped (U > {ENUMERATION_CAP})")
    return EXIT_OK


def _basin_test_set(args, data, truth):
    if args.test:
        return _load_test_set(args, data)
    if truth is not None and data.n_unlabeled > 0:
        return data.unlabeled_features, truth
    return None, None


def cmd_basin(args):
    _check_outputs(
        _experiment_outputs(args.out) + [("--paths", args.paths)],
        [("--data", args.data), ("--test", args.test)],
    )
    data, truth = load_csv(args.data, intercept=not args.no_intercept)
    test_features, test_labels = _basin_test_set(args, data, truth)
    starts = random_init_near_supervised(data, args.lam, args.starts, args.scale, args.seed)
    result = run_basin_study(data, args.lam, args.method, starts, test_features, test_labels)

    d = data.n_features
    header = [
        "start",
        "init",
        "iterations",
        "converged",
        "stop_reason",
        "final_objective",
        "test_error",
        "optimum",
        "status",
    ] + _weight_columns(d)
    rows = [
        (
            record.start_index,
            "random" if record.start_index >= 0 else "supervised",
            record.fit.iterations,
            record.fit.trace.converged,
            record.fit.trace.stop_reason.value,
            record.fit.final_objective,
            record.test_error,
            record.optimum_id,
            "ok",
            *record.fit.weights,
        )
        for record in result.runs
    ]
    _write_columns(args.out, header, list(zip(*rows)))

    by_optimum = {}
    for record in result.runs:
        by_optimum.setdefault(record.optimum_id, []).append(record)
    agg_rows = []
    for optimum in sorted(by_optimum):
        members = by_optimum[optimum]
        representative = min(members, key=lambda r: (r.fit.final_objective, r.start_index))
        errors = [r.test_error for r in members if not math.isnan(r.test_error)]
        agg_rows.append(
            (
                optimum,
                len(members),
                representative.fit.final_objective,
                float(np.mean(errors)) if errors else None,
                *representative.fit.weights,
            )
        )
    _write_columns(
        _aggregate_path(args.out),
        ["optimum", "size", "objective", "mean_test_error"] + _weight_columns(d),
        list(zip(*agg_rows)),
    )
    inputs = {"data": args.data}
    if args.test:
        inputs["test"] = args.test
    _write_manifest(
        args.out,
        "basin",
        params={
            "method": args.method,
            "starts": args.starts,
            "scale": args.scale,
            "lambda": args.lam,
            "intercept": not args.no_intercept,
        },
        inputs=inputs,
        seed=args.seed,
    )

    if args.paths:
        traces = [record.fit.trace for record in result.runs]
        _write_columns(
            args.paths,
            ["start", "iteration", "objective"] + _weight_columns(d),
            [
                np.repeat([record.start_index for record in result.runs],
                          [trace.rounds.size for trace in traces]),
                np.concatenate([trace.rounds for trace in traces]),
                np.concatenate([trace.objectives for trace in traces]),
                *np.concatenate([trace.weight_path for trace in traces]).T,
            ],
        )
    print(f"unique_optima = {result.unique_optima_count}")
    print(f"runs = {len(result.runs)}")
    return EXIT_OK


def cmd_local_optima(args):
    # A dataset is named by its file's stem, so two files may not share one,
    # and the stem is a report field, which the writer never quotes.
    paths = {}
    for path in args.data:
        name = Path(path).stem
        if any(mark in name for mark in ',"\r\n'):
            raise InvalidInputError(
                f"{path}: a dataset name may not hold a comma, quote or line break"
            )
        if name in paths:
            raise InvalidInputError(
                f"{paths[name]} and {path} share the dataset name {name!r}; "
                "local-optima needs distinct file stems"
            )
        paths[name] = path
    _check_outputs(_experiment_outputs(args.out), [("--data", path) for path in args.data])
    datasets = {}
    for name, path in paths.items():
        data, _ = load_csv(path, intercept=not args.no_intercept)
        if data.n_unlabeled:
            raise InvalidInputError(f"{path}: local-optima input must be fully labeled")
        datasets[name] = data
    report = run_local_optima_study(
        datasets,
        restarts=args.restarts,
        lam=args.lam,
        seed=args.seed,
        scale=args.scale,
    )

    rows = []
    for record in report.records:
        rows.append((record.name, "supervised", "supervised", -1, record.supervised_error, "ok"))
        for method, study in record.studies.items():
            rows.append((record.name, method, "supervised", -1, study.runs[0].test_error, "ok"))
        for method, study in record.studies.items():
            for start in study.runs[1:]:
                rows.append(
                    (record.name, method, "random", start.start_index, start.test_error, "ok")
                )
    for name, reason in report.skipped:
        rows.append((name, "", "", None, None, f"skipped: {reason}"))
    _write_columns(
        args.out, ["dataset", "method", "init", "start", "error", "status"], list(zip(*rows))
    )

    agg_rows = []
    for record in report.records:
        for method, study in record.studies.items():
            errors = [start.test_error for start in study.runs[1:]]
            agg_rows.append(
                (
                    record.name,
                    method,
                    record.supervised_error,
                    study.runs[0].test_error,
                    float(np.mean(errors)),
                    float(np.std(errors, ddof=1) / np.sqrt(len(errors))) if len(errors) > 1 else None,
                    study.unique_optima_count,
                )
            )
    _write_columns(
        _aggregate_path(args.out),
        [
            "dataset",
            "method",
            "supervised_error",
            "from_supervised_error",
            "random_mean_error",
            "random_std_error",
            "unique_minima",
        ],
        list(zip(*agg_rows)),
    )
    _write_manifest(
        args.out,
        "local-optima",
        params={
            "restarts": args.restarts,
            "scale": args.scale,
            "lambda": args.lam,
            "intercept": not args.no_intercept,
        },
        inputs=paths,
        seed=args.seed,
    )
    print(f"datasets = {len(report.records)}")
    print(f"skipped = {len(report.skipped)}")
    return EXIT_OK


def _parse_u_values(text):
    values = []
    for token in text.split(","):
        if not token.strip():
            continue
        try:
            values.append(int(token))
        except ValueError:
            raise InvalidInputError(
                f"--u-values: {token.strip()!r} is not an integer"
            ) from None
    return values


def cmd_learning_curve(args):
    u_values = _parse_u_values(args.u_values)
    _check_outputs(_experiment_outputs(args.out), [("--data", args.data)])
    data, _ = load_csv(args.data, intercept=not args.no_intercept)
    if data.n_unlabeled:
        raise InvalidInputError(f"{args.data}: learning-curve input must be fully labeled")
    report = run_learning_curve(
        data,
        labeled_count=args.labeled,
        u_values=u_values,
        repeats=args.repeats,
        lam=args.lam,
        seed=args.seed,
    )
    # One row per cell of the (repeat, u, method) errors, in that order.
    repeats, counts, methods = report.errors.shape
    errors = report.errors.reshape(-1)
    _write_columns(
        args.out,
        ["u", "repeat", "method", "error", "test_size", "partition", "status"],
        [
            np.tile(np.repeat(report.u_values, methods), repeats),
            np.repeat(np.arange(repeats), counts * methods),
            list(METHODS) * (repeats * counts),
            errors,
            np.tile(np.repeat(report.test_sizes, methods), repeats),
            [h for row in report.partition_hashes for h in row for _ in range(methods)],
            ["empty-test" if missing else "ok" for missing in np.isnan(errors).tolist()],
        ],
    )
    _write_columns(
        _aggregate_path(args.out),
        ["u", "method", "mean_error", "std_error", "repeats_used"],
        list(zip(*[
            (a.u, a.method, a.mean_error, a.std_error, a.repeats_used)
            for a in report.aggregates
        ])),
    )
    _write_manifest(
        args.out,
        "learning-curve",
        params={
            "labeled": args.labeled,
            "u_values": ",".join(str(u) for u in u_values),
            "repeats": args.repeats,
            "lambda": args.lam,
            "intercept": not args.no_intercept,
        },
        inputs={"data": args.data},
        seed=args.seed,
    )
    print(f"cells = {report.errors.size}")
    print(f"aggregates = {len(report.aggregates)}")
    return EXIT_OK


def _add_common(parser, *, experiment=False):
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0,
                        help="ridge penalty (default 0)")
    parser.add_argument("--no-intercept", action="store_true",
                        help="do not append a constant intercept column on load")
    if experiment:
        parser.add_argument("--seed", type=int, required=True,
                            help="base seed, 0 to 2^64 - 1 (required; no wall-clock default)")
        parser.add_argument("--threads", type=int, default=1,
                            help="accepted and ignored: every experiment runs its starts "
                            "or repeats as batches in one thread; never changes the "
                            "output content")


@functools.cache
def build_parser():
    """The ``sslsq`` argument parser, built once per process and shared.

    Each subcommand records its handler by name in ``args.command``;
    ``main`` looks the name up when the command runs, so a handler
    rebound on this module after the parser was built is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="sslsq",
        description="Semi-supervised least squares classification: solvers, "
        "diagnostics and experiment harnesses.",
    )
    parser.add_argument("--version", action="version", version=f"sslsq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("--kind", choices=[k.value for k in SyntheticKind], default="two-cluster-1d")
    p.add_argument("--labeled-per-class", type=int, default=2)
    p.add_argument("--unlabeled", type=int, default=396)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(command="cmd_generate")

    p = sub.add_parser("fit", help="fit one classifier and print a summary")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["supervised", "soft", "hard", "oracle"], required=True)
    p.add_argument("--test", default=None, help="fully labeled CSV for test error")
    p.add_argument("--trace", default=None, help="write per-iteration trace CSV here")
    _add_common(p)
    p.set_defaults(command="cmd_fit")

    p = sub.add_parser("diagnose", help="convexity diagnostics and brute-force gap")
    p.add_argument("--data", required=True)
    _add_common(p)
    p.set_defaults(command="cmd_diagnose")

    p = sub.add_parser("basin", help="random-restart basin study")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["soft", "hard"], required=True)
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--test", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--paths", default=None, help="also write full convergence paths here")
    _add_common(p, experiment=True)
    p.set_defaults(command="cmd_basin")

    p = sub.add_parser("local-optima", help="restart study across datasets")
    p.add_argument("--data", nargs="+", required=True, help="fully labeled CSV files")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_common(p, experiment=True)
    p.set_defaults(command="cmd_local_optima")

    p = sub.add_parser("learning-curve", help="error curves over unlabeled counts")
    p.add_argument("--data", required=True, help="fully labeled CSV file")
    p.add_argument("--labeled", type=int, required=True, help="labeled count per repeat")
    p.add_argument("--u-values", default="1,2,4,8,16,32,64,128,256")
    p.add_argument("--repeats", type=int, default=1000)
    p.add_argument("--out", required=True)
    _add_common(p, experiment=True)
    p.set_defaults(command="cmd_learning_curve")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.command](args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:
        # numpy refuses an array larger than the machine can map before it
        # writes anything, so a count too large to hold is a capacity limit.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DegenerateInputError, NoWitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidInputError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
