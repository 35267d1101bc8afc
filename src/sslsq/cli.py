"""Command-line frontend.

Subcommands: generate, fit, diagnose, basin, local-optima, learning-curve.
Experiment subcommands require an explicit --seed and write long-format
CSV reports (one row per run/cell), an aggregated CSV next to them and a
key-value manifest sidecar. All output is deterministic given the flags,
the seed and the input files. Every experiment runs in one thread; the
--threads flag is still accepted and ignored. Every CSV file is written
by ``datagen``'s one writer, the one ``save_csv`` uses.

Importing this module loads ``errors``, ``model``, ``datagen`` and
``selflearn``, which every fitting subcommand uses. The rest is imported
by the subcommands that run it: ``diagnose`` imports ``diagnostics``;
``basin``, ``local-optima``, ``learning-curve`` and ``fit --test`` import
``experiments``. So ``generate`` and a plain ``fit`` load neither
``diagnostics`` nor ``experiments``.

Exit codes: 0 success, 2 usage / invalid input, 3 file parse or schema
errors, 4 capacity limits (an allocation the machine refuses included),
5 numerical or degenerate-input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
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
from .model import _check_lam, label_objective, ridge_solve, supervised_objective
from .selflearn import SolverConfig, StopReason, fit_hard, minimize_soft, update_weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_NUMERICAL = 5

# The exit code of each error a subcommand raises. The first match wins, so
# Error, which DegenerateInputError and NoWitnessError fall through to, is
# last. numpy refuses an array larger than the machine can map before it
# writes anything, so its MemoryError is a capacity limit.
_EXIT_CODES = {
    ParseError: EXIT_PARSE, SchemaError: EXIT_PARSE, OSError: EXIT_PARSE,
    CapacityError: EXIT_CAPACITY, MemoryError: EXIT_CAPACITY,
    InvalidInputError: EXIT_USAGE, DimensionError: EXIT_USAGE,
    Error: EXIT_NUMERICAL,
}

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


def _input_files(args):
    """The ``--data`` and ``--test`` files a subcommand was given, by option name."""
    return {
        name: path
        for name in ("data", "test")
        if (path := getattr(args, name, None)) is not None
    }


def _check_outputs(outputs, inputs):
    """Refuse outputs that coincide with each other or with an input file.

    ``outputs`` are ``(name, path)`` pairs, a ``None`` path standing for a
    file not asked for, and ``inputs`` ``(option name, path)`` pairs, such
    as the items of ``_input_files``.
    """
    seen = {}
    for name, path in inputs:
        seen.setdefault(_file_identity(path), f"--{name} {path}")
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


def _write_manifest(args, output_path, params, inputs=None):
    """Write the manifest of ``output_path``: the subcommand of ``args``, its
    seed, penalty and intercept flag where it takes them, its own ``params``
    and the hashes of ``inputs`` (name to path; ``_input_files(args)`` if None).
    """
    # Execution-only knobs (--threads, output paths) are deliberately not
    # recorded: they never influence the produced bytes.
    params = dict(params, intercept=not args.no_intercept)
    if hasattr(args, "lam"):
        params["lambda"] = args.lam
    if inputs is None:
        inputs = _input_files(args)
    lines = [
        f"format = {MANIFEST_FORMAT}",
        f"tool = sslsq {__version__}",
        f"subcommand = {args.subcommand}",
    ]
    if hasattr(args, "seed"):
        lines.append(f"seed = {args.seed}")
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
    _write_manifest(args, args.out, {
        "kind": args.kind,
        "labeled_per_class": spec.labeled_per_class,
        "unlabeled": spec.unlabeled_total,
        "separation": spec.class_separation,
        "noise_sd": spec.noise_sd,
    })
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
            _input_files(args).items(),
        )
    data, truth = load_csv(args.data, intercept=not args.no_intercept)
    lam = args.lam
    test = _load_test_set(args, data) if args.test is not None else None

    if args.method in ("soft", "hard"):
        config = SolverConfig()
        # The soft fit is the soft optimum, by Newton; the hard fit is BCD's fixed point.
        fit = (minimize_soft if args.method == "soft" else fit_hard)(data, lam, config)
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
        from .experiments import evaluate_error

        print(f"test_error = {_fmt(evaluate_error(weights, *test))}")

    if args.trace:
        rounds, objectives, weight_path = trace
        _write_columns(
            args.trace,
            ["iteration", "objective"] + _weight_columns(data.n_features),
            [rounds, objectives, *weight_path.T],
        )
        _write_manifest(args, args.trace, {"method": args.method})
    return EXIT_OK


def cmd_diagnose(args):
    from .diagnostics import (
        ENUMERATION_CAP,
        HessianKind,
        _psd_verdict,
        brute_force_hard_minimum,
        find_witness,
    )

    # Every verdict and witness is computed, or refused, before the first
    # line is printed, not halfway through the report.
    lam = _check_lam(args.lam)
    data, _ = load_csv(args.data, intercept=not args.no_intercept)
    if data.n_unlabeled == 0:
        raise DegenerateInputError("diagnostics need at least one unlabeled row")
    label_psd, label_min_diagonal = _psd_verdict(data, HessianKind.LABEL_BASED, lam)
    label_witness = find_witness(data, HessianKind.LABEL_BASED, lam=lam)
    resp_psd, _ = _psd_verdict(data, HessianKind.RESPONSIBILITY_BASED, lam)
    try:
        resp_witness = find_witness(data, HessianKind.RESPONSIBILITY_BASED, lam=lam)
        witness = _fmt(resp_witness.quadratic_form_value)
    except NoWitnessError as exc:
        witness = f"none ({exc})"

    print(f"labeled = {data.n_labeled}")
    print(f"unlabeled = {data.n_unlabeled}")
    print(f"label_hessian_psd = {label_psd}")
    print(f"label_hessian_min_diagonal = {_fmt(label_min_diagonal)}")
    print(f"label_witness_value = {_fmt(label_witness.quadratic_form_value)}")
    print(f"responsibility_hessian_psd = {resp_psd}")
    print(f"responsibility_witness_value = {witness}")
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
    if args.test is not None:
        return _load_test_set(args, data)
    if truth is not None and data.n_unlabeled > 0:
        return data.unlabeled_features, truth
    return None, None


def cmd_basin(args):
    from .experiments import random_init_near_supervised, run_basin_study

    _check_outputs(
        _experiment_outputs(args.out) + [("--paths", args.paths)], _input_files(args).items()
    )
    data, truth = load_csv(args.data, intercept=not args.no_intercept)
    test_features, test_labels = _basin_test_set(args, data, truth)
    starts = random_init_near_supervised(data, args.lam, args.starts, args.scale, args.seed)
    result = run_basin_study(data, args.lam, args.method, starts, test_features, test_labels)

    fits = result.fits
    start = np.arange(-1, len(fits) - 1)
    objectives = np.array([fit.final_objective for fit in fits])
    weights = np.array([fit.weights for fit in fits])
    columns = _weight_columns(data.n_features)
    _write_columns(
        args.out,
        ["start", "init", "iterations", "converged", "stop_reason", "final_objective",
         "test_error", "optimum", "status"] + columns,
        [
            start,
            ["supervised"] + ["random"] * (len(fits) - 1),
            np.array([fit.iterations for fit in fits]),
            np.array([fit.trace.converged for fit in fits]),
            [fit.trace.stop_reason.value for fit in fits],
            objectives,
            result.test_errors,
            result.optimum_ids,
            ["ok"] * len(fits),
            *weights.T,
        ],
    )

    # One row per optimum, with the objective and weights of its member of
    # lowest objective, the earliest start among equals: a stable sort keeps
    # each optimum's runs in start order. Without a test set every test
    # error is NaN, and so is every mean.
    sizes = np.bincount(result.optimum_ids)
    members = np.split(np.argsort(result.optimum_ids, kind="stable"), np.cumsum(sizes)[:-1])
    best = np.array([ids[np.argmin(objectives[ids])] for ids in members])
    _write_columns(
        _aggregate_path(args.out),
        ["optimum", "size", "objective", "mean_test_error"] + columns,
        [
            np.arange(sizes.size),
            sizes,
            objectives[best],
            np.array([np.mean(result.test_errors[ids]) for ids in members]),
            *weights[best].T,
        ],
    )
    _write_manifest(
        args, args.out, {"method": args.method, "starts": args.starts, "scale": args.scale}
    )

    if args.paths:
        traces = [fit.trace for fit in fits]
        _write_columns(
            args.paths,
            ["start", "iteration", "objective"] + columns,
            [
                np.repeat(start, [trace.rounds.size for trace in traces]),
                np.concatenate([trace.rounds for trace in traces]),
                np.concatenate([trace.objectives for trace in traces]),
                *np.concatenate([trace.weight_path for trace in traces]).T,
            ],
        )
    print(f"unique_optima = {result.unique_optima_count}")
    print(f"runs = {len(fits)}")
    return EXIT_OK


def cmd_local_optima(args):
    from .experiments import SOLVERS, _mean_and_std_error, run_local_optima_study

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
    _check_outputs(_experiment_outputs(args.out), [("data", path) for path in args.data])
    datasets = {}
    for name, path in paths.items():
        data, _ = load_csv(path, intercept=not args.no_intercept)
        if data.n_unlabeled:
            raise InvalidInputError(f"{path}: local-optima input must be fully labeled")
        datasets[name] = data
    report = run_local_optima_study(datasets, restarts=args.restarts, lam=args.lam,
                                    seed=args.seed, scale=args.scale)

    # Per dataset: the supervised solution's row, each solver's run from it,
    # then each solver's random restarts; skipped datasets come last.
    count, solvers, runs = report.test_errors.shape
    layout = [("supervised", "supervised", -1), *((m, "supervised", -1) for m in SOLVERS),
              *((m, "random", j) for m in SOLVERS for j in range(runs - 1))]
    blank = [None] * len(report.skipped)
    methods, inits, starts = (list(column) * count + blank for column in zip(*layout))
    randoms = report.test_errors[:, :, 1:]
    errors = np.hstack([report.supervised_errors[:, None], report.test_errors[:, :, 0],
                        randoms.reshape(count, solvers * (runs - 1))])
    _write_columns(
        args.out,
        ["dataset", "method", "init", "start", "error", "status"],
        [np.repeat(report.names, len(layout)).tolist() + [name for name, _ in report.skipped],
         methods, inits, starts, np.concatenate([errors.ravel(), np.full(len(blank), np.nan)]),
         ["ok"] * errors.size + [f"skipped: {reason}" for _, reason in report.skipped]],
    )
    # One row per dataset and solver; one restart has no standard error.
    means, std_errors = _mean_and_std_error(randoms)
    _write_columns(
        _aggregate_path(args.out),
        ["dataset", "method", "supervised_error", "from_supervised_error",
         "random_mean_error", "random_std_error", "unique_minima"],
        [
            np.repeat(report.names, solvers),
            list(SOLVERS) * count,
            np.repeat(report.supervised_errors, solvers),
            report.test_errors[:, :, 0].ravel(),
            means.ravel(),
            std_errors.ravel(),
            report.unique_optima.ravel(),
        ],
    )
    _write_manifest(args, args.out, {"restarts": args.restarts, "scale": args.scale}, paths)
    print(f"datasets = {len(report.names)}")
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
    from .experiments import METHODS, run_learning_curve

    u_values = _parse_u_values(args.u_values)
    _check_outputs(_experiment_outputs(args.out), _input_files(args).items())
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
        [
            np.repeat(report.u_values, methods),
            list(METHODS) * counts,
            report.mean_errors.ravel(),
            report.std_errors.ravel(),
            report.repeats_used.ravel(),
        ],
    )
    _write_manifest(args, args.out, {
        "labeled": args.labeled,
        "u_values": ",".join(str(u) for u in u_values),
        "repeats": args.repeats,
    })
    print(f"cells = {report.errors.size}")
    print(f"aggregates = {report.mean_errors.size}")
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
    p.add_argument("--method", choices=["supervised", "soft", "hard", "oracle"], required=True,
                   help="soft: the soft optimum, by active-set Newton; "
                        "hard: hard-label BCD from the supervised fit")
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
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        # numpy's MemoryError may carry no message.
        message = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
