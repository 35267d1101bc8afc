"""Semi-supervised least squares classification via self-learning.

A linear classifier fit by regularized least squares on {0, 1} targets,
plus two semi-supervised extensions solved by block coordinate descent:
soft-label self-learning (imputed targets clamped to [0, 1]) and
hard-label self-learning (0/1 responsibilities). Includes convexity
diagnostics, brute-force oracles for small instances, synthetic data
generators, experiment harnesses and a CLI.

The namespace is lazy (PEP 562): ``import sslsq`` loads no submodule, and
the first use of a public name, ``sslsq.fit_soft`` or ``from sslsq import
fit_soft``, imports the submodule that defines it. The name is read from
that submodule on every use and never stored here, so the submodule holds
its one binding. Each submodule is an attribute too: ``sslsq.datagen``.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "model", "selflearn", "diagnostics", "datagen", "experiments", "cli")

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "CapacityError",
            "DegenerateInputError",
            "DegenerateSplitError",
            "DimensionError",
            "Error",
            "InvalidInputError",
            "NoWitnessError",
            "ParseError",
            "SchemaError",
        ),
        "model": (
            "ClassEncoding",
            "Dataset",
            "classify",
            "decision_values",
            "grad_label_objective_u",
            "grad_label_objective_w",
            "grad_responsibility_objective_q",
            "grad_responsibility_objective_w",
            "label_objective",
            "responsibility_objective",
            "ridge_operator",
            "ridge_solve",
            "supervised_objective",
        ),
        "selflearn": (
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
        ),
        "diagnostics": (
            "BruteForceResult",
            "GridSearchResult",
            "HessianBlock",
            "HessianKind",
            "NonconvexityWitness",
            "brute_force_hard_minimum",
            "build_hessian",
            "find_witness",
            "grid_soft_minimum",
            "is_psd",
            "soft_grid_slack",
        ),
        "datagen": (
            "Split",
            "SyntheticKind",
            "SyntheticSpec",
            "derive_rng",
            "generate",
            "load_csv",
            "sample_learning_curve_split",
            "save_csv",
            "split_for_local_optima",
        ),
        "experiments": (
            "BasinStudyResult",
            "LearningCurveAggregate",
            "LearningCurveReport",
            "LocalOptimaReport",
            "count_unique_optima",
            "evaluate_error",
            "random_init_near_supervised",
            "run_basin_study",
            "run_learning_curve",
            "run_local_optima_study",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
