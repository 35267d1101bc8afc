"""Semi-supervised least squares classification via self-learning.

A linear classifier fit by regularized least squares on {0, 1} targets,
plus two semi-supervised extensions solved by block coordinate descent:
soft-label self-learning (imputed targets clamped to [0, 1]) and
hard-label self-learning (0/1 responsibilities). Includes convexity
diagnostics, brute-force oracles for small instances, synthetic data
generators, experiment harnesses and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DegenerateInputError,
    DegenerateSplitError,
    DimensionError,
    Error,
    InvalidInputError,
    NoWitnessError,
    ParseError,
    SchemaError,
)
from .model import (
    ClassEncoding,
    Dataset,
    classify,
    decision_values,
    grad_label_objective_u,
    grad_label_objective_w,
    grad_responsibility_objective_q,
    grad_responsibility_objective_w,
    label_objective,
    responsibility_objective,
    ridge_operator,
    ridge_solve,
    supervised_objective,
)
from .selflearn import (
    FitResult,
    FitTrace,
    SolverConfig,
    StopReason,
    TraceRecord,
    fit_hard,
    fit_soft,
    fit_starts,
    update_hard_labels,
    update_soft_labels,
    update_weights,
)
from .diagnostics import (
    BruteForceResult,
    GridSearchResult,
    HessianBlock,
    HessianKind,
    NonconvexityWitness,
    brute_force_hard_minimum,
    build_hessian,
    find_witness,
    grid_soft_minimum,
    is_psd,
    soft_grid_slack,
)
from .datagen import (
    Split,
    SyntheticKind,
    SyntheticSpec,
    derive_rng,
    generate,
    load_csv,
    sample_learning_curve_split,
    save_csv,
    split_for_local_optima,
)
from .experiments import (
    BasinStudyResult,
    DatasetOptimaRecord,
    LearningCurveAggregate,
    LearningCurveReport,
    LocalOptimaReport,
    StartRecord,
    count_unique_optima,
    evaluate_error,
    random_init_near_supervised,
    run_basin_study,
    run_learning_curve,
    run_local_optima_study,
)
