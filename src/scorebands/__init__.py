"""Calibrated prediction intervals for automated-judge Likert scores.

Converts score-token log-probability features plus human labels into
split-conformal prediction intervals, with discrete boundary adjustment,
group-conditional calibration, and a diagnostics suite.
"""

from .conformal import (
    BUILTIN_PARTITIONS,
    METHOD_NAMES,
    ConformalCalibration,
    GroupPartition,
    MethodConfig,
    MethodResult,
    boundary_adjust,
    conformal_quantile,
    run_method,
    run_mondrian,
)
from .core import (
    Batch,
    DataError,
    FeatureVector,
    Interval,
    Intervals,
    InvariantError,
    LabeledSample,
    RatingScale,
    SplitPlan,
    clamp_interval,
    make_split,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    SyntheticSpec,
    emit_report,
    fuse,
    generate_synthetic,
    load_samples,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PARTITIONS",
    "Batch",
    "ConformalCalibration",
    "DataError",
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureVector",
    "GroupPartition",
    "Interval",
    "Intervals",
    "InvariantError",
    "LabeledSample",
    "METHOD_NAMES",
    "MethodConfig",
    "MethodResult",
    "RatingScale",
    "SplitPlan",
    "SyntheticSpec",
    "boundary_adjust",
    "clamp_interval",
    "conformal_quantile",
    "emit_report",
    "fuse",
    "generate_synthetic",
    "load_samples",
    "make_split",
    "run_experiment",
    "run_method",
    "run_mondrian",
]
