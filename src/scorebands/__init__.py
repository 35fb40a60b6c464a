"""Calibrated prediction intervals for automated-judge Likert scores.

Converts score-token log-probability features plus human labels into
split-conformal prediction intervals, with discrete boundary adjustment,
group-conditional calibration, and a diagnostics suite.

Public names are imported on first use (PEP 562), so importing one
submodule, such as ``scorebands.extract``, loads only what it needs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "BUILTIN_PARTITIONS": "conformal",
    "Batch": "core",
    "ConformalCalibration": "conformal",
    "DataError": "core",
    "ExperimentConfig": "harness",
    "ExperimentReport": "harness",
    "FeatureVector": "core",
    "GroupPartition": "conformal",
    "Interval": "core",
    "Intervals": "core",
    "InvariantError": "core",
    "METHOD_NAMES": "conformal",
    "MethodConfig": "conformal",
    "MethodResult": "conformal",
    "RatingScale": "core",
    "SplitPlan": "core",
    "SyntheticSpec": "harness",
    "conformal_quantile": "conformal",
    "emit_report": "harness",
    "fuse": "harness",
    "generate_synthetic": "harness",
    "load_samples": "harness",
    "make_split": "core",
    "run_experiment": "harness",
    "run_method": "conformal",
    "run_mondrian": "conformal",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
