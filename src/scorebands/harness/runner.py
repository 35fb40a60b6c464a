"""Multi-seed experiment orchestration and report assembly.

One experiment cell is a (seed, method) pair: split, calibrate, predict,
adjust, measure. A cell that fails on its data (a DataError, or a
ValueError from a learner) is recorded in the error ledger, with its
exception class, and the run continues; any other exception, an
InvariantError included, is a bug, not a cell failure, and propagates.
The report carries per-seed rows, mean/std aggregates, per-dataset rows
with the ranking-scoring gap, and stratified diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from ..base import read_json
from ..conformal import (
    BUILTIN_PARTITIONS,
    GroupPartition,
    adjust_all,
    run_method,
    run_mondrian,
)
from ..core import Batch, DataError, RatingScale, check_batch, make_split
from ..metrics import (
    Strata,
    error_bins,
    informativeness,
    interval_metrics,
    midpoint_eval,
    pearson,
    point_metrics,
    rsg,
    stratified,
)
from .config import ExperimentConfig

SCHEMA_VERSION = "1"

SEED_METRICS = (
    "coverage_raw",
    "coverage_adj",
    "width_raw",
    "width_adj",
    "pearson",
    "spearman",
    "kendall",
    "exact_acc",
    "relaxed_acc",
    "mae",
    "bias",
    "mid_pearson",
    "mid_spearman",
    "mid_kendall",
    "mid_mae",
    "frac_decisive",
    "frac_moderate",
    "frac_uninformative",
)

DATASET_METRICS = (
    "width_raw",
    "width_adj",
    "pearson",
    "rsg",
    "coverage_raw",
    "coverage_adj",
)

STRATUM_METRICS = (
    "count",
    "coverage_raw",
    "coverage_adj",
    "width_raw",
    "width_adj",
    "bias",
    "mae",
)

# Each key the summary text reads from a table's rows, with the types it
# can print: a label is a string, a statistic a number or null.
SUMMARY_SPREADS = ("coverage_raw", "width_raw", "coverage_adj", "width_adj")
_NUMBER = (int, float, type(None))
SUMMARY_KEYS = {
    "aggregates": {
        "method": str,
        **{f"{m}_{s}": _NUMBER for m in SUMMARY_SPREADS for s in ("mean", "std")},
        "frac_decisive_mean": _NUMBER,
    },
    "per_dataset_agg": {"method": str, "dataset": str, "width_raw_mean": _NUMBER,
                        "pearson_mean": _NUMBER, "rsg_mean": _NUMBER},
    "errors": {"seed": object, "method": object, "error": object},
}


@dataclass
class ExperimentReport:
    config: dict
    per_seed: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)
    per_dataset: list[dict] = field(default_factory=list)
    per_dataset_agg: list[dict] = field(default_factory=list)
    stratified: list[dict] = field(default_factory=list)
    intervals: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data) -> "ExperimentReport":
        """The report a ``to_dict`` wrote; ``intervals`` may be absent."""
        if not isinstance(data, dict):
            raise DataError("report is not a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DataError(
                f"report schema {version!r} unsupported (expected {SCHEMA_VERSION!r})"
            )
        tables = {}
        for f in fields(cls):
            if f.name == "schema_version":
                continue
            if f.name not in data and f.name != "intervals":
                raise DataError(f"report lacks {f.name!r}")
            value = data.get(f.name, [])
            kind, what = (dict, "an object") if f.name == "config" else (list, "a list")
            if not isinstance(value, kind):
                raise DataError(f"report {f.name!r} is not {what}")
            if kind is list:
                _check_rows(f.name, value)
            tables[f.name] = kind(value)
        if not isinstance(tables["config"].get("seeds", []), list):
            raise DataError("report config 'seeds' is not a list")
        return cls(**tables)


def _check_rows(name: str, rows: list) -> None:
    """Each row an object, holding what the summary text prints of it."""
    keys = SUMMARY_KEYS.get(name, {})
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise DataError(f"report {name!r} row {i} is not an object")
        for key, kind in keys.items():
            if key not in row:
                raise DataError(f"report {name!r} row {i} lacks {key!r}")
            if not isinstance(row[key], kind):
                what = "a string" if kind is str else "a number or null"
                raise DataError(f"report {name!r} row {i}: {key!r} is not {what}")


def resolve_partition(spec: str | None) -> GroupPartition | None:
    """A builtin partition name, or a JSON file {"name":..., "groups": {...}}."""
    if spec is None:
        return None
    if spec in BUILTIN_PARTITIONS:
        return BUILTIN_PARTITIONS[spec]
    if os.path.exists(spec):
        data = read_json(spec)
        if not isinstance(data, dict) or not isinstance(data.get("groups"), dict):
            raise DataError(f"partition file {spec} needs a 'groups' object")
        return GroupPartition(
            name=str(data.get("name", spec)), group_of=dict(data["groups"])
        )
    raise DataError(
        f"unknown partition {spec!r}: not a builtin "
        f"({sorted(BUILTIN_PARTITIONS)}) and not a file"
    )


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = float(np.mean(present))
    std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    return mean, std


def _seed_row(seed: int, method: str, n_cal: int, intervals, y_hat, gts,
              scale: RatingScale) -> dict:
    """One per-seed row: the metric families' dicts, keyed as in SEED_METRICS."""
    fracs = informativeness(intervals, scale) if intervals.adjusted else (None,) * 3
    return {
        "seed": seed,
        "method": method,
        "n_cal": n_cal,
        "n_test": len(intervals),
        **interval_metrics(intervals, gts),
        **point_metrics(y_hat, gts, scale),
        **midpoint_eval(intervals, gts),
        **dict(zip(("frac_decisive", "frac_moderate", "frac_uninformative"), fracs)),
    }


def _group_labels(test: Batch, partition: GroupPartition | None) -> np.ndarray | None:
    if partition is not None:
        return partition.labels(test)
    tags = test.group.tolist()
    if None in tags:
        return None
    return np.array(tags, dtype=str)


def run_experiment(config: ExperimentConfig, batch: Batch) -> ExperimentReport:
    """Every (seed, method) cell of ``config`` on ``batch``; every split
    slices the one Batch. A sample that breaks a row rule, or a repeated
    sample_id, raises DataError before any split."""
    if not len(batch):
        raise DataError("no samples to run on")
    check_batch(batch, config.scale)
    partition = resolve_partition(config.mondrian)

    report = ExperimentReport(config=config.to_dict())
    for seed in config.seeds:
        plan = make_split(len(batch), config.cal_fraction, seed)
        if not plan.cal_indices or not plan.test_indices:
            empty = DataError("split produced an empty calibration or test set")
            report.errors.append(_ledger_row(seed, "*", empty))
            continue
        cal = batch[np.array(plan.cal_indices, dtype=np.intp)]
        test = batch[np.array(plan.test_indices, dtype=np.intp)]
        # Learner fits shared by this split's methods (per group under Mondrian).
        cache: dict = {}
        try:
            test_groups = _group_labels(test, partition)
        except DataError as exc:
            report.errors.append(_ledger_row(seed, "*", exc))
            continue
        # The strata that do not depend on the method, grouped once per split.
        keys = {
            "gt_level": Strata.of(test.y.astype(np.int64).astype(str)),
            "dataset": Strata.of(test.dataset),
        }
        if test_groups is not None:
            keys["group"] = Strata.of(test_groups)
        for method in config.methods:
            try:
                rows = _cell_rows(config, seed, method, cal, test, keys, partition, cache)
            except (DataError, ValueError) as exc:  # the cell failed on its data
                report.errors.append(_ledger_row(seed, method, exc))
                continue
            # A cell adds all of its rows or, when it fails, none.
            for table, new in rows.items():
                getattr(report, table).extend(new)

    _aggregate(report, config)
    return report


def _cell_rows(config, seed, method, cal, test, keys, partition, cache):
    """Every report row of one (seed, method) cell, by its report table."""
    scale = config.scale
    if partition is None:
        res = run_method(
            method, cal, test, config.alpha, scale, config.method_config, cache,
        )
    else:
        res = run_mondrian(
            cal, test, config.alpha, partition, method, scale,
            config.method_config, cache=cache,
        )
    ivs = adjust_all(res.intervals, scale, config.adjust)
    gts = test.y
    cell_keys = dict(keys, error_bin=error_bins(res.y_hat, gts, scale).astype(str))
    strat = stratified(ivs, res.y_hat, gts, cell_keys)
    rows: dict = {
        "per_seed": [_seed_row(seed, method, len(cal), ivs, res.y_hat, gts, scale)],
        "intervals": (
            _interval_lines(seed, method, test, ivs, res.y_hat, gts)
            if config.emit_intervals
            else []
        ),
        "per_dataset": _dataset_rows(
            seed, method, keys["dataset"], strat["dataset"], res.y_hat, gts, scale
        ),
        "stratified": [],
    }
    for kind in sorted(strat):
        for label in sorted(strat[kind]):
            rows["stratified"].append(
                dict(seed=seed, method=method, kind=kind, stratum=label,
                     **strat[kind][label])
            )
    return rows


def _ledger_row(seed: int, method: str, exc: Exception) -> dict:
    return {
        "seed": seed,
        "method": method,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }


def _interval_lines(seed, method, test: Batch, intervals, y_hat, gts) -> list[dict]:
    n = len(test)
    adjusted = intervals.adjusted
    columns = zip(
        test.sample_id.tolist(),
        intervals.lower.tolist(),
        intervals.upper.tolist(),
        intervals.adj_lower.tolist() if adjusted else [None] * n,
        intervals.adj_upper.tolist() if adjusted else [None] * n,
        np.asarray(y_hat, dtype=np.float64).tolist(),
        intervals.contains(gts).tolist(),
        intervals.contains_adjusted(gts).tolist() if adjusted else [None] * n,
    )
    keys = ("sample_id", "lower", "upper", "adj_lower", "adj_upper", "y_hat",
            "covered_raw", "covered_adj")
    return [dict(seed=seed, method=method, **dict(zip(keys, row))) for row in columns]


def _dataset_rows(seed, method, datasets: Strata, strata: dict, y_hat, gts,
                  scale) -> list[dict]:
    """One row per dataset of the test set, grouped as ``datasets``; its
    interval columns are those of its ``stratified`` entry in ``strata``."""
    rows = []
    for dataset, idx in datasets:
        im = {k: v for k, v in strata[dataset].items() if k in DATASET_METRICS}
        rho = pearson(y_hat[idx], gts[idx])
        rows.append(
            dict(seed=seed, method=method, dataset=dataset, n=len(idx), pearson=rho,
                 rsg=rsg(rho, im["width_raw"], scale) if rho is not None else None,
                 **im)
        )
    return rows


def _groups(rows: list[dict], cols: tuple[str, ...]) -> dict[tuple, list[dict]]:
    """The rows by their values of ``cols``; each group keeps report order."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault(tuple(r[c] for c in cols), []).append(r)
    return groups


def _summary(key: dict, rows: list[dict], metrics, with_std: bool = True) -> dict:
    """``key``, the number of seed rows, and each metric's mean (and std)."""
    entry = dict(key, n_seeds=len(rows))
    for col in metrics:
        mean, std = _mean_std([r[col] for r in rows])
        entry[f"{col}_mean"] = mean
        if with_std:
            entry[f"{col}_std"] = std
    return entry


def _collapse(rows, cols, metrics, methods, with_std: bool = True) -> list[dict]:
    """One summary per distinct value of ``cols``, in the order of ``methods``
    and then of the remaining values."""
    groups = _groups(rows, cols)
    order = sorted(groups, key=lambda k: (methods.index(k[0]),) + k[1:])
    return [_summary(dict(zip(cols, k)), groups[k], metrics, with_std) for k in order]


def _aggregate(report: ExperimentReport, config: ExperimentConfig) -> None:
    methods = config.methods
    by_method = _groups(report.per_seed, ("method",))
    report.aggregates = [
        _summary({"method": m}, by_method[(m,)], SEED_METRICS)
        for m in methods
        if (m,) in by_method
    ]
    report.per_dataset_agg = _collapse(
        report.per_dataset, ("method", "dataset"), DATASET_METRICS, methods
    )
    # Collapse per-seed strata to their across-seed means in place.
    report.stratified = _collapse(
        report.stratified, ("method", "kind", "stratum"), STRATUM_METRICS, methods,
        with_std=False,
    )
