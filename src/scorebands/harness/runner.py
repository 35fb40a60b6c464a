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

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..conformal import (
    BUILTIN_PARTITIONS,
    GroupPartition,
    adjust_all,
    run_method,
    run_mondrian,
)
from ..core import (
    DataError,
    LabeledSample,
    RatingScale,
    gt_array,
    make_split,
    validate_sample,
)
from ..metrics import (
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
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "per_seed": self.per_seed,
            "aggregates": self.aggregates,
            "per_dataset": self.per_dataset,
            "per_dataset_agg": self.per_dataset_agg,
            "stratified": self.stratified,
            "intervals": self.intervals,
            "errors": self.errors,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DataError(
                f"report schema {version!r} unsupported (expected {SCHEMA_VERSION!r})"
            )
        return cls(
            config=data["config"],
            per_seed=list(data["per_seed"]),
            aggregates=list(data["aggregates"]),
            per_dataset=list(data["per_dataset"]),
            per_dataset_agg=list(data["per_dataset_agg"]),
            stratified=list(data["stratified"]),
            intervals=list(data.get("intervals", [])),
            errors=list(data["errors"]),
        )


def resolve_partition(spec: str | None) -> GroupPartition | None:
    """A builtin partition name, or a JSON file {"name":..., "groups": {...}}."""
    if spec is None:
        return None
    if spec in BUILTIN_PARTITIONS:
        return BUILTIN_PARTITIONS[spec]
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
        if "groups" not in data or not isinstance(data["groups"], dict):
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


def _seed_row(
    seed: int,
    method: str,
    n_cal: int,
    n_test: int,
    intervals,
    y_hat,
    gts,
    scale: RatingScale,
    adjusted: bool,
) -> dict:
    im = interval_metrics(intervals, gts)
    pm = point_metrics(y_hat, gts, scale)
    mid = midpoint_eval(intervals, gts)
    row = {
        "seed": seed,
        "method": method,
        "n_cal": n_cal,
        "n_test": n_test,
        "coverage_raw": im.coverage_raw,
        "coverage_adj": im.coverage_adj,
        "width_raw": im.width_raw,
        "width_adj": im.width_adj,
        "pearson": pm.pearson,
        "spearman": pm.spearman,
        "kendall": pm.kendall,
        "exact_acc": pm.exact_acc,
        "relaxed_acc": pm.relaxed_acc,
        "mae": pm.mae,
        "bias": pm.bias,
        "mid_pearson": mid.pearson,
        "mid_spearman": mid.spearman,
        "mid_kendall": mid.kendall,
        "mid_mae": mid.mae,
        "frac_decisive": None,
        "frac_moderate": None,
        "frac_uninformative": None,
    }
    if adjusted:
        decisive, moderate, uninformative = informativeness(intervals, scale)
        row["frac_decisive"] = decisive
        row["frac_moderate"] = moderate
        row["frac_uninformative"] = uninformative
    return row


def _group_labels(
    samples: list[LabeledSample], partition: GroupPartition | None
) -> list[str] | None:
    if partition is not None:
        return [partition.group_for(s) for s in samples]
    if all(s.group_tag is not None for s in samples):
        return [s.group_tag for s in samples]  # type: ignore[misc]
    return None


def run_experiment(
    config: ExperimentConfig, samples: list[LabeledSample]
) -> ExperimentReport:
    if not samples:
        raise DataError("no samples to run on")
    scale = config.scale
    for s in samples:
        validate_sample(s, scale)
    lengths = {len(s.features) for s in samples}
    if len(lengths) > 1:
        raise DataError(f"inconsistent feature lengths: {sorted(lengths)}")
    seen: set[str] = set()
    for s in samples:
        if s.sample_id in seen:
            raise DataError(
                f"duplicate sample_id {s.sample_id!r}: a repeated sample could "
                "land in both calibration and test"
            )
        seen.add(s.sample_id)
    partition = resolve_partition(config.mondrian)
    adjusted = config.adjust != "off"

    report = ExperimentReport(config=config.to_dict())
    for seed in config.seeds:
        plan = make_split(len(samples), config.cal_fraction, seed)
        if not plan.cal_indices or not plan.test_indices:
            report.errors.append(
                _ledger_row(
                    seed,
                    "*",
                    DataError("split produced an empty calibration or test set"),
                )
            )
            continue
        cal = [samples[i] for i in plan.cal_indices]
        test = [samples[i] for i in plan.test_indices]
        gts = gt_array(test)
        # Learner fits shared by this split's methods (per group under Mondrian).
        cache: dict = {}
        try:
            test_groups = _group_labels(test, partition)
        except DataError as exc:
            report.errors.append(_ledger_row(seed, "*", exc))
            continue
        for method in config.methods:
            try:
                if partition is None:
                    res = run_method(
                        method, cal, test, config.alpha, scale,
                        config.method_config, cache,
                    )
                else:
                    res = run_mondrian(
                        cal, test, config.alpha, partition, method, scale,
                        config.method_config, cache=cache,
                    )
                ivs = adjust_all(res.intervals, scale, config.adjust)
                report.per_seed.append(
                    _seed_row(
                        seed, method, len(cal), len(test), ivs, res.y_hat,
                        gts, scale, adjusted,
                    )
                )
                if config.emit_intervals:
                    report.intervals.extend(
                        _interval_lines(seed, method, test, ivs, res.y_hat, gts)
                    )
                report.per_dataset.extend(
                    _dataset_rows(seed, method, test, ivs, res.y_hat, gts, scale)
                )
                keys: dict[str, list] = {
                    "gt_level": [str(int(g)) for g in gts],
                    "error_bin": [str(int(b)) for b in error_bins(res.y_hat, gts, scale)],
                    "dataset": [s.dataset_tag for s in test],
                }
                if test_groups is not None:
                    keys["group"] = test_groups
                strat = stratified(ivs, res.y_hat, gts, keys)
                for kind in sorted(strat):
                    for label in sorted(strat[kind]):
                        sm = strat[kind][label]
                        report.stratified.append(
                            {
                                "seed": seed,
                                "method": method,
                                "kind": kind,
                                "stratum": label,
                                "count": sm.count,
                                "coverage_raw": sm.coverage_raw,
                                "coverage_adj": sm.coverage_adj,
                                "width_raw": sm.width_raw,
                                "width_adj": sm.width_adj,
                                "bias": sm.bias,
                                "mae": sm.mae,
                            }
                        )
            except (DataError, ValueError) as exc:  # the cell failed on its data
                report.errors.append(_ledger_row(seed, method, exc))

    _aggregate(report, config)
    return report


def _ledger_row(seed: int, method: str, exc: Exception) -> dict:
    return {
        "seed": seed,
        "method": method,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }


def _interval_lines(seed, method, test, intervals, y_hat, gts) -> list[dict]:
    lines = []
    for s, iv, yh, gt in zip(test, intervals, y_hat, gts):
        lines.append(
            {
                "seed": seed,
                "method": method,
                "sample_id": s.sample_id,
                "lower": iv.lower,
                "upper": iv.upper,
                "adj_lower": iv.adj_lower,
                "adj_upper": iv.adj_upper,
                "y_hat": float(yh),
                "covered_raw": iv.contains(float(gt)),
                "covered_adj": (
                    iv.contains_adjusted(int(gt)) if iv.adj_lower is not None else None
                ),
            }
        )
    return lines


def _dataset_rows(seed, method, test, intervals, y_hat, gts, scale) -> list[dict]:
    buckets: dict[str, list[int]] = {}
    for i, s in enumerate(test):
        buckets.setdefault(s.dataset_tag, []).append(i)
    rows = []
    for dataset in sorted(buckets):
        idx = buckets[dataset]
        ivs = [intervals[i] for i in idx]
        im = interval_metrics(ivs, gts[idx])
        rho = pearson(y_hat[idx], gts[idx])
        rows.append(
            {
                "seed": seed,
                "method": method,
                "dataset": dataset,
                "n": len(idx),
                "width_raw": im.width_raw,
                "width_adj": im.width_adj,
                "pearson": rho,
                "rsg": rsg(rho, im.width_raw, scale) if rho is not None else None,
                "coverage_raw": im.coverage_raw,
                "coverage_adj": im.coverage_adj,
            }
        )
    return rows


def _aggregate(report: ExperimentReport, config: ExperimentConfig) -> None:
    for method in config.methods:
        rows = [r for r in report.per_seed if r["method"] == method]
        if not rows:
            continue
        agg: dict = {"method": method, "n_seeds": len(rows)}
        for col in SEED_METRICS:
            mean, std = _mean_std([r[col] for r in rows])
            agg[f"{col}_mean"] = mean
            agg[f"{col}_std"] = std
        report.aggregates.append(agg)

    dataset_keys = sorted(
        {(r["method"], r["dataset"]) for r in report.per_dataset},
        key=lambda k: (config.methods.index(k[0]), k[1]),
    )
    for method, dataset in dataset_keys:
        rows = [
            r
            for r in report.per_dataset
            if r["method"] == method and r["dataset"] == dataset
        ]
        agg = {"method": method, "dataset": dataset, "n_seeds": len(rows)}
        for col in DATASET_METRICS:
            mean, std = _mean_std([r[col] for r in rows])
            agg[f"{col}_mean"] = mean
            agg[f"{col}_std"] = std
        report.per_dataset_agg.append(agg)

    # Collapse per-seed strata to their across-seed means in place.
    strata_keys = sorted(
        {(r["method"], r["kind"], r["stratum"]) for r in report.stratified},
        key=lambda k: (config.methods.index(k[0]), k[1], k[2]),
    )
    collapsed = []
    for method, kind, stratum in strata_keys:
        rows = [
            r
            for r in report.stratified
            if r["method"] == method and r["kind"] == kind and r["stratum"] == stratum
        ]
        entry = {
            "method": method,
            "kind": kind,
            "stratum": stratum,
            "n_seeds": len(rows),
        }
        for col in STRATUM_METRICS:
            mean, _ = _mean_std([r[col] for r in rows])
            entry[f"{col}_mean"] = mean
        collapsed.append(entry)
    report.stratified = collapsed
