"""Report files: CSVs, a human-readable summary, and the full JSON object.

Output is a pure function of the report contents (no timestamps, sorted JSON
keys, full-precision floats), so re-emitting the same report is byte
identical.
"""

from __future__ import annotations

import csv
import json
import os

from ..core import DataError
from .runner import DATASET_METRICS, SEED_METRICS, STRATUM_METRICS, ExperimentReport

PER_SEED_COLUMNS = ("seed", "method", "n_cal", "n_test", *SEED_METRICS)
AGGREGATE_COLUMNS = (
    "method",
    "n_seeds",
    *(f"{m}_{s}" for m in SEED_METRICS for s in ("mean", "std")),
)
PER_DATASET_COLUMNS = (
    "method",
    "dataset",
    "n_seeds",
    *(f"{m}_{s}" for m in DATASET_METRICS for s in ("mean", "std")),
)
STRATIFIED_COLUMNS = (
    "method",
    "kind",
    "stratum",
    "n_seeds",
    *(f"{m}_mean" for m in STRATUM_METRICS),
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in columns])


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _summary_text(report: ExperimentReport) -> str:
    lines = [f"scorebands experiment report (schema v{report.schema_version})"]
    cfg = report.config
    lines.append(
        "config: alpha={alpha} seeds={n} cal_fraction={frac} adjust={adj} "
        "mondrian={mond}".format(
            alpha=cfg.get("alpha"),
            n=len(cfg.get("seeds", [])),
            frac=cfg.get("cal_fraction"),
            adj=cfg.get("adjust"),
            mond=cfg.get("mondrian"),
        )
    )
    lines.append("")
    header = (
        f"{'method':<14}{'cov_raw':>16}{'width_raw':>16}"
        f"{'cov_adj':>16}{'width_adj':>16}{'decisive':>10}"
    )
    lines.append(header)
    for agg in report.aggregates:
        spreads = (
            f"{_fmt(agg[f'{m}_mean']) + ' +/- ' + _fmt(agg[f'{m}_std']):>16}"
            for m in ("coverage_raw", "width_raw", "coverage_adj", "width_adj")
        )
        lines.append(
            f"{agg['method']:<14}{''.join(spreads)}{_fmt(agg['frac_decisive_mean']):>10}"
        )
    if report.per_dataset_agg:
        lines.append("")
        lines.append(
            f"{'method':<14}{'dataset':<24}{'width_raw':>10}"
            f"{'pearson':>10}{'rsg':>10}"
        )
        for row in report.per_dataset_agg:
            lines.append(
                f"{row['method']:<14}{row['dataset']:<24}"
                f"{_fmt(row['width_raw_mean']):>10}"
                f"{_fmt(row['pearson_mean']):>10}"
                f"{_fmt(row['rsg_mean']):>10}"
            )
    lines.append("")
    lines.append(f"errors: {len(report.errors)}")
    for err in report.errors:
        lines.append(
            f"  seed={err['seed']} method={err['method']}: "
            f"{err.get('error_type', 'error')}: {err['error']}"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir) -> dict[str, str]:
    """Write all report files into out_dir; returns {kind: path}."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise DataError(f"cannot write to {out_dir}: {exc}") from exc

    paths = {
        "per_seed": os.path.join(out_dir, "per_seed.csv"),
        "aggregate": os.path.join(out_dir, "aggregate.csv"),
        "per_dataset": os.path.join(out_dir, "per_dataset.csv"),
        "stratified": os.path.join(out_dir, "stratified.csv"),
        "summary": os.path.join(out_dir, "summary.txt"),
        "report": os.path.join(out_dir, "report.json"),
    }
    _write_csv(paths["per_seed"], PER_SEED_COLUMNS, report.per_seed)
    _write_csv(paths["aggregate"], AGGREGATE_COLUMNS, report.aggregates)
    _write_csv(paths["per_dataset"], PER_DATASET_COLUMNS, report.per_dataset_agg)
    _write_csv(paths["stratified"], STRATIFIED_COLUMNS, report.stratified)
    if report.intervals:
        paths["intervals"] = os.path.join(out_dir, "intervals.jsonl")
        with open(paths["intervals"], "w", encoding="utf-8") as fh:
            for line in report.intervals:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        fh.write(_summary_text(report))
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths
