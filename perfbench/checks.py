"""Correctness checks on what the program wrote, read back from its files.

Each check returns a list of problems; an empty list means the outputs are
correct. The run checks hold the split-conformal guarantee itself: a run
that loses coverage fails, however fast it was.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter

# Coverage floors sit this many standard errors below 1 - alpha. Coverage
# is a floor only: discrete labels make several methods conservative.
Z = 5.0


def _coverage_floor(alpha: float, n_conf: float, n_test: float, n_seeds: int) -> float:
    """1 - alpha minus Z standard errors of mean coverage over n_seeds splits.

    Per split, coverage varies with the calibration draw (Beta, variance
    about alpha(1-alpha)/n_conf) and with the test draw (binomial, variance
    alpha(1-alpha)/n_test).
    """
    var = alpha * (1 - alpha) * (1 / n_conf + 1 / n_test) / n_seeds
    return 1 - alpha - Z * math.sqrt(var)


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(report_dir, seeds, methods, alpha, k_max, n_samples, cal_fraction) -> list[str]:
    """Checks on one run_experiment + emit_report output directory."""
    try:
        rows = _read_csv(os.path.join(report_dir, "per_seed.csv"))
        strata = _read_csv(os.path.join(report_dir, "stratified.csv"))
        with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as fh:
            errors = json.load(fh)["errors"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read the report: {exc}"]
    problems = []
    cells = Counter((int(r["seed"]), r["method"]) for r in rows)
    expected = {(s, m) for s in seeds for m in methods}
    if set(cells) != expected or any(c != 1 for c in cells.values()):
        problems.append(
            f"per_seed rows are not one per (seed, method): missing "
            f"{sorted(expected - set(cells))}, extra "
            f"{sorted(c for c in cells if c not in expected or cells[c] > 1)}"
        )
    if errors:
        problems.append(f"error ledger has {len(errors)} rows, first {errors[0]}")
    for r in rows:
        cell = f"seed {r['seed']} {r['method']}"
        if float(r["coverage_adj"]) < float(r["coverage_raw"]):
            problems.append(f"{cell}: outward adjustment lost coverage")
        for col in ("width_raw", "width_adj"):
            if not 0.0 <= float(r[col]) <= k_max - 1:
                problems.append(f"{cell}: {col} {r[col]} outside [0, {k_max - 1}]")

    n_cal = math.floor(cal_fraction * n_samples + 0.5)
    # Learner methods calibrate on half of the calibration set.
    floor = _coverage_floor(alpha, n_cal / 2, n_samples - n_cal, len(seeds))
    for method in methods:
        covs = [float(r["coverage_raw"]) for r in rows if r["method"] == method]
        if covs and sum(covs) / len(covs) < floor:
            problems.append(
                f"{method}: mean raw coverage {sum(covs) / len(covs):.4f} "
                f"below the floor {floor:.4f}"
            )
    # Mondrian runs promise coverage per group as well.
    for s in strata:
        if s["kind"] != "group":
            continue
        n_group = float(s["count_mean"])
        group_floor = _coverage_floor(alpha, n_group / 2, n_group, len(seeds))
        if float(s["coverage_raw_mean"]) < group_floor:
            problems.append(
                f"{s['method']} group {s['stratum']}: raw coverage "
                f"{float(s['coverage_raw_mean']):.4f} below the floor {group_floor:.4f}"
            )
    return problems


def check_extract(features_path, planted, unit, positions=None) -> tuple[list[str], int]:
    """Compare extract_file's output and summary with the planted outcomes.

    Returns the problems and the number of records whose outcome differs
    from the plan. A planted failure that the program rejects is a success.
    """
    try:
        with open(features_path, encoding="utf-8") as fh:
            out = {}
            for line in fh:
                obj = json.loads(line)
                out[obj["sample_id"]] = obj
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read the extraction output: {exc}"], len(planted)
    failed = set(unit["failed_ids"])
    parse_lines = set(unit["parse_error_lines"])
    wrong = []
    for plan in planted:
        sid = plan["sample_id"]
        if plan["outcome"] == "ok":
            got = out.get(sid)
            ok = (
                got is not None
                and got["stage"] == plan["stage"]
                and got["extracted_score"] == plan["score"]
                and got["features"] == plan["features"]
                and (positions is None or positions.get(sid) == plan["position"])
            )
        elif plan["outcome"] == "no_digit":
            ok = sid in failed and sid not in out
        else:
            ok = plan["line"] in parse_lines and sid not in out
        if not ok:
            wrong.append(sid)
    problems = []
    if wrong:
        problems.append(f"{len(wrong)} records differ from the plan, first {wrong[:5]}")
    planted_ids = {p["sample_id"] for p in planted}
    extra = sorted(set(out) - planted_ids)
    if extra:
        problems.append(f"output has records that were never planted: {extra[:5]}")
    n_mismatch = sum(1 for p in planted if p.get("mismatch"))
    if unit["n_mismatch"] != n_mismatch:
        problems.append(
            f"{unit['n_mismatch']} declared-score mismatches reported, {n_mismatch} planted"
        )
    if unit["items"] != len(planted):
        problems.append(f"{unit['items']} records read, {len(planted)} written")
    return problems, len(wrong)
