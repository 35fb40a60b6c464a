"""Sample file ingestion and multi-judge feature fusion.

Sample lines carry either a ``logprobs`` object keyed by rating label
("1".."K") or a pre-built ``features`` list whose length is a multiple of K
(the fused multi-judge form). Malformed lines are collected with their line
numbers; only a file with no usable line at all is rejected outright.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .. import conformal
from ..base import decoded_lines, utf8_line
from ..core import Batch, DataError, RatingScale, row_faults

REQUIRED_FIELDS = ("sample_id", "judge", "dataset", "gt_score")


def _entries(obj, label_keys: list[str]) -> tuple[list, bool]:
    """The feature entries of one parsed line, and whether they are keyed by
    label; raises DataError naming the line's first structural fault."""
    if not isinstance(obj, dict):
        raise DataError("line is not an object")
    for key in REQUIRED_FIELDS:
        if key not in obj:
            raise DataError(f"missing field {key!r}")
    gt = obj["gt_score"]
    if type(gt) is not int:  # a JSON true/false is a bool, not an int
        raise DataError(f"gt_score must be an integer, got {gt!r}")
    if "logprobs" in obj:
        logprobs = obj["logprobs"]
        if not isinstance(logprobs, dict):
            raise DataError("logprobs must be an object")
        for key in label_keys:
            if key not in logprobs:
                raise DataError(f"logprobs missing label {key!r}")
        values, by_label = [logprobs[key] for key in label_keys], True
    elif "features" in obj:
        values, by_label = obj["features"], False
        if not isinstance(values, list) or not values:
            raise DataError("features must be a non-empty list")
    else:
        raise DataError("line has neither 'logprobs' nor 'features'")
    for i, v in enumerate(values):
        if type(v) is float:
            continue
        if type(v) is not int:
            key = label_keys[i] if by_label else str(i)
            raise DataError(f"logprob {key!r} must be a number, got {v!r}")
        try:
            float(v)
        except OverflowError:  # beyond float range, like the literal 1e400
            values[i] = -math.inf if v < 0 else math.inf
    return values, by_label


def load_samples(
    path, scale: RatingScale = RatingScale()
) -> tuple[Batch, list[tuple[int, str]]]:
    """Read line-delimited samples; returns (Batch of the kept lines, errors).

    Each line's structure is checked as it is parsed. The kept rows are then
    stacked once per feature width, and the row rules of
    :func:`~scorebands.core.row_faults` run over each matrix. A broken line
    becomes a ``(line number, reason)`` error; a file whose kept rows have
    more than one feature length raises DataError. A line that holds bytes
    that are not UTF-8 is a broken line.
    """
    label_keys = [str(label) for label in scale.labels]
    errors: list[tuple[int, str]] = []
    line_nos, rows, by_label, gts, tags = [], [], [], [], []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(decoded_lines(fh), start=1):
            if isinstance(line, str) and not line.strip():
                continue
            try:
                obj = json.loads(utf8_line(line))
            except ValueError as exc:  # also an integer too long to convert
                errors.append((line_no, f"invalid JSON: {exc}"))
                continue
            except DataError as exc:
                errors.append((line_no, str(exc)))
                continue
            try:
                values, labelled = _entries(obj, label_keys)
            except DataError as exc:
                errors.append((line_no, str(exc)))
                continue
            line_nos.append(line_no)
            rows.append(values)
            by_label.append(labelled)
            gts.append(obj["gt_score"])
            group = obj.get("group")
            tags.append((str(obj["dataset"]), None if group is None else str(group),
                         str(obj["sample_id"]), str(obj["judge"])))
    n_lines = len(rows) + len(errors)
    # Saturated at 2**53, up to which float64 holds every integer exactly, so
    # any JSON integer converts; the label rule then rejects a huge one.
    y = np.clip(np.array(gts, dtype=object), -2**53, 2**53).astype(np.float64)
    first_key = np.array(by_label, dtype=np.intp)  # logprobs are named from 1
    widths = np.array([len(r) for r in rows], dtype=np.intp)
    kept, blocks = [], {}
    for width in np.unique(widths).tolist():
        idx = np.flatnonzero(widths == width)
        # The one stacking point: the attribute the benchmark's tracer counts.
        X = conformal.features_matrix([rows[i] for i in idx])
        faults = row_faults(X, y[idx], scale, first_key[idx])
        errors.extend((line_nos[idx[j]], reason) for j, reason in faults.items())
        ok = np.setdiff1d(np.arange(len(idx)), list(faults))
        if ok.size:
            kept, blocks[width] = idx[ok].tolist(), X[ok]
    if len(blocks) > 1:
        raise DataError(f"inconsistent feature lengths: {sorted(blocks)}")
    if n_lines > 0 and not kept:
        raise DataError(f"all {n_lines} lines of {path} are malformed")
    errors.sort()
    dataset, group, sample_id, judge = zip(*(tags[i] for i in kept)) if kept else ([],) * 4
    batch = Batch(
        X=blocks.popitem()[1] if blocks else np.empty((0, 0)),
        y=y[kept],
        dataset=np.array(dataset, dtype=str),
        group=np.array(group, dtype=object),
        sample_id=np.array(sample_id, dtype=object),
        judge=np.array(judge, dtype=str),
    )
    return batch, errors


def write_samples(batch: Batch, path, scale: RatingScale) -> None:
    """One line per row: ``logprobs`` keyed by label when the row is one
    judge's K entries, else the ``features`` list."""
    label_keys = [str(label) for label in scale.labels]
    by_label = batch.X.shape[1] == scale.k_max
    columns = zip(
        batch.X.tolist(), batch.y.tolist(), batch.dataset.tolist(),
        batch.group.tolist(), batch.sample_id.tolist(), batch.judge.tolist(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        for values, gt, dataset, group, sample_id, judge in columns:
            obj: dict = {
                "sample_id": sample_id,
                "judge": judge,
                "dataset": dataset,
                "gt_score": int(gt),
            }
            if by_label:
                obj["logprobs"] = dict(zip(label_keys, values))
            else:
                obj["features"] = values
            if group is not None:
                obj["group"] = group
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def fuse(
    by_judge: dict[str, Batch], order: list[str] | None = None
) -> tuple[Batch, list[str]]:
    """Concatenate per-judge features on shared sample ids (inner join).

    Feature blocks follow the given judge order (sorted judge tags when no
    order is configured), and rows the first judge's order of ids. An id
    repeated within one judge keeps that judge's last row. Ids missing from
    any judge are dropped and returned; a ground-truth disagreement for a
    shared id is an error.
    """
    if not by_judge:
        raise DataError("no judges to fuse")
    if order is None:
        order = sorted(by_judge)
    if set(order) != set(by_judge):
        raise DataError(
            f"judge order {order} does not match judges {sorted(by_judge)}"
        )
    for judge in order:
        if order.count(judge) > 1:
            raise DataError(f"judge {judge!r} is named more than once in order {order}")
    row_of = {
        judge: dict(zip(batch.sample_id.tolist(), range(len(batch))))
        for judge, batch in by_judge.items()
    }
    first_ids = dict.fromkeys(by_judge[order[0]].sample_id.tolist())
    shared = [sid for sid in first_ids if all(sid in row_of[j] for j in order)]
    dropped = sorted(set().union(*row_of.values()) - set(shared))
    rows = {j: np.array([row_of[j][sid] for sid in shared], dtype=np.intp) for j in order}
    gts = np.column_stack([by_judge[j].y[rows[j]] for j in order])
    mismatch = np.flatnonzero((gts != gts[:, :1]).any(axis=1))
    if mismatch.size:
        i = int(mismatch[0])
        per_judge = {j: int(g) for j, g in zip(order, gts[i])}
        raise DataError(f"ground-truth mismatch for sample {shared[i]!r}: {per_judge}")
    first = by_judge[order[0]][rows[order[0]]]
    fused = Batch(
        X=np.hstack([by_judge[j].X[rows[j]] for j in order]),
        y=first.y,
        dataset=first.dataset,
        group=first.group,
        sample_id=first.sample_id,
        judge=np.full(len(shared), "+".join(order)),
    )
    return fused, dropped
