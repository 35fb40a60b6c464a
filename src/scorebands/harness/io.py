"""Sample file ingestion and multi-judge feature fusion.

Sample lines carry either a ``logprobs`` object keyed by rating label
("1".."K") or a pre-built ``features`` list whose length is a multiple of K
(the fused multi-judge form). Malformed lines are collected with their line
numbers; only a file with no usable line at all is rejected outright.
"""

from __future__ import annotations

import json
import math
from array import array

import numpy as np

from .. import conformal
from ..base import decoded_lines, tag_text, utf8_line
from ..core import Batch, DataError, RatingScale, row_faults

REQUIRED_FIELDS = ("sample_id", "judge", "dataset", "gt_score")


def _text(obj: dict, key: str) -> str | None:
    """The text of tag ``key`` of a parsed line (see `tag_text`); None for a
    null or absent ``group``."""
    value = obj.get(key)
    if value is None and key == "group":
        return None
    return tag_text(value, key)


def _fields(obj) -> tuple:
    """(sample_id, judge, dataset, group, gt_score) of one parsed line;
    raises DataError naming the first fault among them."""
    if not isinstance(obj, dict):
        raise DataError("line is not an object")
    for key in REQUIRED_FIELDS:
        if key not in obj:
            raise DataError(f"missing field {key!r}")
    sample_id, judge = _text(obj, "sample_id"), _text(obj, "judge")
    dataset, group = _text(obj, "dataset"), _text(obj, "group")
    gt = obj["gt_score"]
    if type(gt) is not int:  # a JSON true/false is a bool, not an int
        raise DataError(f"gt_score must be an integer, got {gt!r}")
    return sample_id, judge, dataset, group, gt


def _number(value, key: str) -> float:
    """A feature entry that is not a float: an int as a float, saturated to
    an infinity beyond float range (like the literal 1e400)."""
    if type(value) is not int:  # a JSON true/false is a bool
        raise DataError(f"logprob {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return -math.inf if value < 0 else math.inf


def _extend(feats: array, obj: dict, label_keys: list[str]) -> bool:
    """Append the feature entries of one parsed line to ``feats``; returns
    whether they are keyed by label. Raises DataError naming the entries'
    first structural fault, once some of them may have been appended."""
    if "logprobs" in obj:
        logprobs = obj["logprobs"]
        if not isinstance(logprobs, dict):
            raise DataError("logprobs must be an object")
        for key in label_keys:
            if key not in logprobs:
                raise DataError(f"logprobs missing label {key!r}")
        for key in label_keys:
            v = logprobs[key]
            feats.append(v if type(v) is float else _number(v, key))
        return True
    if "features" in obj:
        values = obj["features"]
        if not isinstance(values, list) or not values:
            raise DataError("features must be a non-empty list")
        for i, v in enumerate(values):
            feats.append(v if type(v) is float else _number(v, str(i)))
        return False
    raise DataError("line has neither 'logprobs' nor 'features'")


def load_samples(
    path, scale: RatingScale = RatingScale()
) -> tuple[Batch, list[tuple[int, str]]]:
    """Read line-delimited samples; returns (Batch of the kept lines, errors).

    Each line's structure is checked as it is parsed, and its entries and
    tags go straight into columns: the entries of every line end to end in
    one float buffer, and each tag into a list in which equal dataset,
    group and judge tags are one str object. The kept rows are then stacked
    once per feature width, and the row rules of
    :func:`~scorebands.core.row_faults` run over each matrix. A broken line
    becomes a ``(line number, reason)`` error; a file whose kept rows have
    more than one feature length raises DataError. A line that holds bytes
    that are not UTF-8 is a broken line.
    """
    label_keys = [str(label) for label in scale.labels]
    errors: list[tuple[int, str]] = []
    feats = array("d")  # the entries of every parsed line, end to end
    line_nos, widths = array("q"), array("q")
    gts, by_label = [], []
    sample_ids, judges, datasets, groups = [], [], [], []
    shared: dict[str, str] = {}  # the one str of each distinct tag
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
            start = len(feats)
            try:
                sample_id, judge, dataset, group, gt = _fields(obj)
                labelled = _extend(feats, obj, label_keys)
            except DataError as exc:
                del feats[start:]
                errors.append((line_no, str(exc)))
                continue
            line_nos.append(line_no)
            widths.append(len(feats) - start)
            by_label.append(labelled)
            gts.append(gt)
            sample_ids.append(sample_id)
            judges.append(shared.setdefault(judge, judge))
            datasets.append(shared.setdefault(dataset, dataset))
            groups.append(group if group is None else shared.setdefault(group, group))
    n_lines = len(line_nos) + len(errors)
    # Saturated at 2**53, up to which float64 holds every integer exactly, so
    # any JSON integer converts; the label rule then rejects a huge one.
    y = np.clip(np.array(gts, dtype=object), -2**53, 2**53).astype(np.float64)
    first_key = np.array(by_label, dtype=np.intp)  # logprobs are named from 1
    widths = np.asarray(widths, dtype=np.intp)
    flat, starts = np.frombuffer(feats), np.cumsum(widths) - widths
    kept, blocks = [], {}
    for width in np.unique(widths).tolist():
        idx = np.flatnonzero(widths == width)
        # The one stacking point: the attribute the benchmark's tracer counts.
        X = conformal.features_matrix(flat[starts[idx, None] + np.arange(width)])
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
    batch = Batch(
        X=blocks.popitem()[1] if blocks else np.empty((0, 0)),
        y=y[kept],
        dataset=np.array(datasets, dtype=object)[kept],
        group=np.array(groups, dtype=object)[kept],
        sample_id=np.array(sample_ids, dtype=object)[kept],
        judge=np.array(judges, dtype=object)[kept],
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
        judge=np.array(["+".join(order)], dtype=object).repeat(len(shared)),
    )
    return fused, dropped
