"""Scalar metrics and stratified diagnostics for interval and point quality.

Interval metrics take an ``Intervals`` and run as array expressions over
its columns. The metric families return dicts keyed by their report
columns, so the runner merges them into report rows as they are.

Correlations that are undefined (fewer than two points, or zero variance,
e.g. the midpoint of all-full-range intervals) return None rather than NaN;
report writers render the marker as an empty cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataError, Intervals, RatingScale, tag_codes


def coverage(ivs: Intervals, gts, adjusted: bool = False) -> float:
    """Share of rows whose interval holds its target; the adjusted form
    compares int(target) with the integer endpoints."""
    y = np.asarray(gts, dtype=np.float64)
    if len(ivs) != len(y):
        raise DataError(f"{len(ivs)} intervals vs {len(y)} ground truths")
    if not len(ivs):
        raise DataError("coverage of an empty set")
    hits = ivs.contains_adjusted(y) if adjusted else ivs.contains(y)
    return int(np.count_nonzero(hits)) / len(ivs)


def interval_metrics(ivs: Intervals, gts) -> dict:
    """coverage_raw, coverage_adj, width_raw and width_adj; the adjusted
    two are None for intervals with no integer endpoints."""
    y = np.asarray(gts, dtype=np.float64)
    out = {
        "coverage_raw": coverage(ivs, y, adjusted=False),
        "coverage_adj": None,
        "width_raw": float(np.mean(ivs.width)),
        "width_adj": None,
    }
    if ivs.adjusted:
        out["coverage_adj"] = coverage(ivs, y, adjusted=True)
        # Integer widths averaged as int64, the dtype a list of ints gives.
        out["width_adj"] = float(np.mean(ivs.adj_width))
    return out


def midrank(values) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks.

    One stable argsort, then one expression over the runs of equal values in
    sorted order: a run from sorted position ``start`` to ``end`` gets
    ``(start + end) / 2.0 + 1.0``. Cost O(n log n). A NaN equals nothing,
    itself included, so each NaN ranks alone after every number.
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    order = np.argsort(v, kind="stable")
    starts = _run_starts(v[order])
    sizes = np.diff(np.append(starts, n))
    ranks = np.empty(n)
    ranks[order] = np.repeat((2 * starts + sizes - 1) / 2.0 + 1.0, sizes)
    return ranks


def _run_starts(*sorted_cols: np.ndarray) -> np.ndarray:
    """Positions where a run of equal rows begins in lexicographic order."""
    n = len(sorted_cols[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for col in sorted_cols:
        new[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(new)


def pearson(x, y) -> float | None:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2:
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(xc @ yc) / (sx * sy)


def _tie_pairs(v: np.ndarray) -> int:
    _, counts = np.unique(v, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for non-negative integer ranks.

    A bottom-up merge sort in about log2(n) numpy passes. At width w each
    pair of adjacent sorted blocks is offset by its pair id, so the left
    blocks form one sorted array: one searchsorted counts the left elements
    above each right element, and one sort merges every pair at once.
    """
    n = len(ranks)
    a = ranks.astype(np.int64)
    span = int(a.max()) + 1 if n else 1
    pos = np.arange(n)
    total = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        keys = a + pair * span
        right = pos % (2 * width) >= width
        at_most = np.searchsorted(keys[~right], keys[right], side="right")
        # Every left block before a right element's own is full.
        total += int(((pair[right] + 1) * width - at_most).sum())
        a = np.sort(keys, kind="stable") - pair * span
        width *= 2
    return total


def kendall_tau_b(x, y) -> float | None:
    """Tie-corrected Kendall rank correlation, in O(n log n) (Knight 1966).

    Sort the pairs by (x, y). With n1 pairs tied in x, n2 tied in y and n3
    tied in both, concordant plus discordant pairs number
    n0 - n1 - n2 + n3, and the discordant pairs D are the inversions of y in
    that order, so tau-b = (n0 - n1 - n2 + n3 - 2 D) / denom. Every count is
    an exact integer, so the result equals the pairwise sign sum. Cost
    O(n log n) time and O(n) memory.

    None when fewer than two points or when either side is constant. Once
    the denominator is nonzero, a NaN or an infinity anywhere gives NaN, as
    the pairwise differences do (inf - inf is NaN); NaNs count as one value
    when the ties are counted.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 2:
        return None
    n0 = n * (n - 1) // 2
    n1, n2 = _tie_pairs(x), _tie_pairs(y)
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        return None
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return math.nan
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    both = np.diff(np.append(_run_starts(xs, ys), n))
    n3 = int((both * (both - 1) // 2).sum())
    _, y_ranks = np.unique(ys, return_inverse=True)
    discordant = _inversions(y_ranks)
    return float(n0 - n1 - n2 + n3 - 2 * discordant) / denom


def correlations(pred, gt) -> tuple[float | None, float | None, float | None]:
    """(Pearson, Spearman, Kendall tau-b); Spearman is Pearson on midranks."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if len(pred) != len(gt):
        raise DataError(f"{len(pred)} predictions vs {len(gt)} ground truths")
    if len(pred) < 2:
        return None, None, None
    return (
        pearson(pred, gt),
        pearson(midrank(pred), midrank(gt)),
        kendall_tau_b(pred, gt),
    )


def round_to_label(y_hat, scale: RatingScale) -> np.ndarray:
    """Round half up to the nearest integer label, clipped into the scale."""
    arr = np.floor(np.asarray(y_hat, dtype=np.float64) + 0.5)
    return np.clip(arr, 1, scale.k_max).astype(np.intp)


def accuracy_metrics(pred, gt) -> dict:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if len(pred) != len(gt):
        raise DataError(f"{len(pred)} predictions vs {len(gt)} ground truths")
    if len(pred) == 0:
        raise DataError("accuracy metrics of an empty set")
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    return {
        "exact_acc": float((diff == 0).mean()),
        "relaxed_acc": float((np.abs(diff) <= 1).mean()),
        "mae": float(np.abs(diff).mean()),
        "bias": float(diff.mean()),
    }


def point_metrics(y_hat, gt, scale: RatingScale) -> dict:
    """Correlations on the raw predictions, accuracy on their rounded labels."""
    p, s, k = correlations(y_hat, gt)
    return {
        "pearson": p,
        "spearman": s,
        "kendall": k,
        **accuracy_metrics(round_to_label(y_hat, scale), np.asarray(gt)),
    }


def rsg(rho_d: float, w_d: float, scale: RatingScale) -> float:
    """Gap between ranking strength and interval informativeness."""
    if not 0.0 <= w_d <= scale.max_width:
        raise DataError(f"width {w_d} outside [0, {scale.max_width}]")
    return abs(rho_d) - (1.0 - w_d / scale.max_width)


def midpoint_eval(ivs: Intervals, gts) -> dict:
    """Point metrics of the interval midpoints, keyed ``mid_*``."""
    mid = (ivs.lower + ivs.upper) / 2.0
    gt = np.asarray(gts, dtype=np.float64)
    p, s, k = correlations(mid, gt)
    return {
        "mid_pearson": p,
        "mid_spearman": s,
        "mid_kendall": k,
        "mid_mae": float(np.abs(mid - gt).mean()),
    }


def error_bins(y_hat, gts, scale: RatingScale) -> np.ndarray:
    """|gt - rounded prediction|, one bin per magnitude 0..k_max-1."""
    rounded = round_to_label(y_hat, scale)
    return np.abs(np.asarray(gts, dtype=np.intp) - rounded)


@dataclass(frozen=True, eq=False)
class Strata:
    """Rows grouped by label: the distinct labels, read as strings, in
    sorted order, each with its row indices in ascending order."""

    labels: tuple[str, ...]
    rows: tuple[np.ndarray, ...]
    n: int

    @classmethod
    def of(cls, labels) -> "Strata":
        """A Strata as it is, or one label per row grouped by one stable sort.
        A tag column (object dtype) is sorted as each row's code among its
        sorted distinct tags, so no string is compared per row."""
        if isinstance(labels, cls):
            return labels
        labels = np.asarray(labels)
        names = None
        if labels.dtype.kind == "O":
            names, labels = tag_codes(list(map(str, labels.tolist())))
        elif labels.dtype.kind != "U":
            labels = labels.astype(str)
        n = len(labels)
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]) if n else order
        firsts = ordered[starts].tolist()
        return cls(
            labels=tuple(firsts if names is None else [names[i] for i in firsts]),
            rows=tuple(np.split(order, starts[1:])) if n else (),
            n=n,
        )

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return zip(self.labels, self.rows)


def stratified(
    ivs: Intervals,
    y_hat,
    gts,
    keys: dict,
) -> dict[str, dict[str, dict]]:
    """Per-stratum count, interval metrics, bias and MAE for each key family.

    ``keys`` maps a family name (e.g. "gt_level", "dataset") to one stratum
    label per sample, or to those labels already grouped as a ``Strata``.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    gt = np.asarray(gts, dtype=np.float64)
    out: dict[str, dict[str, dict]] = {}
    for kind, labels in keys.items():
        if len(labels) != len(ivs):
            raise DataError(f"key {kind!r} has {len(labels)} labels for "
                            f"{len(ivs)} samples")
        out[kind] = {}
        for lab, idx in Strata.of(labels):
            diff = y_hat[idx] - gt[idx]
            out[kind][lab] = {
                "count": len(idx),
                **interval_metrics(ivs[idx], gt[idx]),
                "bias": float(diff.mean()),
                "mae": float(np.abs(diff).mean()),
            }
    return out


def bucket_widths(widths) -> tuple[float, float, float]:
    """Fractions that are decisive (width <= 1), moderately informative
    (1 < width <= 3), and uninformative (width > 3); bounds are closed above."""
    w = np.asarray(widths, dtype=np.float64)
    if len(w) == 0:
        raise DataError("cannot bucket an empty width list")
    n = len(w)
    decisive = float((w <= 1).sum()) / n
    moderate = float(((w > 1) & (w <= 3)).sum()) / n
    return decisive, moderate, float((w > 3).sum()) / n


def informativeness(ivs: Intervals, scale: RatingScale) -> tuple[float, float, float]:
    """Width buckets of the integer-adjusted intervals."""
    if not len(ivs):
        raise DataError("informativeness of an empty set")
    if not ivs.adjusted:
        raise DataError("informativeness needs adjusted intervals")
    return bucket_widths(ivs.adj_width)

