"""Scalar metrics and stratified diagnostics for interval and point quality.

Interval metrics take an ``Intervals`` and run as array expressions over
its columns. The metric families return dicts keyed by their report
columns, so the runner merges them into report rows as they are.

Correlations rank their target once, as a ``Ranked``, which a caller can
make once and pass for many predictions. Each prediction is then sorted
once: one stable argsort gives its midranks for Spearman and the
(prediction, target) order for Kendall tau-b, whose discordant pairs take
ceil(log2 m) radix passes over the target's codes, m being the number of
distinct target values (3 passes for labels on a 5-point scale).

Correlations that are undefined (fewer than two points, or zero variance,
e.g. the midpoint of all-full-range intervals) return None rather than NaN;
report writers render the marker as an empty cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Strata lives in core; callers may import it from here too.
from .core import DataError, Intervals, RatingScale, Strata


def _targets(ivs: Intervals, gts) -> np.ndarray:
    """The targets as float64, one for each of a non-empty set of intervals."""
    y = np.asarray(gts, dtype=np.float64)
    if len(ivs) != len(y):
        raise DataError(f"{len(ivs)} intervals vs {len(y)} ground truths")
    if not len(ivs):
        raise DataError("coverage of an empty set")
    return y


def coverage(ivs: Intervals, gts, adjusted: bool = False) -> float:
    """Share of rows whose interval holds its target; the adjusted form
    compares int(target) with the integer endpoints."""
    y = _targets(ivs, gts)
    hits = ivs.contains_adjusted(y) if adjusted else ivs.contains(y)
    return int(np.count_nonzero(hits)) / len(ivs)


def interval_metrics(ivs: Intervals, gts) -> dict:
    """coverage_raw, coverage_adj, width_raw and width_adj; the adjusted
    two are None for intervals with no integer endpoints."""
    return _interval_means(*_interval_columns(ivs, _targets(ivs, gts)))


def _interval_columns(ivs: Intervals, y: np.ndarray) -> tuple:
    """Each row's hit, adjusted hit, width and adjusted width; the adjusted
    two are None for intervals with no integer endpoints."""
    hit_adj = ivs.contains_adjusted(y) if ivs.adjusted else None
    return ivs.contains(y), hit_adj, ivs.width, ivs.adj_width


def _interval_means(hit, hit_adj, width, adj_width) -> dict:
    """The rows' interval metrics from their ``_interval_columns``."""
    n = len(hit)
    return {
        "coverage_raw": int(np.count_nonzero(hit)) / n,
        "coverage_adj": None if hit_adj is None else int(np.count_nonzero(hit_adj)) / n,
        "width_raw": float(np.mean(width)),
        # Integer widths averaged as int64, the dtype a list of ints gives.
        "width_adj": None if adj_width is None else float(np.mean(adj_width)),
    }


def _run_starts(*sorted_cols: np.ndarray) -> np.ndarray:
    """Positions where a run of equal rows begins in lexicographic order."""
    n = len(sorted_cols[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for col in sorted_cols:
        new[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(new)


def _run_sizes(starts: np.ndarray, n: int) -> np.ndarray:
    return np.diff(np.append(starts, n))


def _pairs(sizes: np.ndarray) -> int:
    """Pairs of rows within the same run, for runs of ``sizes`` rows."""
    return int((sizes * (sizes - 1) // 2).sum())


def _tie_pairs(sorted_values: np.ndarray, starts: np.ndarray) -> int:
    """Pairs of tied rows in a sorted column whose runs begin at ``starts``.
    All NaNs count as one value: they sort last, each a run of its own."""
    nans = int(np.count_nonzero(np.isnan(sorted_values)))
    return _pairs(_run_sizes(starts, len(sorted_values))) + nans * (nans - 1) // 2


def _midranks(order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) of the rows that ``order`` sorts, whose runs
    of equal values begin at ``starts`` in sorted order: a run from sorted
    position ``start`` to ``end`` gets ``(start + end) / 2.0 + 1.0``."""
    n = len(order)
    sizes = _run_sizes(starts, n)
    ranks = np.empty(n)
    ranks[order] = np.repeat((2 * starts + sizes - 1) / 2.0 + 1.0, sizes)
    return ranks


@dataclass(frozen=True, eq=False)
class Ranked:
    """A target column ranked once, for every correlation against it.

    ``values`` as float64; ``order``, their stable argsort; ``midranks``,
    the average ranks (1-based), tied values sharing the mean of their
    ranks and each NaN ranking alone after every number; ``codes``, each
    row's dense rank 0, 1, ... among the distinct values (each NaN its
    own); ``tie_pairs``, the pairs of tied rows, all NaNs counted as one
    value.
    """

    values: np.ndarray
    order: np.ndarray
    midranks: np.ndarray
    codes: np.ndarray
    tie_pairs: int

    @classmethod
    def of(cls, values) -> "Ranked":
        """A Ranked as it is, or the values ranked by one stable argsort."""
        if isinstance(values, cls):
            return values
        v = np.asarray(values, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        ordered = v[order]
        starts = _run_starts(ordered)
        codes = np.empty(len(v), dtype=np.int64)
        codes[order] = np.repeat(np.arange(len(starts)), _run_sizes(starts, len(v)))
        return cls(v, order, _midranks(order, starts), codes, _tie_pairs(ordered, starts))

    def __len__(self) -> int:
        return len(self.values)


def pearson(x, y) -> float | None:
    """Pearson's r, clipped into [-1, 1] against rounding, as
    ``scipy.stats.pearsonr`` clips it; a NaN stays NaN."""
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
    return float(np.clip(float(xc @ yc) / (sx * sy), -1.0, 1.0))


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for non-negative integer ranks.

    One pass per bit of the largest rank, from the top bit down. The ranks
    of an inverted pair first differ at some bit b, where the earlier row
    has a 1, the later row a 0, and both the same higher bits. Pass b sorts
    the rows stably by their bits above b, so each run of equal higher bits
    keeps row order, and every row whose bit b is 0 counts the 1s before it
    in its run: the 1s before it in sorted order, less those before its run.
    Ranks on m levels (0..m-1) take ceil(log2 m) passes, each one stable
    argsort of the higher bits (a radix sort of uint16 keys while every rank
    is below 65 536, int64 keys above) and one prefix sum: O(n log m) time
    and O(n) memory.
    """
    a = np.asarray(ranks, dtype=np.int64)
    if len(a) < 2:
        return 0
    top = int(a.max())
    key_type = np.uint16 if top < 1 << 16 else np.int64
    total = 0
    for b in reversed(range(top.bit_length())):
        high = a >> (b + 1)
        order = np.argsort(high.astype(key_type), kind="stable")
        bits = (a[order] >> b) & 1
        ones_before = np.cumsum(bits) - bits
        starts = _run_starts(high[order])
        run_base = np.repeat(ones_before[starts], _run_sizes(starts, len(a)))
        total += int(((ones_before - run_base) * (1 - bits)).sum())
    return total


def _joint_order(x: np.ndarray, target: Ranked) -> np.ndarray:
    """The rows sorted by (x, target), ties in both in row order: one stable
    argsort of x taken in the target's order."""
    return target.order[np.argsort(x[target.order], kind="stable")]


def kendall_tau_b(x, y, order=None) -> float | None:
    """Tie-corrected Kendall rank correlation, in O(n log n) (Knight 1966).

    Sort the pairs by (x, y). With n1 pairs tied in x, n2 tied in y and n3
    tied in both, concordant plus discordant pairs number
    n0 - n1 - n2 + n3, and the discordant pairs D are the inversions of y's
    dense codes in that order, so tau-b = (n0 - n1 - n2 + n3 - 2 D) / denom.
    Every count is an exact integer, so the result equals the pairwise sign
    sum. ``y`` may be a ``Ranked``, and ``order`` the (x, y) order that
    ``correlations`` has already sorted. Cost: one stable argsort of x, plus
    ceil(log2 m) radix passes over the codes, m being the number of
    distinct y values; O(n) memory.

    None when fewer than two points or when either side is constant. Once
    the denominator is nonzero, a NaN or an infinity anywhere gives NaN, as
    the pairwise differences do (inf - inf is NaN); NaNs count as one value
    when the ties are counted.
    """
    target = Ranked.of(y)
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n != len(target):
        raise DataError(f"{n} x values vs {len(target)} y values")
    if n < 2:
        return None
    if order is None:
        order = _joint_order(x, target)
    xs = x[order]
    starts = _run_starts(xs)
    n0 = n * (n - 1) // 2
    n1, n2 = _tie_pairs(xs, starts), target.tie_pairs
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        return None
    if not (np.isfinite(x).all() and np.isfinite(target.values).all()):
        return math.nan
    codes = target.codes[order]
    n3 = _pairs(_run_sizes(_run_starts(xs, codes), n))
    return float(n0 - n1 - n2 + n3 - 2 * _inversions(codes)) / denom


def correlations(pred, gt) -> tuple[float | None, float | None, float | None]:
    """(Pearson, Spearman, Kendall tau-b); Spearman is Pearson on midranks.

    ``gt`` may be a ``Ranked``. The prediction is sorted once, in the
    target's order, for both its midranks and Kendall's (pred, gt) order.
    """
    target = Ranked.of(gt)
    pred = np.asarray(pred, dtype=np.float64)
    if len(pred) != len(target):
        raise DataError(f"{len(pred)} predictions vs {len(target)} ground truths")
    if len(pred) < 2:
        return None, None, None
    order = _joint_order(pred, target)
    return (
        pearson(pred, target.values),
        pearson(_midranks(order, _run_starts(pred[order])), target.midranks),
        kendall_tau_b(pred, target, order),
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
    """Correlations on the raw predictions, accuracy on their rounded
    labels; ``gt`` may be a ``Ranked``."""
    target = Ranked.of(gt)
    p, s, k = correlations(y_hat, target)
    return {
        "pearson": p,
        "spearman": s,
        "kendall": k,
        **accuracy_metrics(round_to_label(y_hat, scale), target.values),
    }


def rsg(rho_d: float, w_d: float, scale: RatingScale) -> float:
    """Gap between ranking strength and interval informativeness."""
    if not 0.0 <= w_d <= scale.max_width:
        raise DataError(f"width {w_d} outside [0, {scale.max_width}]")
    return abs(rho_d) - (1.0 - w_d / scale.max_width)


def midpoint_eval(ivs: Intervals, gts) -> dict:
    """Point metrics of the interval midpoints, keyed ``mid_*``; ``gts``
    may be a ``Ranked``."""
    mid = (ivs.lower + ivs.upper) / 2.0
    target = Ranked.of(gts)
    p, s, k = correlations(mid, target)
    return {
        "mid_pearson": p,
        "mid_spearman": s,
        "mid_kendall": k,
        "mid_mae": float(np.abs(mid - target.values).mean()),
    }


def error_bins(y_hat, gts, scale: RatingScale) -> np.ndarray:
    """|gt - rounded prediction|, one bin per magnitude 0..k_max-1."""
    rounded = round_to_label(y_hat, scale)
    return np.abs(np.asarray(gts, dtype=np.intp) - rounded)


def stratified(
    ivs: Intervals,
    y_hat,
    gts,
    keys: dict,
) -> dict[str, dict[str, dict]]:
    """Per-stratum count, interval metrics, bias and MAE for each key family.

    ``keys`` maps a family name (e.g. "gt_level", "dataset") to one stratum
    label per sample, or to those labels already grouped as a ``Strata``.
    Each row's hits, widths and ``y_hat - gt`` are worked out once, and each
    stratum reduces its rows of them as ``interval_metrics`` does.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    gt = np.asarray(gts, dtype=np.float64)
    for kind, labels in keys.items():
        if len(labels) != len(ivs):
            raise DataError(f"key {kind!r} has {len(labels)} labels for "
                            f"{len(ivs)} samples")
    columns = _interval_columns(ivs, gt)
    diff = y_hat - gt
    out: dict[str, dict[str, dict]] = {}
    for kind, labels in keys.items():
        out[kind] = {}
        for lab, idx in Strata.of(labels):
            d = diff[idx]
            out[kind][lab] = {
                "count": len(idx),
                **_interval_means(*(None if c is None else c[idx] for c in columns)),
                "bias": float(d.mean()),
                "mae": float(np.abs(d).mean()),
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

