"""Shared array types: samples, intervals, and splits.

The errors and ``RatingScale`` are defined in :mod:`scorebands.base`,
which needs no numpy, and imported here under the same names.

Samples travel as one ``Batch`` (feature matrix, scores and tag arrays)
and intervals as one ``Intervals`` (endpoint arrays), each built once and
sliced by index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .base import DataError, InvariantError, RatingScale


class Intervals:
    """A set of intervals as columns.

    ``lower`` and ``upper`` are float64 arrays; ``adj_lower`` and
    ``adj_upper`` are int64 arrays, set together or both None. Every row is
    checked: no NaN endpoint, lower <= upper, and adjusted lower <= adjusted
    upper. Index with a slice or an index array to take rows; an integer
    key raises TypeError, so an Intervals is not iterable. Treat the arrays
    as read-only.
    """

    __slots__ = ("lower", "upper", "adj_lower", "adj_upper")

    def __init__(self, lower, upper, adj_lower=None, adj_upper=None) -> None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(
                f"endpoint arrays must be 1-D of one length, got "
                f"{lower.shape} and {upper.shape}"
            )
        if (adj_lower is None) != (adj_upper is None):
            raise ValueError("adjusted endpoints must be set together")
        bad = np.flatnonzero(~(lower <= upper))
        if bad.size:
            lo, hi = float(lower[bad[0]]), float(upper[bad[0]])
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError(f"interval endpoint is NaN ({lo}, {hi})")
            raise ValueError(f"interval lower {lo} > upper {hi}")
        if adj_lower is not None:
            adj_lower = np.asarray(adj_lower, dtype=np.int64)
            adj_upper = np.asarray(adj_upper, dtype=np.int64)
            if adj_lower.shape != lower.shape or adj_upper.shape != lower.shape:
                raise ValueError("adjusted endpoints must match the raw ones in length")
            bad = np.flatnonzero(adj_lower > adj_upper)
            if bad.size:
                raise ValueError(
                    f"adjusted lower {int(adj_lower[bad[0]])} > upper "
                    f"{int(adj_upper[bad[0]])}"
                )
        self.lower, self.upper = lower, upper
        self.adj_lower, self.adj_upper = adj_lower, adj_upper

    @property
    def adjusted(self) -> bool:
        return self.adj_lower is not None

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def adj_width(self) -> np.ndarray | None:
        if self.adj_lower is None:
            return None
        return self.adj_upper - self.adj_lower

    def contains(self, y) -> np.ndarray:
        """Per-row ``lower <= y <= upper``."""
        y = np.asarray(y, dtype=np.float64)
        return (self.lower <= y) & (y <= self.upper)

    def contains_adjusted(self, y) -> np.ndarray:
        """Per-row ``adj_lower <= int(y) <= adj_upper``; y must be finite."""
        if self.adj_lower is None:
            raise InvariantError("interval has no adjusted endpoints")
        y = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y).all():
            raise ValueError("adjusted coverage needs finite targets")
        y = np.trunc(y)
        return (self.adj_lower <= y) & (y <= self.adj_upper)

    def __len__(self) -> int:
        return len(self.lower)

    def __getitem__(self, key):
        if not isinstance(key, slice) and np.ndim(key) == 0:
            raise TypeError(f"Intervals takes a slice or an index array, not {key!r}")
        # A subset of checked rows needs no second check.
        out = object.__new__(Intervals)
        out.lower, out.upper = self.lower[key], self.upper[key]
        if self.adj_lower is None:
            out.adj_lower = out.adj_upper = None
        else:
            out.adj_lower, out.adj_upper = self.adj_lower[key], self.adj_upper[key]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Intervals):
            return NotImplemented
        if self.adjusted != other.adjusted:
            return False
        same = np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )
        if same and self.adjusted:
            same = np.array_equal(self.adj_lower, other.adj_lower) and np.array_equal(
                self.adj_upper, other.adj_upper
            )
        return bool(same)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        state = "adjusted" if self.adjusted else "raw"
        return f"Intervals(n={len(self)}, {state})"


@dataclass(frozen=True, eq=False)
class Batch:
    """Samples as columns: features ``X`` (n, d), float64 scores ``y``, and
    one object array of str per tag, in which equal dataset, group and
    judge tags are one shared str (``group`` holds None for a sample with
    no group tag). Index a Batch with a slice or an index array to take
    rows; a tag column's copy is then one pointer a row.
    """

    X: np.ndarray
    y: np.ndarray
    dataset: np.ndarray
    group: np.ndarray
    sample_id: np.ndarray
    judge: np.ndarray

    @classmethod
    def concat(cls, parts: list["Batch"]) -> "Batch":
        """The rows of ``parts`` in order; they must share one feature width."""
        widths = sorted({p.X.shape[1] for p in parts})
        if len(widths) > 1:
            raise DataError(f"inconsistent feature lengths: {widths}")
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "Batch":
        return Batch(*(getattr(self, f.name)[rows] for f in fields(self)))


def row_faults(
    X: np.ndarray, y: np.ndarray, scale: RatingScale, first_key=0
) -> dict[int, str]:
    """The first broken row rule of each row that breaks one, by row index.

    The rules, in this order: the label is one of 1..K; the width is a
    positive multiple of K; every entry is finite and <= 0. An entry is
    named by its column plus ``first_key`` (one per row, or one for all;
    1 names a logprob by its label).
    """
    k = scale.k_max
    n, width = X.shape
    faults: dict[int, str] = {}
    for i in np.flatnonzero(~np.isin(y, np.arange(1, k + 1))).tolist():
        label = int(y[i]) if float(y[i]).is_integer() else float(y[i])
        faults[i] = f"gt_score {label} outside [1, {k}]"
    if width == 0 or width % k:
        for i in range(n):
            faults.setdefault(i, f"feature length {width} not a multiple of {k}")
    bad = ~(np.isfinite(X) & (X <= 0))
    first_key = np.broadcast_to(first_key, (n,))
    for i in np.flatnonzero(bad.any(axis=1)).tolist():
        j = int(bad[i].argmax())
        v = float(X[i, j])
        rule = "be finite" if not math.isfinite(v) else "be <= 0"
        faults.setdefault(i, f"logprob '{j + int(first_key[i])}' must {rule}, got {v}")
    return dict(sorted(faults.items()))


def check_batch(batch: Batch, scale: RatingScale) -> None:
    """Raise DataError naming the first sample that breaks a row rule (see
    :func:`row_faults`), else the first repeat of a sample_id."""
    faults = row_faults(batch.X, batch.y, scale)
    if faults:
        i, reason = next(iter(faults.items()))
        raise DataError(f"sample {str(batch.sample_id[i])!r}: {reason}")
    _, first = np.unique(batch.sample_id, return_index=True)
    if len(first) < len(batch):
        i = np.setdiff1d(np.arange(len(batch)), first)[0]
        raise DataError(
            f"duplicate sample_id {str(batch.sample_id[i])!r}: a repeated sample "
            "could land in both calibration and test"
        )


def decimal_fraction(x: float) -> Fraction:
    """x as the exact value of the decimal it prints as.

    Fraction(0.3) is the binary double nearest 0.3, a hair below 3/10; this
    gives 3/10. Ranks and cut points computed from it are those the decimal
    the user wrote would give.
    """
    return Fraction(repr(float(x)))


def make_split(n: int, cal_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The calibration and test indices of [0, n): shuffle it with a seeded
    PCG64 generator and cut off the front.

    The calibration set takes the first round(cal_fraction * n) shuffled
    indices, with cal_fraction read as the decimal it prints as and
    round-half-up rounding computed in exact arithmetic, so the cut point
    never drifts across platforms or with the float's rounding error.
    Identical (n, cal_fraction, seed) always reproduce the identical split.
    """
    if n < 2:
        raise DataError(f"cannot split {n} samples (need at least 2)")
    if not 0.0 < cal_fraction < 1.0:
        raise DataError(f"cal_fraction must be in (0, 1), got {cal_fraction}")
    n_cal = int(decimal_fraction(cal_fraction) * n + Fraction(1, 2))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return perm[:n_cal], perm[n_cal:]


def clamp_endpoints(
    lower: np.ndarray, upper: np.ndarray, scale: RatingScale
) -> tuple[np.ndarray, np.ndarray]:
    """Clamp endpoint arrays into [1, k_max]; idempotent, never widens."""
    lo = np.minimum(np.maximum(lower, 1.0), float(scale.k_max))
    hi = np.maximum(np.minimum(upper, float(scale.k_max)), 1.0)
    return lo, hi


def tag_codes(tags: list) -> tuple[list, np.ndarray]:
    """The distinct values of ``tags`` in sorted order, and each row's index
    into them: one dict lookup per row, and a sort of the distinct values
    alone."""
    distinct = sorted(set(tags))
    code = {tag: i for i, tag in enumerate(distinct)}
    return distinct, np.fromiter(map(code.__getitem__, tags), np.intp, len(tags))


def features_matrix(rows) -> np.ndarray:
    """Stack feature rows of one length into an (n, d) float64 matrix."""
    if not len(rows):
        return np.empty((0, 0), dtype=np.float64)
    return np.asarray(rows, dtype=np.float64)
