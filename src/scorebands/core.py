"""Shared domain types: rating scales, samples, intervals, and splits.

``Interval`` and ``LabeledSample`` are single-value types. The hot path runs
on their column forms: ``Intervals`` (endpoint arrays) and ``Batch``
(feature matrix, scores and tag arrays), each built once and sliced by
index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class DataError(Exception):
    """Input data violates a documented contract (bad file, bad record)."""


class InvariantError(Exception):
    """An internal invariant was violated; indicates a bug, not bad input."""


@dataclass(frozen=True)
class RatingScale:
    """Discrete Likert scale with integer labels ``min_label .. k_max``."""

    k_max: int = 5
    min_label: int = 1

    def __post_init__(self) -> None:
        if self.min_label != 1:
            raise ValueError("rating scales are anchored at min_label = 1")
        if self.k_max < 2:
            raise ValueError(f"k_max must be >= 2, got {self.k_max}")

    @property
    def labels(self) -> range:
        return range(self.min_label, self.k_max + 1)

    @property
    def max_width(self) -> int:
        """Widest possible interval on this scale (k_max - 1)."""
        return self.k_max - self.min_label


@dataclass(frozen=True)
class FeatureVector:
    """Ordered score-token log-probabilities, one block of K per judge.

    Entries must be finite and <= 0 (logs of probabilities). Length checks
    against a concrete scale happen where the scale is known, see
    :func:`validate_sample`.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("feature vector must be non-empty")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"feature entries must be finite, got {v}")
            if v > 0:
                raise ValueError(f"log-probabilities must be <= 0, got {v}")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class LabeledSample:
    """One evaluation instance: features, human score, and bookkeeping tags."""

    features: FeatureVector
    gt_score: int
    dataset_tag: str
    judge_tag: str
    sample_id: str
    group_tag: str | None = None


def validate_sample(sample: LabeledSample, scale: RatingScale) -> None:
    """Check a sample against a concrete scale; raises DataError on violation."""
    if not (scale.min_label <= sample.gt_score <= scale.k_max):
        raise DataError(
            f"sample {sample.sample_id!r}: gt_score {sample.gt_score} outside "
            f"[{scale.min_label}, {scale.k_max}]"
        )
    if len(sample.features) % scale.k_max != 0:
        raise DataError(
            f"sample {sample.sample_id!r}: feature length {len(sample.features)} "
            f"is not a multiple of k_max={scale.k_max}"
        )


@dataclass(frozen=True)
class Interval:
    """A continuous prediction interval plus its optional integer-aligned form."""

    lower: float
    upper: float
    adj_lower: int | None = None
    adj_upper: int | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"interval endpoint is NaN ({self.lower}, {self.upper})")
        if self.lower > self.upper:
            raise ValueError(f"interval lower {self.lower} > upper {self.upper}")
        if (self.adj_lower is None) != (self.adj_upper is None):
            raise ValueError("adjusted endpoints must be set together")
        if self.adj_lower is not None and self.adj_lower > self.adj_upper:
            raise ValueError(
                f"adjusted lower {self.adj_lower} > upper {self.adj_upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def adj_width(self) -> int | None:
        if self.adj_lower is None:
            return None
        return self.adj_upper - self.adj_lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper

    def contains_adjusted(self, y: int) -> bool:
        if self.adj_lower is None:
            raise InvariantError("interval has no adjusted endpoints")
        return self.adj_lower <= y <= self.adj_upper


class Intervals:
    """A set of intervals as columns: the array form of ``list[Interval]``.

    ``lower`` and ``upper`` are float64 arrays; ``adj_lower`` and
    ``adj_upper`` are int64 arrays, set together or both None. The checks
    are Interval's, over every row: no NaN endpoint, lower <= upper, and
    adjusted lower <= adjusted upper. Indexing with an integer gives an
    ``Interval``; with a slice or an index array, an ``Intervals``. Treat
    the arrays as read-only.
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

    @classmethod
    def of(cls, intervals) -> "Intervals":
        """An Intervals as it is, or a sequence of Interval as columns.

        Adjusted endpoints are kept only when every interval has them; a
        mixed list reads as unadjusted.
        """
        if isinstance(intervals, cls):
            return intervals
        ivs = list(intervals)
        adjusted = bool(ivs) and all(iv.adj_lower is not None for iv in ivs)
        return cls(
            [iv.lower for iv in ivs],
            [iv.upper for iv in ivs],
            [iv.adj_lower for iv in ivs] if adjusted else None,
            [iv.adj_upper for iv in ivs] if adjusted else None,
        )

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
        if isinstance(key, (int, np.integer)):
            if self.adj_lower is None:
                return Interval(float(self.lower[key]), float(self.upper[key]))
            return Interval(
                float(self.lower[key]),
                float(self.upper[key]),
                int(self.adj_lower[key]),
                int(self.adj_upper[key]),
            )
        # A subset of checked rows needs no second check.
        out = object.__new__(Intervals)
        out.lower, out.upper = self.lower[key], self.upper[key]
        if self.adj_lower is None:
            out.adj_lower = out.adj_upper = None
        else:
            out.adj_lower, out.adj_upper = self.adj_lower[key], self.adj_upper[key]
        return out

    def __iter__(self):
        return (self[i] for i in range(len(self)))

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
    """A sample list as columns: features ``X`` (n, d), float64 scores
    ``y``, and one array per tag (``group`` holds None for a sample with no
    group tag). Rows keep the order of the samples; index a Batch with a
    slice or an index array to take rows.
    """

    X: np.ndarray
    y: np.ndarray
    dataset: np.ndarray
    group: np.ndarray
    sample_id: np.ndarray

    @classmethod
    def from_samples(cls, samples: list[LabeledSample], X: np.ndarray) -> "Batch":
        """The columns of ``samples``, with ``X`` their stacked features."""
        return cls(
            X=X,
            y=gt_array(samples),
            dataset=np.array([s.dataset_tag for s in samples], dtype=str),
            group=np.array([s.group_tag for s in samples], dtype=object),
            sample_id=np.array([s.sample_id for s in samples], dtype=object),
        )

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows) -> "Batch":
        return Batch(
            self.X[rows], self.y[rows], self.dataset[rows], self.group[rows],
            self.sample_id[rows],
        )


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic calibration/test partition of sample indices [0, n)."""

    seed: int
    cal_fraction: float
    cal_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def decimal_fraction(x: float) -> Fraction:
    """x as the exact value of the decimal it prints as.

    Fraction(0.3) is the binary double nearest 0.3, a hair below 3/10; this
    gives 3/10. Ranks and cut points computed from it are those the decimal
    the user wrote would give.
    """
    return Fraction(repr(float(x)))


def make_split(n: int, cal_fraction: float, seed: int) -> SplitPlan:
    """Shuffle [0, n) with a seeded PCG64 generator and cut off the front.

    The calibration set takes the first round(cal_fraction * n) shuffled
    indices, with cal_fraction read as the decimal it prints as and
    round-half-up rounding computed in exact arithmetic, so the cut point
    never drifts across platforms or with the float's rounding error.
    Identical (n, cal_fraction, seed) always reproduce the identical plan.
    """
    if n < 2:
        raise DataError(f"cannot split {n} samples (need at least 2)")
    if not 0.0 < cal_fraction < 1.0:
        raise DataError(f"cal_fraction must be in (0, 1), got {cal_fraction}")
    n_cal = int(decimal_fraction(cal_fraction) * n + Fraction(1, 2))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return SplitPlan(
        seed=seed,
        cal_fraction=cal_fraction,
        cal_indices=tuple(int(i) for i in perm[:n_cal]),
        test_indices=tuple(int(i) for i in perm[n_cal:]),
    )


def clamp_endpoints(
    lower: np.ndarray, upper: np.ndarray, scale: RatingScale
) -> tuple[np.ndarray, np.ndarray]:
    """Clamp endpoint arrays into [min_label, k_max]; idempotent, never widens."""
    lo = np.minimum(np.maximum(lower, float(scale.min_label)), float(scale.k_max))
    hi = np.maximum(np.minimum(upper, float(scale.k_max)), float(scale.min_label))
    return lo, hi


def clamp_interval(iv: Interval, scale: RatingScale) -> Interval:
    """One interval through :func:`clamp_endpoints`; keeps adjusted endpoints."""
    lo, hi = clamp_endpoints(np.array([iv.lower]), np.array([iv.upper]), scale)
    return Interval(float(lo[0]), float(hi[0]), iv.adj_lower, iv.adj_upper)


def features_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack sample features into an (n, d) float64 matrix."""
    if not samples:
        return np.empty((0, 0), dtype=np.float64)
    return np.asarray([s.features.values for s in samples], dtype=np.float64)


def gt_array(samples: list[LabeledSample]) -> np.ndarray:
    """Ground-truth scores as a float64 vector."""
    return np.asarray([s.gt_score for s in samples], dtype=np.float64)
