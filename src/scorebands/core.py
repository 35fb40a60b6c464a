"""Shared domain types: rating scales, samples, intervals, and splits.

Everything here is an immutable value type; fitted models and reports in the
other modules are built on top of these.
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


def clamp_interval(iv: Interval, scale: RatingScale) -> Interval:
    """Clamp both endpoints into [min_label, k_max]; idempotent, never widens."""
    lo = float(min(max(iv.lower, scale.min_label), scale.k_max))
    hi = float(max(min(iv.upper, scale.k_max), scale.min_label))
    return Interval(lo, hi, iv.adj_lower, iv.adj_upper)


def features_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack sample features into an (n, d) float64 matrix."""
    if not samples:
        return np.empty((0, 0), dtype=np.float64)
    return np.asarray([s.features.values for s in samples], dtype=np.float64)


def gt_array(samples: list[LabeledSample]) -> np.ndarray:
    """Ground-truth scores as a float64 vector."""
    return np.asarray([s.gt_score for s in samples], dtype=np.float64)
