"""Split-conformal interval constructors over judge-score features.

Nine methods share one quantile rule: sort the calibration nonconformity
scores and take the ceil((n+1)(1-alpha))-th order statistic. Rank overflow
yields an infinite threshold, which after clamping becomes the full-range
interval rather than an error.

Each method is one row of the table `METHODS`: what its learners predict,
and one of three rules that calibrates it. `band_intervals` serves six
methods, whose learners predict a band (lo, hi, spread) that the rule widens
by q_hat spreads on each side; `cell_intervals` serves chr and r2ccp, and
`aps_intervals` ordinal_aps. A `Split` cuts the calibration samples in
half: the learners see the first half, the conformal quantile is computed
on the second, preserving exchangeability of the scores. The Split holds
every fit and prediction, so the methods of one Split share them; a
`MethodResult` carries the intervals, the point and the calibrated q_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .core import (
    Batch,
    DataError,
    Intervals,
    RatingScale,
    Strata,
    clamp_endpoints,
    decimal_fraction,
    tag_codes,
)
# load_samples stacks its rows through this attribute: the one stacking
# point of a run, and the one the benchmark's tracer counts.
from .core import features_matrix  # noqa: F401
from .learners import (
    TrainConfig,
    fit_boosted,
    fit_grid_classifier,  # noqa: F401  no method fits it; the bench tracer wraps it
    fit_hist_density,  # noqa: F401  no method fits it; the bench tracer wraps it
    fit_point_var,
    fit_quantile_model,
    fit_spread_head,
    label_columns,
)
from .learners.nets import log_softmax

@dataclass(frozen=True)
class MethodConfig:
    """Knobs shared by every interval constructor."""

    train: TrainConfig = TrainConfig()
    boost_rounds: int = 200
    boost_depth: int = 3
    boost_rate: float = 0.2
    sigma_floor: float = 1e-3
    point_predictor: str = "model"  # "model" or "argmax_feature"

    def __post_init__(self) -> None:
        if self.point_predictor not in ("model", "argmax_feature"):
            raise DataError(f"unknown point_predictor {self.point_predictor!r}")


@dataclass(eq=False)
class MethodResult:
    """Intervals, point predictions and the calibrated q_hat of one method
    on one test set.

    A non-finite point prediction is bad learner output, not a result:
    it raises ValueError (the intervals reject NaN endpoints themselves).
    """

    method: str
    intervals: Intervals
    y_hat: np.ndarray
    q_hat: object  # float, per-side tuple, or per-group dict

    def __post_init__(self) -> None:
        if not np.isfinite(self.y_hat).all():
            raise ValueError(f"{self.method}: non-finite point prediction")


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))-th smallest score, or +inf on rank overflow.

    alpha is read as the decimal it prints as (0.3 is 3/10, not the binary
    double nearest it) and the rank is computed in exact rational
    arithmetic, so the float's own rounding error can never move the rank
    across an integer boundary. A NaN score has no rank and raises
    DataError; +-inf scores are valid.
    """
    if not isinstance(scores, np.ndarray):
        scores = list(scores)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        raise DataError("conformal quantile of an empty score list")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    if np.isnan(scores).any():
        raise DataError("conformal quantile of NaN scores")
    rank = math.ceil((n + 1) * (1 - decimal_fraction(alpha)))
    if rank > n:
        return math.inf
    return float(np.sort(scores, kind="stable")[rank - 1])


def _interval(lo, hi, scale: RatingScale) -> Intervals:
    """The interval rule: collapse crossed endpoints, then clamp."""
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    # A strongly negative correction can cross the endpoints; collapse to the
    # midpoint (a zero-width interval) before clamping.
    crossed = lo > hi
    if crossed.any():
        lo[crossed] = hi[crossed] = (lo[crossed] + hi[crossed]) / 2.0
    return Intervals(*clamp_endpoints(lo, hi, scale))


# ---------------------------------------------------------------------------
# The three rules. Each takes (conformal labels, conformal predictions, test
# predictions, alpha, scale) and returns (q_hat, test intervals, the
# learners' test point).
# ---------------------------------------------------------------------------


def band_intervals(y_conf, conf, test, alpha, scale, symmetric=True):
    """CQR and locally weighted split conformal as one rule.

    ``conf`` and ``test`` are ``(lo, hi, spread)`` bands. The score is how
    far the label falls outside its band, in units of its spread:
    max(lo - y, y - hi) / spread. The interval widens each side by q_hat
    spreads, [lo - q_lo * spread, hi + q_hi * spread]; the asymmetric form
    calibrates each side at alpha/2 and keeps both corrections as q_hat.
    The point is the band's midpoint.
    """
    lo_c, hi_c, spread_c = conf
    lo, hi, spread = test
    if symmetric:
        q_lo = q_hi = q_hat = conformal_quantile(
            np.maximum(lo_c - y_conf, y_conf - hi_c) / spread_c, alpha
        )
    else:
        q_lo = conformal_quantile((lo_c - y_conf) / spread_c, alpha / 2.0)
        q_hi = conformal_quantile((y_conf - hi_c) / spread_c, alpha / 2.0)
        q_hat = (q_lo, q_hi)
    intervals = _interval(lo - q_lo * spread, hi + q_hi * spread, scale)
    return q_hat, intervals, (lo + hi) / 2.0


def cell_intervals(y_conf, conf, test, alpha, scale, edges=True):
    """CHR/R2CCP: the score is the negative log mass of the label's cell.

    ``conf`` and ``test`` are log-probabilities over the K labels, label y
    at column y - 1: cell y has centre y and edges y -+ 0.5. A test row's
    interval is the smallest contiguous run holding every cell whose
    negative log mass is within the calibrated threshold, from the cells'
    edges (chr) or centres (r2ccp), here the labels themselves; a row with
    no qualifying cell gets the full label range. The point is the mean
    cell centre under the test density.
    """
    centres = np.arange(1.0, scale.k_max + 1)
    lows, highs = (centres - 0.5, centres + 0.5) if edges else (centres, centres)
    thr = conformal_quantile(
        -conf[np.arange(len(y_conf)), label_columns(y_conf, scale.k_max)], alpha
    )
    qualifies = -test <= thr
    k = qualifies.shape[1]
    first = qualifies.argmax(axis=1)
    last = k - 1 - qualifies[:, ::-1].argmax(axis=1)
    some = qualifies.any(axis=1)
    lo = np.where(some, lows[first], 1.0)
    hi = np.where(some, highs[last], float(scale.k_max))
    return thr, _interval(lo, hi, scale), np.exp(test) @ centres


def _aps_paths(probs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy contiguous growth from the argmax label, for every row at once.

    Returns (n, K) arrays: the label index added at each step, the
    cumulative mass after it, and the lowest and highest index held after
    it. A step takes the lower neighbour when its mass is at least the
    upper one's, so ties prefer the lower label; masses add in inclusion
    order.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = probs[None, :]
    n, k = probs.shape
    rows = np.arange(n)
    order = np.empty((n, k), dtype=np.intp)
    masses = np.empty((n, k))
    lows = np.empty((n, k), dtype=np.intp)
    highs = np.empty((n, k), dtype=np.intp)
    start = probs.argmax(axis=1)
    order[:, 0] = lows[:, 0] = highs[:, 0] = start
    masses[:, 0] = probs[rows, start]
    left, right = start - 1, start + 1
    for step in range(1, k):
        p_left = probs[rows, np.maximum(left, 0)]
        p_right = probs[rows, np.minimum(right, k - 1)]
        go_left = (left >= 0) & ((right >= k) | (p_left >= p_right))
        pick = np.where(go_left, left, right)
        order[:, step] = pick
        masses[:, step] = masses[:, step - 1] + probs[rows, pick]
        left = np.where(go_left, left - 1, left)
        right = np.where(go_left, right, right + 1)
        lows[:, step] = left + 1
        highs[:, step] = right - 1
    return order, masses, lows, highs


def aps_scores(probs: np.ndarray, label_index: np.ndarray) -> np.ndarray:
    """Per row, the cumulative mass at which the true label joins the set."""
    order, masses, _, _ = _aps_paths(probs)
    label_index = np.asarray(label_index, dtype=np.intp).reshape(-1)
    k = order.shape[1]
    if ((label_index < 0) | (label_index >= k)).any():
        raise ValueError(f"label index outside [0, {k})")
    step = (order == label_index[:, None]).argmax(axis=1)
    return masses[np.arange(len(order)), step]


def aps_sets(
    probs: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the index run of the smallest greedy-grown set with mass
    >= threshold, and that mass; the whole range when no smaller set
    reaches it."""
    _, masses, lows, highs = _aps_paths(probs)
    k = masses.shape[1]
    reached = ~(masses[:, : k - 1] < threshold)
    step = np.where(reached.any(axis=1), reached.argmax(axis=1), k - 1)
    rows = np.arange(len(masses))
    return lows[rows, step], highs[rows, step], masses[rows, step]


def aps_intervals(y_conf, conf, test, alpha, scale):
    """Ordinal APS: the score is the mass at which the label joins the
    greedy-grown set; a test set is the smallest one reaching the calibrated
    mass. ``conf`` and ``test`` are label probabilities; the point is the
    most probable label."""
    q = conformal_quantile(aps_scores(conf, label_columns(y_conf, scale.k_max)), alpha)
    lo_idx, hi_idx, _ = aps_sets(test, q)
    argmax_labels = (1 + test.argmax(axis=1)).astype(np.float64)
    return q, _interval(1 + lo_idx, 1 + hi_idx, scale), argmax_labels


# ---------------------------------------------------------------------------
# The method table. A method is a prediction and one of the rules above:
# its learners' predictions on the conformal half and the test rows, which
# the rule scores, takes the conformal quantile of and turns into
# intervals. The learners, fit on the learner half, and their predictions
# live in the Split, so the methods of a split share them.
# ---------------------------------------------------------------------------


class Split:
    """One split of the protocol at one alpha: the calibration rows, cut
    into the learner ``half`` and the conformal half ``conf``, the ``test``
    rows, the rating scale and the method settings.

    Every method of a split reads its learners and their predictions from
    here, so each learner is fit once per Split and predicts each row set
    once. A fit is keyed by its learner kind alone, since the Split fixes
    every other input of it. A prediction is keyed by its model's id and
    the row set's name; the Split holds every model, so each id stays its
    model's. A kept prediction is read-only, so the methods that share it
    cannot change it for one another.
    """

    def __init__(self, cal: Batch, test: Batch, alpha, scale: RatingScale,
                 cfg: MethodConfig = MethodConfig()):
        if not len(cal):
            raise DataError("empty calibration set")
        if not len(test):
            raise DataError("empty test set")
        if not 0.0 < alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {alpha}")
        # The calibration rows are already shuffled, so a cut halves them.
        cut = len(cal) // 2
        self.cal, self.half, self.conf, self.test = cal, cal[:cut], cal[cut:], test
        self.alpha, self.scale, self.cfg = alpha, scale, cfg
        self._memo: dict = {}

    def memo(self, key, make: Callable):
        """``make()``, worked out once per Split under ``key``."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def predict(self, model, rows: str) -> np.ndarray:
        """``model.predict`` on the row set ``rows`` ("half", "conf" or
        "test"), read-only."""

        def make():
            value = model.predict(getattr(self, rows).X)
            value.flags.writeable = False
            return value

        return self.memo((id(model), rows), make)

    def groups(self, partition: GroupPartition, rows: str) -> Strata:
        """The rows of ``rows`` ("cal" or "test") grouped by ``partition``,
        worked out once. A Split knows a partition by its name."""
        return self.memo(
            ("strata", partition.name, rows),
            lambda: Strata.of(partition.labels(getattr(self, rows))),
        )


def _taus(alpha: float) -> tuple[float, float]:
    return (alpha / 2.0, 1.0 - alpha / 2.0)


# Predictors: (split, rows) -> what the method's learners predict for the
# split's row set ``rows``, in the form its rule reads: a (lo, hi, spread)
# band for `band_intervals`, label log-probabilities for `cell_intervals`,
# label probabilities for `aps_intervals`. Each learner comes from the
# Split, fit on the learner half on first use.


def _learner(split: Split, key):
    """The learner ``key`` of ``split``, fit once per Split: "mean", the
    network of the mean and the label logits, which every mean-based method
    and chr, r2ccp and ordinal_aps share; "sigma", a spread network fit to
    its |residual|; "quantile", the network at the two taus; ("boosted",
    "pinball", tau), a forest at one tau; ("boosted", "absolute", None), a
    forest of the mean's |residual|."""
    half, cfg = split.half, split.cfg
    if isinstance(key, tuple):
        _, loss, tau = key

        def fit():
            y = half.y if loss == "pinball" else _abs_resid(split)
            return fit_boosted(half.X, y, loss, cfg.boost_rounds, cfg.boost_depth,
                               cfg.boost_rate, tau=tau)
    else:
        fit = {
            "mean": lambda: fit_point_var(half.X, half.y, split.scale.k_max, cfg.train),
            "sigma": lambda: fit_spread_head(_learner(split, "mean"), half.X,
                                             _abs_resid(split), cfg.train),
            "quantile": lambda: fit_quantile_model(half.X, half.y, _taus(split.alpha),
                                                   cfg.train),
        }[key]
    return split.memo(key, fit)


def _abs_resid(split):
    """|y - mean| on the learner half: the target of every spread model."""
    return np.abs(split.half.y - split.predict(_learner(split, "mean"), "half")[:, 0])


def _mean(split, rows, spread=1.0):
    """The mean network's output at both ends of the band."""
    mu = split.predict(_learner(split, "mean"), rows)[:, 0]
    return mu, mu, spread


def _mean_spread(split, rows, spread):
    """lvd and boosted_lcp: the mean band, in units of the prediction of the
    spread learner ``spread`` (a network's one output or a forest's), at
    least ``sigma_floor``."""
    sigma = np.ravel(split.predict(_learner(split, spread), rows))
    return _mean(split, rows, np.maximum(sigma, split.cfg.sigma_floor))


def _sorted_band(a, b):
    """Two quantile predictions as a band, sorted per row so that its ends
    never cross."""
    return np.minimum(a, b), np.maximum(a, b), 1.0


def _quantiles(split, rows):
    q = split.predict(_learner(split, "quantile"), rows)
    return _sorted_band(q[:, 0], q[:, 1])


def _boosted_quantiles(split, rows):
    return _sorted_band(*(split.predict(_learner(split, ("boosted", "pinball", tau)), rows)
                          for tau in _taus(split.alpha)))


def _log_proba(split, rows):
    """Label log-probabilities: the log-softmax of the mean network's label
    logits."""
    return log_softmax(split.predict(_learner(split, "mean"), rows)[:, 1:])


def _proba(split, rows):
    return np.exp(_log_proba(split, rows))


@dataclass(frozen=True)
class Method:
    """One row of the method table: what its learners predict, and a rule."""

    predict: Callable
    rule: Callable


METHODS: dict[str, Method] = {
    "naive_split": Method(_mean, band_intervals),
    "cqr": Method(_quantiles, band_intervals),
    "cqr_asym": Method(_quantiles, partial(band_intervals, symmetric=False)),
    "chr": Method(_log_proba, cell_intervals),
    "lvd": Method(partial(_mean_spread, spread="sigma"), band_intervals),
    "boosted_cqr": Method(_boosted_quantiles, band_intervals),
    "boosted_lcp": Method(partial(_mean_spread, spread=("boosted", "absolute", None)),
                          band_intervals),
    "r2ccp": Method(_log_proba, partial(cell_intervals, edges=False)),
    "ordinal_aps": Method(_proba, aps_intervals),
}

METHOD_NAMES = tuple(METHODS)

# With zero boosting rounds a boosted method runs as its unboosted counterpart.
_UNBOOSTED = {"boosted_cqr": "cqr", "boosted_lcp": "lvd"}


def run_method(name: str, split: Split) -> MethodResult:
    """Method ``name`` calibrated on ``split``'s calibration rows and applied
    to its test rows."""
    if name not in METHODS:
        raise DataError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    cfg = split.cfg
    row = METHODS[_UNBOOSTED.get(name, name) if cfg.boost_rounds == 0 else name]
    q_hat, intervals, y_hat = row.rule(
        split.conf.y,
        row.predict(split, "conf"),
        row.predict(split, "test"),
        split.alpha,
        split.scale,
    )
    if cfg.point_predictor == "argmax_feature":
        y_hat = split.test.X[:, : split.scale.k_max].argmax(axis=1) + 1.0
    return MethodResult(name, intervals, y_hat, q_hat)


# ---------------------------------------------------------------------------
# Discrete boundary adjustment.
# ---------------------------------------------------------------------------


def _adjusted_endpoints(
    lower: np.ndarray, upper: np.ndarray, scale: RatingScale, direction: str
) -> tuple[np.ndarray, np.ndarray]:
    """Integer endpoints of each row, as int64 (see :func:`adjust_all`)."""
    lo_label, hi_label = 1.0, float(scale.k_max)
    if direction == "outward":
        al = np.maximum(lo_label, np.floor(lower))
        au = np.minimum(hi_label, np.ceil(upper))
    elif direction == "inward":
        al, au = np.ceil(lower), np.floor(upper)
        empty = al > au
        if empty.any():
            al[empty] = au[empty] = np.floor((lower[empty] + upper[empty]) / 2.0 + 0.5)
        al = np.minimum(np.maximum(al, lo_label), hi_label)
        au = np.minimum(np.maximum(au, lo_label), hi_label)
    else:
        raise DataError(f"unknown adjustment direction {direction!r}")
    return al.astype(np.int64), au.astype(np.int64)


def adjust_all(
    intervals: Intervals, scale: RatingScale, direction: str = "outward"
) -> Intervals:
    """Snap every interval's continuous endpoints to integer labels.

    "outward" floors the lower and ceils the upper endpoint, so the adjusted
    interval always contains the raw one (coverage can only grow). "inward"
    takes the tight integer hull; when the raw interval contains no integer
    it collapses to the label nearest the midpoint. "off" returns the
    intervals as they are. Infinite endpoints snap to the scale's ends.
    """
    if direction == "off":
        return intervals
    lower, upper = intervals.lower, intervals.upper
    return Intervals(lower, upper, *_adjusted_endpoints(lower, upper, scale, direction))


# ---------------------------------------------------------------------------
# Group-conditional (Mondrian) wrapper.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPartition:
    """Assigns every sample to exactly one group.

    With a ``group_of`` mapping, the group is looked up by dataset tag.
    Without one, the group comes straight off the sample's ``group_tag``
    (or its ``dataset_tag`` when ``tag_field`` says so).
    """

    name: str
    group_of: Mapping[str, str] | None = None
    tag_field: str = "group_tag"

    def __post_init__(self) -> None:
        if self.tag_field not in ("group_tag", "dataset_tag"):
            raise DataError(f"partition {self.name!r}: unknown tag_field "
                            f"{self.tag_field!r}; choose group_tag or dataset_tag")

    def labels(self, batch: Batch) -> np.ndarray:
        """The group of every row, as an object column of shared strings;
        looked up once per distinct tag. A row with no group raises
        DataError naming its sample."""
        if self.group_of is not None:
            tags, inverse = tag_codes(batch.dataset.tolist())
            known = np.array([t in self.group_of for t in tags], dtype=bool)
            if not known.all():
                i = int(np.flatnonzero(~known[inverse])[0])
                raise DataError(
                    f"partition {self.name!r} has no group for dataset "
                    f"{str(batch.dataset[i])!r} (sample {batch.sample_id[i]!r})"
                )
            groups = np.array([self.group_of[t] for t in tags], dtype=object)
            return groups[inverse]
        if self.tag_field == "dataset_tag":
            return batch.dataset
        tags = batch.group.tolist()
        if None in tags:
            raise DataError(
                f"partition {self.name!r} needs group_tag, but sample "
                f"{batch.sample_id[tags.index(None)]!r} has none"
            )
        return batch.group


MLLM_DIFFICULTY = GroupPartition(
    name="mllm_difficulty",
    group_of={
        "AesBench": "easy",
        "MM-Vet": "easy",
        "WIT": "easy",
        "COCO": "easy",
        "Mind2Web": "medium",
        "Conceptual Captions": "medium",
        "TextVQA": "medium",
        "LLaVA-Bench": "medium",
        "VisitBench": "medium",
        "ChartQA": "medium",
        "ScienceQA": "hard",
        "MathVista": "hard",
        "DiffusionDB": "hard",
        "InfographicsVQA": "hard",
    },
)

BUILTIN_PARTITIONS: dict[str, GroupPartition] = {
    "mllm_difficulty": MLLM_DIFFICULTY,
    "by_group_tag": GroupPartition(name="by_group_tag"),
    "by_dataset": GroupPartition(name="by_dataset", tag_field="dataset_tag"),
}


def run_mondrian(
    split: Split, partition: GroupPartition, inner: str, min_group_cal: int = 50
) -> MethodResult:
    """Run the inner method independently per group.

    Each group gets its own learner fits and its own quantile, so the
    coverage guarantee holds per group. ``split`` is grouped once: each
    group's rows form a Split of their own, kept by ``split``, which serves
    every method run on that group. Groups whose calibration count falls
    below ``min_group_cal`` are rejected loudly, on every call: with too few
    scores the quantile rank overflows and the group would silently get
    vacuous full-range intervals."""
    cal, test = split.cal, split.test
    cal_groups = dict(split.groups(partition, "cal"))
    test_groups = dict(split.groups(partition, "test"))
    no_rows = np.empty(0, dtype=np.intp)
    lower = np.empty(len(test))
    upper = np.empty(len(test))
    y_hat = np.empty(len(test))
    per_group_q: dict[str, object] = {}
    for g in sorted(cal_groups.keys() | test_groups.keys()):
        cal_idx, test_idx = cal_groups.get(g, no_rows), test_groups.get(g, no_rows)
        if len(cal_idx) < min_group_cal:
            raise DataError(
                f"group {g!r} has {len(cal_idx)} calibration samples, "
                f"below the minimum {min_group_cal}"
            )
        if not len(test_idx):
            continue
        group = split.memo(
            ("group", partition.name, g),
            lambda: Split(cal[cal_idx], test[test_idx], split.alpha, split.scale, split.cfg),
        )
        sub = run_method(inner, group)
        per_group_q[g] = sub.q_hat
        lower[test_idx] = sub.intervals.lower
        upper[test_idx] = sub.intervals.upper
        y_hat[test_idx] = sub.y_hat
    return MethodResult(f"mondrian[{inner}]", Intervals(lower, upper), y_hat, per_group_q)
