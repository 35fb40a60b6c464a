"""Split-conformal interval constructors over judge-score features.

Nine methods share one quantile rule: sort the calibration nonconformity
scores and take the ceil((n+1)(1-alpha))-th order statistic. Rank overflow
yields an infinite threshold, which after clamping becomes the full-range
interval rather than an error.

Each method is one row of the table `METHODS`: a learner and the rule that
calibrates it. `run_method` splits the calibration samples in half: the
learner sees the first half, the conformal quantile is computed on the
second, preserving exchangeability of the scores.
"""

from __future__ import annotations

import hashlib
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
    clamp_endpoints,
    decimal_fraction,
)
# load_samples stacks its rows through this attribute: the one stacking
# point of a run, and the one the benchmark's tracer counts.
from .core import features_matrix  # noqa: F401
from .learners import (
    TrainConfig,
    fit_boosted,
    fit_grid_classifier,
    fit_hist_density,
    fit_point_var,
    fit_quantile_model,
    fit_spread_head,
)

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


@dataclass(frozen=True)
class ConformalCalibration:
    """A calibrated threshold plus the learners it was computed with."""

    method: str
    alpha: float
    q_hat: object  # float, per-side tuple, or per-group dict
    learners: tuple = ()


@dataclass(eq=False)
class MethodResult:
    """Intervals and point predictions of one method on one test set.

    A non-finite point prediction is bad learner output, not a result:
    it raises ValueError (the intervals reject NaN endpoints themselves).
    """

    method: str
    intervals: Intervals
    y_hat: np.ndarray
    calibration: ConformalCalibration

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


def _halves(batch: Batch) -> tuple[Batch, Batch]:
    """Learner half and conformal half of an already-shuffled calibration set."""
    cut = len(batch) // 2
    return batch[:cut], batch[cut:]


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


def _check_inputs(cal: Batch, test: Batch, alpha) -> None:
    if not len(cal):
        raise DataError("empty calibration set")
    if not len(test):
        raise DataError("empty test set")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


# ---------------------------------------------------------------------------
# Pure conformal arithmetic, separated from learner fitting for testability.
# ---------------------------------------------------------------------------


def naive_from_predictions(
    y_conf: np.ndarray,
    mu_conf: np.ndarray,
    mu_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, Intervals]:
    q = conformal_quantile(np.abs(y_conf - mu_conf), alpha)
    mu_test = np.asarray(mu_test, dtype=np.float64)
    return q, _interval(mu_test - q, mu_test + q, scale)


def lvd_from_predictions(
    y_conf: np.ndarray,
    mu_conf: np.ndarray,
    sig_conf: np.ndarray,
    mu_test: np.ndarray,
    sig_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, Intervals]:
    q = conformal_quantile(np.abs(y_conf - mu_conf) / sig_conf, alpha)
    mu_test = np.asarray(mu_test, dtype=np.float64)
    half = q * np.asarray(sig_test, dtype=np.float64)
    return q, _interval(mu_test - half, mu_test + half, scale)


def cqr_from_quantiles(
    y_conf: np.ndarray,
    lo_conf: np.ndarray,
    hi_conf: np.ndarray,
    lo_test: np.ndarray,
    hi_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
    symmetric: bool = True,
) -> tuple[object, Intervals]:
    lo_test = np.asarray(lo_test, dtype=np.float64)
    hi_test = np.asarray(hi_test, dtype=np.float64)
    if symmetric:
        scores = np.maximum(lo_conf - y_conf, y_conf - hi_conf)
        q = conformal_quantile(scores, alpha)
        return q, _interval(lo_test - q, hi_test + q, scale)
    q_lo = conformal_quantile(lo_conf - y_conf, alpha / 2.0)
    q_hi = conformal_quantile(y_conf - hi_conf, alpha / 2.0)
    return (q_lo, q_hi), _interval(lo_test - q_lo, hi_test + q_hi, scale)


def density_intervals_from_scores(
    conf_scores: np.ndarray,
    test_neg_logp: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, Intervals]:
    """Shared CHR/R2CCP rule: smallest contiguous run covering all points
    whose negative log density is within the calibrated threshold.

    ``lows``/``highs`` give the real endpoints each density cell maps to
    (its centre for r2ccp's grid, its edges for chr's histogram). A row
    with no qualifying cell gets the full label range.
    """
    thr = conformal_quantile(conf_scores, alpha)
    qualifies = np.asarray(test_neg_logp) <= thr
    k = qualifies.shape[1]
    first = qualifies.argmax(axis=1)
    last = k - 1 - qualifies[:, ::-1].argmax(axis=1)
    some = qualifies.any(axis=1)
    lo = np.where(some, np.asarray(lows, dtype=np.float64)[first], 1.0)
    hi = np.where(some, np.asarray(highs, dtype=np.float64)[last], float(scale.k_max))
    return thr, _interval(lo, hi, scale)


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


def aps_from_probs(
    probs_conf: np.ndarray,
    y_conf_index: np.ndarray,
    probs_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, Intervals, np.ndarray]:
    q = conformal_quantile(aps_scores(probs_conf, y_conf_index), alpha)
    lo_idx, hi_idx, _ = aps_sets(probs_test, q)
    ivs = _interval(1 + lo_idx, 1 + hi_idx, scale)
    argmax_labels = (1 + np.asarray(probs_test).argmax(axis=1)).astype(np.float64)
    return q, ivs, argmax_labels


# ---------------------------------------------------------------------------
# The method table. A method is one learner, fit on the learner half of the
# calibration set, and one of the rules above, which scores the learner's
# predictions on the conformal half, takes their conformal quantile and
# turns the test predictions into intervals. `cache` shares fitted learners
# across methods that run on the identical calibration half within one
# experiment cell. Each key holds every input of its fit besides that data:
# the learner, its targets (taus, bins, grid) and its training settings.
# The cache also keeps the predictions that several methods make, so that
# each is worked out once per split.
# ---------------------------------------------------------------------------


def _fit_cached(cache: dict | None, key: tuple, fit: Callable):
    if cache is not None and key in cache:
        return cache[key]
    model = fit()
    if cache is not None:
        cache[key] = model
    return model


def _shared(cache: dict | None, X: np.ndarray) -> Callable:
    """`shared(model, what, keep=False)`: ``model.<what>(X)``, worked out
    once per cache when ``keep`` is set.

    The predictions that several methods make are kept: those of the mean
    network (naive_split, lvd, boosted_lcp), of the quantile network (cqr,
    cqr_asym) and of the label network (chr, ordinal_aps). Every other
    prediction is one method's, and keeping it would only raise the peak
    memory of a split.

    The key names the rows by their shape, dtype and a BLAKE2b digest of
    their bytes, so an entry serves only rows equal to those it was worked
    out on, without holding them. The entry keeps its model, so the model's
    id stays its own. A kept array is read-only, so the methods that share
    it cannot change it for one another.
    """
    rows = X.shape, X.dtype.str, hashlib.blake2b(np.ascontiguousarray(X)).digest()

    def shared(model, what: str, keep: bool = False) -> np.ndarray:
        if cache is None or not keep:
            return getattr(model, what)(X)
        key = ("predicted", what, id(model), rows)
        if key not in cache:
            value = getattr(model, what)(X)
            value.flags.writeable = False
            cache[key] = model, value
        return cache[key][1]

    return shared


def _boosted(half: Batch, y: np.ndarray, loss: str, cfg: MethodConfig, cache,
             key: tuple, tau: float | None = None):
    return _fit_cached(
        cache,
        ("boosted", loss, tau, cfg.boost_rounds, cfg.boost_depth, cfg.boost_rate) + key,
        lambda: fit_boosted(
            half.X, y, loss, cfg.boost_rounds, cfg.boost_depth, cfg.boost_rate, tau=tau
        ),
    )


def _taus(alpha: float) -> tuple[float, float]:
    return (alpha / 2.0, 1.0 - alpha / 2.0)


# Fits: (learner half, alpha, scale, cfg, cache) -> the fitted learners.


def _fit_mean(half, alpha, scale, cfg, cache):
    """The mean network of the learner half; one serves every method."""
    return (
        _fit_cached(
            cache,
            ("pointvar_mean", cfg.train, cfg.sigma_floor),
            lambda: fit_point_var(half.X, half.y, cfg.train, sigma_floor=cfg.sigma_floor),
        ),
    )


def _abs_resid(half, mean_model, cache):
    """|y - mean| on the learner half: the target of every spread model."""
    mean = _shared(cache, half.X)(mean_model, "predict_mean", keep=True)
    return np.abs(half.y - mean)


def _fit_mean_sigma(half, alpha, scale, cfg, cache):
    """The mean network, and the same network with a spread head fit to its
    residuals."""
    (mean_model,) = _fit_mean(half, alpha, scale, cfg, cache)
    return mean_model, _fit_cached(
        cache,
        ("pointvar_sigma", cfg.train, cfg.sigma_floor),
        lambda: fit_spread_head(
            mean_model, half.X, _abs_resid(half, mean_model, cache), cfg.train
        ),
    )


def _fit_quantiles(half, alpha, scale, cfg, cache):
    taus = _taus(alpha)
    return (
        _fit_cached(
            cache,
            ("quantile", taus, cfg.train),
            lambda: fit_quantile_model(half.X, half.y, taus, cfg.train),
        ),
    )


def _fit_label_bins(half, alpha, scale, cfg, cache):
    """The label network, one histogram bin per label over [0.5, K + 0.5]:
    chr's conditional histogram and ordinal_aps's label classifier in one fit."""
    k, lo, hi = scale.k_max, 0.5, scale.k_max + 0.5
    fit = partial(fit_hist_density, half.X, half.y, k, cfg.train, lo=lo, hi=hi)
    return (_fit_cached(cache, ("hist", k, lo, hi, cfg.train), fit),)


def _fit_grid(half, alpha, scale, cfg, cache):
    """r2ccp's grid network: eight histogram cells per label (see
    `fit_grid_classifier`)."""
    fit = partial(fit_grid_classifier, half.X, half.y, scale.k_max, cfg.train)
    return (_fit_cached(cache, ("grid", scale.k_max, cfg.train), fit),)


def _fit_boosted_quantiles(half, alpha, scale, cfg, cache):
    return tuple(
        _boosted(half, half.y, "pinball", cfg, cache, (), tau=tau) for tau in _taus(alpha)
    )


def _fit_boosted_spread(half, alpha, scale, cfg, cache):
    """The mean network, and a boosted absolute-loss model of its |residual|
    as the local scale."""
    (mean_model,) = _fit_mean(half, alpha, scale, cfg, cache)
    # The residuals come from the mean model, so its settings are fit inputs.
    sig_model = _boosted(
        half, _abs_resid(half, mean_model, cache), "absolute", cfg, cache,
        (cfg.train, cfg.sigma_floor),
    )
    return mean_model, sig_model


# Predictions: (learners, cfg, shared) -> what the learners predict for the
# rows that `shared` (see `_shared`) predicts on.


def _mean(m, cfg, shared):
    return shared(m[0], "predict_mean", keep=True)


def _mean_sigma(m, cfg, shared):
    return _mean(m, cfg, shared), shared(m[1], "predict_sigma")


def _quantiles(m, cfg, shared):
    return shared(m[0], "predict", keep=True)


def _boosted_quantiles(m, cfg, shared):
    return np.sort(np.column_stack([shared(b, "predict") for b in m]), axis=1)


def _mean_boosted_sigma(m, cfg, shared):
    return _mean(m, cfg, shared), np.maximum(shared(m[1], "predict"), cfg.sigma_floor)


def _log_proba(m, cfg, shared, keep=True):
    """Log-probabilities over the cells; kept for the label network, which
    chr and ordinal_aps both read, and not for r2ccp's grid."""
    return shared(m[0], "predict_log_proba", keep)


def _proba(m, cfg, shared):
    return np.exp(_log_proba(m, cfg, shared))


# Rules: (learners, conformal labels, conformal predictions, test predictions,
# alpha, scale) -> (q_hat, test intervals, the learners' test point).


def _naive_rule(m, y, mu_conf, mu_test, alpha, scale):
    return (*naive_from_predictions(y, mu_conf, mu_test, alpha, scale), mu_test)


def _lvd_rule(m, y, conf, test, alpha, scale):
    (mu_conf, sig_conf), (mu_test, sig_test) = conf, test
    q, ivs = lvd_from_predictions(y, mu_conf, sig_conf, mu_test, sig_test, alpha, scale)
    return q, ivs, mu_test


def _cqr_rule(m, y, conf, test, alpha, scale, symmetric=True):
    q, ivs = cqr_from_quantiles(
        y, conf[:, 0], conf[:, -1], test[:, 0], test[:, -1], alpha, scale, symmetric
    )
    return q, ivs, (test[:, 0] + test[:, -1]) / 2.0


def _cell_rule(m, y, logp_conf, logp_test, alpha, scale, edges=True):
    """CHR/R2CCP: the score is the negative log mass of the label's cell. An
    interval runs over the qualifying cells' edges (chr) or centres (r2ccp);
    the point is the mean cell centre under the test density."""
    model = m[0]
    lows = highs = centres = model.bin_centers()
    if edges:
        cells = model.bin_edges()
        lows, highs = cells[:-1], cells[1:]
    conf_scores = -logp_conf[np.arange(len(y)), model.bin_index(y)]
    thr, ivs = density_intervals_from_scores(
        conf_scores, -logp_test, lows, highs, alpha, scale
    )
    return thr, ivs, np.exp(logp_test) @ centres


def _aps_rule(m, y, probs_conf, probs_test, alpha, scale):
    y_index = y.astype(np.intp) - 1
    return aps_from_probs(probs_conf, y_index, probs_test, alpha, scale)


@dataclass(frozen=True)
class Method:
    """One row of the method table: a learner fit, its predictions and a rule."""

    fit: Callable
    predict: Callable
    rule: Callable


METHODS: dict[str, Method] = {
    "naive_split": Method(_fit_mean, _mean, _naive_rule),
    "cqr": Method(_fit_quantiles, _quantiles, _cqr_rule),
    "cqr_asym": Method(_fit_quantiles, _quantiles, partial(_cqr_rule, symmetric=False)),
    "chr": Method(_fit_label_bins, _log_proba, _cell_rule),
    "lvd": Method(_fit_mean_sigma, _mean_sigma, _lvd_rule),
    "boosted_cqr": Method(_fit_boosted_quantiles, _boosted_quantiles, _cqr_rule),
    "boosted_lcp": Method(_fit_boosted_spread, _mean_boosted_sigma, _lvd_rule),
    "r2ccp": Method(_fit_grid, partial(_log_proba, keep=False),
                    partial(_cell_rule, edges=False)),
    "ordinal_aps": Method(_fit_label_bins, _proba, _aps_rule),
}

METHOD_NAMES = tuple(METHODS)

# With zero boosting rounds a boosted method runs as its unboosted counterpart.
_UNBOOSTED = {"boosted_cqr": "cqr", "boosted_lcp": "lvd"}


def run_method(
    name: str, cal: Batch, test: Batch, alpha, scale, cfg=MethodConfig(), cache=None
) -> MethodResult:
    """Method ``name`` calibrated on ``cal`` and applied to ``test``."""
    if name not in METHODS:
        raise DataError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    _check_inputs(cal, test, alpha)
    row = METHODS[_UNBOOSTED.get(name, name) if cfg.boost_rounds == 0 else name]
    half, conf = _halves(cal)
    learners = row.fit(half, alpha, scale, cfg, cache)
    q_hat, intervals, y_hat = row.rule(
        learners,
        conf.y,
        row.predict(learners, cfg, _shared(cache, conf.X)),
        row.predict(learners, cfg, _shared(cache, test.X)),
        alpha,
        scale,
    )
    if cfg.point_predictor == "argmax_feature":
        y_hat = test.X[:, : scale.k_max].argmax(axis=1) + 1.0
    return MethodResult(
        method=name,
        intervals=intervals,
        y_hat=y_hat,
        calibration=ConformalCalibration(name, alpha, q_hat, learners),
    )


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

    def labels(self, batch: Batch) -> np.ndarray:
        """The group of every row, as strings; worked out once per distinct
        tag. A row with no group raises DataError naming its sample."""
        if self.group_of is not None:
            tags, inverse = np.unique(batch.dataset, return_inverse=True)
            known = np.array([t in self.group_of for t in tags.tolist()], dtype=bool)
            if not known.all():
                i = int(np.flatnonzero(~known[inverse])[0])
                raise DataError(
                    f"partition {self.name!r} has no group for dataset "
                    f"{str(batch.dataset[i])!r} (sample {batch.sample_id[i]!r})"
                )
            groups = np.array([self.group_of[t] for t in tags.tolist()], dtype=str)
            return groups[inverse]
        if self.tag_field == "dataset_tag":
            return batch.dataset
        tags = batch.group.tolist()
        if None in tags:
            raise DataError(
                f"partition {self.name!r} needs group_tag, but sample "
                f"{batch.sample_id[tags.index(None)]!r} has none"
            )
        return np.array(tags, dtype=str)


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
    cal: Batch,
    test: Batch,
    alpha,
    partition: GroupPartition,
    inner: str,
    scale: RatingScale,
    cfg: MethodConfig = MethodConfig(),
    min_group_cal: int = 50,
    cache: dict | None = None,
) -> MethodResult:
    """Run the inner method independently per group.

    Each group gets its own learner fits and its own quantile, so the
    coverage guarantee holds per group. ``cache`` maps each group label to
    the learner cache of that group's calibration set; pass one dict for
    every method of one split, so methods of a group share their fits. By
    default each call fits afresh. Groups whose calibration count falls
    below ``min_group_cal`` are rejected loudly: with too few scores the
    quantile rank overflows and the group would silently get vacuous
    full-range intervals.
    """
    _check_inputs(cal, test, alpha)
    if cache is None:
        cache = {}
    cal_groups = partition.labels(cal)
    test_groups = partition.labels(test)
    lower = np.empty(len(test))
    upper = np.empty(len(test))
    y_hat = np.empty(len(test))
    per_group_q: dict[str, object] = {}
    learners: list = []
    for g in np.unique(np.concatenate([cal_groups, test_groups])).tolist():
        cal_idx = np.flatnonzero(cal_groups == g)
        test_idx = np.flatnonzero(test_groups == g)
        if len(cal_idx) < min_group_cal:
            raise DataError(
                f"group {g!r} has {len(cal_idx)} calibration samples, "
                f"below the minimum {min_group_cal}"
            )
        if not len(test_idx):
            continue
        sub = run_method(
            inner, cal[cal_idx], test[test_idx], alpha, scale, cfg,
            cache.setdefault(g, {}),
        )
        per_group_q[g] = sub.calibration.q_hat
        learners.append((g, sub.calibration.learners))
        lower[test_idx] = sub.intervals.lower
        upper[test_idx] = sub.intervals.upper
        y_hat[test_idx] = sub.y_hat
    return MethodResult(
        method=f"mondrian[{inner}]",
        intervals=Intervals(lower, upper),
        y_hat=y_hat,
        calibration=ConformalCalibration(
            f"mondrian[{inner}]", alpha, per_group_q, tuple(learners)
        ),
    )
