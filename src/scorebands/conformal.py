"""Split-conformal interval constructors over judge-score features.

Nine methods share one quantile rule: sort the calibration nonconformity
scores and take the ceil((n+1)(1-alpha))-th order statistic. Rank overflow
yields an infinite threshold, which after clamping becomes the full-range
interval rather than an error.

Methods that need a fitted learner split their calibration samples in half
internally: the learner sees the first half, the conformal quantile is
computed on the second, preserving exchangeability of the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import (
    DataError,
    Interval,
    LabeledSample,
    RatingScale,
    clamp_interval,
    decimal_fraction,
    features_matrix,
    gt_array,
)
from .learners import (
    GridConfig,
    TrainConfig,
    fit_boosted,
    fit_grid_classifier,
    fit_hist_density,
    fit_point_var,
    fit_quantile_model,
    fit_spread_head,
)

METHOD_NAMES = (
    "naive_split",
    "cqr",
    "cqr_asym",
    "chr",
    "lvd",
    "boosted_cqr",
    "boosted_lcp",
    "r2ccp",
    "ordinal_aps",
)


@dataclass(frozen=True)
class MethodConfig:
    """Knobs shared by every interval constructor."""

    train: TrainConfig = TrainConfig()
    grid: GridConfig = GridConfig()
    chr_bins: int = 9
    boost_rounds: int = 200
    boost_depth: int = 3
    boost_rate: float = 0.2
    sigma_floor: float = 1e-3
    point_predictor: str = "model"  # "model" or "argmax_feature"


@dataclass(frozen=True)
class ConformalCalibration:
    """A calibrated threshold plus the learners it was computed with."""

    method: str
    alpha: float
    q_hat: object  # float, per-side tuple, or per-group dict
    learners: tuple = ()


@dataclass(eq=False)
class MethodResult:
    method: str
    intervals: list[Interval]
    y_hat: np.ndarray
    calibration: ConformalCalibration


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((n+1)(1-alpha))-th smallest score, or +inf on rank overflow.

    alpha is read as the decimal it prints as (0.3 is 3/10, not the binary
    double nearest it) and the rank is computed in exact rational
    arithmetic, so the float's own rounding error can never move the rank
    across an integer boundary.
    """
    scores = list(scores)
    n = len(scores)
    if n == 0:
        raise DataError("conformal quantile of an empty score list")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    rank = math.ceil((n + 1) * (1 - decimal_fraction(alpha)))
    if rank > n:
        return math.inf
    return float(sorted(scores)[rank - 1])


def _halves(samples: list[LabeledSample]) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Learner half and conformal half of an already-shuffled calibration set."""
    cut = len(samples) // 2
    return samples[:cut], samples[cut:]


def _interval(lo: float, hi: float, scale: RatingScale) -> Interval:
    # A strongly negative correction can cross the endpoints; collapse to the
    # midpoint (a zero-width interval) before clamping.
    if lo > hi:
        lo = hi = (lo + hi) / 2.0
    return clamp_interval(Interval(float(lo), float(hi)), scale)


def _full_range(scale: RatingScale) -> Interval:
    return Interval(float(scale.min_label), float(scale.k_max))


def _check_inputs(cal, test, alpha) -> None:
    if not cal:
        raise DataError("empty calibration set")
    if not test:
        raise DataError("empty test set")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


def _point_predictions(
    cfg: MethodConfig, scale: RatingScale, test: list[LabeledSample], model_y_hat: np.ndarray
) -> np.ndarray:
    if cfg.point_predictor == "model":
        return model_y_hat
    if cfg.point_predictor == "argmax_feature":
        X = features_matrix(test)
        return X[:, : scale.k_max].argmax(axis=1) + float(scale.min_label)
    raise DataError(f"unknown point_predictor {cfg.point_predictor!r}")


# ---------------------------------------------------------------------------
# Pure conformal arithmetic, separated from learner fitting for testability.
# ---------------------------------------------------------------------------


def naive_from_predictions(
    y_conf: np.ndarray,
    mu_conf: np.ndarray,
    mu_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, list[Interval]]:
    q = conformal_quantile(np.abs(y_conf - mu_conf), alpha)
    return q, [_interval(m - q, m + q, scale) for m in mu_test]


def lvd_from_predictions(
    y_conf: np.ndarray,
    mu_conf: np.ndarray,
    sig_conf: np.ndarray,
    mu_test: np.ndarray,
    sig_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, list[Interval]]:
    q = conformal_quantile(np.abs(y_conf - mu_conf) / sig_conf, alpha)
    return q, [
        _interval(m - q * s, m + q * s, scale) for m, s in zip(mu_test, sig_test)
    ]


def cqr_from_quantiles(
    y_conf: np.ndarray,
    lo_conf: np.ndarray,
    hi_conf: np.ndarray,
    lo_test: np.ndarray,
    hi_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
    symmetric: bool = True,
) -> tuple[object, list[Interval]]:
    if symmetric:
        scores = np.maximum(lo_conf - y_conf, y_conf - hi_conf)
        q = conformal_quantile(scores, alpha)
        ivs = [_interval(l - q, h + q, scale) for l, h in zip(lo_test, hi_test)]
        return q, ivs
    q_lo = conformal_quantile(lo_conf - y_conf, alpha / 2.0)
    q_hi = conformal_quantile(y_conf - hi_conf, alpha / 2.0)
    ivs = [
        _interval(l - q_lo, h + q_hi, scale) for l, h in zip(lo_test, hi_test)
    ]
    return (q_lo, q_hi), ivs


def density_intervals_from_scores(
    conf_scores: np.ndarray,
    test_neg_logp: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, list[Interval]]:
    """Shared CHR/R2CCP rule: smallest contiguous run covering all points
    whose negative log density is within the calibrated threshold.

    ``lows``/``highs`` give the real endpoints each density cell maps to
    (the cell's own value for a grid, its edges for a histogram bin).
    """
    thr = conformal_quantile(conf_scores, alpha)
    ivs: list[Interval] = []
    for row in test_neg_logp:
        qualifying = np.flatnonzero(row <= thr)
        if qualifying.size == 0:
            ivs.append(_full_range(scale))
        else:
            ivs.append(
                _interval(lows[qualifying[0]], highs[qualifying[-1]], scale)
            )
    return thr, ivs


def aps_growth_path(probs: np.ndarray) -> tuple[list[int], list[float]]:
    """Greedy contiguous growth from the argmax label.

    Returns the label indices in inclusion order and the cumulative mass
    after each inclusion. Ties prefer the lower label.
    """
    k = len(probs)
    start = int(np.argmax(probs))
    order = [start]
    masses = [float(probs[start])]
    left, right = start - 1, start + 1
    while left >= 0 or right < k:
        if left < 0:
            pick = right
            right += 1
        elif right >= k:
            pick = left
            left -= 1
        elif probs[left] >= probs[right]:
            pick = left
            left -= 1
        else:
            pick = right
            right += 1
        order.append(pick)
        masses.append(masses[-1] + float(probs[pick]))
    return order, masses


def aps_score(probs: np.ndarray, label_index: int) -> float:
    """Cumulative mass needed before the true label joins the growing set."""
    order, masses = aps_growth_path(probs)
    return masses[order.index(label_index)]


def aps_set(probs: np.ndarray, threshold: float) -> tuple[int, int]:
    """Smallest greedy-grown contiguous index run with mass >= threshold."""
    order, masses = aps_growth_path(probs)
    take = 1
    while take < len(order) and masses[take - 1] < threshold:
        take += 1
    chosen = order[:take]
    return min(chosen), max(chosen)


def aps_from_probs(
    probs_conf: np.ndarray,
    y_conf_index: np.ndarray,
    probs_test: np.ndarray,
    alpha: float,
    scale: RatingScale,
) -> tuple[float, list[Interval], np.ndarray]:
    scores = np.array(
        [aps_score(p, int(i)) for p, i in zip(probs_conf, y_conf_index)]
    )
    q = conformal_quantile(scores, alpha)
    ivs: list[Interval] = []
    argmax_labels = np.empty(len(probs_test))
    for i, p in enumerate(probs_test):
        lo_idx, hi_idx = aps_set(p, q)
        ivs.append(
            _interval(scale.min_label + lo_idx, scale.min_label + hi_idx, scale)
        )
        argmax_labels[i] = scale.min_label + int(np.argmax(p))
    return q, ivs, argmax_labels


# ---------------------------------------------------------------------------
# Learner-backed constructors. `cache` shares fitted learners across methods
# that run on the identical calibration half within one experiment cell.
# ---------------------------------------------------------------------------


def _fit_cached(cache: dict | None, key: str, fit: Callable):
    if cache is not None and key in cache:
        return cache[key]
    model = fit()
    if cache is not None:
        cache[key] = model
    return model


def _pointvar(cal_train, cfg: MethodConfig, cache, need_sigma: bool):
    """The point model of the learner half; one mean head serves every method."""
    Xtr, ytr = features_matrix(cal_train), gt_array(cal_train)
    model = _fit_cached(
        cache,
        "pointvar_mean",
        lambda: fit_point_var(
            Xtr, ytr, cfg.train, fit_sigma=False, sigma_floor=cfg.sigma_floor
        ),
    )
    if not need_sigma:
        return model
    return _fit_cached(
        cache, "pointvar_sigma", lambda: fit_spread_head(model, Xtr, ytr, cfg.train)
    )


def run_naive_split(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    _check_inputs(cal, test, alpha)
    cal_train, cal_conf = _halves(cal)
    model = _pointvar(cal_train, cfg, cache, need_sigma=False)
    mu_conf = model.predict_mean(features_matrix(cal_conf))
    mu_test = model.predict_mean(features_matrix(test))
    q, ivs = naive_from_predictions(gt_array(cal_conf), mu_conf, mu_test, alpha, scale)
    return MethodResult(
        method="naive_split",
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, mu_test),
        calibration=ConformalCalibration("naive_split", alpha, q, (model,)),
    )


def run_cqr(
    cal, test, alpha, scale, cfg=MethodConfig(), cache=None, symmetric: bool = True
) -> MethodResult:
    _check_inputs(cal, test, alpha)
    cal_train, cal_conf = _halves(cal)
    taus = (alpha / 2.0, 1.0 - alpha / 2.0)
    qm = _fit_cached(
        cache,
        "quantile",
        lambda: fit_quantile_model(
            features_matrix(cal_train), gt_array(cal_train), taus, cfg.train
        ),
    )
    pred_conf = qm.predict(features_matrix(cal_conf))
    pred_test = qm.predict(features_matrix(test))
    name = "cqr" if symmetric else "cqr_asym"
    q, ivs = cqr_from_quantiles(
        gt_array(cal_conf),
        pred_conf[:, 0],
        pred_conf[:, -1],
        pred_test[:, 0],
        pred_test[:, -1],
        alpha,
        scale,
        symmetric=symmetric,
    )
    mid = (pred_test[:, 0] + pred_test[:, -1]) / 2.0
    return MethodResult(
        method=name,
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, mid),
        calibration=ConformalCalibration(name, alpha, q, (qm,)),
    )


def run_cqr_asym(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    return run_cqr(cal, test, alpha, scale, cfg, cache, symmetric=False)


def run_chr(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    _check_inputs(cal, test, alpha)
    cal_train, cal_conf = _halves(cal)
    lo, hi = scale.min_label - 0.5, scale.k_max + 0.5
    model = _fit_cached(
        cache,
        f"hist{cfg.chr_bins}",
        lambda: fit_hist_density(
            features_matrix(cal_train),
            gt_array(cal_train),
            cfg.chr_bins,
            cfg.train,
            lo=lo,
            hi=hi,
        ),
    )
    y_conf = gt_array(cal_conf)
    logp_conf = model.predict_log_proba(features_matrix(cal_conf))
    bins = np.array([model.bin_index(float(v)) for v in y_conf])
    conf_scores = -logp_conf[np.arange(len(y_conf)), bins]
    Xt = features_matrix(test)
    neg_logp_test = -model.predict_log_proba(Xt)
    edges = model.bin_edges()
    thr, ivs = density_intervals_from_scores(
        conf_scores, neg_logp_test, edges[:-1], edges[1:], alpha, scale
    )
    return MethodResult(
        method="chr",
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, model.expected_value(Xt)),
        calibration=ConformalCalibration("chr", alpha, thr, (model,)),
    )


def run_lvd(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    _check_inputs(cal, test, alpha)
    cal_train, cal_conf = _halves(cal)
    model = _pointvar(cal_train, cfg, cache, need_sigma=True)
    Xc, Xt = features_matrix(cal_conf), features_matrix(test)
    q, ivs = lvd_from_predictions(
        gt_array(cal_conf),
        model.predict_mean(Xc),
        model.predict_sigma(Xc),
        model.predict_mean(Xt),
        model.predict_sigma(Xt),
        alpha,
        scale,
    )
    return MethodResult(
        method="lvd",
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, model.predict_mean(Xt)),
        calibration=ConformalCalibration("lvd", alpha, q, (model,)),
    )


def run_r2ccp(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    _check_inputs(cal, test, alpha)
    grid = cfg.grid
    if not (grid.lo < scale.min_label and grid.hi > scale.k_max):
        raise DataError(
            f"grid [{grid.lo}, {grid.hi}] must strictly contain the label "
            f"range [{scale.min_label}, {scale.k_max}]"
        )
    cal_train, cal_conf = _halves(cal)
    model = _fit_cached(
        cache,
        "grid",
        lambda: fit_grid_classifier(
            features_matrix(cal_train), gt_array(cal_train), grid, cfg.train
        ),
    )
    y_conf = gt_array(cal_conf)
    logp_conf = model.predict_log_proba(features_matrix(cal_conf))
    idx = np.array([grid.nearest_index(float(v)) for v in y_conf])
    conf_scores = -logp_conf[np.arange(len(y_conf)), idx]
    Xt = features_matrix(test)
    neg_logp_test = -model.predict_log_proba(Xt)
    points = grid.points()
    thr, ivs = density_intervals_from_scores(
        conf_scores, neg_logp_test, points, points, alpha, scale
    )
    return MethodResult(
        method="r2ccp",
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, model.expected_value(Xt)),
        calibration=ConformalCalibration("r2ccp", alpha, thr, (model,)),
    )


def run_ordinal_aps(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    _check_inputs(cal, test, alpha)
    cal_train, cal_conf = _halves(cal)
    k = scale.k_max
    model = _fit_cached(
        cache,
        f"hist{k}",
        lambda: fit_hist_density(
            features_matrix(cal_train),
            gt_array(cal_train),
            k,
            cfg.train,
            lo=scale.min_label - 0.5,
            hi=scale.k_max + 0.5,
        ),
    )
    probs_conf = model.predict_proba(features_matrix(cal_conf))
    y_idx = gt_array(cal_conf).astype(np.intp) - scale.min_label
    probs_test = model.predict_proba(features_matrix(test))
    q, ivs, argmax_labels = aps_from_probs(probs_conf, y_idx, probs_test, alpha, scale)
    return MethodResult(
        method="ordinal_aps",
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, argmax_labels),
        calibration=ConformalCalibration("ordinal_aps", alpha, q, (model,)),
    )


def run_boosted(
    cal, test, alpha, scale, cfg=MethodConfig(), cache=None, variant: str = "cqr"
) -> MethodResult:
    _check_inputs(cal, test, alpha)
    if variant not in ("cqr", "lcp"):
        raise DataError(f"unknown boosted variant {variant!r}")
    if cfg.boost_rounds == 0:
        # Zero boosting rounds fall back to the unboosted counterpart.
        inner = run_cqr if variant == "cqr" else run_lvd
        result = inner(cal, test, alpha, scale, cfg, cache)
        return replace_method_name(result, f"boosted_{variant}")
    cal_train, cal_conf = _halves(cal)
    Xtr, ytr = features_matrix(cal_train), gt_array(cal_train)
    Xc, Xt = features_matrix(cal_conf), features_matrix(test)
    name = f"boosted_{variant}"
    if variant == "cqr":
        taus = (alpha / 2.0, 1.0 - alpha / 2.0)
        models = [
            _fit_cached(
                cache,
                f"boost_pinball_{tau}",
                lambda tau=tau: fit_boosted(
                    Xtr,
                    ytr,
                    "pinball",
                    cfg.boost_rounds,
                    cfg.boost_depth,
                    cfg.boost_rate,
                    tau=tau,
                ),
            )
            for tau in taus
        ]
        pred_conf = np.sort(np.column_stack([m.predict(Xc) for m in models]), axis=1)
        pred_test = np.sort(np.column_stack([m.predict(Xt) for m in models]), axis=1)
        q, ivs = cqr_from_quantiles(
            gt_array(cal_conf),
            pred_conf[:, 0],
            pred_conf[:, 1],
            pred_test[:, 0],
            pred_test[:, 1],
            alpha,
            scale,
            symmetric=True,
        )
        mid = (pred_test[:, 0] + pred_test[:, 1]) / 2.0
        return MethodResult(
            method=name,
            intervals=ivs,
            y_hat=_point_predictions(cfg, scale, test, mid),
            calibration=ConformalCalibration(name, alpha, q, tuple(models)),
        )
    # lcp: a boosted absolute-loss model of |residual| supplies the local scale.
    mean_model = _pointvar(cal_train, cfg, cache, need_sigma=False)
    abs_resid = np.abs(ytr - mean_model.predict_mean(Xtr))
    sig_model = _fit_cached(
        cache,
        "boost_abs",
        lambda: fit_boosted(
            Xtr, abs_resid, "absolute", cfg.boost_rounds, cfg.boost_depth, cfg.boost_rate
        ),
    )
    sig_conf = np.maximum(sig_model.predict(Xc), cfg.sigma_floor)
    sig_test = np.maximum(sig_model.predict(Xt), cfg.sigma_floor)
    mu_test = mean_model.predict_mean(Xt)
    q, ivs = lvd_from_predictions(
        gt_array(cal_conf),
        mean_model.predict_mean(Xc),
        sig_conf,
        mu_test,
        sig_test,
        alpha,
        scale,
    )
    return MethodResult(
        method=name,
        intervals=ivs,
        y_hat=_point_predictions(cfg, scale, test, mu_test),
        calibration=ConformalCalibration(name, alpha, q, (mean_model, sig_model)),
    )


def run_boosted_cqr(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    return run_boosted(cal, test, alpha, scale, cfg, cache, variant="cqr")


def run_boosted_lcp(cal, test, alpha, scale, cfg=MethodConfig(), cache=None) -> MethodResult:
    return run_boosted(cal, test, alpha, scale, cfg, cache, variant="lcp")


def replace_method_name(result: MethodResult, name: str) -> MethodResult:
    return MethodResult(
        method=name,
        intervals=result.intervals,
        y_hat=result.y_hat,
        calibration=ConformalCalibration(
            name,
            result.calibration.alpha,
            result.calibration.q_hat,
            result.calibration.learners,
        ),
    )


METHODS: dict[str, Callable] = {
    "naive_split": run_naive_split,
    "cqr": run_cqr,
    "cqr_asym": run_cqr_asym,
    "chr": run_chr,
    "lvd": run_lvd,
    "boosted_cqr": run_boosted_cqr,
    "boosted_lcp": run_boosted_lcp,
    "r2ccp": run_r2ccp,
    "ordinal_aps": run_ordinal_aps,
}


def run_method(
    name: str, cal, test, alpha, scale, cfg=MethodConfig(), cache=None
) -> MethodResult:
    if name not in METHODS:
        raise DataError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    return METHODS[name](cal, test, alpha, scale, cfg, cache)


# ---------------------------------------------------------------------------
# Discrete boundary adjustment.
# ---------------------------------------------------------------------------


def boundary_adjust(
    iv: Interval, scale: RatingScale, direction: str = "outward"
) -> Interval:
    """Snap continuous endpoints to integer labels.

    "outward" floors the lower and ceils the upper endpoint, so the adjusted
    interval always contains the raw one (coverage can only grow). "inward"
    takes the tight integer hull; when the raw interval contains no integer
    it collapses to the label nearest the midpoint.
    """
    if direction == "off":
        return iv
    if direction == "outward":
        al = max(scale.min_label, math.floor(iv.lower))
        au = min(scale.k_max, math.ceil(iv.upper))
    elif direction == "inward":
        al = math.ceil(iv.lower)
        au = math.floor(iv.upper)
        if al > au:
            al = au = int(math.floor((iv.lower + iv.upper) / 2.0 + 0.5))
        al = min(max(al, scale.min_label), scale.k_max)
        au = min(max(au, scale.min_label), scale.k_max)
    else:
        raise DataError(f"unknown adjustment direction {direction!r}")
    return Interval(iv.lower, iv.upper, adj_lower=int(al), adj_upper=int(au))


def adjust_all(
    intervals: list[Interval], scale: RatingScale, direction: str = "outward"
) -> list[Interval]:
    return [boundary_adjust(iv, scale, direction) for iv in intervals]


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

    def group_for(self, sample: LabeledSample) -> str:
        if self.group_of is not None:
            try:
                return self.group_of[sample.dataset_tag]
            except KeyError:
                raise DataError(
                    f"partition {self.name!r} has no group for dataset "
                    f"{sample.dataset_tag!r} (sample {sample.sample_id!r})"
                ) from None
        if self.tag_field == "dataset_tag":
            return sample.dataset_tag
        if sample.group_tag is None:
            raise DataError(
                f"partition {self.name!r} needs group_tag, but sample "
                f"{sample.sample_id!r} has none"
            )
        return sample.group_tag


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
    cal,
    test,
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
    cal_groups = [partition.group_for(s) for s in cal]
    test_groups = [partition.group_for(s) for s in test]
    labels = sorted(set(cal_groups) | set(test_groups))
    intervals: list[Interval | None] = [None] * len(test)
    y_hat = np.empty(len(test))
    per_group_q: dict[str, object] = {}
    learners: list = []
    for g in labels:
        cal_idx = [i for i, gg in enumerate(cal_groups) if gg == g]
        test_idx = [i for i, gg in enumerate(test_groups) if gg == g]
        if len(cal_idx) < min_group_cal:
            raise DataError(
                f"group {g!r} has {len(cal_idx)} calibration samples, "
                f"below the minimum {min_group_cal}"
            )
        if not test_idx:
            continue
        sub = run_method(
            inner,
            [cal[i] for i in cal_idx],
            [test[i] for i in test_idx],
            alpha,
            scale,
            cfg,
            cache.setdefault(g, {}),
        )
        per_group_q[g] = sub.calibration.q_hat
        learners.append((g, sub.calibration.learners))
        for pos, iv, yh in zip(test_idx, sub.intervals, sub.y_hat):
            intervals[pos] = iv
            y_hat[pos] = yh
    return MethodResult(
        method=f"mondrian[{inner}]",
        intervals=list(intervals),  # type: ignore[arg-type]
        y_hat=y_hat,
        calibration=ConformalCalibration(
            f"mondrian[{inner}]", alpha, per_group_q, tuple(learners)
        ),
    )
