"""Synthetic sample generators whose true conditional structure is known.

Every generator records enough of its internal state (noise scales,
pre-discretization targets) that closed-form central intervals and their
exact hit probability are available as an oracle. Empirical coverage of
any split-conformal method can then be checked against ground truth instead
of against another estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..base import GENERATORS
from ..conformal import aps_sets
from ..core import Batch, DataError, RatingScale
from ..learners.nets import log_softmax
from ..metrics import round_to_label

# Standard normal quantile at 0.95: central 90% mass lies within +/- this.
Z_90 = 1.6448536269514722


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    generator: str = "peaked_logprob"
    feature_dim: int = 5
    seed: int = 0
    temperature: float = 1.0  # peaked_logprob: sharpness of the logit peak
    label_noise: float = 0.2  # peaked_logprob: P(gt drawn from the softmax)
    logit_noise: float = 0.5  # sd of the noise added to every logit
    sigma: float = 0.5  # continuous-label noise (low group for heteroscedastic)
    sigma_ratio: float = 3.0  # high-group sigma = sigma * ratio
    scale: RatingScale = field(default_factory=RatingScale)

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise DataError(
                f"unknown generator {self.generator!r}; choose from {GENERATORS}"
            )
        if self.n < 1:
            raise DataError(f"n must be positive, got {self.n}")
        k = self.scale.k_max
        # Each check fails on NaN, which compares false.
        for name, ok, want in (
            ("feature_dim", self.feature_dim >= 1 and self.feature_dim % k == 0,
             f"a positive multiple of k_max={k}"),
            ("temperature", self.temperature >= 0.0, ">= 0"),
            ("label_noise", 0.0 <= self.label_noise <= 1.0, "in [0, 1]"),
            ("logit_noise", 0.0 <= self.logit_noise < math.inf, "finite and >= 0"),
            ("sigma", 0.0 <= self.sigma < math.inf, "finite and >= 0"),
            ("sigma_ratio", 0.0 < self.sigma_ratio < math.inf, "finite and > 0"),
        ):
            if not ok:
                raise DataError(f"{name} must be {want}, got {getattr(self, name)}")


@dataclass
class SyntheticOracle:
    """Closed-form per-sample 90% central intervals and their exact mass."""

    lower: np.ndarray
    upper: np.ndarray
    interval_mass: np.ndarray  # exact hit probability of [lower, upper]
    sigma: np.ndarray | None = None  # per-sample continuous noise sd
    y_cont: np.ndarray | None = None  # pre-discretization continuous target

    def empirical_coverage(self, targets: np.ndarray) -> float:
        return float(
            ((targets >= self.lower) & (targets <= self.upper)).mean()
        )


def _noisy_blocks(
    rng: np.random.Generator, logits: np.ndarray, spec: SyntheticSpec
) -> np.ndarray:
    """feature_dim / K log-softmax views of ``logits``, each with its own
    Gaussian noise on every logit."""
    return np.concatenate([
        log_softmax(logits + spec.logit_noise * rng.standard_normal(logits.shape))
        for _ in range(spec.feature_dim // spec.scale.k_max)
    ], axis=1)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Batch, SyntheticOracle]:
    rng = np.random.default_rng(spec.seed)
    scale = spec.scale
    k = scale.k_max
    labels = np.arange(1, k + 1, dtype=np.float64)

    if spec.generator == "peaked_logprob":
        # A synthetic judge: its score-token logprobs encode the true
        # conditional label distribution, a softmax peaked at a latent score
        # with per-sample sharpness (easy and hard instances coexist, so
        # nonconformity scores vary continuously). With probability
        # 1 - label_noise the emitted ground truth is the latent score
        # itself; otherwise it is drawn from the softmax.
        s_star = rng.integers(1, k + 1, size=spec.n)
        temp = max(spec.temperature, 1e-6)
        tau = temp * rng.uniform(0.5, 2.0, size=spec.n)
        logits = -((labels[None, :] - s_star[:, None]) ** 2) / tau[:, None]
        soft = np.exp(logits - logits.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        onehot = (labels[None, :] == s_star[:, None]).astype(np.float64)
        cond = (1.0 - spec.label_noise) * onehot + spec.label_noise * soft
        # Inverse-CDF draw of gt from each row's conditional. The final
        # cumsum entry can undershoot 1.0 by an ulp, so clip the index.
        u = rng.random(spec.n)
        cdf = np.cumsum(cond, axis=1)
        gt = np.minimum((u[:, None] > cdf).sum(axis=1), k - 1) + 1
        feats = _noisy_blocks(rng, np.log(np.maximum(cond, 1e-300)), spec)
        # The central 90% label set: greedy growth from the mode, the set
        # that APS grows (see `aps_sets`), up to a rounding tolerance.
        lo, hi, mass = aps_sets(cond, 0.9 - 1e-12)
        oracle = SyntheticOracle(
            lower=lo + 1.0,
            upper=hi + 1.0,
            interval_mass=mass,
        )
        return _batch(feats, gt, spec, groups=None), oracle

    # Regression-style generators: continuous latent mean plus Gaussian noise,
    # discretized to the integer scale. Features encode the latent mean, and
    # the noise level is visible through the peakedness of the logit block.
    m = rng.uniform(1.5, k - 0.5, size=spec.n)
    if spec.generator == "homoscedastic":
        sigma = np.full(spec.n, spec.sigma)
        spread = np.full(spec.n, 1.0)
        groups = None
    else:  # heteroscedastic_groups
        high = rng.random(spec.n) < 0.5
        sigma = np.where(high, spec.sigma * spec.sigma_ratio, spec.sigma)
        spread = np.where(high, 0.6 * spec.sigma_ratio, 0.6)
        groups = np.where(high, "high", "low")
    logits = -((labels[None, :] - m[:, None]) ** 2) / spread[:, None]
    feats = _noisy_blocks(rng, logits, spec)
    y_cont = m + sigma * rng.standard_normal(spec.n)
    gt = round_to_label(y_cont, scale)
    oracle = SyntheticOracle(
        lower=m - Z_90 * sigma,
        upper=m + Z_90 * sigma,
        interval_mass=np.full(spec.n, 0.9),
        sigma=sigma,
        y_cont=y_cont,
    )
    return _batch(feats, gt, spec, groups=groups), oracle


def _batch(feats: np.ndarray, gt: np.ndarray, spec: SyntheticSpec, groups) -> Batch:
    """The samples as columns; a group tag, when there is one, also names the
    dataset."""
    n = spec.n
    return Batch(
        X=feats,
        y=gt.astype(np.float64),
        dataset=(
            np.full(n, f"synthetic_{spec.generator}")
            if groups is None
            else np.char.add("synthetic_", groups)
        ),
        group=np.full(n, None) if groups is None else groups.astype(object),
        sample_id=np.array([f"s{i:06d}" for i in range(n)], dtype=object),
        judge=np.full(n, "synthetic"),
    )
