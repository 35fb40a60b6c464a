"""Synthetic sample generators whose true conditional structure is known.

Every generator records enough of its internal state (latent scores, noise
scales, pre-discretization targets) that closed-form central intervals and
their exact hit probability are available as an oracle. Empirical coverage of
any split-conformal method can then be checked against ground truth instead
of against another estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import Batch, DataError, RatingScale

GENERATORS = ("homoscedastic", "heteroscedastic_groups", "peaked_logprob")

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
        if self.feature_dim % self.scale.k_max != 0:
            raise DataError(
                f"feature_dim {self.feature_dim} must be a multiple of "
                f"k_max={self.scale.k_max}"
            )
        if not 0.0 <= self.label_noise <= 1.0:
            raise DataError(f"label_noise must be in [0, 1], got {self.label_noise}")


@dataclass
class SyntheticOracle:
    """Closed-form per-sample 90% central intervals and their exact mass."""

    spec: SyntheticSpec
    latent: np.ndarray  # s* (peaked) or continuous m (regression generators)
    lower: np.ndarray
    upper: np.ndarray
    interval_mass: np.ndarray  # exact hit probability of [lower, upper]
    sigma: np.ndarray | None = None  # per-sample continuous noise sd
    y_cont: np.ndarray | None = None  # pre-discretization continuous target

    def empirical_coverage(self, targets: np.ndarray) -> float:
        return float(
            ((targets >= self.lower) & (targets <= self.upper)).mean()
        )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _feature_blocks(
    rng: np.random.Generator, center: np.ndarray, spread: np.ndarray, spec: SyntheticSpec
) -> np.ndarray:
    """Stack log-softmax blocks peaked at `center` with per-sample spread."""
    k = spec.scale.k_max
    labels = np.arange(1, k + 1, dtype=np.float64)
    blocks = []
    for _ in range(spec.feature_dim // k):
        logits = -((labels[None, :] - center[:, None]) ** 2) / spread[:, None]
        logits = logits + spec.logit_noise * rng.standard_normal(logits.shape)
        blocks.append(_log_softmax(logits))
    return np.concatenate(blocks, axis=1)


def _peaked_features(
    rng: np.random.Generator, cond: np.ndarray, spec: SyntheticSpec
) -> np.ndarray:
    """Noisy log-softmax view(s) of a true conditional distribution."""
    log_cond = np.log(np.maximum(cond, 1e-300))
    blocks = []
    for _ in range(spec.feature_dim // spec.scale.k_max):
        noisy = log_cond + spec.logit_noise * rng.standard_normal(log_cond.shape)
        blocks.append(_log_softmax(noisy))
    return np.concatenate(blocks, axis=1)


def _round_half_up(values: np.ndarray) -> np.ndarray:
    return np.floor(values + 0.5)


def _central_label_set(
    probs: np.ndarray, target: float, scale: RatingScale
) -> tuple[int, int, float]:
    """Grow a contiguous label set greedily from the mode until mass >= target."""
    k = scale.k_max
    lo = hi = int(np.argmax(probs))
    mass = float(probs[lo])
    while mass < target - 1e-12 and (lo > 0 or hi < k - 1):
        grow_left = lo > 0 and (hi == k - 1 or probs[lo - 1] >= probs[hi + 1])
        if grow_left:
            lo -= 1
            mass += float(probs[lo])
        else:
            hi += 1
            mass += float(probs[hi])
    return lo + 1, hi + 1, mass


def generate_synthetic(spec: SyntheticSpec) -> tuple[Batch, SyntheticOracle]:
    rng = np.random.default_rng(spec.seed)
    scale = spec.scale
    k = scale.k_max

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
        labels = np.arange(1, k + 1, dtype=np.float64)
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
        feats = _peaked_features(rng, cond, spec)
        lower = np.empty(spec.n)
        upper = np.empty(spec.n)
        mass = np.empty(spec.n)
        for i in range(spec.n):
            lower[i], upper[i], mass[i] = _central_label_set(cond[i], 0.9, scale)
        oracle = SyntheticOracle(
            spec=spec,
            latent=s_star.astype(np.float64),
            lower=lower,
            upper=upper,
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
    feats = _feature_blocks(rng, m, spread, spec)
    y_cont = m + sigma * rng.standard_normal(spec.n)
    gt = np.clip(_round_half_up(y_cont), 1, k)
    oracle = SyntheticOracle(
        spec=spec,
        latent=m,
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
