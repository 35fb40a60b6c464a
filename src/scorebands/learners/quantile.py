"""Pinball-loss quantile regressors, one small network per level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import MLPParams, Standardizer, TrainConfig, fit_mlp, forward, pinball_head


@dataclass(frozen=True)
class QuantileComponent:
    """A single fitted conditional quantile."""

    tau: float
    params: MLPParams
    scaler: Standardizer

    def predict(self, X: np.ndarray) -> np.ndarray:
        _, out = forward(self.params, self.scaler.transform(X))
        return out[:, 0]


@dataclass(frozen=True)
class QuantileModel:
    """Several quantile levels with crossing removed by post-sorting."""

    components: tuple[QuantileComponent, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(n, n_levels) predictions, sorted per row so levels never cross."""
        stacked = np.column_stack([c.predict(X) for c in self.components])
        return np.sort(stacked, axis=1)


def fit_quantile(
    X: np.ndarray, y: np.ndarray, tau: float, cfg: TrainConfig
) -> QuantileComponent:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty training set")
    scaler = Standardizer.fit(X)
    params = fit_mlp(scaler.transform(X), y, 1, pinball_head(tau), cfg)
    return QuantileComponent(tau=tau, params=params, scaler=scaler)


def fit_quantile_model(
    X: np.ndarray, y: np.ndarray, taus: tuple[float, ...], cfg: TrainConfig
) -> QuantileModel:
    if tuple(sorted(taus)) != tuple(taus):
        raise ValueError("tau levels must be given in ascending order")
    return QuantileModel(
        components=tuple(fit_quantile(X, y, tau, cfg) for tau in taus)
    )
