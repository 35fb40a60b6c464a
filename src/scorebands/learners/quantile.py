"""Pinball-loss quantile regression: one small network, one output per level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import MLPParams, Standardizer, TrainConfig, fit_mlp, forward, pinball_head


@dataclass(frozen=True)
class QuantileModel:
    """Conditional quantiles at the levels `taus`, with crossing removed by
    post-sorting."""

    taus: tuple[float, ...]
    params: MLPParams
    scaler: Standardizer

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(n, n_levels) predictions, sorted per row so levels never cross."""
        _, out = forward(self.params, self.scaler.transform(X))
        return np.sort(out, axis=1)


def fit_quantile_model(
    X: np.ndarray, y: np.ndarray, taus: tuple[float, ...], cfg: TrainConfig
) -> QuantileModel:
    """One network trained on the sum of the levels' mean pinball losses
    (Romano, Patterson & Candès 2019 train the CQR pair this way)."""
    if tuple(sorted(taus)) != tuple(taus):
        raise ValueError("tau levels must be given in ascending order")
    if not all(0.0 < tau < 1.0 for tau in taus):
        raise ValueError(f"tau levels must be in (0, 1), got {taus}")
    scaler = Standardizer.fit(X)
    params = fit_mlp(scaler.transform(X), y, len(taus), pinball_head(*taus), cfg)
    return QuantileModel(taus=tuple(taus), params=params, scaler=scaler)
