"""Pinball-loss quantile regression: one small network, one output per level."""

from __future__ import annotations

import numpy as np

from .nets import Net, Standardizer, TrainConfig, fit_mlp, pinball_head


def fit_quantile_model(
    X: np.ndarray, y: np.ndarray, taus: tuple[float, ...], cfg: TrainConfig
) -> Net:
    """One network whose output j is the conditional quantile at level
    ``taus[j]``, trained on the sum of the levels' mean pinball losses
    (Romano, Patterson & Candès 2019 train the CQR pair this way). The
    outputs can cross."""
    if tuple(sorted(taus)) != tuple(taus):
        raise ValueError("tau levels must be given in ascending order")
    if not all(0.0 < tau < 1.0 for tau in taus):
        raise ValueError(f"tau levels must be in (0, 1), got {taus}")
    scaler = Standardizer.fit(X)
    return Net(fit_mlp(scaler.transform(X), y, len(taus), pinball_head(*taus), cfg), scaler)
