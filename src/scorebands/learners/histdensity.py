"""Conditional histogram estimator: softmax over equal-width label bins."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nets import (
    MLPParams,
    Standardizer,
    TrainConfig,
    fit_mlp,
    forward,
    log_softmax,
    softmax_ce_head,
)


@dataclass(frozen=True)
class HistDensityModel:
    """Per-input probabilities over n_bins equal bins spanning [lo, hi]."""

    params: MLPParams
    scaler: Standardizer
    n_bins: int
    lo: float
    hi: float

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.n_bins

    def bin_edges(self) -> np.ndarray:
        return self.lo + self.bin_width * np.arange(self.n_bins + 1)

    def bin_centers(self) -> np.ndarray:
        return self.lo + self.bin_width * (np.arange(self.n_bins) + 0.5)

    def bin_index(self, y):
        """Bin of y, truncating toward zero and clipped into the bins.

        y may be a number (gives an int) or an array (gives an intp array).
        """
        y_arr = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y_arr).all():
            raise ValueError("bin index of a non-finite value")
        idx = np.minimum(np.maximum((y_arr - self.lo) / self.bin_width, 0), self.n_bins - 1)
        idx = idx.astype(np.intp)
        return int(idx) if idx.ndim == 0 else idx

    def predict_log_proba(self, X: np.ndarray) -> np.ndarray:
        _, out = forward(self.params, self.scaler.transform(X))
        return log_softmax(out)


def fit_hist_density(
    X: np.ndarray, y: np.ndarray, k_max: int, cfg: TrainConfig
) -> HistDensityModel:
    """Cross-entropy fit on the labels 1..k_max, one bin per label over
    [0.5, k_max + 0.5]."""
    if k_max < 2:
        raise ValueError(f"need at least 2 labels, got {k_max}")
    bins = HistDensityModel(None, None, k_max, 0.5, k_max + 0.5)
    scaler = Standardizer.fit(X)
    params = fit_mlp(scaler.transform(X), bins.bin_index(y), k_max, softmax_ce_head, cfg)
    return replace(bins, params=params, scaler=scaler)
