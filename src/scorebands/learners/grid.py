"""Grid-softmax conditional density: regression recast as classification.

The label range is discretized into a fine grid; a small network maps the
feature vector to a softmax distribution over grid points. The negative log
mass at a label's nearest grid point serves as a density nonconformity score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .nets import (
    Standardizer,
    TrainConfig,
    fit_mlp,
    forward,
    log_softmax,
    softmax_ce_head,
)


@dataclass(frozen=True)
class GridConfig:
    """Eight points per label over [0.5, k_max + 0.5], a range that strictly
    contains the labels 1..k_max."""

    k_max: int = 5
    lo: ClassVar[float] = 0.5
    resolution: ClassVar[float] = 0.125

    @property
    def n_points(self) -> int:
        return 8 * self.k_max + 1

    def points(self) -> np.ndarray:
        return self.lo + self.resolution * np.arange(self.n_points)

    def nearest_index(self, y):
        """Index of the grid point nearest y; exact ties go to the lower point.

        y may be a number (gives an int) or an array (gives an intp array).
        """
        y_arr = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y_arr).all():
            raise ValueError("grid index of a non-finite value")
        idx = np.ceil((y_arr - self.lo) / self.resolution - 0.5)
        idx = np.minimum(np.maximum(idx, 0), self.n_points - 1).astype(np.intp)
        return int(idx) if idx.ndim == 0 else idx


@dataclass(frozen=True)
class GridClassifier:
    """Fitted softmax-over-grid density model."""

    params: list
    scaler: Standardizer
    grid: GridConfig

    def predict_log_proba(self, X: np.ndarray) -> np.ndarray:
        _, out = forward(self.params, self.scaler.transform(X))
        return log_softmax(out)


def fit_grid_classifier(
    X: np.ndarray, y: np.ndarray, grid: GridConfig, cfg: TrainConfig
) -> GridClassifier:
    """Cross-entropy fit against each label's nearest grid point."""
    targets = grid.nearest_index(np.asarray(y, dtype=np.float64).reshape(-1))
    scaler = Standardizer.fit(X)
    params = fit_mlp(scaler.transform(X), targets, grid.n_points, softmax_ce_head, cfg)
    return GridClassifier(params=params, scaler=scaler, grid=grid)
