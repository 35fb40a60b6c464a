"""Grid-softmax conditional density: regression recast as classification
(Guha et al. 2024).

The grid is a label histogram with eight cells per label: 8K + 1 cells of
width 1/8 over [0.4375, K + 0.5625], whose centres run from 0.5 to K + 0.5
in steps of 1/8, so every label is the centre of its own cell. A small
network maps the feature vector to a softmax over the cells; the negative
log mass of a label's cell serves as a density nonconformity score.
No method calls it (integer labels only ever target K of its cells, so
r2ccp reads the label network); the benchmark's tracer still wraps it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .histdensity import HistDensityModel
from .nets import Standardizer, TrainConfig, fit_mlp, softmax_ce_head


def fit_grid_classifier(
    X: np.ndarray, y: np.ndarray, k_max: int, cfg: TrainConfig
) -> HistDensityModel:
    """Cross-entropy fit against each label's grid cell."""
    grid = HistDensityModel(None, None, 8 * k_max + 1, 0.5 - 1 / 16, k_max + 0.5 + 1 / 16)
    targets = grid.bin_index(np.asarray(y, dtype=np.float64).reshape(-1))
    scaler = Standardizer.fit(X)
    params = fit_mlp(scaler.transform(X), targets, grid.n_bins, softmax_ce_head, cfg)
    return replace(grid, params=params, scaler=scaler)
