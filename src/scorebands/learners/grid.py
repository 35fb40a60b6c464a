"""Grid-softmax conditional density: regression recast as classification
(Guha et al. 2024).

The grid is a label histogram with eight cells per label: 8K + 1 cells of
width 1/8 over [0.4375, K + 0.5625], whose centres run from 0.5 to K + 0.5
in steps of 1/8, so label y is the centre of cell 8(y - 1) + 4. A small
network maps the feature vector to a softmax over the cells; the negative
log mass of a label's cell serves as a density nonconformity score.
No method calls it (integer labels only ever target K of its cells, so
r2ccp reads the label network); the benchmark's tracer still wraps it.
"""

from __future__ import annotations

import numpy as np

from .histdensity import label_columns
from .nets import Net, Standardizer, TrainConfig, fit_mlp, softmax_ce_head


def fit_grid_classifier(
    X: np.ndarray, y: np.ndarray, k_max: int, cfg: TrainConfig
) -> Net:
    """Cross-entropy fit against each label's grid cell."""
    scaler = Standardizer.fit(X)
    targets = 8 * label_columns(y, k_max) + 4
    return Net(fit_mlp(scaler.transform(X), targets, 8 * k_max + 1, softmax_ce_head, cfg),
               scaler)
