"""Mean and spread networks.

The mean network minimizes squared error. The spread network is fit
afterwards to the absolute residuals of the frozen mean network, behind the
same scaler.
"""

from __future__ import annotations

import numpy as np

from .nets import Net, Standardizer, TrainConfig, fit_mlp, squared_head


def fit_point_var(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> Net:
    """The mean network: one output, fit to y by squared error."""
    scaler = Standardizer.fit(X)
    return Net(fit_mlp(scaler.transform(X), y, 1, squared_head, cfg), scaler)


def fit_spread_head(
    mean: Net, X: np.ndarray, abs_resid: np.ndarray, cfg: TrainConfig
) -> Net:
    """The spread network: one output, fit to `abs_resid`, the absolute
    residuals of the mean network `mean` on X.

    `X` must be the mean network's training set: the spread network reads
    it through the mean network's scaler.
    """
    return Net(fit_mlp(mean.scaler.transform(X), abs_resid, 1, squared_head, cfg),
               mean.scaler)
