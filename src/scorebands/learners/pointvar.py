"""Mean and spread networks.

The mean network carries the label logits too: one fit gives the mean of
every mean-based method and the label probabilities of every label-based
one. The spread network is fit afterwards to the absolute residuals of the
frozen mean, behind the same scaler.
"""

from __future__ import annotations

import numpy as np

from .histdensity import label_columns
from .nets import (Net, Standardizer, TrainConfig, fit_mlp, forward, mean_label_head,
                   squared_head)


def fit_point_var(X: np.ndarray, y: np.ndarray, k_max: int, cfg: TrainConfig) -> Net:
    """The mean network: output 0 is the mean, fit to y by squared error;
    outputs 1..k_max are the logits of labels 1..k_max, cross-entropy fit,
    so their log-softmax is the log-probability of each label. A label
    outside 1..k_max raises ValueError.

    After SGD the mean output's bias is shifted by its mean residual on X,
    which is that bias's least-squares value given the other weights.
    """
    label_columns(y, k_max)
    scaler = Standardizer.fit(X)
    Z = scaler.transform(X)
    params = fit_mlp(Z, y, 1 + k_max, mean_label_head, cfg)
    params[-1][1][0] += np.mean(y - forward(params, Z)[1][:, 0])
    return Net(params, scaler)


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
