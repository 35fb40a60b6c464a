"""The mean network, which carries the label logits too: one fit gives the
mean of every mean-based method, the label probabilities of every
label-based one and lvd's spread (`label_spread`), with no spread network.
"""

from __future__ import annotations

import numpy as np

from .histdensity import label_columns
from .nets import Net, Standardizer, TrainConfig, fit_mlp, forward, log_softmax, mean_label_head


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


def label_spread(out: np.ndarray) -> np.ndarray:
    """Per row of the mean network's output ``out``, the mean absolute
    deviation of its label distribution around its mean output:
    sum_k p_k |k - mu|, where mu is column 0 and p the softmax of the label
    logits in columns 1..K."""
    labels = np.arange(1.0, out.shape[1])
    probs = np.exp(log_softmax(out[:, 1:]))
    return (probs * np.abs(labels - out[:, :1])).sum(axis=1)
