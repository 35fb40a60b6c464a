"""The label network: a softmax over the K labels of the rating scale, the
conditional histogram of Sesia & Romano (2021) with one bin per label.
No method fits it: the mean network carries the same K logits beside the
mean (`pointvar.fit_point_var`); the benchmark's tracer still wraps it."""

from __future__ import annotations

import numpy as np

from .nets import Net, Standardizer, TrainConfig, fit_mlp, softmax_ce_head


def label_columns(y, k_max: int) -> np.ndarray:
    """The label network's column of each label: y - 1 for y in 1..k_max.

    Any other value, a fraction included, raises ValueError.
    """
    y = np.asarray(y, dtype=np.float64)
    bad = ~np.isin(y, np.arange(1, k_max + 1))
    if bad.any():
        raise ValueError(f"label {float(y[bad][0]):g} is not one of 1..{k_max}")
    return y.astype(np.intp) - 1


def fit_hist_density(
    X: np.ndarray, y: np.ndarray, k_max: int, cfg: TrainConfig
) -> Net:
    """A network with one output per label, cross-entropy fit with label y
    at column y - 1: its log-softmax is the log-probability of each label."""
    if k_max < 2:
        raise ValueError(f"need at least 2 labels, got {k_max}")
    scaler = Standardizer.fit(X)
    targets = label_columns(y, k_max)
    return Net(fit_mlp(scaler.transform(X), targets, k_max, softmax_ce_head, cfg), scaler)
