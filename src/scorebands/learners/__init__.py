"""Trainable regression backends consumed by the conformal constructors."""

from .boosted import (
    BoostedModel,
    absolute_gradient,
    absolute_loss,
    fit_boosted,
    pinball_gradient,
    pinball_loss,
)
from .grid import fit_grid_classifier
from .histdensity import fit_hist_density, label_columns
from .nets import Net, Standardizer, TrainConfig
from .pointvar import fit_point_var, label_spread
from .quantile import fit_quantile_model

__all__ = [
    "BoostedModel",
    "Net",
    "Standardizer",
    "TrainConfig",
    "absolute_gradient",
    "absolute_loss",
    "fit_boosted",
    "fit_grid_classifier",
    "fit_hist_density",
    "fit_point_var",
    "fit_quantile_model",
    "label_columns",
    "label_spread",
    "pinball_gradient",
    "pinball_loss",
]
