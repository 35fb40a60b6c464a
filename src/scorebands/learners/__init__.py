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
from .histdensity import HistDensityModel, fit_hist_density
from .nets import Standardizer, TrainConfig
from .pointvar import PointVarModel, fit_point_var, fit_spread_head
from .quantile import QuantileModel, fit_quantile_model

__all__ = [
    "BoostedModel",
    "HistDensityModel",
    "PointVarModel",
    "QuantileModel",
    "Standardizer",
    "TrainConfig",
    "absolute_gradient",
    "absolute_loss",
    "fit_boosted",
    "fit_grid_classifier",
    "fit_hist_density",
    "fit_point_var",
    "fit_spread_head",
    "fit_quantile_model",
    "pinball_gradient",
    "pinball_loss",
]
