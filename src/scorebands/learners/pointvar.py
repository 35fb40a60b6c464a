"""Point regressor with an optional local-spread head.

The mean head minimizes squared error. The spread head is fit afterwards to
the absolute residuals of the frozen mean head and is floored at a small
positive value so it can safely normalize nonconformity scores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nets import MLPParams, Standardizer, TrainConfig, fit_mlp, forward, squared_head


@dataclass(frozen=True)
class PointVarModel:
    mean_params: MLPParams
    scaler: Standardizer
    sigma_params: MLPParams | None = None
    sigma_floor: float = 1e-3

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        _, out = forward(self.mean_params, self.scaler.transform(X))
        return out[:, 0]

    def predict_sigma(self, X: np.ndarray) -> np.ndarray:
        if self.sigma_params is None:
            raise ValueError("model was fitted without a spread head")
        _, out = forward(self.sigma_params, self.scaler.transform(X))
        return np.maximum(out[:, 0], self.sigma_floor)


def fit_point_var(
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    sigma_floor: float = 1e-3,
) -> PointVarModel:
    """The mean head alone; `fit_spread_head` adds the spread head."""
    scaler = Standardizer.fit(X)
    return PointVarModel(
        mean_params=fit_mlp(scaler.transform(X), y, 1, squared_head, cfg),
        scaler=scaler,
        sigma_floor=sigma_floor,
    )


def fit_spread_head(
    model: PointVarModel, X: np.ndarray, abs_resid: np.ndarray, cfg: TrainConfig
) -> PointVarModel:
    """`model` with a spread head fit to `abs_resid`, the absolute residuals
    of its mean head on X.

    `X` must be the mean head's training set. The mean head is kept as it
    is, so a mean-only model already fit gains a spread head without being
    trained again.
    """
    sigma_params = fit_mlp(model.scaler.transform(X), abs_resid, 1, squared_head, cfg)
    return replace(model, sigma_params=sigma_params)
