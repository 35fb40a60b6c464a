"""Experiment configuration: defaults give the standard evaluation protocol
(alpha 0.10, seeds 0..9, 50/50 calibration/test split, all nine methods)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..conformal import METHOD_NAMES, MethodConfig
from ..core import DataError, RatingScale
from ..learners import TrainConfig


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 0.10
    seeds: tuple[int, ...] = tuple(range(10))
    cal_fraction: float = 0.5
    methods: tuple[str, ...] = METHOD_NAMES
    mondrian: str | None = None  # builtin partition name or JSON file path
    adjust: str = "outward"  # outward | inward | off
    scale: RatingScale = field(default_factory=RatingScale)
    method_config: MethodConfig = field(default_factory=MethodConfig)
    input_path: str | None = None
    out_dir: str | None = None
    emit_intervals: bool = False  # keep per-sample interval lines in the report

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.adjust not in ("outward", "inward", "off"):
            raise DataError(f"adjust must be outward/inward/off, got {self.adjust!r}")
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise DataError(f"unknown methods: {sorted(unknown)}")
        repeated = {m for m in self.methods if self.methods.count(m) > 1}
        if repeated:
            raise DataError(f"methods named more than once: {sorted(repeated)}")

    def to_dict(self) -> dict:
        mc = self.method_config
        records = {"config": self, "scale": self.scale, "method": mc, "train": mc.train}
        out = {}
        for key, (record, attr, _) in FIELDS.items():
            value = getattr(records[record], attr)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """The config with ``data``'s non-None fields over the defaults; a
        field of the wrong type or out of range is a DataError naming it."""
        if not isinstance(data, dict):
            raise DataError("config is not a JSON object")
        unknown = set(data) - set(FIELDS)
        if unknown:
            raise DataError(f"unknown config fields: {sorted(unknown)}")
        merged = cls().to_dict()
        merged.update((k, v) for k, v in data.items() if v is not None)
        kwargs: dict[str, dict] = {"config": {}, "scale": {}, "method": {}, "train": {}}
        for key, (record, attr, convert) in FIELDS.items():
            try:
                kwargs[record][attr] = convert(merged[key]) if convert else merged[key]
            except (TypeError, ValueError) as exc:
                raise DataError(f"config field {key!r}: {exc}") from None
        try:
            scale = RatingScale(**kwargs["scale"])
        except ValueError as exc:
            raise DataError(f"config field 'k_max': {exc}") from None
        train = TrainConfig(**kwargs["train"])
        method_config = MethodConfig(train=train, **kwargs["method"])
        return cls(scale=scale, method_config=method_config, **kwargs["config"])


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _ints(values) -> tuple[int, ...]:
    if isinstance(values, str):
        raise TypeError(f"expected a list of integers, got {values!r}")
    return tuple(int(v) for v in values)


# Each config key, once: the record that holds it (the ExperimentConfig, its
# RatingScale, its MethodConfig or that one's TrainConfig), its attribute
# there, and the conversion of a JSON value (None keeps the value as it is).
FIELDS = {
    "alpha": ("config", "alpha", float),
    "seeds": ("config", "seeds", _ints),
    "cal_fraction": ("config", "cal_fraction", float),
    "methods": ("config", "methods", tuple),
    "mondrian": ("config", "mondrian", None),
    "adjust": ("config", "adjust", str),
    "k_max": ("scale", "k_max", int),
    "epochs": ("train", "epochs", int),
    "batch_size": ("train", "batch_size", int),
    "learning_rate": ("train", "learning_rate", float),
    "train_seed": ("train", "seed", int),
    "hidden": ("train", "hidden", _ints),
    "chr_bins": ("method", "chr_bins", int),
    "boost_rounds": ("method", "boost_rounds", int),
    "boost_depth": ("method", "boost_depth", int),
    "boost_rate": ("method", "boost_rate", float),
    "sigma_floor": ("method", "sigma_floor", float),
    "point_predictor": ("method", "point_predictor", str),
    "input": ("config", "input_path", None),
    "out": ("config", "out_dir", None),
    "emit_intervals": ("config", "emit_intervals", _bool),
}
