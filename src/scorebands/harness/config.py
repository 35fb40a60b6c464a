"""Experiment configuration: defaults give the standard evaluation protocol
(alpha 0.10, seeds 0..9, 50/50 calibration/test split, all nine methods)."""

from __future__ import annotations

import math
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
        for name, values in (("methods", self.methods), ("seeds", self.seeds)):
            repeated = {v for v in values if values.count(v) > 1}
            if repeated:
                raise DataError(f"{name} named more than once: {sorted(repeated)}")
        if any(seed < 0 for seed in self.seeds):
            raise DataError(f"seeds must be non-negative, got {list(self.seeds)}")

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
                kwargs[record][attr] = convert(merged[key])
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


def _int(value) -> int:
    """A JSON integer, or a float with no fraction; a bool is neither."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _ints(values) -> tuple[int, ...]:
    if isinstance(values, str):
        raise TypeError(f"expected a list of integers, got {values!r}")
    return tuple(_int(v) for v in values)


def _strs(values) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"expected a list of strings, got {values!r}")
    return tuple(values)


def _nonempty(convert):
    """``convert``, refusing an empty list: a run needs a seed and a method."""
    def read(values):
        out = convert(values)
        if not out:
            raise ValueError("expected at least one entry, got []")
        return out
    return read


def _within(convert, low, high=math.inf):
    """``convert``, refusing a value (each entry of a list) outside [low, high]."""
    def read(value):
        out = convert(value)
        if not all(low <= v <= high for v in (out if isinstance(out, tuple) else (out,))):
            raise ValueError(f"expected values in [{low}, {high}], got {value!r}")
        return out
    return read


def _positive(value) -> float:
    out = _float(value)
    if not 0.0 < out < math.inf:
        raise ValueError(f"expected a finite number above 0, got {value!r}")
    return out


def _str_or_none(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string or null, got {value!r}")
    return value


# Each config key, once: the record that holds it (the ExperimentConfig, its
# RatingScale, its MethodConfig or that one's TrainConfig), its attribute
# there, and the conversion of a JSON value. A conversion takes only the
# JSON type the field means, so that a bool or a fraction is never read as
# an integer and a number never as a path.
FIELDS = {
    "alpha": ("config", "alpha", _float),
    "seeds": ("config", "seeds", _nonempty(_ints)),
    "cal_fraction": ("config", "cal_fraction", _float),
    "methods": ("config", "methods", _nonempty(_strs)),
    "mondrian": ("config", "mondrian", _str_or_none),
    "adjust": ("config", "adjust", str),
    "k_max": ("scale", "k_max", _int),
    "epochs": ("train", "epochs", _within(_int, 0)),
    "batch_size": ("train", "batch_size", _within(_int, 1)),
    "learning_rate": ("train", "learning_rate", _positive),
    "train_seed": ("train", "seed", _within(_int, 0)),
    "hidden": ("train", "hidden", _within(_ints, 1)),
    "boost_rounds": ("method", "boost_rounds", _within(_int, 0)),
    "boost_depth": ("method", "boost_depth", _within(_int, 0, 3)),
    "boost_rate": ("method", "boost_rate", _positive),
    "sigma_floor": ("method", "sigma_floor", _positive),
    "point_predictor": ("method", "point_predictor", str),
    "input": ("config", "input_path", _str_or_none),
    "out": ("config", "out_dir", _str_or_none),
    "emit_intervals": ("config", "emit_intervals", _bool),
}
