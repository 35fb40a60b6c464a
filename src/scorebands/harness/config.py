"""Experiment configuration: defaults give the standard evaluation protocol
(alpha 0.10, seeds 0..9, 50/50 calibration/test split, all nine methods)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..conformal import METHOD_NAMES, MethodConfig
from ..core import DataError, RatingScale
from ..learners import GridConfig, TrainConfig


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
        tr = mc.train
        return {
            "alpha": self.alpha,
            "seeds": list(self.seeds),
            "cal_fraction": self.cal_fraction,
            "methods": list(self.methods),
            "mondrian": self.mondrian,
            "adjust": self.adjust,
            "k_max": self.scale.k_max,
            "epochs": tr.epochs,
            "batch_size": tr.batch_size,
            "learning_rate": tr.learning_rate,
            "train_seed": tr.seed,
            "hidden": list(tr.hidden),
            "grid_lo": mc.grid.lo,
            "grid_hi": mc.grid.hi,
            "grid_resolution": mc.grid.resolution,
            "grid_points": mc.grid.n_points,
            "chr_bins": mc.chr_bins,
            "boost_rounds": mc.boost_rounds,
            "boost_depth": mc.boost_depth,
            "boost_rate": mc.boost_rate,
            "sigma_floor": mc.sigma_floor,
            "point_predictor": mc.point_predictor,
            "input": self.input_path,
            "out": self.out_dir,
            "emit_intervals": self.emit_intervals,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        base = cls()
        known = set(base.to_dict())
        unknown = set(data) - known
        if unknown:
            raise DataError(f"unknown config fields: {sorted(unknown)}")
        merged = base.to_dict()
        merged.update({k: v for k, v in data.items() if v is not None})
        train = TrainConfig(
            epochs=int(merged["epochs"]),
            batch_size=int(merged["batch_size"]),
            learning_rate=float(merged["learning_rate"]),
            seed=int(merged["train_seed"]),
            hidden=tuple(int(h) for h in merged["hidden"]),
        )
        grid = GridConfig(
            lo=float(merged["grid_lo"]),
            hi=float(merged["grid_hi"]),
            resolution=float(merged["grid_resolution"]),
            n_points=int(merged["grid_points"]),
        )
        method_config = MethodConfig(
            train=train,
            grid=grid,
            chr_bins=int(merged["chr_bins"]),
            boost_rounds=int(merged["boost_rounds"]),
            boost_depth=int(merged["boost_depth"]),
            boost_rate=float(merged["boost_rate"]),
            sigma_floor=float(merged["sigma_floor"]),
            point_predictor=str(merged["point_predictor"]),
        )
        return cls(
            alpha=float(merged["alpha"]),
            seeds=tuple(int(s) for s in merged["seeds"]),
            cal_fraction=float(merged["cal_fraction"]),
            methods=tuple(merged["methods"]),
            mondrian=merged["mondrian"],
            adjust=str(merged["adjust"]),
            scale=RatingScale(k_max=int(merged["k_max"])),
            method_config=method_config,
            input_path=merged["input"],
            out_dir=merged["out"],
            emit_intervals=bool(merged["emit_intervals"]),
        )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        data = self.to_dict()
        for key, value in overrides.items():
            if value is not None:
                if key not in data:
                    raise DataError(f"unknown config field {key!r}")
                data[key] = value
        return ExperimentConfig.from_dict(data)
