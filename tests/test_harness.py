"""Harness tests: ingestion, synthetic oracles, fusion, experiment runs,
and report emission."""

import json
import math
import os

import numpy as np
import pytest

from scorebands.core import DataError, FeatureVector, LabeledSample, RatingScale
from scorebands.harness import (
    ExperimentConfig,
    ExperimentReport,
    SyntheticSpec,
    emit_report,
    fuse,
    generate_synthetic,
    load_samples,
    resolve_partition,
    run_experiment,
    write_samples,
)
from scorebands.harness.report import _write_csv  # noqa: F401  (smoke import)

SCALE = RatingScale()

FAST_RUN = {
    "epochs": 40,
    "batch_size": 256,
    "learning_rate": 0.1,
    "boost_rounds": 25,
}


def fast_config(**kwargs):
    data = dict(FAST_RUN)
    data.update(kwargs)
    return ExperimentConfig.from_dict(data)


def sample_line(i, gt=3, judge="j1", dataset="d", lp=None, group=None):
    obj = {
        "sample_id": f"s{i}",
        "judge": judge,
        "dataset": dataset,
        "gt_score": gt,
        "logprobs": lp or {"1": -5.0, "2": -4.0, "3": -0.5, "4": -2.0, "5": -6.0},
    }
    if group is not None:
        obj["group"] = group
    return obj


class TestLoadSamples:
    def _write(self, path, objs_or_lines):
        with open(path, "w", encoding="utf-8") as fh:
            for item in objs_or_lines:
                fh.write(item if isinstance(item, str) else json.dumps(item))
                fh.write("\n")

    def test_well_formed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [sample_line(i) for i in range(3)])
        samples, errors = load_samples(path)
        assert len(samples) == 3 and not errors
        assert samples[0].features.values == (-5.0, -4.0, -0.5, -2.0, -6.0)

    def test_missing_gt_collected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        bad = sample_line(9)
        del bad["gt_score"]
        self._write(path, [sample_line(0), bad, sample_line(1)])
        samples, errors = load_samples(path)
        assert len(samples) == 2
        assert len(errors) == 1
        assert errors[0][0] == 2  # line number

    def test_positive_logprob_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        bad = sample_line(9, lp={"1": -5.0, "2": 0.5, "3": -0.5, "4": -2.0,
                                 "5": -6.0})
        self._write(path, [sample_line(0), bad])
        samples, errors = load_samples(path)
        assert len(samples) == 1
        assert "<= 0" in errors[0][1]

    def test_all_malformed_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, ["{broken", "{}"])
        with pytest.raises(DataError):
            load_samples(path)

    def test_gt_out_of_range(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [sample_line(0, gt=6), sample_line(1)])
        samples, errors = load_samples(path)
        assert len(samples) == 1 and len(errors) == 1

    def test_features_list_form(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obj = sample_line(0)
        del obj["logprobs"]
        obj["features"] = [-1.0] * 10  # fused two-judge vector
        self._write(path, [obj])
        samples, _ = load_samples(path)
        assert len(samples[0].features) == 10

    def test_group_passthrough(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [sample_line(0, group="easy")])
        samples, _ = load_samples(path)
        assert samples[0].group_tag == "easy"

    def test_write_read_round_trip(self, tmp_path):
        spec = SyntheticSpec(n=20, seed=1, generator="heteroscedastic_groups")
        samples, _ = generate_synthetic(spec)
        path = tmp_path / "rt.jsonl"
        write_samples(samples, path, SCALE)
        loaded, errors = load_samples(path)
        assert not errors
        assert [s.sample_id for s in loaded] == [s.sample_id for s in samples]
        assert all(
            a.features.values == b.features.values
            and a.gt_score == b.gt_score
            and a.group_tag == b.group_tag
            for a, b in zip(loaded, samples)
        )


class TestSyntheticGenerators:
    def test_noiseless_limit(self):
        # Sharpness -> infinity and no label noise: features pin the label.
        from scorebands.conformal import MethodConfig, run_method
        from scorebands.core import gt_array, make_split
        from scorebands.learners import TrainConfig
        from scorebands.metrics import coverage

        spec = SyntheticSpec(
            n=1200, seed=2, temperature=1e-9, label_noise=0.0, logit_noise=0.0
        )
        samples, oracle = generate_synthetic(spec)
        assert np.all(oracle.interval_mass == 1.0)
        plan = make_split(len(samples), 0.5, 0)
        cal = [samples[i] for i in plan.cal_indices]
        test = [samples[i] for i in plan.test_indices]
        cfg = MethodConfig(
            train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1)
        )
        res = run_method("naive_split", cal, test, 0.1, SCALE, cfg)
        gts = gt_array(test)
        assert coverage(res.intervals, gts) >= 0.99
        assert np.mean([iv.width for iv in res.intervals]) < 0.5

    def test_default_label_noise_coverage_band(self):
        """Generator at its default settings (label_noise 0.2, temperature 1):
        split CP lands in the Monte-Carlo coverage band over 10 seeds."""
        from scorebands.conformal import MethodConfig, run_method
        from scorebands.core import gt_array, make_split
        from scorebands.learners import TrainConfig
        from scorebands.metrics import coverage

        cfg = MethodConfig(
            train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1)
        )
        covs = []
        for seed in range(10):
            samples, _ = generate_synthetic(
                SyntheticSpec(n=4000, seed=300 + seed, label_noise=0.2,
                              temperature=1.0)
            )
            plan = make_split(4000, 0.5, seed)
            cal = [samples[i] for i in plan.cal_indices]
            test = [samples[i] for i in plan.test_indices]
            res = run_method("naive_split", cal, test, 0.1, SCALE, cfg)
            covs.append(coverage(res.intervals, gt_array(test)))
        assert 0.88 <= float(np.mean(covs)) <= 0.92

    @pytest.mark.parametrize(
        "generator", ["peaked_logprob", "homoscedastic", "heteroscedastic_groups"]
    )
    def test_oracle_self_consistency(self, generator):
        spec = SyntheticSpec(n=4000, seed=3, generator=generator,
                             label_noise=0.35)
        samples, oracle = generate_synthetic(spec)
        if oracle.y_cont is not None:
            targets = oracle.y_cont
        else:
            targets = np.array([s.gt_score for s in samples], dtype=float)
        emp = oracle.empirical_coverage(targets)
        mass = oracle.interval_mass
        se = math.sqrt(float((mass * (1 - mass)).sum())) / len(mass)
        assert abs(emp - float(mass.mean())) <= 2 * se + 1e-9

    def test_heteroscedastic_closed_form_ratio(self):
        spec = SyntheticSpec(
            n=2000, seed=4, generator="heteroscedastic_groups", sigma=0.3,
            sigma_ratio=3.0,
        )
        samples, oracle = generate_synthetic(spec)
        widths = oracle.upper - oracle.lower
        groups = np.array([s.group_tag for s in samples])
        w_low = widths[groups == "low"].mean()
        w_high = widths[groups == "high"].mean()
        assert w_high / w_low == pytest.approx(3.0, abs=1e-12)
        assert np.all(oracle.sigma[groups == "high"] == 0.3 * 3.0)

    def test_feature_dim_blocks(self):
        spec = SyntheticSpec(n=10, seed=5, feature_dim=15)
        samples, _ = generate_synthetic(spec)
        assert len(samples[0].features) == 15

    def test_invalid_specs(self):
        with pytest.raises(DataError):
            SyntheticSpec(n=10, generator="unknown")
        with pytest.raises(DataError):
            SyntheticSpec(n=0)
        with pytest.raises(DataError):
            SyntheticSpec(n=10, feature_dim=7)
        with pytest.raises(DataError):
            SyntheticSpec(n=10, label_noise=1.5)

    def test_features_are_valid_logprobs(self):
        for generator in ("peaked_logprob", "homoscedastic",
                          "heteroscedastic_groups"):
            samples, _ = generate_synthetic(
                SyntheticSpec(n=50, seed=6, generator=generator)
            )
            for s in samples:
                assert all(v <= 0 and math.isfinite(v) for v in s.features.values)

    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec(n=30, seed=7))
        b, _ = generate_synthetic(SyntheticSpec(n=30, seed=7))
        assert all(
            x.features.values == y.features.values and x.gt_score == y.gt_score
            for x, y in zip(a, b)
        )


class TestFuse:
    def _samples(self, judge, ids, gt=None, dim=5):
        return [
            LabeledSample(
                features=FeatureVector(tuple([-float(k + 1)] * dim)),
                gt_score=gt or 3,
                dataset_tag="d",
                judge_tag=judge,
                sample_id=sid,
            )
            for k, sid in enumerate(ids)
        ]

    def test_three_judges_give_15_features(self):
        by_judge = {
            j: self._samples(j, ["a", "b"]) for j in ("j1", "j2", "j3")
        }
        fused, dropped = fuse(by_judge, ["j1", "j2", "j3"])
        assert len(fused) == 2
        assert len(fused[0].features) == 15
        assert not dropped
        assert fused[0].judge_tag == "j1+j2+j3"

    def test_single_judge_identity(self):
        samples = self._samples("j1", ["a", "b", "c"])
        fused, dropped = fuse({"j1": samples})
        assert [f.features.values for f in fused] == [
            s.features.values for s in samples
        ]
        assert not dropped

    def test_missing_id_dropped_and_counted(self):
        by_judge = {
            "j1": self._samples("j1", ["a", "b", "c"]),
            "j2": self._samples("j2", ["a", "c"]),
        }
        fused, dropped = fuse(by_judge, ["j1", "j2"])
        assert [f.sample_id for f in fused] == ["a", "c"]
        assert dropped == ["b"]

    def test_gt_mismatch_rejected_with_id(self):
        j1 = self._samples("j1", ["a"], gt=3)
        j2 = self._samples("j2", ["a"], gt=4)
        with pytest.raises(DataError, match="'a'"):
            fuse({"j1": j1, "j2": j2}, ["j1", "j2"])

    def test_order_permutes_blocks(self):
        by_judge = {
            "j1": self._samples("j1", ["a"]),
            "j2": [
                LabeledSample(
                    features=FeatureVector((-9.0,) * 5),
                    gt_score=3,
                    dataset_tag="d",
                    judge_tag="j2",
                    sample_id="a",
                )
            ],
        }
        f12, _ = fuse(by_judge, ["j1", "j2"])
        f21, _ = fuse(by_judge, ["j2", "j1"])
        assert f12[0].features.values[:5] == f21[0].features.values[5:]
        assert f12[0].features.values[5:] == f21[0].features.values[:5]
        assert f12[0].gt_score == f21[0].gt_score

    def test_order_must_match_judges(self):
        with pytest.raises(DataError):
            fuse({"j1": self._samples("j1", ["a"])}, ["j1", "jX"])


class TestRunExperiment:
    def _samples(self, n=500, seed=0, **kwargs):
        samples, _ = generate_synthetic(
            SyntheticSpec(n=n, seed=seed, label_noise=0.35, **kwargs)
        )
        return samples

    def test_single_seed_single_method_shape(self):
        config = fast_config(seeds=[0], methods=["naive_split"])
        report = run_experiment(config, self._samples())
        assert len(report.per_seed) == 1
        row = report.per_seed[0]
        assert row["seed"] == 0 and row["method"] == "naive_split"
        assert row["n_cal"] == 250 and row["n_test"] == 250
        assert 0 <= row["coverage_raw"] <= 1
        assert row["coverage_adj"] >= row["coverage_raw"]
        assert len(report.aggregates) == 1
        assert report.aggregates[0]["n_seeds"] == 1
        assert report.aggregates[0]["coverage_raw_std"] == 0.0
        assert not report.errors

    def test_empty_methods_gives_empty_report(self):
        config = fast_config(seeds=[0, 1], methods=[])
        report = run_experiment(config, self._samples())
        assert report.per_seed == [] and report.aggregates == []

    def test_method_failure_recorded_run_continues(self):
        # Mondrian on groups far below the minimum calibration count: every
        # (seed, method) cell fails but the run itself completes.
        samples = self._samples(n=60, generator="heteroscedastic_groups")
        config = fast_config(
            seeds=[0, 1], methods=["naive_split"], mondrian="by_group_tag"
        )
        report = run_experiment(config, samples)
        assert report.per_seed == []
        assert len(report.errors) == 2
        assert all("below the minimum" in e["error"] for e in report.errors)
        assert all(e["error_type"] == "DataError" for e in report.errors)

    def test_invariant_error_propagates(self, monkeypatch):
        from scorebands.core import InvariantError
        from scorebands.harness import runner

        def broken(*args, **kwargs):
            raise InvariantError("interval has no adjusted endpoints")

        monkeypatch.setattr(runner, "run_method", broken)
        config = fast_config(seeds=[0], methods=["naive_split"])
        with pytest.raises(InvariantError):
            run_experiment(config, self._samples(n=100))

    def test_programming_error_propagates(self, monkeypatch):
        from scorebands.harness import runner

        def broken(*args, **kwargs):
            raise TypeError("unsupported operand type(s)")

        monkeypatch.setattr(runner, "run_method", broken)
        config = fast_config(seeds=[0], methods=["naive_split"])
        with pytest.raises(TypeError):
            run_experiment(config, self._samples(n=100))

    def test_learner_value_error_recorded(self, monkeypatch):
        from scorebands.harness import runner

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(runner, "run_method", singular)
        config = fast_config(seeds=[0], methods=["naive_split"])
        report = run_experiment(config, self._samples(n=100))
        assert [e["error_type"] for e in report.errors] == ["LinAlgError"]

    def test_duplicate_sample_id_rejected(self):
        samples = self._samples(n=100)
        samples.insert(40, samples[7])
        with pytest.raises(DataError, match="duplicate sample_id 's000007'"):
            run_experiment(fast_config(seeds=[0]), samples)

    def test_adjust_off_drops_adjusted_columns(self):
        config = fast_config(seeds=[0], methods=["naive_split"], adjust="off")
        report = run_experiment(config, self._samples())
        row = report.per_seed[0]
        assert row["coverage_adj"] is None
        assert row["frac_decisive"] is None

    def test_stratified_and_dataset_rows(self):
        samples = self._samples(n=600, generator="heteroscedastic_groups")
        config = fast_config(seeds=[0], methods=["naive_split"])
        report = run_experiment(config, samples)
        kinds = {r["kind"] for r in report.stratified}
        assert kinds == {"gt_level", "error_bin", "dataset", "group"}
        datasets = {r["dataset"] for r in report.per_dataset}
        assert datasets == {"synthetic_low", "synthetic_high"}
        for r in report.per_dataset_agg:
            assert r["rsg_mean"] is None or -1.0 <= r["rsg_mean"] <= 1.0

    def test_interval_lines_emitted_on_request(self):
        samples = self._samples(n=200)
        config = fast_config(seeds=[0], methods=["naive_split"],
                             emit_intervals=True)
        report = run_experiment(config, samples)
        assert len(report.intervals) == 100  # one line per test sample
        line = report.intervals[0]
        assert set(line) == {
            "seed", "method", "sample_id", "lower", "upper", "adj_lower",
            "adj_upper", "y_hat", "covered_raw", "covered_adj",
        }
        assert line["covered_adj"] in (True, False)
        off = run_experiment(
            fast_config(seeds=[0], methods=["naive_split"]), samples
        )
        assert off.intervals == []

    def test_mondrian_partition_from_name(self):
        samples = self._samples(n=800, generator="heteroscedastic_groups")
        config = fast_config(
            seeds=[0], methods=["naive_split"], mondrian="by_group_tag"
        )
        report = run_experiment(config, samples)
        assert not report.errors
        assert len(report.per_seed) == 1

    def test_unknown_partition_rejected(self):
        config = fast_config(seeds=[0], mondrian="nope_not_real")
        with pytest.raises(DataError):
            run_experiment(config, self._samples())

    def test_inconsistent_feature_lengths_rejected(self):
        samples = self._samples(n=50)
        other, _ = generate_synthetic(SyntheticSpec(n=10, seed=1, feature_dim=10))
        with pytest.raises(DataError):
            run_experiment(fast_config(seeds=[0]), samples + other)


def _aggregate_reference(report, config):
    """The former aggregation: one list filter per group."""
    from scorebands.harness.runner import (
        DATASET_METRICS, SEED_METRICS, STRATUM_METRICS, _mean_std,
    )

    def summary(entry, rows, cols, with_std):
        entry["n_seeds"] = len(rows)
        for col in cols:
            mean, std = _mean_std([r[col] for r in rows])
            entry[f"{col}_mean"] = mean
            if with_std:
                entry[f"{col}_std"] = std
        return entry

    order = config.methods.index
    aggregates = []
    for method in config.methods:
        rows = [r for r in report.per_seed if r["method"] == method]
        if rows:
            aggregates.append(summary({"method": method}, rows, SEED_METRICS, True))
    per_dataset = []
    for m, d in sorted({(r["method"], r["dataset"]) for r in report.per_dataset},
                       key=lambda k: (order(k[0]), k[1])):
        rows = [r for r in report.per_dataset
                if r["method"] == m and r["dataset"] == d]
        per_dataset.append(
            summary({"method": m, "dataset": d}, rows, DATASET_METRICS, True)
        )
    strata = []
    for m, k, st in sorted(
        {(r["method"], r["kind"], r["stratum"]) for r in report.stratified},
        key=lambda key: (order(key[0]), key[1], key[2]),
    ):
        rows = [r for r in report.stratified
                if r["method"] == m and r["kind"] == k and r["stratum"] == st]
        strata.append(
            summary({"method": m, "kind": k, "stratum": st}, rows,
                    STRATUM_METRICS, False)
        )
    return aggregates, per_dataset, strata


class TestAggregate:
    def test_matches_filter_reference(self):
        from scorebands.harness.runner import (
            DATASET_METRICS, SEED_METRICS, STRATUM_METRICS, _aggregate,
        )

        rng = np.random.default_rng(0)
        config = fast_config(methods=["r2ccp", "naive_split", "cqr"])

        def value():
            return None if rng.random() < 0.1 else float(rng.normal())

        report = ExperimentReport(config=config.to_dict())
        for seed in range(4):
            for method in config.methods:
                if seed == 2 and method == "cqr":
                    continue  # a failed cell leaves no rows
                report.per_seed.append(
                    dict(seed=seed, method=method,
                         **{c: value() for c in SEED_METRICS})
                )
                for dataset in rng.permutation(["b", "a", "c"])[: 2 + seed % 2]:
                    report.per_dataset.append(
                        dict(seed=seed, method=method, dataset=str(dataset),
                             **{c: value() for c in DATASET_METRICS})
                    )
                for kind in ("group", "dataset"):
                    for stratum in ("2", "10", "1"):
                        report.stratified.append(
                            dict(seed=seed, method=method, kind=kind,
                                 stratum=stratum,
                                 **{c: value() for c in STRATUM_METRICS})
                        )
        want = _aggregate_reference(report, config)
        _aggregate(report, config)
        got = (report.aggregates, report.per_dataset_agg, report.stratified)
        assert json.dumps(got) == json.dumps(want)


class TestEmitReport:
    def _report(self, tmp_path, seeds=(0, 1), methods=("naive_split", "r2ccp")):
        samples, _ = generate_synthetic(
            SyntheticSpec(n=400, seed=8, label_noise=0.35)
        )
        config = fast_config(seeds=list(seeds), methods=list(methods))
        return run_experiment(config, samples)

    def test_files_written(self, tmp_path):
        report = self._report(tmp_path)
        paths = emit_report(report, tmp_path / "out")
        for kind in ("per_seed", "aggregate", "per_dataset", "stratified",
                     "summary", "report"):
            assert os.path.exists(paths[kind])

    def test_reemission_byte_identical(self, tmp_path):
        report = self._report(tmp_path)
        p1 = emit_report(report, tmp_path / "a")
        p2 = emit_report(report, tmp_path / "b")
        for kind in p1:
            with open(p1[kind], "rb") as f1, open(p2[kind], "rb") as f2:
                assert f1.read() == f2.read(), kind

    def test_aggregate_mean_recomputable_from_per_seed_csv(self, tmp_path):
        import csv

        report = self._report(tmp_path, seeds=(0, 1, 2))
        paths = emit_report(report, tmp_path / "out")
        with open(paths["per_seed"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(paths["aggregate"], newline="") as fh:
            aggs = {r["method"]: r for r in csv.DictReader(fh)}
        for method in ("naive_split", "r2ccp"):
            vals = [
                float(r["coverage_raw"]) for r in rows if r["method"] == method
            ]
            assert abs(
                float(aggs[method]["coverage_raw_mean"]) - np.mean(vals)
            ) <= 1e-12

    def test_empty_report_header_only(self, tmp_path):
        config = fast_config(seeds=[0], methods=[])
        samples, _ = generate_synthetic(SyntheticSpec(n=100, seed=9))
        report = run_experiment(config, samples)
        paths = emit_report(report, tmp_path / "out")
        lines = open(paths["per_seed"]).read().splitlines()
        assert len(lines) == 1  # header only

    def test_unwritable_path_rejected(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        report = self._report(tmp_path, seeds=(0,), methods=("naive_split",))
        with pytest.raises(DataError):
            emit_report(report, blocker / "sub")

    def test_round_trip_through_json(self, tmp_path):
        report = self._report(tmp_path, seeds=(0,), methods=("naive_split",))
        paths = emit_report(report, tmp_path / "one")
        with open(paths["report"], encoding="utf-8") as fh:
            loaded = ExperimentReport.from_dict(json.load(fh))
        paths2 = emit_report(loaded, tmp_path / "two")
        for kind in paths:
            assert open(paths[kind], "rb").read() == open(paths2[kind], "rb").read()

    def test_schema_version_checked(self):
        with pytest.raises(DataError):
            ExperimentReport.from_dict({"schema_version": "0"})


class TestExperimentConfig:
    def test_defaults_reproduce_protocol(self):
        config = ExperimentConfig()
        assert config.alpha == 0.10
        assert config.seeds == tuple(range(10))
        assert config.cal_fraction == 0.5
        assert len(config.methods) == 9

    def test_round_trip(self):
        config = fast_config(alpha=0.2, seeds=[1, 2], mondrian="by_group_tag")
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_fields_rejected(self):
        with pytest.raises(DataError):
            ExperimentConfig.from_dict({"not_a_field": 1})

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError):
            ExperimentConfig(methods=("nope",))

    def test_overrides(self):
        config = ExperimentConfig().with_overrides(alpha=0.2, epochs=10)
        assert config.alpha == 0.2
        assert config.method_config.train.epochs == 10


class TestResolvePartition:
    def test_builtin(self):
        part = resolve_partition("mllm_difficulty")
        assert part is not None and len(part.group_of) == 14

    def test_none(self):
        assert resolve_partition(None) is None

    def test_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "mine", "groups": {"d": "g"}}))
        part = resolve_partition(str(path))
        assert part.name == "mine" and part.group_of == {"d": "g"}

    def test_unknown(self):
        with pytest.raises(DataError):
            resolve_partition("missing_partition")


class TestCellFailures:
    """A failed cell leaves one ledger row and none of its report rows."""

    def _samples(self, n=400, **kwargs):
        samples, _ = generate_synthetic(SyntheticSpec(n=n, seed=0, **kwargs))
        return samples

    @staticmethod
    def _no_rows(report):
        return not (report.per_seed or report.per_dataset or report.stratified
                    or report.intervals)

    @pytest.mark.parametrize("adjust", ["off", "outward"])
    def test_non_finite_learner_output(self, adjust):
        import warnings

        config = fast_config(seeds=[0], methods=["naive_split"], adjust=adjust,
                             learning_rate=1e150, emit_intervals=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = run_experiment(config, self._samples(label_noise=0.35))
        assert self._no_rows(report)
        assert [(e["seed"], e["method"]) for e in report.errors] == [(0, "naive_split")]
        assert report.errors[0]["error_type"] in ("DataError", "ValueError")

    @pytest.mark.parametrize("adjust", ["off", "outward"])
    def test_infinite_prediction(self, adjust, monkeypatch):
        from scorebands.conformal import MethodResult
        from scorebands.harness import runner

        original = runner.run_method

        def overflowing(*args, **kwargs):
            res = original(*args, **kwargs)
            return MethodResult(res.method, res.intervals,
                                np.full_like(res.y_hat, np.inf), res.calibration)

        monkeypatch.setattr(runner, "run_method", overflowing)
        config = fast_config(seeds=[0], methods=["naive_split"], adjust=adjust)
        report = run_experiment(config, self._samples(n=200))
        assert self._no_rows(report)
        assert [e["error_type"] for e in report.errors] == ["ValueError"]
        assert "non-finite point prediction" in report.errors[0]["error"]

    def test_late_failure_leaves_no_partial_rows(self, monkeypatch):
        from scorebands.harness import runner

        def failing(*args, **kwargs):
            raise DataError("stratum failed")

        monkeypatch.setattr(runner, "stratified", failing)
        config = fast_config(seeds=[0, 1], methods=["naive_split"], emit_intervals=True)
        report = run_experiment(config, self._samples(n=200))
        assert self._no_rows(report)
        assert [(e["seed"], e["method"]) for e in report.errors] == [
            (0, "naive_split"), (1, "naive_split")
        ]

    def _missing_group_at(self, side):
        import dataclasses

        from scorebands.core import make_split

        samples = self._samples(generator="heteroscedastic_groups")
        plan = make_split(len(samples), 0.5, 0)
        i = (plan.test_indices if side == "test" else plan.cal_indices)[0]
        samples[i] = dataclasses.replace(samples[i], group_tag=None)
        config = fast_config(seeds=[0], methods=["naive_split", "lvd"],
                             mondrian="by_group_tag")
        return run_experiment(config, samples), samples[i].sample_id

    def test_missing_group_in_test_set(self):
        report, sample_id = self._missing_group_at("test")
        assert self._no_rows(report)
        assert [(e["seed"], e["method"]) for e in report.errors] == [(0, "*")]
        assert sample_id in report.errors[0]["error"]

    def test_missing_group_in_calibration_set(self):
        report, sample_id = self._missing_group_at("cal")
        assert self._no_rows(report)
        assert [(e["seed"], e["method"]) for e in report.errors] == [
            (0, "naive_split"), (0, "lvd")
        ]
        assert all(sample_id in e["error"] for e in report.errors)
