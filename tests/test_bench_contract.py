"""The benchmark's tracer wraps program functions by (module, attribute);
these tests keep a refactor from breaking a traced benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import scorebands
import scorebands.extract as sbx
from scorebands.harness import (
    ExperimentConfig,
    SyntheticSpec,
    generate_synthetic,
    write_samples,
)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _by_path("bench_spans", BENCH / "spans.py")


def test_every_target_resolves(spans):
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_traced_mondrian_run_counts(spans, tmp_path):
    spec = SyntheticSpec(n=400, seed=0, generator="heteroscedastic_groups")
    path = tmp_path / "samples.jsonl"
    write_samples(generate_synthetic(spec)[0], path, spec.scale)
    methods = ["naive_split", "cqr", "ordinal_aps"]
    config = ExperimentConfig.from_dict(
        {"seeds": [0, 1], "methods": methods, "mondrian": "by_group_tag",
         "epochs": 3, "boost_rounds": 3}
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        samples, line_errors = scorebands.load_samples(path, config.scale)
        report = scorebands.run_experiment(config, samples)
    finally:
        restored = tracer.restore()
    assert restored and tracer.missing == []
    assert not report.errors and not line_errors
    # The samples are stacked once, at load; every split slices that stack.
    assert tracer.counts["io.load_samples.lines"] == len(samples) == spec.n
    assert tracer.counts["core.features_matrix.rows"] == spec.n
    assert tracer.counts["conformal.adjust_all.intervals"] == 2 * len(methods) * 200
    assert tracer.counts["conformal.run_mondrian.calls"] == 2 * len(methods)
    assert tracer.counts["runner.cells"] == 2 * len(methods)
    assert tracer.counts["metrics.stratified.calls"] == 2 * len(methods)


def test_traced_run_counts_each_method_and_fit(spans):
    samples, _ = generate_synthetic(SyntheticSpec(n=200, seed=0))
    config = ExperimentConfig.from_dict(
        {"seeds": [0], "epochs": 2, "boost_rounds": 2}
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = scorebands.run_experiment(config, samples)
    finally:
        restored = tracer.restore()
    assert restored and tracer.missing == []
    assert not report.errors
    for method in config.methods:
        assert tracer.counts[f"conformal.run_method.{method}.calls"] == 1, method
    # One network of the mean and the label logits (chr, r2ccp and
    # ordinal_aps read its label softmax, lvd its spread) and one
    # two-output quantile network; two pinball forests and one |residual|
    # forest. The label network no method fits reads no call.
    assert tracer.counts["learners.fit_mlp.calls"] == 2
    assert tracer.counts["learners.fit_point_var.calls"] == 1
    assert tracer.counts["learners.fit_hist_density.calls"] == 0
    assert tracer.counts["learners.fit_boosted.calls"] == 3
    # The rounds counter reads len(model.trees): one tree per round.
    rounds = config.method_config.boost_rounds
    assert tracer.counts["learners.fit_boosted.rounds"] == 3 * rounds


def test_traced_extract_counts_each_layer(spans, tmp_path):
    """parse_record, find_score_position and build_feature_vector each stay
    a call per record, so their spans measure what their names say."""
    gen = _by_path("bench_gen", BENCH / "gen.py")
    path = tmp_path / "transcripts.jsonl"
    gen.write_transcripts(path, 2, n=200)
    decodable = 0  # lines json.loads reads; a blank line is not one
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        decodable += 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        summary = sbx.extract_file(path, tmp_path / "features.jsonl")
    finally:
        restored = tracer.restore()
    assert restored and tracer.missing == []
    assert summary.n_ok and summary.n_failed and summary.parse_errors
    parsed = summary.n_ok + summary.n_failed
    assert tracer.counts["extract.extract_file.calls"] == 1
    assert tracer.counts["extract.parse_record.calls"] == decodable
    assert tracer.counts["extract.find_score_position.calls"] == parsed
    assert len(tracer.positions) == summary.n_ok
    for stage, count in summary.stage_counts.items():
        assert tracer.counts[f"extract.stage.{stage}"] == count
    assert tracer.counts["extract.build_feature_vector.calls"] == summary.n_ok
    assert tracer.counts["extract.failed"] == summary.n_failed + len(summary.parse_errors)
