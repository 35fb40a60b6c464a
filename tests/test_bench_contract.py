"""The benchmark's tracer wraps program functions by (module, attribute);
these tests keep a refactor from breaking a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import scorebands
from scorebands.harness import (
    ExperimentConfig,
    SyntheticSpec,
    generate_synthetic,
    write_samples,
)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # One mean network with its spread head, two quantile networks, two
    # histograms and one grid; two pinball forests and one |residual| forest.
    assert tracer.counts["learners.fit_mlp.calls"] == 7
    assert tracer.counts["learners.fit_boosted.calls"] == 3
