"""Per-layer tracing from outside the program.

The traced run replaces each public function of a layer at the module
attribute its caller looks up with a wrapper that records a span (name,
start, end, parent) and counts, then puts every original back. Self time
is a span's duration minus the time of its direct child spans. Spans are
kept in memory and written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter


def _fit_mlp_steps(tracer, args, kwargs, result) -> None:
    X = args[0]
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    n = len(X)
    batch = max(1, min(cfg.batch_size, n))
    tracer.counts["learners.fit_mlp.sgd_steps"] += cfg.epochs * math.ceil(n / batch)


def _boost_rounds(tracer, args, kwargs, result) -> None:
    tracer.counts["learners.fit_boosted.rounds"] += len(result.trees)


def _matrix_rows(tracer, args, kwargs, result) -> None:
    tracer.counts["core.features_matrix.rows"] += len(args[0])


def _loaded_lines(tracer, args, kwargs, result) -> None:
    samples, line_errors = result
    tracer.counts["io.load_samples.lines"] += len(samples) + len(line_errors)


def _adjusted(tracer, args, kwargs, result) -> None:
    tracer.counts["conformal.adjust_all.intervals"] += len(args[0])


def _kendall_pairs(tracer, args, kwargs, result) -> None:
    n = len(args[0])
    tracer.counts["metrics.kendall_tau_b.pairs"] += n * (n - 1) // 2


def _report_rows(tracer, args, kwargs, result) -> None:
    tracer.counts["runner.cells"] += len(result.per_seed)
    tracer.counts["runner.ledger_rows"] += len(result.errors)


def _report_bytes(tracer, args, kwargs, result) -> None:
    tracer.counts["report.bytes"] += sum(os.path.getsize(p) for p in result.values())


def _position(tracer, args, kwargs, result) -> None:
    position, stage = result
    tracer.counts[f"extract.stage.{stage}"] += 1
    tracer.positions[args[0].sample_id] = position


def _extract_failed(tracer, args, kwargs, result) -> None:
    tracer.counts["extract.failed"] += result.n_failed + len(result.parse_errors)


def _method_name(args, kwargs) -> str:
    return f"conformal.run_method.{args[0] if args else kwargs['name']}"


# (module, attribute, span name or a function of the call's arguments, counter)
# The benchmark calls load_samples, run_experiment, emit_report and
# extract_file through the attributes listed here, as the CLI calls them.
TARGETS = (
    ("scorebands", "load_samples", "io.load_samples", _loaded_lines),
    ("scorebands", "run_experiment", "runner.run_experiment", _report_rows),
    ("scorebands", "emit_report", "report.emit_report", _report_bytes),
    ("scorebands.harness.runner", "make_split", "core.make_split", None),
    ("scorebands.conformal", "features_matrix", "core.features_matrix", _matrix_rows),
    ("scorebands.harness.runner", "run_method", _method_name, None),
    ("scorebands.conformal", "run_method", _method_name, None),
    ("scorebands.harness.runner", "run_mondrian", "conformal.run_mondrian", None),
    ("scorebands.harness.runner", "adjust_all", "conformal.adjust_all", _adjusted),
    ("scorebands.conformal", "conformal_quantile", "conformal.conformal_quantile", None),
    ("scorebands.conformal", "fit_point_var", "learners.fit_point_var", None),
    ("scorebands.conformal", "fit_quantile_model", "learners.fit_quantile_model", None),
    ("scorebands.conformal", "fit_hist_density", "learners.fit_hist_density", None),
    ("scorebands.conformal", "fit_grid_classifier", "learners.fit_grid_classifier", None),
    ("scorebands.conformal", "fit_boosted", "learners.fit_boosted", _boost_rounds),
    ("scorebands.learners.pointvar", "fit_mlp", "learners.fit_mlp", _fit_mlp_steps),
    ("scorebands.learners.quantile", "fit_mlp", "learners.fit_mlp", _fit_mlp_steps),
    ("scorebands.learners.histdensity", "fit_mlp", "learners.fit_mlp", _fit_mlp_steps),
    ("scorebands.learners.grid", "fit_mlp", "learners.fit_mlp", _fit_mlp_steps),
    ("scorebands.harness.runner", "point_metrics", "metrics.point_metrics", None),
    ("scorebands.harness.runner", "midpoint_eval", "metrics.midpoint_eval", None),
    ("scorebands.harness.runner", "interval_metrics", "metrics.interval_metrics", None),
    ("scorebands.metrics", "interval_metrics", "metrics.interval_metrics", None),
    ("scorebands.harness.runner", "stratified", "metrics.stratified", None),
    ("scorebands.harness.runner", "informativeness", "metrics.informativeness", None),
    ("scorebands.metrics", "kendall_tau_b", "metrics.kendall_tau_b", _kendall_pairs),
    ("scorebands.extract", "extract_file", "extract.extract_file", _extract_failed),
    ("scorebands.extract", "parse_record", "extract.parse_record", None),
    ("scorebands.extract", "find_score_position", "extract.find_score_position", _position),
    ("scorebands.extract", "build_feature_vector", "extract.build_feature_vector", None),
)


class Tracer:
    """Wraps the targets on `install`, puts the originals back on `restore`."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.positions: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append([span_id, 0.0])
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, span_name, start, end, parent))
                tracer.seconds[span_name] += duration
                tracer.self_seconds[span_name] += duration - child
                tracer.counts[f"{span_name}.calls"] += 1
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, counter in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        return all(getattr(m, a) is o for m, a, o in self._patches)

    def metric(self, name: str) -> float:
        """`<span>.s`, `<span>.self_s`, or a count; 0 for a span that never ran."""
        if name.endswith(".self_s"):
            return self.self_seconds.get(name[: -len(".self_s")], 0.0)
        if name.endswith(".s"):
            return self.seconds.get(name[: -len(".s")], 0.0)
        return self.counts.get(name, 0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )
