"""One measured workload run, in a fresh process.

    python3 perfbench/worker.py SPEC.json RESULT.json

run.py writes the spec, starts this process, waits for it and reads the
result. The process imports scorebands from the checkout's `src`, makes the
same public calls the CLI makes, and records wall times, output hashes and
its own peak memory. With tracing on it adds one traced pass.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from time import perf_counter

REPORT_CSVS = ("per_seed.csv", "aggregate.csv", "per_dataset.csv", "stratified.csv")


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def csv_hashes(out_dir) -> dict[str, str]:
    return {name: sha256(os.path.join(out_dir, name)) for name in REPORT_CSVS}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child it waited for."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "machine": platform.machine(),
        "loadavg": os.getloadavg(),
    }


def run_workload(spec: dict, result: dict) -> None:
    """load_samples (set-up), then run_experiment + emit_report (measured)."""
    import scorebands as sb

    def config(out_dir):
        return sb.ExperimentConfig.from_dict(
            dict(spec["config"], input=spec["input"], out=out_dir)
        )

    cfg = config(os.path.join(spec["work"], "report"))
    samples = None
    line_errors: list = []
    setup: list[float] = []

    def load(reps):
        nonlocal samples, line_errors
        for _ in range(reps):
            samples = None  # hold one copy at a time, so peak memory is one load
            start = perf_counter()
            samples, line_errors = sb.load_samples(cfg.input_path, cfg.scale)
            setup.append(perf_counter() - start)

    def unit(cfg):
        start = perf_counter()
        report = sb.run_experiment(cfg, samples)
        sb.emit_report(report, cfg.out_dir)
        seconds = perf_counter() - start
        return {
            "seconds": seconds,
            "items": len(report.per_seed),
            "ledger_rows": len(report.errors),
            "hashes": csv_hashes(cfg.out_dir),
        }

    # Half the set-up calls come before the measured units and half after,
    # so setup_s samples the same stretch of machine time as the units.
    load(spec["setup_reps"] // 2)
    result["units"] = measure(spec, lambda: unit(cfg))
    load(spec["setup_reps"] - spec["setup_reps"] // 2)
    result["setup_s"] = setup
    result["load_line_errors"] = len(line_errors)
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        traced_cfg = config(os.path.join(spec["work"], "traced"))
        tracer.install()
        try:
            sb.load_samples(cfg.input_path, cfg.scale)
            traced = unit(traced_cfg)
        finally:
            restored = tracer.restore()
        result["trace"] = traced_result(spec, tracer, traced, restored)


def extract_workload(spec: dict, result: dict) -> None:
    """extract_file over the whole transcript file (measured)."""
    import scorebands.extract as sbx
    from scorebands import RatingScale

    scale = RatingScale(k_max=5)
    cfg = sbx.ExtractConfig()

    def unit(out_path):
        start = perf_counter()
        summary = sbx.extract_file(spec["input"], out_path, scale, cfg)
        seconds = perf_counter() - start
        return {
            "seconds": seconds,
            "items": summary.n_records,
            "n_ok": summary.n_ok,
            "n_mismatch": summary.n_mismatch,
            "stage_counts": summary.stage_counts,
            "failed_ids": [sample_id for sample_id, _ in summary.failures],
            "parse_error_lines": [line for line, _ in summary.parse_errors],
            "hashes": {"features.jsonl": sha256(out_path)},
        }

    out_path = os.path.join(spec["work"], "features.jsonl")
    result["units"] = measure(spec, lambda: unit(out_path))
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = unit(os.path.join(spec["work"], "features-traced.jsonl"))
        finally:
            restored = tracer.restore()
        result["trace"] = traced_result(spec, tracer, traced, restored)
        result["trace"]["positions"] = tracer.positions


def measure(spec: dict, unit) -> list[dict]:
    """Repeat the unit while the next one should end within `seconds`.

    Always one unit, and exactly one when tracing, so per-layer sums cover
    the same work on every commit.
    """
    start = perf_counter()
    units = [unit()]
    while not spec["trace"]:
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(units) > spec["seconds"]:
            break
        units.append(unit())
    return units


def traced_result(spec: dict, tracer, traced: dict, restored: bool) -> dict:
    tracer.write_spans(spec["spans_path"])
    metrics = {name: tracer.metric(name) for name in spec["per_layer"]}
    return {
        "unit": traced,
        "metrics": metrics,
        "restored": restored,
        "missing": tracer.missing,
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    result: dict = {"env": environment()}
    if spec["kind"] == "run":
        run_workload(spec, result)
    else:
        extract_workload(spec, result)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
