"""scorebands benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
input files from --seed, starts a fresh worker process that drives the
program through the calls the CLI makes, checks the outputs, and prints
one JSON result as the last line of standard output. With --trace 0 the
result holds the end-to-end metrics of BENCHMARK.json; with --trace 1 it
holds the per-layer metrics of an extra traced pass. It exits non-zero
when a correctness check fails. --record-baseline stores this run's output
hashes as the baseline for (workload, seed). WORKLOADS.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import gen

METHODS = (
    "naive_split",
    "cqr",
    "cqr_asym",
    "chr",
    "lvd",
    "boosted_cqr",
    "boosted_lcp",
    "r2ccp",
    "ordinal_aps",
)

# Fields of a `scorebands run --config` file; input and out are added per run.
WORKLOADS = {
    "paper_protocol": {
        "kind": "run",
        "write": gen.write_paper_samples,
        "config": {
            "alpha": 0.1,
            "seeds": [0, 1],
            "cal_fraction": 0.5,
            "methods": list(METHODS),
            "adjust": "outward",
            "mondrian": None,
            "epochs": 200,
            "boost_rounds": 200,
        },
    },
    "mondrian_diagnostics": {
        "kind": "run",
        "write": gen.write_difficulty_samples,
        "config": {
            "alpha": 0.1,
            "seeds": [0],
            "cal_fraction": 0.5,
            "methods": list(METHODS),
            "adjust": "outward",
            "mondrian": "mllm_difficulty",
            "epochs": 5,
            "boost_rounds": 10,
        },
    },
    "extract_transcripts": {"kind": "extract", "write": gen.write_transcripts},
}

SETUP_REPS = 10  # load_samples calls per run; setup_s is their median
IMPORT_REPS = 10  # fresh-interpreter imports per extraction run
TIME_LIMIT = 170.0  # seconds one benchmark run may take
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import scorebands.extract; print(time.perf_counter() - t)"
)


def import_seconds(src: Path, reps: int) -> list[float]:
    """Wall time of `import scorebands.extract` in fresh interpreters."""
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def baseline_status(path: Path, workload: str, seed: int, hashes: dict, record: bool) -> str:
    stored = json.loads(path.read_text()) if path.exists() else {}
    if record:
        stored.setdefault(workload, {})[str(seed)] = hashes
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return "recorded"
    base = stored.get(workload, {}).get(str(seed))
    if base is None:
        return "no baseline for this seed"
    return "identical" if base == hashes else "differs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)
    began = perf_counter()

    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "scorebands" / "__init__.py").is_file():
        print(f"benchmark: no scorebands sources under {src}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    out_root = root / ".perfbench"
    work = out_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, began, here, root, bench, out_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, began, here, root, bench, out_root, work) -> int:
    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    input_path = work / ("transcripts.jsonl" if wl["kind"] == "extract" else "samples.jsonl")
    made = wl["write"](input_path, args.seed)  # sample count, or the plan
    # Extraction set-up: half the imports before the worker, half after it,
    # so setup_s samples the same stretch of machine time as the units.
    setup = import_seconds(root / "src", IMPORT_REPS // 2) if wl["kind"] == "extract" else None

    spec = {
        "root": str(root),
        "kind": wl["kind"],
        "input": str(input_path),
        "work": str(work),
        "seconds": args.seconds,
        "trace": args.trace,
        "config": wl.get("config"),
        "setup_reps": SETUP_REPS,
        "spans_path": str(out_root / f"spans-{tag}.jsonl"),
        "per_layer": [m["name"] for m in bench["per_layer"]],
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    try:
        subprocess.run(
            [sys.executable, str(here / "worker.py"), str(spec_path), str(result_path)],
            stdout=sys.stderr, check=True,
            timeout=max(1.0, TIME_LIMIT - (perf_counter() - began)),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: worker failed: {exc}", file=sys.stderr)
        return 3
    res = json.loads(result_path.read_text())
    if wl["kind"] == "extract":
        setup += import_seconds(root / "src", IMPORT_REPS - IMPORT_REPS // 2)
    units = res["units"]
    last = units[-1]
    traced = res.get("trace")

    problems = []
    if any(u["hashes"] != last["hashes"] for u in units):
        problems.append("repeated units wrote different outputs")
    if wl["kind"] == "run":
        cfg = wl["config"]
        per_unit = len(cfg["seeds"]) * len(cfg["methods"])
        setup = res["setup_s"]
        if res["load_line_errors"]:
            problems.append(f"load_samples rejected {res['load_line_errors']} lines")
        problems += checks.check_run(
            work / "report", cfg["seeds"], cfg["methods"], cfg["alpha"], gen.K,
            made, cfg["cal_fraction"],
        )
        failed = sum(u["ledger_rows"] for u in units)
    else:
        planted = made
        per_unit = len(planted)
        found, wrong = checks.check_extract(work / "features.jsonl", planted, last)
        problems += found
        failed = wrong * len(units)
    if traced is not None:
        if traced["unit"]["hashes"] != last["hashes"]:
            problems.append("the traced run wrote different outputs than the untraced run")
        if not traced["restored"]:
            problems.append("a wrapped attribute was not restored after tracing")
        if traced["missing"]:
            problems.append(f"trace targets missing: {traced['missing']}")
        if wl["kind"] == "run":
            failed += traced["unit"]["ledger_rows"]
        else:
            _, wrong = checks.check_extract(
                work / "features-traced.jsonl", planted, traced["unit"], traced["positions"]
            )
            if wrong:
                problems.append(f"{wrong} traced records differ from the plan (positions)")
            failed += wrong
    attempted = per_unit * (len(units) + (traced is not None))

    units_of = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        values = dict(traced["metrics"])
        values["trace.overhead_ratio"] = traced["unit"]["seconds"] / units[0]["seconds"]
        values["fail_ratio"] = failed / attempted
        names = [m["name"] for m in bench["per_layer"]]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": statistics.median(u["items"] / u["seconds"] for u in units),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        names = [m["name"] for m in bench["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units_of[name]} for name in names}

    baseline = baseline_status(
        here / "baseline_hashes.json", args.workload, args.seed, last["hashes"],
        args.record_baseline and not problems,
    )
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": res["env"],
        "setup_s": setup,
        "unit_seconds": [u["seconds"] for u in units],
        "traced_seconds": traced and traced["unit"]["seconds"],
        "hashes": last["hashes"],
        "baseline": baseline,
        "problems": problems,
        "metrics": metrics,
    }
    records = out_root / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = res["env"]
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"{env['blas']} with {env['blas_threads']} threads",
        file=sys.stderr,
    )
    print(
        f"{tag}: units {[round(u['seconds'], 3) for u in units]} s, "
        f"output hashes vs baseline: {baseline}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
