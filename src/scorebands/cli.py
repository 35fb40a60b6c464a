"""Command-line interface.

Subcommands: extract (transcripts -> features), synth (oracle data),
run (full experiment), fuse (multi-judge join), report (re-render a saved
report). Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys

# The harness, and with it numpy, is imported by the subcommands that use
# it, so `extract` runs on the standard library alone.
from .base import GENERATORS, DataError, InvariantError, RatingScale, read_json
from .extract import ExtractConfig, extract_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # A float such as "-1e308" or "-inf" is a value: argparse would take
        # the first for an unknown option and the second for "-i nf".
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Seed lists like "0-9", "0,3,7", or "5"."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = (int(end) for end in part.split("-", 1))
            if lo > hi:
                raise UsageError(f"reversed seed range {part!r} in {text!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise UsageError(f"no seeds in {text!r}")
    return tuple(seeds)


def parse_methods(text: str) -> tuple[str, ...]:
    from .conformal import METHOD_NAMES

    if text.strip() == "all":
        return METHOD_NAMES
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise UsageError(f"no methods in {text!r}")
    return methods


def build_parser() -> _Parser:
    parser = _Parser(prog="scorebands", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ext = sub.add_parser("extract", help="parse judge transcripts into features")
    p_ext.add_argument("--input", "-i", required=True)
    p_ext.add_argument("--out", "-o", required=True)
    p_ext.add_argument("--k-max", type=int, default=5)
    p_ext.add_argument("--floor", type=float, default=ExtractConfig.floor)
    p_ext.add_argument("--nan-fill", type=float, default=ExtractConfig.nan_fill)
    p_ext.add_argument("--window", type=int, default=ExtractConfig.window)
    p_ext.set_defaults(func=cmd_extract)

    p_syn = sub.add_parser("synth", help="generate synthetic oracle samples")
    p_syn.add_argument("--generator", choices=GENERATORS, default="peaked_logprob")
    p_syn.add_argument("--n", type=int, required=True)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", "-o", required=True)
    p_syn.add_argument("--k-max", type=int, default=5)
    p_syn.add_argument("--feature-dim", type=int, default=None)  # default: --k-max
    p_syn.add_argument("--temperature", type=float, default=1.0)
    p_syn.add_argument("--label-noise", type=float, default=0.2)
    p_syn.add_argument("--logit-noise", type=float, default=0.5)
    p_syn.add_argument("--sigma", type=float, default=0.5)
    p_syn.add_argument("--sigma-ratio", type=float, default=3.0)
    p_syn.add_argument("--oracle-out", default=None)
    p_syn.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run a full conformal experiment")
    p_run.add_argument("--config", default=None, help="JSON config file")
    p_run.add_argument("--input", "-i", default=None)
    p_run.add_argument("--out", "-o", default=None)
    p_run.add_argument("--alpha", type=float, default=None)
    p_run.add_argument("--seeds", type=parse_seeds, default=None,
                       help='e.g. "0-9" or "0,1,2"')
    p_run.add_argument("--cal-fraction", type=float, default=None)
    p_run.add_argument("--methods", type=parse_methods, default=None,
                       help='comma list or "all"')
    p_run.add_argument("--mondrian", default=None, help="partition name or file")
    p_run.add_argument("--adjust", choices=("outward", "inward", "off"), default=None)
    p_run.add_argument("--k-max", type=int, default=None)
    p_run.add_argument("--epochs", type=int, default=None)
    p_run.add_argument("--batch-size", type=int, default=None)
    p_run.add_argument("--learning-rate", type=float, default=None)
    p_run.add_argument("--boost-rounds", type=int, default=None)
    p_run.add_argument("--point-predictor", choices=("model", "argmax_feature"),
                       default=None)
    p_run.add_argument("--emit-intervals", action="store_const", const=True,
                       help="write per-sample interval lines (intervals.jsonl)")
    p_run.set_defaults(func=cmd_run)

    p_fuse = sub.add_parser("fuse", help="join features from multiple judges")
    p_fuse.add_argument("--inputs", "-i", nargs="+", required=True)
    p_fuse.add_argument("--out", "-o", required=True)
    p_fuse.add_argument("--order", default=None, help="comma list of judge tags")
    p_fuse.add_argument("--k-max", type=int, default=5)
    p_fuse.set_defaults(func=cmd_fuse)

    p_rep = sub.add_parser("report", help="re-render files from a saved report")
    p_rep.add_argument("--report", "-r", required=True)
    p_rep.add_argument("--out", "-o", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def _scale(k_max: int) -> RatingScale:
    try:
        return RatingScale(k_max=k_max)
    except ValueError as exc:
        raise UsageError(f"--k-max: {exc}") from None


def cmd_extract(args) -> int:
    scale = _scale(args.k_max)
    try:
        cfg = ExtractConfig(floor=args.floor, nan_fill=args.nan_fill, window=args.window)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    summary = extract_file(args.input, args.out, scale, cfg)
    print(
        f"extracted {summary.n_ok}/{summary.n_records} transcripts "
        f"({summary.n_failed} failed, {summary.n_mismatch} declared-score "
        f"mismatches, {len(summary.parse_errors)} unparsable lines)"
    )
    for stage in sorted(summary.stage_counts):
        print(f"  stage {stage}: {summary.stage_counts[stage]}")
    for sample_id, reason in summary.failures:
        print(f"  failed {sample_id}: {reason}", file=sys.stderr)
    for line_no, reason in summary.parse_errors:
        print(f"  line {line_no}: {reason}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    from .harness import SyntheticSpec, generate_synthetic, write_samples

    scale = _scale(args.k_max)
    spec = SyntheticSpec(
        n=args.n,
        generator=args.generator,
        feature_dim=scale.k_max if args.feature_dim is None else args.feature_dim,
        seed=args.seed,
        temperature=args.temperature,
        label_noise=args.label_noise,
        logit_noise=args.logit_noise,
        sigma=args.sigma,
        sigma_ratio=args.sigma_ratio,
        scale=scale,
    )
    batch, oracle = generate_synthetic(spec)
    write_samples(batch, args.out, spec.scale)
    if args.oracle_out:
        with open(args.oracle_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "generator": spec.generator,
                    "n": spec.n,
                    "seed": spec.seed,
                    "lower": list(oracle.lower),
                    "upper": list(oracle.upper),
                    "interval_mass": list(oracle.interval_mass),
                },
                fh,
                sort_keys=True,
            )
            fh.write("\n")
    print(f"wrote {len(batch)} samples to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .harness import ExperimentConfig, emit_report, load_samples, run_experiment

    config = ExperimentConfig()
    if args.config:
        config = ExperimentConfig.from_dict(read_json(args.config))
    # Every run flag's dest is its config key.
    d = config.to_dict()
    d.update((k, v) for k, v in vars(args).items() if k in d and v is not None)
    config = ExperimentConfig.from_dict(d)
    if not config.input_path:
        raise UsageError("no input file (use --input or the config file)")
    if not config.out_dir:
        raise UsageError("no output directory (use --out or the config file)")
    batch, line_errors = load_samples(config.input_path, config.scale)
    if line_errors:
        print(f"skipped {len(line_errors)} malformed lines:", file=sys.stderr)
        for line_no, reason in line_errors:
            print(f"  line {line_no}: {reason}", file=sys.stderr)
    report = run_experiment(config, batch)
    paths = emit_report(report, config.out_dir)
    with open(paths["summary"], encoding="utf-8") as fh:
        print(fh.read(), end="")
    print(f"report files in {config.out_dir}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    from .core import Batch
    from .harness import fuse, load_samples, write_samples

    scale = _scale(args.k_max)
    parts: dict[str, list[Batch]] = {}
    for path in args.inputs:
        batch, errors = load_samples(path, scale)
        if errors:
            print(f"{path}: skipped {len(errors)} malformed lines", file=sys.stderr)
        for judge in dict.fromkeys(batch.judge.tolist()):
            parts.setdefault(judge, []).append(batch[batch.judge == judge])
    by_judge = {judge: Batch.concat(p) for judge, p in parts.items()}
    order = None
    if args.order:
        order = [j.strip() for j in args.order.split(",") if j.strip()]
    fused, dropped = fuse(by_judge, order)
    write_samples(fused, args.out, scale)
    print(
        f"fused {len(fused)} samples from {len(by_judge)} judges "
        f"({len(dropped)} ids dropped)"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    from .harness import ExperimentReport, emit_report

    report = ExperimentReport.from_dict(read_json(args.report))
    paths = emit_report(report, args.out)
    print(f"re-rendered report files in {args.out}")
    for kind in sorted(paths):
        print(f"  {kind}: {paths[kind]}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
