"""Harness tests: ingestion, synthetic oracles, fusion, experiment runs,
and report emission."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from scorebands.base import GENERATORS
from scorebands.core import Batch, DataError, RatingScale
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
        assert samples.X[0].tolist() == [-5.0, -4.0, -0.5, -2.0, -6.0]
        assert samples.y.tolist() == [3.0] * 3
        assert samples.sample_id.tolist() == ["s0", "s1", "s2"]
        assert samples.judge.tolist() == ["j1"] * 3

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
        assert samples.X.shape == (1, 10)

    def test_group_passthrough(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [sample_line(0, group="easy")])
        samples, _ = load_samples(path)
        assert samples.group.tolist() == ["easy"]

    def test_line_not_utf8_is_a_line_error(self, tmp_path):
        # Line 2 holds a byte that is not UTF-8; a lone "\r" ends line 3.
        path = tmp_path / "s.jsonl"
        lines = [json.dumps(sample_line(i)).encode() for i in range(4)]
        lines[1] = lines[1].replace(b'"s1"', b'"s\xff"')
        path.write_bytes(lines[0] + b"\n" + lines[1] + b"\n" + lines[2] + b"\r" + lines[3] + b"\n")
        samples, errors = load_samples(path)
        assert samples.sample_id.tolist() == ["s0", "s2", "s3"]
        assert errors == [(2, "line is not UTF-8: 'utf-8' codec can't decode byte "
                              "0xff in position 16: invalid start byte")]

    def test_tag_columns_share_one_str_per_value(self, tmp_path):
        path = tmp_path / "s.jsonl"
        self._write(path, [
            sample_line(i, dataset="de"[i % 2], group="g" if i % 2 else None) for i in range(4)
        ])
        samples, _ = load_samples(path)
        for column in ("dataset", "group", "sample_id", "judge"):
            assert getattr(samples, column).dtype == object, column
        assert samples.dataset[0] is samples.dataset[2]
        assert samples.group.tolist() == [None, "g", None, "g"]
        assert samples.group[1] is samples.group[3]
        assert samples.judge[0] is samples.judge[3]
        tail, picked = samples[1:], samples[np.array([2, 0])]
        assert tail.dataset[1] is samples.dataset[0] and tail.judge[0] is tail.judge[2]
        assert picked.dataset[0] is picked.dataset[1]

    def test_write_read_round_trip(self, tmp_path):
        for generator in GENERATORS:
            samples, _ = generate_synthetic(SyntheticSpec(n=20, seed=1, generator=generator))
            path = tmp_path / f"{generator}.jsonl"
            write_samples(samples, path, SCALE)
            loaded, errors = load_samples(path)
            assert not errors
            for column in ("X", "y", "dataset", "group", "sample_id", "judge"):
                want, got = getattr(samples, column), getattr(loaded, column)
                assert got.dtype == want.dtype and np.array_equal(got, want), (generator, column)


# ---------------------------------------------------------------------------
# The former per-line parser, kept as the reference for the columnar loader.
# ---------------------------------------------------------------------------

REFERENCE_FIELDS = ("sample_id", "judge", "dataset", "gt_score")


def _reference_logprob(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"logprob {key!r} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise DataError(f"logprob {key!r} must be finite, got {v}")
    if v > 0:
        raise DataError(f"logprob {key!r} must be <= 0, got {v}")
    return v


def _reference_tag(obj, key):
    value = obj.get(key)
    if key == "group" and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise DataError(f"{key} must be a string or a number, got {value!r}")
    return str(value)


def _reference_parse_line(obj, scale):
    if not isinstance(obj, dict):
        raise DataError("line is not an object")
    for key in REFERENCE_FIELDS:
        if key not in obj:
            raise DataError(f"missing field {key!r}")
    tags = {key: _reference_tag(obj, key) for key in ("sample_id", "judge", "dataset", "group")}
    gt = obj["gt_score"]
    if isinstance(gt, bool) or not isinstance(gt, int):
        raise DataError(f"gt_score must be an integer, got {gt!r}")
    if not 1 <= gt <= scale.k_max:
        raise DataError(f"gt_score {gt} outside [1, {scale.k_max}]")
    if "logprobs" in obj:
        logprobs = obj["logprobs"]
        if not isinstance(logprobs, dict):
            raise DataError("logprobs must be an object")
        values = []
        for label in scale.labels:
            key = str(label)
            if key not in logprobs:
                raise DataError(f"logprobs missing label {key!r}")
            values.append(_reference_logprob(logprobs[key], key))
    elif "features" in obj:
        feats = obj["features"]
        if not isinstance(feats, list) or not feats:
            raise DataError("features must be a non-empty list")
        if len(feats) % scale.k_max != 0:
            raise DataError(
                f"feature length {len(feats)} not a multiple of {scale.k_max}"
            )
        values = [_reference_logprob(v, str(i)) for i, v in enumerate(feats)]
    else:
        raise DataError("line has neither 'logprobs' nor 'features'")
    return {"features": tuple(values), "gt_score": gt, **tags}


def reference_load_samples(path, scale=SCALE):
    samples, errors = [], []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append((line_no, f"invalid JSON: {exc}"))
                continue
            try:
                samples.append(_reference_parse_line(obj, scale))
            except DataError as exc:
                errors.append((line_no, str(exc)))
    return samples, errors


def _with(i, drop=(), **changes):
    obj = sample_line(i, group="g" if i % 2 else None)
    for key in drop:
        del obj[key]
    obj.update(changes)
    return obj


def _lp(**entries):
    lp = {"1": -5.0, "2": -4.0, "3": -0.5, "4": -2.0, "5": -6.0}
    lp.update({k.lstrip("_"): v for k, v in entries.items()})
    return lp


# (line, whether it has exactly one fault); None marks a good line.
LOADER_CASES = [
    (_with(0), None),
    ("", None),
    (_with(1, drop=("logprobs",), features=[-1.0, -2, -0.0, -4.5, -3.0]), None),
    ("{broken", True),
    ("[1, 2]", True),
    (_with(2, drop=("judge",)), True),
    (_with(3, gt_score=True), True),
    (_with(4, gt_score=3.0), True),
    (_with(5, gt_score=0), True),
    (_with(6, gt_score=6), True),
    ("   ", None),
    (_with(7, logprobs={"1": -1.0, "2": -1.0, "3": -1.0, "5": -1.0}), True),
    (_with(8, logprobs=_lp(_2="x")), True),
    (_with(9, logprobs=_lp(_3=math.nan)), True),
    (_with(10, drop=("logprobs",), features=[-1.0, -1.0, math.inf, -1.0, -1.0]), True),
    (_with(11, logprobs=_lp(_1=-math.inf)), True),
    (_with(12, logprobs=_lp(_5=0.25)), True),
    (_with(13, drop=("logprobs",), features=[-1.0] * 7), True),
    (_with(14, drop=("logprobs",), features=[]), True),
    (_with(15, drop=("logprobs",), features=[-1.0, None, -1.0, -1.0, -1.0]), True),
    (_with(16, logprobs=[-1.0] * 5), True),
    (_with(17, drop=("logprobs",)), True),
    (_with(18, logprobs=_lp(_2=False)), True),
    (_with(19, logprobs=_lp(_4=3)), True),
    # A valid width on its own, broken by an entry: dropped, not a second width.
    (_with(20, drop=("logprobs",), features=[-1.0] * 9 + [math.nan]), True),
    # Several faults on one line: the line is rejected, by some message.
    (_with(21, gt_score=0, logprobs=_lp(_2=math.nan)), False),
    (_with(22, gt_score=9, drop=("logprobs",), features=[-1.0] * 6), False),
    (_with(23, logprobs=_lp(_1=1.0, _4=math.nan)), False),
    (_with(24, drop=("logprobs",), features=[1, 1, 1, 1, 1]), False),
    (_with(25, dataset=7, sample_id=25, group=3), None),
    (_with(26, logprobs=_lp(_3=0)), None),
    # A tag that is not a string or a number; a null group means no group.
    (_with(27, dataset=None), True),
    (_with(28, dataset={"x": 1}), True),
    (_with(29, judge=["j1"]), True),
    (_with(30, judge=False), True),
    (_with(31, sample_id=None), True),
    (_with(32, sample_id=True), True),
    (_with(33, group={"g": 1}), True),
    (_with(34, group=[]), True),
    (_with(35, group=True), True),
    (_with(36, group=None, dataset=2.5), None),
]


class TestLoaderOracle:
    """The columnar loader keeps what the former per-line parser kept."""

    def test_columns_and_line_errors_match_reference(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for line, _ in LOADER_CASES:
                fh.write((line if isinstance(line, str) else json.dumps(line)) + "\n")
        want, want_errors = reference_load_samples(path)
        batch, errors = load_samples(path)
        assert len(batch) == len(want) == 5
        assert batch.X.tolist() == [list(s["features"]) for s in want]
        assert batch.y.tolist() == [float(s["gt_score"]) for s in want]
        for column in ("dataset", "judge", "sample_id", "group"):
            assert getattr(batch, column).tolist() == [s[column] for s in want], column
        assert [n for n, _ in errors] == [n for n, _ in want_errors]
        # Blank lines count for numbering: line i + 1 holds LOADER_CASES[i].
        single = {i + 1 for i, (_, one) in enumerate(LOADER_CASES) if one}
        assert {n for n, _ in errors} >= single
        for (n, reason), (_, want_reason) in zip(errors, want_errors):
            if n in single:
                assert reason == want_reason, n

    def test_label_beyond_float_range_is_a_line_error(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        huge = json.dumps(_with(1)).replace('"gt_score": 3', '"gt_score": 1' + "0" * 400)
        path.write_text(json.dumps(_with(0)) + "\n" + huge + "\n")
        batch, errors = load_samples(path)
        assert len(batch) == 1
        assert [n for n, _ in errors] == [n for n, _ in reference_load_samples(path)[1]]
        assert errors[0][1] == "gt_score 9007199254740992 outside [1, 5]"  # 2**53

    def test_entry_beyond_float_range_is_a_line_error(self, tmp_path):
        # The reference overflows on these lines, so the errors are pinned
        # directly: such an integer reads as the float literal of its value.
        big = "1" + "0" * 400
        keyed = json.dumps(_with(1)).replace('"1": -5.0', '"1": -' + big)
        listed = json.dumps(_with(2, drop=("logprobs",), features=[-1.0] * 5))
        listed = listed.replace("[-1.0, -1.0, -1.0", "[-1.0, -1.0, " + big)
        too_long = json.dumps(_with(3)).replace('"1": -5.0', '"1": -1' + "0" * 5000)
        path = tmp_path / "huge.jsonl"
        path.write_text("\n".join([json.dumps(_with(0)), keyed, listed, too_long]) + "\n")
        batch, errors = load_samples(path)
        assert batch.sample_id.tolist() == ["s0"]
        assert errors[:2] == [
            (2, "logprob '1' must be finite, got -inf"),
            (3, "logprob '2' must be finite, got inf"),
        ]
        assert errors[2][0] == 4 and errors[2][1].startswith("invalid JSON: Exceeds the limit")

    def test_mixed_widths_of_kept_rows_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        wide = _with(1, drop=("logprobs",), features=[-1.0] * 10)
        path.write_text(json.dumps(_with(0)) + "\n" + json.dumps(wide) + "\n")
        with pytest.raises(DataError, match=r"inconsistent feature lengths: \[5, 10\]"):
            load_samples(path)

    def test_empty_file_gives_empty_batch(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        batch, errors = load_samples(path)
        assert len(batch) == 0 and errors == []
        with pytest.raises(DataError, match="no samples"):
            run_experiment(fast_config(seeds=[0]), batch)


# The former per-row oracle loop, kept as the reference for the array rule.
def central_label_set(probs, target, k):
    """Grow a contiguous label set greedily from the mode until mass >= target."""
    lo = hi = int(np.argmax(probs))
    mass = float(probs[lo])
    while mass < target - 1e-12 and (lo > 0 or hi < k - 1):
        grow_left = lo > 0 and (hi == k - 1 or probs[lo - 1] >= probs[hi + 1])
        if grow_left:
            lo -= 1
            mass += float(probs[lo])
        else:
            hi += 1
            mass += float(probs[hi])
    return lo + 1, hi + 1, mass


def reference_oracle(cond):
    """lower, upper and interval_mass of the former loop, as float64 arrays."""
    k = cond.shape[1]
    rows = [central_label_set(p, 0.9, k) for p in cond]
    return tuple(np.array(col, dtype=np.float64) for col in zip(*rows))


class TestSyntheticGenerators:
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_tag_columns_share_one_str_per_value(self, generator):
        batch, _ = generate_synthetic(SyntheticSpec(n=50, seed=0, generator=generator))
        for column in ("dataset", "group", "sample_id", "judge"):
            assert getattr(batch, column).dtype == object, column
        tail = batch[10:]
        for column in ("dataset", "group", "judge"):
            ids = {id(v) for v in getattr(batch, column)}
            assert len(ids) == len(set(getattr(batch, column).tolist())), column
            assert {id(v) for v in getattr(tail, column)} <= ids, column

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_oracle_sets_equal_the_row_loop(self, k, monkeypatch):
        from scorebands.harness import synth

        seen = []
        original = synth.aps_sets

        def recorded(probs, threshold):
            seen.append(probs)
            return original(probs, threshold)

        monkeypatch.setattr(synth, "aps_sets", recorded)
        spec = SyntheticSpec(n=800, seed=k, label_noise=0.35, feature_dim=k,
                             scale=RatingScale(k_max=k))
        _, oracle = generate_synthetic(spec)
        (cond,) = seen
        got = (oracle.lower, oracle.upper, oracle.interval_mass)
        for a, b in zip(got, reference_oracle(cond)):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_oracle_on_conditionals_with_ties(self, k, monkeypatch):
        """The oracle's sets of planted conditionals, fed in for the
        generator's: ties between the two neighbours, ties at the mode, and
        masses that reach 0.9 only within the rounding tolerance."""
        from scorebands.harness import synth

        rng = np.random.default_rng(40 + k)
        cond = rng.dirichlet(np.full(k, 0.7), size=600)
        tied = rng.integers(1, k - 1, size=600)
        rows = np.arange(0, 600, 3)
        cond[rows, tied[rows] + 1] = cond[rows, tied[rows] - 1]
        rows = np.arange(1, 600, 3)
        cond[rows, (tied[rows] + 1) % k] = cond[rows].max(axis=1)
        cond /= cond.sum(axis=1, keepdims=True)
        cond[:30] = 0.0
        cond[:10, 0], cond[:10, 1] = 0.9, 0.1
        cond[10:20, 0], cond[10:20, 1] = 0.9 - 5e-13, 0.1 + 5e-13
        cond[20:30, k // 2] = cond[20:30, k // 2 - 1] = 0.45
        cond[20:30, k - 1] = 0.1
        original = synth.aps_sets
        monkeypatch.setattr(synth, "aps_sets", lambda probs, thr: original(cond, thr))
        spec = SyntheticSpec(n=600, seed=k, feature_dim=k, scale=RatingScale(k_max=k))
        _, oracle = generate_synthetic(spec)
        got = (oracle.lower, oracle.upper, oracle.interval_mass)
        for a, b in zip(got, reference_oracle(cond)):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_noiseless_limit(self):
        # Sharpness -> infinity and no label noise: features pin the label.
        from scorebands.conformal import MethodConfig, Split, run_method
        from scorebands.core import make_split
        from scorebands.learners import TrainConfig
        from scorebands.metrics import coverage

        spec = SyntheticSpec(
            n=1200, seed=2, temperature=1e-9, label_noise=0.0, logit_noise=0.0
        )
        samples, oracle = generate_synthetic(spec)
        assert np.all(oracle.interval_mass == 1.0)
        cal_idx, test_idx = make_split(len(samples), 0.5, 0)
        cal = samples[cal_idx]
        test = samples[test_idx]
        cfg = MethodConfig(
            train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1)
        )
        res = run_method("naive_split", Split(cal, test, 0.1, SCALE, cfg))
        gts = test.y
        assert coverage(res.intervals, gts) >= 0.99
        assert np.mean(res.intervals.width) < 0.5

    def test_default_label_noise_coverage_band(self):
        """Generator at its default settings (label_noise 0.2, temperature 1):
        split CP lands in the Monte-Carlo coverage band over 10 seeds."""
        from scorebands.conformal import MethodConfig, Split, run_method
        from scorebands.core import make_split
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
            cal_idx, test_idx = make_split(4000, 0.5, seed)
            cal = samples[cal_idx]
            test = samples[test_idx]
            res = run_method("naive_split", Split(cal, test, 0.1, SCALE, cfg))
            covs.append(coverage(res.intervals, test.y))
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
            targets = samples.y
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
        groups = samples.group
        w_low = widths[groups == "low"].mean()
        w_high = widths[groups == "high"].mean()
        assert w_high / w_low == pytest.approx(3.0, abs=1e-12)
        assert np.all(oracle.sigma[groups == "high"] == 0.3 * 3.0)

    def test_feature_dim_blocks(self):
        spec = SyntheticSpec(n=10, seed=5, feature_dim=15)
        samples, _ = generate_synthetic(spec)
        assert samples.X.shape == (10, 15)

    def test_invalid_specs(self):
        with pytest.raises(DataError):
            SyntheticSpec(n=10, generator="unknown")
        with pytest.raises(DataError):
            SyntheticSpec(n=0)
        with pytest.raises(DataError):
            SyntheticSpec(n=10, feature_dim=7)
        with pytest.raises(DataError):
            SyntheticSpec(n=10, label_noise=1.5)
        # The extremes of the valid range stay valid.
        SyntheticSpec(n=10, temperature=math.inf, sigma=0.0, logit_noise=0.0)
        SyntheticSpec(n=10, temperature=1e-9, sigma_ratio=1e-9)

    def test_features_are_valid_logprobs(self):
        for generator in ("peaked_logprob", "homoscedastic",
                          "heteroscedastic_groups"):
            samples, _ = generate_synthetic(
                SyntheticSpec(n=50, seed=6, generator=generator)
            )
            assert np.all(np.isfinite(samples.X) & (samples.X <= 0))

    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec(n=30, seed=7))
        b, _ = generate_synthetic(SyntheticSpec(n=30, seed=7))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestFuse:
    def _samples(self, judge, ids, gt=None, dim=5, value=None):
        n = len(ids)
        X = [[-float(k + 1) if value is None else value] * dim for k in range(n)]
        return Batch(
            X=np.array(X),
            y=np.full(n, float(gt or 3)),
            dataset=np.full(n, "d"),
            group=np.full(n, None),
            sample_id=np.array(ids, dtype=object),
            judge=np.full(n, judge),
        )

    def test_three_judges_give_15_features(self):
        by_judge = {
            j: self._samples(j, ["a", "b"]) for j in ("j1", "j2", "j3")
        }
        fused, dropped = fuse(by_judge, ["j1", "j2", "j3"])
        assert len(fused) == 2
        assert fused.X.shape == (2, 15)
        assert not dropped
        assert fused.judge.tolist() == ["j1+j2+j3"] * 2

    def test_single_judge_identity(self):
        samples = self._samples("j1", ["a", "b", "c"])
        fused, dropped = fuse({"j1": samples})
        assert np.array_equal(fused.X, samples.X)
        assert not dropped

    def test_missing_id_dropped_and_counted(self):
        by_judge = {
            "j1": self._samples("j1", ["a", "b", "c"]),
            "j2": self._samples("j2", ["a", "c"]),
        }
        fused, dropped = fuse(by_judge, ["j1", "j2"])
        assert fused.sample_id.tolist() == ["a", "c"]
        assert dropped == ["b"]

    def test_gt_mismatch_rejected_with_id(self):
        j1 = self._samples("j1", ["a"], gt=3)
        j2 = self._samples("j2", ["a"], gt=4)
        with pytest.raises(DataError, match="'a'"):
            fuse({"j1": j1, "j2": j2}, ["j1", "j2"])

    def test_order_permutes_blocks(self):
        by_judge = {
            "j1": self._samples("j1", ["a"]),
            "j2": self._samples("j2", ["a"], value=-9.0),
        }
        f12, _ = fuse(by_judge, ["j1", "j2"])
        f21, _ = fuse(by_judge, ["j2", "j1"])
        assert f12.X[0, :5].tolist() == f21.X[0, 5:].tolist() == [-1.0] * 5
        assert f12.X[0, 5:].tolist() == f21.X[0, :5].tolist() == [-9.0] * 5
        assert f12.y.tolist() == f21.y.tolist()

    def test_order_must_match_judges(self):
        with pytest.raises(DataError):
            fuse({"j1": self._samples("j1", ["a"])}, ["j1", "jX"])

    def test_judge_named_twice_rejected(self):
        by_judge = {j: self._samples(j, ["a"]) for j in ("a", "c")}
        with pytest.raises(DataError, match="judge 'a' is named more than once"):
            fuse(by_judge, ["a", "a", "c"])


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
        # A config file may not name no method; the library's config may.
        config = replace(fast_config(seeds=[0, 1]), methods=())
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
        samples = samples[np.insert(np.arange(100), 40, 7)]
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

    @pytest.mark.parametrize(
        "mondrian,point_predictor,calls",
        [(None, "model", 5), ("by_group_tag", "model", 5), (None, "argmax_feature", 1)],
    )
    def test_point_metrics_once_per_distinct_prediction(
        self, monkeypatch, mondrian, point_predictor, calls
    ):
        """naive_split, lvd and boosted_lcp predict the same points, as do
        cqr and cqr_asym, and chr and r2ccp: nine methods score five
        predictions per seed, or one under argmax_feature. Every per-seed
        row still equals a direct point_metrics call on its prediction."""
        from scorebands.harness import runner
        from scorebands.metrics import point_metrics

        results, per_call = [], []

        def recorded(run, split_arg):
            def call(*args):
                res = run(*args)
                results.append((res.y_hat, args[split_arg].test.y))
                return res
            return call

        def counted(y_hat, labels, scale):
            per_call.append((len(results) - 1) // 9)  # the seed's index
            return point_metrics(y_hat, labels, scale)

        monkeypatch.setattr(runner, "run_method", recorded(runner.run_method, 1))
        monkeypatch.setattr(runner, "run_mondrian", recorded(runner.run_mondrian, 0))
        monkeypatch.setattr(runner, "point_metrics", counted)
        config = fast_config(seeds=[0, 1], mondrian=mondrian,
                             point_predictor=point_predictor)
        report = run_experiment(
            config, self._samples(n=800, generator="heteroscedastic_groups")
        )
        assert not report.errors and len(report.per_seed) == len(results) == 18
        assert per_call == [0] * calls + [1] * calls
        for row, (y_hat, y) in zip(report.per_seed, results):
            direct = point_metrics(y_hat, y, config.scale)
            assert {k: row[k] for k in direct} == direct

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

    def test_inconsistent_feature_lengths_rejected(self, tmp_path):
        # One Batch holds one width, so mixed widths are refused at load.
        samples = self._samples(n=50)
        other, _ = generate_synthetic(SyntheticSpec(n=10, seed=1, feature_dim=10))
        write_samples(samples, tmp_path / "a.jsonl", SCALE)
        write_samples(other, tmp_path / "b.jsonl", SCALE)
        path = tmp_path / "mixed.jsonl"
        path.write_text((tmp_path / "a.jsonl").read_text() + (tmp_path / "b.jsonl").read_text())
        with pytest.raises(DataError, match=r"inconsistent feature lengths: \[5, 10\]"):
            load_samples(path)


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
        config = replace(fast_config(seeds=[0]), methods=())
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
        data = dict(ExperimentConfig().to_dict(), alpha=0.2, epochs=10)
        config = ExperimentConfig.from_dict(data)
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
                                np.full_like(res.y_hat, np.inf), res.q_hat)

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
        cal_idx, test_idx = make_split(len(samples), 0.5, 0)
        i = (test_idx if side == "test" else cal_idx)[0]
        group = samples.group.copy()
        group[i] = None
        samples = dataclasses.replace(samples, group=group)
        config = fast_config(seeds=[0], methods=["naive_split", "lvd"],
                             mondrian="by_group_tag")
        return run_experiment(config, samples), samples.sample_id[i]

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

    def test_empty_calibration_set(self):
        """Three samples at cal_fraction 0.1 leave no calibration row: each
        seed gets one ledger row naming the empty set, and no cell rows."""
        config = fast_config(seeds=[0, 1], methods=["naive_split", "lvd"],
                             cal_fraction=0.1, emit_intervals=True)
        report = run_experiment(config, self._samples(n=3))
        assert self._no_rows(report)
        assert [(e["seed"], e["method"], e["error_type"], e["error"])
                for e in report.errors] == [
            (seed, "*", "DataError", "empty calibration set") for seed in (0, 1)
        ]
