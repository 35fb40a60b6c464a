"""Extraction tests: token normalization, the three-stage position heuristic,
feature building, and transcript file processing."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extraction_corpus as corpus
from scorebands.core import DataError, RatingScale
from scorebands.extract import (
    ExtractConfig,
    ExtractionFailure,
    ExtractionRecord,
    TokenLogprobEntry,
    build_feature_vector,
    extract,
    extract_file,
    find_score_position,
    normalize_token,
    parse_record,
)

SCALE = RatingScale()


def entry(text, top=None, logprob=-0.1):
    top_k = tuple((t, lp) for t, lp in (top or {}).items())
    return TokenLogprobEntry(token_text=text, logprob=logprob, top_k=top_k)


def record(case):
    return ExtractionRecord(
        sample_id=case["id"],
        tokens=tuple(entry(text, top) for text, top in case["tokens"]),
        declared_score=case.get("declared"),
    )


class TestNormalizeToken:
    def test_leading_space(self):
        assert normalize_token(" 4") == "4"

    def test_sentencepiece_marker(self):
        assert normalize_token("▁1") == "1"

    def test_byte_bpe_marker(self):
        assert normalize_token("Ġ2") == "2"

    def test_identity(self):
        assert normalize_token("4") == "4"

    def test_stacked_prefixes(self):
        assert normalize_token(" ▁ 4") == "4"

    def test_interior_untouched(self):
        assert normalize_token("Score: 4") == "Score: 4"


class TestFindScorePosition:
    def test_anchored_example(self):
        rec = record(corpus.case("x", "anchored", ["text", "Score", ":"], " 4"))
        assert find_score_position(rec, SCALE) == (3, "anchored")

    def test_keyword_example(self):
        rec = record(corpus.case("x", "keyword", ["the", "rating", "is"], "3",
                                 suffix=["."]))
        assert find_score_position(rec, SCALE) == (3, "keyword")

    def test_backward_example(self):
        rec = record(
            corpus.case("x", "backward",
                        ["step", "2", "shows", "improvement", "overall"], "5")
        )
        assert find_score_position(rec, SCALE) == (5, "backward")

    def test_stage_precedence(self):
        # All three stages would fire somewhere; stage 1 must win, and its
        # digit differs from what stages 2 and 3 would return.
        rec = ExtractionRecord(
            sample_id="prec",
            tokens=tuple(
                entry(t) for t in
                ["rating", "2", "Score", ":", "4", "then", "5"]
            ),
        )
        pos, stage = find_score_position(rec, SCALE)
        assert (pos, stage) == (4, "anchored")

    def test_failure(self):
        rec = ExtractionRecord(
            sample_id="none", tokens=(entry("no"), entry("digits"))
        )
        with pytest.raises(ExtractionFailure):
            find_score_position(rec, SCALE)

    def test_window_is_configurable(self):
        tokens = ["score", "a", "b", "c"]
        rec = ExtractionRecord(
            sample_id="w", tokens=tuple(entry(t) for t in tokens + ["4"])
        )
        pos, stage = find_score_position(rec, SCALE, ExtractConfig(window=8))
        assert stage == "keyword"
        narrow = ExtractConfig(window=2)
        pos, stage = find_score_position(rec, SCALE, narrow)
        assert stage == "backward"  # digit fell outside the keyword window


class TestBuildFeatureVector:
    def test_full_passthrough_in_label_order(self):
        fv = build_feature_vector(entry("4", corpus.TOP_FULL), SCALE)
        assert fv.values == corpus.FEATURES_FULL

    def test_missing_tokens_floored(self):
        fv = build_feature_vector(entry("4", corpus.TOP_MISSING_1_AND_5), SCALE)
        assert fv.values == corpus.FEATURES_FLOORED
        assert fv.values[0] == -11.5  # log(1e-5)

    def test_nan_filled(self):
        fv = build_feature_vector(entry("4", corpus.TOP_NAN_4), SCALE)
        assert fv.values == corpus.FEATURES_NAN
        assert fv.values[3] == -100.0

    def test_slots_track_labels_not_rank_order(self):
        shuffled = {"3": -2.2, "1": -6.0, "5": -5.0, "2": -4.5, "4": -0.2}
        fv = build_feature_vector(entry("4", shuffled), SCALE)
        assert fv.values == corpus.FEATURES_FULL

    def test_marked_tokens_match_labels(self):
        fv = build_feature_vector(entry("4", corpus.TOP_MARKED), SCALE)
        assert fv.values == corpus.FEATURES_FULL

    def test_floor_sensitivity_only_affects_floored_slots(self):
        e = entry("4", corpus.TOP_MISSING_1_AND_5)
        vectors = {
            floor: build_feature_vector(e, SCALE, floor=floor)
            for floor in (-9.0, -11.5, -15.0)
        }
        for floor, fv in vectors.items():
            assert fv.values[0] == floor and fv.values[4] == floor
            assert fv.values[1:4] == (-4.5, -2.2, -0.2)

    @settings(max_examples=100, deadline=None)
    @given(
        present=st.lists(st.sampled_from(["1", "2", "3", "4", "5"]),
                         unique=True),
        lps=st.lists(
            st.one_of(st.floats(-30, 0, allow_nan=False), st.just(math.nan)),
            min_size=5, max_size=5,
        ),
    )
    def test_always_finite(self, present, lps):
        top = {t: lps[i] for i, t in enumerate(present)}
        fv = build_feature_vector(entry("3", top), SCALE)
        assert len(fv) == 5
        assert all(math.isfinite(v) and v <= 0 for v in fv.values)


class TestExtract:
    def test_composition(self):
        rec = record(corpus.ANCHORED[0])
        result = extract(rec, SCALE)
        assert result.stage_used == "anchored"
        assert result.extracted_score == 4
        assert len(result.features) == 5

    def test_mismatch_flag(self):
        rec = record(corpus.MISMATCH[0])
        result = extract(rec, SCALE)
        assert result.declared_mismatch is True
        rec_ok = record(corpus.MISMATCH[1])
        assert extract(rec_ok, SCALE).declared_mismatch is False

    def test_failure_propagates(self):
        rec = ExtractionRecord(sample_id="f", tokens=(entry("nope"),))
        with pytest.raises(ExtractionFailure):
            extract(rec, SCALE)


class TestCorpus:
    """The full hand-built corpus must extract exactly as written."""

    def test_corpus_size(self):
        assert len(corpus.CASES) >= 60
        by_stage = {"anchored": 0, "keyword": 0, "backward": 0}
        for c in corpus.CASES:
            by_stage[c["expect_stage"]] += 1
        assert all(v >= 20 for v in by_stage.values())
        assert len(corpus.FAILURE) >= 3

    @pytest.mark.parametrize("case", corpus.CASES, ids=lambda c: c["id"])
    def test_case(self, case):
        result = extract(record(case), SCALE)
        assert result.stage_used == case["expect_stage"]
        assert result.score_position == case["expect_pos"]
        assert result.extracted_score == case["expect_score"]
        if case["expect_features"] is not None:
            assert result.features.values == case["expect_features"]
        if case.get("declared") is not None:
            assert result.declared_mismatch == (
                case["declared"] != case["expect_score"]
            )

    @pytest.mark.parametrize("case", corpus.FAILURE, ids=lambda c: c["id"])
    def test_failure_case(self, case):
        rec = ExtractionRecord(
            sample_id=case["id"],
            tokens=tuple(entry(text, top) for text, top in case["tokens"]),
        )
        with pytest.raises(ExtractionFailure):
            extract(rec, SCALE)


class TestEntryValidation:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            entry("4", {"4": 0.5})

    def test_top_k_sorted_descending(self):
        e = entry("4", {"1": -6.0, "4": -0.2, "3": -2.2})
        lps = [lp for _, lp in e.top_k]
        assert lps == sorted(lps, reverse=True)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            ExtractionRecord(sample_id="e", tokens=())


class TestFileIO:
    def _write_lines(self, path, lines):
        with open(path, "w", encoding="utf-8") as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")

    def _case_to_json(self, case):
        return {
            "sample_id": case["id"],
            "tokens": [
                {
                    "text": text,
                    "logprob": -0.1,
                    "top_k": [[t, None if isinstance(lp, float) and
                               math.isnan(lp) else lp]
                              for t, lp in (top or {}).items()],
                }
                for text, top in case["tokens"]
            ],
        }

    def test_round_trip(self, tmp_path):
        inp = tmp_path / "transcripts.jsonl"
        out = tmp_path / "features.jsonl"
        cases = corpus.ANCHORED[:3] + corpus.FAILURE[:1]
        self._write_lines(inp, [self._case_to_json(c) for c in cases])
        summary = extract_file(inp, out, SCALE)
        assert summary.n_records == 4
        assert summary.n_ok == 3
        assert summary.n_failed == 1
        assert summary.stage_counts == {"anchored": 3}
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        for row, case in zip(rows, cases):
            assert row["sample_id"] == case["id"]
            assert row["extracted_score"] == case["expect_score"]
            assert row["stage"] == "anchored"
            assert len(row["features"]) == 5

    def test_malformed_line_collected(self, tmp_path):
        inp = tmp_path / "t.jsonl"
        out = tmp_path / "f.jsonl"
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps(self._case_to_json(corpus.ANCHORED[0])) + "\n")
        summary = extract_file(inp, out, SCALE)
        assert summary.n_ok == 1
        assert len(summary.parse_errors) == 1
        assert summary.parse_errors[0][0] == 1

    def test_all_unusable_rejected(self, tmp_path):
        inp = tmp_path / "t.jsonl"
        out = tmp_path / "f.jsonl"
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write("{}\n{}\n")
        with pytest.raises(DataError):
            extract_file(inp, out, SCALE)

    def test_nan_marker_round_trip(self, tmp_path):
        inp = tmp_path / "t.jsonl"
        out = tmp_path / "f.jsonl"
        obj = {
            "sample_id": "nan1",
            "tokens": [
                {"text": "Score:", "logprob": -0.1, "top_k": []},
                {"text": "4", "logprob": -0.2,
                 "top_k": [["4", None], ["3", -2.0]]},
            ],
            "declared_score": 4,
        }
        self._write_lines(inp, [obj])
        summary = extract_file(inp, out, SCALE)
        assert summary.n_ok == 1
        row = json.loads(out.read_text().splitlines()[0])
        assert row["features"][3] == -100.0  # NaN-marked logprob filled


def test_parse_record_errors():
    with pytest.raises(DataError):
        parse_record({"tokens": []})
    with pytest.raises(DataError):
        parse_record({"sample_id": "x"})


def test_import_loads_no_conformal_layer():
    """Importing extraction leaves the learners, methods and harness unloaded."""
    import os
    import subprocess
    import sys

    import scorebands

    heavy = ("scorebands.conformal", "scorebands.learners", "scorebands.harness",
             "scorebands.metrics")
    code = (
        "import sys, scorebands.extract; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(scorebands.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.strip() == "[]"
