"""Extraction tests: token normalization, the three-stage position heuristic,
feature building, and transcript file processing."""

import importlib.util
import inspect
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extraction_corpus as corpus
from scorebands import extract as extract_module
from scorebands.base import decoded_lines
from scorebands.cli import build_parser
from scorebands.core import DataError, RatingScale
from scorebands.extract import (
    MULTI_TOKEN_LABEL,
    ExtractConfig,
    ExtractionFailure,
    ExtractionRecord,
    FeatureVector,
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


def make_record(sample_id, tokens, declared=None):
    """A record from (text, top-k dict or None) pairs, each logprob -0.1."""
    return ExtractionRecord(
        sample_id=sample_id,
        texts=tuple(text for text, _ in tokens),
        logprobs=(-0.1,) * len(tokens),
        top_k=tuple(tuple((top or {}).items()) for _, top in tokens),
        declared_score=declared,
    )


def record(case):
    return make_record(case["id"], case["tokens"], case.get("declared"))


def plain(*texts):
    return make_record("x", [(text, None) for text in texts])


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
        rec = plain("rating", "2", "Score", ":", "4", "then", "5")
        pos, stage = find_score_position(rec, SCALE)
        assert (pos, stage) == (4, "anchored")

    def test_failure(self):
        rec = plain("no", "digits")
        with pytest.raises(ExtractionFailure):
            find_score_position(rec, SCALE)

    def test_window_is_configurable(self):
        rec = plain("score", "a", "b", "c", "4")
        pos, stage = find_score_position(rec, SCALE, ExtractConfig(window=8))
        assert stage == "keyword"
        narrow = ExtractConfig(window=2)
        pos, stage = find_score_position(rec, SCALE, narrow)
        assert stage == "backward"  # digit fell outside the keyword window


class TestFeatureVector:
    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            FeatureVector((0.5, -1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureVector((-1.0, math.nan))
        with pytest.raises(ValueError):
            FeatureVector((-1.0, -math.inf))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureVector(())

    def test_zero_allowed(self):
        fv = FeatureVector((0.0, -2.0, -3.0, -4.0, -5.0))
        assert len(fv) == 5


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

    def test_minus_inf_floored(self):
        top = {"4": -0.2, "3": -math.inf, "▁3": -math.inf, "5": -math.inf}
        fv = build_feature_vector(entry("4", top), SCALE, ExtractConfig(floor=-9.0))
        assert fv.values == (-9.0, -9.0, -9.0, -0.2, -9.0)
        # A finite pair of the same label still wins over -inf.
        fv = build_feature_vector(entry("4", {"3": -math.inf, "▁3": -7.0}), SCALE)
        assert fv.values[2] == -7.0

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
            floor: build_feature_vector(e, SCALE, ExtractConfig(floor=floor))
            for floor in (-9.0, -11.5, -15.0)
        }
        for floor, fv in vectors.items():
            assert fv.values[0] == floor and fv.values[4] == floor
            assert fv.values[1:4] == (-4.5, -2.2, -0.2)

    def test_duplicate_label_rule(self):
        # The highest logprob wins; an equal one (here 0.0 and -0.0, which
        # print differently) goes to the first listed; NaN only when no
        # number matches.
        def slot4(top):
            return build_feature_vector(entry("4", top), SCALE).values[3]

        assert slot4({"4": -2.0, "▁4": -1.0}) == -1.0
        assert math.copysign(1.0, slot4({"4": 0.0, "▁4": -0.0})) == 1.0
        assert math.copysign(1.0, slot4({"4": -0.0, "▁4": 0.0})) == -1.0
        assert slot4({"4": math.nan, "▁4": -3.0}) == -3.0
        assert slot4({"4": math.nan, "▁4": math.nan}) == -100.0

    @settings(max_examples=100, deadline=None)
    @given(
        present=st.lists(st.sampled_from(["1", "2", "3", "4", "5"]),
                         unique=True),
        lps=st.lists(
            st.one_of(st.floats(-30, 0, allow_nan=False), st.just(math.nan),
                      st.just(-math.inf)),
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
        with pytest.raises(ExtractionFailure):
            extract(plain("nope"), SCALE)


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
        with pytest.raises(ExtractionFailure):
            extract(make_record(case["id"], case["tokens"]), SCALE)

    @pytest.mark.parametrize("case", corpus.TEN_POINT, ids=lambda c: c["id"])
    def test_ten_point_case(self, case):
        result = extract(record(case), RatingScale(k_max=10))
        assert result.stage_used == case["expect_stage"]
        assert result.score_position == case["expect_pos"]
        assert result.extracted_score == case["expect_score"]

    @pytest.mark.parametrize("case", corpus.TEN_POINT_FAILURE, ids=lambda c: c["id"])
    def test_ten_point_split_label_fails(self, case):
        rec = make_record(case["id"], case["tokens"])
        with pytest.raises(ExtractionFailure, match=f"^{MULTI_TOKEN_LABEL}: "):
            extract(rec, RatingScale(k_max=10))
        # Below ten labels no label has two digits, so the rule is off.
        assert extract(rec, SCALE).extracted_score == 1


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
            ExtractionRecord(sample_id="e", texts=(), logprobs=(), top_k=())

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            ExtractionRecord(sample_id="r", texts=("4",), logprobs=(), top_k=((),))

    def test_score_entry_checked_and_sorted(self):
        rec = make_record("s", [("Score:", None), ("4", {"3": -2.2, "4": -0.2})])
        assert rec.entry(1).top_k == (("4", -0.2), ("3", -2.2))
        bad = make_record("b", [("Score:", None), ("4", {"4": 0.5})])
        with pytest.raises(ValueError, match="top-k logprob must be <= 0"):
            extract(bad, SCALE)


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


def test_out_of_range_numbers_are_line_errors(tmp_path):
    inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
    corpus.write_out_of_range(inp)
    summary = extract_file(inp, out, SCALE)
    assert summary.n_records == len(corpus.OUT_OF_RANGE_LINES)
    assert summary.n_ok == 1 and summary.n_mismatch == 0  # 4.0 declares 4
    want = [(n, frag) for n, (_, frag) in enumerate(corpus.OUT_OF_RANGE_LINES, 1) if frag]
    assert [n for n, _ in summary.parse_errors] == [n for n, _ in want]
    for (_, reason), (n, frag) in zip(summary.parse_errors, want):
        assert frag in reason, n


def test_minus_inf_top_k_logprob_gets_the_floor(tmp_path):
    inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
    corpus.write_minus_inf(inp)
    summary = extract_file(inp, out, SCALE)
    assert summary.n_ok == len(corpus.MINUS_INF_LINES) and not summary.parse_errors
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["features"] for row in rows] == [corpus.MINUS_INF_FEATURES] * 2


def test_line_not_utf8_is_a_parse_error(tmp_path):
    inp, out = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
    corpus.write_not_utf8(inp)
    summary = extract_file(inp, out, SCALE)
    assert summary.n_records == 4 and summary.n_ok == 3
    assert summary.parse_errors == [(2, corpus.NOT_UTF8_ERROR)]
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["sample_id"] for row in rows] == ["a", "c", "d"]


@pytest.mark.parametrize("field", ["floor", "nan_fill"])
@pytest.mark.parametrize("value", [1.0, 1e-300, math.nan, math.inf, -math.inf])
def test_fill_values_must_be_finite_logprobs(field, value):
    flag = "--" + field.replace("_", "-")
    message = rf"^{field} \({flag}\) must be a finite log-probability <= 0, got {value}$"
    with pytest.raises(ValueError, match=message):
        ExtractConfig(**{field: value})


@pytest.mark.parametrize("value", [0.0, -0.0, -1e308])
def test_fill_values_at_the_edges_are_accepted(value):
    cfg = ExtractConfig(floor=value, nan_fill=value)
    assert cfg.floor == value and cfg.nan_fill == value


class TestExtractConfig:
    DEFAULTS = {"window": 8, "floor": -11.5, "nan_fill": -100.0}

    def test_three_keyword_fields_and_their_defaults(self):
        cfg = ExtractConfig()
        for name, value in self.DEFAULTS.items():
            assert getattr(cfg, name) == value
            assert getattr(ExtractConfig, name) == value  # the class holds the defaults
        given = dict(window=4, floor=-3.0, nan_fill=-50.0)
        cfg = ExtractConfig(**given)
        assert {name: getattr(cfg, name) for name in given} == given
        assert vars(cfg) == given

    def test_fixed_formats_are_module_constants(self):
        assert extract_module.ANCHOR == "Score:"
        assert extract_module.ANCHOR_SPAN == 3
        assert extract_module.KEYWORDS == ("score", "rating")
        assert extract_module.MARKERS == ("▁", "Ġ")

    def test_unknown_keyword_is_type_error(self):
        with pytest.raises(TypeError):
            ExtractConfig(windw=3)

    @pytest.mark.parametrize("field, value", [("anchor", "Rating:"), ("anchor_span", 2),
                                              ("keywords", ("grade",)), ("markers", ("#",))])
    def test_fixed_format_is_not_a_setting(self, field, value):
        with pytest.raises(TypeError):
            ExtractConfig(**{field: value})

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_is_value_error(self, window):
        with pytest.raises(ValueError, match=rf"^window \(--window\) must be at least 1, "
                                             rf"got {window}$"):
            ExtractConfig(window=window)

    @pytest.mark.parametrize("window", [2.5, 8.0, True, "8", None])
    def test_window_not_an_integer_is_value_error(self, window):
        with pytest.raises(ValueError, match=rf"^window \(--window\) must be an integer, "
                                             rf"got {re.escape(repr(window))}$"):
            ExtractConfig(window=window)

    def test_immutable(self):
        cfg = ExtractConfig(window=4)
        with pytest.raises(AttributeError):
            cfg.window = 9
        with pytest.raises(AttributeError):
            del cfg.window
        assert cfg.window == 4

    def test_settings_are_the_extract_flags(self):
        # Each setting is set by a flag of `scorebands extract`, so no
        # setting is left that only a library caller could reach.
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {a.dest: a.default for a in sub.choices["extract"]._actions}
        for not_a_setting in ("help", "input", "out", "k_max"):
            del flags[not_a_setting]
        params = inspect.signature(ExtractConfig).parameters
        assert {name: p.default for name, p in params.items()} == flags


def reference_lines(path):
    """(line number, line) as the former text-mode reader gave them: the
    file opened as text with escaped bad bytes, and each non-ASCII line
    encoded again to find them. A bad line is its error message."""
    out = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    line = f"line is not UTF-8: {exc}"
            out.append((line_no, line))
    return out


def binary_lines(path):
    """(line number, line) from `decoded_lines`. A bad line is its error
    message."""
    with open(path, "rb") as fh:
        return [
            (line_no, str(line) if isinstance(line, DataError) else line)
            for line_no, line in enumerate(decoded_lines(fh), start=1)
        ]


class TestDecodedLines:
    """`decoded_lines` splits and numbers lines as text mode does, and names
    a bad line's first bad byte as the former reader did."""

    @pytest.mark.parametrize("data", [
        b'{"a": 1}\r\n{"b": 2}\r\n',
        b'{"a": \r\n{"b": \r',
        b'one\rtwo\r\nthree\nfour',
        b"\xef\xbb\xbf{}\nx\n",
        b"ok\n\xff\nok\r",
        b"ab\xe2\x82\r\ncd\xe2\x82",
        b"\r\r\n\n\r",
        b"\xc2\xa0\n\x0b\x0c\x1c\n\xc2\x85\n",
        b"\xef\xbb\xbf\xff\r\n",
        b"",
    ])
    def test_matches_text_mode(self, tmp_path, data):
        path = tmp_path / "lines.txt"
        path.write_bytes(data)
        assert binary_lines(path) == reference_lines(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        [b"a", b" ", b"\r", b"\n", b"\xff", b"\xe2", b"\x82", b"\xac", b"\xef\xbb\xbf",
         b"\xc2\xa0", b"\xe2\x80\xa8", b"\xed\xa0\x80"]), max_size=20))
    def test_property_matches_text_mode(self, tmp_path_factory, parts):
        path = tmp_path_factory.mktemp("lines") / "lines.txt"
        path.write_bytes(b"".join(parts))
        assert binary_lines(path) == reference_lines(path)


def test_parse_record_errors():
    with pytest.raises(DataError):
        parse_record({"tokens": []})
    with pytest.raises(DataError):
        parse_record({"sample_id": "x"})


def test_sample_id_is_text_or_a_number():
    """As load_samples reads a tag: a string as it is, a number as its
    decimal text, and anything else a parse error naming sample_id."""
    tokens = [{"text": "4", "logprob": -0.2}]
    for value, want in (("a", "a"), (7, "7"), (2.5, "2.5")):
        assert parse_record({"sample_id": value, "tokens": tokens}).sample_id == want
    for value in (None, {"a": 1}, ["a"], False):
        with pytest.raises(DataError, match="sample_id must be a string or a number"):
            parse_record({"sample_id": value, "tokens": tokens})


def test_import_loads_no_conformal_layer():
    """Importing extraction, or the errors and the scale from the package,
    leaves numpy, the array types, the learners, methods and harness
    unloaded."""
    import os
    import subprocess
    import sys

    import scorebands

    heavy = ("numpy", "scorebands.core", "scorebands.conformal", "scorebands.learners",
             "scorebands.harness", "scorebands.metrics", "dataclasses", "inspect")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scorebands.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for statement in ("import scorebands.extract",
                      "from scorebands import RatingScale, DataError"):
        code = f"import sys; {statement}; print([m for m in {heavy!r} if m in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=env,
        )
        assert out.stdout.strip() == "[]", statement


# ---------------------------------------------------------------------------
# The former per-token path, kept as the oracle: one TokenLogprobEntry per
# token, each normalised and matched against str(label) on every call.
# ---------------------------------------------------------------------------

GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


@dataclass(frozen=True)
class ReferenceRecord:
    sample_id: str
    tokens: tuple
    declared_score: int | None = None


def _reference_logprob(value):
    return math.nan if value is None else float(value)


def reference_parse_record(obj):
    try:
        tokens = tuple(
            TokenLogprobEntry(
                token_text=str(t["text"]),
                logprob=_reference_logprob(t.get("logprob")),
                top_k=tuple(
                    (str(text), _reference_logprob(lp)) for text, lp in t.get("top_k", [])
                ),
            )
            for t in obj["tokens"]
        )
        declared = obj.get("declared_score")
        sample_id = str(obj["sample_id"])
        declared = int(declared) if declared is not None else None
        if not tokens:
            raise ValueError("transcript has no tokens")
        return ReferenceRecord(sample_id, tokens, declared)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad transcript record: {exc}") from exc


def reference_normalize_token(raw):
    text = raw
    while True:
        stripped = text.lstrip()
        for marker in ("▁", "Ġ"):
            if stripped.startswith(marker):
                stripped = stripped[len(marker) :]
        if stripped == text:
            return text
        text = stripped


def reference_digit_value(text, scale):
    for label in scale.labels:
        if text == str(label):
            return label
    return None


def reference_find_score_position(rec, scale, window=8):
    norm = [reference_normalize_token(t.token_text) for t in rec.tokens]
    n = len(norm)
    anchor_end = None
    for i in range(n):
        cat = ""
        for w in range(min(3, n - i)):
            cat += norm[i + w]
            if cat.rstrip() == "Score:":
                anchor_end = i + w
                break
            if len(cat.rstrip()) >= len("Score:"):
                break
        if anchor_end is not None:
            break
    if anchor_end is not None:
        for j in range(anchor_end + 1, n):
            if reference_digit_value(norm[j], scale) is not None:
                return j, "anchored"
    for i in range(n):
        low = norm[i].lower()
        if any(kw in low for kw in ("score", "rating")):
            for j in range(i + 1, min(i + 1 + window, n)):
                if reference_digit_value(norm[j], scale) is not None:
                    return j, "keyword"
    for j in range(n - 1, -1, -1):
        if reference_digit_value(norm[j], scale) is not None:
            return j, "backward"
    raise ExtractionFailure(f"no rating digit in transcript {rec.sample_id!r}")


def reference_build_feature_vector(entry, scale, floor=-11.5, nan_fill=-100.0):
    values = []
    for label in scale.labels:
        lp = None
        for text, cand in entry.top_k:
            if reference_normalize_token(text) == str(label):
                lp = cand
                break
        if lp is None:
            lp = floor
        elif math.isnan(lp):
            lp = nan_fill
        values.append(float(lp))
    return tuple(values)


def reference_outcome(obj, scale=SCALE, window=8):
    """("error", message), ("failed", sample id) or ("ok", position, stage,
    score, features as written, mismatch flag) by the former path, with the
    default floor and NaN fill."""
    try:
        rec = reference_parse_record(obj)
    except DataError as exc:
        return ("error", str(exc))
    try:
        pos, stage = reference_find_score_position(rec, scale, window)
    except ExtractionFailure:
        return ("failed", rec.sample_id)
    entry = rec.tokens[pos]
    features = reference_build_feature_vector(entry, scale)
    score = reference_digit_value(reference_normalize_token(entry.token_text), scale)
    mismatch = rec.declared_score is not None and rec.declared_score != score
    return ("ok", pos, stage, score, json.dumps(features), mismatch)


def outcome(obj, scale=SCALE, cfg=ExtractConfig()):
    try:
        rec = parse_record(obj)
    except DataError as exc:
        return ("error", str(exc))
    try:
        result = extract(rec, scale, cfg)
    except ExtractionFailure:
        return ("failed", rec.sample_id)
    return ("ok", result.score_position, result.stage_used, result.extracted_score,
            json.dumps(result.features.values), result.declared_mismatch)


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReferenceOracle:
    """The columnar path extracts what the former per-token path did."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_benchmark_transcripts(self, gen, tmp_path, seed):
        path = tmp_path / "transcripts.jsonl"
        planted = gen.write_transcripts(path, seed, n=300)
        seen = {"ok": 0, "failed": 0, "error": 0}
        lines = path.read_text(encoding="utf-8").splitlines()
        for line_no, line in enumerate(lines, start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            got = outcome(obj)
            assert got == reference_outcome(obj), line_no
            seen[got[0]] += 1
        # Each of the generator's faulty lines carries a single fault.
        assert all(seen.values()), seen
        assert sum(p["outcome"] == "ok" for p in planted) == seen["ok"]

    def test_file_summary(self, gen, tmp_path):
        path = tmp_path / "transcripts.jsonl"
        gen.write_transcripts(path, 5, n=300)
        summary = extract_file(path, tmp_path / "features.jsonl", SCALE)
        want_errors, want_failed, want_rows = [], [], []
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
        for line_no, line in enumerate(lines, start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                want_errors.append((line_no, str(exc)))
                continue
            got = reference_outcome(obj)
            if got[0] == "error":
                want_errors.append((line_no, got[1]))
            elif got[0] == "failed":
                want_failed.append(got[1])
            else:
                want_rows.append(got)
        assert summary.parse_errors == want_errors
        assert [sid for sid, _ in summary.failures] == want_failed
        assert summary.n_ok == len(want_rows)
        assert summary.n_mismatch == sum(row[5] for row in want_rows)
        rows = [json.loads(x) for x in (tmp_path / "features.jsonl").read_text().splitlines()]
        assert [(r["stage"], r["extracted_score"], json.dumps(r["features"])) for r in rows] == [
            (w[2], w[3], w[4]) for w in want_rows
        ]


# Token texts: anchor pieces, keywords, rating digits with and without
# markers, non-rating numbers, empty and blank texts.
TEXTS = st.sampled_from(
    ["Score", ":", "Score:", "Sc", "ore", "S", "core:", ": ", " ", "", "▁Score",
     "Score: ", "rating", "RATING", "the", "x", "0", "6", "10", "1", "3", "5",
     " 2", "▁4", "Ġ5", " ▁1", "Ġ 3", "4 ", "\n5", "\t", "▁", "Ġ"]
)
TOP_TEXTS = st.sampled_from(["1", "2", "3", "4", "5", " 3", "▁4", "Ġ2", "x", "", "▁"])
TOP_LPS = st.sampled_from([-0.5, -0.5, -1.25, -3.0, 0.0, -0.0, None])


@st.composite
def transcript(draw):
    n = draw(st.integers(1, 14))
    tokens = []
    for _ in range(n):
        top = draw(st.lists(st.tuples(TOP_TEXTS, TOP_LPS), max_size=7))
        tokens.append({"text": draw(TEXTS), "logprob": draw(TOP_LPS),
                       "top_k": [list(pair) for pair in top]})
    obj = {"sample_id": "h", "tokens": tokens}
    declared = draw(st.sampled_from([None, 1, 2, 3, 4, 5, 7]))
    if declared is not None:
        obj["declared_score"] = declared
    # At most one fault, so the messages must agree too.
    fault = draw(st.sampled_from(
        [None] * 14 + ["positive", "top_positive", "no_text", "pair", "no_id", "empty"]
    ))
    i = draw(st.integers(0, n - 1))
    if fault == "positive":
        tokens[i]["logprob"] = 0.25
    elif fault == "top_positive":
        tokens[i]["top_k"].append(["2", 1.5])
    elif fault == "no_text":
        del tokens[i]["text"]
    elif fault == "pair":
        tokens[i]["top_k"].append(["3"])
    elif fault == "no_id":
        del obj["sample_id"]
    elif fault == "empty":
        obj["tokens"] = []
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=transcript(), window=st.integers(1, 8))
def test_matches_reference_on_generated_transcripts(obj, window):
    cfg = ExtractConfig(window=window)
    assert outcome(obj, SCALE, cfg) == reference_outcome(obj, SCALE, window)


@settings(max_examples=100, deadline=None)
@given(obj=transcript())
def test_matches_reference_on_a_three_point_scale(obj):
    scale = RatingScale(k_max=3)
    assert outcome(obj, scale) == reference_outcome(obj, scale)
