"""Hand-built transcript corpus with expected extraction outcomes.

Every case fixes the tokens, the expected stage, the expected score-token
position, and the expected score. Cases are grouped by the stage that must
fire; failure cases must raise, mismatch cases must set the mismatch flag.

Token spec: (text, top) where top is a dict of top-k token -> logprob for
that position (None means the generic digit top-k).
"""

import json
import math

TOP_FULL = {"1": -6.0, "2": -4.5, "3": -2.2, "4": -0.2, "5": -5.0}
TOP_MISSING_1_AND_5 = {"2": -4.5, "3": -2.2, "4": -0.2}
TOP_NAN_4 = {"1": -6.0, "2": -4.5, "3": -2.2, "4": math.nan, "5": -5.0}
TOP_MARKED = {"▁1": -6.0, "▁2": -4.5, "▁3": -2.2, "▁4": -0.2,
              "▁5": -5.0}

FLOOR = -11.5
NAN_FILL = -100.0


def case(cid, stage, prefix, digit, suffix=(), declared=None, top=None,
         expect_features=None):
    top = TOP_FULL if top is None else top
    tokens = [(t, None) for t in prefix] + [(digit, top)] + [
        (t, None) for t in suffix
    ]
    digit_text = digit
    for marker in ("▁", "Ġ"):
        digit_text = digit_text.replace(marker, "")
    return {
        "id": cid,
        "tokens": tokens,
        "declared": declared,
        "expect_stage": stage,
        "expect_pos": len(prefix),
        "expect_score": int(digit_text.strip()),
        "expect_features": expect_features,
    }


FEATURES_FULL = (-6.0, -4.5, -2.2, -0.2, -5.0)
FEATURES_FLOORED = (FLOOR, -4.5, -2.2, -0.2, FLOOR)
FEATURES_NAN = (-6.0, -4.5, -2.2, NAN_FILL, -5.0)

ANCHORED = [
    case("a01", "anchored",
         ["The", "answer", "is", "good", ".", " ", "Score", ":"], " 4",
         expect_features=FEATURES_FULL),
    case("a02", "anchored", ["Score:"], "4"),
    case("a03", "anchored", ["Analysis", "done", "Score: "], "4"),
    case("a04", "anchored", ["Sc", "ore", ":"], " 5"),
    case("a05", "anchored", ["▁Score", ":"], "▁3"),
    case("a06", "anchored", ["Overall", ",", "Score", ":", " "], "2"),
    case("a07", "anchored", ["Score", ": "], "1"),
    case("a08", "anchored", ["I", "give", "Score", ":", "the", "value"], "4"),
    case("a09", "anchored", ["Score", ":", "x", "Score", ":"], "5"),
    case("a10", "anchored",
         ["Use", "Score", ":", "format", "answer", "now", "Score", ":"], "3"),
    case("a11", "anchored", ["Ġ", "ĠScore", ":"], "Ġ4"),
    case("a12", "anchored",
         ["step", "1", "shows", "2", "plus", "2", "equals", "4", ".",
          "Score", ":"], " 5"),
    case("a13", "anchored", ["score", "rating", "Score", ":"], "2"),
    case("a14", "anchored", [" Score", ":"], " 3"),
    case("a15", "anchored", ["Final", "verdict", "Score", ":", "\n"], "4",
         top=TOP_MISSING_1_AND_5, expect_features=FEATURES_FLOORED),
    case("a16", "anchored", ["Score", ":", ":"], "5"),
    case("a17", "anchored", ["assessment", ":", "Score", ":"], "1"),
    case("a18", "anchored", ["Score:", ""], "5"),
    case("a19", "anchored", ["Répondez", "Score", ":"], " 2"),
    case("a20", "anchored", ["Score", ":"], "3", suffix=["because", "reason"]),
]

KEYWORD = [
    case("k01", "keyword", ["the", "rating", "is"], "3", suffix=["."]),
    case("k02", "keyword", ["overall", "score", "of"], "4",
         expect_features=FEATURES_FULL),
    case("k03", "keyword", ["Rating"], "5"),
    case("k04", "keyword",
         ["I", "would", "score", "this", "answer", "at", "a", "solid"], "4"),
    case("k05", "keyword", ["RATING", ":"], "2"),
    case("k06", "keyword", ["the", "scores", "are", "in"], "1"),
    case("k07", "keyword", ["rating", "of", "the", "answer", "is", ":"], " 4"),
    case("k08", "keyword",
         ["quality", "rating", "follows", "after", "some", "more", "filler",
          "words", "here"], "3"),
    case("k09", "keyword", ["score"], "5"),
    case("k10", "keyword", ["the", "Rating", "of"], "2",
         suffix=["or", "maybe", "3"]),
    case("k11", "keyword", ["scored", "criteria", "met", ":"], "4"),
    case("k12", "keyword", ["assessment", "rating"], " 5"),
    case("k13", "keyword", ["answer", "quality", "score", "="], "3",
         top=TOP_NAN_4, expect_features=FEATURES_NAN),
    case("k14", "keyword",
         ["multi", "keyword", "score", "text", "rating", "then"], "2"),
    case("k15", "keyword", ["▁rating", ":"], "▁1"),
    case("k16", "keyword", ["rate", "this", "... rating", ":"], "4"),
    case("k17", "keyword", ["blah", "blah", "blah", "score"], "1"),
    case("k18", "keyword",
         ["The", "final", "rating", "for", "this", "response"], "5"),
    case("k19", "keyword", ["i", "score", "it"], "1"),
    case("k20", "keyword",
         ["score", "a", "b", "c", "d", "e", "f", "g", "h", "nothing",
          "rating", "is"], "4"),
]

BACKWARD = [
    case("b01", "backward",
         ["step", "2", "shows", "improvement", "overall"], "5"),
    case("b02", "backward", ["good", "answer"], "4",
         top=TOP_MARKED, expect_features=FEATURES_FULL),
    case("b03", "backward", [], "4"),
    case("b04", "backward", ["the", "answer", "is"], "3",
         suffix=["definitely"]),
    case("b05", "backward", ["1", "then", "2", "then"], "3"),
    case("b06", "backward", ["there", "are", "6", "items"], "5"),
    case("b07", "backward", ["out", "of", "range", "0", "then"], "2"),
    case("b08", "backward", [], "▁4"),
    case("b09", "backward", ["I", "d", "say"], " 5"),
    case("b10", "backward", ["42", "isn't", "one", "digit"], "4"),
    case("b11", "backward", ["6", "7", "8"], "1"),
    case("b12", "backward", ["final"], "2", suffix=["."]),
    case("b13", "backward", ["try", "3", "no", "4", "maybe"], "5"),
    case("b14", "backward", ["response", "lacks", "detail"], "2"),
    case("b15", "backward", ["ok", "then"], "Ġ3"),
    case("b16", "backward", ["hmm"], " 1"),
    case("b17", "backward", ["2", "filler"], "2"),
    case("b18", "backward", ["so"], "4", suffix=["!", "done"]),
    case("b19", "backward", [], "5",
         suffix=["trailing", "words", "without", "digits"]),
    case("b20", "backward", ["numbers", "lie"], "1", suffix=["sometimes"]),
]

MISMATCH = [
    case("m01", "anchored", ["Score", ":"], " 4", declared=5),
    case("m02", "keyword", ["the", "rating", "is"], "3", declared=3),
    case("m03", "backward", ["plain", "text"], "3", declared=2),
]

FAILURE = [
    {"id": "f01", "tokens": [(t, None) for t in
                             ["no", "digits", "here", "at", "all"]]},
    {"id": "f02", "tokens": [(t, None) for t in
                             ["only", "6", "and", "0", "and", "42"]]},
    {"id": "f03", "tokens": [(t, None) for t in ["Score", ":", "N/A"]]},
]

CASES = ANCHORED + KEYWORD + BACKWARD + MISMATCH

# Ten-point scale (K = 10), where a label may take two digits. A rating
# digit split from adjacent digits fails the record as a multi-token label;
# a whole "10", or a "1" followed by a non-digit, extracts.
TEN_POINT = [
    case("t01", "anchored", ["Score", ":"], " 10"),
    case("t02", "backward", ["final", "mark"], "10", suffix=["."]),
    case("t03", "anchored", ["Score", ":"], " 1", suffix=["/", "10"]),
    case("t04", "keyword", ["the", "rating", "is"], "1", suffix=["."]),
]

TEN_POINT_FAILURE = [
    {"id": "tf01", "tokens": [(t, None) for t in ["Score", ":", " 1", "0"]]},
    {"id": "tf02", "tokens": [(t, None) for t in ["I", "give", "it", "1", "0"]]},
    {"id": "tf03", "tokens": [(t, None) for t in ["rating", "=", " 1", "0", "/10"]]},
    {"id": "tf04", "tokens": [(t, None) for t in ["so", " 1", "1"]]},
]


# Transcript lines with numbers out of range: each but the first is a parse
# error on its line, never a crash.
ANCHORED_TOKENS = json.dumps(
    [{"text": "Score:", "logprob": -0.1, "top_k": []},
     {"text": "4", "logprob": -0.2, "top_k": [["4", -0.2], ["3", -2.0]]}]
)
BIG = "1" + "0" * 400  # a JSON integer beyond float range
OUT_OF_RANGE_LINES = [
    # (line, fragment of its parse error; None for a kept line)
    ('{"sample_id": "a", "declared_score": 4.0, "tokens": ' + ANCHORED_TOKENS + "}", None),
    ('{"sample_id": "b", "tokens": [{"text": "4", "logprob": -' + BIG + "}]}",
     "int too large to convert to float"),
    ('{"sample_id": "c", "tokens": [{"text": "4", "top_k": [["4", -' + BIG + "]]}]}",
     "int too large to convert to float"),
    ('{"sample_id": "d", "declared_score": 1e400, "tokens": ' + ANCHORED_TOKENS + "}",
     "declared_score must be an integer, got inf"),
    ('{"sample_id": "e", "declared_score": true, "tokens": ' + ANCHORED_TOKENS + "}",
     "declared_score must be an integer, got True"),
    ('{"sample_id": "f", "declared_score": 3.7, "tokens": ' + ANCHORED_TOKENS + "}",
     "declared_score must be an integer, got 3.7"),
    ('{"sample_id": "g", "tokens": [{"text": "4", "logprob": -1' + "0" * 5000 + "}]}",
     "Exceeds the limit (4300 digits)"),
]


def write_out_of_range(path):
    path.write_text("".join(line + "\n" for line, _ in OUT_OF_RANGE_LINES), encoding="utf-8")


# A rating token whose top-k logprob is -inf, written as -Infinity or as
# -1e400 (beyond float range): its slot gets the floor, like a missing one.
MINUS_INF_TOKENS = [
    {"text": "Score:", "logprob": -0.1, "top_k": []},
    {"text": "4", "logprob": -0.2, "top_k": [["4", -0.2], ["3", -math.inf]]},
]
MINUS_INF_LINES = [
    '{"sample_id": "i1", "tokens": ' + json.dumps(MINUS_INF_TOKENS) + "}",
    '{"sample_id": "i2", "tokens": '
    + json.dumps(MINUS_INF_TOKENS).replace("-Infinity", "-1e400") + "}",
]
MINUS_INF_FEATURES = [-11.5, -11.5, -11.5, -0.2, -11.5]


def write_minus_inf(path):
    path.write_text("".join(line + "\n" for line in MINUS_INF_LINES), encoding="utf-8")


# Line 2 holds a byte that is not UTF-8, and a lone "\r" ends line 3: line 2
# is a parse error, and lines 1, 3 and 4 are extracted.
NOT_UTF8_ERROR = (
    "line is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 16: "
    "invalid start byte"
)


def write_not_utf8(path):
    def line(sample_id: bytes) -> bytes:
        return b'{"sample_id": "' + sample_id + b'", "tokens": ' + ANCHORED_TOKENS.encode() + b"}"

    path.write_bytes(
        line(b"a") + b"\n" + line(b"b\xff") + b"\n" + line(b"c") + b"\r" + line(b"d") + b"\r\n"
    )
