"""Turn recorded judge transcripts into score-token logprob features.

A transcript arrives pre-tokenized, each token carrying its own logprob and
the top-k alternatives at that position. Finding the score position uses
three stages, tried in order: the literal "Score:" anchor, a keyword
("score"/"rating") followed closely by a rating digit, and finally a backward
scan for the last rating-digit token.
"""

import functools
import json
import math

from .base import DataError, RatingScale, decoded_lines, tag_text, utf8_line

STAGE_ANCHORED = "anchored"
STAGE_KEYWORD = "keyword"
STAGE_BACKWARD = "backward"


class ExtractionFailure(Exception):
    """No rating label could be read off the transcript."""


# The failure reason of a rating digit that runs into adjacent digit tokens
# on a scale of ten or more labels: the top-k at a "1" cannot tell label 1
# from the first token of 10-19.
MULTI_TOKEN_LABEL = "multi-token label"
_DIGITS = frozenset("0123456789")

# The fixed formats of judge output: the stage-1 anchor, which may split
# across up to ANCHOR_SPAN tokens, the stage-2 keywords, and the token
# markers stripped before matching (sentence-piece, byte-BPE).
ANCHOR = "Score:"
ANCHOR_SPAN = 3
KEYWORDS = ("score", "rating")
MARKERS = ("▁", "Ġ")


class ExtractConfig:
    """The settings `scorebands extract` takes; immutable, the class
    attributes are the defaults."""

    window = 8  # tokens searched after a keyword for the digit
    floor = -11.5  # log(1e-5), for rating tokens absent from top-k
    nan_fill = -100.0

    def __init__(self, window: int = window, floor: float = floor,
                 nan_fill: float = nan_fill) -> None:
        # A value written in place of a logprob must be one: finite and <= 0.
        # The message names the field and the CLI flag that sets it.
        for name, flag, value in (("floor", "--floor", floor),
                                  ("nan_fill", "--nan-fill", nan_fill)):
            if not -math.inf < value <= 0:  # also false for NaN
                raise ValueError(
                    f"{name} ({flag}) must be a finite log-probability <= 0, got {value}"
                )
        # A window below 1 would silently switch off the keyword stage; a
        # bool is not an integer.
        if type(window) is not int:
            raise ValueError(f"window (--window) must be an integer, got {window!r}")
        if window < 1:
            raise ValueError(f"window (--window) must be at least 1, got {window}")
        self.__dict__.update(window=window, floor=floor, nan_fill=nan_fill)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


def _sort_top_k(top_k) -> tuple[tuple[str, float], ...]:
    def key(pair):
        lp = pair[1]
        return (1, 0.0) if math.isnan(lp) else (0, -lp)

    return tuple(sorted(((t, float(lp)) for t, lp in top_k), key=key))


def _parse_logprob(value) -> float:
    if value is None:
        return math.nan
    return float(value)


def _check_logprobs(logprob: float, top_k_logprobs) -> None:
    """Each top-k logprob, then the token's own, must be <= 0 or NaN."""
    for lp in top_k_logprobs:
        if lp > 0:
            raise ValueError(f"top-k logprob must be <= 0, got {lp}")
    if logprob > 0:
        raise ValueError(f"logprob must be <= 0, got {logprob}")


class FeatureVector:
    """Ordered score-token log-probabilities, one block of K per judge.

    Entries must be finite and <= 0 (logs of probabilities). This is what
    extraction yields per record; samples themselves travel as rows of a
    :class:`~scorebands.core.Batch`.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[float, ...]) -> None:
        if not values:
            raise ValueError("feature vector must be non-empty")
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"feature entries must be finite, got {v}")
            if v > 0:
                raise ValueError(f"log-probabilities must be <= 0, got {v}")
        self.values = values

    def __len__(self) -> int:
        return len(self.values)


class TokenLogprobEntry:
    """One generated token with its logprob and top-k alternatives, the
    top-k sorted by logprob, highest first, NaN last, ties as listed."""

    __slots__ = ("token_text", "logprob", "top_k")

    def __init__(self, token_text: str, logprob: float,
                 top_k: tuple[tuple[str, float], ...] = ()) -> None:
        _check_logprobs(logprob, [lp for _, lp in top_k])
        self.token_text = token_text
        self.logprob = logprob
        self.top_k = _sort_top_k(top_k)


class ExtractionRecord:
    """One transcript as token columns: texts, logprobs, and the top-k
    (text, logprob) pairs as read, a None logprob standing for NaN.
    :func:`parse_record` checks every token; :func:`extract` builds the
    converted, checked and sorted entry of the score token alone."""

    __slots__ = ("sample_id", "texts", "logprobs", "top_k", "declared_score")

    def __init__(self, sample_id: str, texts: tuple[str, ...], logprobs: tuple[float, ...],
                 top_k: tuple, declared_score: int | None = None) -> None:
        if not texts:
            raise ValueError("transcript has no tokens")
        if not len(texts) == len(logprobs) == len(top_k):
            raise ValueError("token columns differ in length")
        self.sample_id = sample_id
        self.texts = texts
        self.logprobs = logprobs
        self.top_k = top_k  # each token's sequence of (text, logprob) pairs
        self.declared_score = declared_score

    def entry(self, i: int) -> TokenLogprobEntry:
        top_k = tuple((str(text), _parse_logprob(lp)) for text, lp in self.top_k[i])
        return TokenLogprobEntry(self.texts[i], self.logprobs[i], top_k)


class ExtractionResult:
    __slots__ = ("score_position", "stage_used", "features", "extracted_score",
                 "declared_mismatch")

    def __init__(self, score_position: int, stage_used: str, features: FeatureVector,
                 extracted_score: int, declared_mismatch: bool = False) -> None:
        self.score_position = score_position
        self.stage_used = stage_used
        self.features = features
        self.extracted_score = extracted_score
        self.declared_mismatch = declared_mismatch


def normalize_token(raw: str) -> str:
    """Strip leading whitespace and sentence-piece style markers."""
    if not (raw[:1].isspace() or raw.startswith(MARKERS)):
        return raw
    text = raw
    while True:
        stripped = text.lstrip()
        for marker in MARKERS:
            if stripped.startswith(marker):
                stripped = stripped[len(marker) :]
        if stripped == text:
            return text
        text = stripped


@functools.cache
def _rating_digits(scale: RatingScale) -> dict[str, int]:
    """Each rating label's token text, as a lookup table."""
    return {str(label): label for label in scale.labels}


def _whole_label(rec: ExtractionRecord, scale: RatingScale, j: int, stage: str):
    """(j, stage), unless K >= 10 and token j + 1 starts with a digit, or
    token j starts with one right after a token that ends with one."""
    texts = rec.texts
    if scale.k_max >= 10 and (
        (j + 1 < len(texts) and texts[j + 1][:1] in _DIGITS)
        or (j and texts[j][:1] in _DIGITS and texts[j - 1][-1:] in _DIGITS)
    ):
        raise ExtractionFailure(f"{MULTI_TOKEN_LABEL}: rating digit {texts[j]!r} at "
                                f"token {j} of {rec.sample_id!r} joins the digits next to it")
    return j, stage


def find_score_position(
    rec: ExtractionRecord,
    scale: RatingScale,
    cfg: ExtractConfig = ExtractConfig(),
) -> tuple[int, str]:
    """Locate the rating-digit token; returns (token index, stage name)."""
    digits = _rating_digits(scale)
    norm = [normalize_token(text) for text in rec.texts]
    n = len(norm)

    # Stage 1: literal anchor, possibly split across adjacent tokens and
    # tolerating a trailing space. Only the first anchor occurrence counts.
    # A match starts with a prefix of the anchor or the anchor itself.
    anchor_end = None
    for i, start in enumerate(norm):
        if not ANCHOR.startswith(start) and start.rstrip() != ANCHOR:
            continue
        cat = ""
        for w in range(min(ANCHOR_SPAN, n - i)):
            cat += norm[i + w]
            if cat.rstrip() == ANCHOR:
                anchor_end = i + w
                break
            if len(cat.rstrip()) >= len(ANCHOR):
                break
        if anchor_end is not None:
            break
    if anchor_end is not None:
        for j in range(anchor_end + 1, n):
            if norm[j] in digits:
                return _whole_label(rec, scale, j, STAGE_ANCHORED)

    # Stage 2: case-insensitive keyword followed by a digit within the window.
    for i, text in enumerate(norm):
        low = text.lower()
        for kw in KEYWORDS:
            if kw in low:
                break
        else:
            continue
        for j in range(i + 1, min(i + 1 + cfg.window, n)):
            if norm[j] in digits:
                return _whole_label(rec, scale, j, STAGE_KEYWORD)

    # Stage 3: backward scan for the last rating digit.
    for j in range(n - 1, -1, -1):
        if norm[j] in digits:
            return _whole_label(rec, scale, j, STAGE_BACKWARD)

    raise ExtractionFailure(
        f"no rating digit in transcript {rec.sample_id!r}"
    )


def build_feature_vector(
    entry: TokenLogprobEntry,
    scale: RatingScale,
    cfg: ExtractConfig = ExtractConfig(),
) -> FeatureVector:
    """Logprob of each rating token "1".."K" from the entry's top-k.

    Slot j always holds label j's logprob: a missing rating token, or one
    whose logprob is -inf, gets ``cfg.floor``, a NaN logprob gets
    ``cfg.nan_fill``, so the output is always finite.
    A label listed more than once takes its first pair in the sorted top-k.
    """
    digits = _rating_digits(scale)
    found: dict[int, float] = {}
    for text, lp in entry.top_k:
        label = digits.get(normalize_token(text))
        if label is not None:
            found.setdefault(label, lp)
    values = []
    for label in scale.labels:
        lp = found.get(label, -math.inf)  # absent: probability 0
        if lp == -math.inf:
            lp = cfg.floor
        values.append(cfg.nan_fill if math.isnan(lp) else float(lp))
    return FeatureVector(tuple(values))


def extract(
    rec: ExtractionRecord,
    scale: RatingScale,
    cfg: ExtractConfig = ExtractConfig(),
) -> ExtractionResult:
    pos, stage = find_score_position(rec, scale, cfg)
    entry = rec.entry(pos)
    features = build_feature_vector(entry, scale, cfg)
    score = _rating_digits(scale)[normalize_token(entry.token_text)]
    mismatch = rec.declared_score is not None and rec.declared_score != score
    return ExtractionResult(
        score_position=pos,
        stage_used=stage,
        features=features,
        extracted_score=score,
        declared_mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# Line-delimited transcript files.
# ---------------------------------------------------------------------------


def _declared_score(value) -> int | None:
    if value is None:
        return None
    if type(value) is bool or (type(value) is float and not value.is_integer()):
        raise ValueError(f"declared_score must be an integer, got {value!r}")
    return int(value)


def parse_record(obj: dict) -> ExtractionRecord:
    """One parsed transcript line as a record; raises DataError on the first
    fault. Token by token: its text, its logprob, each top-k pair's shape
    and logprob, then the <= 0 rule (see :func:`_check_logprobs`); then the
    sample id, the declared score, and at least one token."""
    nan = math.nan
    texts, logprobs, top_k = [], [], []
    try:
        for t in obj["tokens"]:
            texts.append(str(t["text"]))
            lp = t.get("logprob")
            lp = nan if lp is None else float(lp)
            pairs = t.get("top_k", ())
            _check_logprobs(lp, [nan if v is None else float(v) for _, v in pairs])
            logprobs.append(lp)
            top_k.append(pairs)
        return ExtractionRecord(
            sample_id=tag_text(obj["sample_id"], "sample_id"),
            texts=tuple(texts),
            logprobs=tuple(logprobs),
            top_k=tuple(top_k),
            declared_score=_declared_score(obj.get("declared_score")),
        )
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"bad transcript record: {exc}") from exc


class ExtractionSummary:
    __slots__ = ("n_records", "n_ok", "n_failed", "n_mismatch", "stage_counts", "failures",
                 "parse_errors")

    def __init__(self) -> None:
        self.n_records = self.n_ok = self.n_failed = self.n_mismatch = 0
        self.stage_counts: dict[str, int] = {}
        self.failures: list[tuple[str, str]] = []  # (sample id, reason)
        self.parse_errors: list[tuple[int, str]] = []  # (line number, message)


def extract_file(
    in_path,
    out_path,
    scale: RatingScale = RatingScale(),
    cfg: ExtractConfig = ExtractConfig(),
) -> ExtractionSummary:
    """Extract every transcript line; failures are flagged and skipped.

    A line that holds bytes that are not UTF-8 is a parse error.
    """
    summary = ExtractionSummary()
    with open(in_path, "rb") as fin, open(out_path, "w", encoding="utf-8") as fout:
        for line_no, line in enumerate(decoded_lines(fin), start=1):
            if isinstance(line, str) and not line.strip():
                continue
            summary.n_records += 1
            try:
                # ValueError also covers an integer too long to convert.
                rec = parse_record(json.loads(utf8_line(line)))
            except (ValueError, DataError) as exc:
                summary.parse_errors.append((line_no, str(exc)))
                continue
            try:
                result = extract(rec, scale, cfg)
            except ExtractionFailure as exc:
                summary.n_failed += 1
                summary.failures.append((rec.sample_id, str(exc)))
                continue
            summary.n_ok += 1
            summary.stage_counts[result.stage_used] = (
                summary.stage_counts.get(result.stage_used, 0) + 1
            )
            if result.declared_mismatch:
                summary.n_mismatch += 1
            fout.write(
                json.dumps(
                    {
                        "sample_id": rec.sample_id,
                        "features": list(result.features.values),
                        "extracted_score": result.extracted_score,
                        "stage": result.stage_used,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    if summary.n_records > 0 and summary.n_ok == 0 and summary.n_failed == 0:
        raise DataError(f"no parsable transcript lines in {in_path}")
    return summary
