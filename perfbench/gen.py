"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and writes the files the program
reads. Nothing here imports scorebands, so a change to the program cannot
change the inputs it is measured on; the same seed always gives the same
bytes.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

K = 5  # rating scale 1..K, the program's default

# The paper's 14 MLLM-judge datasets under the builtin `mllm_difficulty`
# partition, with the label noise of the batch generated for each group.
DIFFICULTY_BATCHES = (
    ("easy", 0.1, ("AesBench", "MM-Vet", "WIT", "COCO")),
    (
        "medium",
        0.35,
        (
            "Mind2Web",
            "Conceptual Captions",
            "TextVQA",
            "LLaVA-Bench",
            "VisitBench",
            "ChartQA",
        ),
    ),
    ("hard", 0.7, ("ScienceQA", "MathVista", "DiffusionDB", "InfographicsVQA")),
)

# Extraction defaults documented for `scorebands extract`.
FLOOR = -11.5
NAN_FILL = -100.0


def peaked_logprob(
    rng: np.random.Generator, n: int, label_noise: float, logit_noise: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels drawn like `scorebands synth --generator peaked_logprob`.

    The draws happen in the same order as that generator (temperature 1,
    one K-wide feature block), so `np.random.default_rng(seed)` gives the
    same samples as `scorebands synth --seed <seed>`.
    """
    s_star = rng.integers(1, K + 1, size=n)
    tau = rng.uniform(0.5, 2.0, size=n)
    labels = np.arange(1, K + 1, dtype=np.float64)
    logits = -((labels[None, :] - s_star[:, None]) ** 2) / tau[:, None]
    soft = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    onehot = (labels[None, :] == s_star[:, None]).astype(np.float64)
    cond = (1.0 - label_noise) * onehot + label_noise * soft
    u = rng.random(n)
    gt = np.minimum((u[:, None] > np.cumsum(cond, axis=1)).sum(axis=1), K - 1) + 1
    noisy = np.log(np.maximum(cond, 1e-300))
    noisy = noisy + logit_noise * rng.standard_normal(noisy.shape)
    shifted = noisy - noisy.max(axis=1, keepdims=True)
    feats = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return feats, gt


def _sample_line(sample_id, dataset, gt, feats_row, group=None) -> str:
    obj = {
        "sample_id": sample_id,
        "judge": "synthetic",
        "dataset": dataset,
        "gt_score": int(gt),
        "logprobs": {str(j + 1): float(v) for j, v in enumerate(feats_row)},
    }
    if group is not None:
        obj["group"] = group
    return json.dumps(obj, sort_keys=True) + "\n"


def write_paper_samples(path, seed: int, n: int = 4000, label_noise: float = 0.35) -> int:
    """The paper-protocol input: n peaked_logprob samples."""
    feats, gt = peaked_logprob(np.random.default_rng(seed), n, label_noise)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(
                _sample_line(f"s{i:06d}", "synthetic_peaked_logprob", gt[i], feats[i])
            )
    return n


def write_difficulty_samples(path, seed: int, n_per_batch: int = 4000) -> int:
    """Three peaked_logprob batches, one per difficulty group.

    Each sample is tagged with one of its group's datasets, drawn with
    uneven seeded shares, and carries the group as its `group` field.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for b, (group, noise, datasets) in enumerate(DIFFICULTY_BATCHES):
            rng = np.random.default_rng([seed, b])
            feats, gt = peaked_logprob(rng, n_per_batch, noise)
            shares = rng.dirichlet(np.full(len(datasets), 1.5))
            picks = rng.choice(len(datasets), size=n_per_batch, p=shares)
            for i in range(n_per_batch):
                fh.write(
                    _sample_line(
                        f"{group}-{i:06d}", datasets[picks[i]], gt[i], feats[i], group
                    )
                )
    return len(DIFFICULTY_BATCHES) * n_per_batch


# ---------------------------------------------------------------------------
# Judge transcripts with planted extraction outcomes.
# ---------------------------------------------------------------------------

FILLER = (
    "The", "answer", "is", "clear", "and", "well", "organised", "but", "it",
    "misses", "a", "detail", "about", "the", "image", "caption", "response",
    "covers", "main", "points", "overall", "quality", "seems", "good",
    "mentions", "objects", "colours", "however", "lacks", "depth", "in",
    "places", ",", ".", "\n", "▁the", "Ġanswer", " text", "model", "output",
    "question", "asks", "for", "chart", "values", "correctly", "read", "to",
)
OTHER_NUMBERS = ("0", "6", "7", "10", "42", "100")  # never a rating label
ANCHORS = (
    ("Score", ":"),
    ("Score:",),
    ("Sc", "ore", ":"),
    ("▁Score", ":"),
    ("ĠScore", ":"),
    (" Score", ": "),
    ("Score", ":", " "),
)
# Keyword phrases; the digit follows the last token, within the 8-token window.
KEYWORD_PHRASES = (
    ("overall", "rating", "is"),
    ("I", "would", "score", "this", "answer", "at"),
    ("final", "score", "="),
    ("RATING", ":"),
    ("Score", "="),
    ("quality", "rating", "of"),
    ("▁rating", ":"),
    ("my", "score", "for", "this", "is", "a", "solid"),
)
NO_DIGIT_ENDINGS = (
    ("Score", ":", "N/A"),
    ("rating", "unavailable", "."),
    ("out", "of", "10"),
)
DIGIT_FORMS = ("{}", " {}", "▁{}", "Ġ{}")
STAGES = ("anchored", "keyword", "backward")


def _check_vocabulary() -> None:
    labels = {str(v) for v in range(1, K + 1)}
    for word in FILLER + OTHER_NUMBERS:
        low = word.lower()
        bare = word.strip().lstrip("▁Ġ")
        if "score" in low or "rating" in low or bare in labels:
            raise ValueError(f"filler token {word!r} would steer extraction")


_check_vocabulary()


class _TranscriptMaker:
    """Builds one transcript at a time from a seeded Python RNG.

    Ordinary tokens come from pools of pre-serialised token objects, so a
    5000-record file takes well under a second to write.
    """

    POOL_VARIANTS = 24  # serialised variants per ordinary token text

    def __init__(self, seed: int):
        self.rng = random.Random(f"extract_transcripts:{seed}")
        variants = range(self.POOL_VARIANTS)
        self.words = [self._dump(self.token(w)) for w in FILLER for _ in variants]
        self.numbers = [self._dump(self.token(w)) for w in OTHER_NUMBERS for _ in variants]
        self.digits = [
            self._dump(self.token(self.digit(d))) for d in range(1, K + 1) for _ in variants
        ]

    @staticmethod
    def _dump(obj) -> str:
        return json.dumps(obj, ensure_ascii=False)

    def _lp(self, scale: float = 1.5) -> float:
        return -self.rng.expovariate(1.0 / scale)

    def token(self, text: str) -> dict:
        rng = self.rng
        alts = rng.sample(FILLER, rng.randint(1, 3))
        top = [[text, self._lp(0.3)]] + [[a, self._lp(3.0)] for a in alts]
        return {"text": text, "logprob": top[0][1], "top_k": top}

    def digit(self, value: int) -> str:
        return self.rng.choice(DIGIT_FORMS).format(value)

    def filler(self, n: int, digits: bool) -> list[str]:
        """n serialised ordinary tokens; with `digits`, some are rating-digit distractors."""
        rng = self.rng
        out = []
        for _ in range(n):
            roll = rng.random()
            if digits and roll < 0.06:
                out.append(rng.choice(self.digits))
            elif roll < 0.1:
                out.append(rng.choice(self.numbers))
            else:
                out.append(rng.choice(self.words))
        return out

    def score_token(self, score: int) -> tuple[dict, list[float]]:
        """The rating token and the feature vector extraction must return."""
        rng = self.rng
        tau = rng.uniform(0.4, 3.0)
        logits = [-((j - score) ** 2) / tau + rng.gauss(0.0, 0.5) for j in range(1, K + 1)]
        top = max(logits)
        norm = top + math.log(sum(math.exp(v - top) for v in logits))
        logp = [v - norm for v in logits]
        top_k = []
        expected = []
        for label in range(1, K + 1):
            roll = rng.random()
            if roll < 0.08:  # absent from top-k: floor
                expected.append(FLOOR)
                continue
            if roll < 0.14:  # NaN logprob: NaN fill
                top_k.append([self.digit(label), None])
                expected.append(NAN_FILL)
                continue
            top_k.append([self.digit(label), logp[label - 1]])
            expected.append(logp[label - 1])
        for alt in rng.sample(FILLER, rng.randint(0, 2)):
            top_k.append([alt, self._lp(4.0) - 5.0])
        rng.shuffle(top_k)
        own = None if rng.random() < 0.05 else logp[score - 1]
        return {"text": self.digit(score), "logprob": own, "top_k": top_k}, expected

    def _line(self, head: dict, tokens: list[str]) -> str:
        return self._dump(head)[:-1] + ', "tokens": [' + ", ".join(tokens) + "]}"

    def record(self, sample_id: str, stage: str, length: int) -> tuple[str, dict]:
        """A transcript whose score position is found by `stage`."""
        rng = self.rng
        score = rng.randint(1, K)
        tok, features = self.score_token(score)
        if stage == "anchored":
            core = [self._dump(self.token(t)) for t in rng.choice(ANCHORS)]
        elif stage == "keyword":
            core = [self._dump(self.token(t)) for t in rng.choice(KEYWORD_PHRASES)]
        else:
            core = []
        n_post = rng.randint(1, 6)
        n_pre = max(0, length - len(core) - 1 - n_post)
        # Rating digits may precede the score everywhere; after it only
        # where an earlier stage has already fixed the position.
        tokens = self.filler(n_pre, digits=True) + core
        position = len(tokens)
        tokens += [self._dump(tok)] + self.filler(n_post, digits=stage != "backward")
        head = {"sample_id": sample_id}
        roll = rng.random()
        if roll < 0.15:
            head["declared_score"] = rng.choice([v for v in range(1, K + 1) if v != score])
        elif roll < 0.6:
            head["declared_score"] = score
        planted = {
            "outcome": "ok",
            "stage": stage,
            "position": position,
            "score": score,
            "features": features,
            "mismatch": roll < 0.15,
        }
        return self._line(head, tokens), planted

    def no_digit(self, sample_id: str, length: int) -> tuple[str, dict]:
        ending = self.rng.choice(NO_DIGIT_ENDINGS)
        tokens = self.filler(length - len(ending), digits=False)
        tokens += [self._dump(self.token(t)) for t in ending]
        return self._line({"sample_id": sample_id}, tokens), {"outcome": "no_digit"}

    def malformed(self, sample_id: str, length: int) -> tuple[str, dict]:
        rng = self.rng
        kind = rng.randrange(4)
        tokens = self.filler(length, digits=True)
        if kind == 0:  # cut mid-line: invalid JSON
            text = self._line({"sample_id": sample_id}, tokens)
            text = text[: len(text) // 2]
        elif kind == 1:  # no tokens field
            text = self._dump({"sample_id": sample_id})
        elif kind == 2:  # empty transcript
            text = self._line({"sample_id": sample_id}, [])
        else:  # a positive logprob
            tokens[rng.randrange(length)] = '{"text": "x", "logprob": 0.5, "top_k": []}'
            text = self._line({"sample_id": sample_id}, tokens)
        return text, {"outcome": "malformed"}


def write_transcripts(path, seed: int, n: int = 5000) -> list[dict]:
    """n judge transcripts of 60-70 tokens; returns the planted outcome per line.

    About 3 % have no rating digit and 3 % are malformed lines; the rest
    are spread evenly over the three score-position stages.
    """
    maker = _TranscriptMaker(seed)
    rng = maker.rng
    planted = []
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            sample_id = f"t{i:05d}"
            length = rng.randint(60, 70)
            roll = rng.random()
            if roll < 0.03:
                line, plan = maker.no_digit(sample_id, length)
            elif roll < 0.06:
                line, plan = maker.malformed(sample_id, length)
            else:
                line, plan = maker.record(sample_id, STAGES[i % 3], length)
            fh.write(line + "\n")
            plan["sample_id"] = sample_id
            plan["line"] = i + 1
            planted.append(plan)
    return planted
