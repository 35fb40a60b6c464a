"""The paper-shape gate's three findings across five splits, not one.

`test_paper_shape` checks each finding on one seeded split, and a verdict
on one split can flip on the next. This companion runs the same checks,
with the same tolerances and training budget, on five (generator seed,
split seed) pairs other than the gate's. Generator seeds g, g + 1 and
g + 2 make the easy, medium and hard groups. A check passes when it holds
on at least four of the five pairs. The pairs and that threshold were fixed
before any method was run.
"""

from collections import Counter

import pytest

from scorebands.conformal import METHOD_NAMES
from test_paper_shape import CHECKS, GROUPS, measure

PAIRS = ((40, 0), (60, 1), (80, 2), (100, 3), (120, 4))
MIN_PASSES = 4

# Checks that hold on fewer than MIN_PASSES pairs, with the reason.
_WIDE_EASY = (
    "the easy group's raw intervals are too wide on most splits: rsg > 0 "
    "there, where the oracle's sets hold one label"
)
KNOWN_BREAKS: dict[tuple[str, str], str] = {
    ("chr", "ratio"): "chr's intervals barely widen with label noise: the "
    "hard/easy label-count ratio falls below half the oracle's on every split",
    **{(m, "rsg"): _WIDE_EASY
       for m in ("naive_split", "cqr", "cqr_asym", "chr", "boosted_cqr",
                 "boosted_lcp", "ordinal_aps")},
    ("r2ccp", "rsg"): "r2ccp's hard-group rsg is at most 0 on two of the five splits",
    ("boosted_cqr", "order"): "boosted CQR gives the easy group wider "
    "intervals than the medium one on every split",
    ("boosted_cqr", "ratio"): "boosted CQR's hard/easy label-count ratio "
    "falls below half the oracle's on every split",
}


@pytest.fixture(scope="module")
def across_splits():
    """Every pair's oracle numbers, and per (method, check) the number of
    pairs on which the check holds."""
    oracles, passes = [], Counter()
    for first_seed, split_seed in PAIRS:
        oracle, methods = measure(first_seed, split_seed)
        oracles.append(oracle)
        for name, per_group in methods.items():
            for check, holds in CHECKS.items():
                passes[name, check] += holds(oracle, per_group)
    return oracles, passes


def test_oracle_has_the_paper_shape_on_every_pair(across_splits):
    oracles, _ = across_splits
    for oracle in oracles:
        widths = [oracle[g]["width"] for g in GROUPS]
        assert widths == sorted(widths) and len(set(widths)) == 3
        assert oracle["easy"]["labels"] == 1.0


@pytest.mark.parametrize("name, check", [
    pytest.param(
        name, check,
        marks=pytest.mark.xfail(reason=KNOWN_BREAKS[name, check])
        if (name, check) in KNOWN_BREAKS else (),
    )
    for check in CHECKS for name in METHOD_NAMES
])
def test_finding_holds_on_most_splits(across_splits, name, check):
    _, passes = across_splits
    assert passes[name, check] >= MIN_PASSES, passes[name, check]
