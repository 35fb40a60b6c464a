"""Paper-shape gate: the paper's three findings, on closed-form oracles.

Three `peaked_logprob` batches that differ only in label noise (0.1, 0.35,
0.7) form the Mondrian groups easy, medium and hard, as in the
`mondrian_diagnostics` bench input. Every method runs once on one seeded
split with a small training budget, and each finding is checked per method
against what the oracle's true 90 % central label sets
(`SyntheticOracle.lower`/`upper`) show on the same samples:

(a) task-dependent width: mean adjusted width orders easy < medium < hard;
(b) annotation quality: the hard/easy width ratio sits near the oracle's;
(c) ranking-scoring decoupling: `metrics.rsg` is > 0 on the hard group and
    not on the easy one.

The tolerances below were fixed from the oracle alone, before any method was
run. On these samples (seeds 20-22, 1200 each) the oracle reads:

    group   noise  width  labels  Kendall(latent, gt)  rsg
    easy    0.10   0.00   1.00    0.98                 -0.03
    medium  0.35   1.03   2.03    0.91                 +0.17
    hard    0.70   1.53   2.53    0.85                 +0.23

The easy group's true sets hold one label, so a ratio of widths would divide
by zero; (b) compares the number of labels an interval covers (width + 1)
instead. Outward adjustment can add up to one label at each end of an
interval, so the band is a factor of 2 around the oracle's ratio of 2.53.
"""

from dataclasses import replace

import numpy as np
import pytest

from scorebands.conformal import (
    BUILTIN_PARTITIONS,
    METHOD_NAMES,
    MethodConfig,
    Split,
    adjust_all,
    run_mondrian,
)
from scorebands.core import Batch, RatingScale, make_split
from scorebands.harness import SyntheticSpec, generate_synthetic
from scorebands.learners import TrainConfig
from scorebands.metrics import interval_metrics, kendall_tau_b, rsg

SCALE = RatingScale()
ALPHA = 0.1
GROUPS = {"easy": 0.1, "medium": 0.35, "hard": 0.7}
N_PER_GROUP = 1200
RATIO_BAND = 2.0  # the method's label-count ratio lies in [r / 2, 2 r]
CONFIG = MethodConfig(
    train=TrainConfig(epochs=60, batch_size=128, learning_rate=0.05),
    boost_rounds=60,
)

# Methods that break a finding, by (method, check), with the reason. These
# are findings about the methods, not about the gate: each broke its check
# at the default training budget too.
_WIDE_EASY = (
    "the easy group's raw intervals are too wide: rsg > 0 there, since a "
    "raw width above (1 - tau_b) * (K - 1) beats the ranking, where the "
    "oracle's sets hold one label"
)
_FLAT_RATIO = (
    "intervals barely widen with label noise: the hard/easy label-count "
    "ratio falls below half the oracle's"
)
KNOWN_BREAKS: dict[tuple[str, str], str] = {
    ("boosted_cqr", "order"): "boosted CQR gives the easy group wider "
    "intervals than the medium one",
    **{(m, "ratio"): _FLAT_RATIO for m in ("cqr", "cqr_asym", "chr", "boosted_cqr")},
    **{
        (m, "rsg"): _WIDE_EASY
        for m in ("naive_split", "cqr", "cqr_asym", "chr", "boosted_cqr",
                  "boosted_lcp", "ordinal_aps")
    },
}


def _samples(first_seed):
    """The three groups, from generator seeds first_seed, +1 and +2."""
    parts, oracles = [], {}
    for i, (group, noise) in enumerate(GROUPS.items()):
        batch, oracle = generate_synthetic(
            SyntheticSpec(n=N_PER_GROUP, seed=first_seed + i, label_noise=noise)
        )
        parts.append(replace(
            batch,
            group=np.full(N_PER_GROUP, group, dtype=object),
            sample_id=np.char.add(f"{group}_", batch.sample_id.astype(str)).astype(object),
        ))
        oracles[group] = oracle
    return Batch.concat(parts), oracles


def measure(first_seed, split_seed):
    """Per group: the oracle's numbers, and every method's on the test set
    of the split seeded ``split_seed`` of the samples from generator seeds
    ``first_seed`` to ``first_seed + 2``."""
    samples, oracles = _samples(first_seed)
    cal_idx, test_idx = make_split(len(samples), 0.5, seed=split_seed)
    cal = samples[cal_idx]
    test = samples[test_idx]
    groups = np.array(test.group.tolist(), dtype=str)
    oracle = {}
    for group, o in oracles.items():
        width = o.upper - o.lower
        oracle[group] = {"width": float(width.mean()), "labels": float((width + 1).mean())}
    methods = {}
    split = Split(cal, test, ALPHA, SCALE, CONFIG)
    for name in METHOD_NAMES:
        result = run_mondrian(split, BUILTIN_PARTITIONS["by_group_tag"], name)
        ivs = adjust_all(result.intervals, SCALE, "outward")
        per_group = {}
        for group in GROUPS:
            idx = np.flatnonzero(groups == group)
            im = interval_metrics(ivs[idx], test.y[idx])
            tau = kendall_tau_b(result.y_hat[idx], test.y[idx])
            per_group[group] = {
                "width": im["width_adj"],
                "labels": im["width_adj"] + 1,
                "rsg": rsg(tau, im["width_raw"], SCALE),
            }
        methods[name] = per_group
    return oracle, methods


@pytest.fixture(scope="module")
def shape():
    return measure(20, 0)


# The three checks, each on the oracle's numbers and one method's.
def orders_easy_medium_hard(oracle, method):
    widths = [method[g]["width"] for g in GROUPS]
    return widths[0] < widths[1] < widths[2]


def ratio_near_oracle(oracle, method):
    expected = oracle["hard"]["labels"] / oracle["easy"]["labels"]
    got = method["hard"]["labels"] / method["easy"]["labels"]
    return expected / RATIO_BAND <= got <= expected * RATIO_BAND


def decouples_on_hard_only(oracle, method):
    return method["hard"]["rsg"] > 0 and not method["easy"]["rsg"] > 0


CHECKS = {"order": orders_easy_medium_hard, "ratio": ratio_near_oracle,
          "rsg": decouples_on_hard_only}


def _cases(check):
    return [
        pytest.param(
            name,
            marks=pytest.mark.xfail(reason=KNOWN_BREAKS[name, check])
            if (name, check) in KNOWN_BREAKS else (),
        )
        for name in METHOD_NAMES
    ]


def test_oracle_has_the_paper_shape(shape):
    """The fixed tolerances assume these oracle facts; if the generator
    changes, the tolerances must be fixed again."""
    oracle, _ = shape
    widths = [oracle[g]["width"] for g in GROUPS]
    assert widths == sorted(widths) and len(set(widths)) == 3
    assert oracle["easy"]["labels"] == 1.0


@pytest.mark.parametrize("name", _cases("order"))
def test_width_orders_easy_medium_hard(shape, name):
    oracle, methods = shape
    assert orders_easy_medium_hard(oracle, methods[name]), methods[name]


@pytest.mark.parametrize("name", _cases("ratio"))
def test_hard_easy_ratio_near_oracle(shape, name):
    oracle, methods = shape
    assert ratio_near_oracle(oracle, methods[name]), (methods[name], oracle)


@pytest.mark.parametrize("name", _cases("rsg"))
def test_ranking_decouples_from_width_on_hard_only(shape, name):
    oracle, methods = shape
    assert decouples_on_hard_only(oracle, methods[name]), methods[name]
