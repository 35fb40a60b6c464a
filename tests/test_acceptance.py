"""Acceptance suite.

Each test is one acceptance criterion, printed as a PASS/FAIL line with the
measured values (run pytest with -s or -v to see them live). Monte-Carlo
criteria use the synthetic generators whose true conditional structure is
known in closed form; everything is seeded and deterministic.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import extraction_corpus as corpus
from scorebands.conformal import (
    BUILTIN_PARTITIONS,
    MethodConfig,
    adjust_all,
    conformal_quantile,
    run_method,
    run_mondrian,
)
from scorebands.core import Intervals, RatingScale, make_split
from scorebands.extract import ExtractionRecord, TokenLogprobEntry, extract
from scorebands.harness import (
    ExperimentConfig,
    SyntheticSpec,
    emit_report,
    generate_synthetic,
    run_experiment,
)
from scorebands.learners import (
    TrainConfig,
    pinball_gradient,
    pinball_loss,
    absolute_gradient,
    absolute_loss,
)
from scorebands.learners.nets import (
    flatten_params,
    init_params,
    loss_and_grads,
    pinball_head,
    softmax_ce_head,
    squared_head,
    unflatten_params,
)
from scorebands.metrics import correlations, coverage, rsg

SCALE = RatingScale()
ALPHA = 0.10

MC_TRAIN = TrainConfig(epochs=150, batch_size=128, learning_rate=0.05)
MC_CONFIG = MethodConfig(train=MC_TRAIN, boost_rounds=200, boost_rate=0.2)

COVERAGE_METHODS = (
    "naive_split",
    "cqr",
    "cqr_asym",
    "chr",
    "lvd",
    "r2ccp",
    "boosted_cqr",
    "boosted_lcp",
)


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _mc_split(seed, n=4000, **spec_kwargs):
    spec = SyntheticSpec(
        n=n, seed=100 + seed, label_noise=0.35, temperature=1.0,
        logit_noise=0.5, **spec_kwargs,
    )
    samples, _ = generate_synthetic(spec)
    plan = make_split(n, 0.5, seed)
    cal = samples[np.array(plan.cal_indices)]
    test = samples[np.array(plan.test_indices)]
    return cal, test, test.y


def test_criterion_01_conformal_quantile_oracle():
    """Quantile rule matches a counting oracle for all n in 1..200."""

    def oracle(scores, alpha):
        arr = np.sort(np.asarray(scores))
        need = Fraction(len(arr) + 1) * (1 - Fraction(alpha))
        for q in arr:
            count = int(np.searchsorted(arr, q, side="right"))
            if Fraction(count) >= need:
                return float(q)
        return math.inf

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    mismatches = 0
    for n in range(1, 201):
        scores = np.round(rng.normal(size=n) * 10, 2)  # duplicates likely
        for alpha in (0.05, 0.1, 0.2):
            if conformal_quantile(scores, alpha) != oracle(scores, alpha):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "conformal quantile oracle equivalence",
        mismatches == 0 and elapsed < 1.0,
        f"(mismatches={mismatches}, runtime={elapsed:.2f}s)",
    )


def test_criterion_02_marginal_coverage_all_methods():
    """All interval methods hit [0.88, 0.92] mean raw coverage; the ordinal
    set method is conservative (>= 0.90). 2000/2000 split, 10 seeds."""
    start = time.perf_counter()
    per_seed: dict[str, list[float]] = {m: [] for m in COVERAGE_METHODS}
    per_seed["ordinal_aps"] = []
    for seed in range(10):
        cal, test, gts = _mc_split(seed)
        cache: dict = {}
        for method in per_seed:
            res = run_method(method, cal, test, ALPHA, SCALE, MC_CONFIG, cache)
            per_seed[method].append(coverage(res.intervals, gts))
    elapsed = time.perf_counter() - start
    means = {m: float(np.mean(v)) for m, v in per_seed.items()}
    ok = all(0.88 <= means[m] <= 0.92 for m in COVERAGE_METHODS)
    ok = ok and means["ordinal_aps"] >= 0.90
    ok = ok and elapsed < 300.0
    detail = " ".join(f"{m}={means[m]:.3f}" for m in means)
    _criterion(
        2,
        "marginal coverage guarantee",
        ok,
        f"({detail}, runtime={elapsed:.0f}s)",
    )


def test_criterion_03_boundary_adjustment_monotone():
    """10^5 random intervals: adjustment never loses coverage or width."""
    rng = np.random.default_rng(1)
    n = 100_000
    lo = rng.uniform(1.0, 5.0, n)
    width = rng.uniform(0.0, 4.0, n)
    hi = np.minimum(lo + width, 5.0)
    gts = rng.integers(1, 6, n)
    violations = 0
    for i in range(n):
        row = Intervals([float(lo[i])], [float(hi[i])])
        raw, adj = row[0], adjust_all(row, SCALE)[0]
        raw_covers = raw.contains(float(gts[i]))
        adj_covers = adj.contains_adjusted(int(gts[i]))
        if raw_covers and not adj_covers:
            violations += 1
        if adj.adj_width < raw.width - 1e-12:
            violations += 1
    _criterion(
        3,
        "boundary adjustment expansion monotonicity",
        violations == 0,
        f"(violations={violations} over {n} intervals)",
    )


def test_criterion_04_rsg_reproduction():
    """Published (rho, width) pairs reproduce the reported gap values."""
    cases = [
        (0.507, 3.08, 0.276),  # chart reasoning: ranks well, scores poorly
        (0.411, 3.50, 0.287),  # infographics
        (0.164, 2.38, -0.242),  # encyclopedic lookup: opposite profile
    ]
    errs = [abs(rsg(rho, w, SCALE) - want) for rho, w, want in cases]
    ok = all(e <= 0.005 for e in errs)
    _criterion(
        4,
        "ranking-scoring gap formula reproduction",
        ok,
        "(errors=" + ", ".join(f"{e:.4f}" for e in errs) + ")",
    )


def test_criterion_05_mondrian_adaptation():
    """Group-conditional calibration: both groups covered, low-noise group
    at least 10% narrower than the global quantile gives it."""
    cfg = MethodConfig(
        train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1)
    )
    part = BUILTIN_PARTITIONS["by_group_tag"]
    cov_low, cov_high, w_mond, w_glob = [], [], [], []
    for seed in range(10):
        cal, test, gts = _mc_split(
            seed, generator="heteroscedastic_groups", sigma=0.25, sigma_ratio=3.0
        )
        res_m = run_mondrian(cal, test, ALPHA, part, "naive_split", SCALE, cfg)
        res_g = run_method("naive_split", cal, test, ALPHA, SCALE, cfg)
        low = [i for i, g in enumerate(test.group) if g == "low"]
        high = [i for i, g in enumerate(test.group) if g == "high"]
        cov_low.append(coverage(res_m.intervals[low], gts[low]))
        cov_high.append(coverage(res_m.intervals[high], gts[high]))
        w_mond.append(np.mean([res_m.intervals[i].width for i in low]))
        w_glob.append(np.mean([res_g.intervals[i].width for i in low]))
    mean_low, mean_high = float(np.mean(cov_low)), float(np.mean(cov_high))
    shrink = 1.0 - float(np.mean(w_mond)) / float(np.mean(w_glob))
    ok = 0.87 <= mean_low <= 0.93 and 0.87 <= mean_high <= 0.93 and shrink >= 0.10
    _criterion(
        5,
        "group-conditional adaptation",
        ok,
        f"(cov_low={mean_low:.3f}, cov_high={mean_high:.3f}, "
        f"easy-group narrowing={shrink:.1%})",
    )


def test_criterion_06_degenerate_collapse():
    """Uninformative features: quantile-regression and ordinal-set methods
    collapse to near-full-range, near-certain intervals."""
    stats = {m: {"cov": [], "w": []} for m in ("cqr", "ordinal_aps")}
    for seed in range(3):
        # label_noise 1 plus infinite temperature flattens the conditional
        # to exactly uniform, and zero logit noise makes the features exactly
        # constant: gt is independent of the features, quantile fits are
        # constant, and the nonconformity scores become atomic, which is the
        # collapse mechanism (quantile overshoot onto an atom, so the
        # corrected band swallows the whole scale).
        spec = SyntheticSpec(
            n=3000, seed=200 + seed, label_noise=1.0, temperature=math.inf,
            logit_noise=0.0,
        )
        samples, _ = generate_synthetic(spec)
        plan = make_split(3000, 0.5, seed)
        cal = samples[np.array(plan.cal_indices)]
        test = samples[np.array(plan.test_indices)]
        gts = test.y
        cache: dict = {}
        for method in stats:
            res = run_method(method, cal, test, ALPHA, SCALE, MC_CONFIG, cache)
            stats[method]["cov"].append(coverage(res.intervals, gts))
            stats[method]["w"].append(
                np.mean([iv.width for iv in res.intervals])
            )
    means = {
        m: (float(np.mean(v["cov"])), float(np.mean(v["w"])))
        for m, v in stats.items()
    }
    ok = all(cov > 0.99 and w > 3.8 for cov, w in means.values())
    detail = " ".join(
        f"{m}: cov={cov:.3f} width={w:.2f}" for m, (cov, w) in means.items()
    )
    _criterion(6, "degeneracy on uninformative features", ok, f"({detail})")


def test_criterion_07_gradient_checks():
    """Every trainable loss head passes central finite differences on 20
    random small instances (max relative error < 1e-4)."""
    rng = np.random.default_rng(2)
    worst = 0.0

    def fd_max_err(params, X, target, head, eps=1e-4):
        _, grads = loss_and_grads(params, X, target, head)
        flat = flatten_params(params)
        analytic = flatten_params(grads)
        numeric = np.empty_like(flat)
        for i in range(len(flat)):
            up, dn = flat.copy(), flat.copy()
            up[i] += eps
            dn[i] -= eps
            lu, _ = loss_and_grads(unflatten_params(up, params), X, target, head)
            ld, _ = loss_and_grads(unflatten_params(dn, params), X, target, head)
            numeric[i] = (lu - ld) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        return float(np.max(np.abs(analytic - numeric) / denom))

    heads = [
        ("grid softmax", 9, softmax_ce_head,
         lambda: rng.integers(0, 9, 10)),
        ("point mean", 1, squared_head, lambda: rng.uniform(1, 5, 10)),
        ("local scale", 1, squared_head, lambda: rng.uniform(0.1, 2, 10)),
        ("quantile lo", 1, pinball_head(0.05), lambda: rng.uniform(1, 5, 10)),
        ("quantile hi", 1, pinball_head(0.95), lambda: rng.uniform(1, 5, 10)),
    ]
    for _, out_dim, head, make_target in heads:
        for _ in range(20):
            params = init_params([3, 8, 6, out_dim], rng)
            X = rng.normal(size=(10, 3))
            worst = max(worst, fd_max_err(params, X, make_target(), head))

    # Boosting losses: check the pseudo-residuals against the loss slope.
    eps = 1e-4
    for _ in range(20):
        y = rng.uniform(1, 5, 30)
        pred = rng.uniform(1, 5, 30)
        for kind, tau in (("pinball", 0.05), ("pinball", 0.95), ("abs", None)):
            if kind == "pinball":
                g = pinball_gradient(y, pred, tau)
                loss = lambda p: pinball_loss(y, p, tau)
            else:
                g = absolute_gradient(y, pred)
                loss = lambda p: absolute_loss(y, p)
            for i in range(0, 30, 7):
                up, dn = pred.copy(), pred.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (loss(up) - loss(dn)) / (2 * eps)
                err = abs(-g[i] / len(y) - fd) / max(abs(fd), 1e-6)
                worst = max(worst, err)
    _criterion(
        7, "gradient correctness", worst < 1e-4, f"(max rel err={worst:.2e})"
    )


def test_criterion_08_correlation_oracles():
    """Pearson/Spearman/Kendall match O(n^2) enumeration to 1e-12 on 100
    tie-heavy integer vectors."""
    from test_metrics import kendall_oracle, pearson_oracle, spearman_oracle

    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 51))
        x = rng.integers(1, 6, n).astype(float)
        y = rng.integers(1, 6, n).astype(float)
        got = correlations(x, y)
        want = (pearson_oracle(x, y), spearman_oracle(x, y), kendall_oracle(x, y))
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                worst = max(worst, abs(g - w))
                checked += 1
    _criterion(
        8,
        "correlation oracle equivalence",
        worst <= 1e-12,
        f"(max abs err={worst:.2e} over {checked} comparisons)",
    )


def test_criterion_09_extraction_corpus():
    """The hand-built transcript corpus extracts with zero deviations."""

    def entry(text, top):
        return TokenLogprobEntry(
            token_text=text,
            logprob=-0.1,
            top_k=tuple((t, lp) for t, lp in (top or corpus.TOP_FULL).items()),
        )

    n_total = len(corpus.CASES) + len(corpus.FAILURE)
    wrong = []
    for case in corpus.CASES:
        rec = ExtractionRecord(
            sample_id=case["id"],
            tokens=tuple(entry(t, top) for t, top in case["tokens"]),
            declared_score=case.get("declared"),
        )
        result = extract(rec, SCALE)
        if (
            result.stage_used != case["expect_stage"]
            or result.score_position != case["expect_pos"]
            or result.extracted_score != case["expect_score"]
        ):
            wrong.append(case["id"])
    for case in corpus.FAILURE:
        rec = ExtractionRecord(
            sample_id=case["id"],
            tokens=tuple(entry(t, top) for t, top in case["tokens"]),
        )
        try:
            extract(rec, SCALE)
            wrong.append(case["id"])
        except Exception:
            pass
    stage_counts = {}
    for case in corpus.CASES:
        stage_counts[case["expect_stage"]] = (
            stage_counts.get(case["expect_stage"], 0) + 1
        )
    ok = (
        not wrong
        and n_total >= 60
        and all(stage_counts[s] >= 20 for s in ("anchored", "keyword", "backward"))
    )
    _criterion(
        9,
        "extraction fixture suite",
        ok,
        f"({n_total - len(wrong)}/{n_total} exact, per-stage={stage_counts})",
    )


def test_criterion_10_protocol_shape_and_seed_stability():
    """Benchmark-scale split arithmetic plus seed-count sweep stability."""
    plan = make_split(5717, 0.5, 0)
    split_ok = len(plan.cal_indices) == 2859 and len(plan.test_indices) == 2858

    cfg = MethodConfig(
        train=TrainConfig(epochs=40, batch_size=256, learning_rate=0.1)
    )
    spec = SyntheticSpec(n=4000, seed=500, label_noise=0.35, logit_noise=0.5)
    samples, _ = generate_synthetic(spec)
    covs = []
    for seed in range(30):
        plan = make_split(4000, 0.5, seed)
        cal = samples[np.array(plan.cal_indices)]
        test = samples[np.array(plan.test_indices)]
        res = run_method("naive_split", cal, test, ALPHA, SCALE, cfg)
        covs.append(coverage(res.intervals, test.y))
    checkpoints = [float(np.mean(covs[:k])) for k in (5, 10, 15, 20, 25, 30)]
    drift = max(checkpoints) - min(checkpoints)
    ok = split_ok and drift < 0.01
    _criterion(
        10,
        "protocol reproduction shape",
        ok,
        f"(split 2859/2858={split_ok}, sweep means="
        + "/".join(f"{c:.4f}" for c in checkpoints)
        + f", drift={drift:.4f})",
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    """Identical config and input bytes give byte-identical report files."""
    spec = SyntheticSpec(n=400, seed=600, label_noise=0.35)
    samples, _ = generate_synthetic(spec)
    config = ExperimentConfig.from_dict(
        {
            "seeds": [0, 1],
            "methods": ["naive_split", "r2ccp"],
            "epochs": 40,
            "batch_size": 256,
            "learning_rate": 0.1,
        }
    )
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        report = run_experiment(config, samples)
        emit_report(report, d)
    identical = []
    for name in sorted(p.name for p in dirs[0].iterdir()):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        identical.append(a == b)
    ok = all(identical)
    _criterion(
        11,
        "end-to-end determinism",
        ok,
        f"({sum(identical)}/{len(identical)} report files byte-identical)",
    )
