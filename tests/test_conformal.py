"""Conformal constructor tests: quantile rule, pure interval arithmetic,
boundary adjustment, and the Mondrian wrapper."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebands.conformal import (
    BUILTIN_PARTITIONS,
    METHODS,
    GroupPartition,
    MethodConfig,
    aps_from_probs,
    aps_growth_path,
    aps_score,
    aps_set,
    boundary_adjust,
    conformal_quantile,
    cqr_from_quantiles,
    density_intervals_from_scores,
    lvd_from_predictions,
    naive_from_predictions,
    run_boosted,
    run_cqr,
    run_lvd,
    run_method,
    run_mondrian,
    run_naive_split,
)
from scorebands.core import DataError, Interval, RatingScale, clamp_interval
from scorebands.harness import SyntheticSpec, generate_synthetic
from scorebands.core import gt_array, make_split
from scorebands.learners import GridConfig, PointVarModel, TrainConfig
from scorebands.learners.nets import Standardizer, init_params
from scorebands.metrics import coverage

SCALE = RatingScale()
FAST = MethodConfig(train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1),
                    boost_rounds=40)


def split_synth(n=1200, seed=0, **kwargs):
    spec = SyntheticSpec(n=n, seed=seed, **kwargs)
    samples, _ = generate_synthetic(spec)
    plan = make_split(n, 0.5, seed)
    cal = [samples[i] for i in plan.cal_indices]
    test = [samples[i] for i in plan.test_indices]
    return cal, test, gt_array(test)


class TestConformalQuantile:
    def test_rank_formula(self):
        assert conformal_quantile(range(1, 10), 0.1) == 9
        assert conformal_quantile(range(1, 20), 0.1) == 18

    def test_rank_overflow_gives_infinity(self):
        assert conformal_quantile([1, 2, 3, 4, 5], 0.1) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            conformal_quantile([], 0.1)

    def test_bad_alpha_rejected(self):
        with pytest.raises(DataError):
            conformal_quantile([1.0], 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=1, max_size=60
        ),
        alpha=st.sampled_from([0.05, 0.1, 0.2, 0.33]),
    )
    def test_matches_counting_oracle(self, scores, alpha):
        # Oracle: smallest score q such that #{s <= q} >= (n+1)(1-alpha),
        # computed by counting with exact rational comparison.
        from fractions import Fraction

        need = Fraction(len(scores) + 1) * (1 - Fraction(alpha))
        best = math.inf
        for q in sorted(scores):
            if Fraction(sum(1 for s in scores if s <= q)) >= need:
                best = q
                break
        assert conformal_quantile(scores, alpha) == best


class TestDecimalAlpha:
    """alpha is read as the decimal it prints as, not as its binary double."""

    def test_point_three(self):
        # Fraction(0.3) lies a hair below 3/10 and would give rank 8.
        assert conformal_quantile(range(1, 10), 0.3) == 7.0
        assert conformal_quantile(range(1, 10), np.float64(0.3)) == 7.0

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 400),
        alpha=st.decimals(min_value="0.001", max_value="0.999", places=3),
    )
    def test_matches_decimal_oracle(self, n, alpha):
        from fractions import Fraction

        rank = math.ceil((n + 1) * (1 - Fraction(alpha)))
        expected = math.inf if rank > n else float(rank)
        assert conformal_quantile(range(1, n + 1), float(alpha)) == expected


class TestNaive:
    def test_perfect_predictor(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 10)
        q, ivs = naive_from_predictions(y, y, y, 0.1, SCALE)
        assert q == 0.0
        assert all(iv.width == 0.0 for iv in ivs)
        assert coverage(ivs, y) == 1.0

    def test_symmetric_intervals(self):
        y_conf = np.array([3.0, 3.5, 2.5, 3.2, 2.8, 3.0, 3.1, 2.9, 3.0])
        mu_conf = np.full(9, 3.0)
        q, ivs = naive_from_predictions(y_conf, mu_conf, np.array([3.0]), 0.1, SCALE)
        assert q == 0.5  # rank ceil(10*0.9)=9 of |resid|
        assert (ivs[0].lower, ivs[0].upper) == (2.5, 3.5)

    def test_rank_overflow_full_range(self):
        y = np.array([3.0, 4.0])
        q, ivs = naive_from_predictions(y, y, np.array([2.0]), 0.1, SCALE)
        assert q == math.inf
        assert (ivs[0].lower, ivs[0].upper) == (1.0, 5.0)


class TestCqrArithmetic:
    def test_oracle_quantiles_need_no_correction(self):
        rng = np.random.default_rng(0)
        n = 4000
        m = rng.uniform(2, 4, n)
        sigma = 0.3
        y = m + sigma * rng.standard_normal(n)
        lo = m - 1.6448536269514722 * sigma
        hi = m + 1.6448536269514722 * sigma
        m_t = rng.uniform(2, 4, n)
        y_t = m_t + sigma * rng.standard_normal(n)
        q, ivs = cqr_from_quantiles(
            y, lo, hi, m_t - 1.6448536269514722 * sigma,
            m_t + 1.6448536269514722 * sigma, 0.1, SCALE,
        )
        assert abs(q) < 0.1
        assert 0.87 <= coverage(ivs, y_t) <= 0.93

    def test_zero_noise_zero_width(self):
        y = np.linspace(2, 4, 50)
        q, ivs = cqr_from_quantiles(y, y, y, y[:10], y[:10], 0.1, SCALE)
        assert q == 0.0
        assert all(iv.width == 0.0 for iv in ivs)

    def test_negative_correction_collapses_to_midpoint(self):
        # Conformal scores strongly negative -> q < 0 can cross endpoints.
        y = np.full(20, 3.0)
        lo = np.full(20, 1.0)
        hi = np.full(20, 5.0)
        q, ivs = cqr_from_quantiles(y, lo, hi, np.array([3.0]), np.array([3.1]), 0.1, SCALE)
        assert q < 0
        assert ivs[0].lower <= ivs[0].upper

    def test_asymmetric_per_side(self):
        # Constant over-wide margins: per-side scores are exactly lo - y =
        # -0.2 and y - hi = -0.6, so each side's correction shrinks by that
        # amount and the corrected interval collapses onto the target.
        rng = np.random.default_rng(1)
        n = 2000
        y = rng.uniform(2, 4, n)
        lo = y - 0.2
        hi = y + 0.6
        (q_lo, q_hi), ivs = cqr_from_quantiles(
            y, lo, hi, np.array([3.0 - 0.2]), np.array([3.0 + 0.6]), 0.1, SCALE,
            symmetric=False,
        )
        assert q_lo == pytest.approx(-0.2, abs=1e-9)
        assert q_hi == pytest.approx(-0.6, abs=1e-9)
        assert ivs[0].lower == pytest.approx(3.0, abs=1e-9)
        assert ivs[0].upper == pytest.approx(3.0, abs=1e-9)


class TestDensityIntervals:
    GRID = GridConfig()

    def test_uniform_all_or_nothing(self):
        pts = self.GRID.points()
        neg_logp = np.full((3, 41), math.log(41))
        thr, ivs = density_intervals_from_scores(
            np.full(100, math.log(41)), neg_logp, pts, pts, 0.1, SCALE
        )
        assert thr == pytest.approx(math.log(41))
        for iv in ivs:
            assert (iv.lower, iv.upper) == (1.0, 5.0)

    def test_one_hot_single_point(self):
        pts = self.GRID.points()
        row = np.full(41, 1e9)
        row[self.GRID.nearest_index(3.0)] = 0.0
        thr, ivs = density_intervals_from_scores(
            np.zeros(100), row[None, :], pts, pts, 0.1, SCALE
        )
        assert (ivs[0].lower, ivs[0].upper) == (3.0, 3.0)
        assert ivs[0].width == 0.0

    def test_no_qualifying_point_full_range(self):
        pts = self.GRID.points()
        thr, ivs = density_intervals_from_scores(
            np.zeros(100), np.full((2, 41), 5.0), pts, pts, 0.1, SCALE
        )
        assert all((iv.lower, iv.upper) == (1.0, 5.0) for iv in ivs)

    def test_hull_of_qualifying_points(self):
        pts = self.GRID.points()
        row = np.full(41, 9.0)
        row[12] = 0.0  # 2.0
        row[28] = 0.0  # 4.0
        thr, ivs = density_intervals_from_scores(
            np.zeros(50), row[None, :], pts, pts, 0.1, SCALE
        )
        assert (ivs[0].lower, ivs[0].upper) == (2.0, 4.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_contiguity_scan(self, seed):
        rng = np.random.default_rng(seed)
        pts = self.GRID.points()
        neg_logp = rng.uniform(0, 5, size=(8, 41))
        conf = rng.uniform(0, 5, size=60)
        thr, ivs = density_intervals_from_scores(
            conf, neg_logp, pts, pts, 0.1, SCALE
        )
        for row, iv in zip(neg_logp, ivs):
            qual = np.flatnonzero(row <= thr)
            if qual.size == 0:
                assert (iv.lower, iv.upper) == (1.0, 5.0)
            else:
                lo = min(max(pts[qual[0]], 1.0), 5.0)
                hi = max(min(pts[qual[-1]], 5.0), 1.0)
                if lo > hi:
                    lo = hi = (lo + hi) / 2
                assert (iv.lower, iv.upper) == (lo, hi)
                # endpoints themselves qualify (no dangling gap at the rim)
                assert row[qual[0]] <= thr and row[qual[-1]] <= thr


class TestOrdinalAps:
    def test_growth_path_greedy(self):
        order, masses = aps_growth_path(np.array([0.1, 0.2, 0.4, 0.2, 0.1]))
        assert order[0] == 2
        # tie between index 1 and 3 resolved to the lower label
        assert order[1] == 1
        assert masses[-1] == pytest.approx(1.0)

    def test_one_hot_singleton(self):
        probs = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert aps_set(probs, 0.9) == (2, 2)

    def test_two_adjacent_labels(self):
        probs = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        assert aps_set(probs, 0.9) == (0, 1)

    def test_near_uniform_full_set(self):
        probs_conf = np.tile([0.21, 0.2, 0.2, 0.2, 0.19], (200, 1))
        y_idx = np.tile(np.arange(5), 40)
        q, ivs, point = aps_from_probs(probs_conf, y_idx, probs_conf[:5], 0.1, SCALE)
        assert all((iv.lower, iv.upper) == (1.0, 5.0) for iv in ivs)

    def test_score_is_mass_at_inclusion(self):
        probs = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        assert aps_score(probs, 2) == pytest.approx(0.4)
        assert aps_score(probs, 1) == pytest.approx(0.6)
        assert aps_score(probs, 4) == pytest.approx(1.0)


class TestBoundaryAdjust:
    def test_outward_examples(self):
        iv = boundary_adjust(Interval(2.3, 4.7), SCALE)
        assert (iv.adj_lower, iv.adj_upper) == (2, 5)
        iv = boundary_adjust(Interval(1.0, 5.0), SCALE)
        assert (iv.adj_lower, iv.adj_upper) == (1, 5)
        iv = boundary_adjust(Interval(3.0, 3.0), SCALE)
        assert (iv.adj_lower, iv.adj_upper) == (3, 3)

    def test_inward_variant(self):
        iv = boundary_adjust(Interval(2.3, 4.7), SCALE, direction="inward")
        assert (iv.adj_lower, iv.adj_upper) == (3, 4)

    def test_inward_collapse_when_no_integer_inside(self):
        iv = boundary_adjust(Interval(2.2, 2.8), SCALE, direction="inward")
        assert (iv.adj_lower, iv.adj_upper) == (3, 3)

    def test_off_leaves_unadjusted(self):
        iv = boundary_adjust(Interval(2.3, 4.7), SCALE, direction="off")
        assert iv.adj_lower is None

    def test_unknown_direction(self):
        with pytest.raises(DataError):
            boundary_adjust(Interval(2.0, 3.0), SCALE, direction="sideways")

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(1.0, 5.0, allow_nan=False),
        width=st.floats(0.0, 4.0, allow_nan=False),
    )
    def test_outward_expansion_monotone(self, lo, width):
        raw = clamp_interval(Interval(lo, lo + width), SCALE)
        adj = boundary_adjust(raw, SCALE)
        assert adj.adj_lower <= raw.lower
        assert adj.adj_upper >= raw.upper
        assert adj.adj_width >= raw.width - 1e-12
        # adjusted set contains every integer the raw interval contains
        for label in SCALE.labels:
            if raw.lower <= label <= raw.upper:
                assert adj.adj_lower <= label <= adj.adj_upper


class TestLvdReduction:
    def _constant_sigma_model(self, cal):
        from scorebands.core import features_matrix

        X = features_matrix(cal)
        cfg = TrainConfig(epochs=40, batch_size=256, learning_rate=0.1)
        from scorebands.learners import fit_point_var

        model = fit_point_var(X[: len(X) // 2], gt_array(cal[: len(cal) // 2]),
                              cfg, fit_sigma=False)
        # splice in a sigma head that always outputs exactly 1.0
        rng = np.random.default_rng(0)
        sigma_params = init_params([X.shape[1], 4, 1], rng)
        sigma_params = [(np.zeros_like(W), np.zeros_like(b)) for W, b in sigma_params]
        W_last, b_last = sigma_params[-1]
        sigma_params[-1] = (W_last, b_last + 1.0)
        return PointVarModel(
            mean_params=model.mean_params,
            scaler=model.scaler,
            sigma_params=sigma_params,
            sigma_floor=model.sigma_floor,
        )

    def test_unit_sigma_equals_naive(self):
        from scorebands.core import features_matrix

        cal, test, gts = split_synth(n=600, seed=4)
        model = self._constant_sigma_model(cal)
        half = len(cal) // 2
        cal_conf = cal[half:]
        Xc, Xt = features_matrix(cal_conf), features_matrix(test)
        y_conf = gt_array(cal_conf)
        mu_c, mu_t = model.predict_mean(Xc), model.predict_mean(Xt)
        sig_c, sig_t = model.predict_sigma(Xc), model.predict_sigma(Xt)
        assert np.all(sig_c == 1.0)
        q_n, ivs_n = naive_from_predictions(y_conf, mu_c, mu_t, 0.1, SCALE)
        q_l, ivs_l = lvd_from_predictions(y_conf, mu_c, sig_c, mu_t, sig_t, 0.1, SCALE)
        assert q_n == q_l
        assert ivs_n == ivs_l


class TestMethodRunners:
    def test_unknown_method(self):
        cal, test, _ = split_synth(n=100, seed=1)
        with pytest.raises(DataError):
            run_method("magic", cal, test, 0.1, SCALE, FAST)

    def test_empty_inputs_rejected(self):
        cal, test, _ = split_synth(n=100, seed=1)
        with pytest.raises(DataError):
            run_naive_split([], test, 0.1, SCALE, FAST)
        with pytest.raises(DataError):
            run_naive_split(cal, [], 0.1, SCALE, FAST)

    def test_all_methods_produce_valid_intervals(self):
        cal, test, gts = split_synth(n=700, seed=2, label_noise=0.35)
        from scorebands.conformal import METHOD_NAMES

        for method in METHOD_NAMES:
            res = run_method(method, cal, test, 0.1, SCALE, FAST, {})
            assert len(res.intervals) == len(test)
            assert len(res.y_hat) == len(test)
            for iv in res.intervals:
                assert 1.0 <= iv.lower <= iv.upper <= 5.0
            assert 0.8 <= coverage(res.intervals, gts) <= 1.0

    def test_deterministic(self):
        cal, test, _ = split_synth(n=500, seed=3, label_noise=0.35)
        a = run_method("r2ccp", cal, test, 0.1, SCALE, FAST, {})
        b = run_method("r2ccp", cal, test, 0.1, SCALE, FAST, {})
        assert a.intervals == b.intervals
        assert np.array_equal(a.y_hat, b.y_hat)

    def test_cache_reuse_matches_fresh_fit(self):
        cal, test, _ = split_synth(n=500, seed=5, label_noise=0.35)
        cache = {}
        run_lvd(cal, test, 0.1, SCALE, FAST, cache)  # populates pointvar_sigma
        res_cached = run_naive_split(cal, test, 0.1, SCALE, FAST, cache)
        res_fresh = run_naive_split(cal, test, 0.1, SCALE, FAST, None)
        assert res_cached.intervals == res_fresh.intervals

    def test_boosted_zero_rounds_reduces(self):
        cal, test, _ = split_synth(n=500, seed=6, label_noise=0.35)
        cfg = MethodConfig(train=FAST.train, boost_rounds=0)
        a = run_boosted(cal, test, 0.1, SCALE, cfg, None, variant="cqr")
        b = run_cqr(cal, test, 0.1, SCALE, cfg, None)
        assert a.method == "boosted_cqr"
        assert a.intervals == b.intervals
        a = run_boosted(cal, test, 0.1, SCALE, cfg, None, variant="lcp")
        b = run_lvd(cal, test, 0.1, SCALE, cfg, None)
        assert a.intervals == b.intervals

    def test_argmax_feature_point_predictor(self):
        cal, test, _ = split_synth(n=400, seed=7)
        cfg = MethodConfig(train=FAST.train, point_predictor="argmax_feature")
        res = run_naive_split(cal, test, 0.1, SCALE, cfg)
        from scorebands.core import features_matrix

        expected = features_matrix(test)[:, :5].argmax(axis=1) + 1.0
        assert np.array_equal(res.y_hat, expected)


class TestNonDefaultScale:
    def test_all_methods_on_three_point_scale(self):
        from scorebands.conformal import METHOD_NAMES
        from scorebands.core import FeatureVector, LabeledSample, gt_array

        scale = RatingScale(k_max=3)
        rng = np.random.default_rng(0)
        samples = []
        for i in range(800):
            s = int(rng.integers(1, 4))
            logits = -np.square(np.arange(1, 4) - s) + 0.4 * rng.standard_normal(3)
            f = logits - np.log(np.exp(logits).sum())
            gt = s if rng.random() > 0.3 else int(rng.integers(1, 4))
            samples.append(
                LabeledSample(FeatureVector(tuple(f)), gt, "d", "j", f"s{i}")
            )
        plan = make_split(800, 0.5, 0)
        cal = [samples[i] for i in plan.cal_indices]
        test = [samples[i] for i in plan.test_indices]
        cfg = MethodConfig(
            train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1),
            grid=GridConfig(lo=0.5, hi=3.5, resolution=0.125, n_points=25),
            chr_bins=6,
            boost_rounds=30,
        )
        gts = gt_array(test)
        for method in METHOD_NAMES:
            res = run_method(method, cal, test, 0.1, scale, cfg, {})
            assert 0.8 <= coverage(res.intervals, gts) <= 1.0
            assert all(1.0 <= iv.lower <= iv.upper <= 3.0 for iv in res.intervals)


class TestMondrian:
    def test_builtin_partition_covers_14_datasets(self):
        part = BUILTIN_PARTITIONS["mllm_difficulty"]
        assert len(part.group_of) == 14
        assert sorted(set(part.group_of.values())) == ["easy", "hard", "medium"]
        easy = {d for d, g in part.group_of.items() if g == "easy"}
        assert easy == {"AesBench", "MM-Vet", "WIT", "COCO"}
        hard = {d for d, g in part.group_of.items() if g == "hard"}
        assert hard == {"ScienceQA", "MathVista", "DiffusionDB", "InfographicsVQA"}

    def test_single_group_identical_to_inner(self):
        cal, test, _ = split_synth(n=600, seed=8, label_noise=0.35)
        part = GroupPartition(name="all", group_of=None, tag_field="dataset_tag")
        res_m = run_mondrian(cal, test, 0.1, part, "naive_split", SCALE, FAST)
        res_d = run_naive_split(cal, test, 0.1, SCALE, FAST)
        assert res_m.intervals == res_d.intervals
        assert np.array_equal(res_m.y_hat, res_d.y_hat)

    def test_small_group_rejected_by_name(self):
        cal, test, _ = split_synth(
            n=600, seed=9, generator="heteroscedastic_groups"
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        with pytest.raises(DataError, match="group 'high'"):
            run_mondrian(cal, test, 0.1, part, "naive_split", SCALE, FAST,
                         min_group_cal=10_000)

    def test_unmapped_dataset_rejected(self):
        cal, test, _ = split_synth(n=200, seed=10)
        part = GroupPartition(name="p", group_of={"other": "easy"})
        with pytest.raises(DataError, match="no group for dataset"):
            run_mondrian(cal, test, 0.1, part, "naive_split", SCALE, FAST)

    def test_missing_group_tag_rejected(self):
        cal, test, _ = split_synth(n=200, seed=11)  # peaked: no group tags
        part = BUILTIN_PARTITIONS["by_group_tag"]
        with pytest.raises(DataError, match="group_tag"):
            run_mondrian(cal, test, 0.1, part, "naive_split", SCALE, FAST)

    def test_shared_cache_matches_fresh_fits(self):
        cal, test, _ = split_synth(
            n=800, seed=16, generator="heteroscedastic_groups"
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        cfg = MethodConfig(
            train=TrainConfig(epochs=5, batch_size=256, learning_rate=0.1),
            boost_rounds=5,
        )
        shared: dict = {}
        for method in sorted(METHODS):
            res_s = run_mondrian(cal, test, 0.1, part, method, SCALE, cfg,
                                 cache=shared)
            res_f = run_mondrian(cal, test, 0.1, part, method, SCALE, cfg)
            assert res_s.intervals == res_f.intervals, method
            assert np.array_equal(res_s.y_hat, res_f.y_hat), method
        assert sorted(shared) == ["high", "low"]
        assert "pointvar_mean" in shared["low"]

    def test_lvd_wider_in_noisy_cluster(self):
        cal, test, _ = split_synth(
            n=2000, seed=13, generator="heteroscedastic_groups", sigma=0.25
        )
        res = run_lvd(cal, test, 0.1, SCALE, FAST)
        low = [iv.width for iv, s in zip(res.intervals, test)
               if s.group_tag == "low"]
        high = [iv.width for iv, s in zip(res.intervals, test)
                if s.group_tag == "high"]
        assert np.mean(high) > np.mean(low)

    def test_r2ccp_narrower_than_naive_on_heteroscedastic(self):
        widths = {"r2ccp": [], "naive_split": []}
        for seed in (14, 15):
            cal, test, _ = split_synth(
                n=2000, seed=seed, generator="heteroscedastic_groups", sigma=0.25
            )
            cache = {}
            for method in widths:
                res = run_method(method, cal, test, 0.1, SCALE, FAST, cache)
                widths[method].append(
                    np.mean([iv.width for iv in res.intervals])
                )
        assert np.mean(widths["r2ccp"]) < np.mean(widths["naive_split"])

    def test_heteroscedastic_adaptation(self):
        cal, test, gts = split_synth(
            n=2400, seed=12, generator="heteroscedastic_groups", sigma=0.25
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        res_m = run_mondrian(cal, test, 0.1, part, "naive_split", SCALE, FAST)
        res_g = run_naive_split(cal, test, 0.1, SCALE, FAST)
        low = [i for i, s in enumerate(test) if s.group_tag == "low"]
        high = [i for i, s in enumerate(test) if s.group_tag == "high"]
        for idx in (low, high):
            cov = coverage([res_m.intervals[i] for i in idx], gts[idx])
            assert 0.84 <= cov <= 0.96
        w_m_low = np.mean([res_m.intervals[i].width for i in low])
        w_g_low = np.mean([res_g.intervals[i].width for i in low])
        assert w_m_low < 0.9 * w_g_low
