"""Conformal constructor tests: quantile rule, pure interval arithmetic,
boundary adjustment, and the Mondrian wrapper."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebands.conformal import (
    BUILTIN_PARTITIONS,
    METHODS,
    GroupPartition,
    MethodConfig,
    MethodResult,
    Split,
    _aps_paths,
    _learner,
    _taus,
    _interval,
    adjust_all,
    aps_intervals,
    aps_scores,
    aps_sets,
    band_intervals,
    cell_intervals,
    conformal_quantile,
    run_method,
    run_mondrian,
)
from scorebands.core import Batch, DataError, Intervals, RatingScale, clamp_endpoints
from scorebands.harness import SyntheticSpec, generate_synthetic
from scorebands.core import make_split
from scorebands.learners import BoostedModel, Net, TrainConfig
from scorebands.learners.nets import init_params, log_softmax
from scorebands.metrics import coverage

SCALE = RatingScale()
FAST = MethodConfig(train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1),
                    boost_rounds=40)


def split_synth(n=1200, seed=0, **kwargs):
    spec = SyntheticSpec(n=n, seed=seed, **kwargs)
    batch, _ = generate_synthetic(spec)
    cal_idx, test_idx = make_split(n, 0.5, seed)
    test = batch[test_idx]
    return batch[cal_idx], test, test.y


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


class TestQuantileLaw:
    """On n i.i.d. Uniform(0, 1) scores, q_hat is the order statistic U_(r),
    r = ceil((n+1)(1-alpha)), which is Beta(r, n+1-r) exactly:
    P(U_(r) <= x) = P(Bin(n, x) >= r) (Vovk 2012)."""

    DRAWS = 3000

    @pytest.mark.parametrize("n, alpha", [(19, 0.1), (19, 0.3), (49, 0.05), (9, 0.3)])
    def test_order_statistic_law(self, n, alpha):
        from fractions import Fraction

        r = math.ceil((n + 1) * (1 - Fraction(str(alpha))))
        q = np.sort([
            conformal_quantile(np.random.default_rng(seed).uniform(size=n), alpha)
            for seed in range(self.DRAWS)
        ])
        cdf = sum(math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(r, n + 1))
        i = np.arange(1, self.DRAWS + 1)
        ks = max(np.max(i / self.DRAWS - cdf), np.max(cdf - (i - 1) / self.DRAWS))
        # The asymptotic Kolmogorov critical value at p = 1e-3.
        assert ks < math.sqrt(-math.log(1e-3 / 2) / 2) / math.sqrt(self.DRAWS)
        # E[U_(r)] = r/(n+1) lies in [1-alpha, 1-alpha + 1/(n+1)]; the sample
        # mean may fall 4 standard errors outside, as it can sit on the lower
        # end when (n+1)(1-alpha) is an integer.
        se = math.sqrt(r * (n + 1 - r) / ((n + 1) ** 2 * (n + 2)) / self.DRAWS)
        assert 1 - alpha - 4 * se <= q.mean() <= 1 - alpha + 1 / (n + 1) + 4 * se


class TestNaive:
    def test_perfect_predictor(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 10)
        q, ivs, _ = band_intervals(y, (y, y, 1.0), (y, y, 1.0), 0.1, SCALE)
        assert q == 0.0
        assert np.all(ivs.width == 0.0)
        assert coverage(ivs, y) == 1.0

    def test_symmetric_intervals(self):
        y_conf = np.array([3.0, 3.5, 2.5, 3.2, 2.8, 3.0, 3.1, 2.9, 3.0])
        mu_conf = np.full(9, 3.0)
        mu = np.array([3.0])
        q, ivs, _ = band_intervals(y_conf, (mu_conf, mu_conf, 1.0), (mu, mu, 1.0), 0.1, SCALE)
        assert q == 0.5  # rank ceil(10*0.9)=9 of |resid|
        assert (ivs.lower[0], ivs.upper[0]) == (2.5, 3.5)

    def test_rank_overflow_full_range(self):
        y = np.array([3.0, 4.0])
        mu = np.array([2.0])
        q, ivs, _ = band_intervals(y, (y, y, 1.0), (mu, mu, 1.0), 0.1, SCALE)
        assert q == math.inf
        assert (ivs.lower[0], ivs.upper[0]) == (1.0, 5.0)


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
        q, ivs, _ = band_intervals(
            y, (lo, hi, 1.0),
            (m_t - 1.6448536269514722 * sigma, m_t + 1.6448536269514722 * sigma, 1.0),
            0.1, SCALE,
        )
        assert abs(q) < 0.1
        assert 0.87 <= coverage(ivs, y_t) <= 0.93

    def test_zero_noise_zero_width(self):
        y = np.linspace(2, 4, 50)
        q, ivs, _ = band_intervals(y, (y, y, 1.0), (y[:10], y[:10], 1.0), 0.1, SCALE)
        assert q == 0.0
        assert np.all(ivs.width == 0.0)

    def test_negative_correction_collapses_to_midpoint(self):
        # Conformal scores strongly negative -> q < 0 can cross endpoints.
        y = np.full(20, 3.0)
        lo = np.full(20, 1.0)
        hi = np.full(20, 5.0)
        test = (np.array([3.0]), np.array([3.1]), 1.0)
        q, ivs, _ = band_intervals(y, (lo, hi, 1.0), test, 0.1, SCALE)
        assert q < 0
        assert ivs.lower[0] <= ivs.upper[0]

    def test_asymmetric_per_side(self):
        # Constant over-wide margins: per-side scores are exactly lo - y =
        # -0.2 and y - hi = -0.6, so each side's correction shrinks by that
        # amount and the corrected interval collapses onto the target.
        rng = np.random.default_rng(1)
        n = 2000
        y = rng.uniform(2, 4, n)
        lo = y - 0.2
        hi = y + 0.6
        (q_lo, q_hi), ivs, _ = band_intervals(
            y, (lo, hi, 1.0), (np.array([3.0 - 0.2]), np.array([3.0 + 0.6]), 1.0),
            0.1, SCALE, symmetric=False,
        )
        assert q_lo == pytest.approx(-0.2, abs=1e-9)
        assert q_hi == pytest.approx(-0.6, abs=1e-9)
        assert ivs.lower[0] == pytest.approx(3.0, abs=1e-9)
        assert ivs.upper[0] == pytest.approx(3.0, abs=1e-9)


def cell_rule(conf_scores, test_neg_logp, alpha, scale, edges):
    """cell_intervals on tables built around the scores: each conformal row's
    label-cell entry is minus its score, and the test rows' log-probabilities
    are minus ``test_neg_logp``. Returns the threshold and the intervals."""
    rng = np.random.default_rng(len(conf_scores))
    y = rng.integers(1, scale.k_max + 1, len(conf_scores))
    logp = np.full((len(y), scale.k_max), -50.0)
    logp[np.arange(len(y)), y - 1] = -np.asarray(conf_scores)
    thr, ivs, _ = cell_intervals(y.astype(np.float64), logp, -np.asarray(test_neg_logp),
                                 alpha, scale, edges)
    return thr, ivs


class TestDensityIntervals:
    """r2ccp's rule on K label cells, whose centres are the labels."""

    SCALES = [RatingScale(k_max=k) for k in (3, 5, 10)]

    def density(self, conf_scores, neg_logp, scale):
        return cell_rule(conf_scores, neg_logp, 0.1, scale, edges=False)

    def test_uniform_all_or_nothing(self):
        for scale in self.SCALES:
            k = scale.k_max
            thr, ivs = self.density(np.full(100, math.log(k)), np.full((3, k), math.log(k)),
                                    scale)
            assert thr == pytest.approx(math.log(k))
            assert np.all(ivs.lower == 1.0) and np.all(ivs.upper == k)

    def test_one_hot_single_point(self):
        for scale in self.SCALES:
            row = np.full(scale.k_max, 1e9)
            row[3 - 1] = 0.0
            thr, ivs = self.density(np.zeros(100), row[None, :], scale)
            assert (ivs.lower[0], ivs.upper[0]) == (3.0, 3.0)
            assert ivs.width[0] == 0.0

    def test_no_qualifying_point_full_range(self):
        for scale in self.SCALES:
            thr, ivs = self.density(np.zeros(100), np.full((2, scale.k_max), 5.0), scale)
            assert np.all(ivs.lower == 1.0) and np.all(ivs.upper == scale.k_max)

    def test_hull_of_qualifying_points(self):
        for scale in self.SCALES:
            k = scale.k_max
            row = np.full(k, 9.0)
            row[[1, k - 1]] = 0.0  # labels 2 and K
            thr, ivs = self.density(np.zeros(50), row[None, :], scale)
            assert (ivs.lower[0], ivs.upper[0]) == (2.0, k)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([3, 5, 10]))
    def test_contiguity_scan(self, seed, k):
        rng = np.random.default_rng(seed)
        scale = RatingScale(k_max=k)
        pts = np.arange(1.0, k + 1)
        neg_logp = rng.uniform(0, 5, size=(8, k))
        conf = rng.uniform(0, 5, size=60)
        thr, ivs = self.density(conf, neg_logp, scale)
        for row, lower, upper in zip(neg_logp, ivs.lower, ivs.upper):
            qual = np.flatnonzero(row <= thr)
            if qual.size == 0:
                assert (lower, upper) == (1.0, k)
            else:
                assert (lower, upper) == (pts[qual[0]], pts[qual[-1]])
                # endpoints themselves qualify (no dangling gap at the rim)
                assert row[qual[0]] <= thr and row[qual[-1]] <= thr


class TestOrdinalAps:
    def test_growth_path_greedy(self):
        order, masses, _, _ = _aps_paths(np.array([[0.1, 0.2, 0.4, 0.2, 0.1]]))
        assert order[0, 0] == 2
        # tie between index 1 and 3 resolved to the lower label
        assert order[0, 1] == 1
        assert masses[0, -1] == pytest.approx(1.0)

    def test_one_hot_singleton(self):
        probs = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
        lo, hi, mass = aps_sets(probs, 0.9)
        assert (lo.tolist(), hi.tolist(), mass.tolist()) == ([2], [2], [1.0])

    def test_two_adjacent_labels(self):
        probs = np.array([[0.5, 0.5, 0.0, 0.0, 0.0]])
        lo, hi, _ = aps_sets(probs, 0.9)
        assert (lo.tolist(), hi.tolist()) == ([0], [1])

    def test_near_uniform_full_set(self):
        probs_conf = np.tile([0.21, 0.2, 0.2, 0.2, 0.19], (200, 1))
        y_idx = np.tile(np.arange(5), 40)
        q, ivs, point = aps_intervals(y_idx + 1.0, probs_conf, probs_conf[:5], 0.1, SCALE)
        assert np.all(ivs.lower == 1.0) and np.all(ivs.upper == 5.0)

    def test_score_is_mass_at_inclusion(self):
        probs = np.tile([0.1, 0.2, 0.4, 0.2, 0.1], (3, 1))
        assert aps_scores(probs, [2, 1, 4]) == pytest.approx([0.4, 0.6, 1.0])


def adjust_one(lo, hi, direction="outward"):
    """The adjusted endpoints of [lo, hi] through adjust_all, or None when
    adjust_all leaves it unadjusted."""
    iv = adjust_all(Intervals([lo], [hi]), SCALE, direction)
    return (int(iv.adj_lower[0]), int(iv.adj_upper[0])) if iv.adjusted else None


class TestBoundaryAdjust:
    def test_outward_examples(self):
        assert adjust_one(2.3, 4.7) == (2, 5)
        assert adjust_one(1.0, 5.0) == (1, 5)
        assert adjust_one(3.0, 3.0) == (3, 3)

    def test_inward_variant(self):
        assert adjust_one(2.3, 4.7, direction="inward") == (3, 4)

    def test_inward_collapse_when_no_integer_inside(self):
        assert adjust_one(2.2, 2.8, direction="inward") == (3, 3)

    def test_off_leaves_unadjusted(self):
        assert adjust_one(2.3, 4.7, direction="off") is None

    def test_unknown_direction(self):
        with pytest.raises(DataError):
            adjust_one(2.0, 3.0, direction="sideways")

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(1.0, 5.0, allow_nan=False),
        width=st.floats(0.0, 4.0, allow_nan=False),
    )
    def test_outward_expansion_monotone(self, lo, width):
        raw = Intervals(*clamp_endpoints(np.array([lo]), np.array([lo + width]), SCALE))
        adj = adjust_all(raw, SCALE)
        (al,), (au,), (rl,), (ru,) = adj.adj_lower, adj.adj_upper, raw.lower, raw.upper
        assert al <= rl
        assert au >= ru
        assert adj.adj_width[0] >= raw.width[0] - 1e-12
        # adjusted set contains every integer the raw interval contains
        for label in SCALE.labels:
            if rl <= label <= ru:
                assert al <= label <= au

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 5, 10]).flatmap(lambda k: st.tuples(st.just(k), st.lists(
        st.tuples(st.floats(0.0, k + 1.0), st.floats(0.0, k), st.integers(1, k)),
        min_size=1, max_size=40))))
    def test_inward_hull_keeps_every_covered_label(self, case):
        """On integer labels the inward hull covers every label the raw
        interval covers, and exactly those wherever the raw interval holds
        an integer; there the outward snap adds at most one label at each
        end."""
        k, rows = case
        scale = RatingScale(k_max=k)
        lo, width, y = (np.array(c, dtype=np.float64) for c in zip(*rows))
        raw = Intervals(*clamp_endpoints(lo, lo + width, scale))
        inward = adjust_all(raw, scale, "inward")
        raw_in, inward_in = raw.contains(y), inward.contains_adjusted(y)
        assert np.all(inward_in >= raw_in)
        holds = np.ceil(raw.lower) <= np.floor(raw.upper)
        assert np.array_equal(inward_in[holds], raw_in[holds])
        outward = adjust_all(raw, scale, "outward")
        assert np.isin((inward.adj_lower - outward.adj_lower)[holds], (0, 1)).all()
        assert np.isin((outward.adj_upper - inward.adj_upper)[holds], (0, 1)).all()


class TestLvdReduction:
    def _seed_constant_sigma_model(self, split):
        """Puts a fitted mean network and a spread network that always
        outputs exactly 1.0 in ``split``'s memo."""
        cfg = TrainConfig(epochs=40, batch_size=256, learning_rate=0.1)
        from scorebands.learners import fit_point_var

        mean = split.memo("mean", lambda: fit_point_var(split.half.X, split.half.y,
                                                        SCALE.k_max, cfg))
        rng = np.random.default_rng(0)
        sigma_params = init_params([split.half.X.shape[1], 4, 1], rng)
        sigma_params = [(np.zeros_like(W), np.zeros_like(b)) for W, b in sigma_params]
        W_last, b_last = sigma_params[-1]
        sigma_params[-1] = (W_last, b_last + 1.0)
        split.memo("sigma", lambda: Net(sigma_params, mean.scaler))

    def test_unit_sigma_equals_naive(self):
        from scorebands.conformal import _mean, _mean_spread

        cal, test, gts = split_synth(n=600, seed=4)
        split = Split(cal, test, 0.1, SCALE)
        self._seed_constant_sigma_model(split)
        lvd_conf, lvd_test = (_mean_spread(split, rows, "sigma") for rows in ("conf", "test"))
        assert np.all(lvd_conf[2] == 1.0)
        q_n, ivs_n, _ = band_intervals(split.conf.y, _mean(split, "conf"),
                                       _mean(split, "test"), 0.1, SCALE)
        q_l, ivs_l, _ = band_intervals(split.conf.y, lvd_conf, lvd_test, 0.1, SCALE)
        assert q_n == q_l
        assert ivs_n == ivs_l


class TestMethodRunners:
    def test_table_rows_in_report_order(self):
        from scorebands.conformal import METHOD_NAMES

        assert tuple(METHODS) == METHOD_NAMES == (
            "naive_split", "cqr", "cqr_asym", "chr", "lvd", "boosted_cqr",
            "boosted_lcp", "r2ccp", "ordinal_aps",
        )

    def test_unknown_method(self):
        cal, test, _ = split_synth(n=100, seed=1)
        with pytest.raises(DataError):
            run_method("magic", Split(cal, test, 0.1, SCALE, FAST))

    def test_empty_inputs_rejected(self):
        cal, test, _ = split_synth(n=100, seed=1)
        with pytest.raises(DataError, match="empty calibration set"):
            Split(cal[:0], test, 0.1, SCALE, FAST)
        with pytest.raises(DataError, match="empty test set"):
            Split(cal, test[:0], 0.1, SCALE, FAST)
        for alpha in (0.0, 1.0):
            with pytest.raises(DataError, match="alpha"):
                Split(cal, test, alpha, SCALE, FAST)

    def test_all_methods_produce_valid_intervals(self):
        cal, test, gts = split_synth(n=700, seed=2, label_noise=0.35)
        from scorebands.conformal import METHOD_NAMES

        for method in METHOD_NAMES:
            res = run_method(method, Split(cal, test, 0.1, SCALE, FAST))
            assert len(res.intervals) == len(test)
            assert len(res.y_hat) == len(test)
            ivs = res.intervals
            assert np.all((1.0 <= ivs.lower) & (ivs.lower <= ivs.upper) & (ivs.upper <= 5.0))
            assert 0.8 <= coverage(res.intervals, gts) <= 1.0

    def test_deterministic(self):
        cal, test, _ = split_synth(n=500, seed=3, label_noise=0.35)
        a = run_method("r2ccp", Split(cal, test, 0.1, SCALE, FAST))
        b = run_method("r2ccp", Split(cal, test, 0.1, SCALE, FAST))
        assert a.intervals == b.intervals
        assert np.array_equal(a.y_hat, b.y_hat)

    def test_cache_reuse_matches_fresh_fit(self):
        cal, test, _ = split_synth(n=500, seed=5, label_noise=0.35)
        split = Split(cal, test, 0.1, SCALE, FAST)
        run_method("lvd", split)  # fits the mean network and its spread head
        mean = _learner(split, "mean")
        res_cached = run_method("naive_split", split)
        res_fresh = run_method("naive_split", Split(cal, test, 0.1, SCALE, FAST))
        assert _learner(split, "mean") is mean
        assert res_cached.intervals == res_fresh.intervals

    def test_boosted_zero_rounds_reduces(self):
        cal, test, _ = split_synth(n=500, seed=6, label_noise=0.35)
        cfg = MethodConfig(train=FAST.train, boost_rounds=0)
        a = run_method("boosted_cqr", Split(cal, test, 0.1, SCALE, cfg))
        b = run_method("cqr", Split(cal, test, 0.1, SCALE, cfg))
        assert a.method == "boosted_cqr"
        assert a.intervals == b.intervals
        a = run_method("boosted_lcp", Split(cal, test, 0.1, SCALE, cfg))
        b = run_method("lvd", Split(cal, test, 0.1, SCALE, cfg))
        assert a.intervals == b.intervals

    def test_unknown_point_predictor_rejected(self):
        with pytest.raises(DataError, match="point_predictor"):
            MethodConfig(point_predictor="bogus")

    def test_density_point_is_mean_cell_value(self):
        cal, test, _ = split_synth(n=400, seed=7, label_noise=0.35)
        X = test.X
        for method in ("chr", "r2ccp"):
            split = Split(cal, test, 0.1, SCALE, FAST)
            res = run_method(method, split)
            probs = np.exp(log_softmax(_learner(split, "mean").predict(X)[:, 1:]))
            assert np.array_equal(res.y_hat, probs @ np.arange(1.0, 6.0)), method

    def test_argmax_feature_point_predictor(self):
        cal, test, _ = split_synth(n=400, seed=7)
        cfg = MethodConfig(train=FAST.train, point_predictor="argmax_feature")
        res = run_method("naive_split", Split(cal, test, 0.1, SCALE, cfg))
        expected = test.X[:, :5].argmax(axis=1) + 1.0
        assert np.array_equal(res.y_hat, expected)


class TestNonDefaultScale:
    def test_all_methods_on_three_point_scale(self):
        from scorebands.conformal import METHOD_NAMES

        scale = RatingScale(k_max=3)
        rng = np.random.default_rng(0)
        rows, gts = [], []
        for i in range(800):
            s = int(rng.integers(1, 4))
            logits = -np.square(np.arange(1, 4) - s) + 0.4 * rng.standard_normal(3)
            rows.append(logits - np.log(np.exp(logits).sum()))
            gts.append(s if rng.random() > 0.3 else int(rng.integers(1, 4)))
        batch = Batch(
            X=np.array(rows), y=np.array(gts, dtype=np.float64),
            dataset=np.full(800, "d"), group=np.full(800, None),
            sample_id=np.array([f"s{i}" for i in range(800)], dtype=object),
            judge=np.full(800, "j"),
        )
        cal_idx, test_idx = make_split(800, 0.5, 0)
        cal = batch[cal_idx]
        test = batch[test_idx]
        cfg = MethodConfig(
            train=TrainConfig(epochs=60, batch_size=256, learning_rate=0.1),
            boost_rounds=30,
        )
        gts = test.y
        for method in METHOD_NAMES:
            res = run_method(method, Split(cal, test, 0.1, scale, cfg))
            assert 0.8 <= coverage(res.intervals, gts) <= 1.0
            ivs = res.intervals
            assert np.all((1.0 <= ivs.lower) & (ivs.lower <= ivs.upper) & (ivs.upper <= 3.0))


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
        res_m = run_mondrian(Split(cal, test, 0.1, SCALE, FAST), part, "naive_split")
        res_d = run_method("naive_split", Split(cal, test, 0.1, SCALE, FAST))
        assert res_m.intervals == res_d.intervals
        assert np.array_equal(res_m.y_hat, res_d.y_hat)

    def test_small_group_rejected_by_name(self):
        cal, test, _ = split_synth(
            n=600, seed=9, generator="heteroscedastic_groups"
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        with pytest.raises(DataError, match="group 'high'"):
            run_mondrian(Split(cal, test, 0.1, SCALE, FAST), part, "naive_split",
                         min_group_cal=10_000)

    def test_unmapped_dataset_rejected(self):
        cal, test, _ = split_synth(n=200, seed=10)
        part = GroupPartition(name="p", group_of={"other": "easy"})
        with pytest.raises(DataError, match="no group for dataset"):
            run_mondrian(Split(cal, test, 0.1, SCALE, FAST), part, "naive_split")

    def test_missing_group_tag_rejected(self):
        cal, test, _ = split_synth(n=200, seed=11)  # peaked: no group tags
        part = BUILTIN_PARTITIONS["by_group_tag"]
        with pytest.raises(DataError, match="group_tag"):
            run_mondrian(Split(cal, test, 0.1, SCALE, FAST), part, "naive_split")

    def test_shared_cache_matches_fresh_fits(self):
        cal, test, _ = split_synth(
            n=800, seed=16, generator="heteroscedastic_groups"
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        cfg = MethodConfig(
            train=TrainConfig(epochs=5, batch_size=256, learning_rate=0.1),
            boost_rounds=5,
        )
        shared = Split(cal, test, 0.1, SCALE, cfg)
        for method in sorted(METHODS):
            res_s = run_mondrian(shared, part, method)
            res_f = run_mondrian(Split(cal, test, 0.1, SCALE, cfg), part, method)
            assert res_s.intervals == res_f.intervals, method
            assert np.array_equal(res_s.y_hat, res_f.y_hat), method
            assert sorted(res_s.q_hat) == ["high", "low"], method

    def test_split_is_grouped_once_per_cache(self, monkeypatch):
        """Nine methods on one Split label the calibration and test rows once
        each; every result equals a fresh Split's."""
        cal, test, _ = split_synth(n=800, seed=17, generator="heteroscedastic_groups")
        part = BUILTIN_PARTITIONS["by_group_tag"]
        calls = []
        original = GroupPartition.labels

        def counted(self, batch):
            calls.append(len(batch))
            return original(self, batch)

        shared = Split(cal, test, 0.1, SCALE, FAST)
        monkeypatch.setattr(GroupPartition, "labels", counted)
        results = {m: run_mondrian(shared, part, m) for m in METHODS}
        assert len(METHODS) == 9 and sorted(calls) == sorted([len(cal), len(test)])
        for m, res_s in results.items():
            res_f = run_mondrian(Split(cal, test, 0.1, SCALE, FAST), part, m)
            assert res_s.intervals == res_f.intervals, m
            assert np.array_equal(res_s.y_hat, res_f.y_hat), m
            assert res_s.q_hat == res_f.q_hat, m
        # A group below the minimum is rejected on every call, grouped or not.
        labelled = len(calls)
        for _ in range(2):
            with pytest.raises(DataError, match="calibration samples"):
                run_mondrian(shared, part, "cqr", min_group_cal=10_000)
        assert len(calls) == labelled

    def test_group_without_calibration_rows_rejected(self):
        """A group with test rows and no calibration rows raises on every
        call, even with no minimum group size."""
        cal, test, _ = split_synth(n=400, seed=19, generator="heteroscedastic_groups")
        cal = cal[cal.group == "low"]
        split = Split(cal, test, 0.1, SCALE, FAST)
        part = BUILTIN_PARTITIONS["by_group_tag"]
        with pytest.raises(DataError, match="group 'high' has 0 calibration samples"):
            run_mondrian(split, part, "naive_split")
        for _ in range(2):
            with pytest.raises(DataError, match="empty calibration set"):
                run_mondrian(split, part, "naive_split", min_group_cal=0)

    def test_run_experiment_labels_each_row_set_once(self, monkeypatch):
        """One seed of nine Mondrian methods labels the calibration rows and
        the test rows once each: the runner's group strata and every
        method's groups read the same labels."""
        from scorebands.harness import ExperimentConfig, run_experiment

        batch, _ = generate_synthetic(
            SyntheticSpec(n=400, seed=20, generator="heteroscedastic_groups")
        )
        calls = []
        original = GroupPartition.labels

        def counted(self, rows):
            calls.append(len(rows))
            return original(self, rows)

        monkeypatch.setattr(GroupPartition, "labels", counted)
        config = ExperimentConfig.from_dict(
            {"seeds": [0], "mondrian": "by_group_tag", "epochs": 2, "boost_rounds": 2}
        )
        report = run_experiment(config, batch)
        assert not report.errors and len(report.per_seed) == len(METHODS)
        cal_idx, test_idx = make_split(len(batch), config.cal_fraction, 0)
        assert sorted(calls) == sorted([len(cal_idx), len(test_idx)])

    def test_lvd_wider_in_noisy_cluster(self):
        cal, test, _ = split_synth(
            n=2000, seed=13, generator="heteroscedastic_groups", sigma=0.25
        )
        res = run_method("lvd", Split(cal, test, 0.1, SCALE, FAST))
        low = res.intervals.width[test.group == "low"]
        high = res.intervals.width[test.group == "high"]
        assert np.mean(high) > np.mean(low)

    def test_r2ccp_narrower_than_naive_on_heteroscedastic(self):
        widths = {"r2ccp": [], "naive_split": []}
        for seed in (14, 15):
            cal, test, _ = split_synth(
                n=2000, seed=seed, generator="heteroscedastic_groups", sigma=0.25
            )
            split = Split(cal, test, 0.1, SCALE, FAST)
            for method in widths:
                res = run_method(method, split)
                widths[method].append(np.mean(res.intervals.width))
        assert np.mean(widths["r2ccp"]) < np.mean(widths["naive_split"])

    def test_heteroscedastic_adaptation(self):
        cal, test, gts = split_synth(
            n=2400, seed=12, generator="heteroscedastic_groups", sigma=0.25
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        res_m = run_mondrian(Split(cal, test, 0.1, SCALE, FAST), part, "naive_split")
        res_g = run_method("naive_split", Split(cal, test, 0.1, SCALE, FAST))
        low = np.flatnonzero(test.group == "low")
        high = np.flatnonzero(test.group == "high")
        for idx in (low, high):
            cov = coverage(res_m.intervals[idx], gts[idx])
            assert 0.84 <= cov <= 0.96
        w_m_low = np.mean(res_m.intervals.width[low])
        w_g_low = np.mean(res_g.intervals.width[low])
        assert w_m_low < 0.9 * w_g_low


# ---------------------------------------------------------------------------
# The former per-interval code, kept as the reference for the array rules.
# ---------------------------------------------------------------------------


def reference_interval(lo, hi, scale):
    if lo > hi:
        lo = hi = (lo + hi) / 2.0
    lo, hi = float(lo), float(hi)
    return (
        float(min(max(lo, 1), scale.k_max)),
        float(max(min(hi, scale.k_max), 1)),
    )


def reference_adjust(lower, upper, scale, direction):
    if direction == "off":
        return None
    if direction == "outward":
        al = max(1, math.floor(lower))
        au = min(scale.k_max, math.ceil(upper))
    else:
        al = math.ceil(lower)
        au = math.floor(upper)
        if al > au:
            al = au = int(math.floor((lower + upper) / 2.0 + 0.5))
        al = min(max(al, 1), scale.k_max)
        au = min(max(au, 1), scale.k_max)
    return int(al), int(au)


def reference_naive(y_conf, mu_conf, mu_test, alpha, scale):
    q = conformal_quantile(np.abs(y_conf - mu_conf), alpha)
    return q, _interval(mu_test - q, mu_test + q, scale), mu_test


def reference_lvd(y_conf, mu_conf, sig_conf, mu_test, sig_test, alpha, scale):
    q = conformal_quantile(np.abs(y_conf - mu_conf) / sig_conf, alpha)
    half = q * sig_test
    return q, _interval(mu_test - half, mu_test + half, scale), mu_test


def reference_cqr(y_conf, lo_conf, hi_conf, lo_test, hi_test, alpha, scale,
                  symmetric=True):
    point = (lo_test + hi_test) / 2.0
    if symmetric:
        q = conformal_quantile(np.maximum(lo_conf - y_conf, y_conf - hi_conf), alpha)
        return q, _interval(lo_test - q, hi_test + q, scale), point
    q_lo = conformal_quantile(lo_conf - y_conf, alpha / 2.0)
    q_hi = conformal_quantile(y_conf - hi_conf, alpha / 2.0)
    return (q_lo, q_hi), _interval(lo_test - q_lo, hi_test + q_hi, scale), point


def reference_density(conf_scores, neg_logp, lows, highs, alpha, scale):
    thr = conformal_quantile(conf_scores, alpha)
    out = []
    for row in neg_logp:
        qualifying = np.flatnonzero(row <= thr)
        if qualifying.size == 0:
            out.append((float(1), float(scale.k_max)))
        else:
            out.append(reference_interval(lows[qualifying[0]], highs[qualifying[-1]], scale))
    return thr, out


def reference_growth_path(probs):
    k = len(probs)
    start = int(np.argmax(probs))
    order = [start]
    masses = [float(probs[start])]
    left, right = start - 1, start + 1
    while left >= 0 or right < k:
        if left < 0:
            pick = right
            right += 1
        elif right >= k:
            pick = left
            left -= 1
        elif probs[left] >= probs[right]:
            pick = left
            left -= 1
        else:
            pick = right
            right += 1
        order.append(pick)
        masses.append(masses[-1] + float(probs[pick]))
    return order, masses


def reference_aps_set(probs, threshold):
    order, masses = reference_growth_path(probs)
    take = 1
    while take < len(order) and masses[take - 1] < threshold:
        take += 1
    chosen = order[:take]
    return min(chosen), max(chosen)


def reference_aps(probs_conf, y_idx, probs_test, alpha, scale):
    scores = []
    for p, i in zip(probs_conf, y_idx):
        order, masses = reference_growth_path(p)
        scores.append(masses[order.index(int(i))])
    q = conformal_quantile(np.array(scores), alpha)
    out = []
    for p in probs_test:
        lo_idx, hi_idx = reference_aps_set(p, q)
        out.append(reference_interval(1 + lo_idx, 1 + hi_idx, scale))
    return q, out


def pairs(ivs):
    return list(zip(ivs.lower.tolist(), ivs.upper.tolist()))


def bits(result):
    """A rule's (q_hat, intervals, point), each as its float64 bytes."""
    q, ivs, point = result
    return [np.asarray(a, dtype=np.float64).tobytes() for a in (q, ivs.lower, ivs.upper, point)]


def peaked_probs(rng, n, k):
    """Rows of probabilities with exact ties and zero cells mixed in."""
    probs = rng.dirichlet(np.full(k, 0.6), size=n)
    probs[: n // 4] = np.round(probs[: n // 4], 1)
    probs[n // 4 : n // 2, k // 2] = 0.0
    return probs


class TestBandRule:
    """band_intervals equals the former naive, LVD and CQR rules bit for bit."""

    @pytest.mark.parametrize("k", [3, 5, 10])
    @pytest.mark.parametrize("n_conf", [500, 2])  # two scores overflow: q = inf
    def test_equals_former_rules(self, k, n_conf):
        scale = RatingScale(k_max=k)
        rng = np.random.default_rng(k * n_conf)
        y = rng.integers(1, k + 1, n_conf).astype(float)
        mu, sig = y + rng.normal(0, 0.7, n_conf), rng.uniform(0.2, 2.0, n_conf)
        mu_t, sig_t = rng.uniform(0.0, k + 1.0, 400), rng.uniform(0.2, 2.0, 400)
        got = band_intervals(y, (mu, mu, 1.0), (mu_t, mu_t, 1.0), 0.1, scale)
        assert bits(got) == bits(reference_naive(y, mu, mu_t, 0.1, scale))
        got = band_intervals(y, (mu, mu, sig), (mu_t, mu_t, sig_t), 0.1, scale)
        assert bits(got) == bits(reference_lvd(y, mu, sig, mu_t, sig_t, 0.1, scale))
        # Bands wider than every label give negative corrections, which cross
        # the narrow test bands; some test bands are crossed to begin with.
        lo, hi = y - rng.uniform(0.2, 2.0, n_conf), y + rng.uniform(0.2, 2.0, n_conf)
        lo_t = rng.uniform(0.0, k + 1.0, 400)
        hi_t = lo_t + rng.uniform(-0.5, 1.0, 400)
        for symmetric in (True, False):
            got = band_intervals(y, (lo, hi, 1.0), (lo_t, hi_t, 1.0), 0.1, scale, symmetric)
            want = reference_cqr(y, lo, hi, lo_t, hi_t, 0.1, scale, symmetric)
            assert bits(got) == bits(want)
            q_lo, q_hi = (got[0], got[0]) if symmetric else got[0]
            if n_conf == 2:
                assert q_lo == q_hi == math.inf
            else:
                assert (lo_t - q_lo > hi_t + q_hi).any()

    @pytest.mark.parametrize("method", ["naive_split", "lvd", "boosted_lcp", "cqr",
                                        "cqr_asym", "boosted_cqr"])
    def test_methods_equal_former_rules(self, method):
        """Each band method, from its own learners, gives what the former
        rule gave on the former predictions (boosted_cqr sorted its two
        forests' predictions per row)."""
        cal, test, _ = split_synth(n=600, seed=34, label_noise=0.35)
        cfg = MethodConfig(train=TrainConfig(epochs=8, batch_size=256, learning_rate=0.1),
                           boost_rounds=8)
        split = Split(cal, test, 0.1, SCALE, cfg)
        res = run_method(method, split)
        conf = split.conf

        def fitted(key, X):
            return _learner(split, key).predict(X)

        sigma = {
            "lvd": lambda X: np.maximum(fitted("sigma", X)[:, 0], cfg.sigma_floor),
            "boosted_lcp": lambda X: np.maximum(fitted(("boosted", "absolute", None), X),
                                                cfg.sigma_floor),
        }
        forests = [("boosted", "pinball", tau) for tau in _taus(0.1)]
        quantiles = {
            "cqr": lambda X: np.sort(fitted("quantile", X), 1),
            "cqr_asym": lambda X: np.sort(fitted("quantile", X), 1),
            "boosted_cqr": lambda X: np.sort(np.column_stack([fitted(f, X) for f in forests]), 1),
        }

        def mean(X):
            return fitted("mean", X)[:, 0]

        if method == "naive_split":
            want = reference_naive(conf.y, mean(conf.X), mean(test.X), 0.1, SCALE)
        elif method in sigma:
            sig = sigma[method]
            want = reference_lvd(conf.y, mean(conf.X), sig(conf.X), mean(test.X),
                                 sig(test.X), 0.1, SCALE)
        else:
            qc, qt = quantiles[method](conf.X), quantiles[method](test.X)
            want = reference_cqr(conf.y, qc[:, 0], qc[:, -1], qt[:, 0], qt[:, -1], 0.1,
                                 SCALE, symmetric=method != "cqr_asym")
        assert bits((res.q_hat, res.intervals, res.y_hat)) == bits(want)

    def test_boosted_band_is_each_rows_sorted_pair(self):
        """Where the two forests cross, boosted_cqr's band still runs from
        each row's lower to its higher output, as the former row sort gave."""
        from types import SimpleNamespace

        from scorebands.conformal import _boosted_quantiles

        rng = np.random.default_rng(35)
        a, b = rng.normal(3.0, 1.0, 500), rng.normal(3.0, 1.0, 500)
        a[:50] = b[:50]  # ties
        cal, test, _ = split_synth(n=200, seed=35)
        split = Split(cal, test, 0.1, SCALE)
        for tau, v in zip(_taus(0.1), (a, b)):
            split.memo(("boosted", "pinball", tau), lambda v=v: SimpleNamespace(predict=lambda X: v))
        lo, hi, spread = _boosted_quantiles(split, "test")
        rows = np.sort(np.column_stack([a, b]), axis=1)
        assert (a > b).any() and (a < b).any() and spread == 1.0
        assert (lo.tobytes(), hi.tobytes()) == (rows[:, 0].tobytes(), rows[:, -1].tobytes())


class TestColumnarIdentity:
    """The array rules equal the former per-interval loops exactly."""

    def test_crossed_endpoints_collapse_as_before(self):
        rng = np.random.default_rng(3)
        y = np.full(40, 3.0)
        lo, hi = np.full(40, 1.0), np.full(40, 5.0)
        lo_t = rng.uniform(0.0, 6.0, 300)
        hi_t = lo_t + rng.uniform(-0.5, 0.5, 300)
        for symmetric in (True, False):
            q, ivs, _ = band_intervals(
                y, (lo, hi, 1.0), (lo_t, hi_t, 1.0), 0.1, SCALE, symmetric
            )
            q_lo, q_hi = (q, q) if symmetric else q
            assert min(q_lo, q_hi) < 0  # corrections cross some intervals
            want = [reference_interval(l - q_lo, h + q_hi, SCALE) for l, h in zip(lo_t, hi_t)]
            assert pairs(ivs) == want

    def test_infinite_threshold_gives_full_range(self):
        y = np.array([3.0, 4.0])
        mu = np.array([0.5, 2.25, 4.9, 6.0])
        q, ivs, _ = band_intervals(y, (y, y, 1.0), (mu, mu, 1.0), 0.1, SCALE)
        assert q == math.inf
        assert pairs(ivs) == [reference_interval(m - q, m + q, SCALE) for m in mu]
        q, ivs, _ = band_intervals(
            y, (y, y, np.ones(2)), (mu, mu, np.full(4, 0.5)), 0.1, SCALE
        )
        assert pairs(ivs) == [(1.0, 5.0)] * 4

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_naive_and_lvd(self, k):
        scale = RatingScale(k_max=k)
        rng = np.random.default_rng(k)
        y = rng.integers(1, k + 1, 500).astype(float)
        mu = y + rng.normal(0, 0.7, 500)
        sig = rng.uniform(0.2, 2.0, 500)
        mu_t = rng.uniform(0.0, k + 1.0, 400)
        sig_t = rng.uniform(0.2, 2.0, 400)
        q, ivs, _ = band_intervals(y, (mu, mu, 1.0), (mu_t, mu_t, 1.0), 0.1, scale)
        assert pairs(ivs) == [reference_interval(m - q, m + q, scale) for m in mu_t]
        q, ivs, _ = band_intervals(y, (mu, mu, sig), (mu_t, mu_t, sig_t), 0.1, scale)
        want = [reference_interval(m - q * s, m + q * s, scale) for m, s in zip(mu_t, sig_t)]
        assert pairs(ivs) == want

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_density_rows(self, k):
        scale = RatingScale(k_max=k)
        rng = np.random.default_rng(10 + k)
        # One cell per label over [0.5, K + 0.5].
        edges = np.linspace(0.5, k + 0.5, k + 1)
        neg = rng.uniform(0, 4, size=(300, k))
        neg[:40] = 9.0  # rows with no qualifying cell
        conf = rng.uniform(0, 4, size=200)
        want_thr, want = reference_density(conf, neg, edges[:-1], edges[1:], 0.2, scale)
        thr, ivs = cell_rule(conf, neg, 0.2, scale, edges=True)
        assert thr == want_thr
        assert pairs(ivs) == want
        assert pairs(ivs)[:40] == [(1.0, float(k))] * 40

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_aps(self, k):
        scale = RatingScale(k_max=k)
        rng = np.random.default_rng(20 + k)
        probs_conf = peaked_probs(rng, 400, k)
        y_idx = rng.integers(0, k, 400)
        probs_test = peaked_probs(rng, 300, k)
        want_q, want = reference_aps(probs_conf, y_idx, probs_test, 0.1, scale)
        q, ivs, labels = aps_intervals(y_idx + 1.0, probs_conf, probs_test, 0.1, scale)
        assert q == want_q
        assert pairs(ivs) == want
        assert labels.tolist() == [1.0 + int(np.argmax(p)) for p in probs_test]
        order, masses, _, _ = _aps_paths(probs_test[:50])
        assert list(zip(order.tolist(), masses.tolist())) == [
            reference_growth_path(p) for p in probs_test[:50]
        ]
        for thr in (0.0, 0.5, q, 1.0, 2.0):
            lo, hi, _ = aps_sets(probs_test[:50], thr)
            assert list(zip(lo.tolist(), hi.tolist())) == [
                reference_aps_set(p, thr) for p in probs_test[:50]
            ]

    @pytest.mark.parametrize("k", [3, 5, 10])
    @pytest.mark.parametrize("direction", ["outward", "inward", "off"])
    def test_adjustment(self, k, direction):
        scale = RatingScale(k_max=k)
        rng = np.random.default_rng(k)
        lo = rng.uniform(1.0, k, 2000)
        lo[:200] = np.round(lo[:200] * 2) / 2  # endpoints on labels and halves
        hi = np.minimum(lo + rng.uniform(0.0, 2.0, 2000) * (rng.random(2000) < 0.8), k)
        ivs = adjust_all(Intervals(lo, hi), scale, direction)
        want = [reference_adjust(l, h, scale, direction) for l, h in zip(lo, hi)]
        if direction == "off":
            assert not ivs.adjusted
        else:
            assert ivs.adj_lower.dtype == np.int64
            assert list(zip(ivs.adj_lower.tolist(), ivs.adj_upper.tolist())) == want
        for i in range(0, 2000, 97):
            one = adjust_all(Intervals(lo[i : i + 1], hi[i : i + 1]), scale, direction)
            got = (one.adj_lower[0], one.adj_upper[0]) if one.adjusted else None
            assert got == want[i]

    def test_adjusting_one_row_equals_adjusting_columns(self):
        raw = Intervals([1.2, 2.0, 4.5], [3.7, 2.0, 5.0])
        for direction in ("outward", "inward"):
            rows = [adjust_all(raw[i : i + 1], SCALE, direction) for i in range(3)]
            cols = adjust_all(raw, SCALE, direction)
            assert [cols[i : i + 1] for i in range(3)] == rows

    def test_unknown_direction_rejected_for_any_length(self):
        with pytest.raises(DataError):
            adjust_all(Intervals([], []), SCALE, direction="sideways")

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([3, 5, 10]),
        raw=st.lists(
            st.tuples(
                st.floats(-3.0, 14.0, allow_nan=False),
                st.floats(-3.0, 14.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        direction=st.sampled_from(["outward", "inward"]),
    )
    def test_interval_rule_and_adjustment_property(self, k, raw, direction):
        scale = RatingScale(k_max=k)
        lo = np.array([a for a, _ in raw])
        hi = np.array([b for _, b in raw])
        zeros = np.zeros(3)
        ivs = band_intervals(zeros, (zeros, zeros, 1.0), (lo, hi, 1.0), 0.5, scale)[1]
        q = conformal_quantile(np.zeros(3), 0.5)
        want = [reference_interval(a - q, b + q, scale) for a, b in raw]
        assert pairs(ivs) == want
        adj = adjust_all(ivs, scale, direction)
        assert list(zip(adj.adj_lower.tolist(), adj.adj_upper.tolist())) == [
            reference_adjust(a, b, scale, direction) for a, b in want
        ]


class TestNonFiniteOutput:
    def test_nan_endpoint_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            y, mu = np.array([3.0, 4.0]), np.array([2.0, np.nan])
            band_intervals(y, (y, y, 1.0), (mu, mu, 1.0), 0.5, SCALE)

    def test_infinite_prediction_rejected(self):
        # An infinite mean clamps to a finite interval; the prediction itself
        # is what must fail.
        with pytest.raises(ValueError, match="non-finite point prediction"):
            MethodResult("m", Intervals([1.0], [5.0]), np.array([np.inf]), 1.0)

    def test_adjustment_never_meets_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Intervals([1.0, np.nan], [2.0, np.nan])


class TestQuantileNaN:
    SCORES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    @pytest.mark.parametrize("pos", [0, 4, 9])
    def test_nan_score_rejected_wherever_it_sits(self, pos):
        scores = list(self.SCORES)
        scores.insert(pos, math.nan)
        with pytest.raises(DataError, match="NaN"):
            conformal_quantile(scores, 0.3)
        with pytest.raises(DataError, match="NaN"):
            conformal_quantile(np.array(scores), 0.3)

    def test_infinities_are_valid_scores(self):
        scores = [math.inf, 2.0, -math.inf, 1.0, math.inf, 0.5]
        assert conformal_quantile(scores, 0.5) == 2.0  # rank 4 of 6
        assert conformal_quantile(scores, 0.2) == math.inf  # rank 6 of 6
        assert conformal_quantile([-math.inf] * 4, 0.2) == -math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(
                st.floats(-100, 100, allow_nan=False),
                st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
            ),
            min_size=1,
            max_size=60,
        ),
        alpha=st.sampled_from([0.05, 0.1, 0.3, 0.5]),
    )
    def test_order_statistic_equals_sorted_list(self, scores, alpha):
        from fractions import Fraction

        rank = math.ceil((len(scores) + 1) * (1 - Fraction(repr(alpha))))
        want = math.inf if rank > len(scores) else float(sorted(scores)[rank - 1])
        got = conformal_quantile(np.array(scores), alpha)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestCacheKeys:
    """The methods of one Split share its learners and their predictions: a
    fit is keyed by its learner kind, a prediction by its model and the row
    set."""

    FAST_FIT = MethodConfig(
        train=TrainConfig(epochs=8, batch_size=256, learning_rate=0.1), boost_rounds=8
    )

    @staticmethod
    def assert_same(res_s, res_f, what):
        assert res_s.q_hat == res_f.q_hat, what
        assert res_s.intervals == res_f.intervals, what
        assert res_s.y_hat.tobytes() == res_f.y_hat.tobytes(), what

    @pytest.mark.parametrize("method", ["cqr", "cqr_asym", "boosted_cqr"])
    def test_shared_cache_equals_fresh_fits_across_alphas(self, method):
        """The quantile learners' targets follow alpha; at each alpha, a
        Split that the other quantile methods ran on first gives what a
        fresh Split gives."""
        cal, test, _ = split_synth(n=600, seed=21, label_noise=0.35)
        for alpha in (0.1, 0.3):
            shared = Split(cal, test, alpha, SCALE, self.FAST_FIT)
            for other in ("cqr", "cqr_asym", "boosted_cqr"):
                run_method(other, shared)
            res_f = run_method(method, Split(cal, test, alpha, SCALE, self.FAST_FIT))
            self.assert_same(run_method(method, shared), res_f, alpha)

    @staticmethod
    def count_predictions(monkeypatch) -> list:
        """(model id, model type, rows id, row count, result) of every
        prediction a learner makes."""
        calls = []

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(self, X):
                value = original(self, X)
                calls.append((id(self), f"{cls.__name__}.{name}", id(X), len(X), value))
                return value

            monkeypatch.setattr(cls, name, wrapper)

        counted(Net, "predict")
        counted(BoostedModel, "predict")
        return calls

    @staticmethod
    def once_per_split(cal, test) -> list:
        """(model type, row count) of every prediction that the nine methods
        of one split make: the network of the mean and the label logits
        predicts the learner half, the conformal half and the test set; the
        spread network, the quantile network and the three forests the last
        two."""
        n_learn, n_conf = len(cal) // 2, len(cal) - len(cal) // 2
        each = ["Net.predict"] * 3 + ["BoostedModel.predict"] * 3
        return [("Net.predict", n_learn)] + [
            (what, n) for what in each for n in (n_conf, len(test))
        ]

    @staticmethod
    def assert_once_each(calls, want):
        """Each model predicts each row set at most once, and the
        predictions made are ``want``."""
        assert len({c[:3] for c in calls}) == len(calls)
        assert sorted(c[1:4:2] for c in calls) == sorted(want)

    def test_each_prediction_is_made_once_per_split(self, monkeypatch):
        calls = self.count_predictions(monkeypatch)
        cal, test, _ = split_synth(n=601, seed=23, label_noise=0.35)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        results = {m: run_method(m, shared) for m in METHODS}
        self.assert_once_each(calls, self.once_per_split(cal, test))
        for m, res in results.items():
            self.assert_same(res, run_method(m, Split(cal, test, 0.1, SCALE, self.FAST_FIT)), m)

    def test_each_prediction_is_made_once_per_group(self, monkeypatch):
        cal, test, _ = split_synth(
            n=900, seed=25, label_noise=0.35, generator="heteroscedastic_groups"
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        calls = self.count_predictions(monkeypatch)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        for m in METHODS:
            run_mondrian(shared, part, m)
        cal_groups, test_groups = part.labels(cal), part.labels(test)
        groups = sorted(set(cal_groups.tolist()))
        want = []
        for g in groups:
            want += self.once_per_split(cal[cal_groups == g], test[test_groups == g])
        assert len(groups) > 1
        self.assert_once_each(calls, want)

    # Fits of nine methods on one Split: three networks and three forests.
    # The mean network carries the label logits, so no label network is fit.
    FITS_PER_SPLIT = {"fit_point_var": 1, "fit_spread_head": 1, "fit_quantile_model": 1,
                      "fit_hist_density": 0, "fit_boosted": 3}

    @classmethod
    def count_fits(cls, monkeypatch) -> Counter:
        """Calls of each learner fit that the method table makes."""
        from scorebands import conformal

        fits = Counter()
        for name in cls.FITS_PER_SPLIT:
            def counted(*args, _name=name, _fit=getattr(conformal, name), **kwargs):
                fits[_name] += 1
                return _fit(*args, **kwargs)

            monkeypatch.setattr(conformal, name, counted)
        return fits

    def test_each_learner_is_fit_once_per_split(self, monkeypatch):
        fits = self.count_fits(monkeypatch)
        cal, test, _ = split_synth(n=600, seed=29, label_noise=0.35)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        for _ in range(2):
            for m in METHODS:
                run_method(m, shared)
            assert fits == Counter(self.FITS_PER_SPLIT)
        fits.clear()
        unboosted = Split(cal, test, 0.1, SCALE,
                          MethodConfig(train=self.FAST_FIT.train, boost_rounds=0))
        for m in METHODS:
            run_method(m, unboosted)
        assert "fit_boosted" not in fits
        assert fits == Counter({**self.FITS_PER_SPLIT, "fit_boosted": 0})

    def test_each_learner_is_fit_once_per_group(self, monkeypatch):
        cal, test, _ = split_synth(
            n=900, seed=30, label_noise=0.35, generator="heteroscedastic_groups"
        )
        part = BUILTIN_PARTITIONS["by_group_tag"]
        fits = self.count_fits(monkeypatch)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        for m in METHODS:
            run_mondrian(shared, part, m)
        n_groups = len(set(part.labels(cal).tolist()))
        assert n_groups > 1
        assert fits == Counter({k: v * n_groups for k, v in self.FITS_PER_SPLIT.items()})

    def test_shared_predictions_are_read_only(self, monkeypatch):
        calls = self.count_predictions(monkeypatch)
        cal, test, _ = split_synth(n=600, seed=28)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        results = [run_method(m, shared) for m in METHODS]
        kept = [c[-1] for c in calls]
        assert len(kept) == len(self.once_per_split(cal, test)) == 13
        assert not any(a.flags.writeable for a in kept)
        # A point prediction is the result's own array: writing to it leaves
        # every kept prediction as it was.
        copies = [a.copy() for a in kept]
        for res in results:
            assert res.y_hat.flags.writeable, res.method
            assert not any(np.shares_memory(res.y_hat, a) for a in kept), res.method
            res.y_hat[:] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(kept, copies))
        fresh = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        for m in METHODS:
            self.assert_same(run_method(m, shared), run_method(m, fresh), m)

    def test_r2ccp_after_chr_adds_no_fit_and_no_kept_array(self, monkeypatch):
        """r2ccp reads chr's label logits: after chr on one Split it adds
        neither a fit nor a prediction."""
        calls = self.count_predictions(monkeypatch)
        fits = count_label_fits(monkeypatch)
        cal, test, _ = split_synth(n=600, seed=28)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        run_method("chr", shared)
        assert (len(fits), len(calls)) == (1, 2)
        res_s = run_method("r2ccp", shared)
        assert (len(fits), len(calls)) == (1, 2)
        res_f = run_method("r2ccp", Split(cal, test, 0.1, SCALE, self.FAST_FIT))
        assert res_s.intervals == res_f.intervals
        assert res_s.y_hat.flags.writeable


def count_label_fits(monkeypatch) -> list:
    """The row count of every fit of the network that carries the label
    logits, the mean network."""
    from scorebands import conformal

    fits = []
    original = conformal.fit_point_var

    def counted(X, *args, **kwargs):
        fits.append(len(X))
        return original(X, *args, **kwargs)

    monkeypatch.setattr(conformal, "fit_point_var", counted)
    return fits


class TestLabelNetwork:
    """chr's histogram has one bin per label: the label logits that the mean
    network carries beside the mean. One fit and one forward pass per row
    set serve chr, r2ccp, ordinal_aps and the mean-based methods."""

    FAST_FIT = TestCacheKeys.FAST_FIT

    @pytest.mark.parametrize("k_max", [3, 5, 7, 10])
    def test_chr_has_one_bin_per_label(self, k_max):
        scale = RatingScale(k_max=k_max)
        cal, test, _ = split_synth(n=300, seed=31, scale=scale, feature_dim=k_max)
        split = Split(cal, test, 0.1, scale, self.FAST_FIT)
        run_method("chr", split)
        model = _learner(split, "mean")
        # The mean, then one logit per label: on ten labels, 5 and 6 do not
        # share a bin.
        assert model.predict(test.X[:4]).shape == (4, 1 + k_max)
        assert model.params[-1][0].shape[1] == 1 + k_max

    def test_chr_and_ordinal_aps_share_one_fit_and_forward_pass(self, monkeypatch):
        """And naive_split shares both: its mean is output 0 of the same
        network."""
        calls = []
        original = Net.predict

        def counted(self, X):
            calls.append(len(X))
            return original(self, X)

        monkeypatch.setattr(Net, "predict", counted)
        fits = count_label_fits(monkeypatch)
        cal, test, _ = split_synth(n=600, seed=32, label_noise=0.35)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        for method in ("chr", "ordinal_aps", "naive_split"):
            run_method(method, shared)
        assert fits == [len(cal) // 2]
        assert sorted(calls) == sorted([len(cal) - len(cal) // 2, len(test)])

    @pytest.mark.parametrize("k_max", [3, 5, 10])
    def test_r2ccp_is_chr_from_label_centre_to_centre(self, k_max):
        """On one label network, r2ccp's interval is chr's run of labels with
        each inner end moved in by half a bin: the bins' centres are the
        labels, their edges the labels +- 0.5."""
        scale = RatingScale(k_max=k_max)
        cal, test, _ = split_synth(n=600, seed=34, scale=scale, feature_dim=k_max,
                                   label_noise=0.35)
        shared = Split(cal, test, 0.1, scale, self.FAST_FIT)
        res_chr = run_method("chr", shared)
        res_r2 = run_method("r2ccp", shared)
        assert res_r2.q_hat == res_chr.q_hat
        assert res_r2.y_hat.tobytes() == res_chr.y_hat.tobytes()
        lo, hi = res_chr.intervals.lower, res_chr.intervals.upper
        assert np.array_equal(res_r2.intervals.lower, np.where(lo == 1, 1, lo + 0.5))
        assert np.array_equal(res_r2.intervals.upper,
                              np.where(hi == k_max, k_max, hi - 0.5))

    @pytest.mark.parametrize("method", ["chr", "r2ccp", "ordinal_aps", "naive_split",
                                        "lvd", "boosted_lcp"])
    def test_label_outside_the_scale_raises(self, method):
        """A label that is not one of 1..K raises: it is neither clipped into
        an end cell nor wrapped round to a column from the other end. The
        label methods check both halves; the mean-based methods fit the
        network that carries the label logits, so they check the learner
        half."""
        import dataclasses

        cal, test, _ = split_synth(n=200, seed=36)
        cfg = MethodConfig(train=TrainConfig(epochs=1))
        # In the learner half, in the conformal half.
        rows = (0, len(cal) - 1) if method in ("chr", "r2ccp", "ordinal_aps") else (0,)
        for row in rows:
            for bad in (0.0, 6.0, 2.5):
                y = cal.y.copy()
                y[row] = bad
                split = Split(dataclasses.replace(cal, y=y), test, 0.1, SCALE, cfg)
                with pytest.raises(ValueError, match=f"label {bad:g} is not one of 1..5"):
                    run_method(method, split)

    @pytest.mark.parametrize("first, then", [("chr", "ordinal_aps"),
                                             ("ordinal_aps", "chr")])
    def test_shared_label_network_equals_fresh_fit(self, first, then, monkeypatch):
        fits = count_label_fits(monkeypatch)
        cal, test, _ = split_synth(n=600, seed=33, label_noise=0.35)
        shared = Split(cal, test, 0.1, SCALE, self.FAST_FIT)
        run_method(first, shared)
        res_s = run_method(then, shared)
        res_f = run_method(then, Split(cal, test, 0.1, SCALE, self.FAST_FIT))
        assert len(fits) == 2  # one per Split
        assert res_s.q_hat == res_f.q_hat
        for a, b in ((res_s.intervals.lower, res_f.intervals.lower),
                     (res_s.intervals.upper, res_f.intervals.upper),
                     (res_s.y_hat, res_f.y_hat)):
            assert a.tobytes() == b.tobytes()


class TestBatchEntry:
    def test_partition_labels_by_dataset(self):
        batch, _, _ = split_synth(n=200, seed=24)
        tags = sorted(set(batch.dataset.tolist()))
        part = GroupPartition(name="p", group_of={t: f"g-{t}" for t in tags})
        assert part.labels(batch).tolist() == [f"g-{d}" for d in batch.dataset.tolist()]
