"""Metric tests, including brute-force correlation oracles."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebands.core import DataError, Intervals, InvariantError, RatingScale
from scorebands.metrics import (
    Ranked,
    Strata,
    _inversions,
    accuracy_metrics,
    bucket_widths,
    correlations,
    coverage,
    error_bins,
    informativeness,
    interval_metrics,
    kendall_tau_b,
    midpoint_eval,
    pearson,
    point_metrics,
    round_to_label,
    rsg,
    stratified,
)

SCALE = RatingScale()


@dataclass(frozen=True)
class Interval:
    """One interval: the row type of the per-row reference oracles below."""

    lower: float
    upper: float
    adj_lower: int | None = None
    adj_upper: int | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"interval endpoint is NaN ({self.lower}, {self.upper})")
        if self.lower > self.upper:
            raise ValueError(f"interval lower {self.lower} > upper {self.upper}")
        if (self.adj_lower is None) != (self.adj_upper is None):
            raise ValueError("adjusted endpoints must be set together")
        if self.adj_lower is not None and self.adj_lower > self.adj_upper:
            raise ValueError(
                f"adjusted lower {self.adj_lower} > upper {self.adj_upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def adj_width(self) -> int | None:
        if self.adj_lower is None:
            return None
        return self.adj_upper - self.adj_lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper

    def contains_adjusted(self, y: int) -> bool:
        if self.adj_lower is None:
            raise InvariantError("interval has no adjusted endpoints")
        return self.adj_lower <= y <= self.adj_upper


def columns(items):
    """A list of Interval as one Intervals, adjusted when every item is."""
    adjusted = bool(items) and all(iv.adj_lower is not None for iv in items)
    return Intervals(
        [iv.lower for iv in items],
        [iv.upper for iv in items],
        [iv.adj_lower for iv in items] if adjusted else None,
        [iv.adj_upper for iv in items] if adjusted else None,
    )


# ---------------------------------------------------------------------------
# O(n^2) brute-force oracles, independent of the library implementations.
# ---------------------------------------------------------------------------


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    if sx == 0 or sy == 0:
        return None
    return sxy / (sx * sy)


def midrank_oracle(v):
    out = []
    for a in v:
        less = sum(1 for b in v if b < a)
        equal = sum(1 for b in v if b == a)
        out.append(less + (equal + 1) / 2.0)
    return out


def spearman_oracle(x, y):
    return pearson_oracle(midrank_oracle(x), midrank_oracle(y))


def kendall_oracle(x, y):
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        return None
    return (concordant - discordant) / denom


# ---------------------------------------------------------------------------
# The former O(n^2) library code, kept as the bit-identity reference for the
# O(n log n) rank functions.
# ---------------------------------------------------------------------------


def _reference_tie_pairs(v):
    _, counts = np.unique(v, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def reference_kendall_tau_b(x, y, chunk=512):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 2:
        return None
    n0 = n * (n - 1) // 2
    denom = math.sqrt(
        (n0 - _reference_tie_pairs(x)) * (n0 - _reference_tie_pairs(y))
    )
    if denom == 0.0:
        return None
    s = 0.0
    with np.errstate(invalid="ignore"):
        for start in range(0, n, chunk):
            dx = np.sign(x[start : start + chunk, None] - x[None, :])
            dy = np.sign(y[start : start + chunk, None] - y[None, :])
            s += float((dx * dy).sum())
    return (s / 2.0) / denom


def reference_midrank(values):
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def assert_same_kendall(x, y):
    """Plain y and y ranked once as a ``Ranked`` both give the reference."""
    want = reference_kendall_tau_b(x, y)
    for got in (kendall_tau_b(x, y), kendall_tau_b(x, Ranked.of(y))):
        if want is None:
            assert got is None
        elif math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want


def assert_same_midrank(v):
    got, want = Ranked.of(v).midranks, reference_midrank(v)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


class TestCoverage:
    def test_full_range_always_covers(self):
        ivs = Intervals([1.0] * 4, [5.0] * 4)
        assert coverage(ivs, [1, 3, 5, 2]) == 1.0

    def test_miss(self):
        assert coverage(Intervals([2.0], [3.0]), [4]) == 0.0

    def test_half(self):
        ivs = Intervals([2.5, 1.0], [4.5, 2.0])
        assert coverage(ivs, [3, 3]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            coverage(Intervals([1.0], [2.0]), [1, 2])

    def test_adjusted(self):
        ivs = Intervals([2.5], [4.5], [2], [5])
        assert coverage(ivs, [2], adjusted=True) == 1.0
        assert coverage(ivs, [2], adjusted=False) == 0.0


class TestCorrelations:
    def test_perfect(self):
        p, s, k = correlations([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert p == pytest.approx(1.0)
        assert s == pytest.approx(1.0)
        assert k == pytest.approx(1.0)

    def test_reversed(self):
        p, s, k = correlations([5, 4, 3, 2, 1], [1, 2, 3, 4, 5])
        assert p == pytest.approx(-1.0)
        assert s == pytest.approx(-1.0)
        assert k == pytest.approx(-1.0)

    def test_zero_variance_undefined(self):
        p, s, k = correlations([3, 3, 3], [1, 2, 3])
        assert p is None and s is None and k is None

    def test_too_short_undefined(self):
        assert correlations([1], [2]) == (None, None, None)

    def test_spearman_is_pearson_on_midranks(self):
        rng = np.random.default_rng(0)
        x = rng.integers(1, 6, 30).astype(float)
        y = rng.integers(1, 6, 30).astype(float)
        _, s, _ = correlations(x, y)
        spearman = pearson(Ranked.of(x).midranks, Ranked.of(y).midranks)
        assert s == pytest.approx(spearman, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force_on_tie_heavy_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 50))
        x = rng.integers(1, 6, n).astype(float)
        y = rng.integers(1, 6, n).astype(float)
        p, s, k = correlations(x, y)
        po, so, ko = pearson_oracle(x, y), spearman_oracle(x, y), kendall_oracle(x, y)
        for got, want in ((p, po), (s, so), (k, ko)):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_pearson_is_clipped_into_unit_range(self):
        """Unclipped, rounding gives 1.0000000000000002 for pearson(x, x) on
        about half of these draws; the clip makes those 1.0. Rounding down
        still gives a float a few ulps below 1.0 on some draws."""
        rng = np.random.default_rng(11)
        exact = 0
        for _ in range(300):
            x = rng.normal(size=int(rng.integers(2, 200)))
            r = pearson(x, x)
            assert 1.0 - 1e-15 <= r <= 1.0
            assert pearson(x, -x) == -r
            exact += r == 1.0
        assert exact > 150
        assert math.isnan(pearson([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))

    def test_ranked_target_is_ranked_once(self):
        y = np.array([3.0, 1.0, 3.0, 2.0, math.nan, 1.0])
        ranked = Ranked.of(y)
        assert Ranked.of(ranked) is ranked and len(ranked) == 6
        assert ranked.order.tolist() == [1, 5, 3, 0, 2, 4]
        assert ranked.codes.tolist() == [2, 0, 2, 1, 3, 0]
        assert np.array_equal(ranked.midranks, reference_midrank(y))
        assert ranked.tie_pairs == 2
        assert Ranked.of([math.nan] * 3 + [1.0]).tie_pairs == 3
        finite = np.where(np.isnan(y), 4.0, y)
        x = np.array([0.5, 2.0, 0.5, -1.0, 3.0, 2.0])
        assert correlations(x, Ranked.of(finite)) == correlations(x, finite)


def brute_force_inversions(ranks):
    return sum(
        1 for i in range(len(ranks)) for j in range(i + 1, len(ranks))
        if ranks[i] > ranks[j]
    )


def per_level_inversions(ranks):
    """Each row counts the earlier rows above it, one level at a time."""
    total = 0
    for level in np.unique(ranks):
        above_before = np.cumsum(ranks > level) - (ranks > level)
        total += int(above_before[ranks == level].sum())
    return total


class TestInversions:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 65, 500])
    @pytest.mark.parametrize("levels", [1, 2, 3, 5, 10, 64, None])
    def test_brute_force(self, n, levels):
        rng = np.random.default_rng(n * 100 + (levels or 0))
        ranks = rng.permutation(n) if levels is None else rng.integers(0, levels, n)
        assert _inversions(ranks) == brute_force_inversions(ranks.tolist())

    @pytest.mark.parametrize("spacing", [1, 25_000])
    def test_above_uint16_rows(self, spacing):
        # 70 000 rows on 5 levels; a spacing of 25 000 puts the top rank at
        # 100 000, past the uint16 keys.
        rng = np.random.default_rng(spacing)
        ranks = rng.integers(0, 5, 70_000) * spacing
        assert _inversions(ranks) == per_level_inversions(ranks)

    def test_sorted_and_reversed(self):
        assert _inversions(np.arange(1000)) == 0
        assert _inversions(np.arange(1000)[::-1]) == 1000 * 999 // 2


class TestRankBitIdentity:
    """The O(n log n) rank code equals the former O(n^2) code exactly."""

    @pytest.mark.parametrize("n,levels", [(50, 5), (700, 5), (2000, 3), (6000, 5)])
    def test_continuous_against_levels(self, n, levels):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = rng.integers(1, levels + 1, n).astype(float)
        assert_same_kendall(x, y)
        assert_same_kendall(y, x)
        assert_same_midrank(x)
        assert_same_midrank(y)

    def test_tie_heavy_integers(self):
        # The input of the former chunking-invariance test, plus others.
        rng = np.random.default_rng(1)
        x = rng.integers(1, 6, 700).astype(float)
        y = rng.integers(1, 6, 700).astype(float)
        assert_same_kendall(x, y)
        for n in (3, 17, 64, 65, 129, 1000):
            x = rng.integers(0, 3, n).astype(float)
            y = rng.integers(0, 2, n).astype(float)
            assert_same_kendall(x, y)
            assert_same_midrank(x)

    def test_rounded_continuous(self):
        rng = np.random.default_rng(2)
        x = np.round(rng.normal(size=3000), 1)
        y = np.round(x + rng.normal(size=3000), 1)
        assert_same_kendall(x, y)
        assert_same_midrank(x)

    def test_two_points(self):
        for x, y in (([1, 2], [1, 2]), ([1, 2], [2, 1]), ([1, 1], [1, 2])):
            assert_same_kendall(x, y)
            assert_same_midrank(x)
        assert kendall_tau_b([1, 2], [2, 1]) == -1.0

    def test_all_tied_is_undefined(self):
        assert kendall_tau_b([4.0] * 30, [4.0] * 30) is None
        assert kendall_tau_b([4.0] * 30, list(range(30))) is None
        assert list(Ranked.of([4.0] * 5).midranks) == [3.0] * 5
        assert Ranked.of([]).midranks.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 7, 19])
    def test_non_finite_gives_nan(self, bad, where):
        rng = np.random.default_rng(where)
        x = rng.normal(size=20)
        y = rng.integers(1, 6, 20).astype(float)
        x[where] = bad
        assert math.isnan(kendall_tau_b(x, y))
        assert math.isnan(kendall_tau_b(y, x))
        assert_same_kendall(x, y)
        assert_same_kendall(y, x)
        assert_same_midrank(x)

    def test_nan_with_zero_denominator_is_undefined(self):
        # NaNs count as one value when ties are counted, as before.
        assert_same_kendall([math.nan, math.nan], [1.0, 2.0])
        assert kendall_tau_b([math.nan, math.nan], [1.0, 2.0]) is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0, 2.5, 7.0]),
                st.floats(-3, 3, allow_nan=False, width=16),
            ),
            max_size=80,
        )
    )
    def test_property_small_inputs(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assert_same_kendall(x, y)
        assert_same_kendall(y, x)
        assert_same_midrank(x)
        assert_same_midrank(y)


class TestAccuracy:
    def test_example(self):
        frag = accuracy_metrics([3, 4], [4, 4])
        assert frag["exact_acc"] == 0.5
        assert frag["relaxed_acc"] == 1.0
        assert frag["mae"] == 0.5
        assert frag["bias"] == -0.5

    def test_perfect(self):
        frag = accuracy_metrics([1, 2, 3], [1, 2, 3])
        assert frag["exact_acc"] == 1.0 and frag["mae"] == 0.0 and frag["bias"] == 0.0

    def test_worst_case(self):
        frag = accuracy_metrics([5, 5, 5], [1, 1, 1])
        assert frag["relaxed_acc"] == 0.0
        assert frag["bias"] == 4.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy_metrics([], [])

    def test_invariants(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(1, 6, 100)
        gt = rng.integers(1, 6, 100)
        frag = accuracy_metrics(pred, gt)
        assert frag["exact_acc"] <= frag["relaxed_acc"]
        assert abs(frag["bias"]) <= frag["mae"]


class TestRoundToLabel:
    def test_half_goes_up(self):
        assert list(round_to_label([2.5, 3.49, 3.5], SCALE)) == [3, 3, 4]

    def test_clipping(self):
        assert list(round_to_label([0.2, 5.9], SCALE)) == [1, 5]


class TestRsg:
    def test_published_value_pairs(self):
        # Chart reasoning: strong ranking but wide intervals
        assert rsg(0.507, 3.08, SCALE) == pytest.approx(0.276, abs=0.005)
        # Infographics
        assert rsg(0.411, 3.50, SCALE) == pytest.approx(0.287, abs=0.005)
        # Encyclopedic lookup: weak ranking, narrow intervals
        assert rsg(0.164, 2.38, SCALE) == pytest.approx(-0.242, abs=0.005)

    def test_boundary(self):
        assert rsg(0.0, 4.0, SCALE) == 0.0

    def test_width_validation(self):
        with pytest.raises(DataError):
            rsg(0.5, 4.5, SCALE)

    def test_linearity(self):
        base = rsg(0.4, 2.0, SCALE)
        assert rsg(0.4, 2.0 + 0.4, SCALE) - base == pytest.approx(0.4 / 4.0)
        assert rsg(0.4 + 0.1, 2.0, SCALE) - base == pytest.approx(0.1)
        assert rsg(-0.4, 2.0, SCALE) == pytest.approx(base)


class TestMidpoint:
    def test_degenerate_exact(self):
        gts = [1, 2, 3, 4, 5]
        ivs = Intervals(gts, gts)
        rep = midpoint_eval(ivs, gts)
        assert rep["mid_pearson"] == pytest.approx(1.0)
        assert rep["mid_mae"] == 0.0

    def test_constant_midpoint_undefined(self):
        ivs = Intervals([1.0] * 4, [5.0] * 4)
        rep = midpoint_eval(ivs, [1, 2, 4, 5])
        assert rep["mid_pearson"] is None
        assert rep["mid_spearman"] is None
        assert rep["mid_mae"] == pytest.approx(1.5)


class TestStratified:
    def _intervals(self, n):
        return Intervals([2.0] * n, [4.0] * n, [2] * n, [4] * n)

    def test_single_stratum_equals_global(self):
        gts = [2, 3, 4, 5]
        ivs = self._intervals(4)
        y_hat = [2.0, 3.0, 4.0, 4.0]
        out = stratified(ivs, y_hat, gts, {"all": ["x"] * 4})
        sm = out["all"]["x"]
        im = interval_metrics(ivs, gts)
        assert sm["coverage_raw"] == im["coverage_raw"]
        assert sm["coverage_adj"] == im["coverage_adj"]
        assert sm["count"] == 4

    def test_two_strata_weighted_mean(self):
        ivs = Intervals([1.0, 1.0, 2.0, 2.0], [5.0, 5.0, 2.5, 2.5])
        gts = [3, 3, 4, 4]
        out = stratified(ivs, [3.0] * 4, gts, {"g": ["a", "a", "b", "b"]})
        assert out["g"]["a"]["coverage_raw"] == 1.0
        assert out["g"]["b"]["coverage_raw"] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recomposition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        gts = rng.integers(1, 6, n)
        lo = rng.uniform(1, 4, n)
        ivs = Intervals(lo, lo + rng.uniform(0, 1, n))
        labels = [str(v) for v in rng.integers(0, 3, n)]
        out = stratified(ivs, gts.astype(float), gts, {"k": labels})
        total = sum(sm["count"] for sm in out["k"].values())
        assert total == n
        recomposed = (
            sum(sm["count"] * sm["coverage_raw"] for sm in out["k"].values()) / n
        )
        assert recomposed == pytest.approx(coverage(ivs, gts), abs=1e-12)

    @pytest.mark.parametrize("adjusted", [False, True])
    def test_equals_per_stratum_reference(self, adjusted):
        """Bit for bit the former code: interval metrics, bias and MAE of
        each stratum's gathered rows."""
        rng = np.random.default_rng(5 + adjusted)
        n = 3000
        ivs = columns(random_intervals(rng, n, 5, adjusted))
        gts = rng.integers(1, 6, n)
        y_hat = gts + rng.normal(0, 1.1, n)
        keys = {"gt_level": gts.astype(str), "dataset": rng.integers(0, 14, n).astype(str)}
        gt = gts.astype(np.float64)
        want = {}
        for kind, labels in keys.items():
            want[kind] = {}
            for lab in sorted(set(labels.tolist())):
                idx = np.flatnonzero(labels == lab)
                diff = y_hat[idx] - gt[idx]
                want[kind][lab] = {
                    "count": len(idx),
                    **interval_metrics(ivs[idx], gt[idx]),
                    "bias": float(diff.mean()),
                    "mae": float(np.abs(diff).mean()),
                }
        assert stratified(ivs, y_hat, gts, keys) == want
        with pytest.raises(DataError, match="key 'short' has 2999 labels"):
            stratified(ivs, y_hat, gts, dict(keys, short=keys["dataset"][1:]))

    def test_error_bins(self):
        bins = error_bins([1.0, 2.4, 4.6], [1, 4, 1], SCALE)
        assert list(bins) == [0, 2, 4]


class TestInformativeness:
    def test_bucket_rule_on_fractional_widths(self):
        assert bucket_widths([0.5, 2.0, 3.5]) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3)
        )

    def test_all_uninformative(self):
        assert bucket_widths([4.0, 4.0]) == (0.0, 0.0, 1.0)

    def test_closed_upper_bounds(self):
        decisive, moderate, uninformative = bucket_widths([1.0, 3.0])
        assert decisive == 0.5  # width exactly 1 is decisive
        assert moderate == 0.5  # width exactly 3 is moderately informative
        assert uninformative == 0.0

    def test_requires_adjusted(self):
        with pytest.raises(DataError):
            informativeness(Intervals([1.0], [2.0]), SCALE)

    def test_on_adjusted_intervals(self):
        ivs = Intervals([2.2, 1.2], [2.8, 4.8], [2, 1], [3, 5])
        assert informativeness(ivs, SCALE) == (0.5, 0.0, 0.5)


class TestPointMetrics:
    def test_bundles_correlations_and_accuracy(self):
        pm = point_metrics([1.2, 2.1, 2.9, 4.4, 4.6], [1, 2, 3, 4, 5], SCALE)
        assert pm["exact_acc"] == 1.0
        assert pm["pearson"] == pytest.approx(
            pearson_oracle([1.2, 2.1, 2.9, 4.4, 4.6], [1, 2, 3, 4, 5])
        )


# ---------------------------------------------------------------------------
# The former per-Interval metric loops, kept as the reference for the
# columnar metrics.
# ---------------------------------------------------------------------------


def reference_coverage(intervals, gts, adjusted=False):
    if adjusted:
        hits = sum(iv.contains_adjusted(int(y)) for iv, y in zip(intervals, gts))
    else:
        hits = sum(iv.contains(float(y)) for iv, y in zip(intervals, gts))
    return hits / len(intervals)


def reference_interval_metrics(intervals, gts):
    cov_raw = reference_coverage(intervals, gts)
    width_raw = float(np.mean([iv.width for iv in intervals]))
    have_adj = all(iv.adj_lower is not None for iv in intervals)
    cov_adj = reference_coverage(intervals, gts, adjusted=True) if have_adj else None
    width_adj = float(np.mean([iv.adj_width for iv in intervals])) if have_adj else None
    return {"coverage_raw": cov_raw, "coverage_adj": cov_adj,
            "width_raw": width_raw, "width_adj": width_adj}


def reference_stratified(intervals, y_hat, gts, keys):
    y_hat = np.asarray(y_hat, dtype=np.float64)
    gt = np.asarray(gts, dtype=np.float64)
    out = {}
    for kind, labels in keys.items():
        buckets = {}
        for i, lab in enumerate(labels):
            buckets.setdefault(str(lab), []).append(i)
        out[kind] = {}
        for lab in sorted(buckets):
            idx = buckets[lab]
            im = reference_interval_metrics([intervals[i] for i in idx], gt[idx])
            diff = y_hat[idx] - gt[idx]
            out[kind][lab] = {
                "count": len(idx), "coverage_raw": im["coverage_raw"],
                "coverage_adj": im["coverage_adj"], "width_raw": im["width_raw"],
                "width_adj": im["width_adj"], "bias": float(diff.mean()),
                "mae": float(np.abs(diff).mean()),
            }
    return out


def random_intervals(rng, n, k, adjusted):
    lo = rng.uniform(1.0, k, n)
    lo[: n // 5] = np.round(lo[: n // 5])  # endpoints on labels
    hi = np.minimum(lo + rng.uniform(0.0, 3.0, n), k)
    if not adjusted:
        return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]
    return [
        Interval(float(a), float(b), max(1, math.floor(a)), min(k, math.ceil(b)))
        for a, b in zip(lo, hi)
    ]


class TestColumnarMetricsIdentity:
    """Array metrics equal the former per-Interval loops exactly."""

    @pytest.mark.parametrize("k", [3, 5, 10])
    @pytest.mark.parametrize("adjusted", [False, True])
    def test_coverage_width_midpoint(self, k, adjusted):
        rng = np.random.default_rng(k)
        ivs = random_intervals(rng, 3000, k, adjusted)
        gts = rng.integers(1, k + 1, 3000)
        cols = columns(ivs)
        assert cols.adjusted == adjusted
        for adj in (False, True) if adjusted else (False,):
            assert coverage(cols, gts, adj) == reference_coverage(ivs, gts, adj)
        assert interval_metrics(cols, gts) == reference_interval_metrics(ivs, gts)
        mid = np.array([(iv.lower + iv.upper) / 2.0 for iv in ivs])
        assert midpoint_eval(cols, gts)["mid_mae"] == float(np.abs(mid - gts).mean())

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_stratified(self, k):
        rng = np.random.default_rng(100 + k)
        n = 2500
        ivs = random_intervals(rng, n, k, adjusted=True)
        gts = rng.integers(1, k + 1, n)
        y_hat = gts + rng.normal(0, 1.2, n)
        keys = {
            # "10" sorts before "2": labels keep string order.
            "gt_level": [str(g) for g in gts],
            "error_bin": [str(int(b)) for b in error_bins(y_hat, gts, RatingScale(k_max=k))],
            "dataset": [f"ds{d}" for d in rng.integers(0, 14, n)],
            "ints": list(rng.integers(0, 12, n)),
        }
        want = reference_stratified(ivs, y_hat, gts, keys)
        assert stratified(columns(ivs), y_hat, gts, keys) == want
        grouped = {kind: Strata.of(labels) for kind, labels in keys.items()}
        assert stratified(columns(ivs), y_hat, gts, grouped) == want
        assert list(want["gt_level"])[:2] == (["1", "10"] if k == 10 else ["1", "2"])

    def test_strata_rows_ascending(self):
        labels = ["b", "a", "b", "c", "a", "b"]
        strata = Strata.of(labels)
        assert strata.labels == ("a", "b", "c")
        assert [r.tolist() for r in strata.rows] == [[1, 4], [0, 2, 5], [3]]

    def test_strata_of_a_tag_column_is_its_text_sorted(self):
        """An object or int64 column groups as its text does: labels in
        string order ("10" and "11" before "2"), each with its rows
        ascending."""
        rng = np.random.default_rng(8)
        pools = (np.array(["b", "a", "10", "9", 3, "ds x"], dtype=object),
                 np.arange(12, dtype=np.int64))
        for pool in pools:
            for n in (0, 1, 50, 2000):
                tags = pool[rng.integers(0, len(pool), n)]
                text = tags.astype(str)
                got, want = Strata.of(tags), Strata.of(text)
                assert got.labels == want.labels == tuple(sorted(set(text.tolist())))
                assert got.n == want.n == n
                assert [r.tolist() for r in got.rows] == [r.tolist() for r in want.rows]
                for label, rows in got:
                    assert rows.tolist() == np.flatnonzero(text == label).tolist()
        assert got.labels[:5] == ("0", "1", "10", "11", "2")

    def test_informativeness_on_columns(self):
        rng = np.random.default_rng(7)
        ivs = random_intervals(rng, 500, 5, adjusted=True)
        widths = [iv.adj_width for iv in ivs]
        assert informativeness(columns(ivs), SCALE) == bucket_widths(widths)

    def test_adjusted_coverage_needs_finite_targets(self):
        ivs = Intervals([1.0], [2.0], [1], [2])
        with pytest.raises(ValueError):
            coverage(ivs, [math.nan], adjusted=True)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_stratified_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        k = int(rng.choice([3, 5, 10]))
        ivs = random_intervals(rng, n, k, adjusted=bool(rng.integers(0, 2)))
        gts = rng.integers(1, k + 1, n)
        y_hat = rng.uniform(0, k + 1, n)
        keys = {"k": [str(v) for v in rng.integers(0, 12, n)]}
        want = reference_stratified(ivs, y_hat, gts, keys)
        assert stratified(columns(ivs), y_hat, gts, keys) == want
