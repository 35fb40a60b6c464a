"""Core type and split tests."""

import copy
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebands.core import (
    Batch,
    DataError,
    Intervals,
    InvariantError,
    RatingScale,
    check_batch,
    clamp_endpoints,
    features_matrix,
    make_split,
    row_faults,
)

SCALE = RatingScale()


def make_batch(X, y, sample_ids=None, dataset="d", group=None, judge="j"):
    """A Batch of the rows of X with labels y and constant tags."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if sample_ids is None:
        sample_ids = [f"s{i}" for i in range(n)]
    return Batch(
        X=X,
        y=np.asarray(y, dtype=np.float64),
        dataset=np.full(n, dataset),
        group=np.full(n, group, dtype=object),
        sample_id=np.array(sample_ids, dtype=object),
        judge=np.full(n, judge),
    )


class TestRatingScale:
    def test_defaults(self):
        assert SCALE.k_max == 5
        assert list(SCALE.labels) == [1, 2, 3, 4, 5]
        assert SCALE.max_width == 4

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match=r"^k_max must be >= 2, got 1$"):
            RatingScale(k_max=1)

    @pytest.mark.parametrize("k_max", [5.0, 2.5, True, "5"])
    def test_rejects_non_integer(self, k_max):
        with pytest.raises(ValueError, match=rf"^k_max must be an integer, got {k_max!r}$"):
            RatingScale(k_max)

    def test_immutable(self):
        scale = RatingScale(k_max=7)
        with pytest.raises(AttributeError):
            scale.k_max = 3
        with pytest.raises(AttributeError):
            scale.extra = 1
        with pytest.raises(AttributeError):
            del scale.k_max
        assert scale.k_max == 7

    def test_equal_and_hashed_by_k_max(self):
        assert RatingScale() == RatingScale(k_max=5) == RatingScale(5)
        assert RatingScale(k_max=5) != RatingScale(k_max=7)
        assert RatingScale() != 5 and RatingScale() != (5,)
        assert hash(RatingScale(k_max=7)) == hash(RatingScale(k_max=7))
        assert len({RatingScale(), RatingScale(k_max=5), RatingScale(k_max=7)}) == 2
        assert repr(RatingScale()) == "RatingScale(k_max=5)"

    def test_cache_key(self):
        labels = functools.cache(lambda scale: list(scale.labels))
        first = labels(RatingScale(k_max=7))
        assert labels(RatingScale(k_max=7)) is first
        assert labels(RatingScale()) == [1, 2, 3, 4, 5]

    def test_copies_and_pickles(self):
        scale = RatingScale(k_max=7)
        for twin in (copy.copy(scale), copy.deepcopy(scale), pickle.loads(pickle.dumps(scale))):
            assert twin == scale and twin.k_max == 7


class TestInterval:
    """The checks and accessors of one row, on a one-row Intervals."""

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Intervals([3.0], [2.0])
        with pytest.raises(ValueError):
            Intervals([1.0], [2.0], adj_lower=[3], adj_upper=[2])

    def test_adjusted_set_together(self):
        with pytest.raises(ValueError):
            Intervals([1.0], [2.0], adj_lower=[1], adj_upper=None)

    def test_contains(self):
        iv = Intervals([2.0], [4.0], adj_lower=[2], adj_upper=[4])
        assert iv.contains(2.0)[0] and iv.contains(4.0)[0] and not iv.contains(4.5)[0]
        assert iv.contains_adjusted(3)[0] and not iv.contains_adjusted(5)[0]
        assert iv.width[0] == 2.0
        assert iv.adj_width[0] == 2

    def test_nan_endpoint_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Intervals([math.nan], [2.0])


class TestIntervals:
    def test_same_checks_and_messages_as_interval(self):
        # One bad row gives the same message alone as after a good row.
        cases = [
            ((3.0, 2.0, None, None), "interval lower 3.0 > upper 2.0"),
            ((1.0, 2.0, 3, 2), "adjusted lower 3 > upper 2"),
            ((1.0, 2.0, 1, None), "adjusted endpoints must be set together"),
            ((math.nan, 2.0, None, None), "NaN"),
        ]
        for (lo, hi, al, au), message in cases:
            with pytest.raises(ValueError, match=message):
                Intervals(
                    [lo], [hi], None if al is None else [al], None if au is None else [au]
                )
            with pytest.raises(ValueError, match=message):
                Intervals(
                    [1.0, lo], [1.0, hi],
                    None if al is None else [1, al],
                    None if au is None else [1, au],
                )

    def test_columns_and_indexing(self):
        ivs = Intervals([1.0, 2.5, 3.0], [2.0, 4.5, 3.0], [1, 2, 3], [2, 5, 3])
        assert len(ivs) == 3
        assert ivs.adj_lower.dtype == np.int64
        assert ivs[1:2] == Intervals([2.5], [4.5], [2], [5])
        assert ivs[1:2].adj_lower.dtype == np.int64
        assert ivs[np.array([2, 0])] == Intervals([3.0, 1.0], [3.0, 2.0], [3, 1], [3, 2])
        assert ivs[1:] == Intervals([2.5, 3.0], [4.5, 3.0], [2, 3], [5, 3])
        assert ivs.width.tolist() == [1.0, 2.0, 0.0]
        assert ivs.adj_width.tolist() == [1, 3, 0]
        assert ivs.contains([2.0, 5.0, 3.0]).tolist() == [True, False, True]
        assert ivs.contains_adjusted([2, 5, 4]).tolist() == [True, True, False]

    def test_round_trip_and_equality(self):
        lower, upper = [1.0, 2.0], [2.0, 5.0]
        ivs = Intervals(lower, upper)
        assert (ivs.lower.tolist(), ivs.upper.tolist()) == (lower, upper)
        assert ivs == Intervals([1.0, 2.0], [2.0, 5.0])
        assert ivs != Intervals([1.0, 2.0], [2.0, 4.0])
        assert ivs != Intervals([1.0, 2.0], [2.0, 5.0], [1, 2], [2, 5])
        assert not ivs.adjusted and ivs.adj_width is None

    def test_unadjusted_has_no_adjusted_coverage(self):
        with pytest.raises(InvariantError):
            Intervals([1.0], [2.0]).contains_adjusted([1])

    @pytest.mark.parametrize("key", [0, -1, np.int64(1), np.array(1), 1.0])
    def test_one_row_key_raises(self, key):
        # A row is read from the columns; a scalar key is refused rather
        # than giving an Intervals of 0-d arrays.
        ivs = Intervals([1.0, 2.5], [2.0, 4.5], [1, 2], [2, 5])
        with pytest.raises(TypeError, match="slice or an index array"):
            ivs[key]

    def test_not_iterable(self):
        with pytest.raises(TypeError):
            list(Intervals([1.0, 2.5], [2.0, 4.5]))


class TestBatch:
    def _batch(self):
        X = [[-1.0 - i, -2.0, -3.0, -4.0, -5.0] for i in range(6)]
        return Batch(
            X=np.array(X),
            y=np.array([1 + i % 5 for i in range(6)], dtype=np.float64),
            dataset=np.array([f"d{i % 2}" for i in range(6)]),
            group=np.array([None if i == 3 else "g" for i in range(6)], dtype=object),
            sample_id=np.array([f"s{i}" for i in range(6)], dtype=object),
            judge=np.array(["j1", "j2"] * 3),
        )

    def test_columns_follow_sample_order(self):
        batch = self._batch()
        assert len(batch) == 6
        assert batch.y.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 1.0]
        assert batch.dataset.tolist() == ["d0", "d1"] * 3
        assert batch.group.tolist() == ["g", "g", "g", None, "g", "g"]
        rows = batch[np.array([4, 1])]
        assert rows.sample_id.tolist() == ["s4", "s1"]
        assert rows.judge.tolist() == ["j1", "j2"]
        assert rows.X[:, 0].tolist() == [-5.0, -2.0]
        assert batch[3:].y.tolist() == [4.0, 5.0, 1.0]

    def test_concat_keeps_row_order(self):
        batch = self._batch()
        both = Batch.concat([batch[4:], batch[:2]])
        assert both.sample_id.tolist() == ["s4", "s5", "s0", "s1"]
        assert both.X[:, 0].tolist() == [-5.0, -6.0, -1.0, -2.0]
        assert both.group.tolist() == ["g", "g", "g", "g"]

    def test_concat_rejects_mixed_widths(self):
        wide = make_batch(np.full((2, 10), -1.0), [1, 2])
        with pytest.raises(DataError, match=r"inconsistent feature lengths: \[5, 10\]"):
            Batch.concat([self._batch(), wide])


class TestValidateSample:
    """The row rules and unique ids, as ``run_experiment`` applies them."""

    def _batch(self, gt=3, n_feat=5):
        return make_batch(np.full((2, n_feat), -1.0), [3, gt], ["a", "s"])

    def test_ok(self):
        check_batch(self._batch(), SCALE)

    def test_gt_out_of_range(self):
        with pytest.raises(DataError, match=r"sample 's': gt_score 6 outside \[1, 5\]"):
            check_batch(self._batch(gt=6), SCALE)
        with pytest.raises(DataError, match=r"sample 's': gt_score 0 outside \[1, 5\]"):
            check_batch(self._batch(gt=0), SCALE)

    def test_bad_feature_length(self):
        with pytest.raises(DataError, match="feature length 7 not a multiple of 5"):
            check_batch(self._batch(n_feat=7), SCALE)

    def test_fused_length_ok(self):
        check_batch(self._batch(n_feat=15), SCALE)


class TestRowRules:
    def test_first_fault_of_each_row(self):
        X = np.full((6, 5), -1.0)
        X[1, 3] = np.nan
        X[2, 0] = 0.5
        X[3, 2], X[3, 4] = np.inf, 2.0  # the first broken entry is named
        X[4, 1] = np.nan  # and a bad label comes before any entry
        y = np.array([1, 2, 3, 4, 9, 2.5])
        assert row_faults(X, y, SCALE) == {
            1: "logprob '3' must be finite, got nan",
            2: "logprob '0' must be <= 0, got 0.5",
            3: "logprob '2' must be finite, got inf",
            4: "gt_score 9 outside [1, 5]",
            5: "gt_score 2.5 outside [1, 5]",
        }

    def test_entries_named_by_label_from_first_key(self):
        X = np.array([[-1.0, -1.0, -np.inf, -1.0, -1.0]] * 2)
        faults = row_faults(X, np.array([1.0, 1.0]), SCALE, np.array([1, 0]))
        assert faults == {
            0: "logprob '3' must be finite, got -inf",
            1: "logprob '2' must be finite, got -inf",
        }

    def test_width_rule_applies_to_every_row(self):
        faults = row_faults(np.full((2, 7), -1.0), np.array([1.0, 0.0]), SCALE)
        assert faults == {
            0: "feature length 7 not a multiple of 5",
            1: "gt_score 0 outside [1, 5]",
        }

    def test_clean_rows_have_no_faults(self):
        assert row_faults(np.zeros((3, 10)), np.array([1.0, 3.0, 5.0]), SCALE) == {}

    def test_first_offending_sample_named(self):
        batch = make_batch(np.full((3, 5), -1.0), [1, 2, 3], ["a", "b", "c"])
        batch.X[2, 0] = 1.0
        with pytest.raises(DataError, match=r"sample 'c': logprob '0' must be <= 0"):
            check_batch(batch, SCALE)

    def test_duplicate_id_rejected_by_name(self):
        batch = make_batch(np.full((4, 5), -1.0), [1, 2, 3, 4], ["a", "b", "a", "b"])
        with pytest.raises(DataError, match="duplicate sample_id 'a'"):
            check_batch(batch, SCALE)


class TestMakeSplit:
    def test_partition_small(self):
        cal, test = make_split(4, 0.5, seed=0)
        assert cal.dtype == test.dtype == np.intp
        assert len(cal) == 2
        assert len(test) == 2
        assert set(cal.tolist()) | set(test.tolist()) == {0, 1, 2, 3}
        assert set(cal.tolist()) & set(test.tolist()) == set()

    def test_benchmark_split_arithmetic(self):
        # 5717 samples at 50/50 must give 2859 calibration / 2858 test.
        for seed in (0, 3, 9):
            cal, test = make_split(5717, 0.5, seed)
            assert len(cal) == 2859
            assert len(test) == 2858

    def test_round_half_up(self):
        cal, test = make_split(10, 0.3, seed=7)
        assert len(cal) == 3
        assert len(test) == 7

    def test_decimal_fraction(self):
        # 0.15 of 10 is 1.5, which rounds up to 2; the double nearest 0.15
        # lies below it and would round down to 1.
        assert len(make_split(10, 0.15, seed=0)[0]) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 2000),
        frac=st.decimals(min_value="0.01", max_value="0.99", places=2),
    )
    def test_matches_decimal_oracle(self, n, frac):
        from fractions import Fraction

        n_cal = math.floor(Fraction(frac) * n + Fraction(1, 2))
        assert len(make_split(n, float(frac), seed=0)[0]) == n_cal

    def test_deterministic(self):
        a = make_split(1000, 0.5, seed=11)
        b = make_split(1000, 0.5, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_split(self):
        a, _ = make_split(1000, 0.5, seed=0)
        b, _ = make_split(1000, 0.5, seed=1)
        assert not np.array_equal(a, b)

    def test_rejects_tiny(self):
        with pytest.raises(DataError):
            make_split(1, 0.5, seed=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(DataError):
            make_split(10, 0.0, seed=0)
        with pytest.raises(DataError):
            make_split(10, 1.0, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 500),
        frac=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partition_property(self, n, frac, seed):
        cal_idx, test_idx = make_split(n, frac, seed)
        cal, test = set(cal_idx.tolist()), set(test_idx.tolist())
        assert cal | test == set(range(n))
        assert cal & test == set()


def clamp_interval(lower: float, upper: float, scale: RatingScale) -> Intervals:
    """One interval through clamp_endpoints, as a one-row Intervals."""
    return Intervals(*clamp_endpoints(np.array([lower]), np.array([upper]), scale))


class TestClampInterval:
    """clamp_endpoints, one row at a time."""

    def test_both_sides(self):
        iv = clamp_interval(-0.3, 6.2, SCALE)
        assert (iv.lower[0], iv.upper[0]) == (1.0, 5.0)

    def test_identity(self):
        iv = clamp_interval(2.0, 4.0, SCALE)
        assert (iv.lower[0], iv.upper[0]) == (2.0, 4.0)

    def test_one_sided(self):
        iv = clamp_interval(4.5, 7.0, SCALE)
        assert (iv.lower[0], iv.upper[0]) == (4.5, 5.0)

    def test_degenerate_above_range(self):
        iv = clamp_interval(6.0, 7.0, SCALE)
        assert (iv.lower[0], iv.upper[0]) == (5.0, 5.0)

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.floats(-10, 10, allow_nan=False),
        width=st.floats(0, 20, allow_nan=False),
    )
    def test_idempotent_and_narrowing(self, lo, width):
        iv = Intervals([lo], [lo + width])
        once = clamp_interval(iv.lower[0], iv.upper[0], SCALE)
        twice = clamp_interval(once.lower[0], once.upper[0], SCALE)
        assert once == twice
        assert once.width[0] <= iv.width[0] + 1e-12
        assert 1 <= once.lower[0] <= once.upper[0] <= SCALE.k_max


def test_features_matrix_shape():
    X = features_matrix([[-1.0, -2.0, -3.0, -4.0, -5.0]] * 3)
    assert X.shape == (3, 5)
    assert X.dtype == np.float64
    assert X[0, 1] == -2.0
    assert features_matrix([]).shape == (0, 0)
