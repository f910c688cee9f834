import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodsig.encode import (
    MISSING,
    WEEK,
    Group,
    ParticipantRecord,
    extract_window,
    feed_forward_fill,
    mrsf,
    naive_features,
    normalize_and_cumulate,
    weekly,
)
from moodsig.errors import InsufficientDataError
from oracles import loop_fill, loop_naive, riemann_signature_flat


def obs(week, asrm, qids):
    return (week, asrm, qids)


def missing_week(week):
    return obs(week, MISSING, MISSING)


@st.composite
def windows(draw, min_weeks=1, max_weeks=30):
    n = draw(st.integers(min_weeks, max_weeks))
    out = []
    for t in range(n):
        if draw(st.booleans()):
            out.append(missing_week(t))
        else:
            out.append(obs(t, draw(st.integers(0, 20)), draw(st.integers(0, 27))))
    return weekly(out)


class TestFeedForwardFill:
    def test_single_gap(self):
        window = weekly([obs(0, 3, 5), missing_week(1), obs(2, 4, 6)])
        filled, counts = feed_forward_fill(window)
        np.testing.assert_array_equal(filled, [[3, 5], [3, 5], [4, 6]])
        np.testing.assert_array_equal(counts, [0, 1, 1])

    def test_no_missing_passthrough(self):
        window = weekly([obs(0, 2, 9), obs(1, 7, 0)])
        filled, counts = feed_forward_fill(window)
        np.testing.assert_array_equal(filled, [[2, 9], [7, 0]])
        np.testing.assert_array_equal(counts, [0, 0])

    def test_leading_gap_backfilled(self):
        filled, counts = feed_forward_fill(
            weekly([missing_week(0), missing_week(1), obs(2, 2, 7)])
        )
        np.testing.assert_array_equal(filled, [[2, 7], [2, 7], [2, 7]])
        np.testing.assert_array_equal(counts, [1, 2, 2])

    def test_all_missing_fills_zero(self):
        filled, counts = feed_forward_fill(weekly([missing_week(0), missing_week(1)]))
        np.testing.assert_array_equal(filled, np.zeros((2, 2)))
        np.testing.assert_array_equal(counts, [1, 2])

    def test_empty_window_rejected(self):
        with pytest.raises(InsufficientDataError):
            feed_forward_fill(weekly([]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 20), st.integers(-1, 27)), min_size=1, max_size=20))
def test_fill_equals_the_per_week_loop(scores):
    # one-sided gaps too: each column is filled on its own
    window = weekly(obs(t, a, q) for t, (a, q) in enumerate(scores))
    filled, counts = feed_forward_fill(window)
    want_filled, want_counts = loop_fill(window)
    assert np.array_equal(filled, want_filled)
    assert np.array_equal(counts, want_counts)


class TestNormalizeAndCumulate:
    def test_full_scale_week(self):
        path = normalize_and_cumulate(np.array([[20.0, 27.0]]), np.array([0]), 1)
        np.testing.assert_array_equal(path, [[0, 0, 0], [1, 1, 0]])

    def test_all_zero_scores(self):
        path = normalize_and_cumulate(np.zeros((3, 2)), np.zeros(3), 3)
        np.testing.assert_array_equal(path, np.zeros((4, 3)))

    def test_two_week_hand_example(self):
        path = normalize_and_cumulate(
            np.array([[10.0, 0.0], [10.0, 0.0]]), np.array([0, 1]), 2
        )
        np.testing.assert_allclose(path, [[0, 0, 0], [0.5, 0, 0], [1.0, 0, 0.5]])

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            normalize_and_cumulate(np.zeros((0, 2)), np.zeros(0), 0)


class TestMrsf:
    def test_feature_length(self):
        window = weekly(obs(t, 3, 4) for t in range(4))
        assert mrsf(window, level=2).shape == (12,)
        assert mrsf(window, level=3).shape == (3 + 9 + 27,)

    def test_constant_window_level1(self):
        n, s_a, s_q = 5, 8, 12
        feats = mrsf(weekly(obs(t, s_a, s_q) for t in range(n)), level=2)
        np.testing.assert_allclose(feats[0], n * s_a / 20.0)
        np.testing.assert_allclose(feats[1], n * s_q / 27.0)
        assert feats[2] == 0.0

    def test_fig_style_window_matches_composed_oracle(self):
        # frozen from the composed oracle: feed-forward fill -> normalize/cumulate
        # -> trapezoid Riemann integration of the iterated integrals
        window = weekly([obs(0, 3, 5), missing_week(1), obs(2, 4, 6)])
        expected = np.array(
            [0.5, 0.59259259259259256, 0.66666666666666663,
             0.125, 0.14444444444444443, 0.20833333333333331,
             0.15185185185185185, 0.17558299039780521, 0.25308641975308643,
             0.125, 0.14197530864197530, 0.22222222222222221]
        )
        got = mrsf(window, level=2)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        filled, counts = feed_forward_fill(window)
        path = normalize_and_cumulate(filled, counts, len(window))
        np.testing.assert_allclose(got, riemann_signature_flat(path, 2), rtol=1e-9, atol=1e-9)

    def test_zero_missing_kills_count_channel_exactly(self):
        rng = np.random.default_rng(3)
        window = weekly(
            obs(t, int(rng.integers(0, 21)), int(rng.integers(0, 28))) for t in range(12)
        )
        feats = mrsf(window, level=2)
        level2 = feats[3:].reshape(3, 3)
        assert feats[2] == 0.0
        for i, j in [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]:
            assert level2[i, j] == 0.0

    def test_week_indices_are_irrelevant(self):
        a = weekly([obs(0, 4, 6), missing_week(1), obs(2, 6, 9)])
        b = weekly([obs(100, 4, 6), missing_week(250), obs(251, 6, 9)])
        np.testing.assert_array_equal(mrsf(a), mrsf(b))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            mrsf(weekly([obs(0, 1, 1)]))
        with pytest.raises(InsufficientDataError):
            mrsf(weekly(obs(t, 1, 1) for t in range(5)), 2, window_length=1)

    def test_sliding_form_on_fewer_weeks_than_a_window_is_empty(self):
        weeks = weekly(obs(t, 3, 4) for t in range(4))
        assert mrsf(weeks, 2, window_length=5).shape == (0, 12)
        assert mrsf(weeks, 3, window_length=5).shape == (0, 39)
        assert mrsf(weeks, 2, window_length=4).shape == (1, 12)


def _coverage_weeks():
    # a leading gap, an interior gap and an all-missing run of 4 weeks
    gaps = {0, 1, 4, 7, 8, 9, 10}
    return weekly(
        missing_week(t) if t in gaps else obs(t, t % 21, (3 * t) % 28) for t in range(14)
    )


@settings(max_examples=60, deadline=None)
@given(windows(min_weeks=2), st.integers(2, 8), st.integers(1, 3))
@example(_coverage_weeks(), 4, 2)
@example(_coverage_weeks(), 2, 3)
def test_sliding_mrsf_rows_equal_each_window_exactly(weeks, window_length, level):
    table = mrsf(weeks, level, window_length)
    naive = naive_features(weeks, window_length)
    n_windows = max(len(weeks) - window_length + 1, 0)
    assert table.shape == (n_windows, sum(3**k for k in range(1, level + 1)))
    assert naive.shape == (n_windows, 2)
    for s in range(n_windows):
        window = weeks[s : s + window_length]
        assert np.array_equal(table[s], mrsf(window, level))
        assert np.array_equal(naive[s], naive_features(window))
        assert np.array_equal(naive[s], loop_naive(window))


class TestNaiveFeatures:
    def test_plain_mean(self):
        np.testing.assert_array_equal(
            naive_features(weekly([obs(0, 4, 6), obs(1, 6, 8)])), [5.0, 7.0]
        )

    def test_missing_excluded(self):
        np.testing.assert_array_equal(
            naive_features(weekly([obs(0, 4, 6), missing_week(1)])), [4.0, 6.0]
        )

    def test_all_missing_neutral(self):
        np.testing.assert_array_equal(
            naive_features(weekly([missing_week(0), missing_week(1)])), [0.0, 0.0]
        )


class TestExtractWindow:
    def _record(self, n):
        return ParticipantRecord(
            id="p1", group=Group.BD, weeks=weekly(obs(t, t % 20, t % 27) for t in range(n))
        )

    def test_exact_length_returns_whole(self):
        rec = self._record(20)
        assert np.array_equal(extract_window(rec, 20, np.random.default_rng(0)), rec.weeks)

    def test_start_range_uniform(self):
        rec = self._record(25)
        starts = {
            extract_window(rec, 20, np.random.default_rng(s))[0].week for s in range(200)
        }
        assert starts == set(range(6))

    def test_seed_determinism(self):
        rec = self._record(40)
        a = extract_window(rec, 20, np.random.default_rng(7))
        b = extract_window(rec, 20, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_too_short_record(self):
        with pytest.raises(InsufficientDataError):
            extract_window(self._record(19), 20, np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(windows())
def test_missing_count_monotone_with_correct_total(window):
    _, counts = feed_forward_fill(window)
    assert np.all(np.diff(counts) >= 0)
    assert counts[-1] == np.count_nonzero(window.asrm == MISSING)


@settings(max_examples=60, deadline=None)
@given(windows())
def test_increments_bounded_per_channel(window):
    filled, counts = feed_forward_fill(window)
    path = normalize_and_cumulate(filled, counts, len(window))
    incs = np.diff(path, axis=0)
    # diff of a cumsum recovers each step only to ~1 ulp of the running sum
    tol = len(window) * np.finfo(float).eps
    assert np.all(incs >= -tol) and np.all(incs <= 1.0 + tol)


@settings(max_examples=60, deadline=None)
@given(windows())
def test_naive_ignores_appended_missing(window):
    before = naive_features(window)
    after = naive_features(weekly([*window.tolist(), missing_week(len(window))]))
    np.testing.assert_array_equal(before, after)


def test_weekly_rows_read_as_records():
    weeks = weekly([obs(3, 4, 6), missing_week(4), obs(5, 7, 9)])
    assert (weeks[0].week, weeks[0].asrm, weeks[0].qids) == (3, 4, 6)
    assert weeks[1].asrm == MISSING and weeks[1].qids == MISSING
    tail = weeks[1:]
    assert isinstance(tail, np.recarray) and tail.dtype == WEEK
    assert not tail.flags.writeable
    assert [o.week for o in tail] == [4, 5]
    assert len(weekly([])) == 0 and weekly([]).dtype == WEEK

    def record(rows):
        return ParticipantRecord(id="p1", group=Group.BD, weeks=weekly(rows))

    assert record([obs(0, 1, 2)]) == record([obs(0, 1, 2)])
    assert record([obs(0, 1, 2)]) != record([obs(0, 1, 3)])
    assert record([obs(0, 1, 2)]) != record([obs(0, 1, 2), obs(1, 1, 2)])
    assert record([]) == record([])
