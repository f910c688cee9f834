import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodsig import encode
from moodsig.encode import (
    MISSING,
    WEEK,
    Group,
    ParticipantRecord,
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

    def test_window_longer_than_the_run_encodes_nothing(self, monkeypatch):
        # however long the window, a run shorter than it is not signed
        def no_signature(*args):
            raise AssertionError("stream_signature called")

        monkeypatch.setattr(encode, "stream_signature", no_signature)
        weeks = weekly(obs(t, 3, 4) for t in range(4))
        for wl in (5, 10**6):
            assert mrsf(weeks, 2, window_length=wl).shape == (0, 12)
            assert naive_features(weeks, wl).shape == (0, 2)


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


def test_sliding_rows_do_not_depend_on_the_block_size(monkeypatch):
    weeks = weekly(
        missing_week(t) if t % 5 in (0, 3) and t % 7 else obs(t, t % 21, (3 * t) % 28)
        for t in range(40)
    )
    # each table is one block at the default size
    tables = {wl: (mrsf(weeks, 2, wl), naive_features(weeks, wl)) for wl in (2, 3, 8, 25)}
    for wl, (table, naive) in tables.items():
        # from one window per block up to one window short of the whole table
        for block_weeks in (1, 2 * wl, 7 * wl + 3, (40 - wl) * wl):
            monkeypatch.setattr(encode, "BLOCK_WEEKS", block_weeks)
            assert np.array_equal(mrsf(weeks, 2, wl), table)
            assert np.array_equal(naive_features(weeks, wl), naive)


def test_sliding_memory_is_bounded_by_the_block_size():
    # one call held every window's encoding at once: 99 MiB here, and about
    # 2.5 GiB at 10,001 weeks in windows of 5,000
    weeks = weekly(obs(t, t % 21, (3 * t) % 28) for t in range(2001))
    for encode_all in (lambda: mrsf(weeks, 2, 1000), lambda: naive_features(weeks, 1000)):
        tracemalloc.start()
        try:
            encode_all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak


def _longest_run():
    # the most weeks a participant may have, every answered week at the
    # instrument maxima so the running sums are as large as they get; a
    # leading gap, interior gaps (30% missing) and an all-missing stretch of
    # 40 weeks that holds the middle row of every small window
    def missing(t):
        return t < 3 or t % 10 in (3, 7, 8) or 4990 <= t < 5030

    return weekly(missing_week(t) if missing(t) else obs(t, 20, 27) for t in range(10_001))


@pytest.mark.parametrize("window_length", [1, 2, 10, 5000, 10_001])
def test_sliding_naive_rows_are_exact_on_the_longest_run(window_length):
    weeks = _longest_run()
    naive = naive_features(weeks, window_length)
    n_windows = len(weeks) - window_length + 1
    assert naive.shape == (n_windows, 2)
    for s in (0, n_windows // 2, n_windows - 1):
        window = weeks[s : s + window_length]
        assert np.array_equal(naive[s], loop_naive(window))
        assert np.array_equal(naive[s], naive_features(window))


def test_sliding_naive_memory_is_linear_in_the_run():
    # the windows' own weeks, summed, are 5,001 times the run
    weeks = _longest_run()
    tracemalloc.start()
    try:
        naive_features(weeks, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


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
