import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodsig.errors import InsufficientDataError
from moodsig.sigcore import (
    TruncatedSignature,
    chen_product,
    flat_index,
    identity_signature,
    segment_signature,
    sig_length,
    stream_signature,
)
from oracles import kron_signature_flat, riemann_signature_flat


def paths(draw, max_dim=4, min_points=2, max_points=8, lo=-1.0, hi=1.0):
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(min_points, max_points))
    flat = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=n * d,
            max_size=n * d,
        )
    )
    return np.array(flat).reshape(n, d)


path_strategy = st.composite(paths)()
splittable_path_strategy = st.composite(paths)(min_points=3)


class TestSegmentSignature:
    def test_closed_form_2d(self):
        sig = segment_signature([2.0, 0.0], level=2)
        np.testing.assert_array_equal(sig.levels[0], [1.0])
        np.testing.assert_array_equal(sig.levels[1], [2.0, 0.0])
        np.testing.assert_array_equal(sig.levels[2], [2.0, 0.0, 0.0, 0.0])

    def test_zero_increment_is_identity(self):
        sig = segment_signature([0.0, 0.0], level=2)
        np.testing.assert_array_equal(sig.flatten(), np.zeros(6))
        assert sig.coefficient(()) == 1.0

    def test_level3_coefficient_matches_riemann_oracle(self):
        # frozen from the oracle; exact value is 1 * (-1) * 0.5 / 3! = -1/12
        sig = segment_signature([1.0, -1.0, 0.5], level=3)
        assert sig.coefficient((1, 2, 3)) == pytest.approx(-1.0 / 12.0, abs=1e-15)
        oracle = riemann_signature_flat(np.array([[0, 0, 0], [1, -1, 0.5]]), 3)
        np.testing.assert_allclose(sig.flatten(), oracle, rtol=1e-6, atol=1e-6)

    def test_level1_equals_increment(self):
        inc = np.array([0.3, -1.7, 2.0, 0.1])
        sig = segment_signature(inc, level=3)
        np.testing.assert_array_equal(sig.levels[1], inc)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            segment_signature([1.0, np.nan], level=2)
        with pytest.raises(ValueError):
            segment_signature([np.inf, 0.0], level=2)


class TestChenProduct:
    def test_identity_is_neutral(self):
        b = segment_signature([0.4, -0.2, 1.1], level=3)
        e = identity_signature(3, 3)
        for prod in (chen_product(e, b), chen_product(b, e)):
            for lhs, rhs in zip(prod.levels, b.levels):
                np.testing.assert_array_equal(lhs, rhs)

    def test_inverse_segment_cancels(self):
        a = segment_signature([1.0, 0.0], level=2)
        b = segment_signature([-1.0, 0.0], level=2)
        prod = chen_product(a, b)
        np.testing.assert_allclose(prod.flatten(), np.zeros(6), atol=1e-15)

    def test_l_shaped_path_level2(self):
        # hand expansion A2 + B2 + a (x) b, cross-checked with the oracle
        a = segment_signature([1.0, 0.0], level=2)
        b = segment_signature([0.0, 1.0], level=2)
        prod = chen_product(a, b)
        np.testing.assert_allclose(prod.levels[2], [0.5, 1.0, 0.0, 0.5], atol=1e-15)
        oracle = riemann_signature_flat(np.array([[0, 0], [1, 0], [1, 1]]), 2)
        np.testing.assert_allclose(prod.flatten(), oracle, rtol=1e-9, atol=1e-9)

    def test_mismatched_operands_rejected(self):
        with pytest.raises(ValueError):
            chen_product(segment_signature([1.0], 2), segment_signature([1.0, 2.0], 2))
        with pytest.raises(ValueError):
            chen_product(segment_signature([1.0, 2.0], 2), segment_signature([1.0, 2.0], 3))
        with pytest.raises(ValueError, match="batch shapes differ"):
            chen_product(segment_signature(np.ones((2, 2)), 2),
                         segment_signature(np.ones((3, 2)), 2))


class TestStreamSignature:
    def test_two_segment_example(self):
        sig = stream_signature([[0, 0], [1, 0], [1, 1]], level=2)
        np.testing.assert_allclose(sig.levels[1], [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(sig.levels[2], [0.5, 1.0, 0.0, 0.5], atol=1e-15)

    def test_constant_stream_is_identity(self):
        c = 3.7
        sig = stream_signature([[c, c]] * 3, level=2)
        np.testing.assert_array_equal(sig.flatten(), np.zeros(6))

    def test_level1_is_total_increment(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 3))
        sig = stream_signature(pts, level=2)
        np.testing.assert_allclose(sig.levels[1], pts[-1] - pts[0], rtol=1e-12, atol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            stream_signature([[1.0, 2.0]], level=2)

    def test_midpoint_insertion_is_invariant(self):
        pts = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]])
        refined = np.array(
            [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [1.5, 2.0], [1.0, 3.0]]
        )
        a = stream_signature(pts, level=3).flatten()
        b = stream_signature(refined, level=3).flatten()
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_matches_riemann_oracle_on_random_paths(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            pts = rng.uniform(-1, 1, size=(rng.integers(2, 7), 2))
            got = stream_signature(pts, level=3).flatten()
            want = riemann_signature_flat(pts, 3)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.integers(2, 6))
def test_stacked_paths_equal_each_path_exactly(data, d, level, batch, n):
    values = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    size = batch * n * d
    stack = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
    stack = stack.reshape(batch, n, d)
    stacked = stream_signature(stack, level)
    assert stacked.batch_shape == (batch,)
    rows = stacked.flatten()
    assert rows.shape == (batch, sig_length(d, level))
    assert np.array_equal(stacked.coefficient((d,)), rows[:, d - 1])
    for b in range(batch):
        single = stream_signature(stack[b], level).flatten()
        assert np.array_equal(rows[b], single)
        assert np.array_equal(single, kron_signature_flat(stack[b], level))


@settings(max_examples=40, deadline=None)
@given(splittable_path_strategy, st.integers(1, 3))
def test_chen_identity_at_any_split(pts, level):
    cut = pts.shape[0] // 2
    whole = stream_signature(pts, level)
    left = stream_signature(pts[: cut + 1], level)
    right = stream_signature(pts[cut:], level)
    prod = chen_product(left, right)
    np.testing.assert_allclose(whole.flatten(), prod.flatten(), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(path_strategy)
def test_level2_shuffle_relation(pts):
    sig = stream_signature(pts, level=2)
    d = sig.dimension
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            lhs = sig.coefficient((i, j)) + sig.coefficient((j, i))
            rhs = sig.coefficient((i,)) * sig.coefficient((j,))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(path_strategy, st.integers(1, 3))
def test_time_reversal_inverts(pts, level):
    fwd = stream_signature(pts, level)
    bwd = stream_signature(pts[::-1], level)
    prod = chen_product(fwd, bwd)
    ident = identity_signature(fwd.dimension, level)
    np.testing.assert_allclose(prod.flatten(), ident.flatten(), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(path_strategy, st.integers(1, 3))
def test_refinement_invariance(pts, level):
    doubled = np.repeat(pts, 2, axis=0)[1:-1]  # midpoint-free duplication
    mid = (pts[:-1] + pts[1:]) / 2.0
    refined = np.empty((pts.shape[0] * 2 - 1, pts.shape[1]))
    refined[0::2] = pts
    refined[1::2] = mid
    base = stream_signature(pts, level).flatten()
    np.testing.assert_allclose(
        stream_signature(refined, level).flatten(), base, rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        stream_signature(doubled, level).flatten(), base, rtol=1e-12, atol=1e-12
    )


def test_flat_index_and_lengths():
    assert sig_length(3, 2) == 12
    assert sig_length(2, 3) == 14
    assert flat_index((1,), 3) == 0
    assert flat_index((3, 2), 3) == 2 * 3 + 1
    with pytest.raises(ValueError):
        flat_index((4,), 3)


def test_invalid_container_shapes_rejected():
    with pytest.raises(ValueError):
        TruncatedSignature(2, 2, (np.ones(1), np.zeros(2), np.zeros(3)))
    with pytest.raises(ValueError):
        TruncatedSignature(0, 1, (np.ones(1), np.zeros(0)))
    with pytest.raises(ValueError, match="level 1 must have shape"):
        TruncatedSignature(2, 1, (np.ones((3, 1)), np.zeros((2, 2))))
