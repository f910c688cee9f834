"""Triangle projection, KDE density grid, contour mass, and plot emission."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import joined_plot_svg, joined_plot_text, loop_marching_squares, read_plot_text

import moodsig
from moodsig.encode import MISSING, Group, ParticipantRecord, weekly
from moodsig.errors import InsufficientDataError
from moodsig.spectrum import (
    VERTICES,
    DensityGrid,
    _marching_squares,
    contour_mass_fraction,
    emit_plot,
    kde2d,
    simplex_project,
)
from moodsig.tasks import Instrument, state_labels, true_proportions


def test_vertices_map_to_corners():
    np.testing.assert_allclose(simplex_project([1, 0, 0]).xy, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(simplex_project([0, 1, 0]).xy, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        simplex_project([0, 0, 1]).xy, [0.5, np.sqrt(3) / 2], atol=1e-12
    )


def test_centroid_maps_to_triangle_center():
    xy = simplex_project([1 / 3, 1 / 3, 1 / 3]).xy
    np.testing.assert_allclose(xy, [0.5, np.sqrt(3) / 6], rtol=1e-12, atol=1e-12)


def test_mixed_vector_example():
    xy = simplex_project([0.1, 0.5, 0.4]).xy
    np.testing.assert_allclose(xy, [0.7, 0.2 * np.sqrt(3)], rtol=1e-12, atol=1e-12)


def test_projection_is_exact_matrix_product():
    p = simplex_project([0.25, 0.25, 0.5])
    np.testing.assert_array_equal(p.xy, p.probs @ VERTICES)


def test_near_one_sum_is_renormalized():
    p = simplex_project([0.3 + 4e-7, 0.3, 0.4])
    assert abs(p.probs.sum() - 1.0) < 1e-15


def test_sum_off_by_more_than_tolerance_rejected():
    with pytest.raises(ValueError):
        simplex_project([0.3, 0.3, 0.5])


def test_negative_entry_rejected():
    with pytest.raises(ValueError):
        simplex_project([-0.1, 0.6, 0.5])


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        simplex_project([0.5, 0.5])


def probs_strategy():
    return (
        st.tuples(
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
        )
        .map(np.array)
        .map(lambda v: v / v.sum())
    )


@given(probs_strategy(), probs_strategy(), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_projection_is_affine(p, q, lam):
    mix = lam * p + (1 - lam) * q
    expected = lam * simplex_project(p).xy + (1 - lam) * simplex_project(q).xy
    np.testing.assert_allclose(simplex_project(mix).xy, expected, atol=1e-9)


@given(probs_strategy(), st.permutations([0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_permuted_vector_lands_on_permuted_vertex_mix(p, perm):
    xy = simplex_project(p[list(perm)]).xy
    expected = sum(p[perm[i]] * VERTICES[i] for i in range(3))
    np.testing.assert_allclose(xy, expected, atol=1e-12)


@given(probs_strategy())
@settings(max_examples=200, deadline=None)
def test_coordinate_identities(p):
    xy = simplex_project(p).xy
    np.testing.assert_allclose(xy[1], p[2] * np.sqrt(3) / 2, atol=1e-12)
    np.testing.assert_allclose(xy[0], p[1] + 0.5 * p[2], atol=1e-12)


def _record(pairs, group=Group.BD, pid="BD000"):
    weeks = weekly((t, a, q) for t, (a, q) in enumerate(pairs))
    return ParticipantRecord(id=pid, group=group, weeks=weeks)


def test_true_proportions_all_answered_normal():
    rec = _record([(2, 4)] * 10)
    np.testing.assert_array_equal(true_proportions(rec, Instrument.ASRM), [0, 1, 0])
    np.testing.assert_array_equal(true_proportions(rec, Instrument.QIDS), [0, 1, 0])


def test_true_proportions_counts_missing_and_elevated():
    pairs = [
        (MISSING, MISSING),
        (3, 2),
        (8, 12),
        (12, 4),
        (0, 1),
        (MISSING, MISSING),
        (7, 20),
        (2, 3),
    ]
    rec = _record(pairs)
    np.testing.assert_allclose(
        true_proportions(rec, Instrument.ASRM), [2 / 8, 3 / 8, 3 / 8]
    )
    np.testing.assert_allclose(
        true_proportions(rec, Instrument.QIDS), [2 / 8, 4 / 8, 2 / 8]
    )


def test_true_proportions_empty_record_rejected():
    rec = ParticipantRecord(id="BD000", group=Group.BD, weeks=())
    with pytest.raises(InsufficientDataError):
        true_proportions(rec, Instrument.ASRM)


def _uniform_triangle_points(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    probs = np.column_stack([1 - u - v, u, v])
    return [simplex_project(p) for p in probs]


def test_kde_needs_two_points():
    with pytest.raises(InsufficientDataError):
        kde2d([simplex_project([0.2, 0.5, 0.3])])


def test_kde_grid_shape_and_mask():
    pts = _uniform_triangle_points(50, seed=1)
    grid = kde2d(pts, resolution=64)
    assert grid.density.shape == (64, 64)
    assert grid.inside.shape == (64, 64)
    assert (grid.density >= 0).all()
    assert (grid.density[~grid.inside] == 0).all()
    # bounding-box corners away from the triangle are masked out
    assert not grid.inside[-1, 0] and not grid.inside[-1, -1]
    assert grid.inside[0, 0] and grid.inside[0, -1]


def test_thresholds_are_nested():
    pts = _uniform_triangle_points(200, seed=2)
    grid = kde2d(pts, resolution=100)
    t = grid.thresholds
    assert t[0.25] > t[0.5] > t[0.75] > 0


def test_contour_mass_fractions_track_levels():
    pts = _uniform_triangle_points(500, seed=3)
    grid = kde2d(pts, resolution=200)
    for lv in (0.25, 0.5, 0.75):
        assert abs(contour_mass_fraction(grid, lv) - lv) < 0.02


def test_uniform_sample_75pct_contour_encloses_about_75pct_of_points():
    pts = _uniform_triangle_points(500, seed=4)
    grid = kde2d(pts, resolution=200)
    t = grid.thresholds[0.75]
    res = len(grid.xs)
    ymax = grid.ys[-1]
    hits = 0
    for p in pts:
        ix = int(round(p.xy[0] * (res - 1)))
        iy = int(round(p.xy[1] / ymax * (res - 1)))
        hits += grid.density[iy, ix] >= t
    assert abs(hits / len(pts) - 0.75) < 0.10


def test_coincident_points_concentrate_mass():
    pts = [simplex_project([0.2, 0.5, 0.3])] * 5
    grid = kde2d(pts, resolution=200)
    center = pts[0].xy
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    near = (gx - center[0]) ** 2 + (gy - center[1]) ** 2 < 0.02**2
    assert grid.density[near].sum() / grid.density.sum() > 0.99
    t = grid.thresholds
    assert t[0.25] >= t[0.5] >= t[0.75]


def test_duplicating_points_leaves_density_unchanged():
    pts = _uniform_triangle_points(40, seed=5)
    g1 = kde2d(pts, bandwidth=0.08, resolution=80)
    g2 = kde2d(pts + pts, bandwidth=0.08, resolution=80)
    np.testing.assert_allclose(g2.density, g1.density, rtol=1e-10, atol=1e-12)
    for lv in (0.25, 0.5, 0.75):
        np.testing.assert_allclose(g2.thresholds[lv], g1.thresholds[lv], rtol=1e-9)


def test_explicit_bandwidth_forms():
    pts = _uniform_triangle_points(20, seed=6)
    assert kde2d(pts, bandwidth=0.1, resolution=40).bandwidth == (0.1, 0.1)
    assert kde2d(pts, bandwidth=(0.1, 0.2), resolution=40).bandwidth == (0.1, 0.2)
    with pytest.raises(ValueError):
        kde2d(pts, bandwidth=0.0, resolution=40)
    # hx * hy underflows to 0, so the normalising constant is infinite
    with pytest.raises(ValueError, match="too small"):
        kde2d(pts, bandwidth=1e-200, resolution=40)
    # hx * hy is 1, but (1 / hx) ** 2 overflows in the kernel's exponent
    with pytest.raises(ValueError, match="too small for the kernel's exponent"):
        kde2d(pts, bandwidth=(1e-200, 1e200), resolution=40)
    # n * 2 * pi * hx * hy overflows to inf, or leaves the normalising
    # constant subnormal: the density would be 0 everywhere
    for bandwidth in (1e200, 1e300, (1e154, 1e154), (1e300, 1e10)):
        with pytest.raises(ValueError, match="too large to normalise the density"):
            kde2d(pts, bandwidth=bandwidth, resolution=40)
    # the largest bandwidths whose normalising constant stays normal leave
    # the density one value over the triangle
    with pytest.raises(ValueError, match="has one value over the whole triangle"):
        kde2d(pts, bandwidth=1e150, resolution=40)


def test_resolution_below_two_is_an_error():
    pts = _uniform_triangle_points(20, seed=0)
    for resolution in (0, 1):
        with pytest.raises(ValueError, match=f"^resolution must be >= 2, got {resolution}$"):
            kde2d(pts, resolution=resolution)


def test_flat_density_is_an_error():
    # every kernel term rounds to exp(-0.0) from 1e8 on; at 1e7 the density
    # is quantised to a few values but not flat
    pts = _uniform_triangle_points(20, seed=0)
    for bandwidth in (1e8, 1e150):
        message = f"bandwidth ({bandwidth!r}, {bandwidth!r}) is too large: the density"
        with pytest.raises(ValueError, match=re.escape(message)):
            kde2d(pts, bandwidth=bandwidth, resolution=100)
    for bandwidth in (0.1, 10, 1e7):
        grid = kde2d(pts, bandwidth=bandwidth, resolution=100)
        assert grid.density[grid.inside].min() < grid.density[grid.inside].max()


def test_contours_stay_in_bounding_box():
    pts = _uniform_triangle_points(200, seed=7)
    grid = kde2d(pts, resolution=120)
    for polys in grid.contours.values():
        assert len(polys) >= 1
        for poly in polys:
            assert poly.shape[0] >= 2 and poly.shape[1] == 2
            assert (poly[:, 0] >= -1e-9).all() and (poly[:, 0] <= 1 + 1e-9).all()
            assert (poly[:, 1] >= -1e-9).all()
            assert (poly[:, 1] <= np.sqrt(3) / 2 + 1e-9).all()


def _assert_same_polylines(xs, ys, Z, t):
    # the reference interpolates unused edges too, where it may divide by
    # a tiny or zero difference
    with np.errstate(all="ignore"):
        want = loop_marching_squares(xs, ys, Z, t)
    got = _marching_squares(xs, ys, Z, t)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_marching_squares_matches_loop_reference_on_integer_grids(data):
    # small integers give ties, plateaus and saddles with the centre on
    # either side; thresholds are often grid values themselves
    ny = data.draw(st.integers(2, 7))
    nx = data.draw(st.integers(2, 7))
    Z = np.array(data.draw(st.lists(st.integers(0, 3), min_size=ny * nx, max_size=ny * nx)),
                 dtype=float).reshape(ny, nx)
    t = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, *Z.ravel().tolist()]))
    xs = np.linspace(0.0, 1.0, nx)
    ys = np.linspace(0.0, VERTICES[2][1], ny)
    _assert_same_polylines(xs, ys, Z, t)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=12),
       st.integers(2, 40), st.sampled_from([None, 0.02, 0.1]))
@settings(max_examples=100, deadline=None)
# at resolution 2 only two grid nodes are inside the triangle, and
# symmetric points give them equal densities: not a flat kernel
@example(counts=[(0, 5), (5, 0)], resolution=2, bw=None)
@example(counts=[(0, 0), (0, 0)], resolution=2, bw=0.1)
def test_marching_squares_matches_loop_reference_on_quantised_kde(counts, resolution, bw):
    # rollout proportions are multiples of 1/5, so points repeat and sit on
    # edges and vertices
    probs = [np.array([a, min(b, 5 - a), 5 - a - min(b, 5 - a)]) / 5.0 for a, b in counts]
    grid = kde2d([simplex_project(p) for p in probs], bandwidth=bw, resolution=resolution)
    for t in grid.thresholds.values():
        _assert_same_polylines(grid.xs, grid.ys, grid.density, t)


def test_instance_labels_match_true_proportions_over_target_weeks():
    # sliding-window targets are the labels of weeks wl..n-1, so their
    # frequency vector is the true-proportion op applied to that suffix
    rng = np.random.default_rng(8)
    pairs = [
        (int(rng.integers(0, 21)), int(rng.integers(0, 28)))
        if rng.random() > 0.3
        else (MISSING, MISSING)
        for _ in range(30)
    ]
    rec = _record(pairs)
    wl = 10
    suffix = ParticipantRecord(id=rec.id, group=rec.group, weeks=rec.weeks[wl:])
    for instrument in Instrument:
        labels = [
            int(state_labels([obs[instrument.value]], instrument)[0])
            for obs in rec.weeks[wl:]
        ]
        freq = np.bincount(labels, minlength=3) / len(labels)
        np.testing.assert_allclose(true_proportions(suffix, instrument), freq)


def test_emit_plot_round_trip_and_determinism(tmp_path):
    pts = _uniform_triangle_points(30, seed=9)
    grid = kde2d(pts, resolution=48)
    svg1, txt1 = emit_plot(grid, pts, tmp_path / "one", "BD", ("BD", "HC", "BPD"))
    svg2, txt2 = emit_plot(grid, pts, tmp_path / "two", "BD", ("BD", "HC", "BPD"))
    with open(svg1, "rb") as fh:
        svg_bytes = fh.read()
    with open(svg2, "rb") as fh:
        assert fh.read() == svg_bytes
    with open(txt1, "rb") as fh:
        txt_bytes = fh.read()
    with open(txt2, "rb") as fh:
        assert fh.read() == txt_bytes

    parsed = read_plot_text(txt1)
    np.testing.assert_array_equal(parsed["xs"], grid.xs)
    np.testing.assert_array_equal(parsed["ys"], grid.ys)
    np.testing.assert_array_equal(parsed["density"], grid.density)
    np.testing.assert_array_equal(parsed["inside"], grid.inside)
    assert parsed["vertices"] == ("BD", "HC", "BPD")
    assert parsed["bandwidth"] == grid.bandwidth
    for lv, t in grid.thresholds.items():
        assert parsed["thresholds"][lv] == t
    flat = [poly for lv in sorted(grid.contours) for poly in grid.contours[lv]]
    assert len(parsed["contours"]) == len(flat)
    for (lv, got), want in zip(parsed["contours"], flat):
        np.testing.assert_array_equal(got, want)
    assert len(parsed["points"]) == 30
    for (label, probs, xy), p in zip(parsed["points"], pts):
        assert label == "BD"
        np.testing.assert_array_equal(probs, p.probs)
        np.testing.assert_array_equal(xy, p.xy)


def _fifths_points(n, seed):
    # rollout's proportions are multiples of 1/5, so points share edges and
    # vertices; the first four sit on the NoAnswer vertex
    rng = np.random.default_rng(seed)
    counts = [(a, b, 5 - a - b) for a in range(6) for b in range(6 - a)]
    picks = [(5, 0, 0)] * 4 + [counts[k] for k in rng.integers(len(counts), size=n - 4)]
    return [simplex_project(np.array(c) / 5) for c in picks]


@pytest.mark.parametrize(
    "points,kwargs",
    [
        (_uniform_triangle_points(12, seed=3), {"resolution": 2}),
        (_uniform_triangle_points(12, seed=4), {"resolution": 3}),
        # every kernel underflows at every node: no raster group, no contours
        (_uniform_triangle_points(12, seed=5), {"resolution": 16, "bandwidth": 1e-150}),
        (_fifths_points(32, seed=6), {"resolution": 200}),
        (_fifths_points(32, seed=7), {"resolution": 400}),
    ],
    ids=["resolution-2", "resolution-3", "all-zero", "fifths", "resolution-400"],
)
def test_emit_plot_matches_joined_reference(tmp_path, points, kwargs):
    grid = kde2d(points, **kwargs)
    if "bandwidth" in kwargs:
        assert grid.density.max() == 0
        assert not any(grid.contours.values())
    labels = ("BPD", ("NoAnswer", "Normal", "Elevated"),
              {"config_hash": "0" * 64, "source": "state"})
    svg_path, txt_path = emit_plot(grid, points, tmp_path / "plot", *labels)
    with open(txt_path, "rb") as fh:
        assert fh.read() == joined_plot_text(grid, points, *labels).encode("utf-8")
    with open(svg_path, "rb") as fh:
        assert fh.read() == joined_plot_svg(grid, points, *labels).encode("utf-8")


def test_emit_plot_memory_is_bounded_by_a_row_not_the_file(tmp_path):
    pts = _fifths_points(32, seed=8)
    grid = kde2d(pts, resolution=400)
    tracemalloc.start()
    try:
        svg_path, _ = emit_plot(grid, pts, tmp_path / "plot", "BD", ("BD", "HC", "BPD"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    svg_bytes = os.path.getsize(svg_path)
    assert peak < svg_bytes / 10, (peak, svg_bytes)


def test_svg_contains_expected_elements(tmp_path):
    pts = _uniform_triangle_points(25, seed=10)
    grid = kde2d(pts, resolution=48)
    svg_path, _ = emit_plot(grid, pts, tmp_path / "plot", "HC",
                            ("NoAnswer", "Normal", "Elevated"))
    with open(svg_path) as fh:
        svg = fh.read()
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 1
    assert "#99000d" in svg and "#de2d26" in svg and "#fcae91" in svg
    assert svg.count("<circle") >= 25
    assert "NoAnswer" in svg and "Elevated" in svg


def test_grid_is_plain_dataclass():
    pts = _uniform_triangle_points(10, seed=11)
    grid = kde2d(pts, resolution=32)
    assert isinstance(grid, DensityGrid)
    assert set(grid.thresholds) == {0.25, 0.5, 0.75}
    assert set(grid.contours) == {0.25, 0.5, 0.75}


def test_importing_the_spectrum_loads_no_task_module():
    # spectrum only plots; the state proportions it is given come from tasks
    src = str(Path(moodsig.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, moodsig.spectrum; print('moodsig.tasks' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
