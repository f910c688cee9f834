"""Equilateral-triangle spectrum: barycentric projection of 3-component
probability vectors, 2-D Gaussian kernel density estimation with
highest-density-region contour levels at 25/50/75% of mass, and
deterministic SVG / delimited-text emission."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .tasks import StateLabel, state_labels

TEXT_FORMAT = "moodsig.spectrum/1"

VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])

DEFAULT_LEVELS = (0.25, 0.5, 0.75)

# darkest red for the densest (25%) region, per the figure convention
_CONTOUR_COLORS = {0.25: "#99000d", 0.5: "#de2d26", 0.75: "#fcae91"}
_POINT_COLOR = "#1f77b4"

# Marching squares. A cell's case sets bit 1, 2, 4, 8 when its bottom-left,
# bottom-right, top-right, top-left corner is >= t. Edges 0-3 are bottom,
# right, top and left; edge k runs from corner _EDGES[k, 0] to _EDGES[k, 1],
# each a (dy, dx) offset. _SEGMENTS[case] holds the case's one or two
# (edge, edge) segments, -1 for none; row 16 is the other pairing of the
# saddle cases 5 and 10.
_EDGES = np.array([[[0, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 0], [1, 1]], [[0, 0], [1, 0]]])
_SEGMENTS = np.array([
    ["BRTL".find(c) for c in (pairs + "----")[:4]]
    for pairs in ("", "LB", "BR", "LR", "RT", "LTBR", "BT", "LT",
                  "LT", "BT", "LTBR", "RT", "LR", "BR", "LB", "", "LBRT")
]).reshape(17, 2, 2)


@dataclass(frozen=True)
class SimplexPoint:
    probs: np.ndarray
    xy: np.ndarray


def simplex_project(probs):
    """Barycentric map onto the triangle (0,0), (1,0), (0.5, sqrt(3)/2)."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (3,):
        raise ValueError("need a 3-vector")
    if (probs < 0).any():
        raise ValueError("probabilities must be nonnegative")
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")
    probs = probs / total
    return SimplexPoint(probs=probs, xy=probs @ VERTICES)


def true_proportions(record, instrument):
    """Observed frequency of (NoAnswer, Normal, Elevated) over the record."""
    if record.n_weeks < 1:
        raise InsufficientDataError("record has no weeks")
    labels = state_labels(record.weeks[instrument.value], instrument)
    return np.bincount(labels, minlength=len(StateLabel)) / record.n_weeks


def _inside_triangle(x, y, tol=1e-9):
    # barycentric sign tests against the three edges
    s = VERTICES[2][1]
    return (y >= -tol) & (s * x - 0.5 * y >= -tol * s) & (s * (1 - x) - 0.5 * y >= -tol * s)


@dataclass(frozen=True)
class DensityGrid:
    """Node-centered density over the triangle's bounding box.

    density[iy, ix] pairs with (xs[ix], ys[iy]); nodes outside the triangle
    hold density 0 and are excluded from mass normalization. thresholds map
    each contour level to the density value whose superlevel set encloses
    that fraction of the inside mass; contours hold the marching-squares
    polylines at those thresholds."""

    xs: np.ndarray
    ys: np.ndarray
    density: np.ndarray
    inside: np.ndarray
    bandwidth: tuple[float, float]
    thresholds: dict[float, float]
    contours: dict[float, tuple[np.ndarray, ...]]


def _scott_bandwidth(xy):
    n = xy.shape[0]
    sd = xy.std(axis=0)
    h = n ** (-1.0 / 6.0) * sd
    return tuple(float(max(v, 1e-3)) for v in h)


def kde2d(points, bandwidth=None, resolution=200):
    """Gaussian KDE of projected points, masked to the triangle, with its
    DEFAULT_LEVELS thresholds and contours.

    bandwidth: None for Scott's rule (n^(-1/6) per-axis std, floored at
    1e-3), a scalar, or an (hx, hy) pair. A bandwidth so small that the
    normalising constant or the kernel's exponent overflows is a
    ValueError."""
    if len(points) < 2:
        raise InsufficientDataError("kde2d needs at least 2 points")
    xy = np.array([p.xy for p in points])
    if bandwidth is None:
        hx, hy = _scott_bandwidth(xy)
    elif np.isscalar(bandwidth):
        hx = hy = float(bandwidth)
    else:
        hx, hy = (float(b) for b in bandwidth)
    if hx <= 0 or hy <= 0:
        raise ValueError("bandwidth must be positive")

    xs = np.linspace(0.0, 1.0, resolution)
    ys = np.linspace(0.0, VERTICES[2][1], resolution)
    inside = _inside_triangle(xs[None, :], ys[:, None])
    denominator = len(points) * 2.0 * np.pi * hx * hy
    norm = 1.0 / denominator if denominator else math.inf
    if math.isinf(norm):
        raise ValueError(f"bandwidth ({hx!r}, {hy!r}) is too small to normalise the density")
    # grid-to-point offsets are at most 1 per axis, so the kernel's exponent
    # ((x - xi) / hx) ** 2 + ((y - yi) / hy) ** 2 is finite if this bound is
    with np.errstate(over="ignore"):
        bound = np.square(1.0 / np.array([hx, hy])).sum()
    if not np.isfinite(bound):
        raise ValueError(f"bandwidth ({hx!r}, {hy!r}) is too small for the kernel's exponent")
    density = np.zeros((resolution, resolution))
    dx2 = ((xs[:, None] - xy[None, :, 0]) / hx) ** 2
    for iy in range(resolution):
        dy2 = ((ys[iy] - xy[:, 1]) / hy) ** 2
        density[iy] = norm * np.exp(-0.5 * (dx2 + dy2[None, :])).sum(axis=1)
    density[~inside] = 0.0

    thresholds = _mass_thresholds(density, inside)
    contours = {
        lv: _marching_squares(xs, ys, density, thresholds[lv]) for lv in DEFAULT_LEVELS
    }
    return DensityGrid(
        xs=xs,
        ys=ys,
        density=density,
        inside=inside,
        bandwidth=(hx, hy),
        thresholds=thresholds,
        contours=contours,
    )


def _mass_thresholds(density, inside):
    vals = np.sort(density[inside])[::-1]
    cum = np.cumsum(vals)
    total = cum[-1]
    out = {}
    for lv in DEFAULT_LEVELS:
        k = int(np.searchsorted(cum, lv * total, side="left"))
        out[lv] = float(vals[min(k, len(vals) - 1)])
    return out


def contour_mass_fraction(grid, level):
    """Fraction of inside mass in the superlevel set of the level's threshold."""
    t = grid.thresholds[level]
    inside_vals = grid.density[grid.inside]
    return float(inside_vals[inside_vals >= t].sum() / inside_vals.sum())


def _marching_squares(xs, ys, Z, t):
    """Iso-contour polylines of Z at value t, as (k, 2) xy arrays.

    Every cell with corners on both sides of t gives its segments in
    `np.nonzero` order; each segment end is the linear crossing of t along
    a cell edge whose corners straddle it."""
    # byte flags: int64 ones raised rollout's peak RSS by about 0.4 MB
    above = (Z >= t).view(np.uint8)
    case = above[:-1, :-1] + 2 * above[:-1, 1:] + 4 * above[1:, 1:] + 8 * above[1:, :-1]
    iy, ix = np.nonzero((case > 0) & (case < 15))
    case = case[iy, ix]
    saddle = np.flatnonzero((case == 5) | (case == 10))
    sy, sx = iy[saddle], ix[saddle]
    center_above = (Z[sy, sx] + Z[sy, sx + 1] + Z[sy + 1, sx] + Z[sy + 1, sx + 1]) / 4.0 >= t
    case[saddle[(case[saddle] == 5) != center_above]] = 16
    # (segment, end) edges, then (segment, end, corner, dy/dx) grid offsets
    edges = _SEGMENTS[case].reshape(-1, 2)
    used = edges[:, 0] >= 0
    cells = np.repeat(np.arange(len(case)), 2)[used]
    corners = _EDGES[edges[used]]
    y = iy[cells, None, None] + corners[..., 0]
    x = ix[cells, None, None] + corners[..., 1]
    v = Z[y, x]
    s = (t - v[..., 0]) / (v[..., 1] - v[..., 0])
    px, py = xs[x], ys[y]
    segments = np.stack([px[..., 0] + s * (px[..., 1] - px[..., 0]),
                         py[..., 0] + s * (py[..., 1] - py[..., 0])], axis=-1)
    return _chain_segments(segments)


def _chain_segments(segments):
    """Join the (m, 2, 2) segments' shared endpoints, matched on their
    coordinates rounded to 9 decimals, into polylines, deterministically."""
    points = segments.reshape(-1, 2)
    # point 2i is segment i's start, point 2i + 1 its end
    keys = list(map(tuple, np.round(points, 9).tolist()))
    by_end = {}
    for k, key in enumerate(keys):
        by_end.setdefault(key, []).append(k // 2)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = [2 * start, 2 * start + 1]
        for _ in range(2):
            # extend forward from the current tail, then flip and repeat
            while True:
                tail = keys[chain[-1]]
                nxt = next((j for j in by_end[tail] if not used[j]), None)
                if nxt is None:
                    break
                used[nxt] = True
                chain.append(2 * nxt + 1 if keys[2 * nxt] == tail else 2 * nxt)
            chain.reverse()
        polylines.append(points[chain])
    return tuple(polylines)


def _fmt(v):
    return repr(float(v))


def emit_plot(grid, points, base_path, label, vertex_labels, metadata=None):
    """Write `<base>.svg` (self-contained graphic) and `<base>.txt`
    (exact-round-trip delimited data); returns the two paths.

    `label` names the plot's points (the legend, and every text `point`
    line). metadata key/value strings are embedded in both files (text
    `meta` lines, SVG comments). Both files are byte-identical across
    reruns for identical inputs."""
    base = str(base_path)
    metadata = dict(metadata or {})
    svg_path, txt_path = base + ".svg", base + ".txt"
    with open(txt_path, "w") as fh:
        fh.write(_plot_text(grid, points, label, vertex_labels, metadata))
    with open(svg_path, "w") as fh:
        fh.write(_plot_svg(grid, points, label, vertex_labels, metadata))
    return svg_path, txt_path


def _plot_text(grid, points, label, vertex_labels, metadata):
    lines = [f"format\t{TEXT_FORMAT}"]
    for k in sorted(metadata):
        lines.append(f"meta\t{k}\t{metadata[k]}")
    lines.append("vertices\t" + "\t".join(vertex_labels))
    lines.append(f"bandwidth\t{_fmt(grid.bandwidth[0])}\t{_fmt(grid.bandwidth[1])}")
    lines.append(f"xs\t{len(grid.xs)}\t" + "\t".join(_fmt(v) for v in grid.xs))
    lines.append(f"ys\t{len(grid.ys)}\t" + "\t".join(_fmt(v) for v in grid.ys))
    for lv in sorted(grid.thresholds):
        lines.append(f"threshold\t{_fmt(lv)}\t{_fmt(grid.thresholds[lv])}")
    for iy in range(grid.density.shape[0]):
        lines.append(
            f"density\t{iy}\t" + "\t".join(_fmt(v) for v in grid.density[iy])
        )
        lines.append(
            f"inside\t{iy}\t" + "\t".join(str(int(v)) for v in grid.inside[iy])
        )
    for lv in sorted(grid.contours):
        for poly in grid.contours[lv]:
            coords = "\t".join(_fmt(v) for xy in poly for v in xy)
            lines.append(f"contour\t{_fmt(lv)}\t{len(poly)}\t{coords}")
    for p in points:
        vals = "\t".join(_fmt(v) for v in p.probs) + "\t" + "\t".join(
            _fmt(v) for v in p.xy
        )
        lines.append(f"point\t{label}\t{vals}")
    return "\n".join(lines) + "\n"


_SVG_W, _SVG_H, _MARGIN = 720, 660, 48


def _to_px(x, y):
    scale = (_SVG_W - 2 * _MARGIN) / 1.0
    px = _MARGIN + x * scale
    py = _SVG_H - _MARGIN - y * scale
    return px, py


def _plot_svg(grid, points, label, vertex_labels, metadata):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
    ]
    for k in sorted(metadata):
        parts.append(f"<!-- {k}: {metadata[k]} -->")
    parts.append(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>')
    dmax = grid.density.max()
    if dmax > 0:
        dx = grid.xs[1] - grid.xs[0] if len(grid.xs) > 1 else 0.01
        dy = grid.ys[1] - grid.ys[0] if len(grid.ys) > 1 else 0.01
        scale = (_SVG_W - 2 * _MARGIN) / 1.0
        w = dx * scale
        h = dy * scale
        parts.append('<g stroke="none" fill="#2b5f9e">')
        for iy in range(grid.density.shape[0]):
            # one rect per run of equal alpha
            alphas = np.round(0.85 * grid.density[iy] / dmax, 3)
            starts = np.flatnonzero(np.r_[True, alphas[1:] != alphas[:-1]])
            ends = np.r_[starts[1:], len(alphas)]
            for ix, j in zip(starts.tolist(), ends.tolist()):
                a = alphas[ix]
                if a >= 0.005:
                    x0, y0 = _to_px(grid.xs[ix] - dx / 2, grid.ys[iy] + dy / 2)
                    parts.append(
                        f'<rect x="{x0:.2f}" y="{y0:.2f}" '
                        f'width="{w * (j - ix):.2f}" height="{h:.2f}" '
                        f'fill-opacity="{a}"/>'
                    )
        parts.append("</g>")
    for lv in sorted(grid.contours):
        parts.append(f'<g fill="none" stroke="{_CONTOUR_COLORS[lv]}" stroke-width="2">')
        for poly in grid.contours[lv]:
            coords = " ".join(
                f"{px:.2f},{py:.2f}" for px, py in (_to_px(x, y) for x, y in poly)
            )
            parts.append(f'<polyline points="{coords}"/>')
        parts.append("</g>")
    tri = " ".join(f"{px:.2f},{py:.2f}" for px, py in (_to_px(*v) for v in VERTICES))
    parts.append(f'<polygon points="{tri}" fill="none" stroke="#333333" stroke-width="2"/>')

    parts.append('<g stroke="#222222" stroke-width="0.6">')
    for p in points:
        px, py = _to_px(p.xy[0], p.xy[1])
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" '
            f'fill="{_POINT_COLOR}" fill-opacity="0.85"/>'
        )
    parts.append("</g>")
    anchors = [("end", 12, 16), ("start", -12, 16), ("middle", 0, -10)]
    for (vx, vy), lab, (anchor, ox, oy) in zip(VERTICES, vertex_labels, anchors):
        px, py = _to_px(vx, vy)
        parts.append(
            f'<text x="{px + ox:.2f}" y="{py + oy:.2f}" text-anchor="{anchor}" '
            f'font-family="Helvetica,Arial,sans-serif" font-size="16" '
            f'fill="#111111">{lab}</text>'
        )
    parts.append(
        f'<circle cx="{_SVG_W - 150:.2f}" cy="{_MARGIN:.2f}" r="5" fill="{_POINT_COLOR}"/>'
    )
    parts.append(
        f'<text x="{_SVG_W - 138:.2f}" y="{_MARGIN + 5:.2f}" '
        f'font-family="Helvetica,Arial,sans-serif" font-size="14" '
        f'fill="#111111">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
