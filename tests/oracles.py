"""Independent oracles used by the test suite.

`read_plot_text` parses a spectrum `.txt` twin back into arrays, so tests
can check what `emit_plot` wrote against the grid it was given.
`kron_signature_flat`, `loop_fill` and `loop_naive` are the one-window
loops that the batched signature kernel, the vectorised gap filling and the
sliding naive means replaced, kept as their bit-exact references;
`loop_marching_squares` is the per-cell contour tracer that the
table-driven one replaced, kept the same way, and `joined_plot_text` and
`joined_plot_svg` are the whole-file string builders that `emit_plot`'s
row-by-row streams replaced, kept as their byte-exact references.
`loop_grow_tree` (with its `_best_split`) is the per-node CART grower
that `forest._grow_tree` replaced, and `loop_apply`, `loop_predict_proba`
and `loop_predict` the tree-at-a-time traversal that the ensemble-wide walk
replaced; both are kept as their bit-exact references, and `loop_fit_trees`
grows a fit's trees with the first under the same random protocol.
`sig_length` and `missing_rate` are sizes and rates the tests check
against. The Riemann signature oracle
integrates the iterated integrals directly on a fine
uniform grid along the piecewise-linear path, one word at a time, without
touching the tensor-exponential / Chen-product code path it is checking.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from moodsig.encode import MISSING
from moodsig.forest import CLASSIFY, _seed_key, _Tree
from moodsig.spectrum import (
    _CONTOUR_COLORS,
    _MARGIN,
    _POINT_COLOR,
    _SVG_H,
    _SVG_W,
    TEXT_FORMAT,
    VERTICES,
    _fmt,
    _to_px,
)


def sig_length(dimension: int, level: int) -> int:
    """Number of coefficients on levels 1..level (the level-0 scalar excluded)."""
    return sum(dimension**k for k in range(1, level + 1))


def missing_rate(cohort):
    """Share of all the cohort's weeks with a missing response."""
    weeks = np.concatenate([rec.weeks for rec in cohort.records])
    return np.count_nonzero(weeks["asrm"] == MISSING) / len(weeks)


def loop_fill(window, missing=-1):
    """Feed-forward fill of one window's (asrm, qids) scores, one column and
    one week at a time, with leading gaps back-filled and all-missing
    columns set to 0; plus the running count of weeks missing either score."""
    raw = np.array([[o.asrm, o.qids] for o in window], dtype=float)
    filled = raw.copy()
    for col in range(2):
        last = None
        for t in range(len(window)):
            if filled[t, col] == missing:
                if last is not None:
                    filled[t, col] = last
            else:
                last = filled[t, col]
        if last is None:
            filled[:, col] = 0.0
        else:
            first_valid = int(np.argmax(raw[:, col] != missing))
            filled[:first_valid, col] = filled[first_valid, col]
    missing_week = np.array([o.asrm == missing or o.qids == missing for o in window])
    return filled, np.cumsum(missing_week).astype(int)


def loop_naive(window, missing=-1):
    """Mean of one window's valid scores, one column at a time; a column
    with no valid score gives 0."""
    out = np.zeros(2)
    for col, values in enumerate(
        (np.array([o.asrm for o in window]), np.array([o.qids for o in window]))
    ):
        valid = values[values != missing]
        out[col] = valid.mean() if valid.size else 0.0
    return out


def _interp(p1, v1, p2, v2, t):
    s = 0.5 if v2 == v1 else (t - v1) / (v2 - v1)
    return (p1[0] + s * (p2[0] - p1[0]), p1[1] + s * (p2[1] - p1[1]))


def loop_marching_squares(xs, ys, Z, t):
    """Iso-contour polylines of Z at value t, one cell at a time: every
    cell with corners on both sides of t, in `np.nonzero` order, gives its
    segments, and shared endpoints (rounded to 9 decimals) chain them. It
    interpolates all four edges of a cell, used or not, so a flat or
    near-flat edge may warn."""
    above = Z >= t
    cell = above[:-1, :-1] | above[:-1, 1:] | above[1:, :-1] | above[1:, 1:]
    cell &= ~(above[:-1, :-1] & above[:-1, 1:] & above[1:, :-1] & above[1:, 1:])
    segments = []
    for iy, ix in zip(*np.nonzero(cell)):
        bl = (xs[ix], ys[iy]), Z[iy, ix]
        br = (xs[ix + 1], ys[iy]), Z[iy, ix + 1]
        tl = (xs[ix], ys[iy + 1]), Z[iy + 1, ix]
        tr = (xs[ix + 1], ys[iy + 1]), Z[iy + 1, ix + 1]
        case = (
            1 * (bl[1] >= t) + 2 * (br[1] >= t) + 4 * (tr[1] >= t) + 8 * (tl[1] >= t)
        )
        bottom = _interp(bl[0], bl[1], br[0], br[1], t)
        right = _interp(br[0], br[1], tr[0], tr[1], t)
        top = _interp(tl[0], tl[1], tr[0], tr[1], t)
        left = _interp(bl[0], bl[1], tl[0], tl[1], t)
        if case in (1, 14):
            segments.append((left, bottom))
        elif case in (2, 13):
            segments.append((bottom, right))
        elif case in (3, 12):
            segments.append((left, right))
        elif case in (4, 11):
            segments.append((right, top))
        elif case in (6, 9):
            segments.append((bottom, top))
        elif case in (7, 8):
            segments.append((left, top))
        elif case in (5, 10):
            center_above = (bl[1] + br[1] + tl[1] + tr[1]) / 4.0 >= t
            if (case == 5) == center_above:
                segments.append((left, top))
                segments.append((bottom, right))
            else:
                segments.append((left, bottom))
                segments.append((right, top))
    return _loop_chain_segments(segments)


def _loop_chain_segments(segments):
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    by_end = {}
    for i, (a, b) in enumerate(segments):
        by_end.setdefault(key(a), []).append(i)
        by_end.setdefault(key(b), []).append(i)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for _ in range(2):
            # extend forward from the current tail, then flip and repeat
            while True:
                tail = key(chain[-1])
                nxt = next((j for j in by_end.get(tail, ()) if not used[j]), None)
                if nxt is None:
                    break
                used[nxt] = True
                a2, b2 = segments[nxt]
                chain.append(b2 if key(a2) == tail else a2)
            chain.reverse()
        polylines.append(np.array(chain))
    return tuple(polylines)


def kron_signature_flat(points, level: int) -> np.ndarray:
    """Signature of one (n, d) point stream, levels 1..level, by the
    per-segment loop of 1-D `np.kron` Chen products: the same products,
    summed in the same order, as `moodsig.sigcore.stream_signature`."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    sig = [np.ones(1)] + [np.zeros(d**k) for k in range(1, level + 1)]
    for inc in np.diff(pts, axis=0):
        seg = [np.ones(1)]
        for k in range(1, level + 1):
            seg.append(np.kron(seg[-1], inc) / k)
        prod = []
        for n in range(level + 1):
            total = np.zeros(d**n)
            for i in range(n + 1):
                total += np.kron(sig[i], seg[n - i])
            prod.append(total)
        sig = prod
    return np.concatenate(sig[1:])


def riemann_signature(points, level: int, steps_per_segment: int = 2048) -> dict:
    """Iterated integrals of the piecewise-linear path through `points`.

    Each word (i1, ..., ik) is integrated by the cumulative recursion
    I_j(t) = integral of I_{j-1} dX^{i_j}, evaluated with trapezoid weights
    on a grid of `steps_per_segment` steps per segment (the Riemann sums
    converge at second order; within a segment the level-2 integrand is
    linear, so only level >= 3 carries quadrature error at all).

    Returns {word: value} for all words of length 1..level.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    fine = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        ts = np.linspace(0.0, 1.0, steps_per_segment + 1)[1:, None]
        fine.extend(a + ts * (b - a))
    fine = np.asarray(fine)
    dX = np.diff(fine, axis=0)
    out = {}
    for k in range(1, level + 1):
        for word in product(range(1, d + 1), repeat=k):
            integral = np.ones(fine.shape[0])
            for letter in word:
                midpoints = (integral[:-1] + integral[1:]) / 2.0
                integral = np.concatenate(
                    [[0.0], np.cumsum(midpoints * dX[:, letter - 1])]
                )
            out[word] = integral[-1]
    return out


def riemann_signature_flat(points, level: int, steps_per_segment: int = 2048) -> np.ndarray:
    """Same oracle flattened in lexicographic word order, levels 1..level."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    table = riemann_signature(pts, level, steps_per_segment)
    values = []
    for k in range(1, level + 1):
        for word in product(range(1, d + 1), repeat=k):
            values.append(table[word])
    return np.asarray(values)


def read_plot_text(path):
    """Parse a `<base>.txt` spectrum file back into plain arrays."""
    out = {"thresholds": {}, "contours": [], "points": [], "meta": {}}
    density_rows, inside_rows = {}, {}
    with open(path) as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            tag = parts[0]
            if tag == "format":
                if parts[1] != TEXT_FORMAT:
                    raise ValueError(f"unsupported spectrum format {parts[1]!r}")
            elif tag == "meta":
                out["meta"][parts[1]] = parts[2]
            elif tag == "vertices":
                out["vertices"] = tuple(parts[1:])
            elif tag == "bandwidth":
                out["bandwidth"] = (float(parts[1]), float(parts[2]))
            elif tag in ("xs", "ys"):
                out[tag] = np.array([float(v) for v in parts[2:]])
            elif tag == "threshold":
                out["thresholds"][float(parts[1])] = float(parts[2])
            elif tag == "density":
                density_rows[int(parts[1])] = [float(v) for v in parts[2:]]
            elif tag == "inside":
                inside_rows[int(parts[1])] = [bool(int(v)) for v in parts[2:]]
            elif tag == "contour":
                k = int(parts[2])
                vals = [float(v) for v in parts[3 : 3 + 2 * k]]
                out["contours"].append(
                    (float(parts[1]), np.array(vals).reshape(k, 2))
                )
            elif tag == "point":
                vals = [float(v) for v in parts[2:7]]
                out["points"].append(
                    (parts[1], np.array(vals[:3]), np.array(vals[3:5]))
                )
    out["density"] = np.array([density_rows[i] for i in sorted(density_rows)])
    out["inside"] = np.array([inside_rows[i] for i in sorted(inside_rows)])
    return out


def joined_plot_text(grid, points, label, vertex_labels, metadata):
    """The whole `.txt` twin as one string."""
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


def joined_plot_svg(grid, points, label, vertex_labels, metadata):
    """The whole `.svg` plot as one string."""
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


def _best_split(X_cand, stats, totals, min_leaf):
    """Best (candidate index, threshold) over all positions, or None.

    X_cand is n x q, one column per candidate feature. stats is n x s with
    per-row sufficient statistics: one-hot class indicators (classify) or
    the target values (regress). The score maximized is
    sum(left_stats^2)/n_left + sum(right_stats^2)/n_right, a monotone
    equivalent of Gini gain and of variance reduction.
    """
    n, q = X_cand.shape
    order = X_cand.argsort(axis=0, kind="stable")
    sorted_vals = X_cand[order, np.arange(q)]
    # only the n-1 positions with a nonempty right side are scored, so
    # neither denominator is ever 0
    left = np.add.accumulate(stats[order[:-1]], axis=0)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    score = np.add.reduce(left * left, axis=2) / left_n
    right = totals - left
    score += np.add.reduce(right * right, axis=2) / (n - left_n)
    valid = sorted_vals[:-1] < sorted_vals[1:]
    valid[: min_leaf - 1] = False
    valid[n - min_leaf :] = False
    if not valid.any():
        return None
    score[~valid] = -np.inf
    pos, j = divmod(int(score.argmax()), q)
    thr = (sorted_vals[pos, j] + sorted_vals[pos + 1, j]) / 2.0
    if thr >= sorted_vals[pos + 1, j]:
        # fp midpoint of 1-ulp neighbors can collapse onto the upper value,
        # which would route every sample left; fall back to the lower value
        thr = sorted_vals[pos, j]
    return j, thr


def loop_grow_tree(XT, stats, mode, cfg, n_candidates, rng):
    """One tree, node by node: XT is the bootstrap sample transposed
    (features x rows), stats its one-hot class rows or its targets as an
    m x 1 column."""
    f, n_total = XT.shape
    min_leaf, max_depth = cfg.min_leaf, cfg.max_depth
    classify = mode == CLASSIFY
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [None]
    stack = [(0, np.arange(n_total), 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        node_stats = stats[idx]
        totals = node_stats.sum(axis=0)
        value[node_id] = totals if classify else np.array([node_stats.mean()])
        if (
            idx.size < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
            or (
                np.count_nonzero(totals) <= 1
                if classify
                else node_stats.min() == node_stats.max()
            )
        ):
            continue
        cand = rng.choice(f, size=n_candidates, replace=False)
        X_cand = XT[cand[:, None], idx].T
        found = _best_split(X_cand, node_stats, totals, min_leaf)
        if found is None:
            continue
        j, thr = found
        feature[node_id] = int(cand[j])
        threshold[node_id] = thr
        go_left = X_cand[:, j] <= thr
        child = len(feature)
        left[node_id], right[node_id] = child, child + 1
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
        value += [None, None]
        stack.append((child, idx[go_left], depth + 1))
        stack.append((child + 1, idx[~go_left], depth + 1))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def loop_fit_trees(X, y, mode, config, seed, n_classes=None):
    """The trees `forest.fit(X, y, mode, config, seed, n_classes)` grows,
    one at a time by `loop_grow_tree`: tree t draws its bootstrap rows and
    then its candidates from its own `default_rng((*seed key, t))`."""
    X = np.asarray(X, dtype=np.float64)
    m, f = X.shape
    if mode == CLASSIFY:
        stats = np.eye(int(y.max()) + 1 if n_classes is None else n_classes)[y]
    else:
        stats = np.asarray(y, dtype=np.float64)[:, None]
    n_candidates = config.features_per_split or math.ceil(math.sqrt(f))
    XT = np.ascontiguousarray(X.T)
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng((*_seed_key(seed), t))
        boot = rng.integers(0, m, size=m)
        trees.append(loop_grow_tree(XT[:, boot], stats[boot], mode, config, n_candidates, rng))
    return trees


def loop_apply(tree, X):
    """The leaf each row of X reaches in one tree."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[node] >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        nd = node[idx]
        go_left = X[idx, tree.feature[nd]] <= tree.threshold[nd]
        node[idx] = np.where(go_left, tree.left[nd], tree.right[nd])
        active[idx] = tree.feature[node[idx]] >= 0
    return node


def loop_predict_proba(model, X):
    """`model.predict_proba` for a row matrix X, one tree at a time."""
    probs = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        counts = tree.value[loop_apply(tree, X)]
        probs += counts / counts.sum(axis=1, keepdims=True)
    probs /= len(model.trees)
    return probs


def loop_predict(model, X):
    """`model.predict` for a row matrix X, one tree at a time."""
    if model.mode == CLASSIFY:
        return np.argmax(loop_predict_proba(model, X), axis=1)
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += tree.value[loop_apply(tree, X), 0]
    out /= len(model.trees)
    return out
