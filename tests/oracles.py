"""Independent oracles used by the test suite.

`read_plot_text` parses a spectrum `.txt` twin back into arrays, so tests
can check what `emit_plot` wrote against the grid it was given.
`kron_signature_flat`, `loop_fill` and `loop_naive` are the one-window
loops that the batched signature kernel, the vectorised gap filling and the
sliding naive means replaced, kept as their bit-exact references.
`sig_length` and `missing_rate` are sizes and rates the tests check
against. The Riemann signature oracle
integrates the iterated integrals directly on a fine
uniform grid along the piecewise-linear path, one word at a time, without
touching the tensor-exponential / Chen-product code path it is checking.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from moodsig.encode import MISSING
from moodsig.spectrum import TEXT_FORMAT


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
