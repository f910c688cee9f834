"""Bagged decision-tree ensemble: multiclass classifier and regressor.

Trees are grown on bootstrap resamples with axis-aligned splits chosen by
Gini impurity (classification) or variance reduction (regression), scanning
ceil(sqrt(f)) randomly chosen candidate features per node. Fitted ensembles
are immutable; each tree draws from its own generator seeded by
(master seed, tree index) so the build order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CLASSIFY = "classify"
REGRESS = "regress"


@dataclass(frozen=True)
class ForestConfig:
    """Ensemble hyperparameters; features_per_split=None means ceil(sqrt(f))."""

    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")


@dataclass(frozen=True)
class _Tree:
    # flat node arrays; feature == -1 marks a leaf, value rows hold class
    # counts (classify) or a single mean target (regress)
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active[idx] = self.feature[node[idx]] >= 0
        return node


@dataclass(frozen=True)
class TreeEnsemble:
    """Immutable fitted ensemble; thread-safe for prediction."""

    mode: str
    feature_count: int
    n_classes: int
    config: ForestConfig
    seed: int
    trees: tuple[_Tree, ...] = field(repr=False)

    def predict_proba(self, x):
        """Average of per-tree leaf class frequencies, rows summing to 1."""
        if self.mode != CLASSIFY:
            raise ValueError("predict_proba requires classify mode")
        X, single = _as_matrix(x, self.feature_count)
        probs = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            counts = tree.value[tree.apply(X)]
            probs += counts / counts.sum(axis=1, keepdims=True)
        probs /= len(self.trees)
        return probs[0] if single else probs

    def predict(self, x):
        """Class label by argmax (ties toward the lowest index) or mean target."""
        X, single = _as_matrix(x, self.feature_count)
        if self.mode == CLASSIFY:
            out = np.argmax(self.predict_proba(X), axis=1)
        else:
            out = np.zeros(X.shape[0])
            for tree in self.trees:
                out += tree.value[tree.apply(X), 0]
            out /= len(self.trees)
        return out[0] if single else out


def _as_matrix(x, feature_count):
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != feature_count:
        raise ValueError(f"expected inputs with {feature_count} features")
    if not np.isfinite(X).all():
        raise ValueError("inputs must be finite")
    return X, single


def _best_split(X_cand, stats, totals, min_leaf):
    """Best (candidate index, threshold) over all positions, or None.

    stats is n x s with per-row sufficient statistics: one-hot class
    indicators (classify) or the target values (regress). The score
    maximized is sum(left_stats^2)/n_left + sum(right_stats^2)/n_right,
    a monotone equivalent of Gini gain and of variance reduction.
    """
    n, q = X_cand.shape
    order = np.argsort(X_cand, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(X_cand, order, axis=0)
    left = np.cumsum(stats[order], axis=0)
    left_n = np.arange(1, n + 1, dtype=np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (left**2).sum(axis=2) / left_n
        score += ((totals[None, None, :] - left) ** 2).sum(axis=2) / (n - left_n)
    valid = np.zeros((n, q), dtype=bool)
    valid[: n - 1] = sorted_vals[:-1] < sorted_vals[1:]
    valid[: min_leaf - 1] = False
    valid[n - min_leaf :] = False
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)
    pos, j = np.unravel_index(np.argmax(score), score.shape)
    thr = (sorted_vals[pos, j] + sorted_vals[pos + 1, j]) / 2.0
    if thr >= sorted_vals[pos + 1, j]:
        # fp midpoint of 1-ulp neighbors can collapse onto the upper value,
        # which would route every sample left; fall back to the lower value
        thr = sorted_vals[pos, j]
    return j, thr


def _grow_tree(X, stats, totals_fn, leaf_fn, is_pure, cfg, n_candidates, rng):
    n_total, f = X.shape
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(None)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n_total), 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        node_stats = stats[idx]
        value[node_id] = leaf_fn(node_stats)
        if (
            idx.size < 2 * cfg.min_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or is_pure(node_stats)
        ):
            continue
        cand = rng.choice(f, size=n_candidates, replace=False)
        found = _best_split(X[np.ix_(idx, cand)], node_stats, totals_fn(node_stats), cfg.min_leaf)
        if found is None:
            continue
        j, thr = found
        feature[node_id] = int(cand[j])
        threshold[node_id] = thr
        go_left = X[idx, cand[j]] <= thr
        left[node_id] = new_node()
        right[node_id] = new_node()
        stack.append((left[node_id], idx[go_left], depth + 1))
        stack.append((right[node_id], idx[~go_left], depth + 1))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def fit(X, y, mode, config=ForestConfig(), seed=0, n_classes=None):
    """Train an ensemble; deterministic given (seed, config).

    seed may be an int or a tuple of ints (a namespaced seed key). Classify
    mode expects integer labels in {0..n_classes-1} (n_classes inferred as
    max(y)+1 when not given); regress mode expects real targets.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be a matrix with at least 2 rows")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    m, f = X.shape
    if mode == CLASSIFY:
        y = np.asarray(y)
        if y.shape != (m,) or not np.issubdtype(y.dtype, np.integer):
            raise ValueError("classify mode needs m integer labels")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if y.min() < 0 or y.max() >= n_classes:
            raise ValueError("labels out of range")
        stats_all = np.eye(n_classes)[y]

        def leaf_fn(s):
            return s.sum(axis=0)

        def is_pure(s):
            return np.count_nonzero(s.sum(axis=0)) <= 1

    elif mode == REGRESS:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (m,) or not np.isfinite(y).all():
            raise ValueError("regress mode needs m finite targets")
        n_classes = 0
        stats_all = y[:, None]

        def leaf_fn(s):
            return np.array([s.mean()])

        def is_pure(s):
            return s.min() == s.max()

    else:
        raise ValueError(f"unknown mode {mode!r}")

    n_candidates = config.features_per_split or math.ceil(math.sqrt(f))
    if not 1 <= n_candidates <= f:
        raise ValueError("features_per_split out of range")

    def totals_fn(s):
        return s.sum(axis=0)

    key = _seed_key(seed)
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng((*key, t))
        boot = rng.integers(0, m, size=m)
        trees.append(
            _grow_tree(X[boot], stats_all[boot], totals_fn, leaf_fn, is_pure, config, n_candidates, rng)
        )
    return TreeEnsemble(
        mode=mode,
        feature_count=f,
        n_classes=n_classes,
        config=config,
        seed=seed,
        trees=tuple(trees),
    )
