"""Bagged decision-tree ensemble: multiclass classifier and regressor.

Trees are grown on bootstrap resamples with axis-aligned splits chosen by
Gini impurity (classification) or variance reduction (regression), scanning
ceil(sqrt(f)) randomly chosen candidate features per node. Fitted ensembles
are immutable; each tree draws from its own generator seeded by
(master seed, tree index) so the build order never matters. That is what
lets a fit grow contiguous ranges of trees in worker processes, one per
CPU the process may run on, and concatenate them in index order, and lets
a stream of independent fits (`fit_many`) share those workers.
"""

from __future__ import annotations

import atexit
import math
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice

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
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1 or None")


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


def _grow_tree(XT, stats, mode, cfg, n_candidates, rng):
    # XT is the bootstrap sample transposed (features x rows): a node's
    # candidate columns are one gather of whole feature rows
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


def _grow_trees(XT, stats, mode, cfg, n_candidates, key, tree_ids):
    """The trees numbered tree_ids, each grown from its own (key, t)
    generator: its bootstrap draw, then one candidate draw per node."""
    m = XT.shape[1]
    trees = []
    for t in tree_ids:
        rng = np.random.default_rng((*key, t))
        boot = rng.integers(0, m, size=m)
        trees.append(_grow_tree(XT[:, boot], stats[boot], mode, cfg, n_candidates, rng))
    return trees


# The worker pool is created by the first fit that uses more than one
# worker and kept for later fits; shutdown_pool() ends it (cli.main calls it
# before returning, and it runs at interpreter exit for library callers).
_pool = None
_pool_size = 0


def _worker_count(n_trees):
    # the CPUs this process may run on, at most n_trees (None: a stream of
    # several jobs, one task each); without an affinity mask (not Linux)
    # trees are grown in-process
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return cpus if n_trees is None else min(cpus, n_trees)


def _jobs_in_flight(workers):
    # a job running and one queued per worker, so the workers stay busy
    # while the consumer handles a result
    return 2 * workers


def _executor(workers):
    global _pool, _pool_size
    if _pool is None or _pool_size < workers:
        shutdown_pool()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a worker starts with numpy and this module loaded
        # instead of importing them again. The pool forks its workers before
        # it starts its own threads, an earlier pool's are joined, and
        # numpy's OpenBLAS stops its own threads before a fork.
        _pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        _pool_size = workers
    return _pool


def shutdown_pool():
    """Stop the tree-growing worker processes, if any, and wait for them."""
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if pool is not None:
        pool.shutdown(cancel_futures=True)


atexit.register(shutdown_pool)


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _checked(X, y, mode, config=ForestConfig(), seed=0, n_classes=None):
    # fit's argument checks; returns the arguments its trees are grown from
    # (all but the tree indices) and the fields of the ensemble they make
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
    elif mode == REGRESS:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (m,) or not np.isfinite(y).all():
            raise ValueError("regress mode needs m finite targets")
        n_classes = 0
        stats_all = y[:, None]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    n_candidates = config.features_per_split or math.ceil(math.sqrt(f))
    if not 1 <= n_candidates <= f:
        raise ValueError("features_per_split out of range")
    grow_args = (np.ascontiguousarray(X.T), stats_all, mode, config, n_candidates,
                 _seed_key(seed))
    return grow_args, dict(mode=mode, feature_count=f, n_classes=n_classes,
                           config=config, seed=seed)


def _checked_jobs(jobs):
    # the jobs' _checked results in order; a job that fails the checks, or
    # an iterable that raises, ends the stream with that exception, which
    # fit_many raises in the job's place
    jobs = iter(jobs)
    while True:
        try:
            job = _checked(*next(jobs))
        except StopIteration:
            return
        except Exception as exc:
            yield exc
            return
        yield job


def _tree_ranges(n_trees, parts):
    # contiguous ranges of tree indices, concatenated in index order: each
    # tree depends only on (key, t), so the ensemble does not depend on the
    # split
    bounds = [p * n_trees // parts for p in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def fit_many(jobs):
    """Fit one ensemble per job and yield them in job order.

    `jobs` is an iterable of `fit` argument tuples, `(X, y, mode[, config[,
    seed[, n_classes]]])`; each ensemble is the one `fit` returns for its
    tuple. All the jobs' trees are grown in the one worker pool. Jobs are
    read lazily: a few more than the ensembles already yielded, a bound set
    by the worker count. A job that fails fit's checks raises fit's error
    in its place, after the ensembles before it. Closing the generator
    early cancels the jobs read ahead and waits for those already growing.
    """
    jobs = _checked_jobs(jobs)
    head = list(islice(jobs, 2))
    if not head:
        return
    # a lone job (fit) spreads its trees over the workers; several jobs are
    # one task each, which keeps the workers busy without a barrier per job
    lone = len(head) == 1 and not isinstance(head[0], Exception)
    workers = _worker_count(head[0][1]["config"].n_trees if lone else None)
    jobs = chain(head, jobs)
    if workers <= 1:
        for job in jobs:
            if isinstance(job, Exception):
                raise job
            grow_args, fields = job
            trees = _grow_trees(*grow_args, range(fields["config"].n_trees))
            yield TreeEnsemble(**fields, trees=tuple(trees))
        return

    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    bound = _jobs_in_flight(workers)
    pending = deque()  # per job read ahead: (fields, futures), or its exception
    try:
        pool = _executor(workers)
        while True:
            while len(pending) < bound and (job := next(jobs, None)) is not None:
                if isinstance(job, Exception):
                    pending.append(job)
                    continue
                grow_args, fields = job
                ranges = _tree_ranges(fields["config"].n_trees, workers if lone else 1)
                pending.append(
                    (fields, [pool.submit(_grow_trees, *grow_args, r) for r in ranges])
                )
            if not pending:
                return
            job = pending.popleft()
            if isinstance(job, Exception):
                raise job
            fields, futures = job
            yield TreeEnsemble(**fields, trees=tuple(t for fut in futures for t in fut.result()))
    except BrokenProcessPool as exc:
        # a broken pool refuses all further work; the next fit starts anew
        shutdown_pool()
        raise ChildProcessError(
            "a tree-growing worker process exited abruptly (killed, or out of memory?)"
        ) from exc
    finally:
        # jobs read ahead of an error or of an abandoned stream: none is
        # left growing
        futures = [fut for job in pending if isinstance(job, tuple) for fut in job[1]]
        for fut in futures:
            fut.cancel()
        wait(futures)


def fit(X, y, mode, config=ForestConfig(), seed=0, n_classes=None):
    """Train an ensemble; deterministic given (seed, config).

    seed may be an int or a tuple of ints (a namespaced seed key). Classify
    mode expects integer labels in {0..n_classes-1} (n_classes inferred as
    max(y)+1 when not given); regress mode expects real targets. The trees
    are grown across the CPUs this process may run on; the result does not
    depend on how many there are. This is the one-job case of `fit_many`.
    """
    (model,) = fit_many([(X, y, mode, config, seed, n_classes)])
    return model
