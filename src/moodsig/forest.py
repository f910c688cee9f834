"""Bagged decision-tree ensemble: multiclass classifier and regressor.

Trees are grown on bootstrap resamples with axis-aligned splits chosen by
Gini impurity (classification) or variance reduction (regression), scanning
ceil(sqrt(f)) randomly chosen candidate features per node. Fitted ensembles
are immutable; each tree draws from its own generator seeded by
(master seed, tree index) so the build order never matters. That is what
lets every fit split its trees into contiguous ranges, one per CPU the
process may run on, grow them in one pool of worker processes and
concatenate them in index order. One loop (`_stream`) runs every job in
tasks, `fit`'s one or a stream of them, keeping two tasks per worker in
flight; with one CPU, or no affinity mask, it runs the tasks in-process,
still reading ahead.

`score_many` streams through the same loop jobs that need only a fit's
tree mean on a few rows of one table (the leave-one-out points), naming
their rows by index. Consecutive jobs share one task, which ships the
table once, and its trees grow in lockstep (`moodsig._lockstep`), each
only until its rows sit in leaves; a worker returns the rows' leaf values,
added in tree order as prediction adds them.

A node of fit's grower costs a fixed, small number of numpy calls. It
writes each node into preallocated arrays, one per node field, a row for
each of the at most 2n-1 nodes of a tree on n rows, and the tree keeps
exact-size copies of the rows it used. A classification node never sums
its rows: its class counts are exact integers, taken from its parent's
prefix sums at the split. Prediction concatenates the trees' nodes and
walks every (tree, row) pair at once, one numpy step per tree level, in
groups of consecutive trees of at most 2^12 nodes (or one larger tree) and
blocks of rows of at most 2^13 pairs, so its temporaries stay a few
hundred KB unless one tree alone is larger; the per-tree results are added
in tree order. Trees, predictions and scores are bit for bit those of the
per-node grower and the tree-at-a-time traversal kept in tests/oracles.py.
"""

from __future__ import annotations

import atexit
import math
import os
from collections import deque
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


# the tasks predict every ensemble they fit, and a tree-at-a-time walk, same
# bytes, took 2-5x this walk's predict time on every benchmark workload (2
# CPUs). predict walks groups of consecutive trees of at most
# _NODES_PER_GROUP nodes (or one larger tree) over blocks of at most
# _PAIRS_PER_BLOCK (tree, row) pairs (one row when a group has more trees),
# so the number of rows or trees does not grow its temporaries
_NODES_PER_GROUP = 1 << 12
_PAIRS_PER_BLOCK = 1 << 13


def _packed(items, size, budget):
    # consecutive items in lists of at most budget in size, or one larger
    # item alone; an error in `items` raises after the list before it
    group, used = [], 0
    try:
        for item in items:
            if group and used + size(item) > budget:
                yield group
                group, used = [], 0
            group.append(item)
            used += size(item)
    except Exception:
        if group:
            yield group
        raise
    if group:
        yield group


def _concatenated(trees, classify):
    # every tree's nodes end to end: each tree's root, node features and
    # thresholds, children as global (left, right) index pairs, leaf values
    # (class fractions or mean target), and the deepest leaf's depth. A leaf
    # is its own child and reads feature 0, so a walk stays put once it
    # reaches one.
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature < 0
    children = np.empty((feature.size, 2), dtype=np.intp)
    np.concatenate([t.left for t in trees], out=children[:, 0])
    np.concatenate([t.right for t in trees], out=children[:, 1])
    children += np.repeat(roots, sizes)[:, None]
    children[leaf] = np.flatnonzero(leaf)[:, None]
    feature[leaf] = 0
    value = np.concatenate([t.value for t in trees])
    if classify:
        value /= value.sum(axis=1, keepdims=True)
    depth, level = 0, roots
    while (level := level[~leaf[level]]).size:
        level = children[level].ravel()
        depth += 1
    threshold = np.concatenate([t.threshold for t in trees])
    return roots, feature, threshold, children, value, depth


def _add_in_tree_order(sums, leaf_values):
    # adds the leaf values of consecutive trees, (trees, rows, C), to the
    # running per-row sums, (rows, C), in place: accumulate adds them in tree
    # order, so from zeros each row's sum is 0 + v0 + v1 + ... bit for bit,
    # however the trees are split into calls. The tree mean divides the
    # final sums by the number of trees.
    steps = np.empty((len(leaf_values) + 1, *sums.shape))
    steps[0] = sums
    steps[1:] = leaf_values
    sums[...] = np.add.accumulate(steps, axis=0, out=steps)[-1]
    return sums


@dataclass(frozen=True)
class TreeEnsemble:
    """Immutable fitted ensemble; thread-safe for prediction."""

    mode: str
    feature_count: int
    n_classes: int
    config: ForestConfig
    seed: int
    trees: tuple[_Tree, ...] = field(repr=False)

    def _tree_mean(self, X):
        # the trees' leaf values averaged per row: one numpy step per tree
        # level walks every (tree, row) pair of a block
        out = np.zeros((X.shape[0], self.trees[0].value.shape[1]))
        for trees in _packed(self.trees, lambda t: len(t.feature), _NODES_PER_GROUP):
            roots, feature, threshold, children, leaf_value, depth = _concatenated(
                trees, self.mode == CLASSIFY)
            step = max(1, _PAIRS_PER_BLOCK // len(trees))
            for lo in range(0, X.shape[0], step):
                block = X[lo : lo + step]
                rows = np.tile(np.arange(block.shape[0]), len(trees))
                node = np.repeat(roots, block.shape[0])
                for _ in range(depth):
                    # inputs are finite, so > is exactly "not <=", the split rule
                    go_right = block[rows, feature[node]] > threshold[node]
                    node = children[node, go_right.view(np.uint8)]
                _add_in_tree_order(out[lo : lo + step],
                                   leaf_value[node].reshape(len(trees), block.shape[0], -1))
        out /= len(self.trees)
        return out

    def predict_proba(self, x):
        """Average of per-tree leaf class frequencies, rows summing to 1."""
        if self.mode != CLASSIFY:
            raise ValueError("predict_proba requires classify mode")
        return self._tree_mean(_as_matrix(x, self.feature_count))

    def predict(self, x):
        """Class label by argmax (ties toward the lowest index) or mean target."""
        mean = self._tree_mean(_as_matrix(x, self.feature_count))
        return np.argmax(mean, axis=1) if self.mode == CLASSIFY else mean[:, 0]


def _as_matrix(x, feature_count):
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != feature_count:
        raise ValueError(f"expected a (rows, {feature_count}) matrix of inputs")
    if not np.isfinite(X).all():
        raise ValueError("inputs must be finite")
    return X


def _grow_tree(XT, stats, mode, cfg, n_candidates, rng):
    # XT is the bootstrap sample transposed (features x rows), stats its
    # one-hot class rows (classes x rows, classify) or targets (regress). A
    # node gathers its candidate columns as whole feature rows, sorts each
    # stably in row order and scores every split position by
    # sum(left_stats^2)/n_left + sum(right_stats^2)/n_right, a monotone
    # equivalent of Gini gain and of variance reduction, taking the first
    # maximum in position-major order.
    f, n_total = XT.shape
    min_leaf = cfg.min_leaf
    max_depth = n_total if cfg.max_depth is None else cfg.max_depth
    classify = mode == CLASSIFY
    cand_cols = np.arange(n_candidates)
    # left sizes 1..n-1 of a node's split positions; reversed, its right sizes
    sizes = np.arange(1, n_total, dtype=np.float64)[:, None]
    # one row per node of the largest possible tree; value holds class
    # counts (classify) or the node's mean target (regress)
    rows = 2 * n_total - 1
    feature, left, right = np.full((3, rows), -1, dtype=np.int32)
    threshold = np.zeros(rows)
    value = np.empty((rows, stats.shape[0] if classify else 1))
    if classify:
        np.add.reduce(stats, axis=1, out=value[0])
    n_nodes = 1
    stack = [(0, np.arange(n_total), 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        n = idx.size
        if classify:
            total = value[node_id]
            if n < 2 * min_leaf or depth >= max_depth or np.count_nonzero(total) <= 1:
                continue
        else:
            y = stats[idx]
            total = np.add.reduce(y)
            value[node_id] = total / n
            if (n < 2 * min_leaf or depth >= max_depth
                    or np.minimum.reduce(y) == np.maximum.reduce(y)):
                continue
        cand = rng.choice(f, size=n_candidates, replace=False)
        x_cand = XT.take(cand, 0).take(idx, 1).T
        order = x_cand.argsort(axis=0, kind="stable")
        x_sorted = x_cand[order, cand_cols]
        # only the n-1 positions with a nonempty right side are scored, so
        # neither size is ever 0
        below = order[:-1]
        left_n, right_n = sizes[: n - 1], sizes[n - 2 :: -1]
        if classify:
            left_stats = np.add.accumulate(stats.take(idx.take(below), 1), axis=1)
            right_stats = total[:, None, None] - left_stats
            score = np.add.reduce(left_stats * left_stats, axis=0) / left_n
            score += np.add.reduce(right_stats * right_stats, axis=0) / right_n
        else:
            left_stats = np.add.accumulate(y.take(below), axis=0)
            right_stats = total - left_stats
            score = left_stats * left_stats / left_n
            score += right_stats * right_stats / right_n
        invalid = x_sorted[:-1] >= x_sorted[1:]
        if min_leaf > 1:
            invalid[: min_leaf - 1] = True
            invalid[n - min_leaf :] = True
        score[invalid] = -np.inf
        pos, j = divmod(int(score.argmax()), n_candidates)
        if invalid[pos, j]:
            continue
        lo, hi = x_sorted[pos : pos + 2, j].tolist()
        thr = (lo + hi) / 2.0
        if thr >= hi:
            # fp midpoint of 1-ulp neighbors can collapse onto the upper
            # value, which would route every sample left; fall back to the
            # lower value
            thr = lo
        feature[node_id] = cand[j]
        threshold[node_id] = thr
        child = n_nodes
        n_nodes += 2
        left[node_id], right[node_id] = child, child + 1
        if classify:
            value[child] = left_stats[:, pos, j]
            value[child + 1] = right_stats[:, pos, j]
        go_left = x_cand[:, j] <= thr
        stack.append((child, idx[go_left], depth + 1))
        stack.append((child + 1, idx[~go_left], depth + 1))

    # exact-size copies, so a tree keeps none of the 2n-1 row buffers
    return _Tree(*(a[:n_nodes].copy() for a in (feature, threshold, left, right, value)))


def _grow_trees(mode, cfg, n_candidates, n_classes, X, y, key, tree_ids):
    """The trees numbered tree_ids of the job (X, y, key), each grown from
    its own (key, t) generator: its bootstrap draw, then one candidate draw
    per node, in right-subtree-first depth-first order."""
    XT = np.ascontiguousarray(X.T)
    stats = np.eye(n_classes)[:, y] if mode == CLASSIFY else y
    trees = []
    for t in tree_ids:
        rng = np.random.default_rng((*key, t))
        boot = rng.integers(0, len(y), size=len(y))
        trees.append(_grow_tree(XT[:, boot], stats[..., boot], mode, cfg, n_candidates, rng))
    return trees


def _score_trees(*task):
    # score_many's task: the lockstep scorer is loaded only by the processes
    # that score. Run from source, compiling it in this module raised
    # classify's peak RSS by 0.45 MB, far more than its own module does.
    from ._lockstep import _score_trees

    return _score_trees(*task)


# The worker pool is created by the first fit that uses more than one
# worker, with one worker per CPU, and kept for later fits; shutdown_pool()
# ends it (cli.main calls it before returning, and it runs at interpreter
# exit for library callers).
_pool = None

# score_many packs jobs into a task while their cells (trees x training
# rows x features), about _CELL_BYTES each in the lockstep scorer, stay
# within _TASK_BYTES: eight of classify's leave-one-out jobs, a 4.7 MiB
# tracemalloc peak, workers' max RSS 34.5 MB below the parent's 39.0 MB.
# The 126 jobs took 0.90 s of CPU at one a task, 0.71-0.75 s at 4 to 8.
_CELL_BYTES = 10
_TASK_BYTES = 3 << 20

# each worker has a task running and one queued while the consumer handles
# a result: classify's median wall time (6 runs of 10 s, 2 CPUs) was 1.30,
# 1.21 and 1.25 s at one, two and three tasks a worker
_TASKS_PER_WORKER = 2


def _worker_count():
    # the CPUs this process may run on; with one, or without an affinity
    # mask (not Linux), _stream grows the trees in-process
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _InProcess:
    # the pool's stand-in for one worker: submit runs the task at once and
    # returns a completed future, an error set on it rather than raised, so
    # the error surfaces at its job's turn, as a pool future's does
    @staticmethod
    def submit(fn, *args):
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _executor(workers):
    # where trees grow: in-process for one worker, else in the one pool
    global _pool
    if workers <= 1:
        return _InProcess
    if _pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a worker starts with numpy and this module loaded
        # instead of importing them again. The pool forks its workers before
        # it starts its own threads, an earlier pool's are joined, and
        # numpy's OpenBLAS stops its own threads before a fork.
        _pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    return _pool


def shutdown_pool():
    """Stop the tree-growing worker processes, if any, and wait for them."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


atexit.register(shutdown_pool)


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _checked(X, y, mode, config=ForestConfig(), seed=0, n_classes=None):
    # fit's argument checks; returns what every task of the job shares
    # (mode, config, candidates per split, classes), the job's own (X, y,
    # seed key) and the fields of the ensemble it makes. Workers build the
    # grower's forms of X and y, so the parent holds no copy of them.
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
    elif mode == REGRESS:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (m,) or not np.isfinite(y).all():
            raise ValueError("regress mode needs m finite targets")
        n_classes = 0
    else:
        raise ValueError(f"unknown mode {mode!r}")

    n_candidates = config.features_per_split or math.ceil(math.sqrt(f))
    if not 1 <= n_candidates <= f:
        raise ValueError("features_per_split out of range")
    return (mode, config, n_candidates, n_classes), (X, y, _seed_key(seed)), dict(
        mode=mode, feature_count=f, n_classes=n_classes, config=config, seed=seed)


def _tree_ranges(n_trees, parts):
    # contiguous ranges of tree indices, concatenated in index order: each
    # tree depends only on (key, t), so the ensemble does not depend on the
    # split
    bounds = [p * n_trees // parts for p in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fit_parts(job, workers):
    # fit's one job, its argument tuple: one range of trees per worker; its
    # results are lists of trees
    head, (X, y, key), fields = _checked(*job)
    n_trees = fields["config"].n_trees
    parts = [(X, y, key, r) for r in _tree_ranges(n_trees, min(workers, n_trees))]
    return _grow_trees, head, parts, lambda shares: [TreeEnsemble(
        **fields, trees=tuple(t for share in shares for t in share))]


def _stream(jobs, start):
    # the one read-ahead loop of fit and score_many: `start(job, workers)`
    # checks a job, or takes a list of them, and returns (fn, head, parts,
    # finish); each part runs as one task fn(*head, *part), and finish(the
    # parts' results, in tree order) lists what the jobs yield. Jobs are read
    # until _TASKS_PER_WORKER tasks per worker are submitted and not taken.
    from concurrent.futures import BrokenExecutor, wait

    jobs = iter(jobs)
    workers = _worker_count()
    pending = deque()  # per job read ahead: (finish, futures)
    error = None  # of the job after those pending, raised in its place
    try:
        pool = _executor(workers)
        while True:
            while (error is None
                   and sum(len(futs) for _, futs in pending) < _TASKS_PER_WORKER * workers):
                try:
                    fn, head, parts, finish = start(next(jobs), workers)
                except StopIteration:
                    break
                except Exception as exc:
                    error = exc
                    break
                pending.append((finish, [pool.submit(fn, *head, *part) for part in parts]))
            if not pending:
                if error is not None:
                    raise error
                return
            finish, futures = pending.popleft()
            yield from finish(fut.result() for fut in futures)
    except BrokenExecutor as exc:
        # a broken pool refuses all further work; the next fit starts anew
        shutdown_pool()
        raise ChildProcessError(
            "a tree-growing worker process exited abruptly (killed, or out of memory?)"
        ) from exc
    finally:
        # tasks read ahead of an error or of an abandoned stream: none is
        # left growing
        futures = [fut for _, futs in pending for fut in futs]
        for fut in futures:
            fut.cancel()
        wait(futures)


def score_many(X, y, mode, config, jobs, n_classes=None):
    """Yield, per job, the tree mean of a fit on rows of one table, without
    building the ensemble.

    The table `(X, y)`, `mode`, `config` and `n_classes` are checked as
    `fit` checks them. `jobs` is an iterable of `(train, rows, seed)`, with
    `train` and `rows` 1-D arrays of row indices into `X`. Each result is
    byte for byte `fit(X[train], y[train], mode, config, seed,
    n_classes)._tree_mean(X[rows])`, `predict_proba` in classify mode.
    Consecutive jobs of at most `_TASK_BYTES` share one task; a larger
    job's trees are split into several. Jobs are read lazily, until two
    tasks per worker are submitted and not yet taken. A job that fails its
    checks, or a job source that raises, raises the error in the job's
    place, after the results before it; trees that fail to grow raise it
    in place of their task's first job. Closing the generator early
    cancels the tasks read ahead and waits for those already growing.
    """
    head, (X, y, _), _ = _checked(X, y, mode, config, 0, n_classes)
    # indices in the smallest dtype, as the parent holds the pickled tasks
    n_trees, every = config.n_trees, np.arange(len(X), dtype=np.min_scalar_type(len(X)))
    rows_cap = _TASK_BYTES // (_CELL_BYTES * X.shape[1])  # a task's (tree, row) pairs

    def checked():
        # each job before packing: X[train] and X[rows] as row indices
        for train, rows, seed in jobs:
            train, rows = every[train], every[rows]
            if train.ndim != 1 or rows.ndim != 1 or len(train) < 2:
                raise ValueError("a job needs 2 or more training rows and a 1-D rows index")
            yield train, _seed_key(seed), rows, n_classes

    def tree_means(shares):  # per job, leaf values added in tree order
        sums = [_add_in_tree_order(np.zeros(v.shape[1:]), v) for v in next(shares)]
        for share in shares:
            for total, leaf_values in zip(sums, share):
                _add_in_tree_order(total, leaf_values)
        return [total / n_trees for total in sums]

    def start(chunk, workers):
        # one task, or ranges of the trees of one job over _TASK_BYTES
        ranges = _tree_ranges(n_trees, -(-n_trees // max(1, rows_cap // len(chunk[0][0]))))
        return _score_trees, head + (X, y), [(chunk, trees) for trees in ranges], tree_means

    return _stream(_packed(checked(), lambda job: n_trees * len(job[0]), rows_cap), start)


def fit(X, y, mode, config=ForestConfig(), seed=0, n_classes=None):
    """Train an ensemble; deterministic given (seed, config).

    seed may be an int or a tuple of ints (a namespaced seed key). Classify
    mode expects integer labels in {0..n_classes-1} (n_classes inferred as
    max(y)+1 when not given); regress mode expects real targets. The trees
    are grown across the CPUs this process may run on; the result does not
    depend on how many there are. It is one job of `score_many`'s loop.
    """
    (model,) = _stream([(X, y, mode, config, seed, n_classes)], _fit_parts)
    return model
