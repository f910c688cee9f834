import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import reference_predict
from moodsig import forest
from moodsig.forest import (
    CLASSIFY,
    REGRESS,
    ForestConfig,
    TreeEnsemble,
    _Tree,
    fit,
)
from oracles import loop_fit_trees, loop_predict, loop_predict_proba

_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _leaf_tree(value):
    return _Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([value], dtype=np.float64),
    )


def _tree_arrays(model):
    return [[getattr(t, name).tolist() for name in _NODE_ARRAYS] for t in model.trees]


def _assert_same_bytes(ours, base):
    ours, base = np.asarray(ours), np.asarray(base)
    assert (ours.dtype, ours.shape) == (base.dtype, base.shape)
    assert ours.tobytes() == base.tobytes()


def _assert_same_trees(trees, expected):
    assert len(trees) == len(expected)
    for ours, base in zip(trees, expected):
        for name in _NODE_ARRAYS:
            _assert_same_bytes(getattr(ours, name), getattr(base, name))


def _toy_clusters(rng, n_per, centers, spread=0.6):
    X, y = [], []
    for k, c in enumerate(centers):
        X.append(rng.normal(c, spread, size=(n_per, len(c))))
        y.extend([k] * n_per)
    return np.vstack(X), np.array(y)


class TestFit:
    def test_separable_single_feature(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = fit(X, y, CLASSIFY, ForestConfig(n_trees=25), seed=1)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_constant_target_regression(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        model = fit(X, np.full(30, 3.25), REGRESS, ForestConfig(n_trees=10), seed=2)
        np.testing.assert_array_equal(model.predict(X), np.full(30, 3.25))

    def test_same_seed_identical(self):
        rng = np.random.default_rng(5)
        X, y = _toy_clusters(rng, 15, [(0, 0), (2, 2), (0, 3)])
        a = fit(X, y, CLASSIFY, ForestConfig(n_trees=12), seed=9)
        b = fit(X, y, CLASSIFY, ForestConfig(n_trees=12), seed=9)
        assert _tree_arrays(a) == _tree_arrays(b)
        probe = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(6)
        X, y = _toy_clusters(rng, 20, [(0, 0), (1.5, 1.5)])
        a = fit(X, y, CLASSIFY, ForestConfig(n_trees=10), seed=0)
        b = fit(X, y, CLASSIFY, ForestConfig(n_trees=10), seed=1)
        assert _tree_arrays(a) != _tree_arrays(b)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((1, 3)), np.array([0]), CLASSIFY)
        with pytest.raises(ValueError):
            fit(np.array([[np.nan], [1.0]]), np.array([0, 1]), CLASSIFY)
        with pytest.raises(ValueError):
            fit(np.zeros((4, 2)), np.array([0.5, 1.0, 0.0, 1.0]), CLASSIFY)
        with pytest.raises(ValueError):
            fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]), "cluster")
        with pytest.raises(ValueError):
            fit(np.zeros((4, 2)), np.array([0.0, np.inf, 1.0, 2.0]), REGRESS)
        with pytest.raises(ValueError, match="features_per_split must be >= 1"):
            fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]), CLASSIFY,
                ForestConfig(features_per_split=0))


class TestPredict:
    def test_pure_leaf_one_hot(self):
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        y = np.array([0, 0, 1, 1])
        model = fit(X, y, CLASSIFY, ForestConfig(n_trees=1), seed=3)
        probs = model.predict_proba(np.array([[0.05]]))
        assert set(probs[0]) <= {0.0, 1.0}

    def test_tie_breaks_to_lowest_class(self):
        ensemble = TreeEnsemble(
            mode=CLASSIFY,
            feature_count=1,
            n_classes=3,
            config=ForestConfig(n_trees=2),
            seed=0,
            trees=(_leaf_tree([1.0, 0.0, 0.0]), _leaf_tree([0.0, 1.0, 0.0])),
        )
        x = np.array([[0.0]])
        np.testing.assert_allclose(ensemble.predict_proba(x), [[0.5, 0.5, 0.0]])
        assert ensemble.predict(x).tolist() == [0]

    def test_regression_mean_of_trees(self):
        ensemble = TreeEnsemble(
            mode=REGRESS,
            feature_count=1,
            n_classes=0,
            config=ForestConfig(n_trees=2),
            seed=0,
            trees=(_leaf_tree([4.0]), _leaf_tree([6.0])),
        )
        assert ensemble.predict(np.array([[0.0]])).tolist() == [5.0]

    def test_out_of_range_inputs_still_valid(self):
        rng = np.random.default_rng(7)
        X, y = _toy_clusters(rng, 20, [(0, 0), (2, 2), (4, 0)])
        model = fit(X, y, CLASSIFY, ForestConfig(n_trees=20), seed=4)
        probs = model.predict_proba(np.array([[1e6, -1e6], [-50.0, 99.0]]))
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_mode_mismatch(self):
        model = fit(np.arange(10.0)[:, None], np.arange(10.0), REGRESS, ForestConfig(n_trees=2))
        with pytest.raises(ValueError, match="requires classify mode"):
            model.predict_proba(np.array([[1.0]]))

    def test_nonfinite_input_rejected(self):
        model = fit(np.arange(10.0)[:, None], np.arange(10) % 2, CLASSIFY, ForestConfig(n_trees=2))
        with pytest.raises(ValueError, match="must be finite"):
            model.predict(np.array([[np.nan]]))

    @pytest.mark.parametrize("entry", ["predict", "predict_proba", "score_many"])
    def test_a_one_dimensional_row_is_rejected(self, entry):
        # rows are matrices only: a lone row is a (1, features) matrix, and
        # score_many's lone row a 1-D index of one row
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        args = (X, np.array([0, 1, 0, 1]), CLASSIFY, ForestConfig(n_trees=2), 0)
        if entry == "score_many":
            with pytest.raises(ValueError, match="1-D rows index"):
                list(forest.score_many(*args[:4], [(np.arange(4), 0, 0)]))
        else:
            with pytest.raises(ValueError, match=r"expected a \(rows, 2\) matrix"):
                getattr(fit(*args), entry)(X[0])

    def test_ulp_adjacent_values_never_make_empty_leaves(self):
        # midpoints of 1-ulp neighbors can round onto the upper value; the
        # trainer must still produce two nonempty children
        base = 1.0
        vals = np.array([base, np.nextafter(base, 2.0)] * 8)
        X = np.column_stack([vals, np.arange(16.0)])
        y = (vals > base).astype(int)
        model = fit(X, y, CLASSIFY, ForestConfig(n_trees=30), seed=5)
        probs = model.predict_proba(X)
        assert np.isfinite(probs).all()
        for tree in model.trees:
            leaf_sums = tree.value[tree.feature < 0].sum(axis=1)
            assert (leaf_sums > 0).all()


class TestInvariants:
    def test_monotone_rescale_invariance(self):
        rng = np.random.default_rng(11)
        X, y = _toy_clusters(rng, 18, [(0, 0, 1), (1.5, 1, 0), (0, 2, 2)])
        probe = rng.normal(0.8, 1.2, size=(40, 3))
        cfg = ForestConfig(n_trees=15)
        base = fit(X, y, CLASSIFY, cfg, seed=21).predict_proba(probe)
        # powers of two keep midpoint thresholds exact under rescaling
        scaled = fit(4.0 * X, y, CLASSIFY, cfg, seed=21).predict_proba(4.0 * probe)
        np.testing.assert_array_equal(base, scaled)

    def test_classify_matches_loop_reference(self):
        rng = np.random.default_rng(13)
        X, y = _toy_clusters(rng, 20, [(0, 0), (2.0, 1.5), (0.5, 3.0)])
        probe = rng.normal(1.0, 1.5, size=(60, 2))
        ours = fit(X, y, CLASSIFY, ForestConfig(n_trees=12), seed=17).predict_proba(probe)
        ref = reference_predict(X, y, "classify", probe, n_trees=12, seed=17)
        agree = (np.abs(ours - ref).max(axis=1) < 1e-9).mean()
        assert agree >= 0.9

    def test_regress_matches_loop_reference(self):
        # integer targets keep split scores exact, so tie handling on
        # bootstrap-duplicated rows agrees between the two codebases
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 3))
        y = np.clip(np.rint(X @ np.array([2.0, -4.0, 1.0]) + 10), 0, 27).astype(float)
        probe = rng.normal(size=(40, 3))
        ours = fit(X, y, REGRESS, ForestConfig(n_trees=10), seed=23).predict(probe)
        ref = reference_predict(X, y, "regress", probe, n_trees=10, seed=23)
        agree = (np.abs(ours - ref) < 1e-9).mean()
        assert agree >= 0.9


@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_trees_do_not_depend_on_worker_count(monkeypatch, mode):
    # 1 worker grows in-process; 2 and 3 split the trees into contiguous
    # chunks, unevenly for 5 and 7 trees, with one chunk per tree when there
    # are fewer trees than workers
    rng = np.random.default_rng(41)
    X = rng.normal(size=(36, 5))
    y = rng.integers(0, 3, size=36) if mode == CLASSIFY else rng.normal(size=36)
    for n_trees in (1, 2, 5, 7):
        fitted = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(forest, "_worker_count", lambda w=workers: w)
            fitted[workers] = fit(X, y, mode, ForestConfig(n_trees=n_trees), seed=(8, n_trees))
            if workers > 1:
                assert forest._pool is not None
        for workers in (2, 3):
            assert len(fitted[workers].trees) == n_trees
            _assert_same_trees(fitted[workers].trees, fitted[1].trees)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_grown_trees_own_exact_size_node_arrays(monkeypatch, mode, workers):
    # the grower writes each tree into buffers of 2n-1 rows; the tree keeps
    # copies of its own rows only, grown in-process (1 worker) or in the pool
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40) if mode == CLASSIFY else rng.normal(size=40)
    monkeypatch.setattr(forest, "_worker_count", lambda: workers)
    for tree in fit(X, y, mode, ForestConfig(n_trees=4), seed=3).trees:
        n_nodes = len(tree.feature)
        assert 1 < n_nodes < 2 * 40 - 1
        for name in _NODE_ARRAYS:
            array = getattr(tree, name)
            assert array.base is None and array.shape[0] == n_nodes


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_probability_rows_always_normalized(seed, n_classes):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(24, 3))
    y = rng.integers(0, n_classes, size=24)
    if len(np.unique(y)) < 2:
        y[0] = 0
        y[1] = 1
    model = fit(X, y, CLASSIFY, ForestConfig(n_trees=5), seed=seed, n_classes=n_classes)
    probs = model.predict_proba(rng.normal(size=(10, 3)))
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(model.predict(X), np.argmax(model.predict_proba(X), axis=1))


_STREAM_CONFIG = ForestConfig(n_trees=3)
_TRAIN_ROWS = 20


def _stream_table(mode):
    # a 40-row table: jobs train on rows of the first 30, and rows 30-39 are
    # scored but never trained on
    rng = np.random.default_rng(43)
    X = rng.normal(size=(40, 4))
    return X, rng.integers(0, 3, size=40) if mode == CLASSIFY else rng.normal(size=40)


def _score_jobs(mode, n_jobs, pulled=None, bad=None, bad_rows=None):
    # (train, rows, seed) jobs into _stream_table: 20 training rows drawn
    # with repeats and out of order, every third job's of classes 0 and 1
    # only, so it infers its own classes, and three rows to score: two
    # training rows and one that no job trains on. `pulled` records each
    # job as it is read, job `bad` trains on a row past the table and job
    # `bad_rows` names its rows in a 2-D index.
    _, y = _stream_table(mode)
    rng = np.random.default_rng(44)
    for j in range(n_jobs):
        pool = np.arange(30)
        if mode == CLASSIFY and j % 3 == 1:
            pool = np.flatnonzero(y[:30] < 2)
        train = rng.choice(pool, size=_TRAIN_ROWS)
        if j == bad:
            train[5] = len(y)
        rows = np.array([train[0], train[1], 30 + j % 10])
        if pulled is not None:
            pulled.append(j)
        yield train, rows[None] if j == bad_rows else rows, (9, j)


def _stream(mode, jobs):
    X, y = _stream_table(mode)
    return forest.score_many(X, y, mode, _STREAM_CONFIG, jobs)


def _fit_scores(mode, jobs):
    # each job's tree mean from its fit, grown in-process
    X, y = _stream_table(mode)
    with mock.patch.object(forest, "_worker_count", lambda: 1):
        return [fit(X[train], y[train], mode, _STREAM_CONFIG, seed)._tree_mean(X[rows])
                for train, rows, seed in jobs]


def _budget(jobs_per_task):
    # a _TASK_BYTES that packs this many of _score_jobs' jobs into a task,
    # or, for 0, makes each tree a task of its own
    return jobs_per_task * _STREAM_CONFIG.n_trees * _TRAIN_ROWS * 4 * forest._CELL_BYTES or 1


def _submitted_futures(monkeypatch):
    # every future the pool hands out from now on
    futures = []
    real = forest._executor

    class Recording:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, *args):
            futures.append(self.pool.submit(*args))
            return futures[-1]

    monkeypatch.setattr(forest, "_executor", lambda workers: Recording(real(workers)))
    return futures


def _assert_same_scores(got, expected):
    assert len(got) == len(expected)
    for ours, base in zip(got, expected):
        _assert_same_bytes(ours, base)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_score_many_equals_the_tree_mean_of_fit(monkeypatch, mode, workers):
    # 0 jobs, one job and more jobs than are read ahead, read from a
    # generator, against the tree mean of each job's in-process fit; one
    # job a task, three jobs a task, every job in one task, and each tree a
    # task of its own
    n_many = 3 * forest._TASKS_PER_WORKER * workers + 6
    expected = _fit_scores(mode, _score_jobs(mode, n_many))
    monkeypatch.setattr(forest, "_worker_count", lambda: workers)
    for budget in (_budget(1), _budget(3), forest._TASK_BYTES, _budget(0)):
        monkeypatch.setattr(forest, "_TASK_BYTES", budget)
        for n_jobs in (0, 1, n_many):
            _assert_same_scores(list(_stream(mode, _score_jobs(mode, n_jobs))),
                                expected[:n_jobs])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_score_many_reads_jobs_lazily(monkeypatch, workers):
    # reading stops once _TASKS_PER_WORKER tasks per worker are submitted
    # and not yet taken: one job a task, three jobs a task, or each tree a
    # task, so at most that many tasks' jobs are read ahead of the results
    # taken, the job read to close the last task among them
    monkeypatch.setattr(forest, "_worker_count", lambda: workers)
    bound = forest._TASKS_PER_WORKER * workers
    for per_task in (1, 3, 0):
        monkeypatch.setattr(forest, "_TASK_BYTES", _budget(per_task))
        n_jobs = bound * max(per_task, 1) + 6
        pulled = []
        stream = _stream(CLASSIFY, _score_jobs(CLASSIFY, n_jobs, pulled=pulled))
        for taken, _ in enumerate(stream, 1):
            assert len(pulled) - taken <= bound * max(per_task, 1)
            if taken == 1:
                assert len(pulled) < n_jobs
        assert pulled == list(range(n_jobs))


@pytest.mark.parametrize("bad", ["features", "rows"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_score_many_raises_a_bad_job_in_its_place(monkeypatch, workers, bad):
    # job 4 trains on a row past the table, or names its rows in a 2-D
    # index. Jobs are checked before they are packed, so with one job a
    # task, and with three (jobs 3-5 would share one), the four results
    # before it are yielded, then the error that X[train] raises or one
    # naming the rows; nothing read ahead is left growing, and the pool
    # still scores as an in-process fit does
    expected = _fit_scores(CLASSIFY, _score_jobs(CLASSIFY, 4))
    bad_job = {"features": dict(bad=4), "rows": dict(bad_rows=4)}[bad]
    futures = _submitted_futures(monkeypatch)
    monkeypatch.setattr(forest, "_worker_count", lambda: workers)
    for per_task in (1, 3):
        monkeypatch.setattr(forest, "_TASK_BYTES", _budget(per_task))
        got = []
        with pytest.raises((IndexError, ValueError)) as stream_error:
            for probs in _stream(CLASSIFY, _score_jobs(CLASSIFY, 12, **bad_job)):
                got.append(probs)
        if bad == "features":
            X, _ = _stream_table(CLASSIFY)
            train = list(_score_jobs(CLASSIFY, 5, **bad_job))[4][0]
            with pytest.raises(IndexError) as direct_error:
                X[train]
            assert str(stream_error.value) == str(direct_error.value)
        else:
            assert stream_error.type is ValueError and stream_error.match("1-D rows index")
        _assert_same_scores(got, expected)
        assert all(fut.done() for fut in futures)
    _assert_same_scores(list(_stream(CLASSIFY, _score_jobs(CLASSIFY, 1))), expected[:1])


def _failing_source(n_jobs):
    yield from _score_jobs(CLASSIFY, n_jobs)
    raise RuntimeError("job source failed")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_score_many_raises_a_failing_job_source_in_its_place(monkeypatch, workers):
    # the source fails after four jobs, packed into one task: those four
    # are yielded, then its error, and nothing read ahead is left growing
    expected = _fit_scores(CLASSIFY, _score_jobs(CLASSIFY, 4))
    futures = _submitted_futures(monkeypatch)
    monkeypatch.setattr(forest, "_worker_count", lambda: workers)
    got = []
    with pytest.raises(RuntimeError, match="job source failed"):
        for probs in _stream(CLASSIFY, _failing_source(4)):
            got.append(probs)
    _assert_same_scores(got, expected)
    assert all(fut.done() for fut in futures)


_real_score_trees = forest._score_trees


def _fail_on_job_4(mode, cfg, n_candidates, n_classes, X, y, jobs, tree_ids):
    if any(key == (9, 4) for _, key, *_ in jobs):
        raise ValueError("cannot grow job 4")
    return _real_score_trees(mode, cfg, n_candidates, n_classes, X, y, jobs, tree_ids)


@pytest.mark.parametrize("workers", [1, 2])
def test_score_many_raises_a_grow_error_at_its_jobs_turn(monkeypatch, workers):
    # job 4's trees fail to grow: in-process as in a worker, the error
    # takes the place of its task's first job, after the results before
    # it. That is job 4 with one job a task, also when every tree is a task
    # of its own and the tasks of jobs 0-3 run around the failing ones, and
    # job 3 with three jobs a task. Workers forked after the patch inherit
    # it, and none is left for later tests.
    expected = _fit_scores(CLASSIFY, _score_jobs(CLASSIFY, 4))
    for per_task, first in ((1, 4), (0, 4), (3, 3)):
        forest.shutdown_pool()
        monkeypatch.setattr(forest, "_TASK_BYTES", _budget(per_task))
        monkeypatch.setattr(forest, "_score_trees", _fail_on_job_4)
        monkeypatch.setattr(forest, "_worker_count", lambda: workers)
        got = []
        try:
            with pytest.raises(ValueError, match="cannot grow job 4"):
                for probs in _stream(CLASSIFY, _score_jobs(CLASSIFY, 12)):
                    got.append(probs)
        finally:
            forest.shutdown_pool()
            monkeypatch.setattr(forest, "_score_trees", _real_score_trees)
        _assert_same_scores(got, expected[:first])


@pytest.mark.parametrize("workers", [1, 2])
def test_closing_score_many_leaves_no_work_running(monkeypatch, workers):
    # one job a task, so several tasks are read ahead when the stream closes
    monkeypatch.setattr(forest, "_worker_count", lambda: workers)
    monkeypatch.setattr(forest, "_TASK_BYTES", _budget(1))
    futures = _submitted_futures(monkeypatch)
    stream = _stream(REGRESS, _score_jobs(REGRESS, 20))
    next(stream)
    stream.close()
    assert 1 < len(futures) <= workers * forest._TASKS_PER_WORKER
    assert all(fut.done() for fut in futures)


@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_a_step_in_chunks_of_one_node_scores_the_same(monkeypatch, mode):
    # six jobs in one task, grown in-process with each node of a step its
    # own chunk and each tree its own presort block
    from moodsig import _lockstep

    expected = _fit_scores(mode, _score_jobs(mode, 6))
    monkeypatch.setattr(forest, "_worker_count", lambda: 1)
    monkeypatch.setattr(_lockstep, "_STEP_COST", 1)
    _assert_same_scores(list(_stream(mode, _score_jobs(mode, 6))), expected)


def test_every_job_splits_its_trees_over_one_pool(monkeypatch):
    # fit splits its trees into one task per worker, score_many packs
    # small jobs into one task, and a later fit asking for more workers
    # reuses the pool instead of forking another
    forest.shutdown_pool()
    monkeypatch.setattr(forest, "_worker_count", lambda: 2)
    futures = _submitted_futures(monkeypatch)
    X, y = _stream_table(CLASSIFY)
    fit(X, y, CLASSIFY, _STREAM_CONFIG)
    assert len(futures) == 2
    pool = forest._pool
    assert len(list(_stream(CLASSIFY, _score_jobs(CLASSIFY, 3)))) == 3
    assert len(futures) == 3
    monkeypatch.setattr(forest, "_worker_count", lambda: 3)
    fit(X, y, CLASSIFY, _STREAM_CONFIG)
    assert forest._pool is pool
    assert len(futures) == 6


_ULPS = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)])


def _column(rng, kind, m):
    # real values, few distinct values (ties), values one ulp apart, or
    # signed zeros, which compare equal but differ in their bytes
    if kind == "real":
        return rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
    if kind == "ties":
        return rng.integers(0, 4, size=m).astype(float)
    if kind == "zeros":
        return rng.choice([0.0, -0.0], size=m)
    return _ULPS[rng.integers(0, 3, size=m)]


@st.composite
def _fit_cases(draw):
    """fit arguments over both modes, ties and ulp-adjacent values, and
    every ForestConfig knob."""
    mode = draw(st.sampled_from([CLASSIFY, REGRESS]))
    m, f = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ("real", "ties", "ulp", "zeros")
    X = np.column_stack([_column(rng, draw(st.sampled_from(kinds)), m) for _ in range(f)])
    n_classes = None
    if mode == CLASSIFY:
        n_classes = draw(st.integers(2, 5))
        y = rng.integers(0, n_classes, size=m)
        if draw(st.booleans()):
            n_classes = None  # inferred as max(y) + 1
    else:
        y = _column(rng, draw(st.sampled_from(kinds)), m)
    config = ForestConfig(
        n_trees=draw(st.integers(1, 4)),
        max_depth=draw(st.none() | st.integers(1, 6)),
        min_leaf=draw(st.integers(1, 4)),
        features_per_split=draw(st.none() | st.integers(1, f)),
    )
    return X, y, mode, config, (draw(st.integers(0, 2**16)), 7), n_classes


@settings(max_examples=60, deadline=None)
@given(_fit_cases())
def test_grower_matches_the_node_loop_oracle(case):
    # every node array of every tree is byte-equal to the per-node loop's,
    # grown in-process and in the pool
    expected = loop_fit_trees(*case)
    for workers in (1, 2):
        with mock.patch.object(forest, "_worker_count", lambda w=workers: w):
            model = fit(*case)
        _assert_same_trees(model.trees, expected)


def _assert_traversal_matches(model, X):
    # a matrix and its first row alone, against the tree-at-a-time loop
    if model.mode == CLASSIFY:
        expected = loop_predict_proba(model, X)
        _assert_same_bytes(model.predict_proba(X), expected)
        _assert_same_bytes(model.predict_proba(X[:1]), expected[:1])
    expected = loop_predict(model, X)
    _assert_same_bytes(model.predict(X), expected)
    _assert_same_bytes(model.predict(X[:1]), expected[:1])


@settings(max_examples=40, deadline=None)
@given(_fit_cases(), st.integers(1, 9), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_traversal_matches_the_tree_loop_oracle(case, pairs_per_block, nodes_per_group,
                                                probe_seed):
    # training rows land on thresholds' neighbours; tiny blocks and groups
    # make most batches cross several blocks and most ensembles several
    # groups of trees
    with mock.patch.object(forest, "_worker_count", lambda: 1):
        model = fit(*case)
    X = case[0]
    rng = np.random.default_rng(probe_seed)
    probe = np.vstack([X, rng.normal(size=(5, X.shape[1])), rng.permutation(X)])
    with mock.patch.multiple(forest, _PAIRS_PER_BLOCK=pairs_per_block,
                             _NODES_PER_GROUP=nodes_per_group):
        _assert_traversal_matches(model, probe)


def _assert_scores_match(case, probes):
    # score_many, grown in-process and in the pool, against the tree mean
    # and prediction of fit's ensemble and of the per-node loop's trees.
    # The probes are rows of a table that also holds the training rows,
    # scored by jobs that train on the training rows alone.
    X, y, mode, config, seed, n_classes = case
    with mock.patch.object(forest, "_worker_count", lambda: 1):
        model = fit(*case)
    oracle = replace(model, trees=tuple(loop_fit_trees(*case)))
    expected = model._tree_mean(probes)
    if model.mode == CLASSIFY:
        _assert_same_bytes(expected, model.predict_proba(probes))
        _assert_same_bytes(expected, loop_predict_proba(oracle, probes))
    else:
        _assert_same_bytes(expected[:, 0], loop_predict(oracle, probes))
    table, labels = np.vstack([X, probes]), np.concatenate([y, np.resize(y, len(probes))])
    train, rows = np.arange(len(X)), np.arange(len(X), len(table))
    for workers in (1, 2):
        with mock.patch.object(forest, "_worker_count", lambda w=workers: w):
            got = list(forest.score_many(table, labels, mode, config,
                                         [(train, rows, seed), (train, rows[-1:], seed)],
                                         n_classes))
        _assert_same_scores(got, (expected, expected[-1:]))
    return model


@settings(max_examples=40, deadline=None)
@given(_fit_cases(), st.integers(0, 2**32 - 1))
def test_score_many_matches_fit_and_the_oracles(case, probe_seed):
    # training rows, rows sitting exactly on a split threshold (a training
    # row with one node's feature set to its threshold) and fresh rows, in
    # shuffled order: all together, and the last alone as a 1-row matrix
    with mock.patch.object(forest, "_worker_count", lambda: 1):
        model = fit(*case)
    X = case[0]
    rng = np.random.default_rng(probe_seed)
    splits = [(f, thr) for tree in model.trees
              for f, thr in zip(tree.feature.tolist(), tree.threshold.tolist()) if f >= 0]
    on_threshold = X[rng.integers(0, len(X), size=len(splits))]
    for row, (f, thr) in zip(on_threshold, splits):
        row[f] = thr
    rows = np.vstack([X, on_threshold, rng.normal(size=(3, X.shape[1]))])
    _assert_scores_match(case, rng.permutation(rows))


@settings(max_examples=40, deadline=None)
@given(_fit_cases(), st.integers(2, 4), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.sampled_from([0, 1, 4, None]))
def test_table_and_rows_jobs_match_fit_and_the_oracles(case, n_jobs, probe_seed, workers,
                                                        trees_per_task):
    # a stream of jobs into one table, the case's rows and three fresh
    # ones. Each job trains on its own rows, drawn with repeats and out of
    # order (in classify mode, half the time without the top class, so a
    # job with classes inferred has fewer), scores 0-3 rows of the table
    # and has its own seed. Tasks of one tree, of one or four trees of the
    # table's size (several jobs, or a range of one job's trees) or of
    # _TASK_BYTES.
    X, y, mode, config, seed, n_classes = case
    rng = np.random.default_rng(probe_seed)
    table = np.vstack([X, rng.normal(size=(3, X.shape[1]))])
    labels = np.concatenate([y, np.resize(y, 3)])
    jobs, expected = [], []
    for j in range(n_jobs):
        pool = np.arange(len(table))
        if mode == CLASSIFY and rng.random() < 0.5 and (labels < labels.max()).any():
            pool = np.flatnonzero(labels < labels.max())
        jobs.append((rng.choice(pool, size=rng.integers(2, 2 * len(table))),
                     rng.integers(0, len(table), size=rng.integers(0, 4)), (seed[0], j)))
    with mock.patch.object(forest, "_worker_count", lambda: 1):
        for train, rows, job_seed in jobs:
            args = (table[train], labels[train], mode, config, job_seed, n_classes)
            model = fit(*args)
            expected.append(model._tree_mean(table[rows]))
            oracle = replace(model, trees=tuple(loop_fit_trees(*args)))
            if mode == CLASSIFY:
                _assert_same_bytes(expected[-1], loop_predict_proba(oracle, table[rows]))
            else:
                _assert_same_bytes(expected[-1][:, 0], loop_predict(oracle, table[rows]))
    budget = forest._TASK_BYTES
    if trees_per_task is not None:
        budget = trees_per_task * len(table) * X.shape[1] * forest._CELL_BYTES or 1
    with mock.patch.multiple(forest, _worker_count=lambda: workers, _TASK_BYTES=budget):
        got = list(forest.score_many(table, labels, mode, config, jobs, n_classes))
    _assert_same_scores(got, expected)


@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_a_job_over_the_task_budget_is_split_into_tree_ranges(monkeypatch, mode):
    # 7 trees in tasks of at most two trees' bytes: four tasks, of 1, 2, 2
    # and 2 trees, whose results add up in tree order to fit's tree mean
    rng = np.random.default_rng(8)
    X = rng.normal(size=(35, 3))
    y = rng.integers(0, 3, size=35) if mode == CLASSIFY else rng.normal(size=35)
    train, rows, config = np.arange(30), np.array([0, 1, 2, 30, 31]), ForestConfig(n_trees=7)
    monkeypatch.setattr(forest, "_worker_count", lambda: 1)
    expected = fit(X[train], y[train], mode, config, 5)._tree_mean(X[rows])
    monkeypatch.setattr(forest, "_TASK_BYTES", 2 * 30 * 3 * forest._CELL_BYTES)
    for workers in (1, 2):
        monkeypatch.setattr(forest, "_worker_count", lambda w=workers: w)
        futures = _submitted_futures(monkeypatch)
        got = list(forest.score_many(X, y, mode, config, [(train, rows, 5)]))
        _assert_same_scores(got, [expected])
        assert len(futures) == 4


def test_scoring_memory_is_bounded_by_the_task_budget(monkeypatch):
    # one worker scores, as classify does, leave-one-out jobs of 25 trees
    # on a 126x12 table, eight to a task of _TASK_BYTES, and then one job
    # of 2,000 trees (the CLI accepts up to 10,000) split into tasks of 209
    # trees. The tracemalloc peak stays below twice the budget, the task's
    # trees within it and each scoring step's temporaries bounded apart;
    # all 2,000 trees at once would take about nine times the budget. The
    # big job's row sits right of every split, so each tree grows only its
    # rightmost path.
    monkeypatch.setattr(forest, "_worker_count", lambda: 1)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(126, 12))
    X[125] = X[:125].max(axis=0) + 1
    y = rng.integers(0, 3, size=126)
    every = np.arange(126)
    loo = [(every[every != i], [i], (3, i)) for i in range(16)]
    for jobs, config in ((loo, ForestConfig(n_trees=25)),
                         ([(every[:125], [125], 3)], ForestConfig(n_trees=2000))):
        tracemalloc.start()
        try:
            scores = list(forest.score_many(X, y, CLASSIFY, config, jobs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * forest._TASK_BYTES
        for probs in scores:
            np.testing.assert_allclose(probs.sum(axis=1), 1.0)


@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_score_many_when_the_root_is_a_leaf(mode):
    # min_leaf 16 on 30 rows leaves every root a leaf; max_depth 1 stops
    # every tree after one split
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 3, size=30) if mode == CLASSIFY else rng.normal(size=30)
    rows = np.vstack([X[:4], rng.normal(size=(2, 3))])
    for config, most_nodes in ((ForestConfig(n_trees=5, min_leaf=16), 1),
                               (ForestConfig(n_trees=5, max_depth=1), 3)):
        model = _assert_scores_match((X, y, mode, config, 4, None), rows)
        assert max(len(tree.feature) for tree in model.trees) == most_nodes


def _chain_tree(depth, mode):
    # internal node 2k splits feature 0 at k + 0.5; its left child 2k + 1
    # is a leaf, its right child 2k + 2 the next internal node or a leaf
    n = 2 * depth + 1
    feature = np.full(n, -1, dtype=np.int32)
    feature[0:-1:2] = 0
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    left[0:-1:2] = np.arange(1, n, 2)
    right[0:-1:2] = np.arange(2, n + 1, 2)
    threshold = np.zeros(n)
    threshold[0:-1:2] = np.arange(depth) + 0.5
    k = np.arange(n, dtype=np.float64)
    value = np.column_stack([k + 1, (3 * k) % 5, k % 2]) if mode == CLASSIFY else (0.37 * k)[:, None]
    return _Tree(feature=feature, threshold=threshold, left=left, right=right, value=value)


@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_traversal_of_mixed_depths_and_real_blocks(mode):
    # a single-leaf tree, a depth-1 tree and a depth-35 tree in one group of
    # trees, on more rows than one block of (tree, row) pairs holds
    trees = (_leaf_tree([2.0, 1.0, 0.0] if mode == CLASSIFY else [1.25]),
             _chain_tree(1, mode), _chain_tree(35, mode))
    model = TreeEnsemble(mode=mode, feature_count=2, n_classes=3 if mode == CLASSIFY else 0,
                         config=ForestConfig(n_trees=3), seed=0, trees=trees)
    assert forest._concatenated(trees, mode == CLASSIFY)[-1] == 35
    rows = 2 * (forest._PAIRS_PER_BLOCK // len(trees)) + 5
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.integers(-2, 40, size=rows) + rng.choice([0.0, 0.5, 0.7], size=rows),
                         rng.normal(size=rows)])
    _assert_traversal_matches(model, X)


@pytest.mark.parametrize("nodes_per_group", [1, 5, forest._NODES_PER_GROUP])
@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_traversal_adds_many_trees_in_tree_order(monkeypatch, mode, nodes_per_group):
    # 33 leaves of mixed magnitudes, in one group or many: a pairwise or
    # regrouped sum over the trees would round differently from the
    # tree-at-a-time loop
    monkeypatch.setattr(forest, "_NODES_PER_GROUP", nodes_per_group)
    rng = np.random.default_rng(5)
    if mode == CLASSIFY:
        values = rng.integers(1, 9, size=(33, 4)).astype(float)
    else:
        values = rng.normal(size=(33, 1)) * 10.0 ** rng.integers(-8, 9, size=(33, 1))
    model = TreeEnsemble(mode=mode, feature_count=2, n_classes=4 if mode == CLASSIFY else 0,
                         config=ForestConfig(n_trees=33), seed=0,
                         trees=tuple(_leaf_tree(v) for v in values))
    _assert_traversal_matches(model, rng.normal(size=(3, 2)))
