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


def _leaf_tree(value):
    return _Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([value], dtype=np.float64),
    )


def _tree_arrays(model):
    return [
        [getattr(t, name).tolist() for name in ("feature", "threshold", "left", "right", "value")]
        for t in model.trees
    ]


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
        probs = model.predict_proba(np.array([0.05]))
        assert set(probs) <= {0.0, 1.0}

    def test_tie_breaks_to_lowest_class(self):
        ensemble = TreeEnsemble(
            mode=CLASSIFY,
            feature_count=1,
            n_classes=3,
            config=ForestConfig(n_trees=2),
            seed=0,
            trees=(_leaf_tree([1.0, 0.0, 0.0]), _leaf_tree([0.0, 1.0, 0.0])),
        )
        x = np.array([0.0])
        np.testing.assert_allclose(ensemble.predict_proba(x), [0.5, 0.5, 0.0])
        assert ensemble.predict(x) == 0

    def test_regression_mean_of_trees(self):
        ensemble = TreeEnsemble(
            mode=REGRESS,
            feature_count=1,
            n_classes=0,
            config=ForestConfig(n_trees=2),
            seed=0,
            trees=(_leaf_tree([4.0]), _leaf_tree([6.0])),
        )
        assert ensemble.predict(np.array([0.0])) == 5.0

    def test_out_of_range_inputs_still_valid(self):
        rng = np.random.default_rng(7)
        X, y = _toy_clusters(rng, 20, [(0, 0), (2, 2), (4, 0)])
        model = fit(X, y, CLASSIFY, ForestConfig(n_trees=20), seed=4)
        probs = model.predict_proba(np.array([[1e6, -1e6], [-50.0, 99.0]]))
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_mode_mismatch(self):
        model = fit(np.arange(10.0)[:, None], np.arange(10.0), REGRESS, ForestConfig(n_trees=2))
        with pytest.raises(ValueError):
            model.predict_proba(np.array([1.0]))

    def test_nonfinite_input_rejected(self):
        model = fit(np.arange(10.0)[:, None], np.arange(10) % 2, CLASSIFY, ForestConfig(n_trees=2))
        with pytest.raises(ValueError):
            model.predict(np.array([np.nan]))

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
    # chunks, unevenly for 5 and 7 trees, with empty chunks when there are
    # fewer trees than workers
    rng = np.random.default_rng(41)
    X = rng.normal(size=(36, 5))
    y = rng.integers(0, 3, size=36) if mode == CLASSIFY else rng.normal(size=36)
    for n_trees in (1, 2, 5, 7):
        fitted = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(forest, "_worker_count", lambda n, w=workers: w)
            fitted[workers] = fit(X, y, mode, ForestConfig(n_trees=n_trees), seed=(8, n_trees))
            if workers > 1:
                assert forest._pool is not None
        for workers in (2, 3):
            assert len(fitted[workers].trees) == n_trees
            for ours, base in zip(fitted[workers].trees, fitted[1].trees):
                for name in ("feature", "threshold", "left", "right", "value"):
                    assert np.array_equal(getattr(ours, name), getattr(base, name))


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


def _stream_jobs(mode, n_jobs, pulled=None, bad=None):
    # fit argument tuples of varied shapes, tree counts and argument lengths;
    # `pulled` records each job as it is read, and job `bad` has a NaN feature
    rng = np.random.default_rng(43)
    for j in range(n_jobs):
        X = rng.normal(size=(18 + j, 4))
        if j == bad:
            X[3, 1] = np.nan
        y = rng.integers(0, 3, size=len(X)) if mode == CLASSIFY else rng.normal(size=len(X))
        if pulled is not None:
            pulled.append(j)
        cfg = ForestConfig(n_trees=1 + j % 4)
        yield (X, y, mode, cfg, (9, j)) + ((3,) if mode == CLASSIFY and j % 2 else ())


def _assert_same_ensemble(ours, base):
    assert (ours.mode, ours.feature_count, ours.n_classes, ours.config, ours.seed) == (
        base.mode, base.feature_count, base.n_classes, base.config, base.seed)
    assert len(ours.trees) == len(base.trees)
    for a, b in zip(ours.trees, base.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


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


@pytest.mark.parametrize("mode", [CLASSIFY, REGRESS])
def test_fit_many_equals_fit_per_job(monkeypatch, mode):
    # 0 jobs, a lone job (its trees split over the workers) and more jobs
    # than the largest in-flight bound (one task per job), read from a
    # generator; the per-job fits run in-process
    n_many = forest._jobs_in_flight(3) + 2
    monkeypatch.setattr(forest, "_worker_count", lambda n: 1)
    expected = [fit(*job) for job in _stream_jobs(mode, n_many)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(forest, "_worker_count", lambda n, w=workers: w)
        for n_jobs in (0, 1, n_many):
            models = list(forest.fit_many(_stream_jobs(mode, n_jobs)))
            assert len(models) == n_jobs
            for ours, base in zip(models, expected):
                _assert_same_ensemble(ours, base)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fit_many_reads_jobs_lazily(monkeypatch, workers):
    monkeypatch.setattr(forest, "_worker_count", lambda n: workers)
    bound = forest._jobs_in_flight(workers)
    n_jobs = bound + 6
    pulled = []
    for taken, _ in enumerate(forest.fit_many(_stream_jobs(CLASSIFY, n_jobs, pulled)), 1):
        assert len(pulled) - taken <= bound
        if taken == 1:
            assert len(pulled) < n_jobs
    assert pulled == list(range(n_jobs))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fit_many_raises_a_bad_job_in_its_place(monkeypatch, workers):
    # job 5 has a NaN feature: the four before it are yielded, then fit's
    # own error; nothing read ahead is left growing, and the pool still
    # grows the same trees as an in-process fit
    monkeypatch.setattr(forest, "_worker_count", lambda n: 1)
    expected = [fit(*job) for job in _stream_jobs(CLASSIFY, 4)]
    with pytest.raises(ValueError) as fit_error:
        fit(*list(_stream_jobs(CLASSIFY, 5, bad=4))[4])
    futures = _submitted_futures(monkeypatch)
    monkeypatch.setattr(forest, "_worker_count", lambda n: workers)
    got = []
    with pytest.raises(ValueError) as stream_error:
        for model in forest.fit_many(_stream_jobs(CLASSIFY, 12, bad=4)):
            got.append(model)
    assert str(stream_error.value) == str(fit_error.value) == "features must be finite"
    assert len(got) == 4
    for ours, base in zip(got, expected):
        _assert_same_ensemble(ours, base)
    assert all(fut.done() for fut in futures)
    _assert_same_ensemble(fit(*next(_stream_jobs(CLASSIFY, 1))), expected[0])


def test_closing_fit_many_leaves_no_work_running(monkeypatch):
    monkeypatch.setattr(forest, "_worker_count", lambda n: 2)
    futures = _submitted_futures(monkeypatch)
    stream = forest.fit_many(_stream_jobs(REGRESS, 20))
    next(stream)
    stream.close()
    assert 1 < len(futures) <= 1 + forest._jobs_in_flight(2)
    assert all(fut.done() for fut in futures)
