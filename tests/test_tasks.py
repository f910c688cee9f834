from dataclasses import replace

import numpy as np
import pytest

from moodsig import forest, tasks
from moodsig.encode import (
    MISSING,
    Cohort,
    Group,
    ParticipantRecord,
    mrsf,
    mrsf_width,
    naive_features,
    weekly,
)
from moodsig.errors import InsufficientDataError
from moodsig.forest import CLASSIFY, ForestConfig, TreeEnsemble, fit
from moodsig.metrics import report_to_dict
from moodsig.synth import CohortSpec, GroupParams, generate_cohort
from moodsig.tasks import (
    Instrument,
    SeverityBucket,
    StateLabel,
    TaskConfig,
    classification_windows,
    loo_points,
    observed_proportions,
    rollout_eligible,
    run_classification,
    run_score_prediction,
    run_state_prediction,
    run_state_rollout,
    severity_buckets,
    state_labels,
    true_proportions,
)

SMALL_FOREST = ForestConfig(n_trees=10)


def _quiet_params(asrm_mean=2.0, qids_mean=3.0, missing_base=0.0):
    p = GroupParams(
        start=(1.0, 0.0, 0.0),
        transition=((1.0, 0.0, 0.0),) * 3,
        asrm_means=(asrm_mean,) * 3,
        qids_means=(qids_mean,) * 3,
        asrm_sd=0.0,
        qids_sd=0.0,
        missing_base=missing_base,
    )
    return {g: p for g in Group}


def _record(group, scores, pid="p0"):
    weeks = weekly((i, a, q) for i, (a, q) in enumerate(scores))
    return ParticipantRecord(id=pid, group=group, weeks=weeks)


class TestStateLabel:
    def test_asrm_threshold(self):
        labels = state_labels([5, 6], Instrument.ASRM)
        assert labels.tolist() == [StateLabel.NORMAL, StateLabel.ELEVATED]

    def test_qids_threshold(self):
        labels = state_labels([10, 11], Instrument.QIDS)
        assert labels.tolist() == [StateLabel.NORMAL, StateLabel.ELEVATED]

    def test_missing_is_no_answer(self):
        assert state_labels([MISSING], Instrument.ASRM).tolist() == [StateLabel.NO_ANSWER]
        assert state_labels([MISSING], Instrument.QIDS).tolist() == [StateLabel.NO_ANSWER]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="score 21 outside ASRM"):
            state_labels([21], Instrument.ASRM)
        with pytest.raises(ValueError, match="score 28 outside QIDS"):
            state_labels([28], Instrument.QIDS)
        with pytest.raises(ValueError, match="score -2 outside ASRM"):
            state_labels([-2], Instrument.ASRM)
        # one bad score among valid and missing ones
        with pytest.raises(ValueError, match="score 21 outside ASRM"):
            state_labels([0, 6, MISSING, 21, 20], Instrument.ASRM)


class TestSeverityBucket:
    def test_asrm_sweep(self):
        expected = [0] * 6 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 3
        got = severity_buckets(np.arange(21), Instrument.ASRM).tolist()
        assert got == expected

    def test_qids_sweep(self):
        expected = [0] * 6 + [1] * 5 + [2] * 5 + [3] * 5 + [4] * 7
        got = severity_buckets(np.arange(28), Instrument.QIDS).tolist()
        assert got == expected

    def test_declared_boundaries(self):
        assert severity_buckets([17], Instrument.ASRM).tolist() == [SeverityBucket.SEVERE]
        assert severity_buckets([0], Instrument.QIDS).tolist() == [SeverityBucket.NONE0]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="score 21 outside ASRM"):
            severity_buckets([21], Instrument.ASRM)
        with pytest.raises(ValueError, match="score -1 outside QIDS"):
            severity_buckets([-1], Instrument.QIDS)
        with pytest.raises(ValueError, match="score 28 outside QIDS"):
            severity_buckets([0, 11, 27, 28, 5], Instrument.QIDS)


class TestTaskConfig:
    def test_window_defaults(self, small_cohort, monkeypatch):
        # unset, the window is the task's own: 20 weeks for classification,
        # 10 for prediction and the rollout; set, it is the same for every task
        lengths, real = [], tasks.mrsf
        monkeypatch.setattr(tasks, "mrsf", lambda weeks, level, wl: lengths.append(wl)
                            or real(weeks, level, wl))
        cfg = TaskConfig(instrument=Instrument.ASRM, groups=(Group.HC,), forest=SMALL_FOREST,
                         bootstrap_samples=1)
        runs = (classification_windows, run_state_prediction, run_score_prediction,
                run_state_rollout)
        for run, default in zip(runs, (20, 10, 10, 10)):
            for window_length, expected in ((None, default), (12, 12)):
                lengths.clear()
                run(small_cohort, replace(cfg, window_length=window_length))
                assert set(lengths) == {expected}, run.__name__

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskConfig(split_fraction=1.0)
        with pytest.raises(ValueError):
            TaskConfig(window_length=1)


def _check_insufficient_group(run):
    # every task shares one eligibility rule: two participants per group
    # with enough weeks, here one BPD record and one too short for any task
    cohort = generate_cohort(CohortSpec(sizes=(4, 4, 4), weeks=30, seed=3))
    bpd = next(r for r in cohort.records if r.group is Group.BPD)
    short = _record(Group.BPD, [(2, 3)] * 10, pid="short0")
    one_bpd = Cohort(
        records=tuple(r for r in cohort.records if r.group is not Group.BPD) + (bpd, short)
    )
    with pytest.raises(InsufficientDataError, match="group BPD has < 2 eligible participants"):
        run(one_bpd, TaskConfig(seed=0, forest=SMALL_FOREST))


@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(CohortSpec(sizes=(8, 8, 8), weeks=30, seed=0))


class TestClassification:
    def test_result_shape_and_probabilities(self, small_cohort):
        cfg = TaskConfig(seed=1, forest=SMALL_FOREST, bootstrap_samples=30)
        res = run_classification(small_cohort, cfg)
        assert len(res.loo_points) == 24
        for point in res.loo_points:
            assert point.probs.shape == (3,)
            np.testing.assert_allclose(point.probs.sum(), 1.0, atol=1e-12)
        assert res.mrsf_report.confusion.sum() == res.n_test
        assert res.n_train + res.n_test == 24

    def test_deterministic_reruns(self, small_cohort):
        cfg = TaskConfig(seed=5, forest=SMALL_FOREST, bootstrap_samples=30)
        a = run_classification(small_cohort, cfg)
        b = run_classification(small_cohort, cfg)
        assert report_to_dict(a.mrsf_report) == report_to_dict(b.mrsf_report)
        assert report_to_dict(a.naive_report) == report_to_dict(b.naive_report)
        for pa, pb in zip(a.loo_points, b.loo_points):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_loo_points_alone_equal_those_of_the_whole_run(self, small_cohort):
        cfg = TaskConfig(seed=5, forest=SMALL_FOREST, bootstrap_samples=30)
        records, X_mrsf, _ = classification_windows(small_cohort, cfg)
        alone = loo_points(records, X_mrsf, cfg)
        whole = run_classification(small_cohort, cfg).loo_points
        assert [(p.participant_id, p.group) for p in alone] == [
            (p.participant_id, p.group) for p in whole
        ]
        for pa, pb in zip(alone, whole):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_loo_points_fit_only_the_requested_groups(self, small_cohort, monkeypatch):
        # the BD points of an all-groups run, from one scoring job per BD
        # participant
        cfg = TaskConfig(seed=5, forest=SMALL_FOREST, bootstrap_samples=30)
        records, X_mrsf, _ = classification_windows(small_cohort, cfg)
        every = loo_points(records, X_mrsf, cfg)
        jobs, real = [], tasks.score_many

        def counted(stream):
            return real(jobs.append(job) or job for job in stream)

        monkeypatch.setattr(tasks, "score_many", counted)
        bd = loo_points(records, X_mrsf, replace(cfg, groups=(Group.BD,)))
        assert len(jobs) == len(bd) == 8
        expected = [p for p in every if p.group is Group.BD]
        assert [p.participant_id for p in bd] == [p.participant_id for p in expected]
        for pa, pb in zip(bd, expected):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_loo_points_are_per_participant_fits_without_an_ensemble(self, small_cohort,
                                                                     monkeypatch):
        # each point is predict_proba, on the held-out row, of the forest fit
        # on every other row; grown in-process, loo_points gets there
        # without predicting through an ensemble
        cfg = TaskConfig(seed=5, forest=SMALL_FOREST, bootstrap_samples=30)
        records, X_mrsf, _ = classification_windows(small_cohort, cfg)
        y = np.array([r.group.index for r in records])
        monkeypatch.setattr(forest, "_worker_count", lambda: 1)
        expected = [
            fit(np.delete(X_mrsf, i, axis=0), np.delete(y, i), CLASSIFY, cfg.forest,
                (cfg.seed, 106, i), 3).predict_proba(X_mrsf[i : i + 1])[0]
            for i in range(len(records))
        ]

        def refuse(*args):
            raise AssertionError("loo_points predicted through an ensemble")

        monkeypatch.setattr(TreeEnsemble, "predict_proba", refuse)
        points = loo_points(records, X_mrsf, cfg)
        assert [p.participant_id for p in points] == [r.id for r in records]
        for point, probs in zip(points, expected):
            assert point.probs.tobytes() == probs.tobytes()

    def test_loo_scoring_grows_fewer_nodes_than_the_full_fits(self, small_cohort,
                                                              monkeypatch):
        # the same leave-one-out jobs, grown whole by fit and only to the
        # held-out rows' leaves by score_many, counting candidate draws (one
        # per split attempt). A tree has one node more than twice its
        # splits, so trees + 2 * draws bounds the nodes score_many creates.
        cfg = TaskConfig(seed=5, forest=SMALL_FOREST, bootstrap_samples=30)
        records, X_mrsf, _ = classification_windows(small_cohort, cfg)
        jobs, real = [], tasks.score_many
        monkeypatch.setattr(tasks, "score_many",
                            lambda stream: real(jobs.append(job) or job for job in stream))
        loo_points(records, X_mrsf, cfg)
        assert len(jobs) == len(records)
        draws, default_rng = [0], np.random.default_rng

        class CountingDraws:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def choice(self, *args, **kwargs):
                draws[0] += 1
                return self.rng.choice(*args, **kwargs)

        monkeypatch.setattr(forest, "_worker_count", lambda: 1)
        monkeypatch.setattr(np.random, "default_rng", CountingDraws)
        models = [fit(*args) for args, _ in jobs]
        full_draws, draws[0] = draws[0], 0
        scores = list(forest.score_many(jobs))
        trees = sum(len(m.trees) for m in models)
        full_nodes = sum(len(t.feature) for m in models for t in m.trees)
        assert draws[0] < full_draws
        assert trees + 2 * draws[0] < full_nodes
        for model, (_, rows), probs in zip(models, jobs, scores):
            assert probs.tobytes() == model._tree_mean(rows).tobytes()

    def test_short_records_excluded(self):
        cohort = generate_cohort(CohortSpec(sizes=(4, 4, 4), weeks=30, seed=2))
        short = _record(Group.BD, [(2, 3)] * 15, pid="short0")
        cohort = Cohort(records=cohort.records + (short,))
        cfg = TaskConfig(seed=1, forest=SMALL_FOREST, bootstrap_samples=20)
        res = run_classification(cohort, cfg)
        assert all(p.participant_id != "short0" for p in res.loo_points)

    def test_insufficient_group(self):
        _check_insufficient_group(run_classification)


class TestStatePrediction:
    def test_reports_per_group_and_instrument(self, small_cohort):
        cfg = TaskConfig(seed=2, forest=SMALL_FOREST, bootstrap_samples=30)
        results = run_state_prediction(small_cohort, cfg)
        combos = {(r.group, r.instrument) for r in results}
        assert combos == {(g, i) for g in Group for i in Instrument}
        for r in results:
            assert r.mrsf_report.confusion.sum() == r.n_test
            assert 0.0 <= r.mrsf_report.accuracy_mean <= 1.0

    def test_quiet_cohort_perfect_normal(self):
        spec = CohortSpec(sizes=(4, 4, 4), weeks=25, seed=4, params=_quiet_params())
        cohort = generate_cohort(spec)
        cfg = TaskConfig(seed=0, forest=SMALL_FOREST, bootstrap_samples=10)
        for r in run_state_prediction(cohort, cfg):
            assert r.mrsf_report.accuracy_mean == 1.0
            assert r.naive_report.accuracy_mean == 1.0
            # every prediction lands in the Normal row/column
            assert r.mrsf_report.confusion[StateLabel.NORMAL, StateLabel.NORMAL] == r.n_test

    def test_insufficient_group(self):
        _check_insufficient_group(run_state_prediction)

    def test_group_filter(self, small_cohort):
        cfg = TaskConfig(seed=2, forest=SMALL_FOREST,
            bootstrap_samples=10, groups=(Group.BD,), instrument=Instrument.ASRM,
        )
        results = run_state_prediction(small_cohort, cfg)
        assert len(results) == 1
        assert results[0].group is Group.BD


class TestScorePrediction:
    def test_constant_scores_zero_error(self):
        spec = CohortSpec(sizes=(4, 4, 4), weeks=25, seed=5, params=_quiet_params())
        cohort = generate_cohort(spec)
        cfg = TaskConfig(seed=0, forest=SMALL_FOREST, bootstrap_samples=10)
        for r in run_score_prediction(cohort, cfg):
            assert r.mrsf_report.mae == 0.0
            assert r.naive_report.mae == 0.0
            assert r.severity_report.accuracy_mean == 1.0
            assert r.severity_report.mae == 0.0

    def test_insufficient_group(self):
        _check_insufficient_group(run_score_prediction)

    def test_reports_finite_on_noisy_cohort(self, small_cohort):
        cfg = TaskConfig(seed=3, forest=SMALL_FOREST, bootstrap_samples=20)
        results = run_score_prediction(small_cohort, cfg)
        assert len(results) == 6
        for r in results:
            assert np.isfinite(r.mrsf_report.mae) and r.mrsf_report.mae >= 0
            assert np.isfinite(r.naive_report.mae)
            assert r.severity_report.confusion.shape == (5, 5)

    def test_deterministic_reruns(self, small_cohort):
        cfg = TaskConfig(seed=6, forest=SMALL_FOREST,
                         bootstrap_samples=20, instrument=Instrument.QIDS,
                         groups=(Group.HC,))
        a = run_score_prediction(small_cohort, cfg)
        b = run_score_prediction(small_cohort, cfg)
        assert report_to_dict(a[0].mrsf_report) == report_to_dict(b[0].mrsf_report)
        assert report_to_dict(a[0].severity_report) == report_to_dict(b[0].severity_report)


class TestFeatureTable:
    def test_rows_are_each_runs_windows_in_run_order(self):
        cohort = generate_cohort(CohortSpec(sizes=(2, 2, 2), weeks=24, seed=1))
        weeks = [r.weeks for r in cohort.records]
        wl, level = 10, 3
        # a run shorter than one window, in the middle, adds no row; a run of
        # exactly one window adds one
        runs = [weeks[0], weeks[1][:wl - 1], weeks[2][3:], weeks[3][:wl], weeks[4]]
        X_mrsf, X_naive, owner = tasks._feature_table(runs, level, wl)
        counts = [max(len(run) - wl + 1, 0) for run in runs]
        assert counts[1] == 0 and counts[3] == 1
        assert owner.tolist() == [k for k, n in enumerate(counts) for _ in range(n)]
        assert X_mrsf.shape == (sum(counts), mrsf_width(level))
        assert X_naive.shape == (sum(counts), 2)
        for k, run in enumerate(runs):
            np.testing.assert_array_equal(X_mrsf[owner == k], mrsf(run, level, wl))
            np.testing.assert_array_equal(X_naive[owner == k], naive_features(run, wl))

    @pytest.mark.parametrize("run", [run_state_prediction, run_score_prediction])
    def test_paired_forests_items_may_be_used_in_any_order(self, small_cohort, monkeypatch, run):
        # every item taken before any model is fit gives the reports of the
        # interleaved order, for two groups and both instruments
        cfg = TaskConfig(seed=4, forest=SMALL_FOREST, bootstrap_samples=10,
                         groups=(Group.BD, Group.BPD))
        interleaved = run(small_cohort, cfg)
        real = tasks._paired_forests
        monkeypatch.setattr(tasks, "_paired_forests", lambda *a, **k: iter(list(real(*a, **k))))
        taken_first = run(small_cohort, cfg)
        assert [(r.group, r.instrument) for r in taken_first] == [
            (g, i) for g in cfg.groups for i in Instrument
        ]
        for a, b in zip(interleaved, taken_first, strict=True):
            assert (a.n_train, a.n_test) == (b.n_train, b.n_test)
            for name in ("mrsf_report", "naive_report", "severity_report"):
                reports = getattr(a, name), getattr(b, name)
                assert reports == (None, None) or (
                    report_to_dict(reports[0]) == report_to_dict(reports[1]))


class TestRollout:
    def test_eligibility_edges(self):
        fifteen = _record(Group.BD, [(2, 3)] * 15)
        sixteen = _record(Group.BD, [(2, 3)] * 16)
        assert not rollout_eligible(fifteen)
        assert rollout_eligible(sixteen)

    def test_skip_records_reason(self):
        base = generate_cohort(CohortSpec(sizes=(4, 4, 4), weeks=30, seed=7))
        short = _record(Group.BD, [(2, 3)] * 15, pid="edge15")
        # no sliding window with a next week: an empty feature table
        shorter = _record(Group.BD, [(2, 3)] * 8, pid="edge8")
        cohort = Cohort(records=base.records + (short, shorter))
        cfg = TaskConfig(seed=0, forest=SMALL_FOREST,
                         instrument=Instrument.ASRM)
        result = run_state_rollout(cohort, cfg)[0]
        for pid in ("edge15", "edge8"):
            assert any(skipped == pid for skipped, _ in result.skipped)
            assert all(p.participant_id != pid for p in result.points)

    def test_two_participant_group_skipped_with_reason(self):
        # each BD participant has one donor: one row is too few for a forest
        cohort = generate_cohort(CohortSpec(sizes=(2, 3, 3), weeks=30, seed=7))
        cfg = TaskConfig(seed=0, forest=SMALL_FOREST,
                         instrument=Instrument.ASRM)
        (result,) = run_state_rollout(cohort, cfg)
        assert result.skipped == tuple(
            (r.id, "needs 2 other participants with > 10 weeks, has 1")
            for r in cohort.by_group(Group.BD)
        )
        assert [p.group for p in result.points] == [Group.HC] * 3 + [Group.BPD] * 3

    def test_both_instruments_equal_one_run_each(self):
        # the skip decisions, donors and windows drawn are shared by both
        base = generate_cohort(CohortSpec(sizes=(4, 4, 4), weeks=30, seed=7))
        cohort = Cohort(records=base.records + (_record(Group.BD, [(2, 3)] * 15, pid="edge15"),))
        cfg = TaskConfig(seed=0, forest=SMALL_FOREST)
        both = run_state_rollout(cohort, cfg)
        assert [r.instrument for r in both] == list(Instrument)
        for result in both:
            (alone,) = run_state_rollout(cohort, replace(cfg, instrument=result.instrument))
            assert result.skipped == alone.skipped
            assert [s[0] for s in result.skipped] == ["edge15"]
            assert ([(p.participant_id, p.group) for p in result.points]
                    == [(p.participant_id, p.group) for p in alone.points])
            for p, q in zip(result.points, alone.points):
                np.testing.assert_array_equal(p.probs, q.probs)

    def test_proportions_quantized(self, small_cohort):
        cfg = TaskConfig(seed=1, forest=SMALL_FOREST,
                         instrument=Instrument.QIDS)
        result = run_state_rollout(small_cohort, cfg)[0]
        assert len(result.points) == 24
        allowed = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}
        for p in result.points:
            np.testing.assert_allclose(p.probs.sum(), 1.0, atol=1e-12)
            assert set(np.round(p.probs, 10)) <= allowed

    def test_always_normal_cohort(self):
        spec = CohortSpec(sizes=(3, 3, 3), weeks=25, seed=8, params=_quiet_params())
        cohort = generate_cohort(spec)
        cfg = TaskConfig(seed=0, forest=SMALL_FOREST,
                         instrument=Instrument.ASRM)
        result = run_state_rollout(cohort, cfg)[0]
        for p in result.points:
            np.testing.assert_array_equal(p.probs, [0.0, 1.0, 0.0])


def test_observed_proportions_are_the_true_proportions_of_the_requested_groups(small_cohort):
    cfg = TaskConfig(groups=(Group.HC, Group.BD))
    records = small_cohort.by_group(Group.HC) + small_cohort.by_group(Group.BD)
    results = observed_proportions(small_cohort, cfg)
    assert [r.instrument for r in results] == list(Instrument)
    for result in results:
        assert result.skipped == ()
        assert ([(p.participant_id, p.group) for p in result.points]
                == [(r.id, r.group) for r in records])
        for p, r in zip(result.points, records):
            np.testing.assert_array_equal(p.probs, true_proportions(r, result.instrument))
