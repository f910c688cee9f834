import numpy as np
import pytest

from moodsig.encode import MISSING, Cohort, Group, ParticipantRecord, weekly
from moodsig.errors import InsufficientDataError
from moodsig.forest import ForestConfig
from moodsig.metrics import report_to_dict
from moodsig.synth import CohortSpec, GroupParams, generate_cohort
from moodsig.tasks import (
    Instrument,
    SeverityBucket,
    StateLabel,
    TaskConfig,
    rollout_eligible,
    run_classification,
    run_score_prediction,
    run_state_prediction,
    run_state_rollout,
    severity_buckets,
    state_labels,
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
    def test_window_defaults(self):
        assert TaskConfig(task="classify").window_length == 20
        assert TaskConfig(task="state_predict").window_length == 10
        assert TaskConfig(task="score_predict").window_length == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskConfig(task="cluster")
        with pytest.raises(ValueError):
            TaskConfig(task="classify", split_fraction=1.0)
        with pytest.raises(ValueError):
            TaskConfig(task="classify", window_length=1)


@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(CohortSpec(sizes=(8, 8, 8), weeks=30, seed=0))


class TestClassification:
    def test_result_shape_and_probabilities(self, small_cohort):
        cfg = TaskConfig(task="classify", seed=1, forest=SMALL_FOREST, bootstrap_samples=30)
        res = run_classification(small_cohort, cfg)
        assert len(res.loo_points) == 24
        for point in res.loo_points:
            assert point.probs.shape == (3,)
            np.testing.assert_allclose(point.probs.sum(), 1.0, atol=1e-12)
        assert res.mrsf_report.confusion.sum() == res.n_test
        assert res.n_train + res.n_test == 24

    def test_deterministic_reruns(self, small_cohort):
        cfg = TaskConfig(task="classify", seed=5, forest=SMALL_FOREST, bootstrap_samples=30)
        a = run_classification(small_cohort, cfg)
        b = run_classification(small_cohort, cfg)
        assert report_to_dict(a.mrsf_report) == report_to_dict(b.mrsf_report)
        assert report_to_dict(a.naive_report) == report_to_dict(b.naive_report)
        for pa, pb in zip(a.loo_points, b.loo_points):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_short_records_excluded(self):
        cohort = generate_cohort(CohortSpec(sizes=(4, 4, 4), weeks=30, seed=2))
        short = _record(Group.BD, [(2, 3)] * 15, pid="short0")
        cohort = Cohort(records=cohort.records + (short,))
        cfg = TaskConfig(task="classify", seed=1, forest=SMALL_FOREST, bootstrap_samples=20)
        res = run_classification(cohort, cfg)
        assert all(p.participant_id != "short0" for p in res.loo_points)

    def test_insufficient_group(self):
        cohort = generate_cohort(CohortSpec(sizes=(4, 4, 4), weeks=30, seed=3))
        only_two_groups = Cohort(
            records=tuple(r for r in cohort.records if r.group is not Group.BPD)
        )
        with pytest.raises(InsufficientDataError):
            run_classification(
                only_two_groups,
                TaskConfig(task="classify", seed=0, forest=SMALL_FOREST),
            )


class TestStatePrediction:
    def test_reports_per_group_and_instrument(self, small_cohort):
        cfg = TaskConfig(task="state_predict", seed=2, forest=SMALL_FOREST, bootstrap_samples=30)
        results = run_state_prediction(small_cohort, cfg)
        combos = {(r.group, r.instrument) for r in results}
        assert combos == {(g, i) for g in Group for i in Instrument}
        for r in results:
            assert r.mrsf_report.confusion.sum() == r.n_test
            assert 0.0 <= r.mrsf_report.accuracy_mean <= 1.0

    def test_quiet_cohort_perfect_normal(self):
        spec = CohortSpec(sizes=(4, 4, 4), weeks=25, seed=4, params=_quiet_params())
        cohort = generate_cohort(spec)
        cfg = TaskConfig(task="state_predict", seed=0, forest=SMALL_FOREST, bootstrap_samples=10)
        for r in run_state_prediction(cohort, cfg):
            assert r.mrsf_report.accuracy_mean == 1.0
            assert r.naive_report.accuracy_mean == 1.0
            # every prediction lands in the Normal row/column
            assert r.mrsf_report.confusion[StateLabel.NORMAL, StateLabel.NORMAL] == r.n_test

    def test_group_filter(self, small_cohort):
        cfg = TaskConfig(
            task="state_predict", seed=2, forest=SMALL_FOREST,
            bootstrap_samples=10, groups=(Group.BD,), instrument=Instrument.ASRM,
        )
        results = run_state_prediction(small_cohort, cfg)
        assert len(results) == 1
        assert results[0].group is Group.BD


class TestScorePrediction:
    def test_constant_scores_zero_error(self):
        spec = CohortSpec(sizes=(4, 4, 4), weeks=25, seed=5, params=_quiet_params())
        cohort = generate_cohort(spec)
        cfg = TaskConfig(task="score_predict", seed=0, forest=SMALL_FOREST, bootstrap_samples=10)
        for r in run_score_prediction(cohort, cfg):
            assert r.mrsf_report.mae == 0.0
            assert r.naive_report.mae == 0.0
            assert r.severity_report.accuracy_mean == 1.0
            assert r.severity_report.mae == 0.0

    def test_reports_finite_on_noisy_cohort(self, small_cohort):
        cfg = TaskConfig(task="score_predict", seed=3, forest=SMALL_FOREST, bootstrap_samples=20)
        results = run_score_prediction(small_cohort, cfg)
        assert len(results) == 6
        for r in results:
            assert np.isfinite(r.mrsf_report.mae) and r.mrsf_report.mae >= 0
            assert np.isfinite(r.naive_report.mae)
            assert r.severity_report.confusion.shape == (5, 5)

    def test_deterministic_reruns(self, small_cohort):
        cfg = TaskConfig(task="score_predict", seed=6, forest=SMALL_FOREST,
                         bootstrap_samples=20, instrument=Instrument.QIDS,
                         groups=(Group.HC,))
        a = run_score_prediction(small_cohort, cfg)
        b = run_score_prediction(small_cohort, cfg)
        assert report_to_dict(a[0].mrsf_report) == report_to_dict(b[0].mrsf_report)
        assert report_to_dict(a[0].severity_report) == report_to_dict(b[0].severity_report)


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
        cfg = TaskConfig(task="state_predict", seed=0, forest=SMALL_FOREST,
                         instrument=Instrument.ASRM)
        result = run_state_rollout(cohort, cfg)[0]
        for pid in ("edge15", "edge8"):
            assert any(skipped == pid for skipped, _ in result.skipped)
            assert all(p.participant_id != pid for p in result.points)

    def test_proportions_quantized(self, small_cohort):
        cfg = TaskConfig(task="state_predict", seed=1, forest=SMALL_FOREST,
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
        cfg = TaskConfig(task="state_predict", seed=0, forest=SMALL_FOREST,
                         instrument=Instrument.ASRM)
        result = run_state_rollout(cohort, cfg)[0]
        for p in result.points:
            np.testing.assert_array_equal(p.probs, [0.0, 1.0, 0.0])
