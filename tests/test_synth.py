import numpy as np
import pytest

from moodsig.encode import ASRM_MAX, MISSING, QIDS_MAX, Cohort, Group
from moodsig.synth import CohortSpec, GroupParams, default_group_params, generate_cohort
from oracles import missing_rate


def _flat_params(missing_base, state_boost=0.0, repeat_boost=0.0):
    p = GroupParams(
        start=(1 / 3, 1 / 3, 1 / 3),
        transition=((1 / 3,) * 3,) * 3,
        asrm_means=(3.0, 10.0, 2.0),
        qids_means=(4.0, 4.0, 14.0),
        asrm_sd=1.5,
        qids_sd=2.0,
        missing_base=missing_base,
        missing_state_boost=state_boost,
        missing_repeat_boost=repeat_boost,
    )
    return {g: p for g in Group}


class TestShape:
    def test_default_cohort_shape(self):
        cohort = generate_cohort(CohortSpec(seed=0))
        assert len(cohort.records) == 126
        sizes = {g: sum(r.group == g for r in cohort.records) for g in Group}
        assert sizes == {Group.BD: 49, Group.HC: 45, Group.BPD: 32}
        assert all(r.n_weeks == 51 for r in cohort.records)
        assert len({r.id for r in cohort.records}) == 126

    def test_weeks_indexed_consecutively(self):
        cohort = generate_cohort(CohortSpec(sizes=(2, 2, 2), weeks=25, seed=3))
        for rec in cohort.records:
            assert [o.week for o in rec.weeks] == list(range(25))


class TestScores:
    def test_scores_in_range_and_missing_paired(self):
        cohort = generate_cohort(CohortSpec(seed=1))
        for rec in cohort.records:
            missing = rec.weeks.asrm == MISSING
            assert np.array_equal(missing, rec.weeks.qids == MISSING)
            answered = rec.weeks[~missing]
            assert ((0 <= answered.asrm) & (answered.asrm <= ASRM_MAX)).all()
            assert ((0 <= answered.qids) & (answered.qids <= QIDS_MAX)).all()

    def test_zero_missing_probability(self):
        spec = CohortSpec(sizes=(3, 3, 3), weeks=40, seed=5, params=_flat_params(0.0))
        cohort = generate_cohort(spec)
        assert missing_rate(cohort) == 0.0

    def test_missing_rate_law_of_large_numbers(self):
        spec = CohortSpec(sizes=(4, 3, 3), weeks=1000, seed=7, params=_flat_params(0.3))
        assert abs(missing_rate(generate_cohort(spec)) - 0.3) < 0.01


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_cohort(CohortSpec(sizes=(5, 4, 3), weeks=30, seed=11))
        b = generate_cohort(CohortSpec(sizes=(5, 4, 3), weeks=30, seed=11))
        assert a.records == b.records

    def test_different_seed_differs(self):
        a = generate_cohort(CohortSpec(sizes=(5, 4, 3), weeks=30, seed=11))
        b = generate_cohort(CohortSpec(sizes=(5, 4, 3), weeks=30, seed=12))
        assert a.records != b.records

    def test_group_streams_independent_of_other_sizes(self):
        small = generate_cohort(CohortSpec(sizes=(2, 2, 2), weeks=25, seed=2))
        large = generate_cohort(CohortSpec(sizes=(6, 2, 2), weeks=25, seed=2))
        small_hc = [r for r in small.records if r.group is not Group.BD]
        large_hc = [r for r in large.records if r.group is not Group.BD]
        assert small_hc == large_hc


class TestValidation:
    def test_bad_transition_row(self):
        with pytest.raises(ValueError):
            GroupParams(
                start=(1.0, 0.0, 0.0),
                transition=((0.5, 0.4, 0.2), (1 / 3,) * 3, (1 / 3,) * 3),
                asrm_means=(1, 1, 1),
                qids_means=(1, 1, 1),
                asrm_sd=1.0,
                qids_sd=1.0,
                missing_base=0.1,
            )

    def test_bad_missing_probability(self):
        with pytest.raises(ValueError):
            GroupParams(
                start=(1.0, 0.0, 0.0),
                transition=((1 / 3,) * 3,) * 3,
                asrm_means=(1, 1, 1),
                qids_means=(1, 1, 1),
                asrm_sd=1.0,
                qids_sd=1.0,
                missing_base=1.5,
            )

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            CohortSpec(sizes=(0, 1, 1))
        with pytest.raises(ValueError):
            CohortSpec(weeks=19)

    def test_default_params_cover_groups(self):
        assert set(default_group_params()) == set(Group)


class TestGroupSignal:
    def test_bpd_missing_rate_highest(self):
        cohort = generate_cohort(CohortSpec(seed=0))
        rates = {g: missing_rate(Cohort(records=cohort.by_group(g))) for g in Group}
        assert rates[Group.BPD] > 0.25
        assert rates[Group.BPD] > rates[Group.BD] > rates[Group.HC]
