"""The three experiments: diagnostic-group classification, next-week mood
state prediction, and next-week score/severity prediction, each run with
signature features (MRSF) and a mean-score naive baseline under identical
window draws, splits, and seeds, so the feature map is the only variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum

import numpy as np

from .encode import (
    ASRM_MAX,
    MISSING,
    QIDS_MAX,
    Group,
    extract_window,
    mrsf,
    naive_features,
)
from .errors import InsufficientDataError
from .forest import CLASSIFY, REGRESS, ForestConfig, fit, fit_many
from .metrics import EvalReport, evaluate_classification, evaluate_regression, mae

CLASSIFY_TASK = "classify"
STATE_TASK = "state_predict"
SCORE_TASK = "score_predict"


class Instrument(Enum):
    ASRM = "asrm"
    QIDS = "qids"

    @property
    def max_score(self):
        return ASRM_MAX if self is Instrument.ASRM else QIDS_MAX

    @property
    def elevated_threshold(self):
        return 5 if self is Instrument.ASRM else 10


class StateLabel(IntEnum):
    NO_ANSWER = 0
    NORMAL = 1
    ELEVATED = 2


class SeverityBucket(IntEnum):
    NONE0 = 0
    MILD = 1
    MODERATE = 2
    SEVERE = 3
    VERY_SEVERE = 4


_SEVERITY_EDGES = {Instrument.ASRM: (6, 10, 14, 18), Instrument.QIDS: (6, 11, 16, 21)}


def _check_range(scores, instrument):
    bad = (scores < 0) | (scores > instrument.max_score)
    if bad.any():
        raise ValueError(f"score {scores[bad][0]} outside {instrument.name} range")


def state_labels(scores, instrument):
    """Each week's state: missing response, normal, or elevated mood, as
    `StateLabel` values."""
    scores = np.asarray(scores)
    answered = scores != MISSING
    _check_range(scores[answered], instrument)
    elevated = scores > instrument.elevated_threshold
    return np.where(answered, np.where(elevated, StateLabel.ELEVATED, StateLabel.NORMAL),
                    StateLabel.NO_ANSWER)


def severity_buckets(scores, instrument):
    """Five-level severity of each score from the instrument's published
    cut-offs, as `SeverityBucket` values."""
    scores = np.asarray(scores)
    _check_range(scores, instrument)
    return np.searchsorted(_SEVERITY_EDGES[instrument], scores, side="right")


@dataclass(frozen=True)
class TaskConfig:
    """Shared experiment settings; window_length defaults to 20 for
    classification and 10 for the prediction tasks."""

    task: str
    window_length: int | None = None
    signature_level: int = 2
    split_fraction: float = 0.7
    instrument: Instrument | None = None
    groups: tuple[Group, ...] | None = None
    seed: int = 0
    forest: ForestConfig = field(default_factory=ForestConfig)
    bootstrap_samples: int = 1000

    def __post_init__(self):
        if self.task not in (CLASSIFY_TASK, STATE_TASK, SCORE_TASK):
            raise ValueError(f"unknown task {self.task!r}")
        if self.window_length is None:
            default = 20 if self.task == CLASSIFY_TASK else 10
            object.__setattr__(self, "window_length", default)
        if self.window_length < 2:
            raise ValueError("window_length must be >= 2")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0,1)")
        if self.signature_level < 1:
            raise ValueError("signature_level must be >= 1")
        if self.bootstrap_samples < 1:
            raise ValueError("bootstrap_samples must be >= 1")

    @property
    def instruments(self):
        return (self.instrument,) if self.instrument else tuple(Instrument)

    @property
    def group_list(self):
        return self.groups if self.groups else tuple(Group)


@dataclass(frozen=True)
class ProbabilityPoint:
    """A participant's 3-vector (probabilities or state proportions)."""

    participant_id: str
    group: Group
    probs: np.ndarray


@dataclass(frozen=True)
class ClassificationResult:
    mrsf_report: EvalReport
    naive_report: EvalReport
    loo_points: tuple[ProbabilityPoint, ...]
    n_train: int
    n_test: int


@dataclass(frozen=True)
class StatePredictionResult:
    group: Group
    instrument: Instrument
    mrsf_report: EvalReport
    naive_report: EvalReport
    n_train: int
    n_test: int


@dataclass(frozen=True)
class ScorePredictionResult:
    group: Group
    instrument: Instrument
    mrsf_report: EvalReport
    naive_report: EvalReport
    severity_report: EvalReport
    n_train: int
    n_test: int


@dataclass(frozen=True)
class RolloutResult:
    instrument: Instrument
    points: tuple[ProbabilityPoint, ...]
    skipped: tuple[tuple[str, str], ...]


def _split_indices(n, fraction, rng):
    # both sides stay nonempty
    order = rng.permutation(n)
    k = min(max(int(round(fraction * n)), 1), n - 1)
    return np.sort(order[:k]), np.sort(order[k:])


def run_classification(cohort, config):
    """One random 20-week window per participant; stratified 70/30 split;
    identical split and forest seed for the MRSF and naive models; plus
    leave-one-out probability vectors from the MRSF model."""
    wl = config.window_length
    records = [r for r in cohort.records if r.n_weeks >= wl]
    for g in Group:
        if sum(r.group is g for r in records) < 2:
            raise InsufficientDataError(f"group {g.name} has < 2 eligible participants")

    window_rng = np.random.default_rng((config.seed, 101))
    windows = [extract_window(r, wl, window_rng) for r in records]
    X_mrsf = np.array([mrsf(w, config.signature_level) for w in windows])
    X_naive = np.array([naive_features(w) for w in windows])
    y = np.array([r.group.index for r in records])

    split_rng = np.random.default_rng((config.seed, 102))
    train_idx, test_idx = [], []
    for g in Group:
        grp = np.nonzero(y == g.index)[0]
        tr, te = _split_indices(len(grp), config.split_fraction, split_rng)
        train_idx.extend(grp[tr])
        test_idx.extend(grp[te])
    train_idx, test_idx = np.sort(train_idx), np.sort(test_idx)

    reports = []
    for X in (X_mrsf, X_naive):
        model = fit(X[train_idx], y[train_idx], CLASSIFY, config.forest,
                    seed=(config.seed, 103), n_classes=3)
        probs = model.predict_proba(X[test_idx])
        reports.append(
            evaluate_classification(
                y[test_idx], probs.argmax(axis=1), probs=probs, n_classes=3,
                n_resamples=config.bootstrap_samples, seed=(config.seed, 104),
            )
        )

    # the leave-one-out fits are independent, so they share the worker pool
    # as one stream; each model is freed once its point is taken
    loo_fits = fit_many(
        (np.delete(X_mrsf, i, axis=0), np.delete(y, i), CLASSIFY, config.forest,
         (config.seed, 106, i), 3)
        for i in range(len(records))
    )
    loo_points = [
        ProbabilityPoint(rec.id, rec.group, model.predict_proba(X_mrsf[i]))
        for i, (model, rec) in enumerate(zip(loo_fits, records))
    ]

    return ClassificationResult(
        mrsf_report=reports[0],
        naive_report=reports[1],
        loo_points=tuple(loo_points),
        n_train=len(train_idx),
        n_test=len(test_idx),
    )


def _prediction_features(records, config):
    """The sliding-window feature table: per participant, the MRSF matrix,
    the naive matrix and the next-week target weeks, where row `s`
    is the window starting at week index `s`. Every window with a next week
    is kept, so a record of at most `window_length` weeks gets empty
    matrices. The rows come from one sliding `mrsf` and one sliding
    `naive_features` call per record."""
    wl = config.window_length
    feats = []
    for rec in records:
        X_m = mrsf(rec.weeks[:-1], config.signature_level, wl)
        X_n = naive_features(rec.weeks[:-1], wl)
        feats.append((X_m, X_n, rec.weeks[wl:]))
    return feats


def _group_records(cohort, config, min_weeks):
    out = {}
    for g in config.group_list:
        recs = [r for r in cohort.by_group(g) if r.n_weeks >= min_weeks]
        if len(recs) < 2:
            raise InsufficientDataError(f"group {g.name} has < 2 eligible participants")
        out[g] = recs
    return out


def _paired_forests(cohort, config, seeds, targets, mode, n_classes=None):
    """The skeleton of both prediction tasks, so that the feature map is the
    only variable between the MRSF and the naive model.

    Per group: the feature table and a participant split seeded by
    `(seed, seeds[0], group)`, so no participant contributes windows to both
    sides. Per instrument: `targets(weeks, instrument)` gives one
    participant's window targets and the mask of windows kept. Yields
    `(group, instrument, y_train, y_test, fitted)`, where `fitted` yields
    `(model, X_test)` for the MRSF and then the naive features, each forest
    fit on the same rows with seed `(seed, seeds[1], group)`; consume it
    before taking the next item."""
    split_ns, fit_ns = seeds
    by_group = _group_records(cohort, config, config.window_length + 1)
    for g, recs in by_group.items():
        feats = _prediction_features(recs, config)
        split_rng = np.random.default_rng((config.seed, split_ns, g.index))
        tr, te = _split_indices(len(recs), config.split_fraction, split_rng)
        for instrument in config.instruments:
            y, keep = zip(*(targets(obs, instrument) for _, _, obs in feats))
            y_train = np.concatenate([y[i][keep[i]] for i in tr])
            y_test = np.concatenate([y[i][keep[i]] for i in te])
            if len(y_train) < 2 or len(y_test) < 1:
                raise InsufficientDataError(
                    f"group {g.name} lacks next-week {instrument.name} targets "
                    "on one side of the split"
                )

            def stack(col, side):
                return np.vstack([feats[i][col][keep[i]] for i in side])

            # lazy, so each forest is fit when the caller takes it and is
            # freed when the caller moves on
            fitted = (
                (fit(stack(col, tr), y_train, mode, config.forest,
                     seed=(config.seed, fit_ns, g.index), n_classes=n_classes),
                 stack(col, te))
                for col in (0, 1)
            )
            yield g, instrument, y_train, y_test, fitted


def _state_targets(weeks, instrument):
    return state_labels(weeks[instrument.value], instrument), np.ones(len(weeks), dtype=bool)


def _score_targets(weeks, instrument):
    # only windows whose next-week response is present are kept
    scores = weeks[instrument.value]
    return scores.astype(float), scores != MISSING


def run_state_prediction(cohort, config):
    """Per-group 3-class forests predicting the next week's state label from
    each sliding window; participants are split 70/30 so no participant
    contributes instances to both sides."""
    results = []
    for g, instrument, y_train, y_test, fitted in _paired_forests(
        cohort, config, (201, 202), _state_targets, CLASSIFY, n_classes=3
    ):
        reports = []
        for model, X_test in fitted:
            probs = model.predict_proba(X_test)
            reports.append(
                evaluate_classification(
                    y_test, probs.argmax(axis=1), probs=probs, n_classes=3,
                    n_resamples=config.bootstrap_samples,
                    seed=(config.seed, 203, g.index),
                )
            )
        results.append(
            StatePredictionResult(
                group=g,
                instrument=instrument,
                mrsf_report=reports[0],
                naive_report=reports[1],
                n_train=len(y_train),
                n_test=len(y_test),
            )
        )
    return tuple(results)


def run_score_prediction(cohort, config):
    """Per-group regressors for the next week's raw score, evaluated only
    where that response is present; predictions are clipped to the
    instrument range; the severity report buckets the MRSF predictions."""
    results = []
    for g, instrument, y_train, y_test, fitted in _paired_forests(
        cohort, config, (301, 302), _score_targets, REGRESS
    ):
        preds = []
        reports = []
        for model, X_test in fitted:
            pred = np.clip(model.predict(X_test), 0, instrument.max_score)
            preds.append(pred)
            reports.append(
                evaluate_regression(
                    y_test, pred, n_resamples=config.bootstrap_samples,
                    seed=(config.seed, 303, g.index),
                )
            )
        bucket_true = severity_buckets(y_test.astype(int), instrument)
        bucket_pred = severity_buckets(np.rint(preds[0]).astype(int), instrument)
        severity = evaluate_classification(
            bucket_true, bucket_pred, probs=None, n_classes=5,
            n_resamples=config.bootstrap_samples,
            seed=(config.seed, 304, g.index),
        )
        severity = replace(severity, mae=mae(bucket_true, bucket_pred))
        results.append(
            ScorePredictionResult(
                group=g,
                instrument=instrument,
                mrsf_report=reports[0],
                naive_report=reports[1],
                severity_report=severity,
                n_train=len(y_train),
                n_test=len(y_test),
            )
        )
    return tuple(results)


def rollout_eligible(record, window_length=10, horizon=5):
    """More than `horizon` sliding windows with a next-week target."""
    return record.n_weeks - window_length > horizon


def run_state_rollout(cohort, config, horizon=5):
    """For each eligible participant, train a per-participant model on one
    random (window, next week) instance from every other same-group
    participant, then predict the participant's last `horizon` states and
    return their frequencies over the three state labels."""
    wl = config.window_length
    # built once per group and shared by both instruments
    tables = {g: _prediction_features(cohort.by_group(g), config)
              for g in config.group_list}
    results = []
    for instrument in config.instruments:
        points, skipped = [], []
        for g, feats in tables.items():
            recs = cohort.by_group(g)
            states = [state_labels(t[instrument.value], instrument) for _, _, t in feats]
            for i, rec in enumerate(recs):
                if not rollout_eligible(rec, wl, horizon):
                    skipped.append(
                        (rec.id, f"needs > {horizon} windows of {wl} weeks")
                    )
                    continue
                rest = [
                    k for k, r in enumerate(recs) if r.n_weeks >= wl + 1 and r.id != rec.id
                ]
                if not rest:
                    skipped.append((rec.id, "no other eligible participants in group"))
                    continue
                X, y = [], []
                for j, k in enumerate(rest):
                    rng = np.random.default_rng((config.seed, 401, g.index, i, j))
                    start = int(rng.integers(0, len(states[k])))
                    X.append(feats[k][0][start])
                    y.append(states[k][start])
                model = fit(
                    np.array(X), np.array(y, dtype=int), CLASSIFY, config.forest,
                    seed=(config.seed, 402, g.index, i), n_classes=3,
                )
                labels = model.predict(feats[i][0][-horizon:])
                probs = np.bincount(labels.astype(int), minlength=3) / horizon
                points.append(ProbabilityPoint(rec.id, g, probs))
        results.append(
            RolloutResult(instrument=instrument, points=tuple(points),
                          skipped=tuple(skipped))
        )
    return tuple(results)
