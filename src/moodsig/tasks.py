"""The three experiments: diagnostic-group classification, next-week mood
state prediction, and next-week score/severity prediction, each run with
signature features (MRSF) and a mean-score naive baseline under identical
window draws, splits, and seeds, so the feature map is the only variable;
plus the rolled-out and the observed state proportions of the state spectra.
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
    mrsf,
    mrsf_width,
    naive_features,
)
from .errors import InsufficientDataError
from .forest import CLASSIFY, REGRESS, ForestConfig, fit, score_many
from .metrics import EvalReport, evaluate_classification, evaluate_regression, mae

CLASSIFY_WINDOW = 20  # weeks in a classification window
PREDICT_WINDOW = 10  # weeks in a prediction or rollout window
HORIZON = 5  # the rollout predicts each participant's last HORIZON states


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
    """Shared experiment settings; `window_length=None` means each task's own
    window: `CLASSIFY_WINDOW` weeks for classification, `PREDICT_WINDOW` for
    the prediction tasks and the rollout."""

    window_length: int | None = None
    signature_level: int = 2
    split_fraction: float = 0.7
    instrument: Instrument | None = None
    groups: tuple[Group, ...] | None = None
    seed: int = 0
    forest: ForestConfig = field(default_factory=ForestConfig)
    bootstrap_samples: int = 1000

    def __post_init__(self):
        if self.window_length is not None and self.window_length < 2:
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
class PredictionResult:
    """One group x instrument of a prediction task; only score prediction
    sets `severity_report`, its MRSF predictions bucketed by severity."""

    group: Group
    instrument: Instrument
    mrsf_report: EvalReport
    naive_report: EvalReport
    n_train: int
    n_test: int
    severity_report: EvalReport | None = None


@dataclass(frozen=True)
class StatePoints:
    """One instrument's per-participant state proportions and (id, reason) skips."""

    instrument: Instrument
    points: tuple[ProbabilityPoint, ...]
    skipped: tuple[tuple[str, str], ...] = ()


def _proportions(labels):
    """The frequency of each `StateLabel` among `labels`."""
    return np.bincount(labels, minlength=len(StateLabel)) / len(labels)


def true_proportions(record, instrument):
    """Observed frequency of (NoAnswer, Normal, Elevated) over the record."""
    if record.n_weeks < 1:
        raise InsufficientDataError("record has no weeks")
    return _proportions(state_labels(record.weeks[instrument.value], instrument))


def observed_proportions(cohort, config):
    """The `true_proportions` of every record of the requested groups, group
    by group, as one `StatePoints` per instrument."""
    records = [r for g in config.group_list for r in cohort.by_group(g)]
    return tuple(StatePoints(ins, tuple(ProbabilityPoint(r.id, r.group, true_proportions(r, ins))
                                        for r in records))
                 for ins in config.instruments)


def _split_indices(n, fraction, rng):
    # both sides stay nonempty
    order = rng.permutation(n)
    k = min(max(int(round(fraction * n)), 1), n - 1)
    return np.sort(order[:k]), np.sort(order[k:])


def _eligible(records, groups, min_weeks):
    """The records of `groups` with at least `min_weeks` weeks, in their
    given order; every group needs two of them."""
    eligible = [r for r in records if r.group in groups and r.n_weeks >= min_weeks]
    for g in groups:
        if sum(r.group is g for r in eligible) < 2:
            raise InsufficientDataError(f"group {g.name} has < 2 eligible participants")
    return eligible


def _feature_table(runs, level, wl):
    """The sliding-window feature table of a list of runs of weeks, stacked
    run by run: the MRSF matrix at signature `level`, the naive matrix and
    `owner`, the run index of each row. Run k owns `max(len(run) - wl + 1,
    0)` rows, its windows of `wl` weeks in order of their first week, from
    one sliding `mrsf` and one sliding `naive_features` call copied into
    the preallocated matrices."""
    counts = [max(len(run) - wl + 1, 0) for run in runs]
    owner = np.repeat(np.arange(len(runs)), counts)
    X_mrsf = np.empty((len(owner), mrsf_width(level)))
    X_naive = np.empty((len(owner), 2))
    for run, stop, n in zip(runs, np.cumsum(counts), counts):
        X_mrsf[stop - n:stop] = mrsf(run, level, wl)
        X_naive[stop - n:stop] = naive_features(run, wl)
    return X_mrsf, X_naive, owner


def _paired_models(tables, y, train, test, mode, config, seed, n_classes=None):
    """Yields `(model, X_test)` for the MRSF and then the naive matrix of
    `tables`: one `fit` to `y` on rows `train` with `seed`, and rows `test`,
    so the feature map is the only variable between the two models. Lazy,
    so each model is freed once the caller takes the next."""
    for X in tables:
        yield (fit(X[train], y[train], mode, config.forest, seed=seed, n_classes=n_classes),
               X[test])


def _classification_report(model, X, y, config, seed):
    """The 3-class report of `model`'s predictions on `X`, bootstrapped with
    `seed`."""
    probs = model.predict_proba(X)
    return evaluate_classification(
        y, probs.argmax(axis=1), probs=probs, n_classes=3,
        n_resamples=config.bootstrap_samples, seed=seed,
    )


def classification_windows(cohort, config):
    """One random window of `window_length` weeks per participant of every
    group, its start drawn from `(seed, 101)`: the eligible records, their
    MRSF rows and their naive rows."""
    wl = config.window_length or CLASSIFY_WINDOW
    records = _eligible(cohort.records, tuple(Group), wl)
    window_rng = np.random.default_rng((config.seed, 101))
    starts = [int(window_rng.integers(0, r.n_weeks - wl + 1)) for r in records]
    runs = [r.weeks[s:s + wl] for r, s in zip(records, starts)]
    return records, *_feature_table(runs, config.signature_level, wl)[:2]


def loo_points(records, X_mrsf, config):
    """Leave-one-out probability vectors of the participants in
    `config.group_list`: participant `i`'s MRSF row scored by a forest fit
    on every other row, of all groups, with seed `(seed, 106, i)`. The
    vectors are those of `fit(...).predict_proba`, but no ensemble is
    built: `score_many` grows each tree only until the held-out row sits in
    a leaf, and each job names its rows of the one table."""
    y = np.array([r.group.index for r in records])
    scored = [i for i, r in enumerate(records) if r.group in config.group_list]
    every = np.arange(len(records))
    # the fits are independent, so they share the worker pool as one stream
    probs = score_many(X_mrsf, y, CLASSIFY, config.forest,
                       ((every[every != i], [i], (config.seed, 106, i)) for i in scored), 3)
    return tuple(ProbabilityPoint(records[i].id, records[i].group, p[0])
                 for i, p in zip(scored, probs))


def run_classification(cohort, config):
    """The windows of `classification_windows`; stratified 70/30 split;
    identical split and forest seed for the MRSF and naive models; plus
    the `loo_points` of the MRSF rows."""
    records, *tables = classification_windows(cohort, config)
    y = np.array([r.group.index for r in records])

    split_rng = np.random.default_rng((config.seed, 102))
    train_idx, test_idx = [], []
    for g in Group:
        grp = np.nonzero(y == g.index)[0]
        tr, te = _split_indices(len(grp), config.split_fraction, split_rng)
        train_idx.extend(grp[tr])
        test_idx.extend(grp[te])
    train_idx, test_idx = np.sort(train_idx), np.sort(test_idx)

    reports = [
        _classification_report(model, X_test, y[test_idx], config, (config.seed, 104))
        for model, X_test in _paired_models(tables, y, train_idx, test_idx, CLASSIFY, config,
                                            (config.seed, 103), n_classes=3)
    ]

    return ClassificationResult(
        *reports, loo_points(records, tables[0], config), len(train_idx), len(test_idx)
    )


def _paired_forests(cohort, config, seeds, targets, mode, n_classes=None):
    """The skeleton of both prediction tasks.

    Per group: one `_feature_table` of every window with a next week, and a
    participant split seeded by `(seed, seeds[0], group)`, so no participant
    contributes windows to both sides. Per instrument: `targets(weeks,
    instrument)` gives one participant's next-week targets and the mask of
    windows kept, and each side's rows are the kept rows its participants
    own. Yields `(group, instrument, y_train, y_test, models)`, where
    `models` is the `_paired_models` of those rows with seed `(seed,
    seeds[1], group)`; items may be used in any order."""
    split_ns, fit_ns = seeds
    wl = config.window_length or PREDICT_WINDOW
    eligible = _eligible(cohort.records, config.group_list, wl + 1)
    for g in config.group_list:
        recs = [r for r in eligible if r.group is g]
        *tables, owner = _feature_table([r.weeks[:-1] for r in recs], config.signature_level, wl)
        split_rng = np.random.default_rng((config.seed, split_ns, g.index))
        tr, te = _split_indices(len(recs), config.split_fraction, split_rng)
        for instrument in config.instruments:
            y, keep = map(np.concatenate, zip(*(targets(r.weeks[wl:], instrument) for r in recs)))
            train, test = (np.flatnonzero(keep & np.isin(owner, side)) for side in (tr, te))
            if len(train) < 2 or len(test) < 1:
                raise InsufficientDataError(
                    f"group {g.name} lacks next-week {instrument.name} targets "
                    "on one side of the split"
                )
            yield g, instrument, y[train], y[test], _paired_models(
                tables, y, train, test, mode, config, (config.seed, fit_ns, g.index), n_classes
            )


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
    for g, instrument, y_train, y_test, models in _paired_forests(
        cohort, config, (201, 202), _state_targets, CLASSIFY, n_classes=3
    ):
        mrsf_report, naive_report = (
            _classification_report(model, X_test, y_test, config, (config.seed, 203, g.index))
            for model, X_test in models
        )
        results.append(PredictionResult(
            g, instrument, mrsf_report, naive_report, len(y_train), len(y_test)
        ))
    return tuple(results)


def run_score_prediction(cohort, config):
    """Per-group regressors for the next week's raw score, evaluated only
    where that response is present; predictions are clipped to the
    instrument range; the severity report buckets the MRSF predictions."""
    results = []
    for g, instrument, y_train, y_test, models in _paired_forests(
        cohort, config, (301, 302), _score_targets, REGRESS
    ):
        preds = [np.clip(model.predict(X_test), 0, instrument.max_score)
                 for model, X_test in models]
        reports = [
            evaluate_regression(y_test, pred, n_resamples=config.bootstrap_samples,
                                seed=(config.seed, 303, g.index))
            for pred in preds
        ]
        bucket_true = severity_buckets(y_test.astype(int), instrument)
        bucket_pred = severity_buckets(np.rint(preds[0]).astype(int), instrument)
        severity = evaluate_classification(
            bucket_true, bucket_pred, probs=None, n_classes=5,
            n_resamples=config.bootstrap_samples,
            seed=(config.seed, 304, g.index),
        )
        severity = replace(severity, mae=mae(bucket_true, bucket_pred))
        results.append(PredictionResult(
            g, instrument, *reports, len(y_train), len(y_test), severity_report=severity
        ))
    return tuple(results)


def rollout_eligible(record, window_length=PREDICT_WINDOW):
    """Whether `record` has more than `HORIZON` sliding windows of
    `window_length` weeks with a next-week target, as the rollout needs."""
    return record.n_weeks - window_length > HORIZON


def run_state_rollout(cohort, config):
    """For each eligible participant, train a per-participant model on one
    random (window, next week) instance from every other same-group
    participant with such an instance (a donor), then predict the
    participant's last `HORIZON` states and return their proportions. A
    participant with fewer than 2 donors is skipped. Everything but the
    labels, the fit and the prediction is decided once for both instruments."""
    wl = config.window_length or PREDICT_WINDOW
    points = {instrument: [] for instrument in config.instruments}
    skipped = []
    for g in config.group_list:
        recs = cohort.by_group(g)
        # the MRSF rows of every window with a next week
        table = [mrsf(r.weeks[:-1], config.signature_level, wl) for r in recs]
        for i, rec in enumerate(recs):
            if not rollout_eligible(rec, wl):
                skipped.append((rec.id, f"needs > {HORIZON} windows of {wl} weeks"))
                continue
            donors = [k for k, rows in enumerate(table) if len(rows) and k != i]
            if len(donors) < 2:
                skipped.append(
                    (rec.id, f"needs 2 other participants with > {wl} weeks, has {len(donors)}")
                )
                continue
            starts = [int(np.random.default_rng((config.seed, 401, g.index, i, j))
                          .integers(0, len(table[k]))) for j, k in enumerate(donors)]
            X = np.array([table[k][s] for k, s in zip(donors, starts)])
            # the week after each drawn window
            targets = [recs[k].weeks[wl + s] for k, s in zip(donors, starts)]
            for instrument, pts in points.items():
                y = state_labels([w[instrument.value] for w in targets], instrument)
                model = fit(X, y, CLASSIFY, config.forest,
                            seed=(config.seed, 402, g.index, i), n_classes=3)
                labels = model.predict(table[i][-HORIZON:]).astype(int)
                pts.append(ProbabilityPoint(rec.id, g, _proportions(labels)))
    return tuple(StatePoints(instrument, tuple(pts), tuple(skipped))
                 for instrument, pts in points.items())
