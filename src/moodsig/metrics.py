"""Evaluation metrics: confusion matrix, per-class f1, one-vs-rest ROC/AUC,
mean absolute error, and bootstrap resampling summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError

REPORT_FORMAT = "moodsig.eval_report/1"


@dataclass(frozen=True)
class EvalReport:
    """Bootstrap accuracy plus per-class diagnostics.

    Classification reports carry confusion/f1 and, when probabilities were
    available, per-class ROC points and AUC. Regression reports carry mae
    and leave the classification fields as None (accuracy fields NaN).
    """

    accuracy_mean: float
    accuracy_std: float
    bootstrap_samples: int
    confusion: np.ndarray | None = None
    f1: np.ndarray | None = None
    roc: tuple[np.ndarray, ...] | None = None
    auc: np.ndarray | None = None
    mae: float | None = None


def accuracy(y_true, y_pred):
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("need equal-length nonempty label arrays")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, n_classes):
    """Counts with rows = true class, columns = predicted class."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("length mismatch")
    labels = np.concatenate([y_true, y_pred])
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label out of range")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (y_true, y_pred), 1)
    return out


def f1_per_class(confusion):
    """2TP/(row total + column total) per class, 0 where that sum is 0."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValueError("confusion matrix must be square")
    if (confusion < 0).any():
        raise ValueError("confusion matrix must be nonnegative")
    diag = np.diag(confusion).astype(float)
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)
    return np.divide(2 * diag, denom, out=np.zeros(len(diag)), where=denom > 0)


def roc_ovr(probs, y_true, k):
    """One-vs-rest ROC for class k: ((n_points, 2) fpr/tpr array, auc).

    Thresholds sweep the observed class-k scores in descending order with
    ties grouped; the curve starts at (0,0) and ends at (1,1); AUC by the
    trapezoid rule.
    """
    probs = np.asarray(probs, dtype=float)
    y_true = np.asarray(y_true)
    scores = probs[:, k]
    pos = y_true == k
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"class {k} lacks positives or negatives")
    order = np.argsort(-scores, kind="stable")
    sorted_scores, sorted_pos = scores[order], pos[order]
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(~sorted_pos)
    # keep one point per distinct threshold: the last index of each tie block
    last = np.nonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))[0]
    fpr = np.concatenate([[0.0], fp[last] / n_neg])
    tpr = np.concatenate([[0.0], tp[last] / n_pos])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return np.column_stack([fpr, tpr]), auc


def mae(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("need equal-length nonempty arrays")
    return float(np.mean(np.abs(y_true - y_pred)))


def bootstrap(metric, y_true, y_pred, n_resamples=1000, seed=0):
    """Mean and population std of metric over resampled evaluation instances.

    seed may be an int or a tuple of ints; resample r draws indices from
    default_rng(seed + [r]), so each resample's draw depends only on its
    own index.
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    key = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    m = len(y_true)
    vals = np.empty(n_resamples)
    for r in range(n_resamples):
        idx = np.random.default_rng((*key, r)).integers(0, m, size=m)
        vals[r] = metric(y_true[idx], y_pred[idx])
    return float(vals.mean()), float(vals.std())


def evaluate_classification(y_true, y_pred, probs=None, n_classes=None,
                            n_resamples=1000, seed=0):
    """Full classification report; ROC/AUC only when probs is given.

    Classes with no positives or no negatives get an empty ROC and NaN AUC.
    """
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    acc_mean, acc_std = bootstrap(accuracy, y_true, y_pred, n_resamples, seed)
    conf = confusion_matrix(y_true, y_pred, n_classes)
    roc = None
    auc = None
    if probs is not None:
        curves, aucs = [], []
        for k in range(n_classes):
            try:
                pts, a = roc_ovr(probs, y_true, k)
            except UndefinedMetricError:
                pts, a = np.zeros((0, 2)), float("nan")
            curves.append(pts)
            aucs.append(a)
        roc, auc = tuple(curves), np.array(aucs)
    return EvalReport(
        accuracy_mean=acc_mean,
        accuracy_std=acc_std,
        bootstrap_samples=n_resamples,
        confusion=conf,
        f1=f1_per_class(conf),
        roc=roc,
        auc=auc,
    )


def evaluate_regression(y_true, y_pred, n_resamples=1000, seed=0):
    """Regression report: mae holds the bootstrap mean of MAE and the
    accuracy fields stay NaN (they are meaningless for raw-score targets)."""
    mae_mean, _ = bootstrap(mae, y_true, y_pred, n_resamples, seed)
    return EvalReport(
        accuracy_mean=float("nan"),
        accuracy_std=float("nan"),
        bootstrap_samples=n_resamples,
        mae=mae_mean,
    )


def _array_or_none(x):
    return None if x is None else np.asarray(x).tolist()


def report_to_dict(report):
    """JSON-ready dict with NaN encoded as None."""

    def clean(v):
        return None if v is None or (isinstance(v, float) and np.isnan(v)) else v

    return {
        "format": REPORT_FORMAT,
        "accuracy_mean": clean(report.accuracy_mean),
        "accuracy_std": clean(report.accuracy_std),
        "bootstrap_samples": report.bootstrap_samples,
        "confusion": _array_or_none(report.confusion),
        "f1": _array_or_none(report.f1),
        "roc": None if report.roc is None else [c.tolist() for c in report.roc],
        "auc": None if report.auc is None
        else [clean(float(a)) for a in report.auc],
        "mae": clean(report.mae),
    }
