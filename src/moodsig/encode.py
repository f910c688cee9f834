"""Missing-response encoding of paired weekly mood scores into signature-ready paths.

Raw data per participant is a weekly stream of paired (ASRM, QIDS) totals
where a skipped week carries the ``MISSING`` sentinel in both coordinates.
Encoding fills each gap with the nearest past valid value, counts misses
cumulatively as a third channel, rescales all three channels to [0, 1] and
accumulates them over time so that feature extraction sees a monotone
3-dimensional path starting at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientDataError
from .sigcore import stream_signature

MISSING = -1
ASRM_MAX = 20
QIDS_MAX = 27


class Group(Enum):
    """Diagnostic group labels; enum order fixes class indices 0, 1, 2."""

    BD = "BD"
    HC = "HC"
    BPD = "BPD"

    @property
    def index(self) -> int:
        return list(Group).index(self)


# one week of paired totals; both scores are MISSING for a skipped week.
# The score fields are the `tasks.Instrument` values, so
# `weeks[instrument.value]` is an instrument's score column.
WEEK = np.dtype([("week", np.int64), ("asrm", np.int64), ("qids", np.int64)])


def weekly(rows) -> np.recarray:
    """A read-only record array of `(week, asrm, qids)` tuples, the form of
    every participant's weeks; element `i` reads `.week`, `.asrm`, `.qids`."""
    weeks = np.fromiter(rows, dtype=WEEK).view(np.recarray)
    weeks.flags.writeable = False
    return weeks


@dataclass(frozen=True, eq=False)
class ParticipantRecord:
    id: str
    group: Group
    weeks: np.recarray

    # an array's == is elementwise, so weeks compare with np.array_equal
    def __eq__(self, other):
        if not isinstance(other, ParticipantRecord):
            return NotImplemented
        return (self.id, self.group) == (other.id, other.group) and np.array_equal(
            self.weeks, other.weeks
        )

    @property
    def n_weeks(self) -> int:
        return len(self.weeks)


@dataclass(frozen=True)
class Cohort:
    """Participant records plus the (id, reason) pairs dropped at ingestion."""

    records: tuple[ParticipantRecord, ...]
    exclusions: tuple[tuple[str, str], ...] = ()

    def by_group(self, group: Group) -> tuple[ParticipantRecord, ...]:
        return tuple(r for r in self.records if r.group == group)


def _scores(weeks) -> np.ndarray:
    return np.stack([weeks["asrm"], weeks["qids"]], axis=-1).astype(float)


def _windows(weeks, window_length):
    """The (n_windows, window_length, 2) float scores of every run of
    `window_length` consecutive weeks, as a strided view."""
    raw = _scores(weeks)
    if len(raw) < window_length:
        return np.empty((0, window_length, 2))
    # (n_windows, 2, wl) view -> (n_windows, wl, 2)
    windows = np.lib.stride_tricks.sliding_window_view(raw, window_length, axis=0)
    return windows.swapaxes(-1, -2)


def _fill(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # feed_forward_fill over raw scores of shape (..., n, 2)
    n = raw.shape[-2]
    valid = raw != MISSING
    week = np.arange(n)[:, None]
    # the latest valid week at or before t, or -1 in a leading gap
    source = np.maximum.accumulate(np.where(valid, week, -1), axis=-2)
    first_valid = np.argmax(valid, axis=-2)[..., None, :]
    source = np.where(source < 0, first_valid, source)
    filled = np.take_along_axis(raw, source, axis=-2)
    filled = np.where(valid.any(axis=-2, keepdims=True), filled, 0.0)
    missing_count = np.cumsum((~valid).any(axis=-1), axis=-1)
    return filled, missing_count


def feed_forward_fill(window: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill missing scores from the nearest past valid value and count misses.

    Returns an (n, 2) float matrix of filled (ASRM, QIDS) scores and an
    (n,) integer vector where entry t is the number of missing weeks among
    weeks 0..t.  Leading missing weeks are back-filled from the first valid
    observation (zero increments, so signature-neutral); an entirely missing
    window is filled with 0.
    """
    if len(window) < 1:
        raise InsufficientDataError("window must contain at least one week")
    return _fill(_scores(window))


def normalize_and_cumulate(
    filled: np.ndarray, missing_count: np.ndarray, window_length: int
) -> np.ndarray:
    """Scale channels to [0, 1] and accumulate them into an (n+1, 3) path.

    Per-week values are divided by the instrument maxima (ASRM 20, QIDS 27)
    and the cumulative miss count by the window length, then summed over time
    with a zero basepoint row prepended.  Row t is the running sum of scaled
    rows 1..t, so level-1 signature terms equal the total scaled mass.
    Leading batch axes carry through: ``(..., n, 2)`` scores and ``(..., n)``
    counts give ``(..., n+1, 3)`` paths.
    """
    filled = np.asarray(filled, dtype=float)
    missing_count = np.asarray(missing_count, dtype=float)
    if filled.ndim < 2 or filled.shape[-1] != 2 or missing_count.shape != filled.shape[:-1]:
        raise ValueError("filled must be (..., n, 2) and missing_count (..., n)")
    if filled.shape[-2] == 0 or window_length < 1:
        raise InsufficientDataError("cannot encode an empty window")
    scaled = np.stack(
        [filled[..., 0] / ASRM_MAX, filled[..., 1] / QIDS_MAX,
         missing_count / window_length],
        axis=-1,
    )
    path = np.zeros(scaled.shape[:-2] + (scaled.shape[-2] + 1, 3))
    path[..., 1:, :] = np.cumsum(scaled, axis=-2)
    return path


def mrsf(
    weeks: np.recarray,
    level: int = 2,
    window_length: int | None = None,
) -> np.ndarray:
    """Missing-response-incorporated signature features of one window.

    The flattened truncated signature of the filled, normalized, cumulated
    3-channel path, with the constant level-0 term dropped; length is
    sum(3**k for k = 1..level), i.e. 12 at level 2.

    Sliding form: with ``window_length`` set, ``weeks`` is a run of weeks
    and the result has one row per window of ``window_length`` consecutive
    weeks, where row s equals ``mrsf(weeks[s:s + window_length], level)``
    exactly.  Every window is encoded at once and all their signatures come
    from one stacked ``stream_signature`` call; fewer weeks than
    ``window_length`` give a (0, length) table.
    """
    wl = len(weeks) if window_length is None else window_length
    if wl < 2:
        raise InsufficientDataError("need at least 2 weeks for signature features")
    path = normalize_and_cumulate(*_fill(_windows(weeks, wl)), wl)
    features = stream_signature(path, level).flatten()
    return features[0] if window_length is None else features


def naive_features(weeks: np.recarray, window_length: int | None = None) -> np.ndarray:
    """Per-instrument mean over valid scores only; an all-missing instrument yields 0.

    Sliding form as in `mrsf`: with ``window_length`` set, one row per
    window of ``window_length`` consecutive weeks, an (n_windows, 2) table.
    """
    wl = len(weeks) if window_length is None else window_length
    if wl < 1:
        raise InsufficientDataError("window must contain at least one week")
    windows = _windows(weeks, wl)
    valid = windows != MISSING
    # integer sums are exact in any order, so each mean is bit-exact
    count = valid.sum(axis=-2)
    total = np.where(valid, windows, 0.0).sum(axis=-2)
    means = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    return means[0] if window_length is None else means


def extract_window(
    record: ParticipantRecord, length: int, rng: np.random.Generator
) -> np.recarray:
    """Contiguous block of `length` weeks starting at a uniformly drawn index."""
    if record.n_weeks < length:
        raise InsufficientDataError(
            f"participant {record.id} has {record.n_weeks} weeks, needs {length}"
        )
    start = int(rng.integers(0, record.n_weeks - length + 1))
    return record.weeks[start : start + length]
