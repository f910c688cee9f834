"""Synthetic cohort generation.

Each participant runs a latent 3-state mood chain (euthymic, manic,
depressed) with group-specific transition rates. Weekly ASRM/QIDS scores
are Gaussian draws around state-dependent means, rounded and clipped to
instrument ranges. Missingness is a week-level Bernoulli whose probability
can depend on the current latent state and on whether the previous week
was missed, so non-response itself carries group signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encode import (
    ASRM_MAX,
    MISSING,
    QIDS_MAX,
    Cohort,
    Group,
    ParticipantRecord,
    weekly,
)

EUTHYMIC, MANIC, DEPRESSED = 0, 1, 2


def _check_distribution(name, vec, n):
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (n,) or (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be {n} nonnegative entries summing to 1")


@dataclass(frozen=True)
class GroupParams:
    """Latent-chain, emission, and missingness parameters for one group."""

    start: tuple[float, float, float]
    transition: tuple[tuple[float, float, float], ...]
    asrm_means: tuple[float, float, float]
    qids_means: tuple[float, float, float]
    asrm_sd: float
    qids_sd: float
    missing_base: float
    missing_state_boost: float = 0.0
    missing_repeat_boost: float = 0.0

    def __post_init__(self):
        _check_distribution("start", self.start, 3)
        if len(self.transition) != 3:
            raise ValueError("transition must be 3x3")
        for row in self.transition:
            _check_distribution("transition row", row, 3)
        for p in (self.missing_base, self.missing_state_boost, self.missing_repeat_boost):
            if not 0.0 <= p <= 1.0:
                raise ValueError("missing probabilities must lie in [0,1]")
        if self.asrm_sd < 0 or self.qids_sd < 0:
            raise ValueError("dispersions must be nonnegative")


def default_group_params():
    """Qualitative defaults: HC stays euthymic and responds; BD is episodic
    with moderate missingness; BPD switches fast and misses the most."""
    return {
        Group.BD: GroupParams(
            start=(0.7, 0.1, 0.2),
            transition=(
                (0.86, 0.06, 0.08),
                (0.22, 0.74, 0.04),
                (0.18, 0.03, 0.79),
            ),
            asrm_means=(3.0, 11.0, 2.0),
            qids_means=(5.0, 5.0, 15.0),
            asrm_sd=1.8,
            qids_sd=2.2,
            missing_base=0.10,
            missing_state_boost=0.05,
            missing_repeat_boost=0.22,
        ),
        Group.HC: GroupParams(
            start=(0.96, 0.02, 0.02),
            transition=(
                (0.97, 0.015, 0.015),
                (0.80, 0.18, 0.02),
                (0.80, 0.02, 0.18),
            ),
            asrm_means=(1.5, 6.5, 1.0),
            qids_means=(2.5, 3.0, 11.0),
            asrm_sd=1.2,
            qids_sd=1.5,
            missing_base=0.06,
            missing_state_boost=0.02,
            missing_repeat_boost=0.10,
        ),
        Group.BPD: GroupParams(
            start=(0.4, 0.15, 0.45),
            transition=(
                (0.45, 0.20, 0.35),
                (0.40, 0.35, 0.25),
                (0.35, 0.15, 0.50),
            ),
            asrm_means=(3.5, 10.0, 3.0),
            qids_means=(6.0, 6.0, 14.0),
            asrm_sd=2.2,
            qids_sd=2.8,
            missing_base=0.24,
            missing_state_boost=0.10,
            missing_repeat_boost=0.28,
        ),
    }


@dataclass(frozen=True)
class CohortSpec:
    """Sizes are (BD, HC, BPD); all participants get the same week count."""

    sizes: tuple[int, int, int] = (49, 45, 32)
    weeks: int = 51
    seed: int = 0
    params: dict[Group, GroupParams] = field(default_factory=default_group_params)

    def __post_init__(self):
        if len(self.sizes) != 3 or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be three counts >= 1")
        if self.weeks < 20:
            raise ValueError("weeks must be >= 20")
        if set(self.params) != set(Group):
            raise ValueError("params must cover all three groups")


def _simulate_participant(params, weeks, rng):
    obs = []
    state = int(rng.choice(3, p=params.start))
    prev_missing = False
    transition = np.asarray(params.transition)
    for week in range(weeks):
        if week > 0:
            state = int(rng.choice(3, p=transition[state]))
        p_miss = params.missing_base
        if state != EUTHYMIC:
            p_miss += params.missing_state_boost
        if prev_missing:
            p_miss += params.missing_repeat_boost
        missing = rng.random() < min(p_miss, 1.0)
        if missing:
            obs.append((week, MISSING, MISSING))
        else:
            asrm = int(np.clip(np.rint(rng.normal(params.asrm_means[state], params.asrm_sd)), 0, ASRM_MAX))
            qids = int(np.clip(np.rint(rng.normal(params.qids_means[state], params.qids_sd)), 0, QIDS_MAX))
            obs.append((week, asrm, qids))
        prev_missing = missing
    return weekly(obs)


def generate_cohort(spec):
    """Deterministic cohort; participant i of group g draws from
    default_rng([seed, g, i]) so generation order never matters."""
    records = []
    for group, size in zip((Group.BD, Group.HC, Group.BPD), spec.sizes):
        params = spec.params[group]
        for i in range(size):
            rng = np.random.default_rng([spec.seed, group.index, i])
            records.append(
                ParticipantRecord(
                    id=f"{group.name}{i:03d}",
                    group=group,
                    weeks=_simulate_participant(params, spec.weeks, rng),
                )
            )
    return Cohort(records=tuple(records))
