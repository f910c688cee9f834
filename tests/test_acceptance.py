"""End-to-end acceptance gate: nine numbered criteria at stated tolerances.

Each test carries an `acceptance` marker; conftest prints one PASS/FAIL
line per criterion in the pytest terminal summary."""

import time

import numpy as np
import pytest
from oracles import riemann_signature_flat

from moodsig.cli import main
from moodsig.encode import (
    MISSING,
    Group,
    ParticipantRecord,
    feed_forward_fill,
    mrsf,
    naive_features,
    weekly,
)
from moodsig.metrics import confusion_matrix, f1_per_class, mae, roc_ovr
from moodsig.sigcore import chen_product, identity_signature, stream_signature
from moodsig.spectrum import contour_mass_fraction, kde2d, simplex_project
from moodsig.synth import CohortSpec, GroupParams, generate_cohort
from moodsig.tasks import (
    Instrument,
    TaskConfig,
    rollout_eligible,
    run_classification,
    run_score_prediction,
    run_state_prediction,
    run_state_rollout,
    severity_buckets,
)


def _close(got, want, rtol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))), float(np.max(np.abs(got))))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


@pytest.fixture(scope="session")
def benchmark_cohort():
    cohort = generate_cohort(CohortSpec())
    assert len(cohort.records) == 126
    assert all(r.n_weeks == 51 for r in cohort.records)
    return cohort


@pytest.mark.acceptance(
    num=1,
    desc="signature identities at 1e-12 on 1000 paths, Riemann oracle at 1e-6, < 30 s",
)
def test_criterion_1_signature_correctness():
    rng = np.random.default_rng(20260817)
    start = time.perf_counter()
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(3, 21))
        p = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        sig = stream_signature(pts, p)
        flat = sig.flatten(include_scalar=True)

        split = int(rng.integers(1, n - 1))
        product = chen_product(
            stream_signature(pts[: split + 1], p), stream_signature(pts[split:], p)
        )
        _close(product.flatten(include_scalar=True), flat, 1e-12)

        if p >= 2:
            level2 = sig.levels[2].reshape(d, d)
            _close(level2 + level2.T, np.outer(sig.levels[1], sig.levels[1]), 1e-12)

        j = int(rng.integers(0, n - 1))
        refined = np.insert(pts, j + 1, (pts[j] + pts[j + 1]) / 2.0, axis=0)
        _close(stream_signature(refined, p).flatten(include_scalar=True), flat, 1e-12)

        round_trip = chen_product(sig, stream_signature(pts[::-1], p))
        _close(
            round_trip.flatten(include_scalar=True),
            identity_signature(d, p).flatten(include_scalar=True),
            1e-12,
        )
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        _close(
            stream_signature(pts, p).flatten(), riemann_signature_flat(pts, p), 1e-6
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"signature checks took {elapsed:.1f}s"


@pytest.mark.acceptance(num=2, desc="encoding invariants on 1000 random windows")
def test_criterion_2_encoding():
    rng = np.random.default_rng(20260818)
    # flat level-1/2 coordinates whose word touches the missing channel (index 2)
    missing_coords = [2] + [
        3 + 3 * i + j for i in range(3) for j in range(3) if i == 2 or j == 2
    ]
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        window = weekly(
            (t, MISSING, MISSING)
            if rng.random() < 0.3
            else (t, int(rng.integers(0, 21)), int(rng.integers(0, 28)))
            for t in range(n)
        )
        _, missing_count = feed_forward_fill(window)
        assert (np.diff(missing_count) >= 0).all()
        assert missing_count[-1] == np.count_nonzero(window.asrm == MISSING)
        if missing_count[-1] == 0:
            features = mrsf(window)
            assert (features[missing_coords] == 0.0).all()
        base = naive_features(window)
        extended = weekly([
            *window.tolist(),
            *((n + t, MISSING, MISSING) for t in range(int(rng.integers(1, 4)))),
        ])
        np.testing.assert_array_equal(naive_features(extended), base)


@pytest.mark.acceptance(num=3, desc="metric hand oracles reproduced exactly")
def test_criterion_3_metric_oracles():
    conf = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
    np.testing.assert_array_equal(conf, [[1, 1], [0, 1]])
    np.testing.assert_allclose(f1_per_class(conf), [2 / 3, 2 / 3])
    assert mae([3.0, 5.0, 10.0], [4.0, 5.0, 7.0]) == 4.0 / 3.0

    probs = np.column_stack([[0.9, 0.8, 0.4, 0.3], [0.1, 0.2, 0.6, 0.7]])
    points, auc = roc_ovr(probs, np.array([0, 1, 0, 1]), 0)
    np.testing.assert_allclose(
        points, [[0, 0], [0, 0.5], [0.5, 0.5], [0.5, 1], [1, 1]]
    )
    assert auc == 0.75

    _, auc_flat = roc_ovr(np.full((6, 2), 0.5), np.array([0, 1, 0, 1, 0, 1]), 0)
    assert auc_flat == 0.5

    rng = np.random.default_rng(20260819)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[0], labels[1] = 0, 1
    _, fwd = roc_ovr(np.column_stack([scores, 1 - scores]), labels, 0)
    _, rev = roc_ovr(np.column_stack([1 - scores, scores]), labels, 0)
    np.testing.assert_allclose(rev, 1.0 - fwd, atol=1e-12)


@pytest.mark.acceptance(
    num=4,
    desc="126x51 benchmark: MRSCM >= naive + 5 points, both >= 48.3%, < 5 min",
)
def test_criterion_4_directional_benchmark(benchmark_cohort):
    start = time.perf_counter()
    result = run_classification(benchmark_cohort, TaskConfig(seed=0))
    elapsed = time.perf_counter() - start
    mrsf_acc = result.mrsf_report.accuracy_mean
    naive_acc = result.naive_report.accuracy_mean
    assert mrsf_acc >= naive_acc + 0.05, f"mrsf {mrsf_acc:.3f} vs naive {naive_acc:.3f}"
    assert mrsf_acc >= 1 / 3 + 0.15
    assert naive_acc >= 1 / 3 + 0.15
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


@pytest.mark.acceptance(
    num=5, desc="no-signal control: both models within [0.23, 0.43]"
)
def test_criterion_5_no_signal_control():
    shared = GroupParams(
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
    )
    cohort = generate_cohort(CohortSpec(params={g: shared for g in Group}))
    result = run_classification(cohort, TaskConfig(seed=0))
    for report in (result.mrsf_report, result.naive_report):
        assert 0.23 <= report.accuracy_mean <= 0.43, report.accuracy_mean


@pytest.mark.acceptance(
    num=6,
    desc="state prediction: MRSF >= naive per group and instrument; rollout sums; 15/16-week edges",
)
def test_criterion_6_state_prediction(benchmark_cohort):
    results = run_state_prediction(benchmark_cohort, TaskConfig(seed=0))
    assert {(r.group, r.instrument) for r in results} == {
        (g, i) for g in Group for i in Instrument
    }
    for r in results:
        assert r.mrsf_report.accuracy_mean >= r.naive_report.accuracy_mean, (
            f"{r.group.name}/{r.instrument.name}: "
            f"mrsf {r.mrsf_report.accuracy_mean:.4f} < "
            f"naive {r.naive_report.accuracy_mean:.4f}"
        )

    rollouts = run_state_rollout(benchmark_cohort, TaskConfig(seed=0))
    assert len(rollouts) == 2
    for rollout in rollouts:
        assert rollout.skipped == ()
        assert len(rollout.points) == 126
        for point in rollout.points:
            assert point.probs.sum() == pytest.approx(1.0, abs=1e-9)

    base = benchmark_cohort.records[0]
    rec15 = ParticipantRecord(id="E15", group=base.group, weeks=base.weeks[:15])
    rec16 = ParticipantRecord(id="E16", group=base.group, weeks=base.weeks[:16])
    assert not rollout_eligible(rec15)
    assert rollout_eligible(rec16)


@pytest.mark.acceptance(
    num=7,
    desc="score prediction: MRSF MAE <= naive; constant scores give MAE 0; severity sweep",
)
def test_criterion_7_score_prediction(benchmark_cohort):
    results = run_score_prediction(benchmark_cohort, TaskConfig(seed=0))
    mrsf_mae = np.mean([r.mrsf_report.mae for r in results])
    naive_mae = np.mean([r.naive_report.mae for r in results])
    assert mrsf_mae <= naive_mae, f"mrsf {mrsf_mae:.4f} vs naive {naive_mae:.4f}"

    constant = GroupParams(
        start=(1.0, 0.0, 0.0),
        transition=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        asrm_means=(3.0, 3.0, 3.0),
        qids_means=(5.0, 5.0, 5.0),
        asrm_sd=0.0,
        qids_sd=0.0,
        missing_base=0.0,
    )
    flat_cohort = generate_cohort(
        CohortSpec(sizes=(8, 8, 8), weeks=24, params={g: constant for g in Group})
    )
    flat_results = run_score_prediction(
        flat_cohort,
        TaskConfig(seed=0, bootstrap_samples=100),
    )
    for r in flat_results:
        assert r.mrsf_report.mae == 0.0
        assert r.naive_report.mae == 0.0

    asrm_expected = [0] * 6 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 3
    assert severity_buckets(np.arange(21), Instrument.ASRM).tolist() == asrm_expected
    qids_expected = [0] * 6 + [1] * 5 + [2] * 5 + [3] * 5 + [4] * 7
    assert severity_buckets(np.arange(28), Instrument.QIDS).tolist() == qids_expected


@pytest.mark.acceptance(
    num=8,
    desc="simplex properties on 1000 vectors, worked example at 1e-12, KDE mass within 2% at resolution 400",
)
def test_criterion_8_spectrum():
    rng = np.random.default_rng(20260820)
    for _ in range(1000):
        p = rng.dirichlet([1.0, 1.0, 1.0])
        q = rng.dirichlet([1.0, 1.0, 1.0])
        lam = rng.random()
        mixed = simplex_project(lam * p + (1 - lam) * q).xy
        np.testing.assert_allclose(
            mixed,
            lam * simplex_project(p).xy + (1 - lam) * simplex_project(q).xy,
            atol=1e-12,
        )
        perm = rng.permutation(3)
        expected = sum(
            p[perm[i]] * simplex_project(np.eye(3)[i]).xy for i in range(3)
        )
        np.testing.assert_allclose(simplex_project(p[perm]).xy, expected, atol=1e-12)

    np.testing.assert_allclose(
        simplex_project([0.1, 0.5, 0.4]).xy,
        [0.7, 0.2 * np.sqrt(3)],
        rtol=1e-12,
        atol=1e-12,
    )

    u = rng.random(1000)
    v = rng.random(1000)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    points = [simplex_project(p) for p in np.column_stack([1 - u - v, u, v])]
    grid = kde2d(points, resolution=400)
    for level in (0.25, 0.5, 0.75):
        fraction = contour_mass_fraction(grid, level)
        assert abs(fraction - level) <= 0.02, f"{level}: {fraction:.4f}"


@pytest.mark.acceptance(num=9, desc="CLI reruns with the same config are byte-identical")
def test_criterion_9_cli_determinism(tmp_path):
    out = str(tmp_path / "runs")

    def run(argv):
        assert main(argv) == 0

    run(["synth", "--sizes", "4,4,4", "--weeks", "24", "--seed", "5", "-o", out])
    (cohort_csv,) = (tmp_path / "runs").glob("synth-*/cohort.csv")
    common = ["--input", str(cohort_csv), "--seed", "5", "--n-trees", "6", "-o", out]
    # only the commands that evaluate a held-out split read the resample count
    evaluate = common + ["--bootstrap-samples", "40"]
    commands = [
        ["synth", "--sizes", "4,4,4", "--weeks", "24", "--seed", "5", "-o", out],
        ["classify"] + evaluate,
        ["predict-state"] + evaluate,
        ["predict-score"] + evaluate,
        # observed proportions read neither the seed nor the model flags
        ["spectrum", "--input", str(cohort_csv), "-o", out, "--source", "true",
         "--resolution", "48"],
        ["spectrum"] + common + ["--source", "state", "--resolution", "48"],
    ]
    for argv in commands:
        run(argv)
    snapshot = {
        p: p.read_bytes() for p in sorted((tmp_path / "runs").rglob("*")) if p.is_file()
    }
    assert len(snapshot) > 20
    for argv in commands:
        run(argv)
    for path, payload in snapshot.items():
        assert path.read_bytes() == payload, f"{path} changed on rerun"
    assert {
        p for p in (tmp_path / "runs").rglob("*") if p.is_file()
    } == set(snapshot)
