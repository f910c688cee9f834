"""Ingestion rules, run-config hashing, and command artifacts."""

import json
import logging
import multiprocessing
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import read_plot_text

from moodsig.cli import (
    RunConfig,
    build_parser,
    config_hash,
    ingest,
    load_config,
    main,
    write_cohort,
)
from moodsig import forest
from moodsig.encode import MISSING, Cohort, Group
from moodsig.errors import CohortValidationError, CsvParseError
from moodsig.synth import CohortSpec, generate_cohort

HEADER = "participant_id,group,week,asrm,qids"


def _write_csv(tmp_path, rows, name="cohort.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def _long_record(pid, group, n=20, asrm=2, qids=3, skip=()):
    return [
        f"{pid},{group},{w},{asrm},{qids}" for w in range(n) if w not in skip
    ]


def test_duplicate_week_rows_collapse_to_first(tmp_path):
    rows = _long_record("P1", "BD")
    rows.insert(4, "P1,BD,3,2,3")
    rows.insert(5, "P1,BD,3,9,9")
    cohort = ingest(_write_csv(tmp_path, rows))
    rec = cohort.records[0]
    assert rec.n_weeks == 20
    week3 = [o for o in rec.weeks if o.week == 3]
    assert len(week3) == 1 and week3[0].asrm == 2 and week3[0].qids == 3


def test_short_participant_excluded_and_logged(tmp_path, caplog):
    rows = _long_record("P1", "BD", n=19) + _long_record("P2", "HC", n=20)
    with caplog.at_level(logging.INFO, logger="moodsig"):
        cohort = ingest(_write_csv(tmp_path, rows))
    assert [r.id for r in cohort.records] == ["P2"]
    assert cohort.exclusions == (("P1", "19 weeks < 20"),)
    assert any("P1" in m for m in caplog.messages)


def test_one_sided_missing_rejected(tmp_path):
    rows = _long_record("P1", "BD")
    rows[7] = "P1,BD,7,-1,5"
    with pytest.raises(CohortValidationError, match="missing together"):
        ingest(_write_csv(tmp_path, rows))


def test_week_gap_becomes_missing_observation(tmp_path):
    rows = _long_record("P1", "BD", n=22, skip=(5,))
    cohort = ingest(_write_csv(tmp_path, rows))
    rec = cohort.records[0]
    assert rec.n_weeks == 22
    assert rec.weeks[5].week == 5
    assert rec.weeks[5].asrm == MISSING and rec.weeks[5].qids == MISSING


def test_span_not_row_count_decides_eligibility(tmp_path):
    # 15 observed rows spread over a 21-week span still qualifies
    rows = [f"P1,BPD,{w},1,2" for w in range(0, 21, 3)] + ["P1,BPD,20,1,2"]
    cohort = ingest(_write_csv(tmp_path, rows))
    assert cohort.exclusions == ()
    assert cohort.records[0].n_weeks == 21


@pytest.mark.parametrize(
    "row,match",
    [
        ("P1,XX,0,1,2", "unknown group"),
        ("P1,BD,0,abc,2", "integer"),
        ("P1,BD,0,21,2", "asrm"),
        ("P1,BD,0,1,28", "qids"),
        ("P1,BD,-3,1,2", "negative week"),
        ("P1,BD,0,1", "fields"),
        (",BD,0,1,2", "participant_id"),
        ("P1,BD,10001,1,2", "week 10001 above 10000"),
    ],
)
def test_malformed_row_reports_line_number(tmp_path, row, match):
    rows = _long_record("P0", "HC") + [row]
    with pytest.raises(CsvParseError, match=match) as err:
        ingest(_write_csv(tmp_path, rows))
    assert err.value.line_number == 22


@pytest.mark.parametrize("sep", ["\t", "\r", "\n"])
def test_participant_id_with_tab_or_line_break_rejected(tmp_path, capsys, sep):
    # run files are tab-separated, one row per line; the first row's quoted
    # group spans lines 2-3, so the bad row starts on line 4
    path = _write_csv(tmp_path, ['P0,"HC\n",0,2,3', f'"A{sep}B",BD,0,1,2'])
    with pytest.raises(CsvParseError, match="participant_id contains a tab") as err:
        ingest(path)
    assert err.value.line_number == 4
    assert str(path) in str(err.value)
    assert main(["classify", "--input", str(path), "-o", str(tmp_path / "runs")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("moodsig: error: line 4: ") and str(path) in line
    assert not (tmp_path / "runs").exists()


def test_non_utf8_csv_reports_path_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(("\n".join([HEADER] + _long_record("P0", "HC")) + "\n").encode()
                     + b"P\xff1,BD,0,1,2\n")
    with pytest.raises(CsvParseError, match="not UTF-8") as err:
        ingest(path)
    assert err.value.line_number == 22
    assert str(path) in str(err.value)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,group,week,asrm,qids\nP1,BD,0,1,2\n")
    with pytest.raises(CsvParseError, match="header"):
        ingest(path)


def test_participant_in_two_groups_rejected(tmp_path):
    rows = _long_record("P1", "BD") + ["P1,HC,25,1,2"]
    with pytest.raises(CohortValidationError, match="both BD and HC"):
        ingest(_write_csv(tmp_path, rows))


def test_synth_round_trip_is_exact(tmp_path):
    cohort = generate_cohort(CohortSpec(sizes=(3, 3, 3), weeks=24, seed=11))
    path = tmp_path / "cohort.csv"
    write_cohort(cohort, path)
    assert ingest(path) == cohort


def test_config_hash_ignores_output_root():
    a = RunConfig(output="runs-a", seed=5)
    b = RunConfig(output="runs-b", seed=5)
    c = RunConfig(output="runs-a", seed=6)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_load_config_merges_file_and_flags(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"seed": 9, "n_trees": 25, "groups": ["BD", "HC"]}))
    args = build_parser().parse_args(
        ["predict-state", "-c", str(cfg_path), "--n-trees", "40"]
    )
    cfg = load_config(args)
    assert cfg.seed == 9
    assert cfg.n_trees == 40
    assert cfg.groups == ("BD", "HC")


@pytest.mark.parametrize(
    "command,flag",
    [("synth", ["--n-trees", "3"]), ("classify", ["--groups", "BD,HC"]),
     ("classify", ["--instrument", "ASRM"])],
    ids=["synth-n-trees", "classify-groups", "classify-instrument"],
)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, command, flag):
    # classify gets an input it would run on, so only the flag can stop it
    rest = ["--input", str(_synth_csv(tmp_path)), "--n-trees", "3"] if command == "classify" else []
    capsys.readouterr()
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, *flag, *rest, "-o", str(out)])
    assert err.value.code != 0
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[-1] == f"moodsig: error: unrecognized arguments: {' '.join(flag)}"
    assert not out.exists()


def test_config_keys_the_command_does_not_read_keep_their_defaults(tmp_path, capsys):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "runs"
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "20", "-o", str(out)]
    assert main(argv) == 0
    (run_dir,) = out.glob("classify-*")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"groups": ["BD", "HC"], "instrument": "ASRM"}))
    assert main(argv + ["-c", str(cfg_path)]) == 0
    assert list(out.glob("classify-*")) == [run_dir]
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    # a shared file's keys are checked all the same
    capsys.readouterr()
    cfg_path.write_text(json.dumps({"groups": ["ZZ"]}))
    assert main(argv + ["-c", str(cfg_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "moodsig: error: unknown groups: ['ZZ']"


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n_tres": 25}))
    args = build_parser().parse_args(["classify", "-c", str(cfg_path)])
    with pytest.raises(ValueError, match="unknown config keys: n_tres"):
        load_config(args)


# three participants of 25 weeks each, so mutations reach record building
_VALID_CSV = (HEADER + "\n" + "".join(
    f"P{i % 3},{('BD', 'HC', 'BPD')[i % 3]},{i // 3},{i % 21},{i % 28}\n"
    for i in range(75)
)).encode()


@st.composite
def _mutated_csv(draw):
    data = bytearray(_VALID_CSV)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=4))
        drop = draw(st.integers(0, 4))
        data[pos : pos + drop] = chunk
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=300), _mutated_csv()))
@example(_VALID_CSV)
@example(HEADER.encode() + b"\n" + b"P" * 200_000 + b",BD,0,1,2\n")
def test_ingest_returns_a_cohort_or_a_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        path.write_bytes(data)
        try:
            cohort = ingest(path)
        except (CsvParseError, CohortValidationError):
            return
    assert isinstance(cohort, Cohort)


def test_bom_prefixed_csv_round_trips(tmp_path):
    cohort = generate_cohort(CohortSpec(sizes=(3, 3, 3), weeks=24, seed=12))
    path = tmp_path / "cohort.csv"
    write_cohort(cohort, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert ingest(path) == cohort


def test_run_config_validation():
    cases = [
        ({"instrument": "WRONG"}, "instrument"),
        ({"groups": ("BD", "ZZ")}, "unknown groups"),
        ({"spectrum_source": "other"}, "spectrum_source"),
        ({"n_trees": 2.5}, "n_trees"),
        ({"seed": "3"}, "seed"),
        ({"seed": True}, "seed"),
        ({"window_length": 10.0}, "window_length"),
        ({"groups": ["BD"]}, "groups"),
        ({"synth_sizes": (4, "4", 4)}, "synth_sizes"),
        ({"bandwidth": (0.1, 0.2, 0.3)}, "bandwidth"),
        ({"input": 5}, "input"),
        ({"resolution": 1001}, "resolution must be 2..1000"),
        ({"bootstrap_samples": 100_001}, "bootstrap_samples must be 1..100000"),
    ]
    for kwargs, match in cases:
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)


def test_run_config_numbers_hash_like_flags(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"split_fraction": 1, "bandwidth": [1, 0.5]}))
    from_file = load_config(build_parser().parse_args(["spectrum", "-c", str(cfg_path)]))
    from_flags = load_config(build_parser().parse_args(
        ["spectrum", "--split-fraction", "1", "--bandwidth", "1,0.5"]))
    assert from_file == from_flags
    assert from_file.bandwidth == (1.0, 0.5)
    assert config_hash(from_file) == config_hash(from_flags)
    single = load_config(build_parser().parse_args(["spectrum", "--bandwidth", "0.05"]))
    assert single.bandwidth == 0.05


def test_config_type_error_is_a_clean_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n_trees": 2.5}))
    assert main(["synth", "-c", str(cfg_path), "-o", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("moodsig: error:") and "n_trees" in err


@pytest.mark.parametrize(
    "content,match",
    [(b'{"seed": ', "Expecting value"), (b'\xff{"seed": 1}', "utf-8")],
    ids=["truncated", "not-utf8"],
)
def test_unreadable_config_file_is_named(tmp_path, capsys, content, match):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(content)
    assert main(["synth", "-c", str(cfg_path), "-o", str(tmp_path / "runs")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"moodsig: error: {cfg_path}: ") and match in line


def _synth_csv(tmp_path, seed=7):
    out = tmp_path / "runs"
    rc = main(
        ["synth", "--sizes", "4,4,4", "--weeks", "24", "--seed", str(seed),
         "-o", str(out)]
    )
    assert rc == 0
    csvs = list(out.glob("synth-*/cohort.csv"))
    assert len(csvs) == 1
    return csvs[0]


def test_synth_writes_cohort_and_meta(tmp_path):
    csv_path = _synth_csv(tmp_path)
    meta = json.loads((csv_path.parent / "meta.json").read_text())
    assert meta["tool"] == "moodsig"
    assert meta["command"] == "synth"
    assert len(meta["config_hash"]) == 64
    assert meta["participants"] == 12
    assert csv_path.parent.name == f"synth-{meta['config_hash'][:12]}"


def test_classify_writes_stamped_reports(tmp_path):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "runs"
    rc = main(
        ["classify", "--input", str(csv_path), "--n-trees", "8",
         "--bootstrap-samples", "50", "-o", str(out)]
    )
    assert rc == 0
    (run_dir,) = out.glob("classify-*")
    for name in ("report_mrsf.json", "report_naive.json"):
        doc = json.loads((run_dir / name).read_text())
        assert doc["tool"] == "moodsig" and doc["version"]
        assert len(doc["config_hash"]) == 64
        assert run_dir.name == f"classify-{doc['config_hash'][:12]}"
        assert 0.0 <= doc["report"]["accuracy_mean"] <= 1.0
    lines = (run_dir / "loo_points.tsv").read_text().splitlines()
    assert lines[0].startswith("# tool\tmoodsig")
    assert lines[2] == "participant_id\tgroup\tp_bd\tp_hc\tp_bpd"
    assert len(lines) == 3 + 12


def test_classify_rerun_is_byte_identical(tmp_path):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "runs"
    argv = ["classify", "--input", str(csv_path), "--n-trees", "8",
            "--bootstrap-samples", "50", "-o", str(out)]
    assert main(argv) == 0
    (run_dir,) = out.glob("classify-*")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert main(argv) == 0
    after = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert before == after


def test_no_forest_worker_outlives_main(tmp_path, monkeypatch):
    csv_path = _synth_csv(tmp_path)
    monkeypatch.setattr(forest, "_worker_count", lambda n_trees: 2)
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "50", "-o", str(tmp_path / "runs")]
    assert main(argv) == 0
    assert forest._pool is None
    assert multiprocessing.active_children() == []


def test_dead_forest_worker_is_a_clean_error(tmp_path, capsys, monkeypatch):
    csv_path = _synth_csv(tmp_path)
    # workers forked after the patch inherit it and die on their first tree
    forest.shutdown_pool()
    monkeypatch.setattr(forest, "_worker_count", lambda n_trees: 2)
    monkeypatch.setattr(forest, "_grow_tree", lambda *args: os._exit(1))
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "50", "-o", str(tmp_path / "runs")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("moodsig: error:") and "worker" in err
    assert "Traceback" not in err
    assert forest._pool is None
    assert multiprocessing.active_children() == []


_grow_trees = forest._grow_trees
_PARENT_PID = os.getpid()


def _die_on_loo_fits(XT, stats, mode, cfg, n_candidates, key, tree_ids):
    # a worker growing a leave-one-out fit (key namespace 106) dies; were
    # one grown in-process, the test would fail rather than end pytest
    if key[1] == 106:
        assert os.getpid() != _PARENT_PID, "a leave-one-out fit was grown in-process"
        os._exit(1)
    return _grow_trees(XT, stats, mode, cfg, n_candidates, key, tree_ids)


def test_dead_worker_in_the_loo_stream_is_a_clean_error(tmp_path, capsys, monkeypatch):
    csv_path = _synth_csv(tmp_path)
    monkeypatch.setattr(forest, "_worker_count", lambda n_trees: 2)
    monkeypatch.setattr(forest, "_grow_trees", _die_on_loo_fits)
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "50", "-o", str(tmp_path / "runs")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("moodsig: error:") and "worker" in err[0]
    assert forest._pool is None
    assert multiprocessing.active_children() == []


def test_predict_commands_write_reports(tmp_path):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "runs"
    common = ["--input", str(csv_path), "--n-trees", "6",
              "--bootstrap-samples", "40", "-o", str(out)]
    assert main(["predict-state"] + common) == 0
    assert main(["predict-score"] + common) == 0
    (state_dir,) = out.glob("predict-state-*")
    doc = json.loads((state_dir / "reports.json").read_text())
    assert {(r["group"], r["instrument"]) for r in doc["results"]} == {
        (g.name, i) for g in Group for i in ("ASRM", "QIDS")
    }
    for r in doc["results"]:
        assert 0.0 <= r["mrsf"]["accuracy_mean"] <= 1.0
    (score_dir,) = out.glob("predict-score-*")
    doc = json.loads((score_dir / "reports.json").read_text())
    for r in doc["results"]:
        assert r["mrsf"]["mae"] >= 0.0
        assert "severity" in r


def test_spectrum_true_source_writes_stamped_plots(tmp_path):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "runs"
    rc = main(
        ["spectrum", "--input", str(csv_path), "--source", "true",
         "--resolution", "64", "-o", str(out)]
    )
    assert rc == 0
    (run_dir,) = out.glob("spectrum-*")
    svgs = sorted(p.name for p in run_dir.glob("*.svg"))
    assert len(svgs) == 6
    assert "spectrum_true_BD_ASRM.svg" in svgs
    parsed = read_plot_text(run_dir / "spectrum_true_BD_ASRM.txt")
    assert parsed["meta"]["tool"] == "moodsig"
    assert len(parsed["meta"]["config_hash"]) == 64
    assert parsed["vertices"] == ("NoAnswer", "Normal", "Elevated")
    svg = (run_dir / "spectrum_true_BD_ASRM.svg").read_text()
    assert "config_hash" in svg
    body = [
        line.split("\t")
        for line in (run_dir / "points.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert body[0] == ["participant_id", "group", "instrument", "p0", "p1", "p2"]
    assert len(body) == 1 + 2 * 12
    for row in body[1:]:
        assert row[1] in {"BD", "HC", "BPD"}
        assert row[2] in {"ASRM", "QIDS"}
        assert sum(float(v) for v in row[3:]) == pytest.approx(1.0)


def test_spectrum_meta_lists_exclusions_and_rollout_skips(tmp_path):
    # 14 weeks fail ingest; 20 weeks pass it but give only 5 windows of 15
    rows = _long_record("X14", "BD", n=14) + _long_record("B20", "BPD", n=20)
    for k in range(3):
        rows += [f"B{k},BPD,{w},{(7 * w + k) % 21},{(5 * w + 3 * k) % 28}" for w in range(30)]
    out = tmp_path / "runs"
    rc = main(
        ["spectrum", "--input", str(_write_csv(tmp_path, rows)), "--source", "state",
         "--groups", "BPD", "--window-length", "15", "--n-trees", "3",
         "--resolution", "16", "-o", str(out)]
    )
    assert rc == 0
    (run_dir,) = out.glob("spectrum-*")
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["exclusions"] == [["X14", "14 weeks < 20"]]
    assert meta["skipped"] == [
        [instrument, "B20", "needs > 5 windows of 15 weeks"] for instrument in ("ASRM", "QIDS")
    ]


def test_spectrum_accepts_bandwidth_pair(tmp_path):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "runs"
    rc = main(
        ["spectrum", "--input", str(csv_path), "--source", "true",
         "--resolution", "32", "--bandwidth", "0.05,0.08", "-o", str(out)]
    )
    assert rc == 0
    (run_dir,) = out.glob("spectrum-*")
    parsed = read_plot_text(run_dir / "spectrum_true_HC_QIDS.txt")
    assert parsed["bandwidth"] == (0.05, 0.08)
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["config"]["bandwidth"] == [0.05, 0.08]


def _synth_cohort(tmp_path, sizes, weeks):
    out = tmp_path / "synth"
    assert main(["synth", "--sizes", sizes, "--weeks", str(weeks), "-o", str(out)]) == 0
    (csv_path,) = out.glob("synth-*/cohort.csv")
    return csv_path


def test_two_participant_rollout_group_fails_naming_its_plot(tmp_path, capsys):
    # both BD participants are skipped, each having a single donor
    csv_path = _synth_cohort(tmp_path, "2,2,1", 30)
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(["spectrum", "--input", str(csv_path), "--source", "state", "--groups", "BD,HC",
                 "--n-trees", "3", "--resolution", "16", "-o", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "moodsig: error: spectrum_state_BD_ASRM: kde2d needs at least 2 points"
    assert not out.exists() or not any(out.iterdir())


def test_spectrum_at_resolution_two_warns_nothing(tmp_path):
    # one grid cell, whose unused edges may be flat or nearly so
    csv_path = _synth_cohort(tmp_path, "3,3,3", 24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--input", str(csv_path), "--source", "true",
                     "--resolution", "2", "-o", str(tmp_path / "runs")]) == 0


def test_sig_command_prints_signature(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1,0.5\n2,2\n")
    assert main(["sig", "--points", str(pts), "--level", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    values = dict(
        line.split("\t") for line in out if line and not line.startswith("#")
    )
    assert float(values["1"]) == 2.0
    assert float(values["2"]) == 2.0
    assert float(values["1.2"]) + float(values["2.1"]) == pytest.approx(4.0)
    assert float(values["1.2"]) - float(values["2.1"]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "argv,match",
    [
        (["spectrum", "--source", "true", "--bandwidth", "0"], "bandwidth"),
        (["spectrum", "--source", "true", "--bandwidth", "0.05,-1"], "bandwidth"),
        (["classify", "--signature-level", "6"], "signature_level must be 1..5"),
        (["predict-state", "--split-fraction", "1"], "split_fraction"),
        (["spectrum", "--resolution", "10000000"], "resolution must be 2..1000, got 10000000"),
        (["classify", "--bootstrap-samples", "1000000000000"],
         "bootstrap_samples must be 1..100000, got 1000000000000"),
        (["classify", "--features-per-split", "0"], "features_per_split must be >= 1"),
    ],
)
def test_out_of_range_settings_fail_before_any_work(tmp_path, capsys, argv, match):
    # the input does not exist: the range check must come first
    out = tmp_path / "runs"
    assert main(argv + ["--input", str(tmp_path / "absent.csv"), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("moodsig: error:") and match in err
    assert not out.exists()


def test_sig_level_cap_is_a_clean_error(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1,1\n")
    assert main(["sig", "--points", str(pts), "--level", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("moodsig: error:") and "--level must be 1..5" in err


@pytest.mark.parametrize(
    "text,level,match",
    [
        ("", 2, "need at least 2 points"),
        ("0,0\n1,2,3\n", 2, "number of columns changed"),
        ("1,2\n", 2, "need at least 2 points"),
        ("0,0\nnan,1\n", 2, "must be finite"),
        # 32**4 terms per level: rejected before any signature work
        ("\n".join([",".join(["1"] * 32)] * 2), 4, "1048576 terms, above 1000000"),
    ],
    ids=["empty", "ragged", "one-point", "nan", "too-wide"],
)
def test_bad_sig_points_file_is_named(tmp_path, capsys, text, level, match):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    assert main(["sig", "--points", str(pts), "--level", str(level)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"moodsig: error: {pts}: ") and match in line


# three BD and three HC participants, but a single BPD one
_ONE_BPD = [
    f"{pid},{group},{w},{(3 * w + k) % 21},{(5 * w + 2 * k) % 28}"
    for k, (pid, group) in enumerate(
        [("D1", "BD"), ("D2", "BD"), ("D3", "BD"), ("H1", "HC"), ("H2", "HC"),
         ("H3", "HC"), ("P1", "BPD")]
    )
    for w in range(30)
]


@pytest.mark.parametrize(
    "argv,match",
    [
        (["synth", "--weeks", "5"], "weeks must be >= 20"),
        (["synth", "--sizes", "0,1,1"], "sizes must be"),
        (["classify", "--n-trees", "3"], "group BPD has < 2"),
        (["predict-state", "--n-trees", "3"], "group BPD has < 2"),
        (["spectrum", "--source", "state", "--n-trees", "3", "--resolution", "16"],
         "kde2d needs at least 2 points"),
        (["spectrum", "--source", "true", "--resolution", "16"],
         "kde2d needs at least 2 points"),
        # hx * hy underflows to 0 in the density's normalising constant
        (["spectrum", "--source", "true", "--resolution", "16", "--bandwidth", "1e-200"],
         "spectrum_true_BD_ASRM: bandwidth (1e-200, 1e-200) is too small"),
        # (1 / hx) ** 2 overflows in the kernel's exponent
        (["spectrum", "--source", "true", "--resolution", "16", "--bandwidth", "1e-200,1e200"],
         "spectrum_true_BD_ASRM: bandwidth (1e-200, 1e+200) is too small"),
    ],
    ids=["synth-weeks", "synth-sizes", "classify", "predict-state", "spectrum-state",
         "spectrum-true", "spectrum-underflowing-bandwidth",
         "spectrum-overflowing-bandwidth"],
)
def test_failed_command_leaves_no_run_directory(tmp_path, capsys, argv, match):
    out = tmp_path / "runs"
    # synth reads no input
    if argv[0] != "synth":
        argv = argv + ["--input", str(_write_csv(tmp_path, _ONE_BPD))]
    assert main(argv + ["-o", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("moodsig: error:") and match in line
    assert not out.exists() or not any(out.iterdir())


def test_missing_input_is_a_clean_error(tmp_path, capsys):
    assert main(["classify", "-o", str(tmp_path / "runs")]) == 1
    assert "needs an input CSV" in capsys.readouterr().err


def test_bad_csv_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "\nP1,BD,0,-1,5\n")
    assert main(["classify", "--input", str(bad), "-o", str(tmp_path / "runs")]) == 1
    assert "missing together" in capsys.readouterr().err


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code != 0
