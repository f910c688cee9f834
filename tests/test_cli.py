"""Ingestion rules, run-config hashing, and command artifacts."""

import errno
import json
import logging
import multiprocessing
import os
import stat
import subprocess
import sys
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
import moodsig
from moodsig import cli, forest, metrics, tasks
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
    # the command line and the library default every task setting alike
    assert cli._task_config(RunConfig()) == tasks.TaskConfig()


@pytest.mark.parametrize(
    "argv,error",
    [(["synth", "--n-trees", "3"], "unrecognized arguments: --n-trees 3"),
     (["classify", "--groups", "BD,HC", "--n-trees", "3"],
      "unrecognized arguments: --groups BD,HC"),
     (["classify", "--instrument", "ASRM", "--n-trees", "3"],
      "unrecognized arguments: --instrument ASRM"),
     # argparse takes these flags; the source, known only once the config is
     # loaded, does not read them
     (["spectrum", "--source", "true", "--n-trees", "7", "--seed", "3"],
      "spectrum --source true does not read --seed, --n-trees"),
     (["spectrum", "--source", "classify", "--instrument", "ASRM", "--n-trees", "3"],
      "spectrum --source classify does not read --instrument"),
     # no spectrum source makes a held-out split or a bootstrap report
     (["spectrum", "--split-fraction", "0.5", "--n-trees", "3"],
      "unrecognized arguments: --split-fraction 0.5"),
     (["spectrum", "--bootstrap-samples", "5", "--n-trees", "3"],
      "unrecognized arguments: --bootstrap-samples 5")],
    ids=["synth-n-trees", "classify-groups", "classify-instrument", "spectrum-true-n-trees",
         "spectrum-classify-instrument", "spectrum-split-fraction",
         "spectrum-bootstrap-samples"],
)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, argv, error):
    # every command but synth gets an input it would run on, so only the flag can stop it
    rest = [] if argv[0] == "synth" else ["--input", str(_synth_csv(tmp_path))]
    capsys.readouterr()
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*argv, *rest, "-o", str(out)])
    assert err.value.code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[-1] == f"moodsig: error: {error}"
    assert sum(line.startswith("moodsig: error:") for line in err_lines) == 1
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
    # a shared file's keys are checked all the same; an empty list would
    # otherwise mean every group under another hash than leaving it out
    capsys.readouterr()
    for groups, error in ((["ZZ"], "unknown groups: ['ZZ']"),
                          ([], "groups must be distinct and nonempty, got []")):
        cfg_path.write_text(json.dumps({"groups": groups}))
        assert main(argv + ["-c", str(cfg_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"moodsig: error: {error}"
    assert list(out.glob("classify-*")) == [run_dir]


def test_config_keys_a_spectrum_source_does_not_read_keep_their_defaults(tmp_path, capsys):
    csv_path = _synth_csv(tmp_path)
    out = tmp_path / "out"
    argv = ["spectrum", "--input", str(csv_path), "--resolution", "16", "-o", str(out)]
    assert main(argv + ["--source", "true"]) == 0
    (run_dir,) = out.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"spectrum_source": "true", "seed": 3, "n_trees": 7, "window_length": 12}
    ))
    assert main(argv + ["-c", str(cfg_path)]) == 0
    assert list(out.iterdir()) == [run_dir]
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    # the source comes from the file, and a flag it does not read is rejected
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv + ["-c", str(cfg_path), "--n-trees", "7"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "moodsig: error: spectrum --source true does not read --n-trees"
    )
    # an unread key is checked all the same
    cfg_path.write_text(json.dumps({"spectrum_source": "true", "n_trees": "7"}))
    assert main(argv + ["-c", str(cfg_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "moodsig: error: config n_trees must be int, got '7'"
    assert list(out.iterdir()) == [run_dir]


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


def test_run_files_are_utf8_under_an_ascii_locale(tmp_path):
    rows = [
        f"{pid},{group},{w},{(3 * w + k) % 21},{(5 * w + 2 * k) % 28}"
        for k, (pid, group) in enumerate(
            [("BD-Zo\u00eb", "BD"), ("D2", "BD"), ("H1", "HC"), ("H2", "HC"),
             ("P1", "BPD"), ("P2", "BPD")]
        )
        for w in range(24)
    ]
    csv_path = tmp_path / "cohort.csv"
    csv_path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    src = str(Path(moodsig.__file__).resolve().parents[1])
    run_dirs = []
    for name, utf8_mode in [("ascii", "0"), ("utf8", "1")]:
        # LC_ALL=C without locale coercion or UTF-8 mode: the locale
        # encoding is ASCII
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8=utf8_mode, PYTHONPATH=src)
        # the same relative output root, so meta.json records the same config
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from moodsig.cli import main; sys.exit(main())",
             "spectrum", "--input", str(csv_path), "--source", "true",
             "--resolution", "16", "-o", "runs"],
            cwd=cwd, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        (run_dir,) = (cwd / "runs").glob("spectrum-*")
        run_dirs.append(run_dir)
    ascii_dir, utf8_dir = run_dirs
    assert "BD-Zo\u00eb" in (utf8_dir / "points.tsv").read_text(encoding="utf-8")
    assert sorted(p.name for p in ascii_dir.iterdir()) == sorted(p.name for p in utf8_dir.iterdir())
    for path in ascii_dir.iterdir():
        assert path.read_bytes() == (utf8_dir / path.name).read_bytes(), path.name


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
        ({"groups": ("BD", "BD")}, "groups must be distinct and nonempty"),
        ({"groups": ()}, "groups must be distinct and nonempty"),
        ({"synth_weeks": 10_002}, "synth_weeks must be at most 10001"),
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

    def from_file_and_flags(command, doc, flags):
        cfg_path.write_text(json.dumps(doc))
        from_file = load_config(build_parser().parse_args([command, "-c", str(cfg_path)]))
        from_flags = load_config(build_parser().parse_args([command, *flags]))
        assert from_file == from_flags
        assert config_hash(from_file) == config_hash(from_flags)
        return from_file

    cfg = from_file_and_flags("classify", {"split_fraction": 1}, ["--split-fraction", "1"])
    assert cfg.split_fraction == 1.0
    cfg = from_file_and_flags("spectrum", {"bandwidth": [1, 0.5]}, ["--bandwidth", "1,0.5"])
    assert cfg.bandwidth == (1.0, 0.5)
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


def _write_then_fail(real):
    """A writer that writes its files, then fails as a full disk would."""
    def write(*args, **kwargs):
        real(*args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")
    return write


@pytest.mark.parametrize(
    "argv,writer",
    [(["classify", "--n-trees", "3", "--bootstrap-samples", "20"], "_write_points_tsv"),
     (["spectrum", "--source", "true", "--resolution", "16"], "emit_plot")],
    ids=["classify", "spectrum"],
)
def test_failed_write_leaves_no_partial_run(tmp_path, capsys, monkeypatch, argv, writer):
    # classify fails after its two reports and loo_points.tsv are written,
    # spectrum after its first plot's two files
    out = tmp_path / "out"
    argv = argv + ["--input", str(_synth_csv(tmp_path)), "-o", str(out)]
    failing = _write_then_fail(getattr(cli, writer))
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, writer, failing)
        assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "moodsig: error: [Errno 28] No space left on device"
    assert list(out.iterdir()) == []
    # a failed rerun leaves the earlier complete run as it was
    assert main(argv) == 0
    (run_dir,) = out.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(cli, writer, failing)
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "moodsig: error: [Errno 28] No space left on device"
    assert list(out.iterdir()) == [run_dir]
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_rerun_replaces_the_earlier_run_whole(tmp_path):
    out = tmp_path / "out"
    argv = ["synth", "--sizes", "4,4,4", "--weeks", "24", "-o", str(out)]
    assert main(argv) == 0
    (run_dir,) = out.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    (run_dir / "stale.txt").write_text("left by an earlier version\n")
    assert main(argv) == 0
    assert list(out.iterdir()) == [run_dir]
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_run_directory_mode_follows_the_umask(tmp_path):
    # a private temporary directory (0o700) renamed into place would not
    umask = os.umask(0o027)
    try:
        assert main(["synth", "--sizes", "4,4,4", "--weeks", "24", "-o", str(tmp_path)]) == 0
    finally:
        os.umask(umask)
    (run_dir,) = tmp_path.iterdir()
    assert stat.S_IMODE(run_dir.stat().st_mode) == 0o777 & ~0o027


def test_leftovers_of_killed_runs_block_no_later_run(tmp_path, monkeypatch):
    # every process gets one pid, as under a container's entrypoint
    monkeypatch.setattr(cli.os, "getpid", lambda: 4242)
    argv = ["synth", "--sizes", "4,4,4", "--weeks", "24", "-o", str(tmp_path)]
    assert main(argv) == 0
    (run_dir,) = tmp_path.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    # two runs killed before their cleanup: one leaves the earlier run it
    # moved aside, the other its half-written staging directory
    with monkeypatch.context() as m:
        m.setattr(cli.shutil, "rmtree", lambda path, ignore_errors=False: None)
        assert main(argv) == 0
        m.setattr(cli, "write_cohort", _write_then_fail(cli.write_cohort))
        assert main(argv) == 1
    leftovers = sorted(p for p in tmp_path.iterdir() if p != run_dir)
    assert len(leftovers) == 2 and all(p.name.startswith(".") for p in leftovers)
    # each later run needs a staging directory and moves the earlier run aside
    for _ in range(2):
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert sorted(p for p in tmp_path.iterdir() if p != run_dir) == leftovers


def test_no_forest_worker_outlives_main(tmp_path, monkeypatch):
    csv_path = _synth_csv(tmp_path)
    monkeypatch.setattr(forest, "_worker_count", lambda: 2)
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "50", "-o", str(tmp_path / "runs")]
    assert main(argv) == 0
    assert forest._pool is None
    assert multiprocessing.active_children() == []


def test_importing_the_cli_loads_no_pool_modules():
    # the pool modules are imported by the first pooled fit, so a command
    # that fits no forest does not pay for them at startup
    src = str(Path(moodsig.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, moodsig.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_one_worker_fit_loads_no_pool_modules():
    # with one worker the trees grow in-process: the stream loop's futures
    # need concurrent.futures, but nothing of the process pool
    src = str(Path(moodsig.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np\n"
        "from moodsig import forest\n"
        "forest._worker_count = lambda: 1\n"
        "X = np.random.default_rng(0).normal(size=(30, 3))\n"
        "forest.fit(X, np.arange(30) % 2, forest.CLASSIFY, forest.ForestConfig(n_trees=3))\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing',"
        " 'concurrent.futures.process'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_one_worker_scoring_run_loads_no_pool_modules():
    # the scoring stream runs through the same loop, in-process with one worker
    src = str(Path(moodsig.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np\n"
        "from moodsig import forest\n"
        "forest._worker_count = lambda: 1\n"
        "X = np.random.default_rng(0).normal(size=(30, 3))\n"
        "job = ((X, np.arange(30) % 2, forest.CLASSIFY, forest.ForestConfig(n_trees=3)), X[:2])\n"
        "assert list(forest.score_many([job]))[0].shape == (2, 2)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing',"
        " 'concurrent.futures.process'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_dead_forest_worker_is_a_clean_error(tmp_path, capsys, monkeypatch):
    csv_path = _synth_csv(tmp_path)
    # workers forked after the patch inherit it and die on their first tree
    forest.shutdown_pool()
    monkeypatch.setattr(forest, "_worker_count", lambda: 2)
    monkeypatch.setattr(forest, "_grow_tree", lambda *args: os._exit(1))
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "50", "-o", str(tmp_path / "runs")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("moodsig: error:") and "worker" in err
    assert "Traceback" not in err
    assert forest._pool is None
    assert multiprocessing.active_children() == []


_score_trees = forest._score_trees
_PARENT_PID = os.getpid()


def _die_on_loo_fits(mode, cfg, n_candidates, n_classes, X, y, key, tree_ids, rows):
    # a worker scoring a leave-one-out fit (key namespace 106) dies; were one
    # scored in-process, the test would fail rather than end pytest, and
    # were they grown whole by fit's task, main would not fail
    if key[1] == 106:
        assert os.getpid() != _PARENT_PID, "a leave-one-out fit was scored in-process"
        os._exit(1)
    return _score_trees(mode, cfg, n_candidates, n_classes, X, y, key, tree_ids, rows)


def test_dead_worker_in_the_loo_stream_is_a_clean_error(tmp_path, capsys, monkeypatch):
    csv_path = _synth_csv(tmp_path)
    monkeypatch.setattr(forest, "_worker_count", lambda: 2)
    monkeypatch.setattr(forest, "_score_trees", _die_on_loo_fits)
    argv = ["classify", "--input", str(csv_path), "--n-trees", "4",
            "--bootstrap-samples", "50", "-o", str(tmp_path / "runs")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("moodsig: error:") and "worker" in err[0]
    assert forest._pool is None
    assert multiprocessing.active_children() == []


def test_spectrum_classify_fits_only_its_leave_one_out_models(tmp_path, monkeypatch):
    csv_path = _synth_csv(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum fit or evaluated a held-out split model")

    monkeypatch.setattr(tasks, "fit", refuse)
    monkeypatch.setattr(tasks, "_classification_report", refuse)
    monkeypatch.setattr(metrics, "bootstrap", refuse)
    out = tmp_path / "out"
    argv = ["spectrum", "--source", "classify", "--input", str(csv_path), "--n-trees", "4",
            "--resolution", "16", "-o", str(out)]
    assert main(argv) == 0
    (run_dir,) = out.iterdir()
    assert sorted(p.name for p in run_dir.glob("*.svg")) == [
        f"spectrum_classify_{g}.svg" for g in ("BD", "BPD", "HC")
    ]


def test_synth_at_the_week_cap_can_be_ingested(tmp_path):
    out = tmp_path / "runs"
    assert main(["synth", "--weeks", "10001", "--sizes", "1,1,1", "-o", str(out)]) == 0
    (csv_path,) = out.glob("synth-*/cohort.csv")
    cohort = ingest(csv_path)
    assert [r.n_weeks for r in cohort.records] == [10_001] * 3
    assert all(r.weeks["week"][-1] == 10_000 for r in cohort.records)


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
    assert line == ("moodsig: error: spectrum_state_BD_ASRM: kde2d needs at least 2 points; "
                    "the rollout skipped 2 of 2 BD participants, the first BD000: "
                    "needs 2 other participants with > 10 weeks, has 1")
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
        (["predict-state", "--groups", "BD,BD"], "groups must be distinct and nonempty"),
        (["spectrum", "--source", "true", "--groups", "HC,HC"],
         "groups must be distinct and nonempty"),
        (["spectrum", "--source", "true", "--groups", ","],
         "groups must be distinct and nonempty, got []"),
        (["classify", "--n-trees", "1000000000"], "n_trees must be 1..10000, got 1000000000"),
        (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["classify", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["spectrum", "--source", "state", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["synth", "--sizes", "1000000000,1,1"],
         "synth_sizes times synth_weeks must be at most 1000000 participant-weeks, "
         "got 51000000102"),
        # no participant has more than 10,001 weeks
        (["spectrum", "--source", "state", "--window-length", "1000000000000"],
         "window_length must be at most 10001, got 1000000000000"),
        # each of these commands also fits the 2-feature naive model
        (["classify", "--features-per-split", "3"],
         "features_per_split must be at most 2, the naive model's feature count, got 3"),
        (["predict-state", "--features-per-split", "3"],
         "features_per_split must be at most 2, the naive model's feature count, got 3"),
        (["predict-score", "--features-per-split", "3"],
         "features_per_split must be at most 2, the naive model's feature count, got 3"),
        (["spectrum", "--source", "classify", "--features-per-split", "13"],
         "features_per_split must be at most 12, the MRSF model's feature count, got 13"),
        (["classify", "--window-length", "1"], "window_length must be >= 2"),
        (["spectrum", "--source", "classify", "--window-length", "1"],
         "window_length must be >= 2"),
        (["classify", "--min-leaf", "0"], "min_leaf must be >= 1"),
        (["classify", "--max-depth", "0"], "max_depth must be >= 1"),
    ],
)
def test_out_of_range_settings_fail_before_any_work(tmp_path, capsys, argv, match):
    # the input does not exist: the range check must come first
    out = tmp_path / "runs"
    # synth reads no input
    if argv[0] != "synth":
        argv = argv + ["--input", str(tmp_path / "absent.csv")]
    assert main(argv + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("moodsig: error:") and match in err
    assert not out.exists()


def test_spectrum_takes_features_per_split_up_to_the_mrsf_width(tmp_path, capsys):
    # spectrum fits no naive model, so the 12 MRSF features bound it
    csv_path = _synth_cohort(tmp_path, "3,3,3", 24)
    argv = ["spectrum", "--input", str(csv_path), "--source", "state", "--n-trees", "4",
            "--resolution", "16", "--instrument", "ASRM"]
    assert main(argv + ["--features-per-split", "12", "-o", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main(argv + ["--features-per-split", "13", "-o", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("moodsig: error: features_per_split must be at most 12, "
                    "the MRSF model's feature count, got 13")
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
        # week numbers would run past what ingest reads
        (["synth", "--weeks", "10002", "--sizes", "1,1,1"], "synth_weeks must be at most 10001"),
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
        # n * 2 * pi * hx * hy overflows, so the density would be 0 everywhere
        (["spectrum", "--source", "true", "--resolution", "16", "--bandwidth", "1e200"],
         "spectrum_true_BD_ASRM: bandwidth (1e+200, 1e+200) is too large to normalise"),
        # every kernel term is exp(-0.0), so the density is flat
        (["spectrum", "--source", "true", "--resolution", "16", "--bandwidth", "1e150"],
         "spectrum_true_BD_ASRM: bandwidth (1e+150, 1e+150) is too large: the density"),
    ],
    ids=["synth-weeks", "synth-sizes", "synth-weeks-above-cap", "classify", "predict-state",
         "spectrum-state", "spectrum-true", "spectrum-underflowing-bandwidth",
         "spectrum-overflowing-bandwidth", "spectrum-huge-bandwidth",
         "spectrum-flattening-bandwidth"],
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
