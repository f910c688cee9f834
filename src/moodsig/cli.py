"""Command-line pipeline: CSV cohort ingestion, synthetic cohorts, task
runs, and triangle-spectrum plots.

Every command resolves a RunConfig (JSON file plus flag overrides), hashes
it, and writes its artifacts under `<output>/<command>-<hash12>/`. Reports
and plots embed the config hash and tool version; reruns with the same
config are byte-identical.

Each run setting is declared once, as its RunConfig row (`_setting`); its
flag, default, bounds and TaskConfig entry all derive from that row."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import logging
import os
import shutil
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .encode import (
    ASRM_MAX,
    MIN_WEEKS,
    MISSING,
    QIDS_MAX,
    Cohort,
    Group,
    ParticipantRecord,
    mrsf_width,
    weekly,
)
from .errors import CohortValidationError, CsvParseError
from .forest import ForestConfig, shutdown_pool
from .metrics import report_to_dict
from .sigcore import stream_signature
from .spectrum import emit_plot, kde2d, simplex_project
from .synth import CohortSpec, generate_cohort
from .tasks import (
    Instrument,
    TaskConfig,
    classification_windows,
    loo_points,
    observed_proportions,
    run_classification,
    run_score_prediction,
    run_state_prediction,
    run_state_rollout,
)

TOOL = "moodsig"
CSV_HEADER = ["participant_id", "group", "week", "asrm", "qids"]
# a week number above this is rejected: ingest materialises every week of
# a participant's span, so this cap bounds its memory
MAX_WEEK = 10_000
# the highest signature_level and sig --level: level p of a d-channel path
# has d**p coefficients, and an MRSF table row sum(3**k for k <= p), 363 at 5
MAX_LEVEL = 5
# sig's top level holds d**level floats for d columns, and so does each of
# its intermediate products; a larger request is rejected before any work
MAX_SIG_TERMS = 10**6
# the most participant-weeks synth generates: each is drawn in turn, and
# the whole cohort is held until it is written
MAX_SYNTH_WEEKS = 1_000_000
STATE_VERTEX_LABELS = ("NoAnswer", "Normal", "Elevated")

log = logging.getLogger(TOOL)


def _parse_int(text, what, path, lineno):
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(
            lineno, f"{path}: {what} must be an integer, got {text!r}"
        ) from None


def _check_score(value, maximum, what, path, lineno):
    if value != MISSING and not 0 <= value <= maximum:
        raise CsvParseError(
            lineno, f"{path}: {what} must be -1 or 0..{maximum}, got {value}"
        )


def _csv_rows(reader, path):
    # what the csv module itself rejects (a field over its size limit)
    # is reported like every other malformed row
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvParseError(reader.line_num, f"{path}: {exc}") from None


def ingest(path):
    """Read a cohort CSV into records.

    Keeps the first row per (participant, week), drops exact duplicates with
    it, inserts missing-sentinel observations for skipped week numbers inside
    a participant's span, and excludes (with a logged reason) participants
    whose span is shorter than `MIN_WEEKS` weeks."""
    weeks_of = {}
    group_of = {}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(
            data.count(b"\n", 0, exc.start) + 1,
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}",
        ) from None
    # drop the byte-order mark that spreadsheet exports add
    with io.StringIO(text.removeprefix("\ufeff"), newline="") as fh:
        rows = csv.reader(fh)
        reader = _csv_rows(rows, path)
        header = next(reader, None)
        if header is None:
            raise CsvParseError(1, f"{path}: empty file")
        if [c.strip() for c in header] != CSV_HEADER:
            raise CsvParseError(
                1, f"{path}: expected header {','.join(CSV_HEADER)}"
            )
        end = rows.line_num
        for row in reader:
            # a quoted field may span lines; a row is reported by its first
            lineno, end = end + 1, rows.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CSV_HEADER):
                raise CsvParseError(
                    lineno,
                    f"{path}: expected {len(CSV_HEADER)} fields, got {len(row)}",
                )
            pid, gname, wtxt, atxt, qtxt = (c.strip() for c in row)
            if not pid:
                raise CsvParseError(lineno, f"{path}: empty participant_id")
            if any(c in pid for c in "\t\r\n"):
                # ids are written into tab-separated, line-based run files
                raise CsvParseError(
                    lineno, f"{path}: participant_id contains a tab or line break"
                )
            try:
                group = Group[gname]
            except KeyError:
                raise CsvParseError(
                    lineno, f"{path}: unknown group {gname!r}"
                ) from None
            week = _parse_int(wtxt, "week", path, lineno)
            if week < 0:
                raise CsvParseError(lineno, f"{path}: negative week {week}")
            if week > MAX_WEEK:
                raise CsvParseError(lineno, f"{path}: week {week} above {MAX_WEEK}")
            asrm = _parse_int(atxt, "asrm", path, lineno)
            qids = _parse_int(qtxt, "qids", path, lineno)
            _check_score(asrm, ASRM_MAX, "asrm", path, lineno)
            _check_score(qids, QIDS_MAX, "qids", path, lineno)
            if (asrm == MISSING) != (qids == MISSING):
                raise CohortValidationError(
                    f"{path} line {lineno}: asrm and qids must be missing "
                    f"together (participant {pid}, week {week})"
                )
            if group_of.setdefault(pid, group) != group:
                raise CohortValidationError(
                    f"{path} line {lineno}: participant {pid} listed under "
                    f"both {group_of[pid].name} and {group.name}"
                )
            weeks_of.setdefault(pid, {}).setdefault(week, (asrm, qids))
    records, exclusions = [], []
    for pid, by_week in weeks_of.items():
        first, last = min(by_week), max(by_week)
        span = last - first + 1
        if span < MIN_WEEKS:
            exclusions.append((pid, f"{span} weeks < {MIN_WEEKS}"))
            continue
        weeks = weekly(
            (w, *by_week.get(w, (MISSING, MISSING))) for w in range(first, last + 1)
        )
        records.append(ParticipantRecord(id=pid, group=group_of[pid], weeks=weeks))
    for pid, reason in exclusions:
        log.info("excluded participant %s: %s", pid, reason)
    return Cohort(records=tuple(records), exclusions=tuple(exclusions))


def write_cohort(cohort, path):
    """Write records in the schema `ingest` reads; round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in cohort.records:
            writer.writerows((rec.id, rec.group.name, *row) for row in rec.weeks.tolist())


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


# what each RunConfig annotation (a string, under `from __future__ import
# annotations`) accepts; an int is accepted as a float
_TYPE_CHECKS = {
    "None": lambda v: v is None,
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "float": _is_number,
    "tuple[str, ...]": lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
    "tuple[float, float]": lambda v: (
        isinstance(v, tuple) and len(v) == 2 and all(map(_is_number, v))
    ),
}
# the flag type of each annotation read as a number; any other is text
_FLAG_TYPES = {"int": int, "int | None": int, "float": float}


def _setting(parent, default=None, bounds=(None, None), flags=None, **options):
    """A RunConfig row: the parent parser of the commands that read it, the
    inclusive (lo, hi) bounds (None for an open side), the option strings if
    not `--<field-name>`, and the flag's other options (`choices`, `help`)."""
    return field(default=default, metadata={
        "parent": parent, "bounds": bounds, "flags": flags, "options": options})


def _check_bounds(name, value, bounds):
    lo, hi = bounds
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"at most {hi}" if lo is None else f"{lo}..{hi}"
        raise ValueError(f"{name} must be {span}, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Cross-command run settings; everything except `output` is hashed.
    A setting the library also takes has the library's default."""

    input: str | None = _setting("task", help="cohort CSV path")
    output: str = _setting("run", "runs", flags=("-o", "--output"),
                           help="output root (default runs/)")
    seed: int = _setting("run", TaskConfig.seed, (0, None))
    # this and synth_weeks: weeks are numbered from 0, and ingest reads none
    # above MAX_WEEK, so no participant has a longer run of weeks
    window_length: int | None = _setting("task", TaskConfig.window_length, (None, MAX_WEEK + 1))
    signature_level: int = _setting("task", TaskConfig.signature_level, (1, MAX_LEVEL))
    split_fraction: float = _setting("evaluate", TaskConfig.split_fraction)
    instrument: str | None = _setting("subset", help="ASRM or QIDS (default both)")
    groups: tuple[str, ...] | None = _setting("subset", help="comma-separated subset of BD,HC,BPD")
    # a worker holds every tree of its share of a fit until the share is grown
    n_trees: int = _setting("task", ForestConfig.n_trees, (1, 10_000))
    max_depth: int | None = _setting("task", ForestConfig.max_depth)
    min_leaf: int = _setting("task", ForestConfig.min_leaf)
    features_per_split: int | None = _setting("task", ForestConfig.features_per_split)
    # per report, each resample drawn and scored in turn
    bootstrap_samples: int = _setting("evaluate", TaskConfig.bootstrap_samples, (1, 100_000))
    synth_sizes: tuple[int, ...] = _setting("synth", CohortSpec.sizes, flags=("--sizes",),
                                            help="BD,HC,BPD counts")
    synth_weeks: int = _setting("synth", CohortSpec.weeks, (None, MAX_WEEK + 1), flags=("--weeks",))
    spectrum_source: str = _setting(
        "spectrum", "classify", flags=("--source",), choices=["classify", "state", "true"],
        help="leave-one-out class probabilities (classify; no --instrument), rolled-out states "
        "(state) or observed proportions (true; no --seed or model flags)")
    # each KDE grid holds resolution**2 floats
    resolution: int = _setting("spectrum", 200, (2, 1_000))
    bandwidth: float | tuple[float, float] | None = _setting(
        "spectrum", help="hx or hx,hy (default Scott's rule)")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = f.type.split(" | ")
            if not any(_TYPE_CHECKS[k](value) for k in kinds):
                raise ValueError(f"config {f.name} must be {f.type}, got {value!r}")
            # ints become floats, so 1 and 1.0 hash alike
            if "float" in kinds and _is_int(value):
                object.__setattr__(self, f.name, float(value))
            elif "tuple[float, float]" in kinds and isinstance(value, tuple):
                object.__setattr__(self, f.name, tuple(float(v) for v in value))
            if value is not None:
                _check_bounds(f.name, value, f.metadata["bounds"])
        if self.instrument is not None and self.instrument not in ("ASRM", "QIDS"):
            raise ValueError(f"instrument must be ASRM or QIDS, got {self.instrument!r}")
        if self.groups is not None:
            bad = [g for g in self.groups if g not in Group.__members__]
            if bad:
                raise ValueError(f"unknown groups: {bad}")
            # an empty list would run every group under another hash than None
            if not self.groups or len(set(self.groups)) < len(self.groups):
                raise ValueError(f"groups must be distinct and nonempty, got {list(self.groups)}")
        if self.spectrum_source not in ("classify", "state", "true"):
            raise ValueError(f"unknown spectrum_source {self.spectrum_source!r}")
        participant_weeks = sum(self.synth_sizes) * self.synth_weeks
        if participant_weeks > MAX_SYNTH_WEEKS:
            raise ValueError(
                f"synth_sizes times synth_weeks must be at most {MAX_SYNTH_WEEKS} "
                f"participant-weeks, got {participant_weeks}"
            )
        if self.bandwidth is not None:
            values = self.bandwidth if isinstance(self.bandwidth, tuple) else (self.bandwidth,)
            if not all(0 < h < float("inf") for h in values):
                raise ValueError(
                    f"bandwidth must be positive and finite, got {self.bandwidth!r}"
                )


def config_hash(cfg):
    doc = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "output"}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# the spectrum settings each source does not read: observed proportions need
# no model and no seed, and classify reads both instruments as its channels
_SPECTRUM_UNREAD = {"classify": ("instrument",), "state": (), "true": (
    "seed", "window_length", "signature_level", "n_trees", "max_depth", "min_leaf",
    "features_per_split")}


def _split_list(key, text, cast):
    try:
        return [cast(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"{key}: cannot read {text!r} as comma-separated {cast.__name__} values"
        ) from None


def load_config(args):
    """Merge defaults, the JSON config file, and flag overrides (flags win).

    `groups`, `synth_sizes` and `bandwidth` may be comma-separated strings
    or lists; a one-value bandwidth stays a scalar. Every file key is
    checked, but a field the command has no flag for, and so does not read,
    keeps its default, so it stays out of the hash. So does a field that
    spectrum's source does not read, and a flag for one is a usage error."""
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:
            # a JSON syntax error or non-UTF-8 bytes
            raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    for key, cast in (("groups", str), ("synth_sizes", int), ("bandwidth", float)):
        if isinstance(data.get(key), str):
            data[key] = _split_list(key, data[key], cast)
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    if isinstance(data.get("bandwidth"), tuple) and len(data["bandwidth"]) == 1:
        data["bandwidth"] = data["bandwidth"][0]
    if isinstance(data.get("instrument"), str):
        data["instrument"] = data["instrument"].upper()
    cfg = RunConfig(**data)
    unread = [f.name for f in fields(cfg) if not hasattr(args, f.name)]
    if args.command == "spectrum":
        unread += _SPECTRUM_UNREAD[cfg.spectrum_source]
    # argparse rejects a flag the command lacks, so these are flags a source ignores
    given = ["--" + n.replace("_", "-") for n in unread if getattr(args, n, None) is not None]
    if given:
        raise argparse.ArgumentError(
            None, f"spectrum --source {cfg.spectrum_source} does not read {', '.join(given)}")
    cfg = replace(cfg, **{f.name: f.default for f in fields(cfg) if f.name in unread})
    if cfg.features_per_split is not None:
        # spectrum fits only MRSF models; the other commands also fit the
        # naive model, one mean per instrument
        model, width = (("MRSF", mrsf_width(cfg.signature_level)) if args.command == "spectrum"
                        else ("naive", 2))
        if cfg.features_per_split > width:
            raise ValueError(
                f"features_per_split must be at most {width}, the {model} model's "
                f"feature count, got {cfg.features_per_split}"
            )
    return cfg


def _task_config(cfg):
    """The TaskConfig of `cfg`: each library field takes the setting of its name."""
    def build(cls, **converted):
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls) if hasattr(cfg, f.name)}
                   | converted)
    return build(TaskConfig, forest=build(ForestConfig),
                 instrument=Instrument[cfg.instrument] if cfg.instrument else None,
                 groups=tuple(Group[g] for g in cfg.groups) if cfg.groups else None)


def _stamp(command, run_hash):
    return {"tool": TOOL, "version": __version__, "command": command, "config_hash": run_hash}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _new_dir(stem):
    """Make and return the directory `<stem>-<n>` for the least `n` whose
    name is free, so each call gets a new one whatever earlier runs left."""
    for n in itertools.count():
        path = stem.with_name(f"{stem.name}-{n}")
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path


def _publish(cfg, command, write):
    """Publish a run as `<output>/<command>-<hash12>/` and return its path.

    `write(run_dir, run_hash)` writes the run files into a hidden staging
    sibling and returns meta.json's extra entries. The staging directory is
    then renamed into place, replacing an earlier run of the same config
    whole; on any error it is removed instead, so no partial run is left."""
    run_hash = config_hash(cfg)
    run_dir = Path(cfg.output) / f"{command}-{run_hash[:12]}"
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    # the pid keeps two processes writing the same run apart, and the number
    # a new attempt apart from what a killed one of the same pid left behind
    stem = run_dir.with_name(f".{run_dir.name}-{os.getpid()}")
    staging, old = _new_dir(stem), None
    try:
        meta = _stamp(command, run_hash)
        meta["config"] = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        meta.update(write(staging, run_hash))
        _write_json(staging / "meta.json", meta)
        # rename cannot replace a non-empty directory but can an empty one,
        # so the old run moves aside onto a new empty directory
        if run_dir.exists():
            old = _new_dir(stem.with_name(f"{stem.name}-old"))
            run_dir.rename(old)
        staging.rename(run_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if old is not None:
        shutil.rmtree(old, ignore_errors=True)
    return run_dir


def _write_points_tsv(path, run_hash, comments, columns, rows):
    """A stamped TSV: `# key<TAB>value` lines, a header, then one line per
    `(label, ..., vector)` row with each vector entry written by repr."""
    lines = [f"# tool\t{TOOL}\t{__version__}", f"# config_hash\t{run_hash}"]
    lines += [f"# {key}\t{value}" for key, value in comments]
    lines.append("\t".join(columns))
    for *labels, vector in rows:
        lines.append("\t".join([*labels, *(repr(float(v)) for v in vector)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _require_input(cfg, command):
    if not cfg.input:
        raise ValueError(f"{command} needs an input CSV (--input or config 'input')")
    return ingest(cfg.input)


def cmd_synth(cfg, command):
    spec = CohortSpec(sizes=cfg.synth_sizes, weeks=cfg.synth_weeks, seed=cfg.seed)
    cohort = generate_cohort(spec)

    def write(run_dir, run_hash):
        write_cohort(cohort, run_dir / "cohort.csv")
        return {"participants": len(cohort.records), "weeks": cfg.synth_weeks}

    run_dir = _publish(cfg, command, write)
    print(f"wrote {run_dir / 'cohort.csv'} ({len(cohort.records)} participants)")
    return 0


def cmd_classify(cfg, command):
    tcfg = _task_config(cfg)
    cohort = _require_input(cfg, command)
    result = run_classification(cohort, tcfg)

    def write(run_dir, run_hash):
        for model, report in (("mrsf", result.mrsf_report), ("naive", result.naive_report)):
            doc = _stamp(command, run_hash)
            doc["report"] = report_to_dict(report)
            doc["model"] = model
            _write_json(run_dir / f"report_{model}.json", doc)
        _write_points_tsv(
            run_dir / "loo_points.tsv", run_hash, [],
            ["participant_id", "group"] + [f"p_{g.name.lower()}" for g in Group],
            [(p.participant_id, p.group.name, p.probs) for p in result.loo_points],
        )
        return {"n_train": result.n_train, "n_test": result.n_test,
                "exclusions": list(cohort.exclusions)}

    run_dir = _publish(cfg, command, write)
    print(
        f"classify: mrsf accuracy {result.mrsf_report.accuracy_mean:.3f}, "
        f"naive accuracy {result.naive_report.accuracy_mean:.3f} -> {run_dir}"
    )
    return 0


def cmd_predict(cfg, command):
    """predict-state and predict-score: one reports.json with the MRSF and
    naive reports side by side per group x instrument, plus the severity
    report for scores."""
    score = command == "predict-score"
    tcfg = _task_config(cfg)
    cohort = _require_input(cfg, command)
    results = (run_score_prediction if score else run_state_prediction)(cohort, tcfg)
    entries = []
    for r in results:
        reports = {"mrsf": r.mrsf_report, "naive": r.naive_report}
        if r.severity_report is not None:
            reports["severity"] = r.severity_report
            summary = f"mrsf mae {r.mrsf_report.mae:.3f}, naive mae {r.naive_report.mae:.3f}"
        else:
            summary = (f"mrsf {r.mrsf_report.accuracy_mean:.3f}, "
                       f"naive {r.naive_report.accuracy_mean:.3f}")
        entries.append({
            "group": r.group.name,
            "instrument": r.instrument.name,
            "n_train": r.n_train,
            "n_test": r.n_test,
            **{name: report_to_dict(rep) for name, rep in reports.items()},
        })
        print(f"{command} {r.group.name}/{r.instrument.name}: {summary}")

    def write(run_dir, run_hash):
        _write_json(run_dir / "reports.json", {**_stamp(command, run_hash), "results": entries})
        return {"exclusions": list(cohort.exclusions)}

    run_dir = _publish(cfg, command, write)
    print(f"wrote {run_dir / 'reports.json'}")
    return 0


def cmd_spectrum(cfg, command):
    tcfg = _task_config(cfg)
    cohort = _require_input(cfg, command)
    source = cfg.spectrum_source
    # one plot per (group, instrument or None, points, what its error adds),
    # in file order
    plot_sets, skipped = [], []
    vertex_labels = STATE_VERTEX_LABELS
    if source == "classify":
        records, X_mrsf, _ = classification_windows(cohort, tcfg)
        points = loo_points(records, X_mrsf, tcfg)
        vertex_labels = tuple(g.name for g in Group)
        for g in tcfg.group_list:
            plot_sets.append((g, None, [p for p in points if p.group == g], ""))
    else:
        # per instrument, the rolled-out or the observed state proportions
        run = run_state_rollout if source == "state" else observed_proportions
        for result in run(cohort, tcfg):
            skipped += [[result.instrument.name, *skip] for skip in result.skipped]
            for g in tcfg.group_list:
                pts = [p for p in result.points if p.group == g]
                ids = {r.id for r in cohort.by_group(g)}
                skips = [(pid, reason) for pid, reason in result.skipped if pid in ids]
                # the skip reasons are otherwise only in the meta.json of a run
                note = (f"; the rollout skipped {len(skips)} of {len(ids)} {g.name} participants, "
                        f"the first {skips[0][0]}: {skips[0][1]}" if skips else "")
                plot_sets.append((g, result.instrument, pts, note))

    def write(run_dir, run_hash):
        rows = []
        for g, instrument, pts, note in plot_sets:
            meta = {"source": source, "group": g.name}
            if instrument is not None:
                meta["instrument"] = instrument.name
            # spectrum_<source>_<group>[_<instrument>]
            name = "_".join(["spectrum", *meta.values()])
            points = [simplex_project(p.probs) for p in pts]
            # each grid is freed once its plot is written
            try:
                emit_plot(
                    kde2d(points, bandwidth=cfg.bandwidth, resolution=cfg.resolution),
                    points, run_dir / name, g.name, vertex_labels,
                    metadata={"tool": TOOL, "version": __version__, "config_hash": run_hash, **meta},
                )
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}{note}") from exc
            rows += [(p.participant_id, g.name, meta.get("instrument", ""), p.probs) for p in pts]
        _write_points_tsv(
            run_dir / "points.tsv", run_hash, [("source", source)],
            ["participant_id", "group", "instrument", "p0", "p1", "p2"], rows,
        )
        # every file of the run so far; meta.json is written next
        return {"source": source, "files": sorted(os.listdir(run_dir)),
                "exclusions": list(cohort.exclusions), "skipped": skipped}

    run_dir = _publish(cfg, command, write)
    print(f"spectrum ({source}): wrote {len(plot_sets)} plots -> {run_dir}")
    return 0


def cmd_sig(args):
    _check_bounds("--level", args.level, _LEVEL.metadata["bounds"])
    try:
        with warnings.catch_warnings():
            # an empty file fails below, as too few points, without a warning
            warnings.simplefilter("ignore")
            points = np.loadtxt(args.points, delimiter=",", ndmin=2)
        terms = points.shape[1] ** args.level
        if terms > MAX_SIG_TERMS:
            raise ValueError(
                f"{points.shape[1]} columns at level {args.level} give {terms} "
                f"terms, above {MAX_SIG_TERMS}"
            )
        signature = stream_signature(points, args.level)
    except ValueError as exc:
        raise ValueError(f"{args.points}: {exc}") from None
    d = signature.dimension
    flat = signature.flatten(include_scalar=True)
    words = itertools.chain.from_iterable(
        itertools.product(range(1, d + 1), repeat=k)
        for k in range(signature.level + 1)
    )
    print(f"# {TOOL} {__version__} signature level {signature.level} dimension {d}")
    for word, value in zip(words, flat):
        label = ".".join(str(i) for i in word) or "()"
        print(f"{label}\t{float(value)!r}")
    return 0


# each parent parser and those it extends, in the order made; "evaluate" is
# the held-out split and its bootstrap reports, which spectrum does not make
_PARENTS = {"run": (), "task": ("run",), "subset": ("task",), "evaluate": (),
            "synth": ("run",), "spectrum": ("subset",)}
_SUBCOMMANDS = [
    ("synth", ("synth",), "generate a synthetic cohort CSV"),
    ("classify", ("task", "evaluate"), "3-group classification from one window per participant"),
    ("predict-state", ("subset", "evaluate"), "next-week state-label prediction per group"),
    ("predict-score", ("subset", "evaluate"), "next-week raw-score prediction per group"),
    ("spectrum", ("spectrum",), "triangle density plots per group"),
]
# sig --level takes signature_level's default and bounds
_LEVEL = RunConfig.__dataclass_fields__["signature_level"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Signature-feature pipeline for weekly mood scores "
        "with missing responses",
    )
    parser.add_argument(
        "--version", action="version", version=f"{TOOL} {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command's flags are exactly the RunConfig rows it reads. A child
    # parser copies its parents' flags when it is made, so each parent is
    # filled before a later one names it
    parents = {}
    for name, bases in _PARENTS.items():
        parent = parents[name] = argparse.ArgumentParser(
            add_help=False, parents=[parents[b] for b in bases])
        if name == "run":
            parent.add_argument("-c", "--config", help="JSON run-config file")
        for f in fields(RunConfig):
            if f.metadata["parent"] == name:
                parent.add_argument(
                    *f.metadata["flags"] or ["--" + f.name.replace("_", "-")], dest=f.name,
                    type=_FLAG_TYPES.get(f.type), **f.metadata["options"])
    for command, bases, text in _SUBCOMMANDS:
        sub.add_parser(command, parents=[parents[b] for b in bases], help=text)

    sp = sub.add_parser("sig", help="print the signature of a CSV of points")
    sp.add_argument("--points", required=True, help="CSV, one point per row")
    sp.add_argument("--level", type=int, default=_LEVEL.default)
    return parser


COMMANDS = {"synth": cmd_synth, "classify": cmd_classify, "predict-state": cmd_predict,
            "predict-score": cmd_predict, "spectrum": cmd_spectrum}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        if args.command == "sig":
            return cmd_sig(args)
        return COMMANDS[args.command](load_config(args), args.command)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        # reap the forest's worker processes before returning, so none
        # outlives the command
        shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
