"""Command-line pipeline: CSV cohort ingestion, synthetic cohorts, task
runs, and triangle-spectrum plots.

Every command resolves a RunConfig (JSON file plus flag overrides), hashes
it, and writes its artifacts under `<output>/<command>-<hash12>/`. Reports
and plots embed the config hash and tool version; reruns with the same
config are byte-identical."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import logging
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .encode import (
    ASRM_MAX,
    MISSING,
    QIDS_MAX,
    Cohort,
    Group,
    ParticipantRecord,
    weekly,
)
from .errors import CohortValidationError, CsvParseError
from .forest import ForestConfig, shutdown_pool
from .metrics import report_to_dict
from .sigcore import stream_signature
from .spectrum import emit_plot, kde2d, simplex_project, true_proportions
from .synth import CohortSpec, generate_cohort
from .tasks import (
    CLASSIFY_TASK,
    SCORE_TASK,
    STATE_TASK,
    Instrument,
    ProbabilityPoint,
    TaskConfig,
    run_classification,
    run_score_prediction,
    run_state_prediction,
    run_state_rollout,
)

TOOL = "moodsig"
CSV_HEADER = ["participant_id", "group", "week", "asrm", "qids"]
MIN_WEEKS = 20
# a week number above this is rejected: ingest materialises every week of
# a participant's span, so this cap bounds its memory
MAX_WEEK = 10_000
# the highest signature_level and sig --level: level p of a d-channel path
# has d**p coefficients, and an MRSF table row sum(3**k for k <= p), 363 at 5
MAX_LEVEL = 5
# sig's top level holds d**level floats for d columns, and so does each of
# its intermediate products; a larger request is rejected before any work
MAX_SIG_TERMS = 10**6
# the largest spectrum resolution: each KDE grid holds resolution**2 floats
MAX_RESOLUTION = 1_000
# the most bootstrap resamples per report, each drawn and scored in turn
MAX_BOOTSTRAP_SAMPLES = 100_000
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
    whose span is shorter than 20 weeks."""
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
    with open(path, "w", newline="") as fh:
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


@dataclass(frozen=True)
class RunConfig:
    """Cross-command run settings; everything except `output` is hashed."""

    input: str | None = None
    output: str = "runs"
    seed: int = 0
    window_length: int | None = None
    signature_level: int = 2
    split_fraction: float = 0.7
    instrument: str | None = None
    groups: tuple[str, ...] | None = None
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None
    bootstrap_samples: int = 1000
    synth_sizes: tuple[int, ...] = (49, 45, 32)
    synth_weeks: int = 51
    spectrum_source: str = "classify"
    resolution: int = 200
    bandwidth: float | tuple[float, float] | None = None

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
        if self.instrument is not None and self.instrument not in ("ASRM", "QIDS"):
            raise ValueError(f"instrument must be ASRM or QIDS, got {self.instrument!r}")
        if self.groups is not None:
            bad = [g for g in self.groups if g not in Group.__members__]
            if bad:
                raise ValueError(f"unknown groups: {bad}")
        if self.spectrum_source not in ("classify", "state", "true"):
            raise ValueError(f"unknown spectrum_source {self.spectrum_source!r}")
        if not 2 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution must be 2..{MAX_RESOLUTION}, got {self.resolution}")
        if not 1 <= self.bootstrap_samples <= MAX_BOOTSTRAP_SAMPLES:
            raise ValueError(
                f"bootstrap_samples must be 1..{MAX_BOOTSTRAP_SAMPLES}, "
                f"got {self.bootstrap_samples}"
            )
        if not 1 <= self.signature_level <= MAX_LEVEL:
            raise ValueError(
                f"signature_level must be 1..{MAX_LEVEL}, got {self.signature_level}"
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
    keeps its default, so it stays out of the hash."""
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
    return replace(cfg, **{f.name: f.default for f in fields(cfg) if not hasattr(args, f.name)})


def _task_config(cfg, task):
    return TaskConfig(
        task=task,
        window_length=cfg.window_length,
        signature_level=cfg.signature_level,
        split_fraction=cfg.split_fraction,
        instrument=Instrument[cfg.instrument] if cfg.instrument else None,
        groups=tuple(Group[g] for g in cfg.groups) if cfg.groups else None,
        seed=cfg.seed,
        forest=ForestConfig(
            n_trees=cfg.n_trees,
            max_depth=cfg.max_depth,
            min_leaf=cfg.min_leaf,
            features_per_split=cfg.features_per_split,
        ),
        bootstrap_samples=cfg.bootstrap_samples,
    )


def _prepare_run(cfg, command):
    # called once the command's results exist, so a failed command leaves
    # no run directory behind
    run_hash = config_hash(cfg)
    run_dir = Path(cfg.output) / f"{command}-{run_hash[:12]}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir, run_hash


def _stamp(command, run_hash):
    return {
        "tool": TOOL,
        "version": __version__,
        "command": command,
        "config_hash": run_hash,
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_meta(run_dir, cfg, command, run_hash, extra=None):
    doc = _stamp(command, run_hash)
    doc["config"] = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    doc.update(extra or {})
    _write_json(run_dir / "meta.json", doc)


def _write_points_tsv(path, run_hash, comments, columns, rows):
    """A stamped TSV: `# key<TAB>value` lines, a header, then one line per
    `(label, ..., vector)` row with each vector entry written by repr."""
    lines = [f"# tool\t{TOOL}\t{__version__}", f"# config_hash\t{run_hash}"]
    lines += [f"# {key}\t{value}" for key, value in comments]
    lines.append("\t".join(columns))
    for *labels, vector in rows:
        lines.append("\t".join([*labels, *(repr(float(v)) for v in vector)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _require_input(cfg, command):
    if not cfg.input:
        raise ValueError(f"{command} needs an input CSV (--input or config 'input')")
    return ingest(cfg.input)


def cmd_synth(cfg, command):
    spec = CohortSpec(sizes=cfg.synth_sizes, weeks=cfg.synth_weeks, seed=cfg.seed)
    cohort = generate_cohort(spec)
    run_dir, run_hash = _prepare_run(cfg, command)
    csv_path = run_dir / "cohort.csv"
    write_cohort(cohort, csv_path)
    _write_meta(
        run_dir,
        cfg,
        command,
        run_hash,
        {"participants": len(cohort.records), "weeks": cfg.synth_weeks},
    )
    print(f"wrote {csv_path} ({len(cohort.records)} participants)")
    return 0


def cmd_classify(cfg, command):
    tcfg = _task_config(cfg, CLASSIFY_TASK)
    cohort = _require_input(cfg, command)
    result = run_classification(cohort, tcfg)
    run_dir, run_hash = _prepare_run(cfg, command)
    for model, report in (("mrsf", result.mrsf_report), ("naive", result.naive_report)):
        doc = _stamp(command, run_hash)
        doc["report"] = report_to_dict(report)
        doc["model"] = model
        _write_json(run_dir / f"report_{model}.json", doc)
    _write_points_tsv(
        run_dir / "loo_points.tsv",
        run_hash,
        [],
        ["participant_id", "group"] + [f"p_{g.name.lower()}" for g in Group],
        [(p.participant_id, p.group.name, p.probs) for p in result.loo_points],
    )
    _write_meta(
        run_dir,
        cfg,
        command,
        run_hash,
        {
            "n_train": result.n_train,
            "n_test": result.n_test,
            "exclusions": list(cohort.exclusions),
        },
    )
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
    tcfg = _task_config(cfg, SCORE_TASK if score else STATE_TASK)
    cohort = _require_input(cfg, command)
    results = (run_score_prediction if score else run_state_prediction)(cohort, tcfg)
    run_dir, run_hash = _prepare_run(cfg, command)
    doc = _stamp(command, run_hash)
    doc["results"] = []
    for r in results:
        reports = {"mrsf": r.mrsf_report, "naive": r.naive_report}
        if r.severity_report is not None:
            reports["severity"] = r.severity_report
            summary = f"mrsf mae {r.mrsf_report.mae:.3f}, naive mae {r.naive_report.mae:.3f}"
        else:
            summary = (f"mrsf {r.mrsf_report.accuracy_mean:.3f}, "
                       f"naive {r.naive_report.accuracy_mean:.3f}")
        doc["results"].append({
            "group": r.group.name,
            "instrument": r.instrument.name,
            "n_train": r.n_train,
            "n_test": r.n_test,
            **{name: report_to_dict(rep) for name, rep in reports.items()},
        })
        print(f"{command} {r.group.name}/{r.instrument.name}: {summary}")
    _write_json(run_dir / "reports.json", doc)
    _write_meta(run_dir, cfg, command, run_hash, {"exclusions": list(cohort.exclusions)})
    print(f"wrote {run_dir / 'reports.json'}")
    return 0


def cmd_spectrum(cfg, command):
    tcfg = _task_config(cfg, STATE_TASK)
    cohort = _require_input(cfg, command)
    source = cfg.spectrum_source
    # one plot per (group, instrument or None, points), in file order
    plot_sets, skipped = [], []
    vertex_labels = STATE_VERTEX_LABELS
    if source == "classify":
        result = run_classification(cohort, _task_config(cfg, CLASSIFY_TASK))
        vertex_labels = tuple(g.name for g in Group)
        for g in tcfg.group_list:
            plot_sets.append((g, None, [p for p in result.loo_points if p.group == g]))
    elif source == "state":
        for rollout in run_state_rollout(cohort, tcfg):
            skipped += [[rollout.instrument.name, *skip] for skip in rollout.skipped]
            for g in tcfg.group_list:
                pts = [p for p in rollout.points if p.group == g]
                plot_sets.append((g, rollout.instrument, pts))
    else:
        for instrument in tcfg.instruments:
            for g in tcfg.group_list:
                pts = [
                    ProbabilityPoint(r.id, g, true_proportions(r, instrument))
                    for r in cohort.by_group(g)
                ]
                plot_sets.append((g, instrument, pts))
    # every grid is computed before the run directory exists, so a set too
    # small for a KDE leaves no partial run behind
    plots, rows = [], []
    for g, instrument, pts in plot_sets:
        meta = {"source": source, "group": g.name}
        if instrument is not None:
            meta["instrument"] = instrument.name
        # spectrum_<source>_<group>[_<instrument>]
        name = "_".join(["spectrum", *meta.values()])
        points = [simplex_project(p.probs) for p in pts]
        try:
            grid = kde2d(points, bandwidth=cfg.bandwidth, resolution=cfg.resolution)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        plots.append((name, meta, points, grid))
        rows += [(p.participant_id, g.name, meta.get("instrument", ""), p.probs) for p in pts]
    run_dir, run_hash = _prepare_run(cfg, command)
    written = []
    for name, meta, points, grid in plots:
        written += emit_plot(
            grid, points, run_dir / name, meta["group"], vertex_labels,
            metadata={"tool": TOOL, "version": __version__, "config_hash": run_hash, **meta},
        )
    _write_points_tsv(
        run_dir / "points.tsv",
        run_hash,
        [("source", source)],
        ["participant_id", "group", "instrument", "p0", "p1", "p2"],
        rows,
    )
    written.append(str(run_dir / "points.tsv"))
    extra = {"source": source, "files": sorted(Path(p).name for p in written),
             "exclusions": list(cohort.exclusions), "skipped": skipped}
    _write_meta(run_dir, cfg, command, run_hash, extra)
    print(f"spectrum ({source}): wrote {len(written)} files -> {run_dir}")
    return 0


def cmd_sig(args):
    if not 1 <= args.level <= MAX_LEVEL:
        raise ValueError(f"--level must be 1..{MAX_LEVEL}, got {args.level}")
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

    # each command's flags are exactly the RunConfig fields it reads
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("-c", "--config", help="JSON run-config file")
    run.add_argument("-o", "--output", help="output root (default runs/)")
    run.add_argument("--seed", type=int)
    task = argparse.ArgumentParser(add_help=False, parents=[run])
    task.add_argument("--input", help="cohort CSV path")
    task.add_argument("--window-length", type=int)
    task.add_argument("--signature-level", type=int)
    task.add_argument("--split-fraction", type=float)
    task.add_argument("--n-trees", type=int)
    task.add_argument("--max-depth", type=int)
    task.add_argument("--min-leaf", type=int)
    task.add_argument("--features-per-split", type=int)
    task.add_argument("--bootstrap-samples", type=int)
    subset = argparse.ArgumentParser(add_help=False, parents=[task])
    subset.add_argument("--instrument", help="ASRM or QIDS (default both)")
    subset.add_argument("--groups", help="comma-separated subset of BD,HC,BPD")

    sp = sub.add_parser("synth", parents=[run], help="generate a synthetic cohort CSV")
    sp.add_argument("--sizes", dest="synth_sizes", help="BD,HC,BPD counts")
    sp.add_argument("--weeks", type=int, dest="synth_weeks")
    sub.add_parser("classify", parents=[task],
                   help="3-group classification from one window per participant")
    sub.add_parser("predict-state", parents=[subset],
                   help="next-week state-label prediction per group")
    sub.add_parser("predict-score", parents=[subset],
                   help="next-week raw-score prediction per group")
    sp = sub.add_parser("spectrum", parents=[subset], help="triangle density plots per group")
    sp.add_argument(
        "--source",
        dest="spectrum_source",
        choices=["classify", "state", "true"],
        help="probability vectors to plot",
    )
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--bandwidth", help="hx or hx,hy (default Scott's rule)")

    sp = sub.add_parser("sig", help="print the signature of a CSV of points")
    sp.add_argument("--points", required=True, help="CSV, one point per row")
    sp.add_argument("--level", type=int, default=2)
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "classify": cmd_classify,
    "predict-state": cmd_predict,
    "predict-score": cmd_predict,
    "spectrum": cmd_spectrum,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        if args.command == "sig":
            return cmd_sig(args)
        return COMMANDS[args.command](load_config(args), args.command)
    except (ValueError, OSError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        # reap the forest's worker processes before returning, so none
        # outlives the command
        shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
