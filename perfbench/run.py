"""moodsig benchmark: end-to-end and per-layer metrics for three CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe
    python3 perfbench/run.py --record-references

Run from anywhere; paths resolve against the checkout that holds this file.
Each timed run is one `moodsig.cli.main([...])` call in a fresh Python
process, one at a time, with no pool. The harness writes the 126x51 cohort
(`moodsig.synth` defaults) to a CSV; moodsig receives only that CSV.

Every workload runs on that cohort with cohort seed 0, whatever --seed is.
A run's cost depends on its data: over cohort seeds 0-9 the classify
forests hold 47k to 76k nodes, an interquartile spread of 19% of the
median, close to the wall_s bound. Inputs that changed with --seed would
hide a regression of that size.

references.json holds the cohort's digest and the results recorded at the
benchmark's commit; `--record-references` re-records them and is for a
deliberate output change only. Every run's outputs must match exactly:
`loo_points.tsv` and both accuracies for classify, every MAE for
predict-score, `points.tsv` for rollout. Plot files, `.txt` twins and
meta.json are left out of the check. A run fails if the process exits
non-zero, raises, or fails the check; `failed / attempted` is the error rate.

--trace 0 measures with tracing off, starting timed runs until --seconds
have passed: `wall_s` is the median time around `main()`, `peak_rss_mb` the
median per-run peak RSS (children included), and `setup_s` the median time
from spawn to the end of `import moodsig.cli`, over the timed runs and three
import-only probes before each. --trace 1 alternates untraced and traced
runs, requires their run directories to be byte-identical, and reports the
per-layer metrics of the traced runs (medians over runs). A traced run
fails if a layer its workload exists to exercise records nothing, or if the
layers' self times do not sum to within 5% of its wall time.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it list every metric by
name with its unit. Exit code 0 means every run passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

COHORT_SEED = 0
SETUP_PROBES = 3  # import-only runs before each timed run
CHILD_TIMEOUT_S = 150
COVERAGE_TOLERANCE = 0.05

# Why each workload was chosen is in BENCHMARK.json. `nonzero` names the
# per-layer metrics that must be non-zero in a traced run: the layers the
# workload exists to exercise.
_CORE = ["cli.ingest_s", "tasks.run_s", "encode.mrsf_calls",
         "sigcore.signature_calls", "forest.fit_calls"]
WORKLOADS = {
    "classify": {
        "argv": ["classify", "--n-trees", "25"],
        "nonzero": _CORE + ["metrics.evaluate_s", "metrics.bootstrap_resamples"],
    },
    "predict-score": {
        "argv": ["predict-score", "--n-trees", "20", "--groups", "BPD"],
        "nonzero": _CORE + ["metrics.evaluate_s", "metrics.bootstrap_resamples"],
    },
    "rollout": {
        "argv": ["spectrum", "--source", "state", "--n-trees", "10", "--groups", "BPD"],
        "nonzero": _CORE + ["spectrum.kde_s", "spectrum.emit_s", "spectrum.grid_cells"],
    },
}


class BenchError(Exception):
    """The benchmark cannot run at all; no result is printed."""


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _rel(path):
    return str(path.relative_to(ROOT))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def import_moodsig():
    if not (SRC / "moodsig" / "cli.py").is_file():
        raise BenchError(f"no moodsig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import moodsig.cli
    import moodsig.synth

    if Path(moodsig.cli.__file__).resolve().parent != (SRC / "moodsig").resolve():
        raise BenchError(f"imported moodsig from {moodsig.cli.__file__}, not {SRC}")
    return moodsig


def machine():
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__}


def make_cohort(moodsig):
    """Write the benchmark cohort; returns (csv path, seconds, csv sha256)."""
    path = WORK / "cohort.csv"
    t0 = time.perf_counter()
    cohort = moodsig.synth.generate_cohort(moodsig.synth.CohortSpec(seed=COHORT_SEED))
    moodsig.cli.write_cohort(cohort, path)
    elapsed = time.perf_counter() - t0
    return path, elapsed, _sha256(path.read_bytes())


def spawn(mode, argv=()):
    """Run child.py once; returns its result dict, or None with the reason
    on standard error."""
    result = WORK / "result.json"
    spans = Path(str(result) + ".spans")
    for stale in (result, spans):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result), mode, *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(WORK / "child.log", "wb") as log:
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} run timed out after {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
    if code != 0 or not result.is_file():
        tail = (WORK / "child.log").read_text(errors="replace").strip().splitlines()[-5:]
        print(f"perfbench: {mode} run exited {code}: " + " | ".join(tail), file=sys.stderr)
        return None
    with open(result) as fh:
        out = json.load(fh)
    if spans.is_file():
        with open(spans) as fh:
            out["spans"] = json.load(fh)
    return out


def _data_digest(path):
    # '#' lines carry the tool version and config hash, not results
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return _sha256("\n".join(lines).encode())


def fingerprint(workload, run_dir):
    """The results a run must reproduce exactly."""
    if workload == "classify":
        acc = {}
        for model in ("mrsf", "naive"):
            with open(run_dir / f"report_{model}.json") as fh:
                acc[model] = json.load(fh)["report"]["accuracy_mean"]
        return {"loo_points.tsv": _data_digest(run_dir / "loo_points.tsv"),
                "accuracy_mean": acc}
    if workload == "predict-score":
        with open(run_dir / "reports.json") as fh:
            results = json.load(fh)["results"]
        return {"mae": {f"{r['group']}/{r['instrument']}":
                        {m: r[m]["mae"] for m in ("mrsf", "naive", "severity")}
                        for r in results}}
    return {"points.tsv": _data_digest(run_dir / "points.tsv")}


def run_workload(workload, csv_path, mode, out_root):
    """One child run writing under `out_root`; returns (result, run_dir)."""
    shutil.rmtree(out_root, ignore_errors=True)
    argv = WORKLOADS[workload]["argv"] + ["--input", _rel(csv_path), "-o", _rel(out_root)]
    res = spawn(mode, argv)
    if res is None:
        return None, None
    run_dirs = sorted(p for p in out_root.iterdir() if p.is_dir())
    if len(run_dirs) != 1:
        print(f"perfbench: expected one run directory, found {len(run_dirs)}",
              file=sys.stderr)
        return None, None
    return res, run_dirs[0]


def check(workload, run_dir, reference):
    got = fingerprint(workload, run_dir)
    if got != reference:
        print(f"perfbench: {workload} results differ from the reference:\n"
              f"  got      {json.dumps(got, sort_keys=True)}\n"
              f"  expected {json.dumps(reference, sort_keys=True)}", file=sys.stderr)
        return False
    return True


def _tree_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def measure(workload, csv_path, reference, seconds):
    """Tracing off: timed runs until `seconds` have passed."""
    spawn("probe")  # compiles bytecode; users pay that once, not per run
    setups = []
    walls, rss = [], []
    attempted = failed = 0
    out_root = WORK / "out"
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        # probes spread over the run, so set-up time samples the same
        # machine state as the timed runs
        for _ in range(SETUP_PROBES):
            res = spawn("probe")
            if res is None:
                raise BenchError("moodsig.cli does not import")
            setups.append(res["setup_s"])
        attempted += 1
        res, run_dir = run_workload(workload, csv_path, "run", out_root)
        if res is None or not check(workload, run_dir, reference):
            failed += 1
            continue
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        setups.append(res["setup_s"])
    shutil.rmtree(out_root, ignore_errors=True)
    metrics = {}
    if walls:
        metrics = {"wall_s": statistics.median(walls),
                   "peak_rss_mb": statistics.median(rss),
                   "setup_s": statistics.median(setups)}
    print(f"{workload}: {len(walls)} timed runs, wall_s samples "
          + " ".join(f"{w:.3f}" for w in walls))
    return attempted, failed, metrics


def layer_metrics(tree, counters, wall):
    """Per-layer metrics of one traced run."""
    own = tree.layer_self()
    fit_s = tree.inclusive({"forest.fit"})
    sig_s = tree.inclusive({"sigcore.stream_signature"})
    nodes = counters["forest.nodes"]
    chens = counters["sigcore.chen_products"]
    mrsf_calls = tree.count({"encode.mrsf"})
    runs = {n for n in tree.names if n.startswith("tasks.run_")}
    m = {
        "forest.fit_calls": tree.count({"forest.fit"}),
        "forest.fit_s": fit_s,
        "forest.trees": counters["forest.trees"],
        "forest.nodes": nodes,
        "forest.max_depth": counters["forest.max_depth"],
        "forest.train_rows": counters["forest.train_rows"],
        "forest.us_per_node": 1e6 * fit_s / nodes if nodes else 0.0,
        "forest.predict_s": tree.inclusive(
            {"forest.TreeEnsemble.predict", "forest.TreeEnsemble.predict_proba"}),
        "sigcore.signature_calls": tree.count({"sigcore.stream_signature"}),
        "sigcore.signature_s": sig_s,
        "sigcore.chen_products": chens,
        "sigcore.us_per_chen_product": 1e6 * sig_s / chens if chens else 0.0,
        "encode.mrsf_calls": mrsf_calls,
        "encode.mrsf_s": tree.inclusive({"encode.mrsf"}),
        "encode.mrsf_self_s": tree.self_within({"encode.mrsf"}, "encode"),
        "encode.naive_s": tree.inclusive({"encode.naive_features"}),
        "encode.distinct_windows": counters["encode.distinct_windows"],
        "encode.distinct_ratio": (counters["encode.distinct_windows"] / mrsf_calls
                                  if mrsf_calls else 0.0),
        "metrics.evaluate_s": tree.inclusive(
            {"metrics.evaluate_classification", "metrics.evaluate_regression"}),
        "metrics.bootstrap_s": tree.inclusive({"metrics.bootstrap"}),
        "metrics.bootstrap_resamples": tree.children_of({"metrics.bootstrap"}),
        "spectrum.kde_s": tree.inclusive({"spectrum.kde2d"}),
        "spectrum.emit_s": tree.inclusive({"spectrum.emit_plot"}),
        "spectrum.grid_cells": counters["spectrum.grid_cells"],
        "tasks.run_s": tree.inclusive(runs),
        "cli.ingest_s": tree.inclusive({"cli.ingest"}),
        "trace.wall_s": wall,
        "trace.coverage": sum(own.values()) / wall,
        "trace.spans": len(tree.names),
    }
    for layer in ("cli", "tasks", "encode", "sigcore", "forest", "metrics", "spectrum"):
        m[f"{layer}.self_s"] = own[layer]
    return m


def trace_problem(workload, layers):
    """Why a traced run's layer metrics cannot be trusted, or None."""
    missed = [n for n in WORKLOADS[workload]["nonzero"] if not layers[n]]
    if missed:
        return f"{', '.join(missed)} read 0; the tracer missed a layer"
    if abs(layers["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        return (f"layer self times sum to {layers['trace.coverage']:.3f} "
                "of the traced wall time")
    return None


def measure_traced(workload, csv_path, reference, seconds, synth_s):
    """Alternating untraced/traced runs until `seconds` have passed."""
    from spans import SpanTree

    spawn("probe")
    plain_walls, plain_cpu, per_run, out_bytes = [], [], [], []
    attempted = failed = pairs = 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        pair = {}
        pairs += 1
        # alternate which side runs first so drift does not bias the overhead
        for mode in ("run", "trace")[::1 if pairs % 2 else -1]:
            attempted += 1
            res, run_dir = run_workload(workload, csv_path, mode, WORK / "out")
            if res is None or not check(workload, run_dir, reference):
                failed += 1
                continue
            # both sides pass the same -o, so meta.json can match byte for byte
            kept = WORK / f"out-{mode}"
            shutil.rmtree(kept, ignore_errors=True)
            run_dir.parent.rename(kept)
            pair[mode] = (res, kept / run_dir.name)
        if len(pair) < 2:
            continue
        (plain, plain_dir), (traced, traced_dir) = pair["run"], pair["trace"]
        if _tree_files(plain_dir) != _tree_files(traced_dir):
            print("perfbench: traced and untraced run directories differ", file=sys.stderr)
            failed += 1
            continue
        layers = layer_metrics(SpanTree.load(traced["spans"]), traced["counters"],
                               traced["wall_s"])
        problem = trace_problem(workload, layers)
        if problem:
            print(f"perfbench: traced {workload} run: {problem}", file=sys.stderr)
            failed += 1
            continue
        per_run.append(layers)
        plain_walls.append(plain["wall_s"])
        plain_cpu.append(plain["cpu_s"])
        out_bytes.append(sum(p.stat().st_size for p in plain_dir.iterdir()))
    for mode in ("run", "trace"):
        shutil.rmtree(WORK / f"out-{mode}", ignore_errors=True)
    if not per_run:
        return attempted, failed, {}
    metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    metrics["cli.cpu_s"] = statistics.median(plain_cpu)
    metrics["cli.output_bytes"] = statistics.median(out_bytes)
    metrics["synth.generate_s"] = synth_s
    own = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(own.values())
    print(f"{workload}: {len(per_run)} traced runs; self-time share "
          + ", ".join(f"{k} {v / total:.1%}" for k, v in
                      sorted(own.items(), key=lambda kv: -kv[1])))
    return attempted, failed, metrics


def describe(spec, references):
    print("moodsig benchmark")
    print(f"  cohort: moodsig.synth defaults (sizes 49,45,32; 51 weeks), "
          f"cohort seed {COHORT_SEED} for every --seed")
    print(f"  references recorded on: {json.dumps(references.get('machine'))}")
    print(f"  this machine:           {json.dumps(machine())}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name, w in WORKLOADS.items():
        print(f"workload {name}: moodsig {' '.join(w['argv'])} "
              "--input <cohort.csv> -o <dir>")
        print(f"  why: {why[name]}")
    for kind in ("end_to_end", "per_layer"):
        print(f"{kind} metrics:")
        for m in spec[kind]:
            extra = f", {m['better']} is better" + (
                f", bound {m['bound']}" if "bound" in m else "")
            print(f"  {m['name']} [{m['unit']}]{extra}")


def record_references(moodsig):
    """Run every workload once and store the results it must reproduce."""
    csv_path, _, digest = make_cohort(moodsig)
    doc = {"machine": machine(), "cohort_sha256": digest, "results": {}}
    for workload in WORKLOADS:
        res, run_dir = run_workload(workload, csv_path, "run", WORK / "out")
        if res is None:
            raise BenchError(f"{workload} failed")
        doc["results"][workload] = fingerprint(workload, run_dir)
        print(f"recorded {workload}: {res['wall_s']:.2f} s")
    shutil.rmtree(WORK / "out", ignore_errors=True)
    with open(REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print workloads, machine context and metrics, then exit")
    parser.add_argument("--record-references", action="store_true",
                        help="re-record the expected results of every workload")
    args = parser.parse_args(argv)

    spec, units = load_spec()
    references = {}
    if REFERENCES.is_file():
        with open(REFERENCES) as fh:
            references = json.load(fh)
    if args.describe:
        describe(spec, references)
        return 0
    moodsig = import_moodsig()
    WORK.mkdir(exist_ok=True)
    if args.record_references:
        record_references(moodsig)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    csv_path, synth_s, digest = make_cohort(moodsig)
    if digest != references["cohort_sha256"]:
        raise BenchError("the cohort differs from the one the references were recorded on")
    reference = references["results"][args.workload]
    print(f"workload {args.workload}: moodsig {' '.join(WORKLOADS[args.workload]['argv'])}"
          f", cohort seed {COHORT_SEED} (--seed {args.seed} does not change it), "
          f"machine {json.dumps(machine())}")
    if args.trace:
        attempted, failed, metrics = measure_traced(
            args.workload, csv_path, reference, args.seconds, synth_s)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        attempted, failed, metrics = measure(args.workload, csv_path, reference, args.seconds)
        wanted = [m["name"] for m in spec["end_to_end"]]
    if not metrics:
        raise BenchError(f"no {args.workload} run succeeded")
    if sorted(metrics) != sorted(wanted):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(wanted))} do not match "
                         "BENCHMARK.json")
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} runs failed)")
    for name in wanted:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
