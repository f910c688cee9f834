#!/usr/bin/env python3
"""Run the full synthetic benchmark end to end and print a summary table.

Generates the default 126-participant cohort, then runs classification,
next-week state and score prediction, and the three spectrum plot sets,
all under one output root. Every step goes through the CLI so the run
directories match what `moodsig <command>` produces. Use --fast for a
small smoke-scale pass (minutes become seconds)."""

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

from moodsig.cli import main as moodsig


def run(argv):
    print(f"$ moodsig {' '.join(argv)}")
    rc = moodsig(argv)
    if rc != 0:
        sys.exit(rc)


def only(pattern, root):
    matches = sorted(root.glob(pattern))
    if len(matches) != 1:
        sys.exit(f"expected one match for {pattern}, found {len(matches)}")
    return matches[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true",
                        help="small cohort, 10 trees, 100 bootstrap resamples")
    args = parser.parse_args()

    out = Path(args.output)
    base = ["-o", str(out), "--seed", str(args.seed)]
    model = ["--n-trees", "10"] if args.fast else []
    # spectrum evaluates no held-out split, so it takes no resample count
    evaluate = ["--bootstrap-samples", "100"] if args.fast else []
    synth = ["synth"] + base + (
        ["--sizes", "8,8,8", "--weeks", "30"] if args.fast else []
    )
    run(synth)
    cohort = only("synth-*/cohort.csv", out)
    common = base + model + ["--input", str(cohort)]

    run(["classify"] + common + evaluate)
    run(["predict-state"] + common + evaluate)
    run(["predict-score"] + common + evaluate)
    resolution = ["--resolution", "96" if args.fast else "200"]
    for source in ("classify", "state"):
        run(["spectrum"] + common + ["--source", source] + resolution)
    # observed proportions read neither the seed nor the model settings
    run(["spectrum", "-o", str(out), "--input", str(cohort), "--source", "true"] + resolution)
    # each command ends the forest worker pool before it returns
    alive = multiprocessing.active_children()
    if alive:
        sys.exit(f"forest worker processes outlived their command: {alive}")

    print("\n=== classification (one 20-week window per participant) ===")
    classify_dir = only("classify-*", out)
    for model_name in ("mrsf", "naive"):
        doc = json.loads((classify_dir / f"report_{model_name}.json").read_text(encoding="utf-8"))
        rep = doc["report"]
        print(f"  {model_name:5s} accuracy {rep['accuracy_mean']:.3f} "
              f"(bootstrap std {rep['accuracy_std']:.3f})")

    print("\n=== next-week state prediction ===")
    doc = json.loads((only("predict-state-*", out) / "reports.json").read_text(encoding="utf-8"))
    for r in doc["results"]:
        print(f"  {r['group']:3s}/{r['instrument']}: "
              f"mrsf {r['mrsf']['accuracy_mean']:.3f}  "
              f"naive {r['naive']['accuracy_mean']:.3f}")

    print("\n=== next-week score prediction (MAE) ===")
    doc = json.loads((only("predict-score-*", out) / "reports.json").read_text(encoding="utf-8"))
    for r in doc["results"]:
        print(f"  {r['group']:3s}/{r['instrument']}: "
              f"mrsf {r['mrsf']['mae']:.3f}  naive {r['naive']['mae']:.3f}  "
              f"severity acc {r['severity']['accuracy_mean']:.3f}")

    plots = sorted(p.name for p in out.glob("spectrum-*/*.svg"))
    print(f"\n=== spectrum plots ({len(plots)} files) ===")
    for name in plots:
        print(f"  {name}")

    # one run directory per command and nothing else: a failed or killed
    # write would leave a hidden staging directory beside them
    names = sorted(p.name for p in out.iterdir())
    kinds = ["synth", "classify", "predict-state", "predict-score"] + ["spectrum"] * 3
    # strip each name's "-<hash12>"
    if sorted(n[:-13] for n in names) != sorted(kinds) or not all(
        (out / n).is_dir() for n in names
    ):
        sys.exit(f"expected the seven run directories in {out}, found {names}")


if __name__ == "__main__":
    main()
