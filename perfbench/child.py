"""One measured moodsig process: `python child.py RESULT MODE [ARGV...]`.

MODE is `probe` (start the interpreter and import moodsig.cli, then exit),
`run` (also call `moodsig.cli.main(ARGV)` once) or `trace` (the same call
with every moodsig layer wrapped by `spans.Tracer`). The parent passes its
`time.monotonic()` at spawn in PERFBENCH_SPAWN; set-up time runs from there
to the end of `import moodsig.cli`. Timings, CPU time, peak RSS and the exit
code go to RESULT as JSON; a traced run also writes its spans next to it.
"""

import os
import sys
import time

import moodsig.cli

SETUP_S = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])

import json  # noqa: E402  (after the set-up clock stops)
import resource  # noqa: E402
import traceback  # noqa: E402


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _depth(tree):
    # nodes are numbered parent-first, so one forward pass suffices
    depth = [0] * len(tree.feature)
    for i, (lo, hi) in enumerate(zip(tree.left.tolist(), tree.right.tolist())):
        if lo >= 0:
            depth[lo] = depth[hi] = depth[i] + 1
    return max(depth)


def _window_key(args, kwargs):
    window = args[0]
    level = args[1] if len(args) > 1 else kwargs.get("level", 2)
    return level, tuple((o.asrm, o.qids) for o in window)


# what each traced call keeps for counting once the run is over
KEEP = {
    "forest.fit": lambda a, k, r: (len(a[0]), r),
    "sigcore.stream_signature": lambda a, k, r: a[0],
    "encode.mrsf": lambda a, k, r: (a, k),
    "spectrum.kde2d": lambda a, k, r: r,
}


def counters(kept):
    """Work counts read off the arguments and results the tracer kept."""
    fits = kept.get("forest.fit", [])
    trees = [t for _, model in fits for t in model.trees]
    return {
        "forest.train_rows": sum(rows for rows, _ in fits),
        "forest.trees": len(trees),
        "forest.nodes": sum(len(t.feature) for t in trees),
        "forest.max_depth": max((_depth(t) for t in trees), default=0),
        # one Chen product per path segment
        "sigcore.chen_products": sum(
            len(p) - 1 for p in kept.get("sigcore.stream_signature", [])),
        "encode.distinct_windows": len(
            {_window_key(a, k) for a, k in kept.get("encode.mrsf", [])}),
        "spectrum.grid_cells": sum(g.density.size for g in kept.get("spectrum.kde2d", [])),
    }


def main():
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    out = {"setup_s": SETUP_S}
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(moodsig, KEEP)
    if mode in ("run", "trace"):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out["exit_code"] = moodsig.cli.main(argv)
        except Exception as exc:
            traceback.print_exc()
            out["exit_code"] = None
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - cpu0
        # ru_maxrss is in KiB on Linux; a child's peak counts as the run's
        out["peak_rss_mb"] = max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    if tracer is not None:
        out["counters"] = counters(tracer.kept)
        with open(result_path + ".spans", "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0 if out.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
