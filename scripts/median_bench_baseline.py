#!/usr/bin/env python3
"""Merge several bench runs into one baseline.

Usage: median_bench_baseline.py OUT RUN.json RUN.json [RUN.json ...]

One run's speedups carry that run's load on a shared host; a baseline
taken from a single lucky or unlucky run makes the regression guard
(check_bench_regression.py) fail or pass by chance. Runs are refused when
they disagree on misprediction counts or did not pass their own checks.
The artifact kind is read from the runs:

* BENCH_kernels.json (has ``rows``): for every (predictor,
  collect_most_failed) row, the row of the run with the median speedup.
* BENCH_arena.json (has one global ``speedup``): the whole run with the
  median speedup, so its cold/warm/materialize seconds stay one
  consistent measurement.

Odd run counts pick a real run; even counts the lower middle one.
Regenerate the committed baselines from an idle machine with, e.g.:

    for i in 1 2 3 4 5; do
        MBP_CORPUS_DIR=build/bench_corpus build/bench/bench_kernels run$i.json
    done
    scripts/median_bench_baseline.py bench/baselines/BENCH_kernels.json run*.json

and likewise with build/bench/bench_arena_map for BENCH_arena.json.
"""

import json
import sys


def merge_kernels(run_paths, runs):
    """Per-row median-speedup rows of BENCH_kernels.json runs."""
    merged = dict(runs[0])
    merged["baseline_runs"] = len(runs)
    rows = []
    for row in runs[0]["rows"]:
        key = (row["predictor"], row["collect_most_failed"])
        candidates = []
        for path, run in zip(run_paths, runs):
            match = [
                r for r in run["rows"]
                if (r["predictor"], r["collect_most_failed"]) == key
            ]
            if len(match) != 1:
                print("%s: no single row %s" % (path, key), file=sys.stderr)
                return None
            if match[0]["mispredictions"] != row["mispredictions"]:
                print("%s: mispredictions differ for %s" % (path, key),
                      file=sys.stderr)
                return None
            candidates.append(match[0])
        candidates.sort(key=lambda r: r["speedup"])
        rows.append(candidates[(len(candidates) - 1) // 2])
    merged["rows"] = rows
    return merged


def merge_arena(run_paths, runs):
    """The median-speedup run of BENCH_arena.json runs."""
    def counts(run):
        return {p["predictor"]: p["mispredictions"] for p in run["predictors"]}

    want = counts(runs[0])
    for path, run in zip(run_paths, runs):
        if counts(run) != want:
            print("%s: mispredictions differ from %s" % (path, run_paths[0]),
                  file=sys.stderr)
            return None
    ranked = sorted(runs, key=lambda r: r["speedup"])
    merged = dict(ranked[(len(ranked) - 1) // 2])
    merged["baseline_runs"] = len(runs)
    return merged


def main():
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, run_paths = sys.argv[1], sys.argv[2:]
    runs = []
    for path in run_paths:
        with open(path) as f:
            runs.append(json.load(f))
    for path, run in zip(run_paths, runs):
        if not run.get("checks_passed", False):
            print("%s: checks_passed is false" % path, file=sys.stderr)
            return 1

    if "rows" in runs[0]:
        merged = merge_kernels(run_paths, runs)
    else:
        merged = merge_arena(run_paths, runs)
    if merged is None:
        return 1
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
