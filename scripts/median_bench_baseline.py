#!/usr/bin/env python3
"""Merge several BENCH_kernels.json runs into one baseline.

Usage: median_bench_baseline.py OUT RUN.json RUN.json [RUN.json ...]

One run's speedups carry that run's load on a shared host; a baseline
taken from a single lucky or unlucky run makes the regression guard
(check_bench_regression.py) fail or pass by chance. This writes, for
every (predictor, collect_most_failed) row, the row of the run with the
median speedup (odd run counts pick a real run; even counts the lower
middle one), and refuses runs that disagree on misprediction counts or
did not pass their own checks.

Regenerate the committed baseline from an idle machine with, e.g.:

    for i in 1 2 3 4 5; do
        MBP_CORPUS_DIR=build/bench_corpus build/bench/bench_kernels run$i.json
    done
    scripts/median_bench_baseline.py bench/baselines/BENCH_kernels.json run*.json
"""

import json
import sys


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
                return 1
            if match[0]["mispredictions"] != row["mispredictions"]:
                print("%s: mispredictions differ for %s" % (path, key),
                      file=sys.stderr)
                return 1
            candidates.append(match[0])
        candidates.sort(key=lambda r: r["speedup"])
        rows.append(candidates[(len(candidates) - 1) // 2])
    merged["rows"] = rows

    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
