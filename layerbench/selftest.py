#!/usr/bin/env python3
"""Self-test of the layered benchmark, at a tiny size.

Usage (from the root of a checkout):

    python3 layerbench/selftest.py

Checks, for every workload of the program (BENCHMARK.json gates a subset):
  * an untraced run exits 0 and its last stdout line is the result object
    with exactly the end-to-end metrics of BENCHMARK.json, with their units;
  * a traced run reports exactly the per-layer metrics, with their units,
    and writes a span file whose top-level spans cover at least 95% of each
    job's wall time;
  * with --plant-bug (testkit's BrokenGshare, a TAGE with inverted
    predictions and a reference front end with a stale-BTB-target bug), the
    run fails: exit 1, "correct": false and a non-zero failed count.
Finally, the benchmark must exit non-zero without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step of run.py)

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Every workload of the program, also those BENCHMARK.json does not gate.
WORKLOADS = ["cold-trace", "hot-predictor", "sweep-campaign",
             "frontend-stress"]
SCALE = "0.05"
failures = []


def fail(message):
    failures.append(message)
    print("FAIL:", message)


def invoke(exe, work, workload, trace, extra=()):
    args = [exe, "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace), "--scale", SCALE, "--work-dir", work,
            *extra]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check_metrics(workload, result, wanted):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
        return
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        fail(f"{workload}: metrics {sorted(set(got) ^ set(names))} differ "
             "from BENCHMARK.json")
        return
    for m in wanted:
        value = got[m["name"]]
        if value.get("unit") != m["unit"] or not isinstance(
                value.get("value"), (int, float)):
            fail(f"{workload}: {m['name']} is {value}, want unit {m['unit']}")


def check_spans(workload, path):
    doc = json.load(open(path))
    top = {}
    for span in doc["spans"]:
        if span["parent"] == -1 and span["job"] >= 0:
            top[span["job"]] = top.get(span["job"], 0.0) + (
                span["end"] - span["start"])
    covers = sorted(top.get(job["id"], 0.0) / job["wall_s"]
                    for job in doc["jobs"])
    if not covers or covers[0] < 0.95:
        fail(f"{workload}: top-level spans cover {covers[:3]} of a job")
    print(f"  {workload}: {len(covers)} traced jobs, span coverage "
          f"{covers[0]:.3f} worst, {covers[len(covers) // 2]:.3f} median")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    exe = run.build(os.path.join(build_root, "layerbench"))
    work = os.path.join(build_root, "layerbench-selftest")
    for workload in WORKLOADS:
        proc, result = invoke(exe, work, workload, 0)
        if proc.returncode != 0 or result is None or not result["correct"]:
            fail(f"{workload}: untraced run failed: {proc.stderr[-800:]}")
        else:
            check_metrics(workload, result, SPEC["end_to_end"])
        spans = os.path.join(work, f"spans-{workload}-7.json")
        proc, result = invoke(exe, work, workload, 1)
        if proc.returncode != 0 or result is None or not result["correct"]:
            fail(f"{workload}: traced run failed: {proc.stderr[-800:]}")
        else:
            check_metrics(workload, result, SPEC["per_layer"])
            check_spans(workload, spans)
        proc, result = invoke(exe, work, workload, 0, ["--plant-bug"])
        if (proc.returncode != 1 or result is None or result["correct"]
                or result["failed"] == 0):
            fail(f"{workload}: planted bug was not caught "
                 f"(exit {proc.returncode}, result {result})")
        else:
            print(f"  {workload}: planted bug caught, {result['failed']}"
                  f" of {result['attempted']} jobs failed")

    # Without the library sources, the benchmark must fail cleanly.
    bare = os.path.join(work, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    gated = [w["name"] for w in SPEC["workloads"]]
    if not set(gated) <= set(WORKLOADS):
        fail(f"BENCHMARK.json names unknown workloads {gated}")
    proc = subprocess.run([*SPEC["command"], "--workload", gated[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout "
             f"{proc.stdout[-200:]!r}")
    shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
