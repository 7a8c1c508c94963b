#!/usr/bin/env python3
"""The FVL serving benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload hot_point --seed 1 --seconds 30 --trace 0

Run from the root of the source tree. Builds perfbench/ (the library plus
fvl_perfbench, Release) into $CARGO_TARGET_DIR or .bench_build, runs the
workload (hot_point, cold_archive or online_ingest), and prints a table
followed by one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics BENCHMARK.json lists; --trace 1 makes a traced run and
reports the per-layer metrics through trace_report.py. A failed build, run
or correctness check exits nonzero; only a correct run exits 0.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
import trace_report  # noqa: E402

RUN_TIMEOUT_S = 170
# The end-to-end figures printed for every workload. BENCHMARK.json gates
# the steady ones every workload measures (not query_qps_mean,
# query_p99_us or query_cpu_us, see NOTES.md); the ops-specific ones read
# n/a elsewhere.
E2E_TABLE = (("setup_s", "s"), ("query_qps", "1/s"), ("query_qps_mean", "1/s"),
             ("query_p50_us", "us"), ("query_p99_us", "us"), ("query_cpu_us", "us"),
             ("sweep_ms", "ms"), ("compact_ms", "ms"),
             ("open_ms", "ms"), ("ingest_items_per_s", "1/s"), ("apply_p50_us", "us"),
             ("checkpoint_p50_us", "us"),
             ("bytes_per_item", "B"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "fvl_perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fvl_perfbench")


def source_stamp():
    """Digest of the sources the binary is built from (the checkout may not
    be a git repository), plus the git commit when there is one."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if os.path.islink(name) or "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    stamp = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            stamp += " git:" + git.stdout.strip()
    return stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot_point", "cold_archive", "online_ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(os.path.join(out_dir, "build"))
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    trace_file = os.path.join(out_dir, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_dir, "tmp"), "--source", source_stamp()]
    if args.trace:
        command += ["--trace-file", trace_file]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        return fail(f"fvl_perfbench exited {run.returncode} without a result")
    result = json.loads(lines[-1])
    print(f"# {args.workload} seed={args.seed} trace={args.trace} stamp="
          f"{json.dumps(result['stamp'], sort_keys=True)}")

    if args.trace:
        layers, _ = trace_report.per_layer(trace_file)
        trace_report.print_table(layers, result)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _, _) in layers.items()}
    else:
        metrics = result["metrics"]
        for name, unit in E2E_TABLE:
            m = metrics.get(name)
            shown = (f"{m['value']:>14.6g} {unit:<6} n={m['n']}" if m else
                     f"{'n/a':>14} {unit:<6} (not an op of this workload)")
            print(f"  {name:<20} {shown}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")

    report = {}
    for spec in wanted:
        m = metrics.get(spec["name"])
        if m is None or not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]) or m["unit"] != spec["unit"]:
            return fail(f"metric {spec['name']} missing or mismatched: {m}")
        report[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report}))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
