#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
runtime libraries from src/ plus the perfbench binary with CMake, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Build output goes to stderr. The binary's stdout
is passed through; its last line is the result object, completed here with
every metric BENCHMARK.json names for the mode (per-layer metrics a
workload does not exercise read 0) and checked against those names and
units. Exit status: the binary's (0 = every output check passed), or 2 when
the checkout cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cluster_10k", "batch_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; dies on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        die(f"build step failed: {' '.join(cmd)}: {e}")


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A cache from another source tree (a moved checkout) cannot be
        # reused; start over.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0].split("=", 1)[1].strip()) != \
                os.path.realpath(HERE):
            shutil.rmtree(build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    start = time.monotonic()
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    run_checked(["cmake", "--build", build_dir, "-j", jobs], max(left, 60))
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        if r.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, timeout=30)
            return r.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "eucon", "experiment.h")):
        die(f"no EUCON sources under {ROOT}/src; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        die(f"{args.workload} printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{args.workload}: last line is not a result: {lines[-1]!r}")

    # Completeness and units against BENCHMARK.json. A missing end-to-end
    # metric, a unit mismatch, or a value that is not a positive finite
    # end-to-end number is a failed check.
    metrics = result["metrics"]
    ok = result["correct"] and proc.returncode == 0
    out = {}
    for m in wanted:
        got = metrics.pop(m["name"], None)
        if got is None:
            if args.trace == "0":
                print(f"perfbench: CHECK FAILED: {m['name']} not measured",
                      file=sys.stderr)
                ok = False
                continue
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            print(f"perfbench: CHECK FAILED: {m['name']} unit {got['unit']} "
                  f"!= {m['unit']}", file=sys.stderr)
            ok = False
        if args.trace == "0" and not got["value"] > 0:
            print(f"perfbench: CHECK FAILED: {m['name']} = {got['value']}",
                  file=sys.stderr)
            ok = False
        out[m["name"]] = got
    if metrics:
        print(f"perfbench: CHECK FAILED: undeclared metrics {sorted(metrics)}",
              file=sys.stderr)
        ok = False
    result["metrics"] = out
    result["correct"] = bool(ok)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if ok else (proc.returncode or 1))


if __name__ == "__main__":
    main()
