#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark for one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository. The first call
configures and builds bench/e2e (a standalone CMake project that adds the
repository root) under .bench_build/e2e; later calls only rebuild what
changed. The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying every end-to-end metric named in BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1). Everything else goes to stderr.

    python3 bench/e2e/run.py --smoke [--binary <path>]

runs every workload for one round of windows, traced, and checks that
the result carries every metric BENCHMARK.json names, that the
correctness gate passed, that the warm-up covered every distinct
request, and that --self-test (one corrupted reference) makes
explainti_e2e fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUNS = os.path.join(ROOT, ".bench_build", "e2e-runs")
BINARY = os.path.join(BUILD, "explainti_e2e")
# A run takes under a minute (traced runs included); this only stops a
# hung run from hanging the caller.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind for the next call.
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "explainti_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("build failed")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds=None, trace=False, smoke=False,
               self_test=False):
    """Runs explainti_e2e once; returns (exit code, result dict or None)."""
    os.makedirs(RUNS, exist_ok=True)
    stem = os.path.join(RUNS, f"{workload}-{seed}-{os.getpid()}")
    out = stem + ".json"
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--out", out,
           "--tmp", stem + ".tmp"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", stem + ".trace.jsonl"]
    if smoke:
        cmd.append("--smoke")
    if self_test:
        cmd.append("--self-test")
    if os.path.exists(out):
        os.remove(out)
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"explainti_e2e timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    if not os.path.exists(out):
        return code or 1, None
    with open(out) as f:
        result = json.load(f)
    log(f"full result: {out}")
    return code, result


def pick(result, specs, section):
    metrics = {}
    for spec in specs:
        got = result[section].get(spec["name"])
        if got is None:
            sys.exit(f"explainti_e2e did not report {spec['name']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return metrics


def smoke(binary):
    bench = load_benchmark()
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        code, result = run_binary(binary, name, seed=1, trace=True, smoke=True)
        if result is None:
            problems.append(f"{name}: no result (exit {code})")
            continue
        if code != 0 or not result["correct"]:
            problems.append(f"{name}: correctness gate failed (exit {code})")
        for section, specs in (("metrics", bench["end_to_end"]),
                               ("layers", bench["per_layer"])):
            for spec in specs:
                if spec["name"] not in result[section]:
                    problems.append(f"{name}: missing {spec['name']}")
        diag = result["diagnostics"]
        if diag["warmup_covered"]["value"] != diag["distinct_requests"]["value"]:
            problems.append(f"{name}: warm-up missed distinct requests")
    first = bench["workloads"][0]["name"]
    code, _ = run_binary(binary, first, seed=1, smoke=True, self_test=True)
    if code == 0:
        problems.append("--self-test: a corrupted reference went unnoticed")
    for p in problems:
        log("SMOKE FAIL:", p)
    log("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary",
                        help="run this explainti_e2e instead of building one")
    args = parser.parse_args()

    binary = args.binary
    if binary is None:
        build()
        binary = BINARY
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")

    bench = load_benchmark()
    code, result = run_binary(binary, args.workload, args.seed, args.seconds,
                              trace=bool(args.trace))
    if result is None:
        sys.exit(f"explainti_e2e failed with exit code {code}")
    if args.trace:
        metrics = pick(result, bench["per_layer"], "layers")
    else:
        metrics = pick(result, bench["end_to_end"], "metrics")
    line = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
