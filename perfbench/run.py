#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The script builds perfbench/ (which
compiles the repository's libraries from source) into .bench_build/, runs
the workload in its own process, checks the result, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, taken from a traced run that
follows an untraced one with the same seed, and the lines before it give
each layer's target metric and the traced-minus-untraced difference of
every end-to-end metric. --scale shrinks the inputs (tests only).
--workload all runs every workload of BENCHMARK.json in turn, each with
its own result line.

Exit status: 0 when every operation passed its oracle, 1 otherwise, and 1
without a result line when the program cannot be built.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ppqbench")
# The whole run, builds included, must end well inside three minutes; a
# first build in a fresh tree gets the long allowance.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 800


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "ppqbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                fail("build failed: " + " ".join(step))


def run_workload(args, trace, deadline):
    """Run the program once; returns its parsed result object."""
    work = os.path.join(BUILD, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--dir", work, "--scale", str(args.scale)]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(BUILD, "traces", args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (args.workload, proc.returncode))
    result["exit_code"] = proc.returncode
    return result


def check_metrics(got, spec, kind, problems):
    """Every metric of spec, with its unit and a finite value."""
    out = {}
    for entry in spec:
        name = entry["name"]
        metric = got.get(name)
        if metric is None:
            problems.append("%s metric %s missing" % (kind, name))
            continue
        value = metric["value"]
        if metric["unit"] != entry["unit"]:
            problems.append("%s unit %s != %s" % (name, metric["unit"], entry["unit"]))
        if value is None or not math.isfinite(value):
            problems.append("%s is not finite" % name)
            continue
        if kind == "end-to-end" and value <= 0:
            problems.append("%s is %r" % (name, value))
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        codes = [subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)]).returncode
            for name in names]
        sys.exit(0 if not any(codes) else 1)
    if args.workload not in names:
        fail("unknown workload %s" % args.workload)

    build_start = time.monotonic()
    build()
    deadline += time.monotonic() - build_start

    problems = []
    untraced = run_workload(args, False, deadline)
    e2e = check_metrics(untraced["metrics"], spec["end_to_end"], "end-to-end",
                        problems)
    results = [untraced]
    if args.trace:
        traced = run_workload(args, True, deadline)
        results.append(traced)
        layers = check_metrics(traced["layers"], spec["per_layer"], "per-layer",
                               problems)
        for name, layer in traced["layers"].items():
            print("layer %-34s %14.6g %-6s -> %s" % (
                name, layer["value"], layer["unit"], layer["target"]))
        for name, metric in traced["metrics"].items():
            before = untraced["metrics"].get(name, {}).get("value")
            after = metric["value"]
            if before is not None and after is not None:
                print("tracing overhead %-24s traced=%.6g untraced=%.6g "
                      "diff=%+.6g %s" % (name, after, before, after - before,
                                         metric["unit"]))
        metrics = layers
    else:
        metrics = e2e

    nproc = len(os.sched_getaffinity(0))
    peak = max(r["peak_threads"] for r in results)
    print("threads peak=%d nproc=%d" % (peak, nproc))
    print("deterministic " + json.dumps(untraced["deterministic"], sort_keys=True))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        if r["exit_code"] != 0 and r["failed"] == 0:
            problems.append("program exited %d" % r["exit_code"])
    for problem in problems:
        print("run.py: " + problem, file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed + len(problems), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
