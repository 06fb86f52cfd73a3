#!/usr/bin/env python3
"""Tests of the benchmark itself, run from the repository root:

    python3 perfbench/test_bench.py

Each workload runs small (--scale 0.25) and short (--seconds 1) through
run.py. The tests check that
  - BENCHMARK.json has the shape the runner relies on;
  - two runs with the same seed print identical deterministic values
    (bytes/pt, MAE, precision, recall, seals, WAL generations, codewords,
    TPI periods, candidates and points decoded);
  - a different seed changes the generated request streams;
  - every run is correct, with zero failed operations;
  - the peak `Threads:` count of every workload stays within nproc;
  - a traced run prints every per-layer metric and writes a
    chrome://tracing file holding the workload's spans.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("porto-sealed", "porto-live")
# Spans each workload's traced run must contain.
SPANS = {
    "porto-sealed": {"core.encode_tick", "core.seal", "core.open",
                     "query.strq", "query.window", "query.knn", "query.tpq"},
    "porto-live": {"repo.append", "repo.roll_all", "repo.quiesce",
                   "repo.open_live", "query.strq", "query.window",
                   "query.knn", "query.tpq"},
}
# Deterministic values that depend on the request stream, not the data.
REQUEST_DEPENDENT = ("index.candidates_total", "core.points_decoded_total",
                     "approx_precision", "approx_recall")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.25"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if not lines:
        raise AssertionError("no output:\n" + proc.stderr[-3000:])
    out = {"code": proc.returncode, "stderr": proc.stderr,
           "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("deterministic "):
            out["deterministic"] = json.loads(line[len("deterministic "):])
        match = re.match(r"threads peak=(\d+) nproc=(\d+)", line)
        if match:
            out["peak"], out["nproc"] = int(match[1]), int(match[2])
    return out


class BenchmarkSpecTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": 0.25}])
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})


class WorkloadTest(unittest.TestCase):
    def check_run(self, out):
        result = out["result"]
        self.assertEqual(out["code"], 0, out["stderr"][-3000:])
        self.assertTrue(result["correct"], out["stderr"][-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertLessEqual(out["peak"], out["nproc"],
                             "more threads than nproc")

    def check_workload(self, workload):
        first = run(workload, 7)
        second = run(workload, 7)
        other = run(workload, 8)
        for out in (first, second, other):
            self.check_run(out)
        self.assertEqual(first["deterministic"], second["deterministic"])
        self.assertTrue(
            any(first["deterministic"][k] != other["deterministic"][k]
                for k in REQUEST_DEPENDENT),
            "seed 8 drew the same requests as seed 7")
        spec = load_spec()
        self.assertEqual(set(first["result"]["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})

        traced = run(workload, 7, trace=1)
        self.check_run(traced)
        self.assertEqual(set(traced["result"]["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        path = os.path.join(ROOT, ".bench_build", "traces", workload + ".json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertLessEqual(SPANS[workload], names)
        for e in events:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)

    def test_porto_sealed(self):
        self.check_workload("porto-sealed")

    def test_porto_live(self):
        self.check_workload("porto-live")


if __name__ == "__main__":
    unittest.main()
