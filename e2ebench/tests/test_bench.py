#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 e2ebench/tests/test_bench.py        (from the repository root)

Runs every workload at a tiny size (traced and untraced) and checks that
every metric BENCHMARK.json names is printed with its unit; shows each
output check failing the run on a deliberately corrupted output; runs
the open-loop stall self-test; checks the compare tool's verdicts on
synthetic pairs; and checks that the benchmark fails cleanly without
the library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# (workload, corrupted check) pairs: each must fail the run.
CORRUPTIONS = [
    ("paper-dense", "auc_vs_baselines"),
    ("paper-dense", "artifact_reload"),
    ("paper-dense", "full_tier"),
    ("serve-open", "quantized_error"),
    ("serve-open", "full_tier"),
    ("serve-open", "cached_tier"),
    ("serve-open", "version"),
    ("serve-open", "loadgen_lag"),
    ("serve-closed", "full_tier"),
    ("serve-closed", "version"),
]


def run_bench(workload, trace=0, corrupt="", root=ROOT, seed=5):
    command = [sys.executable, os.path.join(root, "e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds",
               "1", "--trace", str(trace), "--tiny", "1"]
    if corrupt:
        command += ["--corrupt", corrupt]
    return subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        seen = set()
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], name)
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for path in SPEC["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(workload, trace=trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                    result = last_json(done.stdout)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, SPEC["per_layer"] if trace
                                       else SPEC["end_to_end"])
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertNotEqual(metric["value"], 0, name)

    def test_traced_run_writes_spans(self):
        done = run_bench("serve-open", trace=1, seed=6)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        path = os.path.join(ROOT, ".bench_build", "e2ebench", "traces",
                            "serve-open-seed6.jsonl")
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        names = {s["name"] for s in spans}
        for wanted in ("core.fit", "serve.registry.swap", "loadgen.request",
                       "serve.topk", "serve.score_pairs"):
            self.assertIn(wanted, names)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            self.assertLessEqual(s["start_s"], s["end_s"])
            if s["name"] in ("serve.topk", "serve.score_pairs"):
                parent = by_id[s["parent"]]
                self.assertEqual(parent["name"], "loadgen.request")
                self.assertEqual(parent["request"], s["request"])
                self.assertNotEqual(s["request"], 0)

    def test_corrupted_outputs_fail_the_run(self):
        for workload, check in CORRUPTIONS:
            with self.subTest(workload=workload, check=check):
                done = run_bench(workload, corrupt=check)
                self.assertNotEqual(done.returncode, 0)
                result = last_json(done.stdout)
                if result is not None:
                    self.assertFalse(result["correct"])
                self.assertIn("check failed", done.stderr.lower())

    def test_open_loop_counts_a_stall(self):
        binary = os.path.join(ROOT, ".bench_build", "e2ebench", "e2e_bench")
        if not os.path.exists(binary):
            run_bench("paper-dense")
        done = subprocess.run([binary, "--selftest", "loadgen"],
                              stderr=subprocess.PIPE, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stderr)


class IsolationTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path))
        try:
            done = run_bench(WORKLOADS[0], root=scratch)
            self.assertNotEqual(done.returncode, 0)
            lines = done.stdout.strip().splitlines()
            if lines:
                with self.assertRaises(ValueError):
                    json.loads(lines[-1])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


class CompareTest(unittest.TestCase):
    def pairs(self, base, head):
        metrics = [m["name"] for m in SPEC["end_to_end"]]
        return [{"base": {n: {"value": b} for n in metrics},
                 "head": {n: {"value": h} for n in metrics}}
                for b, h in zip(base, head)]

    def verdicts(self, base, head):
        table = compare.analyze(SPEC, {"w": self.pairs(base, head)})
        return {r["metric"]: r["verdict"] for r in table["w"]}

    def test_clear_gain(self):
        base = [10.0 + 0.01 * i for i in range(10)]
        head = [9.0 + 0.01 * i for i in range(10)]
        v = self.verdicts(base, head)
        self.assertEqual(v["fit_s"], "better")  # Lower is better.
        self.assertEqual(v["auc"], "worse")     # Higher is better.

    def test_regression_and_noise(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        worse = [x * 1.3 for x in base]
        self.assertEqual(self.verdicts(base, worse)["fit_s"], "worse")
        noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.6]
        self.assertEqual(self.verdicts(noisy, noisy)["fit_s"], "unresolved")
        self.assertEqual(self.verdicts(base, base)["fit_s"], "same")


if __name__ == "__main__":
    unittest.main(verbosity=2)
