#!/usr/bin/env python3
"""slampred end-to-end benchmark: one command per workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark
program from source into .bench_build/e2ebench (first run only), runs the
workload, checks its outputs, and prints as the last stdout line one
JSON object {"correct", "attempted", "failed", "metrics"}: every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer
metric with --trace 1 (the traced run also writes its spans to
.bench_build/e2ebench/traces/). Exits 1 when an output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def build():
    """Configures and builds the program; cmake skips up-to-date work."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found under %s" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (" ".join(step), error))
        if done.returncode != 0:
            fail("build step %s exited %d" % (" ".join(step), done.returncode))


def select_metrics(spec, raw, trace, correct):
    """The metric set of this mode, in BENCHMARK.json order and units.

    A run whose checks failed may have stopped early; it reports the
    metrics it got to.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    unmeasured = []
    for entry in wanted:
        name = entry["name"]
        got = raw.get(name)
        if got is None and not correct:
            continue
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % name)
            # A layer the workload never calls reports zero work.
            unmeasured.append(name)
            got = {"value": 0, "unit": entry["unit"]}
        if got["unit"] != entry["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s"
                 % (name, got["unit"], entry["unit"]))
        if got["value"] is None:
            fail("metric %s is not a finite number" % name)
        metrics[name] = {"value": got["value"], "unit": entry["unit"]}
    if unmeasured:
        print("e2ebench: layers not entered on this workload (reported as "
              "0): " + ", ".join(unmeasured), file=sys.stderr)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Test hooks of the benchmark's own tests.
    parser.add_argument("--tiny", type=int, choices=[0, 1], default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                 ", ".join(names)))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()

    work_dir = os.path.join(BUILD_DIR, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.tiny:
        command += ["--tiny", "1"]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    raw = None
    for line in done.stdout.splitlines():
        if line.startswith("E2EBENCH_RESULT "):
            raw = json.loads(line[len("E2EBENCH_RESULT "):])
        else:
            print(line)
    if raw is None:
        fail("workload %s exited %d without a result" % (args.workload,
                                                         done.returncode))
    for failure in raw["failures"]:
        print("e2ebench: output check failed: " + failure, file=sys.stderr)
    correct = bool(raw["correct"]) and done.returncode == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": select_metrics(spec, raw["metrics"], args.trace == 1,
                                  correct),
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
