#!/usr/bin/env python3
"""Compare two commits on the end-to-end benchmark.

Run mode: alternate runs of the parent checkout and the change checkout,
one pair per seed, flipping which side runs first every pair:

    python3 e2ebench/compare.py --base PARENT_DIR --head CHANGE_DIR \
        [--workload NAME ...] [--pairs 10] [--first-seed 1000] \
        [--save pairs.json]

Analysis mode, on pairs saved by an earlier run:

    python3 e2ebench/compare.py --load pairs.json

Each directory is a checkout root holding BENCHMARK.json and e2ebench/.
For every workload it prints one row with its verdict, then one line per
end-to-end metric: each side's median and quartiles, pairs won by the
change (ties count for neither), and the verdict:

  better      the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile spread
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  a side's spread (IQR / median) is wider than the bound, and
              not every change run beats every parent run
  same        none of the above
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def judge(metric, base, head):
    """Verdict for one metric from paired runs (lists of equal length)."""
    higher = metric["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(1 for b, h in zip(base, head) if better(h, b))
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    gap = h2 - b2
    row = {
        "metric": metric["name"], "unit": metric["unit"],
        "base": [b1, b2, b3], "head": [h1, h2, h3],
        "wins": wins, "pairs": len(base),
        "base_spread": spread(base), "head_spread": spread(head),
        "bound": metric["bound"],
    }
    all_better = all(better(h, b) for h in head for b in base)
    worse_by = (-gap if higher else gap) / abs(b2) if b2 else 0.0
    if (wins >= WIN_SHARE * len(base) and better(h2, b2)
            and abs(gap) > (b3 - b1)):
        row["verdict"] = "better"
    elif max(row["base_spread"], row["head_spread"]) > metric["bound"] \
            and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > metric["bound"]:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "same"
    return row


def analyze(spec, runs):
    """runs: {workload: [{"base": metrics, "head": metrics}, ...]}."""
    table = {}
    for workload, pairs in runs.items():
        rows = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [p["base"][name]["value"] for p in pairs]
            head = [p["head"][name]["value"] for p in pairs]
            rows.append(judge(metric, base, head))
        table[workload] = rows
    return table


def summary(rows):
    parts = []
    for verdict in ("better", "worse", "unresolved"):
        names = [r["metric"] for r in rows if r["verdict"] == verdict]
        if names:
            parts.append("%s: %s" % (verdict, ", ".join(names)))
    return "; ".join(parts) if parts else "same on every metric"


def print_table(table):
    for workload, rows in table.items():
        print("%-14s %s" % (workload, summary(rows)))
        for r in rows:
            print("    %-18s base %-32s head %-32s wins %2d/%-2d spread "
                  "%.3f/%.3f bound %.2f  %s" % (
                      r["metric"],
                      "%.4g [%.4g, %.4g]" % (r["base"][1], r["base"][0],
                                              r["base"][2]),
                      "%.4g [%.4g, %.4g]" % (r["head"][1], r["head"][0],
                                              r["head"][2]),
                      r["wins"], r["pairs"], r["base_spread"],
                      r["head_spread"], r["bound"], r["verdict"]))


def run_once(root, workload, seed, seconds):
    command = [sys.executable, os.path.join(root, "e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s: %s seed %d exited %d" % (
            root, workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s: %s seed %d failed its output checks" % (
            root, workload, seed))
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base")
    parser.add_argument("--head")
    parser.add_argument("--load")
    parser.add_argument("--save")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    if args.load:
        with open(args.load) as handle:
            saved = json.load(handle)
        spec, runs = saved["spec"], saved["runs"]
    else:
        if not (args.base and args.head):
            parser.error("give --base and --head, or --load")
        if args.pairs < MIN_PAIRS:
            parser.error("a claim needs at least %d pairs" % MIN_PAIRS)
        with open(os.path.join(args.head, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        with open(os.path.join(args.base, "BENCHMARK.json")) as handle:
            if json.load(handle) != spec:
                parser.error("the two checkouts define different benchmarks")
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        runs = {w: [] for w in workloads}
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                pair = {}
                for side in order:
                    root = args.base if side == "base" else args.head
                    pair[side] = run_once(root, workload, seed,
                                          spec["run_seconds"])
                runs[workload].append(pair)
                print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                      file=sys.stderr)
        if args.save:
            with open(args.save, "w") as handle:
                json.dump({"spec": spec, "runs": runs}, handle)

    if any(len(p) < MIN_PAIRS for p in runs.values()):
        print("warning: fewer than %d pairs; no claim can rest on this"
              % MIN_PAIRS, file=sys.stderr)
    print_table(analyze(spec, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
