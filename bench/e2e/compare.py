#!/usr/bin/env python3
"""Compare two sets of ipse-e2e run files, metric by metric.

    python3 bench/e2e/compare.py BASE CHANGE

BASE and CHANGE are run files or directories of them (run.py writes them
to .bench_build/e2e-out/runs).  For every workload and end-to-end metric
it prints each side's median and quartiles, the change's win share (the
fraction of (base, change) run pairs the change wins; ties count for
neither) and a verdict using the metric's bound from BENCHMARK.json:

  improved    the change wins at least 90% of pairs and its median beats
              the base median by more than the base's quartile distance;
  regressed   the change's median is worse by more than the bound;
  unresolved  a side's quartile distance exceeds the bound, unless every
              change run beats every base run;
  no worse    otherwise.

Traced runs (per-layer metrics) are summarized without a verdict.  Runs
from different hosts are refused.  Exit status: 0 when every verdict is
"improved" or "no worse", 1 otherwise, 2 on unusable input.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")
HOST_KEYS = ("nproc", "cpu_model", "isa", "kernel")


def load_runs(arg):
    paths = sorted(glob.glob(os.path.join(arg, "*.json"))) \
        if os.path.isdir(arg) else [arg]
    runs = []
    for p in paths:
        with open(p) as f:
            run = json.load(f)
        if not isinstance(run, dict) or run.get("bench") != "ipse-e2e" \
                or run.get("smoke"):
            continue  # Chrome traces, foreign files, smoke runs.
        if not run.get("correct", False):
            print("warning: %s reports wrong answers; ignored" % p)
            continue
        runs.append(run)
    return runs


def host_of(run):
    return tuple(run["host"].get(k) for k in HOST_KEYS)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, bound, lower_is_better):
    better = (lambda c, b: c < b) if lower_is_better else (lambda c, b: c > b)
    pairs = [(b, c) for b in base for c in change]
    wins = sum(1 for b, c in pairs if better(c, b))
    win_share = wins / len(pairs)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    all_better = wins == len(pairs)
    sign = -1 if lower_is_better else 1
    gain = sign * (cmed - bmed)  # > 0 when the change is better
    if win_share >= 0.9 and gain > bq3 - bq1:
        return win_share, "improved"
    if max(bq3 - bq1, 0) > bound * abs(bmed) or \
            max(cq3 - cq1, 0) > bound * abs(cmed):
        return win_share, "improved" if all_better else "unresolved"
    if -gain > bound * abs(bmed):
        return win_share, "regressed"
    return win_share, "no worse"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] n=%d" % (med, q1, q3, len(values))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, change = load_runs(argv[1]), load_runs(argv[2])
    if not base or not change:
        print("error: both sides need at least one correct run file",
              file=sys.stderr)
        return 2
    hosts = {host_of(r) for r in base + change}
    if len(hosts) != 1:
        print("error: run files come from different hosts:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h)),
                  file=sys.stderr)
        return 2
    print("host: " + ", ".join("%s=%s" % kv
                               for kv in zip(HOST_KEYS, hosts.pop())))

    def values(runs, workload, traced, name):
        return [r["metrics"][name]["value"] for r in runs
                if r["workload"] == workload and r["trace"] == traced
                and name in r["metrics"]]

    status = 0
    counts = {}
    for w in bench["workloads"]:
        name = w["name"]
        print("\n%s" % name)
        print("  %-22s %-36s %-36s %5s  %s" % ("metric", "base", "change",
                                                "win", "verdict"))
        for m in bench["end_to_end"]:
            b = values(base, name, False, m["name"])
            c = values(change, name, False, m["name"])
            if not b and not c:
                continue  # Traced runs only.
            if not b or not c:
                print("  %-22s missing on one side" % m["name"])
                status = 1
                counts["missing"] = counts.get("missing", 0) + 1
                continue
            share, v = verdict(b, c, m["bound"], m["better"] == "lower")
            counts[v] = counts.get(v, 0) + 1
            if v not in ("improved", "no worse"):
                status = 1
            print("  %-22s %-36s %-36s %5.2f  %s" % (m["name"], fmt(b),
                                                     fmt(c), share, v))
        traced = [(m["name"], values(base, name, True, m["name"]),
                   values(change, name, True, m["name"]))
                  for m in bench["per_layer"]]
        if any(b or c for _, b, c in traced):
            print("  per layer (traced runs, no verdict):")
            for n, b, c in traced:
                print("  %-30s %-36s %-36s" % (n, fmt(b) if b else "-",
                                               fmt(c) if c else "-"))
    print("\n" + ", ".join("%s: %d" % kv for kv in sorted(counts.items())))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
