#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, alternating A and B.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs N] [--seconds S]

For every workload it makes N runs in set A and N in set B, alternating
A B, B A, A B, ... (set A uses seeds 1..N, set B seeds 101..100+N). It then
prints, for every end-to-end metric, each set's median, the
median ratio B/A, and each set's spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median. A
spread of a third of the metric's bound or more, or a B/A ratio worse than
the bound, is flagged. Raw results are saved under .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
B_SEED_OFFSET = 100  # set B's seeds never repeat set A's


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("FAILED")), file=sys.stderr)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def table(spec, data):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print("%-13s %-14s %12s %12s %8s %9s %9s  %s" %
          ("workload", "metric", "median A", "median B", "B/A", "spread A", "spread B",
           "flags"))
    ok = True
    for workload, sets in data.items():
        for name, (bound, better) in bounds.items():
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma
            sa, sb = spread(a), spread(b)
            worse = ratio - 1 if better == "lower" else 1 - ratio
            flags = []
            if max(sa, sb) >= bound / 3:
                flags.append("spread>=bound/3")
            if worse > bound:
                flags.append("B worse than A by more than the bound")
                ok = False
            if max(sa, sb) >= bound:
                ok = False
            print("%-13s %-14s %12.5g %12.5g %8.4f %9.4f %9.4f  %s" %
                  (workload, name, ma, mb, ratio, sa, sb, " ".join(flags)))
        failed = sum(r["failed"] for s in sets.values() for r in s)
        attempted = sum(r["attempted"] for s in sets.values() for r in s)
        print("%-13s %d failed of %d attempted operations" % (workload, failed, attempted))
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    args = ap.parse_args(argv)
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    data = {w: {"A": [], "B": []} for w in workloads}
    for workload in workloads:
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = 1 + i + (B_SEED_OFFSET if side == "B" else 0)
                data[workload][side].append(one_run(spec, workload, seed, seconds))
                print("%s %s run %d seed %d done" % (workload, side, i + 1, seed),
                      file=sys.stderr, flush=True)
    out = os.path.join(ROOT, ".bench_build", "steadiness-%d.json" % int(time.time()))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(data, f)
    print("raw results: %s" % os.path.relpath(out, ROOT))
    return 0 if table(spec, data) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
