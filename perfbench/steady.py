#!/usr/bin/env python3
"""Steadiness command of the end-to-end benchmark (see README.md).

    python3 perfbench/steady.py --runs 10 --sets 2 --gap 300
    python3 perfbench/steady.py --report .bench_build/steady.jsonl

Runs every workload (default: those in BENCHMARK.json) --runs times
per set, alternating workloads inside each round, with a fresh seed per
run (set s uses seeds 100*s+1 .. 100*s+runs). Sets are separated by --gap seconds, so two sets sample
the host at different times. Every result line is appended to --out as
it arrives. The report gives, per workload and end-to-end metric, each
set's median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the relative change of the median from set 1
to each later set (positive = worse, for either direction of
"better"). The bounds in BENCHMARK.json come from this report.
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


def run_once(workload, seed, seconds, trace):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "wall_s": time.time() - t0,
            "result": result}


def better_direction():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}


def report(records):
    try:
        direction = better_direction()
    except (OSError, ValueError, KeyError):
        direction = {}
    by = {}
    for r in records:
        if r["result"] is None:
            print("FAILED RUN: %s seed %d (exit %d)" % (r["workload"], r["seed"],
                                                      r["returncode"]))
            continue
        res = r["result"]
        if not res["correct"]:
            # A run whose outputs failed a check measures a wrong program.
            print("CHECK FAILED: %s seed %d" % (r["workload"], r["seed"]))
            continue
        share = res["failed"] / res["attempted"]
        for name, m in res["metrics"].items():
            by.setdefault((r["workload"], name), {}).setdefault(r["set"], []).append(m["value"])
        by.setdefault((r["workload"], "failed_share"), {}).setdefault(r["set"], []).append(share)
    print("%-13s %-14s %4s %3s %12s %12s %12s %8s %8s %6s" %
          ("workload", "metric", "set", "n", "q1", "median", "q3", "spread", "change",
           "bound"))
    for (workload, name), sets in sorted(by.items()):
        first = None
        better, bound = direction.get(name, ("lower", None))
        for s in sorted(sets):
            v = sets[s]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            if first is None:
                first = med
                change = 0.0
            else:
                change = (med - first) / first if first else 0.0
                if better == "higher":
                    change = -change
            print("%-13s %-14s %4d %3d %12.6g %12.6g %12.6g %8.4f %8.4f %6s" %
                  (workload, name, s, len(v), q1, med, q3, spread, change,
                   "-" if bound is None else "%.2f" % bound))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--gap", type=float, default=0.0, help="seconds between sets")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: BENCHMARK.json workloads)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "steady.jsonl"))
    ap.add_argument("--report", metavar="FILE", help="only print the report of FILE")
    args = ap.parse_args()

    if args.report:
        with open(args.report) as f:
            report([json.loads(l) for l in f if l.strip()])
        return
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    if args.workloads is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [w for w in args.workloads.split(",") if w]
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    records = []
    with open(args.out, "a") as out:
        for s in range(1, args.sets + 1):
            if s > 1 and args.gap > 0:
                time.sleep(args.gap)
            for i in range(1, args.runs + 1):
                for w in workloads:
                    rec = run_once(w, 100 * s + i, seconds, args.trace)
                    rec["set"] = s
                    rec["time"] = time.time()
                    records.append(rec)
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    res = rec["result"]
                    print("set %d run %d %s: %s" % (
                        s, i, w, "FAILED" if res is None else
                        "ok" if res["correct"] else "CHECK FAILED"),
                        file=sys.stderr, flush=True)
    report(records)


if __name__ == "__main__":
    main()
