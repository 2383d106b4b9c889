#!/usr/bin/env python3
"""Run-to-run stability of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py spread  [--workloads W,..] [--seeds 1,2,..]
    python3 perfbench/stability.py heldout [--workloads W,..] [--seed N]
                                           [--heldout M] [--runs R]

spread: one run per seed; for each end-to-end metric prints the median
and the distance between the first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  Exits 1 when a
spread exceeds its bound.

heldout: R runs on the default seed and R on a held-out seed; each
metric's held-out median must lie within the metric's bound of the
default seed's median.  Exits 1 otherwise.

Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0:
        sys.exit("%s seed %d: exit %d\n%s" % (workload, seed, out.returncode, out.stdout))
    res = json.loads(last)
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["spread", "heldout"])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--heldout", type=int, default=7919)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    cfg = bench()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    ok = True
    for w in workloads:
        if args.mode == "spread":
            runs = [run_once(cfg, w, int(s)) for s in args.seeds.split(",")]
            for name, bound in bounds.items():
                med, sp = spread([r[name] for r in runs])
                verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
                ok = ok and sp <= bound
                print("%-10s %-16s median %-12.6g spread %6.3f  bound %.2f  %s"
                      % (w, name, med, sp, bound, verdict))
        else:
            base = [run_once(cfg, w, args.seed) for _ in range(args.runs)]
            held = [run_once(cfg, w, args.heldout) for _ in range(args.runs)]
            for name, bound in bounds.items():
                b = statistics.median([r[name] for r in base])
                h = statistics.median([r[name] for r in held])
                rel = (h - b) / b
                good = abs(rel) <= bound
                ok = ok and good
                print("%-10s %-16s seed %d %-12.6g seed %d %-12.6g %+6.3f  bound %.2f  %s"
                      % (w, name, args.seed, b, args.heldout, h, rel, bound,
                         "ok" if good else "OUT OF BOUND"))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
