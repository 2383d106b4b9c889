#!/usr/bin/env python3
"""Build and run the toolchain benchmark for one workload, or all three.

    python3 perfbench/run.py --workload compile|sim|serve|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the benchmark
(perfbench/perfbench.exe) and the daemon it drives (bin/straightd.exe)
from source with dune, then runs the benchmark.  Its standard output
ends with one JSON line {"correct", "attempted", "failed", "metrics"};
with --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  A wrong output anywhere makes the
exit code non-zero.  --workload all runs the three workloads in turn and
fails when any of them fails.  Spans and result files land in
_perfbench/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "straightd.exe")
WORKLOADS = ["compile", "sim", "serve"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark and the daemon; exit non-zero when impossible."""
    for need in ("dune-project", os.path.join("perfbench", "dune")):
        if not os.path.isfile(need):
            fail("%s not found: run from the root of a full checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    cmd = [dune, "build", "--root", ".", "--display", "quiet",
           "perfbench/perfbench.exe", "bin/straightd.exe"]
    # build output goes to stderr so stdout stays the benchmark's report
    rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0 or not os.path.isfile(EXE) or not os.path.isfile(DAEMON):
        fail("build failed (dune exit %d)" % rc)


def run(args, workload):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", DAEMON, "--work-dir", "_perfbench"]
    # own session, so a timeout can stop the benchmark and its daemon
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S, code=3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    sys.stdout.flush()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(args, w) for w in workloads]
    sys.exit(next((c for c in codes if c != 0), 0))


if __name__ == "__main__":
    main()
