#!/usr/bin/env python3
"""Peak-memory smoke check for detailed simulation.

    python3 scripts/mem_smoke.py [STRAIGHTSIM]

Runs straightsim fully detailed, with the lockstep checker armed, on the
stream workload at ~1M and then ~4M retired instructions, and reads the
peak resident set of the children with getrusage(RUSAGE_CHILDREN) after
each run.  The engine pulls its uops from the ISS through a bounded
window, so memory must not grow with the length of the run: the check
fails when either run peaks above LIMIT_MB, or when the longer run peaks
more than GROWTH above the shorter one.  The runs go shortest first, so
the second reading (the maximum over both children) bounds the longer
run from above.
"""

import resource
import subprocess
import sys

LIMIT_MB = 100.0
GROWTH = 0.15
RUNS = [("stream-1m", "~1M"), ("stream-4m", "~4M")]


def peak_children_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else "_build/default/bin/straightsim.exe"
    peaks = []
    for workload, size in RUNS:
        cmd = [exe, "-model", "straight-4way", "-workload", workload]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           universal_newlines=True)
        if r.returncode != 0:
            print("mem-smoke: %s exited %d\n%s" % (" ".join(cmd), r.returncode,
                                                   r.stderr), file=sys.stderr)
            return 1
        if "zero divergence" not in r.stdout:
            print("mem-smoke: %s ran without the lockstep checker" % workload,
                  file=sys.stderr)
            return 1
        insns = next((l.split(":")[1].strip() for l in r.stdout.splitlines()
                      if l.startswith("instructions")), "?")
        peaks.append(peak_children_mb())
        print("mem-smoke: %s (%s, %s instructions detailed): peak RSS %.1f MB"
              % (workload, size, insns, peaks[-1]))
    short, long_ = peaks
    ok = True
    if max(peaks) > LIMIT_MB:
        print("mem-smoke: peak RSS %.1f MB is above %.0f MB" % (max(peaks), LIMIT_MB),
              file=sys.stderr)
        ok = False
    if long_ > (1.0 + GROWTH) * short:
        print("mem-smoke: the 4x longer run peaks at %.1f MB, more than %.0f%% "
              "above the shorter run's %.1f MB" % (long_, 100 * GROWTH, short),
              file=sys.stderr)
        ok = False
    if ok:
        print("mem-smoke: detailed-run memory is bounded (%.1f MB at ~1M, "
              "%.1f MB at ~4M)" % (short, long_))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
