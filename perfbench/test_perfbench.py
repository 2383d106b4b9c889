#!/usr/bin/env python3
"""The benchmark's own tests, at tiny input sizes (about half a minute).

    python3 perfbench/test_perfbench.py

Run from the root of a checkout.  Checks that every workload emits each
metric of BENCHMARK.json with its unit and every metric the benchmark
documents by name, that a seed fixes the compile corpus and the serve
request stream byte for byte, that the deterministic counts repeat
exactly, that a wrong output makes a run fail, and that the benchmark
refuses to run without the repository around it.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join("_perfbench", "test")

spec = importlib.util.spec_from_file_location("run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

# The end-to-end figures each workload reports under its own names, and
# the per-layer metrics, as the benchmark's documentation lists them.
NAMED = {
    "compile": ["compile_ms_p50", "compile_ms_p99"],
    "sim": ["sim_mips", "sim_ipc", "paper_rel_perf_err"],
    "serve": ["serve_rps", "serve_hit_ms_p50", "serve_hit_ms_p99",
              "serve_miss_ms_p50", "serve_miss_ms_p90"],
}
ALWAYS_NAMED = ["setup_s", "peak_rss_mb", "fail_ratio"]
LAYERS = (
    ["frontend.ms", "frontend.alloc_mw", "ssa_ir.insns_after",
     "straight_cc.ms", "straight_cc.static_insns", "straight_cc.rmov_ratio",
     "riscv_cc.ms", "riscv_cc.static_insns", "assembler.ms", "lint.ms",
     "tv.ms", "tv.decided_ratio", "iss.ms", "iss.minsns_per_s",
     "iss.alloc_words_per_insn", "engine.ms", "checker.ms",
     "serve.ack_ms_p50", "serve.queued_to_result_ms_p50",
     "serve.sample_ms_p50", "service.hit_ratio", "service.coalesced",
     "service.sims_per_distinct_point", "sim_ipc", "paper_rel_perf_err",
     "trace.unattributed_pct", "trace.overhead_pct"]
    + ["ssa_ir.%s.%s" % (p, k)
       for p in ["const-fold", "cse", "licm", "dce", "simplify-cfg"]
       for k in ["ms", "applied"]]
    + ["engine.%s.%s" % (m, k)
       for m in ["ss-2way", "straight-2way", "ss-4way", "straight-4way"]
       for k in ["ns_per_cycle", "alloc_words_per_cycle", "l1d_miss_ratio",
                 "mispredicts_per_kinsn", "wrong_path_ratio"]
       + ["cpi." + b for b in ["base", "frontend", "branch_squash", "memory",
                               "structural"]]])


def bench_exe(*args):
    """Run the built benchmark; (exit code, report lines, final JSON)."""
    cmd = [run.EXE, "--daemon", run.DAEMON, "--work-dir", WORK] + list(args)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, lines, last


def tiny(workload, trace, seed=1):
    return bench_exe("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--tiny")


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(WORK, exist_ok=True)
        with open("BENCHMARK.json") as f:
            cls.cfg = json.load(f)

    def check_metrics(self, last, declared):
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(set(last["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = last["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_emitted_with_unit(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, lines, last = tiny(w, 0)
                self.assertEqual(rc, 0, "\n".join(lines[-20:]))
                self.check_metrics(last, self.cfg["end_to_end"])
                for m in self.cfg["end_to_end"]:
                    self.assertGreater(last["metrics"][m["name"]]["value"], 0, m["name"])
                named = {l.split()[1]: l.split()[3] for l in lines if l.startswith("e2e ")}
                for n in NAMED[w] + ALWAYS_NAMED:
                    self.assertIn(n, named)
                    self.assertTrue(named[n])
                rc, lines, last = tiny(w, 1)
                self.assertEqual(rc, 0, "\n".join(lines[-20:]))
                self.check_metrics(last, self.cfg["per_layer"])
                self.assertTrue(any(l.startswith("layer self times") for l in lines))
                self.assertTrue(any(l.startswith("tracing overhead") for l in lines))
        self.assertTrue(set(LAYERS) <= {m["name"] for m in self.cfg["per_layer"]})

    def dump(self, workload, seed):
        path = os.path.join(WORK, "inputs-%s-%d" % (workload, seed))
        rc, _, _ = bench_exe("--workload", workload, "--seed", str(seed),
                             "--dump-inputs", path)
        self.assertEqual(rc, 0)
        with open(path, "rb") as f:
            return f.read()

    def test_seed_fixes_inputs(self):
        for w in ["compile", "serve"]:
            with self.subTest(workload=w):
                a = self.dump(w, 5)
                self.assertEqual(a, self.dump(w, 5))
                self.assertNotEqual(a, self.dump(w, 6))

    def test_deterministic_counts_repeat(self):
        keys = ["sim_ipc", "paper_rel_perf_err", "straight_cc.static_insns"]
        _, _, a = tiny("sim", 1, seed=1)
        _, _, b = tiny("sim", 1, seed=2)
        for k in keys:
            self.assertEqual(a["metrics"][k]["value"], b["metrics"][k]["value"], k)
            self.assertGreater(a["metrics"][k]["value"], 0, k)
        _, _, a = tiny("compile", 1, seed=3)
        _, _, b = tiny("compile", 1, seed=3)
        k = "straight_cc.static_insns"
        self.assertEqual(a["metrics"][k]["value"], b["metrics"][k]["value"])

    def test_wrong_output_fails_the_run(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, _, last = bench_exe("--workload", w, "--seconds", "1",
                                        "--tiny", "--corrupt-expected")
                self.assertNotEqual(rc, 0)
                self.assertFalse(last["correct"])
                self.assertGreater(last["failed"], 0)

    def test_refuses_without_the_repository(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy("BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "compile",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
