#!/usr/bin/env python3
"""Tests of the control-interval benchmark itself.

    python3 perfbench/tests/test_run.py

Runs from any directory; the benchmark runs at the repository root, builds
its harness there on first use (about a minute) and then runs short smoke
runs (run.py --smoke) of every workload.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

SPAN_NAMES = {"tick", "sched.begin_tick", "core.allocate", "hier.allocate",
              "sim.apply_caps", "sim.advance", "daemon.service", "daemon.pump",
              "daemon.decide"}


def bench(workload, trace, cwd=REPO, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_declared_metrics_match_the_harness(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(declared, table, key)
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_seeds_are_deterministic_and_one_per_stratum(self):
        for spec in run.WORKLOADS.values():
            a = run.episode_seeds(spec, 7)
            self.assertEqual(a, run.episode_seeds(spec, 7))
            self.assertEqual(len(a), len(spec["strata"]))
            for seed, stratum in zip(a, spec["strata"]):
                self.assertIn(seed, stratum)
            pool = [s for stratum in spec["strata"] for s in stratum]
            self.assertEqual(len(pool), len(set(pool)), "a seed in two strata")

    def test_smoke_runs_report_every_metric_and_pass_the_checks(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                proc = bench(workload, trace=0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"], proc.stdout)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                for m in self.spec["end_to_end"]:
                    got = out["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertGreater(got["value"], 0, m["name"])
                for check in ("a_loop_matches_library", "b_peak_within_budget",
                              "c_same_seed_identical"):
                    self.assertRegex(proc.stdout, r"check %s\s+ok" % check)

    def test_traced_run_reports_layers_and_writes_well_formed_spans(self):
        proc = bench("daemon_tcp", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = last_json(proc)
        self.assertTrue(out["correct"], proc.stdout)
        self.assertEqual(sorted(out["metrics"]),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        self.assertGreater(out["metrics"]["daemon.decide_us_p50"]["value"], 0)
        self.assertGreater(out["metrics"]["net.frames_sent_per_tick"]["value"], 0)

        path = os.path.join(REPO, ".bench_build", "perfbench", "spans",
                            "daemon_tcp-seed3.tsv")
        with open(path) as f:
            header = f.readline().split()
            rows = [line.rstrip("\n").split("\t") for line in f]
        self.assertEqual(header, ["id", "name", "start_ns", "end_ns", "parent", "interval"])
        self.assertTrue(rows)
        spans = []
        roots = {}
        for i, (sid, name, start, end, parent, interval) in enumerate(rows):
            span = (name, int(start), int(end), int(parent), int(interval))
            self.assertEqual(int(sid), i)
            self.assertIn(name, SPAN_NAMES)
            self.assertLessEqual(span[1], span[2])
            if span[3] < 0:
                self.assertEqual(name, "tick")
                self.assertNotIn(span[4], roots, "one root per interval")
                roots[span[4]] = i
            else:
                self.assertLess(span[3], i)
                p = spans[span[3]]
                self.assertEqual(p[4], span[4], "child in its parent's interval")
                self.assertLessEqual(p[1], span[1])
                self.assertLessEqual(span[2], p[2])
            spans.append(span)
        self.assertEqual(sorted(roots), list(range(len(roots))))

    def test_fails_without_the_program_sources(self):
        scratch = os.path.join(REPO, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(REPO, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("hier_k4", trace=0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
