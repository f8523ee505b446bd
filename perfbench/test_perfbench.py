#!/usr/bin/env python3
"""The benchmark's own tests, on the --tiny configuration of every workload.

    python3 perfbench/test_perfbench.py

Run from anywhere; the first test builds the benchmark (see run.py).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
                       cwd=cwd, capture_output=True, text=True, timeout=900)
    return p


def result_of(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(w, trace)
                self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                r = result_of(p)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"], p.stderr[-3000:])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, expected)
                for name, m in r["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        self.check_metrics(0, "end_to_end")

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        self.check_metrics(1, "per_layer")


class CorrectnessTest(unittest.TestCase):
    def test_tampered_expected_manifest_counts_as_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(w, 0, "--tamper")
                self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                r = result_of(p)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("FAILED", p.stderr)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_tmp" / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            for f in (ROOT / "perfbench").iterdir():
                if f.is_file():
                    shutil.copy(f, bare / "perfbench" / f.name)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
