"""Self-test of the benchmark: names, units and failure accounting, no timing.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload for its shortest run (one pass over its seed pool),
untraced, plus one traced run of shift-small, and checks that each run
reports exactly the metrics BENCHMARK.json names, with their units, and
computes failed_frac.  It asserts nothing about timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

from run import ROOT, run_workload
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


class BenchmarkSelfTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual({w["name"]: w["why"] for w in SPEC["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})

    def test_end_to_end_metrics_of_every_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                details = run_workload(name, 7, 0.0, False)
                final = details["final"]
                units = {m: v["unit"] for m, v in final["metrics"].items()}
                self.assertEqual(units, _units(SPEC["end_to_end"]))
                self.assertGreaterEqual(final["attempted"], 1)
                probes_failed = sum(p["failure"] is not None
                                    for p in details["probes"])
                self.assertEqual(details["probes_failed"], probes_failed)
                # failed_frac counts the known-defect probes; the result
                # line counts only the workload's operations, which all pass.
                self.assertEqual(
                    details["failed_frac"],
                    (final["failed"] + probes_failed)
                    / (final["attempted"] + len(details["probes"])))
                self.assertTrue(final["correct"])
                self.assertEqual(final["failed"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        details = run_workload("shift-small", 7, 0.0, True)
        units = {m: v["unit"]
                 for m, v in details["final"]["metrics"].items()}
        self.assertEqual(units, _units(SPEC["per_layer"]))
        self.assertTrue((ROOT / details["spans_file"]).is_file())

    def test_refuses_a_tree_without_sources(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "shift-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
