"""Tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from collections import defaultdict
from pathlib import Path

import reference
import run
from spans import Tracer
from workloads import ROUNDS, WORKLOADS, check_output

BENCH = json.loads((run.REPO / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: int, digests=None):
    return run.run(workload, seed=3, seconds=0.1, trace=trace, tiny=True, digests=digests or {})[1]


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = {w: tiny(w, 0) for w in WORKLOADS}
        cls.traced = {w: tiny(w, 1) for w in WORKLOADS}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in BENCH["workloads"]))

    def test_untraced_runs_pass_and_report_end_to_end_metrics(self):
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for workload, result in self.plain.items():
            with self.subTest(workload):
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_runs_pass_and_report_per_layer_metrics(self):
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload, result in self.traced.items():
            with self.subTest(workload):
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_cache_reuse_shows_only_on_verify(self):
        ratio = {w: r["metrics"]["gz.cache_hit_ratio"]["value"] for w, r in self.traced.items()}
        self.assertEqual(ratio["spectral"], 0)
        self.assertEqual(ratio["export"], 0)
        self.assertGreater(ratio["verify"], 0)

    def test_export_traces_the_uncached_basis_path(self):
        metrics = {k: v["value"] for k, v in self.traced["export"]["metrics"].items()}
        self.assertGreater(metrics["gz.iter_basis.calls"], 0)
        self.assertGreater(metrics["gz.gz_harmonic.calls"], 0)
        self.assertEqual(metrics["gz.gz_in_H.calls"], 0)

    def test_generator_work_is_charged_to_the_generator(self):
        def produce():
            for _ in range(3):
                time.sleep(0.02)
                yield None

        tracer = Tracer()
        traced = tracer.wrap("gz.iter_basis", produce)
        tracer.call("cli.main", lambda: list(traced()))
        totals = defaultdict(float)
        tracer.fold(totals)
        self.assertEqual(totals["gz.iter_basis.calls"], 4)
        self.assertGreaterEqual(totals["gz.self_s"], 0.06)
        self.assertLess(totals["cli.self_s"], 0.01)


class Failures(unittest.TestCase):
    def test_corrupted_expected_output_counts_as_failure(self):
        corrupted = " ".join(run.make_rounds("export", 3, tiny=True)[0][0][1])
        for trace in (0, 1):
            with self.subTest(trace=trace):
                report, result = run.run("export", 3, 0.1, trace, tiny=True, digests={corrupted: "0" * 64})
                self.assertFalse(result["correct"])
                failed = [c["argv"] for c in report["calls"] if c["error"] is not None]
                self.assertEqual(len(failed), result["failed"])
                self.assertEqual(set(failed), {corrupted})

    def test_checks_recompute_the_closed_formulas(self):
        out = subprocess.run(
            [sys.executable, "-m", "tworow.cli", "measure", "--xi", "010010"],
            env=run.child_env(), capture_output=True, text=True, check=True,
        ).stdout
        self.assertIsNone(check_output(["measure", "--xi", "010010"], out))
        doc = json.loads(out)
        doc["kernel"][2]["p_up"]["num"] = "7"
        self.assertIn("closed formula", check_output(["measure", "--xi", "010010"], json.dumps(doc)))
        self.assertIsNotNone(check_output(["verify"], "PASS a: b\n2 checks, 0 failures\n"))

    def test_times_are_scaled_by_the_reference_unit(self):
        allowed = os.sched_getaffinity(0)
        report, result = run.run("walk", 3, 0.1, 0, tiny=True, digests={})
        self.assertEqual(os.sched_getaffinity(0), allowed)
        for call in report["calls"]:
            self.assertGreaterEqual(call["stolen_s"], 0)
            self.assertAlmostEqual(call["scaled_wall_s"], call["wall_s"] * call["scale"])
            self.assertAlmostEqual(call["scaled_cpu_s"], call["cpu_s"] * call["scale"])
        scaled = [c["scaled_wall_s"] for c in report["calls"]]
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"], sum(scaled))

    def test_each_call_takes_the_reference_speed_during_it(self):
        refs = [(t, 0.01 if t < 10 else 0.02) for t in range(0, 21)]
        short = {"start": 3.5, "end": 3.9, "wall_s": 0.4}
        long = {"start": 5.0, "end": 15.0, "wall_s": 10.0}
        run._scale([short, long], refs)
        self.assertAlmostEqual(short["scale"], reference.REFERENCE_S / 0.01)
        during = [c for t, c in refs if 4 <= t <= 16]  # with the two that bracket it
        self.assertAlmostEqual(long["scale"], reference.REFERENCE_S / (sum(during) / len(during)))

    def test_a_call_that_does_not_finish_is_killed(self):
        code, _, _, wall, _, _ = run.spawn(
            [sys.executable, "-c", "import time; time.sleep(60)"], run.child_env(), 0.3
        )
        self.assertIsNone(code)
        self.assertLess(wall, 10)

    def test_inputs_come_from_the_seed(self):
        for workload in WORKLOADS:
            self.assertEqual(run.make_rounds(workload, 5), run.make_rounds(workload, 5))
        self.assertNotEqual(run.make_rounds("spectral", 5), run.make_rounds("spectral", 6))
        self.assertNotEqual(run.make_rounds("walk", 5), run.make_rounds("walk", 6))

    def test_rounds_share_their_kinds(self):
        for workload in WORKLOADS:
            kinds = [sorted(kind for kind, _ in rnd) for rnd in run.make_rounds(workload, 5)]
            self.assertEqual(kinds, kinds[:1] * ROUNDS)

    def test_default_seed_inputs_have_recorded_digests(self):
        digests = json.loads(run.DIGESTS.read_text())
        for workload in WORKLOADS:
            for rnd in run.make_rounds(workload, run.DEFAULT_SEED):
                for _, argv in rnd:
                    self.assertIn(" ".join(argv), digests)

    def test_without_the_program_it_exits_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.REPO / "BENCHMARK.json", tmp)
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
