"""Self-tests of the benchmark at tiny step counts (about 50 s).

    python3 bench/selftest.py

Checks that the printed metric names are the ones BENCHMARK.json lists,
that tracing changes no output byte (traced and untraced runs give the
same digest, so the wrappers draw no random numbers), and that a corrupted
recorded digest is counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORK = ROOT / ".bench_work" / "selftest"


def bench(*args: str) -> tuple[dict, dict]:
    """Run bench/run.py at tiny size; returns (result line, full report)."""
    report = WORK / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seconds", "0.1", "--report", str(report), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(report.read_text("utf-8"))


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)
        sys.path.insert(0, str(run.SRC))  # the output checks import morlbench

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_metric_names_match_benchmark_json(self):
        end_to_end = [m["name"] for m in SPEC["end_to_end"]]
        per_layer = [m["name"] for m in SPEC["per_layer"]]
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result, _ = bench("--workload", workload["name"], "--seed", "2", "--trace", "0")
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), sorted(end_to_end))
                units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                    self.assertGreater(metric["value"], 0)
        result, _ = bench("--workload", "dst-pql", "--seed", "2", "--trace", "1")
        self.assertEqual(sorted(result["metrics"]), sorted(per_layer))

    def test_tracing_changes_no_output(self):
        for workload in ("dst-pql", "dst-moq-chebyshev", "score-fronts"):
            with self.subTest(workload=workload):
                plain, plain_report = bench("--workload", workload, "--seed", "4", "--trace", "0")
                traced, traced_report = bench("--workload", workload, "--seed", "4", "--trace", "1")
                self.assertTrue(plain["correct"] and traced["correct"])
                self.assertEqual(plain_report["output_sha256"], traced_report["output_sha256"])

    def test_traced_run_attributes_evaluation(self):
        result, _ = bench("--workload", "four-room-moq-linear", "--seed", "1", "--trace", "1")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(m["sweep.evaluate_policy.share"], 0.1)
        self.assertGreater(m["moq.train.busy_s"], 0)
        self.assertEqual(m["pql.pairs_materialised"], 0)
        self.assertEqual(m["pareto.hypervolume_points.calls"], 0)
        self.assertLess(m["moq.train.busy_s"] + m["sweep.evaluate_policy.busy_s"], m["sweep.items.busy_s"] * 1.001)

    def test_corrupted_digest_counts_as_failure(self):
        work = WORK / "digest"
        recorded = run.Run("dst-moq-chebyshev", 3, work / "record", tiny=True, digests={})
        self.assertTrue(recorded.attempt(traced=False)["ok"])
        self.assertEqual(recorded.failed, 0)
        digest = recorded.digests[0]
        for stored, failed in ((digest, False), ("0" * 64, True)):
            with self.subTest(stored=stored):
                checked = run.Run("dst-moq-chebyshev", 3, work / stored[:8], tiny=True,
                                  digests={"dst-moq-chebyshev@tiny": {"3": stored}})
                checked.attempt(traced=False)
                self.assertEqual(checked.failed > 0, failed)
                self.assertLess(checked.failed, checked.attempted)


if __name__ == "__main__":
    unittest.main()
