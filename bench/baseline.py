"""Run the benchmark over several SEEDS per workload and summarise it.

    python3 bench/baseline.py

For each workload: one untraced run per seed 1..10, then one traced run on
the first seed. Writes to ``bench/baseline.json``, per workload and
end-to-end metric, the values, their median, quartiles and spread
(inter-quartile distance as a share of the median, by
``statistics.quantiles(values, n=4)``), the final hypervolumes, the output
digests, and the traced run's per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SEEDS = list(range(1, 11))
OUT = BENCH / "baseline.json"


def run(workload: str, seed: int, trace: int, report: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--report", str(report)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(report.read_text("utf-8"))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    report = ROOT / ".bench_work" / "baseline-report.json"
    report.parent.mkdir(exist_ok=True)
    result = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        reports = [run(workload, seed, 0, report) for seed in SEEDS]
        traced = run(workload, SEEDS[0], 1, report)
        result["machine"] = reports[0]["machine"]
        result["workloads"][workload] = {
            "correct": all(r["correct"] for r in reports) and traced["correct"],
            "failed": sum(r["failed"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in reports])
                for m in SPEC["end_to_end"]
            },
            "final_hypervolume": [r["final_hypervolume"] for r in reports],
            "output_sha256": {str(s): r["output_sha256"] for s, r in zip(SEEDS, reports)},
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in result["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    report.unlink(missing_ok=True)
    OUT.write_text(json.dumps(result, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
