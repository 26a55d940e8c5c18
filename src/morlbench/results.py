"""Result persistence: metric CSVs, front files, manifests, plot data.

Data files are byte-stable across identical runs: fixed column order,
fixed float formatting (``%.10g``), no timestamps inside data files. The
manifest carries the timestamp and the fully resolved configuration needed
to replay a run.

Layout under the results root::

    <run-name>/
      manifest.json
      seed_<k>/metrics.csv
      seed_<k>/fronts/<timestep>.points
      aggregate/metrics.csv
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from . import __version__
from .pareto import ParetoArchive, load_points, save_points
from .sweep import MetricRecord, SweepResult

METRICS_VERSION = "metrics-v1"
METRICS_HEADER = "timestep,algorithm,environment,seed,hypervolume,sparsity,cardinality,igd"


def results_root(override: str | None = None) -> Path:
    """Results directory: explicit override, else $MORL_RESULTS_DIR, else ./runs."""
    return Path(override or os.environ.get("MORL_RESULTS_DIR") or "runs")


def fmt(value: float) -> str:
    return f"{value:.10g}"


def metrics_csv(rows: Iterable[tuple[str, MetricRecord]], algorithm: str, environment: str) -> str:
    """Metrics CSV text with one line per ``(seed label, record)`` row."""
    lines = [f"# {METRICS_VERSION}", METRICS_HEADER]
    for label, r in rows:
        igd_cell = "" if r.igd is None else fmt(r.igd)
        lines.append(
            f"{r.timestep},{algorithm},{environment},{label},"
            f"{fmt(r.hypervolume)},{fmt(r.sparsity)},{fmt(r.cardinality)},{igd_cell}"
        )
    return "\n".join(lines) + "\n"


def read_metrics_csv(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text("utf-8").splitlines():
        if not line or line.startswith("#") or line.startswith("timestep,"):
            continue
        t, algorithm, environment, seed, hv, sp, card, igd_cell = line.split(",")
        rows.append(
            {
                "timestep": int(t),
                "algorithm": algorithm,
                "environment": environment,
                "seed": seed,
                "hypervolume": float(hv),
                "sparsity": float(sp),
                "cardinality": float(card),
                "igd": float(igd_cell) if igd_cell else None,
            }
        )
    return rows


def write_manifest(run_dir: Path, result: SweepResult) -> None:
    manifest = {
        "artifact": "morlbench",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "environment": result.config.env_id,
        "algorithm": result.config.algorithm_label,
        "n_configs": result.n_configs,
        "ref_point": list(result.ref_point),
        "seeds": list(result.config.seeds),
        "config": dataclasses.asdict(result.config),
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")


def write_sweep(result: SweepResult, root: Path) -> Path:
    """Persist a sweep result; returns the run directory.

    The run is built in a hidden sibling directory and renamed into place
    only once complete, replacing any earlier run of the same name as a
    whole: an interrupted write leaves no run directory, and a rerun never
    mixes with the files of an older one.
    """
    run_dir = root / result.config.run_name
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    partial = run_dir.with_name(f".{run_dir.name}.partial-{os.getpid()}")
    old = run_dir.with_name(f".{run_dir.name}.old-{os.getpid()}")
    for leftover in (partial, old):  # left by a killed process that had this pid
        shutil.rmtree(leftover, ignore_errors=True)
    try:
        _write_run(partial, result)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if run_dir.exists():
        run_dir.rename(old)
    partial.rename(run_dir)
    shutil.rmtree(old, ignore_errors=True)
    return run_dir


def _write_run(run_dir: Path, result: SweepResult) -> None:
    run_dir.mkdir()
    labels = (result.config.algorithm_label, result.config.env_id)
    for run in result.runs:
        seed_dir = run_dir / f"seed_{run.seed}"
        fronts_dir = seed_dir / "fronts"
        fronts_dir.mkdir(parents=True, exist_ok=True)
        rows = [(str(run.seed), r) for r in run.records]
        (seed_dir / "metrics.csv").write_text(metrics_csv(rows, *labels), "utf-8")
        for t, front in run.archives:
            save_points(fronts_dir / f"{t}.points", front)
    agg_dir = run_dir / "aggregate"
    agg_dir.mkdir(exist_ok=True)
    rows = [row for m, s in zip(result.mean, result.sd) for row in (("mean", m), ("sd", s))]
    (agg_dir / "metrics.csv").write_text(metrics_csv(rows, *labels), "utf-8")
    write_manifest(run_dir, result)


def _curve_csv(rows: list[dict], sd_rows: list[dict], metric: str) -> str:
    lines = ["timestep,mean,sd"]
    sd_by_t = {r["timestep"]: r[metric] for r in sd_rows}
    for r in rows:
        lines.append(f"{r['timestep']},{fmt(r[metric])},{fmt(sd_by_t.get(r['timestep'], 0.0))}")
    return "\n".join(lines) + "\n"


def write_plotdata(run_dir: Path) -> list[Path]:
    """Emit plot-ready CSV curves for one run directory, and the final front
    of the first seed its manifest lists."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    aggregate = run_dir / "aggregate" / "metrics.csv"
    if not aggregate.is_file():
        raise FileNotFoundError(f"not a finished run directory: {aggregate} is missing")
    manifest = run_dir / "manifest.json"
    if not manifest.is_file():
        raise FileNotFoundError(f"not a finished run directory: {manifest} is missing")
    rows = read_metrics_csv(aggregate)
    mean_rows = [r for r in rows if r["seed"] == "mean"]
    sd_rows = [r for r in rows if r["seed"] == "sd"]
    first_seed = json.loads(manifest.read_text("utf-8"))["seeds"][0]

    written: list[Path] = []
    for metric in ("hypervolume", "cardinality", "sparsity"):
        path = run_dir / f"{metric}_curve.csv"
        path.write_text(_curve_csv(mean_rows, sd_rows, metric), "utf-8")
        written.append(path)
    if mean_rows and all(r["igd"] is not None for r in mean_rows):
        path = run_dir / "igd_curve.csv"
        path.write_text(_curve_csv(mean_rows, sd_rows, "igd"), "utf-8")
        written.append(path)

    front_files = sorted(
        (run_dir / f"seed_{first_seed}" / "fronts").glob("*.points"), key=lambda p: int(p.stem)
    )
    if front_files:
        final: ParetoArchive = load_points(front_files[-1])
        out = run_dir / "front_final.points"
        save_points(out, final)
        written.append(out)
    return written
