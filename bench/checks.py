"""Output checks run on every benchmark attempt.

Data files are the metric CSVs and ``.points`` fronts; ``manifest.json``
is left out of every digest because it carries a timestamp. The checks
compare the program's outputs with:

* the sha256 recorded in ``bench/digests.json`` for the workload seed, when
  one is recorded;
* pairwise dominance: every final front is mutually non-dominated;
* ``morlbench.pareto.hypervolume_inclusion_exclusion``, the package's
  reference oracle, on fronts of at most ``ORACLE_MAX_POINTS`` points;
* the published Pareto Q-Learning result on Deep Sea Treasure.

Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

ORACLE_MAX_POINTS = 16
PQL_TARGET_HV = 801.82
PQL_TARGET_TOLERANCE = 0.005
# CSV cells carry 10 significant digits.
CSV_RTOL = 1e-9


def digest_tree(root: Path, suffixes: tuple[str, ...]) -> str:
    """sha256 over the relative paths and bytes of the files under ``root``
    with one of ``suffixes``, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix in suffixes):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_files(run_dir: Path) -> str:
    return digest_tree(run_dir, (".csv", ".points"))


def digest_text(texts: list[str]) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def read_points(path: Path) -> list[tuple[float, ...]]:
    points = []
    for line in path.read_text("utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            points.append(tuple(float(v) for v in line.split(",")))
    return points


def _dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b)) and a != b


def mutually_nondominated(points) -> bool:
    return not any(_dominates(p, q) for p in points for q in points)


def oracle_hypervolume(points, ref) -> float:
    from morlbench.pareto import ParetoArchive, hypervolume_inclusion_exclusion

    return hypervolume_inclusion_exclusion(ParetoArchive(points), ref)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CSV_RTOL, abs_tol=CSV_RTOL)


def _last_row(csv_path: Path, seed_label: str | None = None) -> list[str]:
    rows = [
        line.split(",")
        for line in csv_path.read_text("utf-8").splitlines()
        if line and not line.startswith(("#", "timestep,"))
    ]
    if seed_label is not None:
        rows = [r for r in rows if r[3] == seed_label]
    if not rows:
        raise ValueError(f"{csv_path} has no data rows")
    return rows[-1]


def final_hypervolume(run_dir: Path) -> float:
    """Hypervolume in the last row of the aggregate mean."""
    return float(_last_row(run_dir / "aggregate" / "metrics.csv", "mean")[4])


def check_training(run_dir: Path, ref, algo: str, full_budget: bool) -> list[tuple[str, bool, str]]:
    results = []
    for seed_dir in sorted(run_dir.glob("seed_*")):
        fronts = sorted((seed_dir / "fronts").glob("*.points"), key=lambda p: int(p.stem))
        if not fronts:
            results.append((f"{seed_dir.name} final front", False, "no front files"))
            continue
        points = read_points(fronts[-1])
        results.append((
            f"{seed_dir.name} final front non-dominated",
            mutually_nondominated(points),
            f"{len(points)} points at t={fronts[-1].stem}",
        ))
        if len(points) <= ORACLE_MAX_POINTS:
            reported = float(_last_row(seed_dir / "metrics.csv")[4])
            oracle = oracle_hypervolume(points, ref)
            results.append((
                f"{seed_dir.name} hypervolume equals the inclusion-exclusion oracle",
                _close(reported, oracle),
                f"reported {reported!r}, oracle {oracle!r}",
            ))
    if algo == "pql" and full_budget:
        hv = final_hypervolume(run_dir)
        results.append((
            f"final hypervolume within {PQL_TARGET_TOLERANCE:.1%} of {PQL_TARGET_HV}",
            abs(hv - PQL_TARGET_HV) <= PQL_TARGET_TOLERANCE * PQL_TARGET_HV,
            f"{hv!r}",
        ))
    return results


def _reported(stdout: str, name: str) -> float:
    match = re.search(rf"^{name} = (\S+)$", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{name} = ...' line in {stdout!r}")
    return float(match.group(1))


def check_scores(fronts, stdouts: list[str]) -> list[tuple[str, bool, str]]:
    results = []
    for front, stdout in zip(fronts, stdouts):
        label = front.path.name
        try:
            card = _reported(stdout, "cardinality")
            hv = _reported(stdout, "hypervolume")
            igd = _reported(stdout, "igd")
        except ValueError as exc:
            results.append((f"{label} scored", False, str(exc)))
            continue
        results.append((f"{label} cardinality", card == len(front.points), f"{card} of {len(front.points)}"))
        results.append((f"{label} igd finite", math.isfinite(igd), repr(igd)))
        if len(front.points) <= ORACLE_MAX_POINTS:
            ref = tuple(float(v) for v in front.ref.split(","))
            oracle = oracle_hypervolume(front.points, ref)
            results.append((
                f"{label} hypervolume equals the inclusion-exclusion oracle",
                _close(hv, oracle),
                f"reported {hv!r}, oracle {oracle!r}",
            ))
    return results
