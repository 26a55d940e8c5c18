"""The benchmark's four workloads and the inputs each derives from its seed.

Every workload runs through the morlbench CLI exactly as a user would:
``sweep`` for the three training workloads, ``metrics`` for score-fronts.
A plan fixes, for one workload seed, the commands of one attempt, the
zero-budget command whose wall time is the set-up time, and the amount of
work an attempt does.

Why each workload is here (the ``why`` lines of BENCHMARK.json):

* dst-pql -- Pareto Q-Learning: PQL's Q-set rebuilding and the 2-D
  ``pareto`` kernels do almost all the work; moq and scalarise never run.
* dst-moq-chebyshev -- the Chebyshev grid on two workers: moq and
  scalarise dominate, evaluation is negligible, and it is the only
  workload that exercises the process pool and the reduce.
* four-room-moq-linear -- 66 linear configs on 86,528 states with 3
  objectives: greedy evaluation rollouts take about 40% of the work item
  time (about 38% of them truncated at 1000 steps), plus 3-D pooling.
* score-fronts -- no training: ``metrics --truth`` on a few large 2-D and
  3-D fronts, where the 3-D slab sweep does most of the scoring, unlike
  the millions of small sets ``pareto`` sees during training.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Reference points of the score-fronts fronts, which lie in [0, 10]^d; the
# 3-D one is also Four-Room's anchor.
REF_2D = "-1,-1"
REF_3D = "-1,-1,-1"


@dataclass(frozen=True)
class Training:
    env: str
    algo: str
    scalariser: str | None
    configs: int  # weight-grid size: 11 for 2 objectives, 66 for 3
    seeds: int  # training seeds per attempt, derived from the workload seed
    steps: int
    tiny_steps: int
    workers: int

    def plan(self, seed: int, work_dir: Path, tiny: bool) -> "Plan":
        steps = self.tiny_steps if tiny else self.steps
        seeds = ",".join(str(self.seeds * seed + k) for k in range(self.seeds))
        base = ["sweep", "--env", self.env, "--algo", self.algo, "--seeds", seeds,
                "--workers", str(self.workers), "--name", "run"]
        if self.scalariser:
            base += ["--scalariser", self.scalariser]
        return Plan(
            setup=lambda out: [base + ["--steps", "0", "--out", str(out)]],
            attempt=lambda out: [base + ["--steps", str(steps), "--out", str(out)]],
            work=self.configs * self.seeds * steps,
            setup_commands=1,
            fronts=(),
            oracle_fronts=(),
        )


@dataclass(frozen=True)
class Front:
    path: Path
    truth: Path
    ref: str
    points: list[tuple[float, ...]]

    @property
    def argv(self) -> list[str]:
        # Negative reference points must be passed as --ref=-1,-1: the CLI's
        # argparse takes "--ref -1,-1" for an option and exits with code 2.
        return ["metrics", str(self.path), "--truth", str(self.truth), f"--ref={self.ref}"]


class ScoreFronts:
    """Seeded non-dominated fronts, each scored by one ``metrics`` command."""

    # (objectives, points). An attempt scores the large fronts, where the
    # 3-D slab sweep outweighs the commands' start-up. The 12-point fronts,
    # small enough for the inclusion-exclusion oracle, are scored once per
    # run, before timing starts.
    SIZES = ((2, 3000), (3, 1500))
    TINY_SIZES = ((2, 40), (3, 30))
    ORACLE_SIZES = ((2, 12), (3, 12))
    TRUTH_POINTS = 200

    def plan(self, seed: int, work_dir: Path, tiny: bool) -> "Plan":
        rng = random.Random(seed)
        fronts_dir = work_dir / "fronts"
        fronts_dir.mkdir(parents=True, exist_ok=True)
        fronts = []
        for i, (dim, n) in enumerate(self.ORACLE_SIZES + (self.TINY_SIZES if tiny else self.SIZES)):
            shape = rng.uniform(0.5, 2.0)
            points = _front(rng, dim, n, shape)
            truth = _front(rng, dim, self.TRUTH_POINTS, shape)
            front = Front(fronts_dir / f"{i}.points", fronts_dir / f"{i}.truth", REF_2D if dim == 2 else REF_3D, points)
            _write_points(front.path, points)
            _write_points(front.truth, truth)
            fronts.append(front)
        oracle_fronts, fronts = fronts[: len(self.ORACLE_SIZES)], fronts[len(self.ORACLE_SIZES) :]
        single = fronts_dir / "single.points"
        _write_points(single, [(1.0, 1.0)])
        return Plan(
            setup=lambda out: [["metrics", str(single), f"--ref={REF_2D}"]],
            attempt=lambda out: [f.argv for f in fronts],
            work=sum(len(f.points) for f in fronts),
            setup_commands=len(fronts),
            fronts=tuple(fronts),
            oracle_fronts=tuple(oracle_fronts),
        )


def _front(rng: random.Random, dim: int, n: int, shape: float) -> list[tuple[float, ...]]:
    """``n`` mutually non-dominated points in [0, 10]^dim.

    2-D points lie on the strictly decreasing curve y = 10 (1 - (x/10)^shape);
    3-D points on the positive octant of the sphere of radius 10, where no
    point can dominate another.
    """
    if dim == 2:
        xs = sorted({rng.uniform(0.0, 10.0) for _ in range(n)})
        return [(x, 10.0 * (1.0 - (x / 10.0) ** shape)) for x in xs]
    points = set()
    while len(points) < n:
        v = [abs(rng.gauss(0.0, 1.0)) for _ in range(dim)]
        norm = sum(c * c for c in v) ** 0.5
        points.add(tuple(10.0 * c / norm for c in v))
    return sorted(points)


def _write_points(path: Path, points) -> None:
    path.write_text("".join(",".join(repr(c) for c in p) + "\n" for p in points), "utf-8")


@dataclass(frozen=True)
class Plan:
    setup: Callable[[Path], list[list[str]]]  # out dir -> the zero-budget set-up command
    attempt: Callable[[Path], list[list[str]]]  # out dir -> the commands of one attempt
    work: int  # training steps (configs x seeds x steps) or front points scored
    # Set-up costs taken off an attempt's wall time before dividing the work
    # by it: one per command of the attempt.
    setup_commands: int
    fronts: tuple[Front, ...]  # scored by every attempt
    oracle_fronts: tuple[Front, ...]  # scored once per run, untimed


WORKLOADS = {
    "dst-pql": Training("dst-concave", "pql", None, configs=1, seeds=1, steps=100_000, tiny_steps=2_000, workers=1),
    "dst-moq-chebyshev": Training(
        "dst-concave", "moq", "chebyshev", configs=11, seeds=2, steps=10_000, tiny_steps=1_000, workers=2
    ),
    "four-room-moq-linear": Training(
        "four-room", "moq", "linear", configs=66, seeds=1, steps=3_000, tiny_steps=1_000, workers=1
    ),
    "score-fronts": ScoreFronts(),
}
