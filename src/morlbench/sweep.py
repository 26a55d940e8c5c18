"""Outer-loop multi-policy protocol: weight grids, periodic greedy
evaluation, pooled per-iteration Pareto approximation sets, seed averaging.

One sweep trains every weight configuration (or a single Pareto Q-Learning
run, which needs no weights) for each seed, evaluates every
``eval_interval`` steps, pools the evaluated returns of one iteration into
a non-dominated approximation set, scores that set with the quality
indicators, and averages the indicator timelines pointwise across seeds.

Approximation sets are snapshots by default: a solution present at one
iteration can vanish from the next if its configuration drifted away. That
non-retention is the phenomenon under study, so pooling deliberately keeps
no memory; ``archive=True`` switches to cumulative pooling for contrast
experiments.

Each (configuration, seed) pair is one work item, a Pareto Q-Learning run
counting as a single configuration. An item trains one agent and returns,
per evaluation, the points it adds to that iteration's pool: one greedy
return vector for MO Q-Learning, the start-state front for Pareto
Q-Learning. Both kinds are grouped by seed and pooled the same way. Items
can run on a process pool; results are reduced in a fixed order, so
outputs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import PurePath

from . import moq, pql
from .envs import ENV_PRESETS, REFERENCE_POINTS, DeepSeaTreasure, make_env
from .moq import EpsilonSchedule, MoqConfig, check_rate
from .pareto import (
    ParetoArchive,
    Point,
    cardinality,
    hypervolume,
    igd,
    nondominated_points,
    sparsity,
)
from .pql import PqlConfig
from .scalarise import check_tau, check_weights

ALGOS = ("moq", "pql")
# Settings, by CLI name, that each algorithm never reads; the CLI refuses them.
UNREAD_SETTINGS = {
    "moq": ("set_eval", "state_cap"),
    "pql": ("scalariser", "alpha", "tau", "weights", "weight_step", "max_configs"),
}


@dataclass(frozen=True)
class SweepConfig:
    env_id: str
    algo: str = "moq"
    scalariser: str = "linear"
    weight_step: float = 0.1
    fixed_weights: tuple[tuple[float, ...], ...] | None = None
    alpha: float = 0.1
    # None takes the environment's value from ENV_PRESETS
    gamma: float | None = None
    tau: float | None = None
    total_timesteps: int | None = None
    eps_initial: float = 1.0
    eps_final: float = 0.1
    eps_decay_fraction: float = 1.0
    eval_interval: int = 1000
    seeds: tuple[int, ...] = (42,)
    ref_point: tuple[float, ...] | None = None
    set_eval: str = "hypervolume"
    state_cap: int = 200_000
    max_episode_steps: int = 1000
    archive: bool = False
    max_configs: int | None = None
    workers: int = 1
    name: str | None = None

    def __post_init__(self):
        presets = ENV_PRESETS.get(self.env_id)
        if presets is None:
            raise ValueError(f"unknown environment {self.env_id!r} (known: {', '.join(ENV_PRESETS)})")
        for key, value in presets.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        # checked for every algorithm, since the manifest records them all
        check_rate("alpha", self.alpha)
        check_rate("weight_step", self.weight_step)
        check_tau(self.tau)
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not all(isinstance(s, int) and not isinstance(s, bool) for s in self.seeds):
            raise TypeError(f"seeds must be ints, got {self.seeds!r}")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be non-negative")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ValueError(f"seeds must be distinct, got {', '.join(map(str, repeated))} more than once")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_configs is not None and self.max_configs < 1:
            raise ValueError(f"max_configs must be >= 1, got {self.max_configs}")
        if self.max_episode_steps < 1:
            raise ValueError(f"max_episode_steps must be >= 1, got {self.max_episode_steps}")
        # the run directory is replaced as a whole, so it must lie inside the results root
        name = PurePath(self.name or "run")
        if name.is_absolute() or not name.parts or ".." in name.parts:
            raise ValueError(f"run name {self.name!r} must be a directory inside the results directory")

    @property
    def algorithm_label(self) -> str:
        return f"moq-{self.scalariser}" if self.algo == "moq" else "pql"

    @property
    def run_name(self) -> str:
        return self.name or f"{self.env_id}_{self.algorithm_label.replace('-', '_')}"


@dataclass(frozen=True)
class MetricRecord:
    timestep: int
    hypervolume: float
    sparsity: float
    cardinality: float
    igd: float | None = None


@dataclass
class SeedRun:
    seed: int
    records: list[MetricRecord]
    archives: list[tuple[int, ParetoArchive]]
    final_returns: tuple[Point, ...]

    @property
    def final_front(self) -> ParetoArchive:
        if not self.archives:
            raise ValueError("run produced no evaluation iterations")
        return self.archives[-1][1]


@dataclass
class SweepResult:
    config: SweepConfig
    n_configs: int
    ref_point: tuple[float, ...]
    truth: ParetoArchive | None
    runs: list[SeedRun]
    mean: list[MetricRecord]
    sd: list[MetricRecord]


def weight_grid(num_objectives: int, step: float = 0.1) -> list[tuple[float, ...]]:
    """Every weight vector of non-negative multiples of ``step`` summing
    to 1, in lexicographic order.

    ``step`` must divide 1 evenly (within 1e-9). Two objectives at step 0.1
    give 11 vectors, three give 66.
    """
    check_rate("step", step)
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide 1")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    return [tuple(i / n for i in combo) for combo in compositions(n, num_objectives)]


def evaluate_policy(env, agent, gamma: float, max_steps: int | None = None, rng=None) -> Point:
    """Discounted return vector of one greedy rollout from reset.

    The rollout is truncated at ``max_steps`` (defaults to the
    environment's episode cap); a non-terminating greedy policy simply
    yields its truncated return. Tied greedy actions are broken by draws
    on ``rng``; with ``rng=None`` the first tied action is taken.
    """
    limit = max_steps if max_steps is not None else env.max_episode_steps
    state = env.reset()
    returns = [0.0] * env.num_objectives
    discount = 1.0
    for _ in range(limit):
        next_state, reward, terminated, truncated = env.step(agent.greedy(state, rng=rng))
        for o, r_o in enumerate(reward):
            returns[o] += discount * r_o
        discount *= gamma
        if terminated or truncated:
            break
        state = next_state
    return tuple(returns)


def aggregate_seeds(
    per_seed: list[list[MetricRecord]],
) -> tuple[list[MetricRecord], list[MetricRecord]]:
    """Pointwise mean and population standard deviation across seeds.

    All timelines must be aligned on identical timesteps.
    """
    if not per_seed:
        raise ValueError("no timelines to aggregate")
    length = len(per_seed[0])
    if any(len(tl) != length for tl in per_seed):
        raise ValueError("timelines have different lengths")
    mean_records: list[MetricRecord] = []
    sd_records: list[MetricRecord] = []
    n = len(per_seed)
    for k in range(length):
        rows = [tl[k] for tl in per_seed]
        t = rows[0].timestep
        if any(r.timestep != t for r in rows):
            raise ValueError(f"misaligned timesteps at index {k}")
        igd_defined = [r.igd is not None for r in rows]
        if any(igd_defined) and not all(igd_defined):
            raise ValueError(f"igd defined for only some seeds at t={t}")

        def stats(values):
            mu = sum(values) / n
            var = sum((v - mu) ** 2 for v in values) / n
            return mu, math.sqrt(var)

        hv_m, hv_s = stats([r.hypervolume for r in rows])
        sp_m, sp_s = stats([r.sparsity for r in rows])
        ca_m, ca_s = stats([r.cardinality for r in rows])
        if all(igd_defined):
            ig_m, ig_s = stats([r.igd for r in rows])
        else:
            ig_m = ig_s = None
        mean_records.append(MetricRecord(t, hv_m, sp_m, ca_m, ig_m))
        sd_records.append(MetricRecord(t, hv_s, sp_s, ca_s, ig_s))
    return mean_records, sd_records


def _train_item(cfg: SweepConfig, label: str, config, sub_seed: int):
    """Train one agent; returns its timeline as ``(timestep, points)``
    pairs: one greedy return for MO Q-Learning, the start-state front for
    Pareto Q-Learning. An exception propagates with a note naming
    ``label``."""
    try:
        env = make_env(cfg.env_id, cfg.max_episode_steps)
        if cfg.algo == "pql":
            _, timeline = pql.train(env, config, sub_seed, cfg.eval_interval)
            return [(t, front.points) for t, front in timeline]
        _, timeline = moq.train(env, config, sub_seed, cfg.eval_interval)
        return [(t, (point,)) for t, point in timeline]
    except Exception as exc:
        exc.add_note(f"in work item {label}")
        raise


def _run_items(cfg: SweepConfig, items: list[tuple]):
    """Train (label, config, sub_seed) work items; returns results in item order."""
    if cfg.workers <= 1 or len(items) <= 1:
        return [_train_item(cfg, *item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # imported here: serial runs never need it

    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(items))) as pool:
        futures = [pool.submit(_train_item, cfg, *item) for item in items]
        return [f.result() for f in futures]


def _metric_record(t: int, front: ParetoArchive, ref, truth) -> MetricRecord:
    return MetricRecord(
        timestep=t,
        hypervolume=hypervolume(front, ref),
        sparsity=sparsity(front),
        cardinality=float(cardinality(front)),
        igd=igd(front, truth) if truth is not None else None,
    )


def _pool_timeline(cfg: SweepConfig, timelines: list[list[tuple[int, tuple[Point, ...]]]], ref, truth):
    """Pool one seed's item timelines into one approximation set per
    iteration, scored with the quality indicators."""
    if len({len(tl) for tl in timelines}) != 1:
        raise RuntimeError("configurations evaluated at different cadences")
    records: list[MetricRecord] = []
    archives: list[tuple[int, ParetoArchive]] = []
    cumulative: list[Point] = []
    for iteration in zip(*timelines):
        t = iteration[0][0]
        points = [p for _, snapshot in iteration for p in snapshot]
        if cfg.archive:
            cumulative.extend(points)
            points = cumulative
        front = ParetoArchive(nondominated_points(points))
        records.append(_metric_record(t, front, ref, truth))
        archives.append((t, front))
    return records, archives


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run the full outer-loop protocol and aggregate metrics over seeds.

    Every agent configuration is built once, before any work item starts,
    so bad agent settings (alpha, gamma, tau, the epsilon schedule, weights
    of the wrong length), a reference point of the wrong dimension or with
    non-finite values, and incompatible algorithm/environment pairs (the
    Pareto Q-Learning capacity cap) abort before any training. Items for
    every (configuration, seed) pair then run, and per seed the points of
    all its items at one iteration are pooled into that iteration's
    approximation set.
    """
    env = make_env(cfg.env_id, cfg.max_episode_steps)
    ref = tuple(cfg.ref_point if cfg.ref_point is not None else REFERENCE_POINTS[cfg.env_id])
    if len(ref) != env.num_objectives or not all(map(math.isfinite, ref)):
        raise ValueError(f"ref_point needs {env.num_objectives} finite values, got {ref}")
    truth = env.true_front(cfg.gamma) if isinstance(env, DeepSeaTreasure) else None
    schedule = EpsilonSchedule(cfg.eps_initial, cfg.eps_final, cfg.eps_decay_fraction)

    if cfg.algo == "pql":
        pql.check_capacity(env, cfg.state_cap)
        configs = [(
            "pql",
            PqlConfig(
                gamma=cfg.gamma,
                total_timesteps=cfg.total_timesteps,
                set_eval=cfg.set_eval,
                ref_point=ref if cfg.set_eval == "hypervolume" else None,
                schedule=schedule,
                state_cap=cfg.state_cap,
            ),
        )]
        item_seed = lambda seed, i: seed
    else:
        weights = cfg.fixed_weights
        if weights is None:
            weights = weight_grid(env.num_objectives, cfg.weight_step)[: cfg.max_configs]
        configs = [
            (
                f"{cfg.algorithm_label} weights={w}",
                MoqConfig(
                    weights=check_weights(w, env.num_objectives),
                    scalariser=cfg.scalariser,
                    alpha=cfg.alpha,
                    gamma=cfg.gamma,
                    tau=cfg.tau,
                    total_timesteps=cfg.total_timesteps,
                    schedule=schedule,
                ),
            )
            for w in weights
        ]
        item_seed = lambda seed, i: moq.seed_state(seed, 1, (i,))[0]

    items = [
        (f"{label} seed={seed}", config, item_seed(seed, i))
        for seed in cfg.seeds
        for i, (label, config) in enumerate(configs)
    ]
    outputs = _run_items(cfg, items)
    runs = []
    n_configs = len(configs)
    for s_idx, seed in enumerate(cfg.seeds):
        timelines = outputs[s_idx * n_configs : (s_idx + 1) * n_configs]
        records, archives = _pool_timeline(cfg, timelines, ref, truth)
        final_returns = tuple(p for tl in timelines for p in tl[-1][1]) if archives else ()
        runs.append(SeedRun(seed, records, archives, final_returns))

    mean, sd = aggregate_seeds([run.records for run in runs])
    return SweepResult(
        config=cfg,
        n_configs=n_configs,
        ref_point=ref,
        truth=truth,
        runs=runs,
        mean=mean,
        sd=sd,
    )
