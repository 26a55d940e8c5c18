"""Single-policy multi-objective Q-Learning with pluggable scalarisation.

The agent keeps one Q-vector per (state, action), one component per
objective, and selects actions by scalarising the current state's Q-row
(weighted sum or Chebyshev distance to a tracked utopian point). Updates
are per-objective temporal-difference steps that all bootstrap on the same
scalarised-greedy next action, so the table estimates the return vector of
the scalarised-greedy policy. Acting and bootstrapping score actions the
same way (:func:`~morlbench.scalarise.greedy_action`) and differ only in
how exact ties are broken: acting draws from the agent's rng stream, while
the bootstrap takes the first tied action and draws nothing, so updates
never move the stream.

Run many instances under different weight vectors (see
:mod:`morlbench.sweep`) to approximate a Pareto front outer-loop style.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .scalarise import SCALARISERS, UtopianTracker, check_weights, greedy_action


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration decay over a leading fraction of training."""

    eps_initial: float = 1.0
    eps_final: float = 0.1
    decay_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eps_final <= self.eps_initial <= 1.0:
            raise ValueError(f"need 0 <= eps_final <= eps_initial <= 1, got {self}")
        if not 0.0 < self.decay_fraction <= 1.0:
            raise ValueError(f"decay_fraction must be in (0, 1], got {self.decay_fraction}")


def epsilon_at(schedule: EpsilonSchedule, t: int, total: int) -> float:
    """Exploration rate after ``t`` of ``total`` timesteps."""
    if not 0 <= t <= total:
        raise ValueError(f"t must be in [0, {total}], got {t}")
    if t == 0:
        return schedule.eps_initial
    span = schedule.decay_fraction * total
    if t >= span:
        return schedule.eps_final
    frac = t / span
    return schedule.eps_initial + (schedule.eps_final - schedule.eps_initial) * frac


@dataclass(frozen=True)
class MoqConfig:
    weights: tuple[float, ...]
    scalariser: str = "linear"
    alpha: float = 0.1
    gamma: float = 0.9
    tau: float = 4.0
    total_timesteps: int = 400_000
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        if self.scalariser not in SCALARISERS:
            raise ValueError(f"unknown scalariser {self.scalariser!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.total_timesteps < 0:
            raise ValueError("total_timesteps must be >= 0")
        object.__setattr__(self, "weights", check_weights(self.weights))


class VectorQTable:
    """Dense-by-contract (state, action) table of per-objective Q-values.

    Rows materialise lazily on first touch, initialised to the zero vector,
    so huge state spaces only pay for states actually visited.
    """

    __slots__ = ("state_count", "action_count", "num_objectives", "_rows")

    def __init__(self, state_count: int, action_count: int, num_objectives: int):
        self.state_count = state_count
        self.action_count = action_count
        self.num_objectives = num_objectives
        self._rows: dict[int, list[list[float]]] = {}

    def row(self, state: int) -> list[list[float]]:
        row = self._rows.get(state)
        if row is None:
            if not 0 <= state < self.state_count:
                raise ValueError(f"state {state} out of range [0, {self.state_count})")
            row = [[0.0] * self.num_objectives for _ in range(self.action_count)]
            self._rows[state] = row
        return row


class MoqAgent:
    """One training instance: Q-table, scalariser state, and rng stream."""

    def __init__(self, spec, config: MoqConfig, rng: random.Random):
        check_weights(config.weights, spec.num_objectives)
        self.config = config
        self.mode = config.scalariser
        self.weights = config.weights
        self.rng = rng
        self.qtable = VectorQTable(spec.state_count, spec.action_count, spec.num_objectives)
        self.action_count = spec.action_count
        self.utopian = UtopianTracker(spec.num_objectives, config.tau)
        self._chebyshev = config.scalariser == "chebyshev"

    def act(self, state: int, epsilon: float) -> int:
        """Epsilon-greedy action; folds the state's Q-row into the utopian
        tracker before selecting (Chebyshev only)."""
        row = self.qtable.row(state)
        z = None
        if self._chebyshev:
            self.utopian.observe_row(row)
            z = self.utopian.z
        rng = self.rng
        if epsilon > 0.0 and rng.random() < epsilon:
            return rng.randrange(self.action_count)
        return greedy_action(self.mode, row, self.weights, z, rng=rng)

    def greedy(self, state: int, rng: random.Random | None = None) -> int:
        """Pure greedy choice for evaluation; leaves agent state untouched
        apart from the tie-break draws on ``rng``."""
        row = self.qtable.row(state)
        z = self.utopian.z if self._chebyshev else None
        return greedy_action(self.mode, row, self.weights, z, rng=rng or self.rng)

    def update(self, state: int, action: int, reward, next_state: int, terminated: bool) -> None:
        """Per-objective TD update; terminal transitions bootstrap zero."""
        q = self.qtable.row(state)[action]
        alpha = self.config.alpha
        if terminated:
            for o, r_o in enumerate(reward):
                q[o] += alpha * (r_o - q[o])
            return
        next_row = self.qtable.row(next_state)
        z = self.utopian.z if self._chebyshev else None
        q_next = next_row[greedy_action(self.mode, next_row, self.weights, z, rng=None)]
        gamma = self.config.gamma
        for o, r_o in enumerate(reward):
            q[o] += alpha * (r_o + gamma * q_next[o] - q[o])


def derive_streams(seed: int, n: int = 2) -> list[random.Random]:
    """Independent rng streams from one run seed (training, evaluation, ...)."""
    states = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [random.Random(int(s)) for s in states]


def train(env, config: MoqConfig, seed: int, eval_interval: int | None = 1000):
    """Train one configuration for ``config.total_timesteps`` environment steps.

    Every ``eval_interval`` steps the current greedy policy is rolled out
    once on a forked copy of the environment and its discounted return
    vector recorded; a final evaluation is appended when the budget is not
    a multiple of the interval. Pass ``eval_interval=None`` to skip
    evaluation entirely.

    Returns ``(agent, timeline)`` where timeline is a list of
    ``(timestep, return_vector)`` pairs. Fully reproducible given the seed;
    evaluation rollouts draw tie-breaks from their own stream so they do
    not perturb training.
    """
    from .sweep import evaluate_policy

    train_rng, eval_rng = derive_streams(seed)
    agent = MoqAgent(env.spec, config, train_rng)
    eval_env = env.fork() if eval_interval else None
    timeline: list[tuple[int, tuple[float, ...]]] = []
    total = config.total_timesteps
    schedule = config.schedule
    state = env.reset()
    for t in range(1, total + 1):
        eps = epsilon_at(schedule, t - 1, total)
        action = agent.act(state, eps)
        outcome = env.step(action)
        agent.update(state, action, outcome.reward, outcome.next_state, outcome.terminated)
        if outcome.terminated or outcome.truncated:
            state = env.reset()
        else:
            state = outcome.next_state
        if eval_interval and (t % eval_interval == 0 or t == total):
            point = evaluate_policy(eval_env, agent, config.gamma, rng=eval_rng)
            timeline.append((t, point))
    return agent, timeline
