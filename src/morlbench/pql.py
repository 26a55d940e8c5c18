"""Pareto Q-Learning: inner-loop multi-policy learning with set-valued
Q estimates.

Each (state, action) pair keeps the visit count, the incremental mean of
the immediate reward vector, and the non-dominated set of discounted future
returns observed to flow through it. The pair's Q-set is the mean reward
translated by gamma times each future-return point, so short-term gains
and long-term goals stay separated.

A pair's Q-set changes only when that pair is updated, so the update
materialises it on the pair, together with its hypervolume score when the
store has a reference point; reading a Q-set or a score is then a lookup.
The store also caches each state's front, the non-dominated union of its
actions' Q-sets, when it is first read; an update drops its own state's
entry only when the pair's Q-set really changes. The cached lists are
shared: each becomes the future set of every pair whose successor the
state is, and the agent's front reads it, so nothing may mutate them.

Most updates change nothing: with deterministic rewards the mean stops
moving after the first visit, and the successor's front is usually the
one stored last time. The mean therefore advances only by non-zero
deltas (it starts at +0.0, so it never holds -0.0 and skipping a zero
delta leaves every float as it was), and the update returns early when the
mean did not move and the successor's front equals the stored future set.
Otherwise it composes the Q-set and rescores it only when it differs from
the stored one. One case needs care: on a self-loop (the successor is the
pair's own state, as on a wall bump) the successor union that becomes the
new future set contains this very pair with its new mean and its old
future set, so the update refreshes the pair's Q-set, and drops the
state's cached front, before reading that union.

Action selection scores each action's Q-set with a set evaluation
(hypervolume against a reference point by default; cardinality and Pareto
dominance contribution are also available) and picks the best, epsilon
greedily. Hypervolume scores are per pair and read from the store;
cardinality and Pareto contribution depend on the sibling actions and are
scored jointly on every greedy step. The agent's current front
approximation is the non-dominated union of the start state's Q-sets.

Tabular and set-valued, so memory grows with state-action pairs times
front sizes; construction refuses environments beyond a configurable
state-action cap instead of crawling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .envs import REFERENCE_POINTS
from .moq import EpsilonSchedule, check_rate, derive_streams, train_loop
from .pareto import ParetoArchive, Point, dominates, hypervolume, nondominated_points
from .scalarise import best_index

SET_EVAL_MODES = ("hypervolume", "cardinality", "pareto")


class CapacityError(RuntimeError):
    """Environment too large for tabular set-based Q-learning."""


def check_capacity(env, state_cap: int) -> None:
    """Refuse environments with more state-action pairs than ``state_cap``."""
    pairs = env.state_count * env.action_count
    if pairs > state_cap:
        raise CapacityError(
            f"{env.name}: {env.state_count} states x {env.action_count} actions "
            f"= {pairs} pairs exceeds the Pareto Q-Learning cap of {state_cap}; "
            "set-based tabular learning does not scale to this state space "
            "(raise state_cap to force it)"
        )


@dataclass(frozen=True)
class PqlConfig:
    gamma: float = 0.9
    total_timesteps: int = 400_000
    set_eval: str = "hypervolume"
    ref_point: tuple[float, ...] | None = None
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    state_cap: int = 200_000

    def __post_init__(self):
        check_rate("gamma", self.gamma)
        if self.set_eval not in SET_EVAL_MODES:
            raise ValueError(f"unknown set evaluation {self.set_eval!r}")
        if self.total_timesteps < 0:
            raise ValueError("total_timesteps must be >= 0")


class _PairStats:
    __slots__ = ("count", "mean_reward", "future", "qset", "score")

    def __init__(self, num_objectives: int):
        self.count = 0
        self.mean_reward = [0.0] * num_objectives
        self.future: list[Point] = []
        self.qset: list[Point] = []
        self.score = 0.0


class QSetStore:
    """Per (state, action) statistics, materialised on first visit, and
    each state's front, cached when first read.

    With a reference point ``ref``, every update that changes the pair's
    Q-set also scores it by its hypervolume against it.
    """

    __slots__ = ("state_count", "action_count", "num_objectives", "ref", "_states", "_fronts")

    def __init__(
        self,
        state_count: int,
        action_count: int,
        num_objectives: int,
        ref: Point | None = None,
    ):
        self.state_count = state_count
        self.action_count = action_count
        self.num_objectives = num_objectives
        self.ref = ref
        self._states: dict[int, list[_PairStats | None]] = {}
        self._fronts: dict[int, list[Point]] = {}

    def pair(self, state: int, action: int) -> _PairStats | None:
        row = self._states.get(state)
        return row[action] if row is not None else None

    def ensure(self, state: int, action: int) -> _PairStats:
        if not 0 <= state < self.state_count:
            raise ValueError(f"state {state} out of range [0, {self.state_count})")
        row = self._states.get(state)
        if row is None:
            row = [None] * self.action_count
            self._states[state] = row
        stats = row[action]
        if stats is None:
            stats = _PairStats(self.num_objectives)
            row[action] = stats
        return stats


def q_set(store: QSetStore, state: int, action: int) -> list[Point]:
    """Current Q-set of one pair: mean reward composed with each discounted
    future return; just the mean for pairs that only reached terminals;
    empty for unvisited pairs. The list is the store's own; do not mutate."""
    stats = store.pair(state, action)
    return stats.qset if stats is not None else []


def _compose(stats: _PairStats, gamma: float) -> list[Point]:
    mean = stats.mean_reward
    if not stats.future:
        return [tuple(mean)]
    return [tuple(m + gamma * v for m, v in zip(mean, fut)) for fut in stats.future]


def _state_front(store: QSetStore, state: int) -> list[Point]:
    """Non-dominated union of the Q-sets of the state's actions.

    Built on the first read and cached until an update changes one of the
    state's Q-sets. The list is shared; do not mutate.
    """
    front = store._fronts.get(state)
    if front is None:
        row = store._states.get(state)
        if row is None:
            return []
        front = nondominated_points([p for stats in row if stats is not None for p in stats.qset])
        store._fronts[state] = front
    return front


def _set_q_set(store: QSetStore, state: int, stats: _PairStats, qset: list[Point]) -> None:
    # a changed Q-set is rescored and invalidates its state's cached front
    if qset != stats.qset:
        stats.qset = qset
        store._fronts.pop(state, None)
        if store.ref is not None:
            stats.score = hypervolume(qset, store.ref)


def pql_update(
    store: QSetStore,
    state: int,
    action: int,
    reward,
    next_state: int,
    terminated: bool,
    gamma: float,
) -> None:
    """Fold one transition into the store.

    Advances the incremental reward mean and snapshots the successor
    state's cached front as this pair's future-return set (cleared on
    terminal transitions), then materialises the pair's Q-set and, if the
    store has a reference point, its hypervolume score. Returns early when
    neither the mean nor the future set changed, and rescores the Q-set and
    drops the state's cached front only when the Q-set changed; the stored
    values are those of recomposing and rescoring on every update.
    """
    stats = store.ensure(state, action)
    stats.count += 1
    n = stats.count
    mean = stats.mean_reward
    moved = n == 1  # a first visit always sets the Q-set
    for o, r_o in enumerate(reward):
        delta = (r_o - mean[o]) / n
        if delta:
            mean[o] += delta
            moved = True
    if terminated:
        future = []
    else:
        if moved and next_state == state:
            # the union below holds this pair: new mean, old future set
            _set_q_set(store, state, stats, _compose(stats, gamma))
        future = _state_front(store, next_state)
    if not moved and future == stats.future:
        return
    stats.future = future
    _set_q_set(store, state, stats, _compose(stats, gamma))


def score_action_sets(fronts: list[list[Point]], mode: str) -> list[float]:
    """Score sibling actions' Q-sets jointly.

    cardinality: how many of the front's points no sibling point dominates.
    pareto: 1 if the front contributes to the non-dominated union, else 0.
    Hypervolume scores are per pair and live in the store instead.
    """
    if mode == "cardinality":
        scores = []
        for i, front in enumerate(fronts):
            rivals = [p for j, other in enumerate(fronts) if j != i for p in other]
            scores.append(
                float(sum(1 for p in front if not any(dominates(q, p) for q in rivals)))
            )
        return scores
    if mode != "pareto":
        raise ValueError(f"no joint scoring for set evaluation {mode!r}")
    union = [p for front in fronts for p in front]
    best = set(nondominated_points(union))
    return [1.0 if any(p in best for p in front) else 0.0 for front in fronts]


class PqlAgent:
    def __init__(self, env, config: PqlConfig, rng: random.Random):
        check_capacity(env, config.state_cap)
        ref = None
        if config.set_eval == "hypervolume":
            ref = config.ref_point if config.ref_point is not None else REFERENCE_POINTS.get(env.name)
            if ref is None:
                raise ValueError("hypervolume set evaluation needs ref_point")
            if len(ref) != env.num_objectives:
                raise ValueError(f"ref_point needs {env.num_objectives} values, got {len(ref)}")
        self.config = config
        self.set_eval = config.set_eval
        self.gamma = config.gamma
        self.rng = rng
        self.action_count = env.action_count
        self.store = QSetStore(env.state_count, env.action_count, env.num_objectives, ref)

    def act(self, state: int, epsilon: float) -> int:
        rng = self.rng
        if epsilon > 0.0 and rng.random() < epsilon:
            return rng.randrange(self.action_count)
        if self.set_eval == "hypervolume":
            row = self.store._states.get(state)
            if row is None:
                scores = [0.0] * self.action_count
            else:
                scores = [0.0 if stats is None else stats.score for stats in row]
        else:
            fronts = [q_set(self.store, state, a) for a in range(self.action_count)]
            scores = score_action_sets(fronts, self.set_eval)
        return best_index(scores, rng)

    def update(self, state: int, action: int, reward, next_state: int, terminated: bool) -> None:
        pql_update(self.store, state, action, reward, next_state, terminated, self.gamma)

    def front(self, state: int) -> ParetoArchive:
        """Non-dominated union of the state's Q-sets: the agent's current
        Pareto front approximation when called on the start state."""
        return ParetoArchive(_state_front(self.store, state))


def train(env, config: PqlConfig, seed: int, eval_interval: int | None = 1000):
    """Train Pareto Q-Learning on ``env`` for the configured step budget.

    Returns ``(agent, timeline)`` with one ``(timestep, front)`` snapshot
    per evaluation interval, taken at the environment's start state.
    """
    (rng,) = derive_streams(seed, 1)
    agent = PqlAgent(env, config, rng)
    timeline = train_loop(
        env, agent, config.total_timesteps, config.schedule, eval_interval,
        lambda: agent.front(env.start_state),
    )
    return agent, timeline
