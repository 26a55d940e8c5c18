"""Single-policy multi-objective Q-Learning with pluggable scalarisation.

The agent keeps one Q-vector per (state, action), one component per
objective, and selects actions by scalarising the current state's Q-row
(weighted sum or Chebyshev distance to a tracked utopian point). Updates
are per-objective temporal-difference steps that all bootstrap on the same
scalarised-greedy next action, so the table estimates the return vector of
the scalarised-greedy policy. Acting, bootstrapping and evaluation take
:func:`~morlbench.scalarise.best_index` of the same per-state action scores
and differ only in how exact ties are broken: acting draws from the agent's
rng stream, while the bootstrap takes the first tied action and draws
nothing, so updates never move the stream. Under Chebyshev, a Q-value
counts as seen for the utopian point ``z`` when a path scores its row, not
when an update writes it, and every path scores a row against ``z`` with
that row folded in, so no scored value lies above ``z``: acting and the
bootstrap fold the row into the tracker, while evaluation
(:meth:`MoqAgent.greedy`) only scores against the point the fold would give
and leaves the tracker as it is. The agent keeps the set of states whose
current row lies at or below the tracker's ``best``, the folded states: a
fold or an evaluation that finds nothing to fold adds its state, and an
update removes the state it wrote only when the written Q-vector holds a
value above ``best``. Since ``best`` only rises and a write changes one
Q-vector, a member's row stays at or below ``best`` exactly when that
vector does, and folding it again changes nothing, so no path folds it or
asks :meth:`~morlbench.scalarise.UtopianTracker.z_with` about it. The
scores are kept per state and equal
:func:`~morlbench.scalarise.action_scores` of the current row bit for bit:
an update rewrites its one entry with the same expression, against the
current ``z`` under Chebyshev, and a rise of the utopian point drops all
the scores.

Run many instances under different weight vectors (see
:mod:`morlbench.sweep`) to approximate a Pareto front outer-loop style.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import gt, mul, sub

from .scalarise import SCALARISERS, UtopianTracker, action_scores, best_index, check_tau, check_weights


def check_rate(name: str, value: float) -> None:
    """Refuse a step size, discount or fraction outside (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration decay over a leading fraction of training."""

    eps_initial: float = 1.0
    eps_final: float = 0.1
    decay_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eps_final <= self.eps_initial <= 1.0:
            raise ValueError(f"need 0 <= eps_final <= eps_initial <= 1, got {self}")
        check_rate("decay_fraction", self.decay_fraction)


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
        check_rate("alpha", self.alpha)
        check_rate("gamma", self.gamma)
        check_tau(self.tau)
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

    def __init__(self, env, config: MoqConfig, rng: random.Random):
        check_weights(config.weights, env.num_objectives)
        self.config = config
        self.mode = config.scalariser
        self.weights = config.weights
        self.rng = rng
        self.qtable = VectorQTable(env.state_count, env.action_count, env.num_objectives)
        self.action_count = env.action_count
        self.utopian = UtopianTracker(env.num_objectives, config.tau)
        self._chebyshev = config.scalariser == "chebyshev"
        self._scores: dict[int, list[float]] = {}
        self._folded: set[int] = set()

    def _scores_of(self, state: int) -> list[float]:
        """The state's stored action scores, rescored only on the first
        read after they were dropped; callers must not mutate the list."""
        scores = self._scores.get(state)
        if scores is None:
            z = self.utopian.z if self._chebyshev else None
            scores = action_scores(self.mode, self.qtable.row(state), self.weights, z)
            self._scores[state] = scores
        return scores

    def _fold(self, state: int, row: list[list[float]]) -> None:
        """Fold the state's Q-row into the utopian tracker and mark the
        state folded; a rise of ``z`` drops every stored score."""
        if self.utopian.observe_row(row):
            self._scores.clear()
        self._folded.add(state)

    def act(self, state: int, epsilon: float) -> int:
        """Epsilon-greedy action; folds the state's Q-row into the utopian
        tracker before selecting (Chebyshev only)."""
        if self._chebyshev and state not in self._folded:
            self._fold(state, self.qtable.row(state))
        rng = self.rng
        if epsilon > 0.0 and rng.random() < epsilon:
            return rng.randrange(self.action_count)
        return best_index(self._scores_of(state), rng)

    def greedy(self, state: int, rng: random.Random | None = None) -> int:
        """Pure greedy choice for evaluation: it changes no Q-value,
        ``best`` or ``z`` and draws tie-breaks only from ``rng``, but it
        fills the agent's caches as acting would: a state without a row
        gets a zero row, and a row scored against the current ``z`` (any
        row under linear) keeps its scores. With ``rng=None`` it takes the
        first tied action and draws nothing. Under Chebyshev a
        row holding a value above the tracker's best is scored against the
        ``z`` that :meth:`act` would fold it into, and neither that ``z``
        nor those scores are kept. A folded state's row holds no such
        value, so its check is skipped; a row found to hold none makes its
        state a folded one, which leaves ``best``, ``z`` and the stored
        scores as they are."""
        if self._chebyshev and state not in self._folded:
            row = self.qtable.row(state)
            z = self.utopian.z_with(row)
            if z is not None:
                return best_index(action_scores(self.mode, row, self.weights, z), rng)
            self._folded.add(state)
        return best_index(self._scores_of(state), rng)

    def update(self, state: int, action: int, reward, next_state: int, terminated: bool) -> None:
        """Per-objective TD update; terminal transitions bootstrap zero.

        A non-terminal update bootstraps on the next state's greedy action;
        like :meth:`act`, it first folds the next state's Q-row into the
        utopian tracker (Chebyshev only), so the row it scores never holds
        a value above ``z``. The written state then leaves the folded set
        if its new Q-vector holds a value above ``best``, and its stored
        score for ``action`` is rewritten against the current ``z``."""
        q = self.qtable.row(state)[action]
        alpha = self.config.alpha
        if terminated:
            for o, r_o in enumerate(reward):
                q[o] += alpha * (r_o - q[o])
        else:
            next_row = self.qtable.row(next_state)
            if self._chebyshev and next_state not in self._folded:
                self._fold(next_state, next_row)
            q_next = next_row[best_index(self._scores_of(next_state), None)]
            gamma = self.config.gamma
            for o, r_o in enumerate(reward):
                q[o] += alpha * (r_o + gamma * q_next[o] - q[o])
        if self._chebyshev:
            if any(map(gt, q, self.utopian.best)):
                self._folded.discard(state)
            scores = self._scores.get(state)
            if scores is not None:
                scores[action] = -max(map(mul, self.weights, map(abs, map(sub, q, self.utopian.z))))
        else:
            scores = self._scores.get(state)
            if scores is not None:
                scores[action] = sum(map(mul, self.weights, q))


_MASK32 = 0xFFFFFFFF


def seed_state(entropy: int, n: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """``n`` 64-bit words hashed from a seed: bit for bit the values of
    ``numpy.random.SeedSequence(entropy, spawn_key=spawn_key)
    .generate_state(n, dtype=numpy.uint64)``, without importing numpy.

    ``entropy`` and every key must be non-negative ints: anything else
    raises ``TypeError``, a negative value ``ValueError``.
    """
    words = []
    for i, value in enumerate((entropy, *spawn_key)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"seed must be a non-negative int, got {value!r}")
        if value < 0:
            raise ValueError(f"seed must be non-negative, got {value}")
        if i == 1:  # a spawn key pads the entropy to the pool size
            words += [0] * (4 - len(words))
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    # numpy's constants, in order: INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R, INIT_B, MULT_B
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = 0x8B51F9DD
    out = []
    for i in range(2 * n):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def derive_streams(seed: int, n: int = 2) -> list[random.Random]:
    """Independent rng streams from one run seed (training, evaluation, ...),
    seeded with the words of :func:`seed_state`; ``seed`` must be a
    non-negative int, so every run is reproducible."""
    return [random.Random(s) for s in seed_state(seed, n)]


def train_loop(env, agent, total: int, schedule: EpsilonSchedule, eval_interval: int | None, snapshot):
    """Run ``agent`` epsilon-greedily on ``env`` for ``total`` steps; the
    training loop of both MO Q-Learning and Pareto Q-Learning.

    Every ``eval_interval`` steps, and after the last step when ``total`` is
    not a multiple of it, ``snapshot()`` is called and its value recorded;
    ``eval_interval=None`` records nothing. Returns the ``(timestep,
    snapshot)`` timeline.
    Epsilon falls linearly from ``eps_initial`` at the first step to
    ``eps_final`` once ``decay_fraction * total`` steps are done.
    """
    timeline = []
    eps_initial, eps_final = schedule.eps_initial, schedule.eps_final
    span = schedule.decay_fraction * total
    state = env.reset()
    for t in range(1, total + 1):
        done = t - 1
        eps = eps_final if done >= span else eps_initial + (eps_final - eps_initial) * (done / span)
        action = agent.act(state, eps)
        next_state, reward, terminated, truncated = env.step(action)
        agent.update(state, action, reward, next_state, terminated)
        state = env.reset() if terminated or truncated else next_state
        if eval_interval and (t % eval_interval == 0 or t == total):
            timeline.append((t, snapshot()))
    return timeline


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
    agent = MoqAgent(env, config, train_rng)
    eval_env = env.fork() if eval_interval else None
    timeline = train_loop(
        env, agent, config.total_timesteps, config.schedule, eval_interval,
        lambda: evaluate_policy(eval_env, agent, config.gamma, rng=eval_rng),
    )
    return agent, timeline
