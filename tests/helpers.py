"""Independent oracles and hand-built MDPs used across the test suite.

Everything here deliberately avoids the library's algorithms: exploration
rates by one checked function call per step, dominance by quadratic
pairwise scan, hypervolume by Monte-Carlo box sampling and by a 3-D slab
sweep that re-sorts every slab, IGD by measuring every pair, fronts by
exhaustive path enumeration, Pareto Q-Learning's Q-sets rebuilt from
scratch on every read, MO Q-Learning rescoring the whole Q-row on every
read, and plain scalar Q-learning as the single-objective reference.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import mul, sub

import numpy as np

from morlbench.envs import StepOutcome


def epsilon_at(schedule, t, total):
    """Exploration rate after ``t`` of ``total`` timesteps: the expression
    the training loop computes inline, checked step by step against it."""
    if not 0 <= t <= total:
        raise ValueError(f"t must be in [0, {total}], got {t}")
    if t == 0:
        return schedule.eps_initial
    span = schedule.decay_fraction * total
    if t >= span:
        return schedule.eps_final
    frac = t / span
    return schedule.eps_initial + (schedule.eps_final - schedule.eps_initial) * frac


def brute_force_nondominated(points):
    """O(n^2) pairwise filter: keep p unless some q beats it everywhere
    and strictly somewhere."""
    pts = sorted(set(tuple(p) for p in points))

    def dom(q, p):
        return all(x >= y for x, y in zip(q, p)) and q != p

    return [p for p in pts if not any(dom(q, p) for q in pts)]


def monte_carlo_hypervolume(points, ref, samples, rng):
    """Box-sampling estimate of the dominated volume and its standard error.

    Draws ``samples * len(ref)`` values from ``rng.random()``, sample by
    sample, and counts the samples that some point weakly dominates.
    """
    pts = np.array(points, dtype=float)
    lower = np.array(ref, dtype=float)
    upper = pts.max(axis=0)
    box = 1.0
    for u, r in zip(upper.tolist(), ref):
        box *= max(u - r, 0.0)
    if box == 0.0:
        return 0.0, 0.0
    hits = 0
    chunk = 1 << 16
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        u = np.fromiter((rng.random() for _ in range(n * len(ref))), float, n * len(ref))
        x = lower + u.reshape(n, len(ref)) * (upper - lower)
        hit = np.zeros(n, dtype=bool)
        for p in pts:
            hit |= (p >= x).all(axis=1)
        hits += int(hit.sum())
    p_hat = hits / samples
    stderr = box * (p_hat * (1.0 - p_hat) / samples) ** 0.5
    return box * p_hat, stderr


def reference_igd(approx, truth):
    """IGD by measuring the distance from every truth point to every
    approximation point: the n x m scan the library's pruned search must
    equal bit for bit."""
    return sum(min(map(math.dist, repeat(z), approx.points)) for z in truth.points) / len(truth.points)


def reference_hv_3d(points, ref):
    """3-D hypervolume by slab decomposition, re-sorting every slab.

    Sweeps the third objective downwards and, for each slab of positive
    height, sums the 2-D area of all projections seen so far with a fresh
    sort and sweep: O(n^2 log n). Adds the same terms in the same order as
    the library's staircase sweep, so results must be equal bit for bit.
    """
    rx, ry, rz = ref
    pts = sorted((tuple(x if x > r else r for x, r in zip(p, ref)) for p in points),
                 key=lambda p: -p[2])
    hv = 0.0
    seen = []
    for i, p in enumerate(pts):
        seen.append((p[0], p[1]))
        z_low = pts[i + 1][2] if i + 1 < len(pts) else rz
        height = p[2] - z_low
        if height > 0.0:
            area = 0.0
            y_cover = ry
            for x, y in sorted(seen, reverse=True):
                if y > y_cover:
                    area += (x - rx) * (y - y_cover)
                    y_cover = y
            hv += area * height
    return hv


def reference_q_set(mean, future, gamma):
    """From-scratch Q-set of a visited pair: the mean reward alone, or the
    mean translated by gamma times each future-return point."""
    if not future:
        return [tuple(mean)]
    return [tuple(m + gamma * v for m, v in zip(mean, fut)) for fut in future]


def reference_pql(transitions, action_count, gamma):
    """Pareto Q-Learning's statistics with every Q-set rebuilt from scratch
    when it is read.

    Folds ``(state, action, reward, next_state, terminated)`` transitions
    in order; returns ``{(state, action): (count, mean, future)}``. The mean
    advances before the successor union is read, so on a self-loop the
    union holds the pair's new mean with its old future set.
    """
    table = {}

    def q(state, action):
        entry = table.get((state, action))
        return [] if entry is None else reference_q_set(entry[1], entry[2], gamma)

    for state, action, reward, next_state, terminated in transitions:
        count, mean, future = table.get((state, action), (0, [0.0] * len(reward), []))
        count += 1
        mean = [m + (r - m) / count for m, r in zip(mean, reward)]
        table[(state, action)] = (count, mean, future)
        if terminated:
            future = []
        else:
            future = brute_force_nondominated(
                [p for a in range(action_count) for p in q(next_state, a)]
            )
        table[(state, action)] = (count, mean, future)
    return table


class ReferenceMoqAgent:
    """MO Q-Learning that rescalarises the whole Q-row on every read.

    A drop-in for ``MoqAgent`` under ``moq.train``: the same float
    expressions, tie-breaks and rng draws, but no stored scores, so training
    with it must match the library agent bit for bit. ``rows`` is the
    Q-table; ``best`` holds the utopian tracker's per-objective maxima,
    into which acting and the bootstrap fold the row they score, and
    against which, with the row folded in, evaluation scores it.
    """

    def __init__(self, env, config, rng):
        self.config = config
        self.rng = rng
        self.action_count = env.action_count
        self.num_objectives = env.num_objectives
        self.rows = {}
        self.best = [-math.inf] * env.num_objectives

    def row(self, state):
        r = self.rows.get(state)
        if r is None:
            r = [[0.0] * self.num_objectives for _ in range(self.action_count)]
            self.rows[state] = r
        return r

    def pick(self, state, rng, best):
        w = self.config.weights
        if self.config.scalariser == "linear":
            scores = [sum(map(mul, w, q)) for q in self.row(state)]
        else:
            z = [b + self.config.tau for b in best]
            scores = [-max(map(mul, w, map(abs, map(sub, q, z)))) for q in self.row(state)]
        best = max(scores)
        ties = [i for i, s in enumerate(scores) if s == best]
        return ties[0] if rng is None or len(ties) == 1 else ties[rng.randrange(len(ties))]

    def folded(self, state):
        best = self.best
        if self.config.scalariser == "chebyshev":
            for q in self.row(state):
                best = [v if v > b else b for b, v in zip(best, q)]
        return best

    def act(self, state, epsilon):
        self.best = self.folded(state)
        if epsilon > 0.0 and self.rng.random() < epsilon:
            return self.rng.randrange(self.action_count)
        return self.pick(state, self.rng, self.best)

    def greedy(self, state, rng=None):
        return self.pick(state, rng, self.folded(state))

    def update(self, state, action, reward, next_state, terminated):
        q = self.row(state)[action]
        alpha = self.config.alpha
        if terminated:
            for o, r_o in enumerate(reward):
                q[o] += alpha * (r_o - q[o])
            return
        self.best = self.folded(next_state)
        q_next = self.row(next_state)[self.pick(next_state, None, self.best)]
        gamma = self.config.gamma
        for o, r_o in enumerate(reward):
            q[o] += alpha * (r_o + gamma * q_next[o] - q[o])


class TabularMdp:
    """Deterministic episodic MDP from an explicit transition table.

    ``transitions[(state, action)] = (next_state or None, reward, terminated)``
    with ``None`` marking the terminal sink. Implements the same duck-typed
    environment contract the gridworlds use.
    """

    def __init__(self, transitions, start, num_objectives, action_count,
                 name="mdp", max_episode_steps=1000):
        self.transitions = transitions
        self.start = start
        self.num_objectives = num_objectives
        self.action_count = action_count
        self.name = name
        self.max_episode_steps = max_episode_steps
        states = {start}
        for (s, _), (s2, _, _) in transitions.items():
            states.add(s)
            if s2 is not None:
                states.add(s2)
        self.state_count = max(states) + 1
        self.start_state = start
        self._state = start
        self._steps = 0

    def fork(self):
        return TabularMdp(self.transitions, self.start, self.num_objectives,
                          self.action_count, self.name, self.max_episode_steps)

    def reset(self):
        self._state = self.start
        self._steps = 0
        return self.start

    def step(self, action):
        next_state, reward, terminated = self.transitions[(self._state, action)]
        self._steps += 1
        if not terminated:
            self._state = next_state
        truncated = not terminated and self._steps >= self.max_episode_steps
        return StepOutcome(self._state if terminated else next_state,
                           tuple(reward), terminated, truncated)


def enumerate_returns(mdp: TabularMdp, gamma, state=None):
    """All achievable discounted episode returns by exhaustive DFS.

    Composes returns recursively as ``r + gamma * suffix`` so the floats
    match any learner that builds returns the same way. Only safe on
    acyclic transition tables.
    """
    state = mdp.start if state is None else state
    out = []
    for action in range(mdp.action_count):
        key = (state, action)
        if key not in mdp.transitions:
            continue
        next_state, reward, terminated = mdp.transitions[key]
        if terminated:
            out.append(tuple(float(r) for r in reward))
        else:
            for suffix in enumerate_returns(mdp, gamma, next_state):
                out.append(tuple(r + gamma * v for r, v in zip(reward, suffix)))
    return out


def fork_mdp():
    """Single decision, four terminal arms; one arm dominated."""
    table = {
        (0, 0): (None, (3.0, 0.0), True),
        (0, 1): (None, (0.0, 3.0), True),
        (0, 2): (None, (2.0, 2.0), True),
        (0, 3): (None, (1.0, 1.0), True),
    }
    return TabularMdp(table, start=0, num_objectives=2, action_count=4, name="fork")


def diamond_mdp():
    """Two-step diamond: both first moves reach the same middle state."""
    table = {
        (0, 0): (1, (1.0, 0.0), False),
        (0, 1): (1, (0.0, 1.0), False),
        (1, 0): (None, (2.0, 0.0), True),
        (1, 1): (None, (0.0, 2.0), True),
    }
    return TabularMdp(table, start=0, num_objectives=2, action_count=2, name="diamond")


def lattice_mdp():
    """Three objectives, three layers, shared interior states, some
    dominated leaves."""
    table = {
        (0, 0): (1, (1.0, 0.0, 0.0), False),
        (0, 1): (2, (0.0, 1.0, 0.0), False),
        (1, 0): (3, (0.0, 0.0, 1.0), False),
        (1, 1): (None, (0.0, 2.0, 0.0), True),
        (2, 0): (3, (1.0, 0.0, 0.0), False),
        (2, 1): (None, (0.0, 0.0, 0.5), True),
        (3, 0): (None, (1.0, 0.0, 0.0), True),
        (3, 1): (None, (0.0, 1.0, 1.0), True),
    }
    return TabularMdp(table, start=0, num_objectives=3, action_count=2, name="lattice")


def scalar_q_learning(env, alpha, gamma, total_timesteps, schedule, seed):
    """Plain single-objective Q-learning, mirroring the agent's decision
    structure (one epsilon draw per step, tie draws only on exact ties) so
    tables can be compared bit for bit when the reward has one objective.
    """
    states = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    rng = random.Random(int(states[0]))
    q = {}

    def row(state):
        r = q.get(state)
        if r is None:
            r = [0.0] * env.action_count
            q[state] = r
        return r

    def eps_at(t):
        if t == 0:
            return schedule.eps_initial
        span = schedule.decay_fraction * total_timesteps
        if t >= span:
            return schedule.eps_final
        return schedule.eps_initial + (schedule.eps_final - schedule.eps_initial) * t / span

    state = env.reset()
    for t in range(1, total_timesteps + 1):
        eps = eps_at(t - 1)
        values = row(state)
        if eps > 0.0 and rng.random() < eps:
            action = rng.randrange(env.action_count)
        else:
            best = max(values)
            ties = [i for i, v in enumerate(values) if v == best]
            action = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
        outcome = env.step(action)
        reward = outcome.reward[0]
        if outcome.terminated:
            target = reward
        else:
            target = reward + gamma * max(row(outcome.next_state))
        values[action] += alpha * (target - values[action])
        state = env.reset() if outcome.terminated or outcome.truncated else outcome.next_state
    return q
