import copy
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceMoqAgent, TabularMdp, epsilon_at, scalar_q_learning
from morlbench import moq, pql
from morlbench.envs import make_env
from morlbench.moq import (
    EpsilonSchedule,
    MoqAgent,
    MoqConfig,
    VectorQTable,
    seed_state,
    train,
)
from morlbench.pareto import dominates
from morlbench.pql import PqlConfig
from morlbench.scalarise import UtopianTracker, action_scores
from morlbench.sweep import evaluate_policy

DOWN = 1


def dummy_env(num_objectives=2, action_count=4, state_count=4):
    """The environment attributes an agent reads, without the dynamics."""
    return SimpleNamespace(name="dummy", num_objectives=num_objectives,
                           action_count=action_count, state_count=state_count)


class TestEpsilonSchedule:
    def test_starts_at_initial(self):
        assert epsilon_at(EpsilonSchedule(), 0, 400_000) == 1.0

    def test_ends_at_final(self):
        assert epsilon_at(EpsilonSchedule(), 400_000, 400_000) == 0.1

    def test_linear_midpoint(self):
        assert epsilon_at(EpsilonSchedule(1.0, 0.1, 1.0), 200_000, 400_000) == pytest.approx(0.55)

    def test_partial_decay_fraction(self):
        sched = EpsilonSchedule(1.0, 0.1, 0.5)
        assert epsilon_at(sched, 200_000, 400_000) == 0.1
        assert epsilon_at(sched, 100_000, 400_000) == pytest.approx(0.55)

    def test_monotone_and_bounded(self):
        sched = EpsilonSchedule(1.0, 0.1, 0.2)
        values = [epsilon_at(sched, t, 10_000) for t in range(0, 10_001, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.1 <= v <= 1.0 for v in values)

    def test_out_of_range_t(self):
        with pytest.raises(ValueError):
            epsilon_at(EpsilonSchedule(), -1, 100)
        with pytest.raises(ValueError):
            epsilon_at(EpsilonSchedule(), 101, 100)

    def test_invalid_schedules(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(0.1, 0.5, 1.0)
        with pytest.raises(ValueError):
            EpsilonSchedule(1.0, 0.1, 0.0)

    @pytest.mark.parametrize("schedule", [
        EpsilonSchedule(), EpsilonSchedule(1.0, 0.1, 0.3), EpsilonSchedule(0.7, 0.05, 0.55),
        EpsilonSchedule(0.0, 0.0, 1.0),
    ], ids=["default", "fraction-0.3", "fraction-0.55", "zero"])
    @pytest.mark.parametrize("total", [1, 7, 1000, 4321])
    def test_train_loop_explores_at_epsilon_at(self, schedule, total):
        """The loop computes epsilon inline; every step's value equals the
        oracle's bit for bit."""
        seen = []
        agent = SimpleNamespace(act=lambda state, eps: seen.append(eps) or 0, update=lambda *args: None)
        moq.train_loop(make_env("dst-concave"), agent, total, schedule, None, None)
        assert [eps.hex() for eps in seen] == [epsilon_at(schedule, t, total).hex() for t in range(total)]


def numpy_seed_state(entropy, n, spawn_key=()):
    """The oracle ``seed_state`` must equal bit for bit."""
    words = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(n, dtype=np.uint64)
    return [int(w) for w in words]


class TestSeedState:
    @settings(max_examples=500)
    @given(
        st.integers(0, 2**200),
        st.lists(st.integers(0, 2**64), max_size=3).map(tuple),
        st.integers(1, 4),
    )
    def test_matches_numpy(self, entropy, key, n):
        assert seed_state(entropy, n, key) == numpy_seed_state(entropy, n, key)

    @pytest.mark.parametrize("entropy", [0, 2**32 - 1, 2**32, 2**64])
    @pytest.mark.parametrize("key", [(), (0,), (2**32 - 1, 2**32)])
    def test_matches_numpy_at_word_boundaries(self, entropy, key):
        for n in (1, 2, 4):
            assert seed_state(entropy, n, key) == numpy_seed_state(entropy, n, key)

    @pytest.mark.parametrize("seed", [None, 1.0, "42", True, (1,)])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="non-negative int"):
            seed_state(seed, 1)
        with pytest.raises(TypeError):
            seed_state(1, 1, (seed,))
        with pytest.raises(TypeError):
            train(make_env("dst-concave"), MoqConfig(weights=(0.5, 0.5), total_timesteps=10), seed)
        with pytest.raises(TypeError):
            pql.train(make_env("dst-concave"), PqlConfig(total_timesteps=10), seed)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            seed_state(-1, 1)
        with pytest.raises(ValueError):
            seed_state(1, 1, (0, -2))
        with pytest.raises(ValueError):
            train(make_env("dst-concave"), MoqConfig(weights=(0.5, 0.5), total_timesteps=10), -5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoqConfig(weights=(1.0, 0.0), alpha=0.0)
        with pytest.raises(ValueError):
            MoqConfig(weights=(1.0, 0.0), gamma=1.5)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            MoqConfig(weights=(1.0, 0.0), tau=-1.0)
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
                MoqConfig(weights=(1.0, 0.0), tau=tau)
        with pytest.raises(ValueError):
            MoqConfig(weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            MoqConfig(weights=(1.0, 0.0), scalariser="exponential")

    @pytest.mark.parametrize("scalariser", ["linear", "chebyshev"])
    def test_agent_refuses_weights_of_wrong_length(self, scalariser):
        for weights in [(1.0,), (0.5, 0.25, 0.25)]:
            cfg = MoqConfig(weights=weights, scalariser=scalariser)
            with pytest.raises(ValueError, match=f"expected 2 weights, got {len(weights)}"):
                MoqAgent(dummy_env(num_objectives=2), cfg, random.Random(0))


class TestQTable:
    def test_zero_initialised(self):
        table = VectorQTable(3, 4, 2)
        assert table.row(1)[2] == [0.0, 0.0]

    def test_out_of_range_state(self):
        table = VectorQTable(3, 4, 2)
        with pytest.raises(ValueError):
            table.row(3)


class TestAct:
    def test_full_exploration_uniform(self):
        agent = MoqAgent(dummy_env(), MoqConfig(weights=(1.0, 0.0)), random.Random(77))
        counts = [0] * 4
        draws = 10_000
        for _ in range(draws):
            counts[agent.act(0, 1.0)] += 1
        for c in counts:
            assert abs(c / draws - 0.25) < 0.02

    def test_greedy_is_deterministic_given_distinct_values(self):
        agent = MoqAgent(dummy_env(), MoqConfig(weights=(1.0, 0.0)), random.Random(0))
        row = agent.qtable.row(0)
        row[2][0] = 5.0
        assert all(agent.act(0, 0.0) == 2 for _ in range(50))

    def test_zero_table_ties_uniform(self):
        agent = MoqAgent(dummy_env(), MoqConfig(weights=(0.5, 0.5)), random.Random(3))
        counts = [0] * 4
        draws = 10_000
        for _ in range(draws):
            counts[agent.act(0, 0.0)] += 1
        for c in counts:
            assert abs(c / draws - 0.25) < 0.05


class TestUpdate:
    def test_full_alpha_terminal_overwrites(self):
        agent = MoqAgent(dummy_env(), MoqConfig(weights=(1.0, 0.0), alpha=1.0), random.Random(0))
        agent.update(0, 1, (1.0, -1.0), 0, True)
        assert agent.qtable.row(0)[1] == [1.0, -1.0]

    def test_zero_reward_no_bootstrap_keeps_zero(self):
        agent = MoqAgent(dummy_env(), MoqConfig(weights=(1.0, 0.0), alpha=0.1), random.Random(0))
        agent.update(0, 0, (0.0, 0.0), 1, False)
        assert agent.qtable.row(0)[0] == [0.0, 0.0]

    @pytest.mark.parametrize("scalariser", ["linear", "chebyshev"])
    def test_bootstrap_takes_first_tied_action_without_drawing(self, scalariser):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser=scalariser, alpha=1.0, gamma=0.5, tau=0.0)
        agent = MoqAgent(dummy_env(), cfg, random.Random(6))
        # actions 1 and 3 tie under both scalarisers (utopia is (2, 2)) with different vectors
        agent.qtable.row(1)[:] = [[-1.0, -1.0], [2.0, 0.0], [-1.0, -1.0], [0.0, 2.0]]
        agent.utopian.observe_row(agent.qtable.row(1))
        state = agent.rng.getstate()
        agent.update(0, 0, (0.0, 0.0), 1, False)
        assert agent.qtable.row(0)[0] == [1.0, 0.0]
        assert agent.rng.getstate() == state

    def test_chebyshev_bootstrap_folds_next_row_into_utopia(self):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", tau=0.0)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.act(0, 0.0)
        assert agent.utopian.best == [0.0, 0.0]
        agent.qtable.row(1)[:] = [[0.0, 3.0], [2.0, 0.0]]
        agent.update(0, 0, (0.0, 0.0), 1, False)
        # folding row 1 first gives utopia (2, 3), nearest to action 0; scoring
        # it against the stale (0, 0) would pick action 1 and give (0.18, 0)
        assert agent.utopian.z == (2.0, 3.0)
        assert agent.qtable.row(0)[0] == pytest.approx([0.0, 0.27])

    def test_two_state_chain_converges_to_analytic_return(self):
        # 0 --(1,2)--> 1 --(3,-1)--> terminal, gamma 0.9:
        # Q(1) = (3,-1), Q(0) = (1,2) + 0.9*(3,-1) = (3.7, 1.1)
        table = {
            (0, 0): (1, (1.0, 2.0), False),
            (1, 0): (None, (3.0, -1.0), True),
        }
        env = TabularMdp(table, start=0, num_objectives=2, action_count=1)
        cfg = MoqConfig(weights=(0.5, 0.5), alpha=0.1, gamma=0.9, total_timesteps=10_000)
        agent, _ = train(env, cfg, seed=5, eval_interval=None)
        assert agent.qtable.row(1)[0] == pytest.approx([3.0, -1.0], abs=1e-3)
        assert agent.qtable.row(0)[0] == pytest.approx([3.7, 1.1], abs=1e-3)


class TestTrain:
    def test_zero_timesteps_leaves_zero_table(self):
        env = make_env("dst-concave")
        cfg = MoqConfig(weights=(1.0, 0.0), total_timesteps=0)
        agent, timeline = train(env, cfg, seed=1)
        assert timeline == []
        assert agent.qtable._rows == {}
        point = evaluate_policy(env.fork(), agent, 0.9, rng=random.Random(0))
        assert len(point) == 2

    def test_evaluation_without_rng_leaves_training_stream(self):
        env = make_env("dst-concave")
        agent = MoqAgent(env, MoqConfig(weights=(0.5, 0.5)), random.Random(4))
        before = agent.rng.getstate()
        evaluate_policy(env.fork(), agent, 0.9)
        assert agent.rng.getstate() == before

    def test_reproducible_bitwise(self):
        env = make_env("dst-concave")
        cfg = MoqConfig(weights=(0.5, 0.5), total_timesteps=10_000)
        agent_a, timeline_a = train(env.fork(), cfg, seed=9)
        agent_b, timeline_b = train(env.fork(), cfg, seed=9)
        assert timeline_a == timeline_b
        assert sorted(agent_a.qtable._rows) == sorted(agent_b.qtable._rows)
        for s in agent_a.qtable._rows:
            assert agent_a.qtable.row(s) == agent_b.qtable.row(s)

    def test_different_seeds_differ(self):
        env = make_env("dst-concave")
        cfg = MoqConfig(weights=(0.5, 0.5), total_timesteps=5_000)
        agent_a, _ = train(env.fork(), cfg, seed=1)
        agent_b, _ = train(env.fork(), cfg, seed=2)
        tables = [
            {s: [list(q) for q in agent.qtable.row(s)] for s in agent.qtable._rows}
            for agent in (agent_a, agent_b)
        ]
        assert tables[0] != tables[1]

    def test_step_penalty_corner_weight_finds_nearest_treasure(self):
        env = make_env("dst-concave")
        cfg = MoqConfig(weights=(0.0, 1.0), total_timesteps=50_000)
        _, timeline = train(env, cfg, seed=42)
        assert timeline[-1][1] == (1.0, -1.0)

    def test_evaluated_returns_weakly_dominated_by_true_front(self):
        env = make_env("dst-concave")
        front = env.true_front(0.9).points
        cfg = MoqConfig(weights=(0.5, 0.5), total_timesteps=20_000)
        _, timeline = train(env, cfg, seed=7)
        assert len(timeline) == 20
        for _, point in timeline:
            assert any(p == point or dominates(p, point) for p in front)

    # both learners run the one training loop, so they evaluate on the same steps
    @pytest.mark.parametrize(
        "learner, config",
        [(moq, MoqConfig(weights=(1.0, 0.0), total_timesteps=2_500)),
         (pql, PqlConfig(total_timesteps=2_500))],
        ids=["moq", "pql"],
    )
    def test_eval_cadence(self, learner, config):
        env = make_env("dst-concave")
        _, timeline = learner.train(env, config, seed=3, eval_interval=1000)
        assert [t for t, _ in timeline] == [1000, 2000, 2500]
        _, timeline = learner.train(env, config, seed=3, eval_interval=None)
        assert timeline == []


# (environment, weight vectors, training steps) for the score-cache checks
CACHE_CASES = [
    pytest.param("dst-concave", [(0.5, 0.5), (0.9, 0.1), (0.0, 1.0)], 20_000, id="dst"),
    pytest.param(
        "four-room", [(1 / 3, 1 / 3, 1 / 3), (0.8, 0.1, 0.1), (0.0, 0.0, 1.0)], 10_000, id="four-room"
    ),
]


def hexes(values):
    return [float.hex(v) for v in values]


class TestScoreCache:
    @pytest.mark.parametrize("scalariser", ["linear", "chebyshev"])
    @pytest.mark.parametrize("env_name, weights, steps", CACHE_CASES)
    def test_training_matches_uncached_reference(self, monkeypatch, env_name, weights, steps, scalariser):
        for w in weights:
            cfg = MoqConfig(weights=w, scalariser=scalariser, total_timesteps=steps)
            agent, timeline = train(make_env(env_name), cfg, seed=17, eval_interval=1000)
            with monkeypatch.context() as m:
                m.setattr(moq, "MoqAgent", ReferenceMoqAgent)
                reference, ref_timeline = train(make_env(env_name), cfg, seed=17, eval_interval=1000)
            assert timeline == ref_timeline
            assert agent.qtable._rows == reference.rows
            assert agent.rng.getstate() == reference.rng.getstate()
            assert agent.utopian.best == reference.best

    @pytest.mark.parametrize("scalariser", ["linear", "chebyshev"])
    @pytest.mark.parametrize("env_name, weights, steps", CACHE_CASES)
    def test_cached_scores_equal_rescoring(self, env_name, weights, steps, scalariser):
        for w in weights:
            cfg = MoqConfig(weights=w, scalariser=scalariser, total_timesteps=steps)
            agent, _ = train(make_env(env_name), cfg, seed=23, eval_interval=1000)
            z = agent.utopian.z if scalariser == "chebyshev" else None
            assert agent._scores and agent._scores.keys() <= agent.qtable._rows.keys()
            for state, scores in agent._scores.items():
                assert hexes(scores) == hexes(action_scores(scalariser, agent.qtable.row(state), w, z))

    def test_chebyshev_greedy_rescores_when_utopia_rises(self):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", tau=0.0)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.qtable.row(0)[:] = [[1.0, 0.0], [0.0, 0.5]]
        # utopia (1, 0.5): action 0 is closer
        assert agent.act(0, 0.0) == 0
        assert agent.greedy(0) == 0
        agent.qtable.row(1)[:] = [[0.0, 5.0], [0.0, 5.0]]
        agent.act(1, 0.0)
        # utopia rose to (1, 5) while state 0's scores were stored: action 1 is now closer
        assert agent.utopian.z == (1.0, 5.0)
        assert agent.greedy(0) == 1

    def test_chebyshev_greedy_scores_row_against_folded_utopia(self):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", tau=0.0)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.act(0, 0.0)
        agent.qtable.row(1)[:] = [[0.0, 3.0], [2.0, 0.0]]
        # folded in, row 1 gives utopia (2, 3), nearest to action 0; against
        # the tracker's (0, 0) action 1 would win
        assert agent.greedy(1) == 0
        assert agent.utopian.best == [0.0, 0.0]
        assert agent.act(1, 0.0) == 0
        assert agent.utopian.z == (2.0, 3.0)


@st.composite
def positive_mdps(draw):
    """Small two-objective MDPs, cycles allowed, whose rewards are positive
    on both objectives, so writes lift rows above ``best`` on either one."""
    n_states = draw(st.integers(1, 4))
    action_count = draw(st.integers(2, 3))
    reward = st.tuples(*[st.sampled_from([0.25, 1.0, 2.5, 4.0])] * 2)
    table = {}
    for s in range(n_states):
        for a in range(action_count):
            next_state = draw(st.none() | st.integers(0, n_states - 1))
            table[(s, a)] = (next_state, draw(reward), next_state is None)
    return TabularMdp(table, start=0, num_objectives=2, action_count=action_count,
                      max_episode_steps=draw(st.integers(2, 12)))


class TestFoldedStates:
    @pytest.mark.parametrize("env_name, weights, steps", CACHE_CASES)
    def test_folding_a_member_again_leaves_best(self, env_name, weights, steps):
        for w in weights:
            cfg = MoqConfig(weights=w, scalariser="chebyshev", total_timesteps=steps)
            agent, _ = train(make_env(env_name), cfg, seed=31, eval_interval=1000)
            assert agent._folded and agent._folded <= agent.qtable._rows.keys()
            for state in agent._folded:
                tracker = copy.deepcopy(agent.utopian)
                assert not tracker.observe_row(agent.qtable.row(state)), state
                assert tracker.best == agent.utopian.best

    def test_self_loop_write_is_folded_by_next_act(self):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", alpha=1.0, gamma=0.5, tau=0.0)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.act(0, 0.0)
        assert 0 in agent._folded and agent.utopian.z == (0.0, 0.0)
        # the bootstrap folds state 0 before the write lifts its row above best
        agent.update(0, 1, (4.0, 2.0), 0, False)
        assert agent.qtable.row(0)[1] == [4.0, 2.0]
        assert agent.utopian.z == (0.0, 0.0)
        # against utopia (4, 2) action 1 is nearest; against the stale (0, 0), action 0
        assert agent.greedy(0) == 1
        assert agent.utopian.z == (0.0, 0.0)
        assert agent.act(0, 0.0) == 1
        assert agent.utopian.z == (4.0, 2.0)

    @settings(max_examples=150, deadline=None)
    @given(
        positive_mdps(),
        st.sampled_from([0.0, 0.5, 4.0]),
        st.sampled_from([(0.5, 0.5), (0.9, 0.1), (0.2, 0.8), (1.0, 0.0)]),
        st.sampled_from([0.1, 0.5, 1.0]),
        st.integers(0, 2**32),
    )
    def test_random_mdps_match_reference(self, mdp, tau, weights, alpha, seed):
        cfg = MoqConfig(weights=weights, scalariser="chebyshev", alpha=alpha, gamma=0.9, tau=tau,
                        total_timesteps=300)
        agent, timeline = train(mdp.fork(), cfg, seed, eval_interval=25)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(moq, "MoqAgent", ReferenceMoqAgent)
            reference, ref_timeline = train(mdp.fork(), cfg, seed, eval_interval=25)
        assert [(t, hexes(p)) for t, p in timeline] == [(t, hexes(p)) for t, p in ref_timeline]
        assert agent.qtable._rows.keys() == reference.rows.keys()
        for state, row in reference.rows.items():
            assert [hexes(q) for q in agent.qtable.row(state)] == [hexes(q) for q in row]
        assert hexes(agent.utopian.best) == hexes(reference.best)
        assert agent.rng.getstate() == reference.rng.getstate()

    @staticmethod
    def count_folds(monkeypatch):
        """Wrap the tracker's ``observe_row``; returns the list of rows it folds."""
        folded_rows = []
        observe_row = UtopianTracker.observe_row

        def counting(tracker, qrow):
            folded_rows.append(qrow)
            return observe_row(tracker, qrow)

        monkeypatch.setattr(UtopianTracker, "observe_row", counting)
        return folded_rows

    def test_write_at_or_below_best_keeps_the_state_folded(self, monkeypatch):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", alpha=1.0, tau=0.0)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.qtable.row(0)[:] = [[3.0, 1.0], [1.0, 3.0]]
        agent.act(0, 0.0)
        assert 0 in agent._folded and agent.utopian.best == [3.0, 3.0]
        agent.update(0, 0, (3.0, 2.0), None, True)
        assert agent.qtable.row(0)[0] == [3.0, 2.0]
        assert 0 in agent._folded
        folds = self.count_folds(monkeypatch)
        assert agent.act(0, 0.0) == 0
        assert folds == []
        assert agent.utopian.best == [3.0, 3.0]

    def test_write_above_best_unfolds_the_state(self, monkeypatch):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", alpha=1.0, tau=0.5)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.qtable.row(0)[:] = [[3.0, 1.0], [1.0, 3.0]]
        agent.act(0, 0.0)
        agent.update(0, 0, (3.0, 3.0), None, True)
        assert 0 in agent._folded
        # one component above best but still below z = best + tau
        agent.update(0, 1, (1.0, 3.25), None, True)
        assert 0 not in agent._folded
        folds = self.count_folds(monkeypatch)
        agent.act(0, 0.0)
        assert folds == [agent.qtable.row(0)]
        assert agent.utopian.best == [3.0, 3.25] and 0 in agent._folded

    def test_training_folds_only_unfolded_states(self, monkeypatch):
        """Over a DST training run, the tracker folds a state's row only
        on its first fold or after a write lifted a value above ``best``."""
        agents = []

        class Recording(MoqAgent):
            def __init__(self, *args):
                super().__init__(*args)
                self.lifted = set()
                self.seen = set()
                agents.append(self)

            def update(self, state, action, reward, next_state, terminated):
                super().update(state, action, reward, next_state, terminated)
                if any(v > b for v, b in zip(self.qtable.row(state)[action], self.utopian.best)):
                    self.lifted.add(state)

        observe_row = UtopianTracker.observe_row
        calls = 0

        def checked(tracker, qrow):
            nonlocal calls
            calls += 1
            agent = agents[-1]
            (state,) = [s for s, row in agent.qtable._rows.items() if row is qrow]
            assert state not in agent._folded
            assert state not in agent.seen or state in agent.lifted, state
            agent.seen.add(state)
            agent.lifted.discard(state)
            return observe_row(tracker, qrow)

        monkeypatch.setattr(moq, "MoqAgent", Recording)
        monkeypatch.setattr(UtopianTracker, "observe_row", checked)
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", total_timesteps=10_000)
        train(make_env("dst-concave"), cfg, seed=31, eval_interval=1000)
        assert len(agents) == 1 and calls > len(agents[0].seen)

    def test_greedy_marks_a_row_with_nothing_to_fold(self):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser="chebyshev", tau=0.0)
        agent = MoqAgent(dummy_env(action_count=2), cfg, random.Random(0))
        agent.qtable.row(0)[:] = [[3.0, 1.0], [1.0, 3.0]]
        agent.act(0, 0.0)
        agent.qtable.row(1)[:] = [[2.0, 2.0], [4.0, 0.0]]
        assert agent.greedy(1) == 0
        assert 1 not in agent._folded
        agent.qtable.row(2)[:] = [[2.0, 2.0], [3.0, 0.0]]
        assert agent.greedy(2) == 0
        assert 2 in agent._folded
        assert agent.utopian.best == [3.0, 3.0]


class TestScalarReduction:
    def test_single_objective_equals_scalar_q_learning(self):
        table = {
            (0, 0): (1, (1.0,), False),
            (0, 1): (2, (0.0,), False),
            (1, 0): (None, (2.0,), True),
            (1, 1): (None, (0.5,), True),
            (2, 0): (None, (5.0,), True),
            (2, 1): (None, (1.0,), True),
        }
        schedule = EpsilonSchedule(1.0, 0.1, 1.0)
        cfg = MoqConfig(
            weights=(1.0,), alpha=0.1, gamma=0.9, total_timesteps=20_000, schedule=schedule
        )
        env = TabularMdp(table, start=0, num_objectives=1, action_count=2)
        agent, _ = train(env.fork(), cfg, seed=11, eval_interval=None)
        oracle = scalar_q_learning(env.fork(), 0.1, 0.9, 20_000, schedule, seed=11)
        assert sorted(oracle) == sorted(agent.qtable._rows)
        worst = 0.0
        for state, values in oracle.items():
            row = agent.qtable.row(state)
            for a, v in enumerate(values):
                worst = max(worst, abs(row[a][0] - v))
        assert worst == 0.0
