import random

import pytest

from helpers import TabularMdp, scalar_q_learning
from morlbench.envs import EnvSpec, make_env
from morlbench.moq import (
    EpsilonSchedule,
    MoqAgent,
    MoqConfig,
    VectorQTable,
    epsilon_at,
    train,
)
from morlbench.pareto import dominates
from morlbench.sweep import evaluate_policy

DOWN = 1


def dummy_spec(num_objectives=2, action_count=4, state_count=4):
    return EnvSpec("dummy", num_objectives, action_count, state_count, 100)


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


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoqConfig(weights=(1.0, 0.0), alpha=0.0)
        with pytest.raises(ValueError):
            MoqConfig(weights=(1.0, 0.0), gamma=1.5)
        with pytest.raises(ValueError):
            MoqConfig(weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            MoqConfig(weights=(1.0, 0.0), scalariser="exponential")

    @pytest.mark.parametrize("scalariser", ["linear", "chebyshev"])
    def test_agent_refuses_weights_of_wrong_length(self, scalariser):
        for weights in [(1.0,), (0.5, 0.25, 0.25)]:
            cfg = MoqConfig(weights=weights, scalariser=scalariser)
            with pytest.raises(ValueError, match=f"expected 2 weights, got {len(weights)}"):
                MoqAgent(dummy_spec(num_objectives=2), cfg, random.Random(0))


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
        agent = MoqAgent(dummy_spec(), MoqConfig(weights=(1.0, 0.0)), random.Random(77))
        counts = [0] * 4
        draws = 10_000
        for _ in range(draws):
            counts[agent.act(0, 1.0)] += 1
        for c in counts:
            assert abs(c / draws - 0.25) < 0.02

    def test_greedy_is_deterministic_given_distinct_values(self):
        agent = MoqAgent(dummy_spec(), MoqConfig(weights=(1.0, 0.0)), random.Random(0))
        row = agent.qtable.row(0)
        row[2][0] = 5.0
        assert all(agent.act(0, 0.0) == 2 for _ in range(50))

    def test_zero_table_ties_uniform(self):
        agent = MoqAgent(dummy_spec(), MoqConfig(weights=(0.5, 0.5)), random.Random(3))
        counts = [0] * 4
        draws = 10_000
        for _ in range(draws):
            counts[agent.act(0, 0.0)] += 1
        for c in counts:
            assert abs(c / draws - 0.25) < 0.05


class TestUpdate:
    def test_full_alpha_terminal_overwrites(self):
        agent = MoqAgent(dummy_spec(), MoqConfig(weights=(1.0, 0.0), alpha=1.0), random.Random(0))
        agent.update(0, 1, (1.0, -1.0), 0, True)
        assert agent.qtable.row(0)[1] == [1.0, -1.0]

    def test_zero_reward_no_bootstrap_keeps_zero(self):
        agent = MoqAgent(dummy_spec(), MoqConfig(weights=(1.0, 0.0), alpha=0.1), random.Random(0))
        agent.update(0, 0, (0.0, 0.0), 1, False)
        assert agent.qtable.row(0)[0] == [0.0, 0.0]

    @pytest.mark.parametrize("scalariser", ["linear", "chebyshev"])
    def test_bootstrap_takes_first_tied_action_without_drawing(self, scalariser):
        cfg = MoqConfig(weights=(0.5, 0.5), scalariser=scalariser, alpha=1.0, gamma=0.5, tau=0.0)
        agent = MoqAgent(dummy_spec(), cfg, random.Random(6))
        # actions 1 and 3 tie under both scalarisers (utopia is (2, 2)) with different vectors
        agent.qtable.row(1)[:] = [[-1.0, -1.0], [2.0, 0.0], [-1.0, -1.0], [0.0, 2.0]]
        agent.utopian.observe_row(agent.qtable.row(1))
        state = agent.rng.getstate()
        agent.update(0, 0, (0.0, 0.0), 1, False)
        assert agent.qtable.row(0)[0] == [1.0, 0.0]
        assert agent.rng.getstate() == state

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

    def test_eval_cadence(self):
        env = make_env("dst-concave")
        cfg = MoqConfig(weights=(1.0, 0.0), total_timesteps=2_500)
        _, timeline = train(env, cfg, seed=3, eval_interval=1000)
        assert [t for t, _ in timeline] == [1000, 2000, 2500]


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
