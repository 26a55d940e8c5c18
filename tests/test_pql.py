import random

import pytest

from helpers import (
    brute_force_nondominated,
    diamond_mdp,
    enumerate_returns,
    fork_mdp,
    lattice_mdp,
    reference_pql,
    reference_q_set,
)
from morlbench.envs import make_env
from morlbench.moq import EpsilonSchedule
from morlbench.pareto import hypervolume
from morlbench.pql import (
    SET_EVAL_MODES,
    CapacityError,
    PqlAgent,
    PqlConfig,
    QSetStore,
    check_capacity,
    pql_update,
    q_set,
    score_action_sets,
    train,
)

EXPLORE = EpsilonSchedule(1.0, 1.0, 1.0)  # pure exploration


def _converged_front(mdp, gamma, steps, seed=0):
    cfg = PqlConfig(
        gamma=gamma,
        total_timesteps=steps,
        set_eval="pareto",  # reference-point free, works for any objective count
        schedule=EXPLORE,
    )
    agent, _ = train(mdp, cfg, seed)
    return agent.front(mdp.start_state)


class TestQSet:
    def test_unvisited_empty(self):
        store = QSetStore(4, 2, 2)
        assert q_set(store, 0, 0) == []

    def test_terminal_pair_returns_mean(self):
        store = QSetStore(4, 2, 2)
        pql_update(store, 0, 0, (1.0, -1.0), 0, True, 0.9)
        assert q_set(store, 0, 0) == [(1.0, -1.0)]

    def test_affine_composition(self):
        store = QSetStore(4, 2, 2)
        # successor state 1 reaches terminals worth (1, -1) and (2, -3)
        pql_update(store, 1, 0, (1.0, -1.0), 3, True, 0.9)
        pql_update(store, 1, 1, (2.0, -3.0), 3, True, 0.9)
        pql_update(store, 0, 0, (0.0, -1.0), 1, False, 0.9)
        assert store.pair(0, 0).future == [(1.0, -1.0), (2.0, -3.0)]
        assert q_set(store, 0, 0) == [(0.9, -1.9), (1.8, -3.7)]

    def test_qset_is_affine_image(self):
        store = QSetStore(4, 3, 2)
        for a, r in enumerate([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]):
            pql_update(store, 1, a, r, 3, True, 0.9)
        pql_update(store, 0, 0, (0.5, 0.5), 1, False, 0.9)
        stats = store.pair(0, 0)
        assert len(stats.future) == 3
        assert len(q_set(store, 0, 0)) == len(stats.future)


class TestUpdate:
    def test_first_visit_terminal(self):
        store = QSetStore(4, 2, 2)
        pql_update(store, 0, 1, (1.0, -1.0), 0, True, 0.9)
        stats = store.pair(0, 1)
        assert stats.count == 1
        assert stats.mean_reward == [1.0, -1.0]
        assert stats.future == []

    def test_incremental_mean(self):
        store = QSetStore(4, 2, 2)
        pql_update(store, 0, 0, (0.0, -1.0), 0, True, 0.9)
        pql_update(store, 0, 0, (2.0, -1.0), 0, True, 0.9)
        assert store.pair(0, 0).mean_reward == [1.0, -1.0]

    def test_mean_matches_arithmetic_mean(self):
        store = QSetStore(4, 2, 1)
        rng = random.Random(13)
        rewards = [rng.uniform(-5, 5) for _ in range(200)]
        for r in rewards:
            pql_update(store, 0, 0, (r,), 0, True, 0.9)
        assert store.pair(0, 0).mean_reward[0] == pytest.approx(
            sum(rewards) / len(rewards), abs=1e-12
        )

    def test_future_front_stays_nondominated(self):
        mdp = lattice_mdp()
        cfg = PqlConfig(gamma=0.9, total_timesteps=5_000, set_eval="pareto", schedule=EXPLORE)
        agent, _ = train(mdp, cfg, seed=3)
        for state, row in agent.store._states.items():
            for stats in row:
                if stats is None or not stats.future:
                    continue
                assert stats.future == brute_force_nondominated(stats.future), state

    def test_three_state_chain_matches_enumeration(self):
        mdp = diamond_mdp()
        store = QSetStore(mdp.state_count, mdp.action_count, 2)
        rng = random.Random(1)
        env = mdp.fork()
        state = env.reset()
        for _ in range(2_000):
            action = rng.randrange(mdp.action_count)
            out = env.step(action)
            pql_update(store, state, action, out.reward, out.next_state, out.terminated, 0.9)
            state = env.reset() if out.terminated or out.truncated else out.next_state
        union = []
        for a in range(mdp.action_count):
            union.extend(q_set(store, mdp.start, a))
        expected = brute_force_nondominated(enumerate_returns(mdp, 0.9))
        assert sorted(set(union)) == expected


# (environment factory, hypervolume reference point); DST has self-loops
# (wall bumps), the hand-built MDPs are acyclic and the lattice is 3-D
ENVS = {
    "dst-concave": (lambda: make_env("dst-concave"), (0.0, -50.0)),
    "lattice": (lattice_mdp, (-1.0, -1.0, -1.0)),
    "diamond": (diamond_mdp, (-1.0, -1.0)),
}


def _random_transitions(env, steps, seed):
    rng = random.Random(seed)
    state = env.reset()
    out = []
    for _ in range(steps):
        action = rng.randrange(env.spec.action_count)
        step = env.step(action)
        out.append((state, action, step.reward, step.next_state, step.terminated))
        state = env.reset() if step.terminated or step.truncated else step.next_state
    return out


class TestMaterialisedQSets:
    """The update stores each pair's Q-set (and hypervolume score); these
    compare the stored values with the from-scratch formula."""

    @pytest.mark.parametrize("mode", SET_EVAL_MODES)
    @pytest.mark.parametrize("env_name", list(ENVS))
    def test_cached_q_sets_match_reference(self, env_name, mode):
        make, ref = ENVS[env_name]
        ref = ref if mode == "hypervolume" else None
        cfg = PqlConfig(total_timesteps=5_000, set_eval=mode, ref_point=ref)
        agent, _ = train(make(), cfg, seed=3)
        pairs = [
            (s, a, stats)
            for s, row in agent.store._states.items()
            for a, stats in enumerate(row)
            if stats is not None
        ]
        assert pairs
        for s, a, stats in pairs:
            expected = reference_q_set(stats.mean_reward, stats.future, cfg.gamma)
            assert q_set(agent.store, s, a) == expected, (s, a)
            if ref is not None:
                assert stats.score == hypervolume(expected, ref), (s, a)

    @pytest.mark.parametrize("env_name", list(ENVS))
    def test_update_matches_from_scratch_reference(self, env_name):
        env = ENVS[env_name][0]()
        transitions = _random_transitions(env, 5_000, seed=11)
        store = QSetStore(env.spec.state_count, env.spec.action_count, env.spec.num_objectives)
        for transition in transitions:
            pql_update(store, *transition, 0.9)
        expected = reference_pql(transitions, env.spec.action_count, 0.9)
        for (s, a), (count, mean, future) in expected.items():
            stats = store.pair(s, a)
            assert (stats.count, stats.mean_reward, stats.future) == (count, mean, future), (s, a)
            assert q_set(store, s, a) == reference_q_set(mean, future, 0.9), (s, a)

    def test_self_loop_union_sees_updated_mean(self):
        store = QSetStore(4, 2, 2)
        pql_update(store, 0, 0, (1.0, 0.0), 0, True, 0.9)
        pql_update(store, 0, 0, (3.0, 0.0), 0, False, 0.9)
        stats = store.pair(0, 0)
        assert stats.mean_reward == [2.0, 0.0]
        # the union over state 0 holds this pair's new mean, not the old (1, 0)
        assert stats.future == [(2.0, 0.0)]
        assert q_set(store, 0, 0) == [(2.0 + 0.9 * 2.0, 0.0)]

    def test_store_scores_against_its_reference_point(self):
        store = QSetStore(4, 2, 2, ref=(0.0, 0.0))
        pql_update(store, 0, 0, (2.0, 3.0), 0, True, 0.9)
        assert store.pair(0, 0).score == 6.0


class TestSetEvaluation:
    def test_ref_iff_hypervolume(self):
        with pytest.raises(ValueError, match="unknown set evaluation"):
            PqlConfig(set_eval="volume")
        spec = make_env("dst-concave").spec
        for mode in SET_EVAL_MODES:
            agent = PqlAgent(spec, PqlConfig(set_eval=mode, ref_point=(0.0, 0.0)), random.Random(0))
            assert (agent.store.ref is not None) == (mode == "hypervolume"), mode

    def test_empty_front_scores_zero(self):
        env = make_env("dst-concave")
        agent = PqlAgent(env.spec, PqlConfig(ref_point=(0.0, 0.0)), random.Random(5))
        agent.update(0, 1, (1.0, -1.0), 0, True)  # below the reference point
        assert agent.store.pair(0, 1).score == 0.0
        # the visited pair ties with the three unvisited ones, which score 0
        assert {agent.act(0, 0.0) for _ in range(200)} == {0, 1, 2, 3}
        agent.update(0, 2, (1.0, 1.0), 0, True)
        assert all(agent.act(0, 0.0) == 2 for _ in range(50))

    def test_box_areas(self):
        store = QSetStore(4, 2, 2, ref=(0.0, 0.0))
        pql_update(store, 0, 0, (1.0, 1.0), 0, True, 0.9)
        pql_update(store, 0, 1, (2.0, 2.0), 0, True, 0.9)
        assert [store.pair(0, a).score for a in range(2)] == [1.0, 4.0]

    def test_equal_fronts_equal_scores(self):
        store = QSetStore(4, 2, 2, ref=(0.0, 0.0))
        pql_update(store, 1, 0, (1.0, 2.0), 3, True, 1.0)
        pql_update(store, 1, 1, (2.0, 1.0), 3, True, 1.0)
        for a in range(2):
            pql_update(store, 0, a, (0.0, 0.0), 1, False, 1.0)
        assert q_set(store, 0, 0) == q_set(store, 0, 1) == [(1.0, 2.0), (2.0, 1.0)]
        assert store.pair(0, 0).score == store.pair(0, 1).score == 3.0

    def test_cardinality_counts_unbeaten_points(self):
        fronts = [
            [(1.0, 1.0), (0.0, 3.0)],  # (1,1) beaten by (2,2); (0,3) survives
            [(2.0, 2.0)],
        ]
        assert score_action_sets(fronts, "cardinality") == [1.0, 1.0]

    def test_pareto_contribution_flags(self):
        fronts = [[(1.0, 1.0)], [(2.0, 2.0)], []]
        assert score_action_sets(fronts, "pareto") == [0.0, 1.0, 0.0]

    def test_sibling_context_via_single_call(self):
        assert score_action_sets([[(1.0, 1.0)], [(2.0, 2.0)]], "cardinality")[0] == 0.0
        assert score_action_sets([[(1.0, 1.0)]], "cardinality") == [1.0]

    def test_hypervolume_is_not_scored_jointly(self):
        with pytest.raises(ValueError, match="no joint scoring"):
            score_action_sets([[(1.0, 1.0)]], "hypervolume")


class TestAct:
    def test_unvisited_state_uniform(self):
        env = make_env("dst-concave")
        agent = PqlAgent(env.spec, PqlConfig(), random.Random(5))
        counts = [0] * 4
        draws = 10_000
        for _ in range(draws):
            counts[agent.act(0, 0.0)] += 1
        for c in counts:
            assert abs(c / draws - 0.25) < 0.05

    def test_strictly_better_action_always_wins(self):
        env = make_env("dst-concave")
        agent = PqlAgent(env.spec, PqlConfig(), random.Random(5))
        # one terminal visit gives action 1 a q-set above the others
        agent.update(0, 1, (5.0, -1.0), 0, True)
        assert all(agent.act(0, 0.0) == 1 for _ in range(50))


class TestFront:
    def test_untrained_front_empty(self):
        env = make_env("dst-concave")
        agent = PqlAgent(env.spec, PqlConfig(), random.Random(0))
        assert len(agent.front(env.start_state)) == 0

    def test_fork_mdp_front(self):
        front = _converged_front(fork_mdp(), gamma=0.9, steps=2_000)
        assert set(front.points) == {(3.0, 0.0), (0.0, 3.0), (2.0, 2.0)}

    def test_diamond_mdp_front(self):
        mdp = diamond_mdp()
        front = _converged_front(mdp, gamma=0.9, steps=10_000)
        expected = brute_force_nondominated(enumerate_returns(mdp, 0.9))
        assert list(front.points) == expected

    def test_lattice_mdp_front(self):
        mdp = lattice_mdp()
        front = _converged_front(mdp, gamma=0.9, steps=30_000)
        expected = brute_force_nondominated(enumerate_returns(mdp, 0.9))
        assert list(front.points) == expected


class TestCapacityGuard:
    def test_four_room_refused(self):
        env = make_env("four-room")
        with pytest.raises(CapacityError, match="does not scale"):
            PqlAgent(env.spec, PqlConfig(), random.Random(0))

    def test_cap_override_allows(self):
        env = make_env("four-room")
        cfg = PqlConfig(state_cap=10_000_000, ref_point=(-1.0, -1.0, -1.0))
        PqlAgent(env.spec, cfg, random.Random(0))

    def test_dst_fits(self):
        env = make_env("dst-concave")
        PqlAgent(env.spec, PqlConfig(), random.Random(0))

    def test_check_capacity_alone(self):
        spec = make_env("four-room").spec
        with pytest.raises(CapacityError, match="346112 pairs"):
            check_capacity(spec, 200_000)
        check_capacity(spec, 346_112)


class TestTrainLoop:
    def test_reproducible(self):
        env = make_env("dst-concave")
        cfg = PqlConfig(total_timesteps=5_000)
        _, tl_a = train(env.fork(), cfg, seed=4)
        _, tl_b = train(env.fork(), cfg, seed=4)
        assert [(t, f.points) for t, f in tl_a] == [(t, f.points) for t, f in tl_b]

    def test_timeline_fronts_nondominated(self):
        env = make_env("dst-concave")
        cfg = PqlConfig(total_timesteps=10_000)
        _, timeline = train(env, cfg, seed=8)
        assert timeline
        for _, front in timeline:
            assert list(front.points) == brute_force_nondominated(front.points)

    def test_hypervolume_mode_needs_ref_for_unknown_env(self):
        mdp = fork_mdp()
        cfg = PqlConfig(set_eval="hypervolume")  # no ref and no registry entry
        with pytest.raises(ValueError, match="ref_point"):
            PqlAgent(mdp.spec, cfg, random.Random(0))

    def test_ref_point_dimension_checked(self):
        env = make_env("dst-concave")
        cfg = PqlConfig(ref_point=(0.0, -50.0, 0.0))
        with pytest.raises(ValueError, match="ref_point needs 2 values, got 3"):
            PqlAgent(env.spec, cfg, random.Random(0))
