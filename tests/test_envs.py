import random

import pytest

from morlbench.envs import REFERENCE_POINTS, make_env, parse_map
from morlbench.envs.dst import DeepSeaTreasure
from morlbench.envs.four_room import FourRoom
from morlbench.pareto import dominates, hypervolume, igd, sparsity

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3

# §-anchored solution points of the discounted concave front at gamma=0.9.
KNOWN_FRONT_POINTS = [
    (1.0, -1.0),
    (1.62, -2.709),
    (1.96, -4.095),
    (6.78, -7.46),
    (13.71, -8.33),
    (18.61, -8.64),
]


@pytest.fixture
def dst():
    return make_env("dst-concave")


@pytest.fixture
def four_room():
    return make_env("four-room")


class TestDstBasics:
    def test_reset_is_start_corner(self, dst):
        assert dst.reset() == 0  # cell (0, 0)

    def test_reset_deterministic(self, dst):
        assert dst.reset() == dst.reset()

    def test_reset_after_terminal(self, dst):
        dst.reset()
        out = dst.step(DOWN)
        assert out.terminated
        assert dst.reset() == dst.start_state

    def test_first_treasure_one_step_down(self, dst):
        dst.reset()
        out = dst.step(DOWN)
        assert out.reward == (1.0, -1.0)
        assert out.terminated and not out.truncated

    def test_plain_move_costs_a_step(self, dst):
        dst.reset()
        out = dst.step(RIGHT)
        assert out.reward == (0.0, -1.0)
        assert not out.terminated

    def test_blocked_moves_are_noops(self, dst):
        state = dst.reset()
        out = dst.step(UP)  # off the top edge
        assert out.next_state == state
        assert out.reward == (0.0, -1.0)
        dst.reset()
        for _ in range(6):
            dst.step(RIGHT)
        for _ in range(5):
            here = dst.step(DOWN).next_state  # down column 6 to (5, 6)
        out = dst.step(LEFT)  # (5, 5) is seabed: blocked
        assert out.next_state == here
        assert out.reward == (0.0, -1.0)

    def test_invalid_action(self, dst):
        dst.reset()
        with pytest.raises(ValueError):
            dst.step(4)

    def test_truncation(self):
        env = make_env("dst-concave", max_episode_steps=3)
        env.reset()
        env.step(RIGHT)
        env.step(RIGHT)
        out = env.step(RIGHT)
        assert out.truncated and not out.terminated

    def test_determinism(self, dst):
        other = dst.fork()
        dst.reset()
        other.reset()
        for action in [RIGHT, RIGHT, DOWN, DOWN, DOWN]:
            assert dst.step(action) == other.step(action)

    def test_spec(self, dst):
        spec = dst.spec
        assert spec.num_objectives == 2
        assert spec.action_count == 4
        assert spec.state_count == 110


class TestDstTrueFront:
    def test_ten_points(self, dst):
        assert len(dst.true_front(0.9)) == 10

    def test_known_points_present(self, dst):
        front = dst.true_front(0.9).points
        for target in KNOWN_FRONT_POINTS:
            assert any(
                abs(p[0] - target[0]) <= 0.01 and abs(p[1] - target[1]) <= 0.01 for p in front
            ), f"missing {target}"

    def test_undiscounted_front(self, dst):
        front = dst.true_front(1.0)
        assert (1.0, -1.0) in front
        assert (124.0, -19.0) in front
        assert (24.0, -13.0) in front

    def test_gamma_validated(self, dst):
        with pytest.raises(ValueError):
            dst.true_front(0.0)
        with pytest.raises(ValueError):
            dst.true_front(1.5)

    def test_table_metrics(self, dst):
        front = dst.true_front(0.9)
        assert hypervolume(front, REFERENCE_POINTS["dst-concave"]) == pytest.approx(801.842, abs=0.01)
        assert sparsity(front) == pytest.approx(8.757, abs=0.01)
        assert igd(front, front) == 0.0

    def test_unreachable_treasure_rejected(self):
        text = "3 3\nS..\n##.\na#.\n\n[legend]\na = 1\n"
        with pytest.raises(ValueError, match="unreachable"):
            DeepSeaTreasure(parse_map(text))

    def test_episode_returns_match_front(self, dst):
        # a rollout straight to any treasure reproduces its front point bit
        # for bit (same stepwise discounting)
        front = set(dst.true_front(0.9).points)
        paths = {
            (1.0, -1.0): [DOWN],
            (1.62, -2.71): [RIGHT, DOWN, DOWN],
            (18.611734776827902, -8.649148282327012): [RIGHT] * 9 + [DOWN] * 10,
        }
        for expected, actions in paths.items():
            dst.reset()
            ret = [0.0, 0.0]
            discount = 1.0
            for action in actions:
                out = dst.step(action)
                ret[0] += discount * out.reward[0]
                ret[1] += discount * out.reward[1]
                discount *= 0.9
            assert out.terminated
            assert tuple(ret) in front
            assert expected in front

    def test_random_episode_returns_weakly_dominated(self, dst):
        # every terminated episode return is weakly dominated by a front point
        front = dst.true_front(0.9).points
        rng = random.Random(123)
        for _ in range(300):
            state = dst.reset()
            ret = [0.0, 0.0]
            discount = 1.0
            for _ in range(dst.max_episode_steps):
                out = dst.step(rng.randrange(4))
                ret[0] += discount * out.reward[0]
                ret[1] += discount * out.reward[1]
                discount *= 0.9
                if out.terminated or out.truncated:
                    break
            point = tuple(ret)
            assert any(p == point or dominates(p, point) for p in front)


class TestFourRoom:
    def test_spec(self, four_room):
        spec = four_room.spec
        assert spec.num_objectives == 3
        assert spec.state_count == 13 * 13 * 2**9

    def test_item_collected_once(self, four_room):
        four_room.reset()
        out = four_room.step(DOWN)  # (2,1)
        assert out.reward == (0.0, 0.0, 0.0)
        out = four_room.step(RIGHT)  # (2,2) holds a shape-0 item
        assert out.reward == (1.0, 0.0, 0.0)
        out = four_room.step(LEFT)
        out = four_room.step(RIGHT)  # re-enter: consumed
        assert out.reward == (0.0, 0.0, 0.0)

    def test_each_shape_maps_to_objective(self, four_room):
        four_room.reset()
        for action in [DOWN, RIGHT, DOWN, RIGHT]:  # to (3,3): shape-2 item
            out = four_room.step(action)
        assert out.reward == (0.0, 0.0, 1.0)

    def test_goal_terminates_without_items(self, four_room):
        # item-free route: down the left column, through the (6,3) door,
        # along row 9 through the (9,6) door, then down to the (11,11) goal
        four_room.reset()
        route = (
            [DOWN] * 4                 # (5,1)
            + [RIGHT] * 2              # (5,3)
            + [DOWN] * 4               # through (6,3) to (9,3)
            + [RIGHT] * 5              # through (9,6) to (9,8)
            + [DOWN] * 2               # (11,8)
            + [RIGHT] * 3              # (11,11) goal
        )
        rewards = []
        terminated = False
        for action in route:
            out = four_room.step(action)
            rewards.append(out.reward)
            if out.terminated:
                terminated = True
                break
        assert terminated
        assert all(r == (0.0, 0.0, 0.0) for r in rewards)

    def test_state_encoding_round_trip(self, four_room):
        # encode is a bijection onto [0, state_count): every (cell, mask) gets its own id
        grid = four_room.grid
        masks = range(1 << four_room.n_items)
        ids = {
            four_room.encode((r, c), mask)
            for r in range(grid.rows) for c in range(grid.cols) for mask in masks
        }
        assert len(ids) == grid.rows * grid.cols * len(masks) == four_room.state_count
        assert min(ids) == 0 and max(ids) == four_room.state_count - 1

    def test_reward_bounded_by_item_counts(self, four_room):
        rng = random.Random(11)
        for _ in range(50):
            four_room.reset()
            totals = [0.0, 0.0, 0.0]
            for _ in range(four_room.max_episode_steps):
                out = four_room.step(rng.randrange(4))
                for o in range(3):
                    totals[o] += out.reward[o]
                if out.terminated or out.truncated:
                    break
            assert all(t <= 3.0 for t in totals)

    def test_determinism(self, four_room):
        other = four_room.fork()
        four_room.reset()
        other.reset()
        rng_a, rng_b = random.Random(3), random.Random(3)
        for _ in range(200):
            a = rng_a.randrange(4)
            assert four_room.step(a) == other.step(rng_b.randrange(4))


class TestMapParsing:
    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_map("x y\nS.\n")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_map("2 3\nS..\n..\n")

    def test_missing_start(self):
        with pytest.raises(ValueError):
            parse_map("1 3\n...\n")

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="legend"):
            parse_map("1 3\nS.q\n")

    def test_legend_parsed(self):
        m = parse_map("2 2\nSa\n..\n\n[legend]\na = 2.5\n")
        assert m.legend == {"a": 2.5}
        assert m.symbol_cells == ((0, 1, "a"),)

    def test_unknown_env_id(self):
        with pytest.raises(ValueError):
            make_env("dst-mirrored")
