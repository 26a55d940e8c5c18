import random

import pytest

from morlbench.envs import ENV_IDS, REFERENCE_POINTS, make_env, parse_map
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

# Four-Room route that collects no item: down the left column, through the
# (6,3) door, along row 9 through the (9,6) door, then down to the (11,11) goal.
FOUR_ROOM_ITEM_FREE_ROUTE = (
    [DOWN] * 4                 # (5,1)
    + [RIGHT] * 2              # (5,3)
    + [DOWN] * 4               # through (6,3) to (9,3)
    + [RIGHT] * 5              # through (9,6) to (9,8)
    + [DOWN] * 2               # (11,8)
    + [RIGHT] * 3              # (11,11) goal
)

# Per environment: the reward of a step that reaches nothing, a route from
# the start that ends the episode, and walks from the start followed by a
# move that the map blocks.
EMPTY_STEP = {"dst-concave": (0.0, -1.0), "four-room": (0.0, 0.0, 0.0)}
TO_TERMINAL = {"dst-concave": [DOWN], "four-room": FOUR_ROOM_ITEM_FREE_ROUTE}
BLOCKED = {
    "dst-concave": [
        ([], UP),                           # off the top edge
        ([RIGHT] * 6 + [DOWN] * 5, LEFT),   # (5, 5) is seabed
    ],
    "four-room": [
        ([], UP),                           # (0, 1) is a wall
        ([DOWN] * 4, LEFT),                 # (5, 0) is a wall
    ],
}


@pytest.fixture
def dst():
    return make_env("dst-concave")


@pytest.fixture
def four_room():
    return make_env("four-room")


@pytest.mark.parametrize("env_id", ENV_IDS)
class TestGridWorld:
    """Mechanics both gridworlds share: actions, blocking, step counting."""

    def test_reset_after_terminal(self, env_id):
        env = make_env(env_id)
        env.reset()
        for action in TO_TERMINAL[env_id]:
            out = env.step(action)
        assert out.terminated and not out.truncated
        assert env.reset() == env.start_state

    def test_blocked_moves_are_noops(self, env_id):
        # a blocked move stays put and still counts: with one step left, it truncates
        for walk, blocked in BLOCKED[env_id]:
            env = make_env(env_id, max_episode_steps=len(walk) + 1)
            here = env.reset()
            for action in walk:
                here = env.step(action).next_state
            out = env.step(blocked)
            assert out.next_state == here
            assert out.reward == EMPTY_STEP[env_id]
            assert out.truncated and not out.terminated

    def test_invalid_action(self, env_id):
        env = make_env(env_id)
        env.reset()
        for action in (-1, 4):
            with pytest.raises(ValueError, match="invalid action"):
                env.step(action)

    def test_truncation(self, env_id):
        env = make_env(env_id, max_episode_steps=3)
        env.reset()
        assert not env.step(RIGHT).truncated
        assert not env.step(RIGHT).truncated
        out = env.step(RIGHT)
        assert out.truncated and not out.terminated


class TestDstBasics:
    def test_reset_is_start_corner(self, dst):
        assert dst.reset() == 0  # cell (0, 0)

    def test_reset_deterministic(self, dst):
        assert dst.reset() == dst.reset()

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

    def test_determinism(self, dst):
        other = dst.fork()
        dst.reset()
        other.reset()
        for action in [RIGHT, RIGHT, DOWN, DOWN, DOWN]:
            assert dst.step(action) == other.step(action)

    def test_spec(self, dst):
        assert dst.name == "dst-concave"
        assert dst.num_objectives == 2
        assert dst.action_count == 4
        assert dst.state_count == 110
        assert dst.max_episode_steps == 1000


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
        assert four_room.name == "four-room"
        assert four_room.num_objectives == 3
        assert four_room.action_count == 4
        assert four_room.state_count == 13 * 13 * 2**9
        assert four_room.max_episode_steps == 1000

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
        four_room.reset()
        rewards = []
        terminated = False
        for action in FOUR_ROOM_ITEM_FREE_ROUTE:
            out = four_room.step(action)
            rewards.append(out.reward)
            if out.terminated:
                terminated = True
                break
        assert terminated
        assert all(r == (0.0, 0.0, 0.0) for r in rewards)

    def test_reset_restores_items(self, four_room):
        four_room.reset()
        first = [four_room.step(a) for a in (DOWN, RIGHT)]  # (2,2) holds a shape-0 item
        assert first[-1].reward == (1.0, 0.0, 0.0)
        four_room.reset()
        assert [four_room.step(a) for a in (DOWN, RIGHT)] == first

    def test_fork_starts_fresh_and_shares_nothing(self):
        env = FourRoom(max_episode_steps=3)
        env.reset()
        env.step(DOWN)
        env.step(RIGHT)  # collects the (2,2) item: cell, step count and mask have moved
        other = env.fork()
        assert other.start_state == env.start_state
        # the fork starts at the start cell, with no item collected and no step taken
        assert other.step(DOWN) == (env.encode(env.grid.cell(2, 1), 0), (0.0, 0.0, 0.0), False, False)
        assert other.step(RIGHT) == (env.encode(env.grid.cell(2, 2), 1), (1.0, 0.0, 0.0), False, False)
        # the original went on from where it was, unmoved by the fork's steps
        assert env.step(DOWN) == (env.encode(env.grid.cell(3, 2), 1), (0.0, 0.0, 0.0), False, True)
        assert other.step(DOWN).truncated

    def test_state_encoding_round_trip(self, four_room):
        # encode is a bijection onto [0, state_count): every (cell, mask) gets its own id
        grid = four_room.grid
        masks = range(1 << four_room.n_items)
        ids = {four_room.encode(cell, mask) for cell in range(grid.rows * grid.cols) for mask in masks}
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
