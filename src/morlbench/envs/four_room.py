"""Four-Room: a deterministic 3-objective item-collection gridworld.

Four rooms joined by doorways. Items of three shapes are scattered over the
rooms; entering a cell with an uncollected item of shape ``k`` pays +1 on
objective ``k`` and consumes the item. Reaching the goal cell ends the
episode. There is no step penalty; discounting makes shorter collection
routes preferable.

State ids encode (position, collected-items bitmask) densely:
``state = (row * cols + col) * 2^n_items + mask``.
"""

from __future__ import annotations

from .base import EnvSpec, StepOutcome
from .grid import MOVES, GridMap, load_bundled_map

NUM_SHAPES = 3


class FourRoom:
    name = "four-room"
    num_objectives = NUM_SHAPES
    action_count = 4

    def __init__(self, grid: GridMap | None = None, max_episode_steps: int = 1000):
        self.grid = grid if grid is not None else load_bundled_map("four_room")
        if self.grid.goal is None:
            raise ValueError("Four-Room map needs a goal cell 'G'")
        self.max_episode_steps = max_episode_steps
        self.items = tuple(
            (r, c, int(self.grid.legend[sym])) for r, c, sym in self.grid.symbol_cells
        )
        if any(not 0 <= shape < NUM_SHAPES for _, _, shape in self.items):
            raise ValueError("item shapes must be 0, 1 or 2")
        self._item_bit = {(r, c): i for i, (r, c, _) in enumerate(self.items)}
        self._item_shape = {(r, c): shape for r, c, shape in self.items}
        self.n_items = len(self.items)
        self.state_count = self.grid.rows * self.grid.cols * (1 << self.n_items)
        self.start_state = self.encode(self.grid.start, 0)
        self._pos = self.grid.start
        self._mask = 0
        self._steps = 0

    def encode(self, pos: tuple[int, int], mask: int) -> int:
        r, c = pos
        return (r * self.grid.cols + c) * (1 << self.n_items) + mask

    @property
    def spec(self) -> EnvSpec:
        return EnvSpec(
            self.name, self.num_objectives, self.action_count,
            self.state_count, self.max_episode_steps,
        )

    def fork(self) -> "FourRoom":
        return FourRoom(self.grid, self.max_episode_steps)

    def reset(self) -> int:
        self._pos = self.grid.start
        self._mask = 0
        self._steps = 0
        return self.start_state

    def step(self, action: int) -> StepOutcome:
        if not 0 <= action < self.action_count:
            raise ValueError(f"invalid action {action!r}")
        dr, dc = MOVES[action]
        r, c = self._pos
        nr, nc = r + dr, c + dc
        if self.grid.in_bounds(nr, nc) and not self.grid.is_wall(nr, nc):
            self._pos = (nr, nc)
        self._steps += 1
        reward = [0.0] * NUM_SHAPES
        bit = self._item_bit.get(self._pos)
        if bit is not None and not self._mask >> bit & 1:
            self._mask |= 1 << bit
            reward[self._item_shape[self._pos]] = 1.0
        terminated = self._pos == self.grid.goal
        truncated = not terminated and self._steps >= self.max_episode_steps
        return StepOutcome(
            self.encode(self._pos, self._mask), tuple(reward), terminated, truncated
        )
