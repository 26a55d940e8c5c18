"""Four-Room: a deterministic 3-objective item-collection gridworld.

Four rooms joined by doorways. Items of three shapes are scattered over the
rooms; entering a cell with an uncollected item of shape ``k`` pays +1 on
objective ``k`` and consumes the item. Reaching the goal cell ends the
episode. There is no step penalty; discounting makes shorter collection
routes preferable.

State ids encode (cell, collected-items bitmask) densely:
``state = (row * cols + col) * 2^n_items + mask``.
"""

from __future__ import annotations

from .grid import GridMap, GridWorld, load_bundled_map

NUM_SHAPES = 3
NO_REWARD = (0.0,) * NUM_SHAPES


class FourRoom(GridWorld):
    name = "four-room"
    num_objectives = NUM_SHAPES

    def __init__(self, grid: GridMap | None = None, max_episode_steps: int = 1000):
        super().__init__(grid if grid is not None else load_bundled_map("four_room"), max_episode_steps)
        if self.grid.goal is None:
            raise ValueError("Four-Room map needs a goal cell 'G'")
        self._goal = self.grid.cell(*self.grid.goal)
        items = [(self.grid.cell(r, c), int(self.grid.legend[sym])) for r, c, sym in self.grid.symbol_cells]
        if any(not 0 <= shape < NUM_SHAPES for _, shape in items):
            raise ValueError("item shapes must be 0, 1 or 2")
        self._item_bit = {cell: i for i, (cell, _) in enumerate(items)}
        # the reward of collecting each item, built once and shared like NO_REWARD
        self._item_reward = {cell: tuple(float(k == shape) for k in range(NUM_SHAPES)) for cell, shape in items}
        self.n_items = len(items)
        self.state_count = self.grid.rows * self.grid.cols * (1 << self.n_items)
        self.start_state = self.encode(self.start_cell, 0)
        self._mask = 0

    def encode(self, cell: int, mask: int) -> int:
        return cell * (1 << self.n_items) + mask

    def reset(self) -> int:
        self._mask = 0
        return super().reset()

    def _enter(self, cell: int) -> tuple[int, tuple[float, ...], bool]:
        reward = NO_REWARD
        bit = self._item_bit.get(cell)
        if bit is not None and not self._mask >> bit & 1:
            self._mask |= 1 << bit
            reward = self._item_reward[cell]
        return self.encode(cell, self._mask), reward, cell == self._goal
