"""Deep Sea Treasure (concave variant): a deterministic 2-objective gridworld.

A submarine starts at the surface and dives for treasure. Objective 0 is
the treasure value collected (episode ends on any treasure cell), objective
1 is a -1 penalty per step. Deeper treasures are worth more, so the two
objectives conflict and every treasure's shortest path is a Pareto-optimal
trade-off.

State ids are the dense cell numbers ``row * cols + col``. Actions: 0 up,
1 down, 2 left, 3 right; blocked moves (seabed or map edge) leave the
position unchanged and still cost a step.
"""

from __future__ import annotations

from collections import deque

from ..pareto import ParetoArchive
from .grid import GridMap, GridWorld, load_bundled_map

STEP_PENALTY = -1.0


class DeepSeaTreasure(GridWorld):
    name = "dst-concave"
    num_objectives = 2

    def __init__(self, grid: GridMap | None = None, max_episode_steps: int = 1000):
        super().__init__(grid if grid is not None else load_bundled_map("dst_concave"), max_episode_steps)
        self.state_count = self.grid.rows * self.grid.cols
        self._treasures = {
            self.grid.cell(r, c): self.grid.legend[sym] for r, c, sym in self.grid.symbol_cells
        }
        if not self._treasures:
            raise ValueError("DST map has no treasure cells")
        self._check_depth_monotonicity()
        self.start_state = self.start_cell

    def _check_depth_monotonicity(self) -> None:
        # Treasure values must strictly increase with distance from start.
        by_distance = sorted(
            (t, self._treasures[cell]) for cell, t in self._min_steps().items()
        )
        values = [v for _, v in by_distance]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("treasure values must strictly increase with distance")

    def _min_steps(self) -> dict[int, int]:
        # BFS over the move targets of water cells; treasure cells are
        # absorbing, so shortest paths never pass through another treasure.
        dist = {self.start_cell: 0}
        reached: dict[int, int] = {}
        queue = deque([self.start_cell])
        while queue:
            cell = queue.popleft()
            for target in self._targets[cell]:
                if target in dist:
                    continue
                dist[target] = dist[cell] + 1
                if target in self._treasures:
                    reached[target] = dist[target]
                else:
                    queue.append(target)
        missing = set(self._treasures) - set(reached)
        if missing:
            cells = sorted(divmod(cell, self.grid.cols) for cell in missing)
            raise ValueError(f"unreachable treasure cells: {cells}")
        return reached

    def _enter(self, cell: int) -> tuple[int, tuple[float, float], bool]:
        treasure = self._treasures.get(cell, 0.0)
        return cell, (treasure, STEP_PENALTY), treasure > 0.0

    def true_front(self, gamma: float) -> ParetoArchive:
        """Discounted return of each treasure's shortest path.

        One point per treasure: reaching value ``v`` in ``t`` steps yields
        ``(v * gamma^(t-1), -sum_{k<t} gamma^k)``. The archive keeps all
        points verbatim (the published reference front convention), so at
        discounts < 1 it may contain a point that is dominated after
        discounting even though every treasure is optimal undiscounted.
        """
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        points = []
        for cell, t in self._min_steps().items():
            value = self._treasures[cell]
            discount = 1.0
            treasure_part = 0.0
            penalty_part = 0.0
            for k in range(t):
                penalty_part += discount * STEP_PENALTY
                if k == t - 1:
                    treasure_part += discount * value
                discount *= gamma
            points.append((treasure_part, penalty_part))
        return ParetoArchive(points)
