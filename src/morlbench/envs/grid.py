"""Grid maps and the movement rule shared by the gridworld environments.

Map format: a header line ``rows cols``, then one grid row per line using
``.`` free cell, ``#`` wall/seabed, ``S`` start, ``G`` goal, and
digit/letter symbols whose meaning (treasure value or item shape) is given
in a trailing ``[legend]`` section of ``symbol = value`` lines.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

RESERVED = {".", "#", "S", "G"}


@dataclass(frozen=True)
class GridMap:
    rows: int
    cols: int
    grid: tuple[str, ...]
    legend: dict[str, float]
    start: tuple[int, int]
    goal: tuple[int, int] | None
    symbol_cells: tuple[tuple[int, int, str], ...]

    def cell(self, r: int, c: int) -> int:
        """Dense cell number ``r * cols + c``."""
        return r * self.cols + c


def parse_map(text: str) -> GridMap:
    lines = text.splitlines()
    body = [ln for ln in lines if ln.strip() and not ln.strip().startswith("//")]
    if not body:
        raise ValueError("empty map file")
    header = body[0].split()
    if len(header) != 2:
        raise ValueError(f"map header must be 'rows cols', got {body[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"map header must be 'rows cols', got {body[0]!r}") from None
    if rows <= 0 or cols <= 0 or len(body) < 1 + rows:
        raise ValueError("map body shorter than declared size")

    grid = tuple(body[1 : 1 + rows])
    for i, row in enumerate(grid):
        if len(row) != cols:
            raise ValueError(f"grid row {i} has length {len(row)}, expected {cols}")

    legend: dict[str, float] = {}
    rest = body[1 + rows :]
    if rest:
        if rest[0].strip() != "[legend]":
            raise ValueError(f"expected '[legend]' section, got {rest[0]!r}")
        for ln in rest[1:]:
            if "=" not in ln:
                raise ValueError(f"bad legend line {ln!r}")
            sym, _, value = ln.partition("=")
            sym = sym.strip()
            if len(sym) != 1 or sym in RESERVED:
                raise ValueError(f"bad legend symbol {sym!r}")
            legend[sym] = float(value.strip())

    start = goal = None
    symbol_cells = []
    for r, row in enumerate(grid):
        for c, ch in enumerate(row):
            if ch == "S":
                if start is not None:
                    raise ValueError("multiple start cells")
                start = (r, c)
            elif ch == "G":
                if goal is not None:
                    raise ValueError("multiple goal cells")
                goal = (r, c)
            elif ch not in RESERVED:
                if ch not in legend:
                    raise ValueError(f"symbol {ch!r} at ({r},{c}) missing from legend")
                symbol_cells.append((r, c, ch))
    if start is None:
        raise ValueError("map has no start cell 'S'")

    return GridMap(rows, cols, grid, legend, start, goal, tuple(symbol_cells))


def load_bundled_map(name: str) -> GridMap:
    text = resources.files("morlbench.envs").joinpath(f"data/{name}.map").read_text("utf-8")
    return parse_map(text)


class StepOutcome(NamedTuple):
    next_state: int
    reward: tuple[float, ...]
    terminated: bool
    truncated: bool


class GridWorld:
    """An agent moving on a ``GridMap``: the mechanics both gridworlds share.

    The agent stands on one cell, numbered as in ``GridMap.cell``. Actions
    0, 1, 2 and 3 move it one cell up, down, left and right; a move off the
    map or into a wall leaves it in place and still counts as a step. An
    episode is truncated after ``max_episode_steps`` steps unless it
    terminated. Subclasses set ``name``, ``num_objectives``,
    ``state_count`` and ``start_state`` and implement
    ``_enter(cell) -> (state, reward, terminated)``: what arriving on a
    cell yields.
    """

    action_count = 4

    def __init__(self, grid: GridMap, max_episode_steps: int):
        self.grid = grid
        self.max_episode_steps = max_episode_steps
        # _targets[cell][action]: the cell the move ends on, built once so
        # that a step is one lookup.
        rows, cols, lines = grid.rows, grid.cols, grid.grid
        self._targets: list[tuple[int, int, int, int]] = []
        for r, line in enumerate(lines):
            for c in range(cols):
                here = r * cols + c
                self._targets.append((
                    here - cols if r > 0 and lines[r - 1][c] != "#" else here,
                    here + cols if r + 1 < rows and lines[r + 1][c] != "#" else here,
                    here - 1 if c > 0 and line[c - 1] != "#" else here,
                    here + 1 if c + 1 < cols and line[c + 1] != "#" else here,
                ))
        self.start_cell = grid.cell(*grid.start)
        self._cell = self.start_cell
        self._steps = 0

    def fork(self):
        """A copy of this environment at its start state. It shares only
        the map and the tables built from it, which nothing mutates."""
        twin = copy.copy(self)
        twin.reset()
        return twin

    def reset(self) -> int:
        self._cell = self.start_cell
        self._steps = 0
        return self.start_state

    def step(self, action: int) -> StepOutcome:
        if not 0 <= action < self.action_count:
            raise ValueError(f"invalid action {action!r}")
        self._cell = cell = self._targets[self._cell][action]
        self._steps += 1
        state, reward, terminated = self._enter(cell)
        truncated = not terminated and self._steps >= self.max_episode_steps
        return StepOutcome(state, reward, terminated, truncated)
