"""Benchmark environments: deterministic discrete-space MOMDPs."""

from __future__ import annotations

from .dst import DeepSeaTreasure
from .four_room import FourRoom
from .grid import GridMap, StepOutcome, load_bundled_map, parse_map

ENV_IDS = ("dst-concave", "four-room")

# Hypervolume anchors used throughout the benchmark, per environment.
REFERENCE_POINTS: dict[str, tuple[float, ...]] = {
    "dst-concave": (0.0, -50.0),
    "four-room": (-1.0, -1.0, -1.0),
}

# Published per-environment training settings; a SweepConfig fills in any
# of them left unset.
ENV_PRESETS: dict[str, dict] = {
    "dst-concave": {"total_timesteps": 400_000, "gamma": 0.9, "tau": 4.0},
    "four-room": {"total_timesteps": 800_000, "gamma": 0.99, "tau": 6.0},
}


def make_env(env_id: str, max_episode_steps: int = 1000):
    if env_id == "dst-concave":
        return DeepSeaTreasure(max_episode_steps=max_episode_steps)
    if env_id == "four-room":
        return FourRoom(max_episode_steps=max_episode_steps)
    raise ValueError(f"unknown environment {env_id!r} (known: {', '.join(ENV_IDS)})")


__all__ = [
    "StepOutcome",
    "DeepSeaTreasure",
    "FourRoom",
    "GridMap",
    "parse_map",
    "load_bundled_map",
    "make_env",
    "ENV_IDS",
    "REFERENCE_POINTS",
    "ENV_PRESETS",
]
