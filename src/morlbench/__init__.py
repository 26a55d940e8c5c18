"""Tabular multi-objective RL benchmark harness.

Environments (Deep Sea Treasure Concave, Four-Room), agents (MO Q-Learning
with linear or Chebyshev scalarisation, Pareto Q-Learning), Pareto-front
quality indicators, and a seeded, reproducible sweep runner with a CLI.
"""

__version__ = "0.1.0"

from .pareto import (
    ParetoArchive,
    cardinality,
    dominates,
    hypervolume,
    igd,
    nondominated_points,
    sparsity,
)

__all__ = [
    "__version__",
    "ParetoArchive",
    "dominates",
    "nondominated_points",
    "hypervolume",
    "sparsity",
    "cardinality",
    "igd",
]
