"""Objective-space primitives for multi-objective benchmarking.

Pareto dominance, non-dominated filtering, and the four front-quality
indicators: hypervolume, sparsity, cardinality, and inverted generational
distance (IGD).

Maximisation convention throughout: a larger value is better in every
objective, so fronts over mixed-sign objectives (treasure value vs. negative
step penalty) need no sign flipping. Comparisons and deduplication use exact
float equality; tabular returns are reproducible bit-for-bit under fixed
seeds, so no epsilon is applied.

All functions are pure over immutable values; archives are cheap value
objects that can be shared between threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Point = tuple[float, ...]

__all__ = [
    "Point",
    "ParetoArchive",
    "dominates",
    "nondominated_points",
    "hypervolume",
    "hypervolume_inclusion_exclusion",
    "sparsity",
    "cardinality",
    "igd",
    "parse_points",
    "format_points",
    "load_points",
    "save_points",
]


def _as_point(values: Sequence[float]) -> Point:
    point = tuple(float(v) for v in values)
    if not point:
        raise ValueError("a point needs at least one objective")
    for v in point:
        if not math.isfinite(v):
            raise ValueError(f"non-finite objective value in {point}")
    return point


class ParetoArchive:
    """A finite, deduplicated set of points in objective space.

    Archives built from :func:`nondominated_points` (and everything the
    learners produce) are mutually non-dominated. Reference fronts loaded
    from files keep their points verbatim; the indicator functions are well
    defined either way, and dominated members simply contribute no
    hypervolume.

    Points are stored sorted lexicographically, so iteration order,
    equality and serialisation are deterministic.
    """

    __slots__ = ("points", "dimension")

    def __init__(self, points: Iterable[Sequence[float]] = (), dimension: int | None = None):
        unique = sorted({_as_point(p) for p in points})
        if unique:
            dims = {len(p) for p in unique}
            if len(dims) != 1:
                raise ValueError(f"mixed point dimensions: {sorted(dims)}")
            inferred = dims.pop()
            if dimension is not None and dimension != inferred:
                raise ValueError(f"archive dimension {dimension} != point dimension {inferred}")
            dimension = inferred
        self.points: tuple[Point, ...] = tuple(unique)
        self.dimension: int = dimension if dimension is not None else 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParetoArchive):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"ParetoArchive({list(self.points)!r})"


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` under maximisation.

    ``a`` dominates ``b`` when it is at least as good in every objective and
    strictly better in at least one.

    Raises:
        ValueError: on dimension mismatch.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x < y:
            return False
        if x > y:
            better = True
    return better


def _nd_2d(sorted_pts: list[Point]) -> list[Point]:
    # sorted_pts must be lexicographically sorted and deduplicated; sweeping
    # from the largest first coordinate keeps exactly the staircase.
    keep: list[Point] = []
    best_y = -math.inf
    for p in reversed(sorted_pts):
        if p[1] > best_y:
            keep.append(p)
            best_y = p[1]
    keep.reverse()
    return keep


def nondominated_points(points: Iterable[Point]) -> list[Point]:
    """Deduplicate and drop dominated points; returns a sorted list.

    Exactly the input points not dominated by any input point, independent
    of input order. Trusts its input to be finite tuples of equal dimension
    (the hot path inside Pareto Q-Learning); wrap untrusted points in a
    :class:`ParetoArchive` first, which validates them.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    if len(pts[0]) == 2:
        return _nd_2d(pts)
    return [p for p in pts if not any(dominates(q, p) for q in pts)]


def _clip(p: Point, ref: Point) -> Point:
    return tuple(x if x > r else r for x, r in zip(p, ref))


def _hv_2d(points: Iterable[Point], ref: Point) -> float:
    rx, ry = ref
    pts = sorted([(x if x > rx else rx, y if y > ry else ry) for x, y in points], reverse=True)
    hv = 0.0
    y_cover = ry
    for x, y in pts:
        if y > y_cover:
            hv += (x - rx) * (y - y_cover)
            y_cover = y
    return hv


def _hv_3d(points: Sequence[Point], ref: Point) -> float:
    # Exact slab decomposition: sweep the third objective downwards and
    # integrate the 2-D hypervolume of the accumulated projections.
    pts = sorted((_clip(p, ref) for p in points), key=lambda p: -p[2])
    hv = 0.0
    seen: list[Point] = []
    for i, p in enumerate(pts):
        seen.append((p[0], p[1]))
        z_low = pts[i + 1][2] if i + 1 < len(pts) else ref[2]
        height = p[2] - z_low
        if height > 0.0:
            hv += _hv_2d(seen, (ref[0], ref[1])) * height
    return hv


def hypervolume(points: Sequence[Point], ref: Point) -> float:
    """Lebesgue measure of the space dominated by ``points`` above ``ref``.

    Exact and deterministic: the measure of the union of boxes [ref, p] over
    the points, given as an archive or a plain list. Points falling below
    the reference on some coordinate are clipped to it and contribute zero
    volume, which keeps mid-training metrics defined when early policies
    are poor.

    Supports 2 and 3 objectives; ``ref`` decides which. An empty set has
    hypervolume 0. Set-based action scoring calls this once per action per
    step, so ``ref`` is trusted to be finite and of the points' dimension:
    callers validate it where it enters the program.
    """
    if not points:
        return 0.0
    if len(ref) == 2:
        return _hv_2d(points, ref)
    if len(ref) == 3:
        return _hv_3d(points, ref)
    raise ValueError("hypervolume supports 2 or 3 objectives")


def hypervolume_inclusion_exclusion(front: ParetoArchive, ref: Sequence[float]) -> float:
    """Reference hypervolume by inclusion-exclusion over box intersections.

    Exponential in front size; intended for verifying :func:`hypervolume`
    on small fronts, not for production metric pipelines.
    """
    ref_pt = _as_point(ref)
    if front.points and front.dimension != len(ref_pt):
        raise ValueError(f"reference dimension {len(ref_pt)} != front dimension {front.dimension}")
    pts = [_clip(p, ref_pt) for p in front.points]
    total = 0.0

    def expand(start: int, corner: Point, size: int) -> None:
        nonlocal total
        for i in range(start, len(pts)):
            new_corner = tuple(min(a, b) for a, b in zip(corner, pts[i]))
            volume = 1.0
            for x, r in zip(new_corner, ref_pt):
                volume *= x - r
            total += volume if size % 2 == 0 else -volume
            expand(i + 1, new_corner, size + 1)

    if pts:
        expand(0, (math.inf,) * len(ref_pt), 0)
    return total


def sparsity(front: ParetoArchive) -> float:
    """Mean squared gap between adjacent front values, per objective.

    For each objective the point values are sorted and the squared gaps
    between neighbours summed; the grand total is divided by ``|P| - 1``.
    Lower is denser coverage. Fronts of size <= 1 have sparsity 0.
    """
    pts = front.points
    if len(pts) <= 1:
        return 0.0
    total = 0.0
    for j in range(front.dimension):
        vals = sorted(p[j] for p in pts)
        total += sum((vals[i + 1] - vals[i]) ** 2 for i in range(len(vals) - 1))
    return total / (len(pts) - 1)


def cardinality(front: ParetoArchive) -> int:
    """Number of solutions held by the archive.

    Archives built through non-dominated filtering contain exactly the
    non-dominated solutions, so this is the count of optimal solutions
    found.
    """
    return len(front.points)


def igd(approx: ParetoArchive, truth: ParetoArchive) -> float:
    """Inverted generational distance from ``truth`` to ``approx``.

    Mean over true-front points of the Euclidean distance to the nearest
    approximation point (unnormalised objectives). Returns ``inf`` when the
    approximation is empty; raises when the truth front is.
    """
    if not truth.points:
        raise ValueError("truth front must be non-empty")
    if not approx.points:
        return math.inf
    if approx.dimension != truth.dimension:
        raise ValueError(f"dimension mismatch: {approx.dimension} vs {truth.dimension}")
    total = 0.0
    for z in truth.points:
        total += min(math.dist(z, a) for a in approx.points)
    return total / len(truth.points)


def parse_points(text: str) -> ParetoArchive:
    """Parse the point-set text format: one comma-separated point per line.

    Blank lines are skipped and ``#`` starts a comment. Raises ValueError
    mentioning the offending line number on malformed input.
    """
    points: list[Point] = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            point = _as_point(tok.strip() for tok in line.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if dim is None:
            dim = len(point)
        elif len(point) != dim:
            raise ValueError(f"line {lineno}: expected {dim} values, got {len(point)}")
        points.append(point)
    return ParetoArchive(points)


def format_points(front: ParetoArchive) -> str:
    """Serialise an archive in the point-set text format.

    Uses ``repr`` for each coordinate so parsing the output reproduces the
    archive exactly.
    """
    return "".join(",".join(repr(v) for v in p) + "\n" for p in front.points)


def load_points(path) -> ParetoArchive:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read())


def save_points(path, front: ParetoArchive) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_points(front))
