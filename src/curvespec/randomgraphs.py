"""Seeded pseudo-random arrangement graphs for cross-validation runs.

The generator algorithm is part of the tool's interface: reimplementations
in other languages must be able to replay a seed and obtain the identical
graph sequence.  Randomness comes from SplitMix64 (Steele, Lea, Flood 2014),
chosen because it is a published, widely ported 64-bit generator that takes
ten lines to reimplement exactly.  Bounded draws use plain modulo
(``next_u64() % n``); the slight bias is irrelevant here and keeps the
contract trivial.

Draw order for one graph (each ``below(n)`` is one generator call):

1. component count      = 1 + below(max_components)
2. per component, in order: degree = 1 + below(max_degree),
   then multiplicity = 1 + below(max_mult)
3. point count          = 1 + below(max_points)   (0 when max_points = 0)
4. the first point is forced away from a simple node: if any component has
   degree >= 2, pick one (below over those candidates in component order)
   and give it a single branch of multiplicity 2 + below(degree - 1);
   otherwise, with >= 3 components, use a triple point (first three
   components, multiplicity 1 each, no draws); otherwise fall back to the
   generic recipe of step 5.
5. every other point: branch count = 1 + below(component count), then that
   many distinct components chosen by repeatedly drawing below(remaining)
   and removing the chosen index from the in-order candidate list; each
   branch multiplicity = 1 + below(component degree).

Components are named l1, l2, ...; points v1, v2, ....

The two insertions add one point to a graph through
:meth:`~curvespec.arrangement.ArrangementGraph.with_point`: when the graph
has been validated, the new graph's report is its report extended by the
checks on the new point, so it is not validated again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import MAX_TOTAL_DEGREE, ArrangementGraph, Branch, Component, SingularPoint, _require

__all__ = [
    "MAX_GRAPH_SIZE",
    "GraphBounds",
    "SplitMix64",
    "generate_graph",
    "insert_smooth_point",
    "insert_snc_node",
]

_MASK = (1 << 64) - 1

# Largest accepted max_components and max_points.  The generator draws up to
# that many components and points (each point with up to max_components
# branches) before anything else looks at the graph, so without a cap one
# bad bound means an unbounded run.
MAX_GRAPH_SIZE = 1_000


class SplitMix64:
    """SplitMix64 pseudo-random generator over 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = _require(seed, int, "seed", error=TypeError) & _MASK

    def next_u64(self) -> int:
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        # z < 2^64, and so is z ^ (z >> 31).
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) via modulo reduction."""
        if n < 1:
            raise ValueError(f"below needs n >= 1, got {n}")
        return self.next_u64() % n


@dataclass(frozen=True)
class GraphBounds:
    """Size limits for generated graphs; the defaults keep every spectrum
    computation well under a millisecond while still reaching all formula
    branches (non-reduced components, multi-branch points, top-index terms)."""

    max_components: int = 5
    max_points: int = 8
    max_degree: int = 4
    max_mult: int = 4

    def __post_init__(self):
        lows = (("max_components", 1), ("max_points", 0), ("max_degree", 1), ("max_mult", 1))
        for name, _ in lows:
            _require(getattr(self, name), int, name, error=TypeError)
        for name, low in lows:
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("max_components", "max_points"):
            if getattr(self, name) > MAX_GRAPH_SIZE:
                raise ValueError(f"{name} exceeds the limit {MAX_GRAPH_SIZE}")
        # The largest total degree a draw can reach; above the limit, whether
        # a run fails would depend on the seed.
        if self.max_components * self.max_degree * self.max_mult > MAX_TOTAL_DEGREE:
            raise ValueError(
                f"max_components * max_degree * max_mult exceeds the total degree limit {MAX_TOTAL_DEGREE}"
            )


def _generic_point(rng: SplitMix64, components: list[Component]) -> tuple[Branch, ...]:
    count = 1 + rng.below(len(components))
    pool = list(range(len(components)))
    chosen = []
    for _ in range(count):
        chosen.append(pool.pop(rng.below(len(pool))))
    branches = []
    for idx in sorted(chosen):
        comp = components[idx]
        branches.append(Branch(component=comp.id, mult=1 + rng.below(comp.degree)))
    return tuple(branches)


def _forced_point(rng: SplitMix64, components: list[Component]) -> tuple[Branch, ...]:
    candidates = [c for c in components if c.degree >= 2]
    if candidates:
        comp = candidates[rng.below(len(candidates))]
        return (Branch(component=comp.id, mult=2 + rng.below(comp.degree - 1)),)
    if len(components) >= 3:
        return tuple(Branch(component=c.id, mult=1) for c in components[:3])
    return _generic_point(rng, components)


def generate_graph(rng: SplitMix64, bounds: GraphBounds = GraphBounds()) -> ArrangementGraph:
    """Draw one valid arrangement graph following the documented draw order."""
    n_comp = 1 + rng.below(bounds.max_components)
    components = []
    for i in range(n_comp):
        degree = 1 + rng.below(bounds.max_degree)
        mult = 1 + rng.below(bounds.max_mult)
        components.append(Component(id=f"l{i + 1}", degree=degree, multiplicity=mult))

    n_points = 0 if bounds.max_points == 0 else 1 + rng.below(bounds.max_points)
    points = []
    for i in range(n_points):
        maker = _forced_point if i == 0 else _generic_point
        points.append(SingularPoint(id=f"v{i + 1}", branches=maker(rng, components)))
    return ArrangementGraph(tuple(components), tuple(points))


def _fresh_point_id(graph: ArrangementGraph) -> str:
    taken = {p.id for p in graph.points}
    i = 1
    while f"w{i}" in taken:
        i += 1
    return f"w{i}"


def insert_snc_node(graph: ArrangementGraph, rng: SplitMix64) -> ArrangementGraph:
    """Return the graph with one extra simple node: a new point on two
    distinct components with branch multiplicity 1 each.  A branch of
    multiplicity 1 always fits, so any pair of components qualifies.  Built
    by :meth:`ArrangementGraph.with_point`, so a validated graph hands its
    report on, extended by the checks on the new point."""
    if len(graph.components) < 2:
        raise ValueError("a simple node needs at least two components")
    pool = list(range(len(graph.components)))
    first = pool.pop(rng.below(len(pool)))
    second = pool.pop(rng.below(len(pool)))
    branches = tuple(
        Branch(component=graph.components[idx].id, mult=1) for idx in sorted((first, second))
    )
    point = SingularPoint(id=_fresh_point_id(graph), branches=branches)
    return graph.with_point(point)


def insert_smooth_point(graph: ArrangementGraph, rng: SplitMix64) -> ArrangementGraph:
    """Return the graph with one extra smooth point: a single branch of
    multiplicity 1 on a randomly chosen component, added like
    :func:`insert_snc_node`'s node."""
    comp = graph.components[rng.below(len(graph.components))]
    point = SingularPoint(id=_fresh_point_id(graph), branches=(Branch(component=comp.id, mult=1),))
    return graph.with_point(point)
