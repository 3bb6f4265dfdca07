"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

from curvespec.arrangement import ArrangementGraph, Branch, Component, PointTypeSummary, SingularPoint
from curvespec.randomgraphs import GraphBounds
from curvespec.spectrum import Spectrum

settings.register_profile("curvespec", deadline=None)
settings.load_profile("curvespec")

# The generator bounds of the CLI's seeded `check` runs: default bounds
# (acceptance criterion 2) and the wide, many-point and reduced CI runs.
CHECK_BOUNDS = {
    "default": GraphBounds(),
    "wide": GraphBounds(max_components=8, max_points=24, max_degree=6, max_mult=5),
    "many_point": GraphBounds(max_components=8, max_points=200, max_degree=6, max_mult=5),
    "reduced": GraphBounds(max_mult=1, max_points=60),
}


# Values put in place of numbers of a small input: ints, bools, floats
# (NaN and infinities included), and strings in and near the grammar of
# exact rationals.
MUTANT_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([10**6, -(10**30)]),
    st.booleans(),
    st.floats(),
    st.text(alphabet="0123456789+-/ ._e\u00a0\u0663", max_size=8),
    st.sampled_from(["1/2", "-3/4", " 6/4 ", "+5", "0", "1/0", "7" * 5000]),
)
SMALL_ARRANGEMENT = {
    "components": [{"id": "c", "degree": 3}, {"id": "l", "degree": 1, "multiplicity": 2}],
    "points": [
        {"id": "v", "branches": [{"component": "c", "mult": 2}]},
        {"id": "w", "branches": [{"component": "c", "mult": 1}, {"component": "l", "mult": 1}]},
    ],
}
# Where the numbers of SMALL_ARRANGEMENT sit, as key paths.
ARRANGEMENT_NUMBERS = [
    ("components", 0, "degree"),
    ("components", 1, "degree"),
    ("components", 1, "multiplicity"),
    ("points", 0, "branches", 0, "mult"),
    ("points", 1, "branches", 0, "mult"),
    ("points", 1, "branches", 1, "mult"),
]


def mutated(doc, places, replacements: dict):
    """A copy of the JSON document ``doc`` with the value at key path
    ``places[index]`` replaced by ``value`` for each index and value of
    ``replacements``."""
    doc = json.loads(json.dumps(doc))
    for index, value in replacements.items():
        *path, last = places[index]
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
    return doc


def manifest_generator():
    """tests/data/make_cli_manifest.py, loaded as a module."""
    path = Path(__file__).resolve().parent / "data" / "make_cli_manifest.py"
    spec = importlib.util.spec_from_file_location("make_cli_manifest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graph(comps, pts=()):
    """Compact graph builder: comps is [(degree, mult)], pts is
    [[(component index, branch mult)]]."""
    return ArrangementGraph(
        tuple(Component(f"l{i + 1}", d, m) for i, (d, m) in enumerate(comps)),
        tuple(
            SingularPoint(f"v{k + 1}", tuple(Branch(f"l{c + 1}", mu) for c, mu in brs))
            for k, brs in enumerate(pts)
        ),
    )


def nodal_cubic():
    """Irreducible cubic with one ordinary double point."""
    return graph([(3, 1)], [[(0, 2)]])


def line_and_nodal_cubic():
    """Nodal cubic plus a line through the node and one transverse crossing."""
    return graph([(1, 1), (3, 1)], [[(0, 1), (1, 2)], [(0, 1), (1, 1)]])


def two_line_powers(m1: int, m2: int):
    """Two distinct lines with multiplicities m1, m2, crossing once."""
    return graph([(1, m1), (1, m2)], [[(0, 1), (1, 1)]])


def triangle_graph():
    """Three lines in general position: three simple nodes."""
    return graph([(1, 1)] * 3, [[(0, 1), (1, 1)], [(0, 1), (2, 1)], [(1, 1), (2, 1)]])


def pencil_graph():
    """Three concurrent lines: one ordinary triple point."""
    return graph([(1, 1)] * 3, [[(0, 1), (1, 1), (2, 1)]])


def random_line_forms(seed: int, max_lines: int = 40):
    """A seeded weighted line set: random small forms, pencils and
    concurrent triples through random points, and proportional copies, with
    multiplicities 1-3."""
    rng = random.Random(seed)
    n = rng.randint(1, max_lines)

    def nonzero(draw):
        raw = (0, 0, 0)
        while raw == (0, 0, 0):
            raw = draw()
        return raw

    raws: list = []
    while len(raws) < n:
        kind = rng.random()
        if raws and kind < 0.15:
            # A proportional copy of an earlier line.
            scale = rng.choice((-3, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
            raws.append(tuple(scale * x for x in rng.choice(raws)))
        elif kind < 0.45:
            # Two to five lines through one point: a pencil or a triple.
            p = nonzero(lambda: tuple(rng.randint(-3, 3) for _ in range(3)))
            for _ in range(rng.choice((3, 3, 2, 4, 5))):
                v = tuple(rng.randint(-3, 3) for _ in range(3))
                cross = (p[1] * v[2] - p[2] * v[1], p[2] * v[0] - p[0] * v[2], p[0] * v[1] - p[1] * v[0])
                if any(cross):
                    raws.append(cross)
        else:
            raws.append(nonzero(lambda: tuple(rng.randint(-4, 4) for _ in range(3))))
    return [(raw, rng.randint(1, 3)) for raw in raws[:n]]


@st.composite
def arrangement_graphs(
    draw,
    max_components: int = 4,
    max_points: int = 5,
    max_degree: int = 4,
    max_mult: int = 3,
    reduced: bool = False,
    simple_branches: bool = False,
    lines_only: bool = False,
):
    """Valid-by-construction arrangement graphs."""
    n = draw(st.integers(1, max_components))
    comps = []
    for i in range(n):
        degree = 1 if lines_only else draw(st.integers(1, max_degree))
        mult = 1 if reduced else draw(st.integers(1, max_mult))
        comps.append(Component(f"l{i + 1}", degree, mult))
    n_points = draw(st.integers(0, max_points))
    points = []
    for k in range(n_points):
        idxs = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        branches = []
        for idx in sorted(idxs):
            top = 1 if (simple_branches or lines_only) else comps[idx].degree
            branches.append(Branch(comps[idx].id, draw(st.integers(1, top))))
        points.append(SingularPoint(f"v{k + 1}", tuple(branches)))
    return ArrangementGraph(tuple(comps), tuple(points))


# Summaries of types whose branches all sit on one component multiplicity
# m, where m_v = m*m_red and every step of m is a step of m_v, so the two
# step lists meet at every step of m: every type is sorted, no branch
# multiplicity exceeds the degree it draws on, and so m_v <= d.
ONE_MULTIPLICITY_SUMMARIES = {
    "smooth-points-m_red=1": PointTypeSummary({1: 2, 3: 2}, 2, {((1, 1),): 3, ((3, 1),): 2}),
    "nodes-on-equal-multiplicities": PointTypeSummary(
        {2: 3, 4: 2}, 4, {((2, 1), (2, 1)): 3, ((4, 2),): 1, ((2, 2),): 2}
    ),
    "w>=3": PointTypeSummary({1: 6, 2: 3}, 9, {((1, 1), (1, 1), (1, 1)): 1, ((1, 2), (1, 3)): 1, ((2, 1), (2, 2)): 1}),
    "m_v=d": PointTypeSummary({3: 4}, 6, {((3, 1), (3, 1), (3, 2)): 1}),
    "count>1": PointTypeSummary({2: 5, 5: 2}, 10, {((2, 1), (2, 1), (2, 1)): 6, ((5, 1), (5, 1)): 4, ((2, 4),): 9}),
    "one-multiplicity-and-mixed": PointTypeSummary(
        {1: 3, 2: 4, 3: 2},
        7,
        {((1, 1), (1, 1), (1, 1)): 2, ((1, 1), (2, 1), (3, 1)): 3, ((2, 3),): 1, ((1, 2), (3, 1)): 2, ((3, 2),): 1},
    ),
}


# Types on two or more component multiplicities whose m_v equals a
# component multiplicity: m_v = 4 and 3 beside components of multiplicity
# 4 and 3, so the steps of m_v are those of a component multiplicity.
M_V_AT_COMPONENT_MULTIPLICITY = PointTypeSummary(
    {1: 3, 2: 2, 3: 1, 4: 1}, 3, {((1, 1), (1, 1), (2, 1)): 2, ((1, 1), (2, 1)): 1}
)


@st.composite
def one_multiplicity_summaries(draw):
    """Point-type summaries made only of types on one component
    multiplicity m, with branch multiplicities adding up to at most the
    degree of multiplicity m, so m_v <= d."""
    degree_by_mult = draw(st.dictionaries(st.integers(1, 12), st.integers(1, 8), min_size=1, max_size=4))
    histogram: dict[tuple, int] = {}
    for _ in range(draw(st.integers(0, 6))):
        m = draw(st.sampled_from(sorted(degree_by_mult)))
        budget = degree_by_mult[m]
        branches = []
        for mu in draw(st.lists(st.integers(1, budget), min_size=1, max_size=4)):
            if mu > budget:
                break
            branches.append((m, mu))
            budget -= mu
        key = tuple(sorted(branches))
        histogram[key] = histogram.get(key, 0) + draw(st.integers(1, 5))
    return PointTypeSummary(degree_by_mult, draw(st.integers(0, 40)), histogram)


def crossing_powers_closed_form(g: int) -> Spectrum:
    """Expected spectrum of x^m1*y^m2 with gcd(m1, m2) = g: the exact
    expansion of -t^(1+1/g)*(1-t)^2/(1-t^(1/g)) - t^3, computed via
    (1-t) = (1-t^(1/g)) * (1 + t^(1/g) + ... + t^((g-1)/g))."""
    partial_geometric = Spectrum({Fraction(i, g): 1 for i in range(g)})
    one_minus_t = Spectrum.term(0) - Spectrum.term(1)
    return Spectrum.term(Fraction(g + 1, g), -1) * one_minus_t * partial_geometric - Spectrum.term(3)


@st.composite
def spectra(draw, max_terms: int = 6):
    """Arbitrary fractional Laurent polynomials with small support."""
    n = draw(st.integers(0, max_terms))
    terms: dict[Fraction, int] = {}
    for _ in range(n):
        alpha = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 8)))
        terms[alpha] = terms.get(alpha, 0) + draw(st.integers(-5, 5))
    return Spectrum(terms)
