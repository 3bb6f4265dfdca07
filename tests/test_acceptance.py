"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single `criterion N PASS/FAIL` line on the live
terminal (bypassing capture) and enforces the stated runtime budget.
"""

import time
from contextlib import contextmanager
from math import gcd

from curvespec.arrangement import ArrangementGraph, Branch, SingularPoint, derived
from curvespec.cli import main as run_cli
from curvespec.formulas import (
    spectrum_binary_linear,
    spectrum_general,
    spectrum_hyperplane,
    spectrum_irreducible_power,
    spectrum_isolated,
    spectrum_reduced,
    spectrum_smooth_components,
)
from curvespec.lines import incidence_graph
from curvespec.randomgraphs import (
    GraphBounds,
    SplitMix64,
    generate_graph,
    insert_smooth_point,
    insert_snc_node,
)
from curvespec.riemann_roch import (
    chern_cotangent_log,
    chern_cotangent_log_closed,
    euler_characteristic,
    spectrum_via_riemann_roch,
    todd,
    todd_closed,
    twist_class,
)
from curvespec.spectrum import Spectrum, parse_spectrum

from conftest import (
    crossing_powers_closed_form,
    graph,
    line_and_nodal_cubic,
    nodal_cubic,
    two_line_powers,
)


@contextmanager
def criterion(capsys, number, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    ok = budget is None or elapsed < budget
    with capsys.disabled():
        print(f"criterion {number} {'PASS' if ok else 'FAIL'}  {title}  ({elapsed:.2f}s)")
    assert ok, f"runtime budget of {budget}s exceeded: {elapsed:.2f}s"


def unimodular_change(rng):
    """Random unimodular matrix from six elementary shears; acting on
    coefficient triples is a projective change of coordinates."""
    matrix = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(6):
        i = rng.below(3)
        j = rng.below(2)
        if j >= i:
            j += 1
        c = rng.below(7) - 3
        for k in range(3):
            matrix[j][k] += c * matrix[i][k]

    def act(t):
        return tuple(sum(t[r] * matrix[r][k] for r in range(3)) for k in range(3))

    return act


def test_criterion_1_worked_fixtures(capsys):
    with criterion(capsys, 1, "worked fixtures reproduce exactly", budget=1.0):
        assert spectrum_general(nodal_cubic()) == parse_spectrum(
            "t + 2*t^(4/3) + 2*t^(5/3)"
        )
        assert spectrum_reduced(line_and_nodal_cubic()) == parse_spectrum(
            "2*t + 2*t^(5/4) + 2*t^(3/2) + 2*t^(7/4) - t^2"
        )
        assert spectrum_general(two_line_powers(1, 1)) == parse_spectrum("-t^2")
        for m1, m2 in ((2, 2), (2, 4), (3, 6)):
            assert spectrum_general(
                two_line_powers(m1, m2)
            ) == crossing_powers_closed_form(gcd(m1, m2))


def test_criterion_2_formulas_vs_characteristic_classes(capsys):
    with criterion(capsys, 2, "check --count 200 --seed 1 cross-validates", budget=10.0):
        assert run_cli(["check", "--count", "200", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "200/200 ok\n"
        assert captured.err == ""


def test_criterion_3_specializations_agree(capsys):
    with criterion(capsys, 3, "specialized formulas match the general one", budget=10.0):
        rng = SplitMix64(3)
        for _ in range(100):
            g = generate_graph(rng, GraphBounds(max_mult=1))
            assert spectrum_reduced(g) == spectrum_general(g)
        for _ in range(100):
            g = generate_graph(rng)
            simple = ArrangementGraph(
                g.components,
                tuple(
                    SingularPoint(
                        p.id, tuple(Branch(b.component, 1) for b in p.branches)
                    )
                    for p in g.points
                ),
            )
            assert spectrum_smooth_components(simple) == spectrum_general(simple)
        for _ in range(100):
            g = generate_graph(rng, GraphBounds(max_degree=1))
            assert spectrum_hyperplane(g) == spectrum_general(g)
        for _ in range(100):
            g = generate_graph(rng, GraphBounds(max_components=1))
            comp = g.components[0]
            mults = [p.branches[0].mult for p in g.points if p.branches[0].mult >= 2]
            assert spectrum_irreducible_power(
                comp.degree, comp.multiplicity, mults
            ) == spectrum_general(g)


def test_criterion_4_isolated_closed_form(capsys):
    with criterion(capsys, 4, "pointless single curves match the isolated form", budget=1.0):
        for d in range(1, 13):
            sp = spectrum_general(graph([(d, 1)]))
            assert sp == spectrum_isolated(d, 3)
            assert sp.eval_at_one() == (d - 1) ** 3


def test_criterion_5_insertion_invariance(capsys):
    with criterion(capsys, 5, "extra simple nodes and smooth points are neutral", budget=5.0):
        rng = SplitMix64(5)
        for _ in range(100):
            g = generate_graph(rng)
            base = spectrum_general(g)
            if len(g.components) >= 2:
                assert spectrum_general(insert_snc_node(g, rng)) == base
            assert spectrum_general(insert_smooth_point(g, rng)) == base


def test_criterion_6_two_route_characteristic_classes(capsys):
    with criterion(capsys, 6, "product and closed characteristic classes agree"):
        rng = SplitMix64(6)
        for index in range(100):
            g = generate_graph(rng)
            assert chern_cotangent_log(g) == chern_cotangent_log_closed(g)
            assert todd(g) == todd_closed(g)
            # Criteria 2-5 run the spectrum route, whose per-type pairing
            # asserts the integrality of every Euler characteristic it forms;
            # the per-point euler_characteristic asserts its own, so sweep it
            # directly on a subsample.
            if index < 10:
                d = derived(g).total_degree
                for j in range(1, d + 1):
                    u = twist_class(g, j)
                    for p in range(3):
                        assert isinstance(euler_characteristic(g, p, u), int)


def test_criterion_7_binary_forms(capsys):
    with criterion(capsys, 7, "binary linear forms match the two-variable isolated form"):
        for d in range(2, 11):
            assert spectrum_binary_linear([1] * d) == spectrum_isolated(d, 2)
        # A dummy variable multiplies the spectrum by -t.
        shifted = Spectrum.term(1, -1) * spectrum_binary_linear([1, 1])
        assert shifted == parse_spectrum("-t^2")
        assert shifted == spectrum_general(two_line_powers(1, 1))


def test_criterion_8_line_geometry(capsys):
    with criterion(capsys, 8, "explicit line arrangements and coordinate changes", budget=2.0):
        triangle = [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]
        pencil = [((1, 0, 0), 1), ((0, 1, 0), 1), ((1, -1, 0), 1)]
        expected_triangle = parse_spectrum("t - 2*t^2")
        expected_pencil = parse_spectrum("-t^(5/3) - 2*t^2 - t^(7/3)")

        g = incidence_graph(triangle)
        assert len(g.points) == 3
        assert all(len(p.branches) == 2 for p in g.points)
        assert spectrum_hyperplane(g) == expected_triangle
        assert spectrum_via_riemann_roch(g) == expected_triangle

        gp = incidence_graph(pencil)
        assert len(gp.points) == 1
        assert len(gp.points[0].branches) == 3
        assert spectrum_hyperplane(gp) == expected_pencil
        assert spectrum_via_riemann_roch(gp) == expected_pencil

        rng = SplitMix64(8)
        for _ in range(20):
            act = unimodular_change(rng)
            moved_triangle = incidence_graph([(act(t), m) for t, m in triangle])
            moved_pencil = incidence_graph([(act(t), m) for t, m in pencil])
            assert len(moved_triangle.points) == 3
            assert len(moved_pencil.points) == 1
            assert spectrum_hyperplane(moved_triangle) == expected_triangle
            assert spectrum_hyperplane(moved_pencil) == expected_pencil
