import fractions
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvespec.riemann_roch
from curvespec.arrangement import ArrangementGraph, derived, validate
from curvespec.binomial import binom, ceil_div
from curvespec.cohomology import ONE, CohClass, exceptional_class, hyperplane_e0, point_e
from curvespec.formulas import spectrum_general, spectrum_of_point_types
from curvespec.lines import incidence_graph, line_incidence
from curvespec.randomgraphs import GraphBounds, SplitMix64, generate_graph
from curvespec.riemann_roch import (
    _euler_characteristics,
    _integer,
    _log_chern,
    _spectrum_of_point_types,
    chern_cotangent_log,
    chern_cotangent_log_closed,
    chern_tangent,
    euler_characteristic,
    line_bundle_ch,
    spectrum_via_riemann_roch,
    todd,
    todd_closed,
    twist_class,
    wedge_ch,
)
from curvespec.spectrum import Spectrum

from conftest import (
    CHECK_BOUNDS,
    M_V_AT_COMPONENT_MULTIPLICITY,
    ONE_MULTIPLICITY_SUMMARIES,
    arrangement_graphs,
    graph,
    line_and_nodal_cubic,
    nodal_cubic,
    one_multiplicity_summaries,
    two_line_powers,
)

ZERO_DIVISOR = CohClass()


def sequential_chern_tangent(g):
    """Reference: the tangent product formula as a chain of ring products."""
    e0 = hyperplane_e0()
    total = (ONE - e0) * (ONE - e0) * (ONE - e0)
    for point in g.points:
        ev = point_e(point.id)
        ratio = (ONE - e0 - ev) * (ONE - e0).inverse()
        total = total * (ONE + ev) * ratio * ratio
    return total


def sequential_chern_cotangent_log(g):
    """Reference: the log cotangent class as a chain of ring products and
    truncated inverses."""
    c = sequential_chern_tangent(g)
    total = c.degree_part(0) - c.degree_part(1) + c.degree_part(2)
    for point in g.points:
        total = total * (ONE - point_e(point.id)).inverse()
    for comp in g.components:
        through = {p.id: br.mult for p in g.points for br in p.branches if br.component == comp.id}
        total = total * (ONE - exceptional_class(comp.degree, through)).inverse()
    return total


def chern_cotangent(g):
    """Total Chern class of the cotangent bundle: rank-2 duality negates the
    degree-1 part of the tangent class and keeps degree 2."""
    c = chern_tangent(g)
    return c.degree_part(0) - c.degree_part(1) + c.degree_part(2)


def seeded_graphs(count, bounds=GraphBounds()):
    rng = SplitMix64(4)
    return [generate_graph(rng, bounds) for _ in range(count)]


def repeated_type_graphs():
    """Graphs whose points fall into few types: a weighted line grid, and a
    doubled quartic meeting a line in three alike points, with four smooth
    points on the quartic."""
    grid = incidence_graph(
        [((1, 0, k), 1 + k % 2) for k in range(4)] + [((0, 1, k), 2) for k in range(3)] + [((0, 0, 1), 1)]
    )
    return [grid, graph([(4, 2), (1, 1)], [[(0, 2), (1, 1)]] * 3 + [[(0, 1)]] * 4)]


def general_position_lines(count):
    return incidence_graph([((1, t, t * t), 1) for t in range(count)])


def fermat_graph():
    """The Fermat arrangement A(3), (x^3 - y^3)(y^3 - z^3)(z^3 - x^3), as a
    graph: the lines x = w^a*y (components 0-2), y = w^b*z (3-5) and
    z = w^c*x (6-8), w a primitive cube root of unity.  Each family meets in
    a coordinate point, and x = w^a*y, y = w^b*z, z = w^c*x share a point
    exactly when a + b + c = 0 mod 3."""
    coordinate = [[(3 * f + a, 1) for a in range(3)] for f in range(3)]
    inner = [[(a, 1), (3 + b, 1), (6 + (-a - b) % 3, 1)] for a in range(3) for b in range(3)]
    return graph([(1, 1)] * 9, inner + coordinate)


def equal_mult_split_branches():
    """Three double lines through (0:0:1), and lines of multiplicities 1, 2
    and 3 through (1:1:1): both triple points have m_v = 6 and three simple
    branches, but their branch lists differ, and so do their twists.  (At a
    point with two simple branches the twist is 0 or 1 and the pairing
    cannot tell such points apart.)"""
    return incidence_graph(
        [((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 0), 2), ((1, 0, -1), 1), ((0, 1, -1), 2), ((1, -2, 1), 3)]
    )


GROUPING_GRAPHS = [general_position_lines(12), fermat_graph(), equal_mult_split_branches()]

# Non-reduced graphs with component multiplicities up to 5: larger total
# degrees, so the twists' floor divisions take more distinct values.
HIGH_MULT_GRAPHS = seeded_graphs(4, GraphBounds(max_degree=3, max_mult=5))


def reference_characteristics(g):
    """[(j, [chi_0, chi_1, chi_2]) for j = 1..d] from the per-point classes:
    W_p = wedge_ch(chern_cotangent_log(g), p) * todd(g), built once per
    graph, paired with line_bundle_ch(twist_class(g, j)) for each j."""
    log_chern, td = chern_cotangent_log(g), todd(g)
    weighted = [wedge_ch(log_chern, p) * td for p in range(3)]
    table = []
    for j in range(1, derived(g).total_degree + 1):
        ch = line_bundle_ch(twist_class(g, j))
        table.append((j, [(w * ch).integrate() for w in weighted]))
    return table


def on_repeated_types(test):
    """Run a test given arrangement_graphs() also on graphs with many points
    of one type, whose counts enter the closed e0^2 coefficients."""
    for g in repeated_type_graphs() + GROUPING_GRAPHS + HIGH_MULT_GRAPHS:
        test = example(g)(test)
    return test


class TestChernTangent:
    def test_plane_without_blow_ups(self):
        g = graph([(3, 1)])
        assert chern_tangent(g) == CohClass(a=1, b0=-3, c=3)

    def test_one_blow_up(self):
        g = nodal_cubic()
        c = chern_tangent(g)
        assert c.degree_part(1) == CohClass(b0=-3, bv={"v1": -1})
        assert c.degree_part(2) == CohClass(c=4)

    @given(arrangement_graphs())
    def test_degree_two_counts_points(self, g):
        c = chern_tangent(g)
        assert c.degree_part(0) == ONE
        assert c.degree_part(1) == CohClass(
            b0=-3, bv={p.id: Fraction(-1) for p in g.points}
        )
        assert c.degree_part(2) == CohClass(c=len(g.points) + 3)

    @given(arrangement_graphs())
    def test_cotangent_is_dual(self, g):
        c = chern_tangent(g)
        dual = chern_cotangent(g)
        assert dual.degree_part(0) == c.degree_part(0)
        assert dual.degree_part(1) == -c.degree_part(1)
        assert dual.degree_part(2) == c.degree_part(2)


class TestChernLog:
    @on_repeated_types
    @given(arrangement_graphs())
    def test_product_route_matches_closed_form(self, g):
        assert chern_cotangent_log(g) == chern_cotangent_log_closed(g)

    def test_conic_degree_one(self):
        c = chern_cotangent_log(graph([(2, 1)]))
        assert c.degree_part(1) == hyperplane_e0()

    def test_nodal_cubic_degree_one_vanishes(self):
        # d_red = 3 kills the e0 coefficient; the double point has
        # m_red = 2, killing the e_v coefficient as well.
        c = chern_cotangent_log(nodal_cubic())
        assert c.degree_part(1) == CohClass()

    def test_multiplicity_does_not_change_log_poles(self):
        # The polar divisor is the reduced total transform, so scaling
        # component multiplicities leaves the class alone.
        assert chern_cotangent_log(two_line_powers(1, 1)) == chern_cotangent_log(
            two_line_powers(3, 2)
        )


class TestTodd:
    @on_repeated_types
    @given(arrangement_graphs())
    def test_matches_closed_form(self, g):
        assert todd(g) == todd_closed(g)

    @given(arrangement_graphs())
    def test_integrates_to_one(self, g):
        # Noether's formula on a rational surface: chi(O) = 1.
        assert todd(g).integrate() == 1


class TestWedgeCh:
    def test_wedge_zero_is_trivial(self):
        assert wedge_ch(chern_cotangent_log(nodal_cubic()), 0) == ONE

    def test_ranks(self):
        c = chern_cotangent_log(line_and_nodal_cubic())
        assert wedge_ch(c, 1).degree_part(0) == CohClass(a=2)
        assert wedge_ch(c, 2).degree_part(0) == ONE

    def test_determinant_line_bundle(self):
        c = ONE + hyperplane_e0(2) + CohClass(c=5)
        assert wedge_ch(c, 2) == ONE + hyperplane_e0(2) + CohClass(c=2)

    @given(arrangement_graphs())
    def test_alternating_sum_is_top_chern_class(self, g):
        # Rank-2 Borel-Serre: ch(wedge^0) - ch(wedge^1) + ch(wedge^2) = c2.
        c = chern_cotangent_log(g)
        alternating = wedge_ch(c, 0) - wedge_ch(c, 1) + wedge_ch(c, 2)
        assert alternating == c.degree_part(2)

    def test_requires_unit_scalar_part(self):
        with pytest.raises(ValueError):
            wedge_ch(CohClass(a=2, b0=1), 1)

    def test_rejects_higher_wedge(self):
        with pytest.raises(ValueError):
            wedge_ch(ONE, 3)


class TestLineBundleCh:
    def test_hyperplane(self):
        assert line_bundle_ch(hyperplane_e0()) == ONE + hyperplane_e0() + CohClass(
            c=Fraction(1, 2)
        )

    def test_zero_divisor(self):
        assert line_bundle_ch(ZERO_DIVISOR) == ONE

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            line_bundle_ch(ONE)
        with pytest.raises(ValueError):
            line_bundle_ch(CohClass(c=1))


class TestTwistClass:
    def test_nodal_cubic_first_twist(self):
        assert twist_class(nodal_cubic(), 1) == hyperplane_e0(2) + point_e("v1")

    def test_top_twist_vanishes(self):
        assert twist_class(nodal_cubic(), 3) == CohClass()
        assert twist_class(two_line_powers(2, 2), 4) == CohClass()

    def test_two_double_lines_midpoint(self):
        assert twist_class(two_line_powers(2, 2), 2) == CohClass()

    @given(arrangement_graphs())
    def test_top_index_vanishes(self, g):
        assert twist_class(g, derived(g).total_degree) == CohClass()

    @given(arrangement_graphs(reduced=True), st.data())
    def test_reduced_specialization(self, g, data):
        # With every m_l = 1: u0 = d - j and u_v = m_v - ceil(j*m_v/d).
        aggregates = derived(g)
        d = aggregates.total_degree
        j = data.draw(st.integers(1, d))
        u = twist_class(g, j)
        assert u.b0 == d - j
        for p in g.points:
            m_v = aggregates.point_mult[p.id]
            assert u.bv.get(p.id, 0) == m_v - ceil_div(j * m_v, d)

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_rejects_out_of_range(self, j):
        with pytest.raises(ValueError):
            twist_class(nodal_cubic(), j)

    def test_hundred_twenty_general_lines_within_budget(self):
        # 7 140 points: the coefficients are collected in one pass, where a
        # sum of per-point classes copies every e_v coefficient per term.
        g = general_position_lines(120)
        d = derived(g).total_degree
        start = time.perf_counter()
        for j in (1, d // 2, d):
            twist_class(g, j)
        assert time.perf_counter() - start < 1.0

    @given(arrangement_graphs(), st.data())
    def test_expansion_matches_ceiling_coefficients(self, g, data):
        # floor((d-j)m/d) = m - ceil(jm/d) turns the floor-built divisor
        # into the ceiling-built coefficients used by the closed formulas.
        # The ceiling form is u0 = sum_l ceil(j*m_l/d)*d_l - j and
        # u_v = sum_l ceil(j*m_l/d)*m_{v,l} - ceil(j*m_v/d).
        aggregates = derived(g)
        d = aggregates.total_degree
        for j in (data.draw(st.integers(1, d)), d):
            ceil_l = {c.id: ceil_div(j * c.multiplicity, d) for c in g.components}
            u0 = sum(ceil_l[c.id] * c.degree for c in g.components) - j
            uv = {
                p.id: sum(ceil_l[br.component] * br.mult for br in p.branches)
                - ceil_div(j * aggregates.point_mult[p.id], d)
                for p in g.points
            }
            assert twist_class(g, j) == CohClass(b0=u0, bv=uv)


class TestEulerCharacteristic:
    @given(arrangement_graphs())
    def test_structure_sheaf(self, g):
        assert euler_characteristic(g, 0, ZERO_DIVISOR) == 1

    def test_canonical_twist_of_nodal_cubic(self):
        assert euler_characteristic(nodal_cubic(), 2, ZERO_DIVISOR) == 1

    def test_rejects_non_divisor_twist(self):
        with pytest.raises(ValueError):
            euler_characteristic(nodal_cubic(), 0, ONE)

    @given(arrangement_graphs(max_components=3, max_points=4), st.data())
    @settings(max_examples=40)
    def test_matches_combinatorial_closed_forms(self, g, data):
        # Re-derive the three Euler characteristics from the twist
        # coefficients alone and compare with the full integral route.
        d = derived(g).total_degree
        d_red = sum(c.degree for c in g.components)
        j = data.draw(st.integers(1, d))
        u = twist_class(g, j)
        u0 = int(u.b0)

        chi0 = binom(u0 - 1, 2)
        chi1 = -(u0 - 1) * (d_red - u0 - 1) - sum(
            binom(c.degree, 2) for c in g.components
        )
        chi2 = binom(d_red - u0 - 1, 2)
        for p in g.points:
            uv = int(u.bv.get(p.id, 0))
            m_red = sum(br.mult for br in p.branches)
            chi0 -= binom(uv, 2)
            chi1 += uv * (m_red - uv - 1) + sum(binom(br.mult, 2) for br in p.branches)
            chi2 -= binom(m_red - uv - 1, 2)

        assert euler_characteristic(g, 0, u) == chi0
        assert euler_characteristic(g, 1, u) == chi1
        assert euler_characteristic(g, 2, u) == chi2


class TestLogExpBuild:
    @pytest.mark.parametrize("g", seeded_graphs(40) + repeated_type_graphs())
    def test_matches_sequential_products(self, g):
        assert chern_tangent(g) == sequential_chern_tangent(g)
        assert chern_cotangent_log(g) == sequential_chern_cotangent_log(g)

    @pytest.mark.parametrize("count", [40, 100])
    def test_per_point_build_stays_near_linear(self, count, monkeypatch):
        # Point coefficients handed to the CohClass constructor, counted, not
        # timed: the balanced tree of products copies each point's
        # coefficient O(log P) times, where a left-to-right chain copies it
        # once per factor.
        g = general_position_lines(count)
        points = len(g.points)
        copied = []
        honest_init = CohClass.__init__

        def counted_init(self, a=0, b0=0, bv=None, c=0):
            copied.append(len(bv or {}))
            honest_init(self, a, b0, bv, c)

        monkeypatch.setattr(CohClass, "__init__", counted_init)
        chern_cotangent_log(g)
        assert sum(copied) <= 10 * points * log2(points)


class TestIntegerPairing:
    @pytest.mark.parametrize(
        "g",
        seeded_graphs(12, GraphBounds(max_degree=3, max_mult=3))
        + repeated_type_graphs()
        + HIGH_MULT_GRAPHS
        + GROUPING_GRAPHS,
    )
    def test_matches_euler_characteristic(self, g):
        # The public per-sheaf route, one HRR integral for each (p, j),
        # where TestTypedBuild pairs classes built once per graph.
        expected = [
            (j, [euler_characteristic(g, p, twist_class(g, j)) for p in range(3)])
            for j in range(1, derived(g).total_degree + 1)
        ]
        assert list(_euler_characteristics(g.point_types)) == expected

    @pytest.mark.parametrize("g", HIGH_MULT_GRAPHS + repeated_type_graphs() + GROUPING_GRAPHS)
    def test_no_fraction_between_factor_builds_and_pairing(self, g):
        summary = g.point_types
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            table = list(_euler_characteristics(summary))
        finally:
            sys.setprofile(previous)
        assert len(table) == derived(g).total_degree
        assert calls == []

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda d_red, m_reds, c2_twice: (d_red, m_reds, c2_twice + 1), "chi_1 must be an integer, got"),
            (
                lambda d_red, m_reds, c2_twice: (d_red, [m_reds[0] + Fraction(1, 2), *m_reds[1:]], c2_twice),
                "chi_2 must be an integer, got",
            ),
        ],
        ids=["odd_c2_numerator", "half_c1_coefficient"],
    )
    def test_non_integral_closed_expansion_is_caught(self, corrupt, match, monkeypatch):
        honest = curvespec.riemann_roch._log_chern
        monkeypatch.setattr(curvespec.riemann_roch, "_log_chern", lambda summary: corrupt(*honest(summary)))
        with pytest.raises(ArithmeticError, match=match):
            spectrum_via_riemann_roch(line_and_nodal_cubic())


def per_j_characteristics(summary):
    """Reference: the pairing as it ran before the breakpoint walk, every
    point type evaluated at every j, in time O(T*d)."""
    d_red, m_reds, c2_twice = _log_chern(summary)
    # c1 = c1_e0*e0 + sum_v (2 - m_{v,red})*e_v.  ch(wedge^2) = ch(c1), so
    # chi_2(u) = chi_0(u + c1) = chi_0(u) + K/2 + c1.u with K = 2*chi_0(c1) - 2,
    # and ch(wedge^1) = ch(wedge^0) + ch(wedge^2) - c2.
    c1_e0 = 3 - d_red
    k = -c1_e0 * d_red
    # Points of one type share m_v = sum m_l*m_{v,l}, m_{v,red} and u, so
    # each type steps once per j, times its count.
    types = []
    for (branches, count), m_red in zip(summary.histogram.items(), m_reds):
        k -= count * (2 - m_red) * (1 - m_red)
        types.append((sum(m * mu for m, mu in branches), branches, count, count * m_red))

    degree_by_mult = summary.degree_by_mult
    d = sum(m * deg for m, deg in degree_by_mult.items())
    for j in range(1, d + 1):
        # Twist u = i*e0 + sum_v floor(i*m_v/d)*e_v + sum_l floor(i*m_l/d)*[E_l].
        i = d - j
        floors = {}
        u0 = i
        for m, deg in degree_by_mult.items():
            floors[m] = floor = (i * m) // d
            u0 -= floor * deg
        s = s_m = q = 0
        for point_mult, branches, count, count_m in types:
            u = (i * point_mult) // d
            for m, mu in branches:
                u -= floors[m] * mu
            cu = count * u
            s += cu
            s_m += count_m * u
            q += cu * u
        # 2*chi_0 = 2 * integral of td*ch(u), td = 1 - (3*e0 + sum_v e_v)/2 + e0^2.
        twice0 = 2 + u0 * u0 - q - 3 * u0 + s
        twice2 = twice0 + k + 2 * (c1_e0 * u0 - 2 * s + s_m)
        chi0, chi2 = _integer(twice0, 2, "chi_0"), _integer(twice2, 2, "chi_2")
        yield j, [chi0, _integer(twice0 + twice2 - c2_twice, 2, "chi_1"), chi2]


def weighted_line_summary(count):
    """Lines (1, t, t^2) of multiplicity t + 1, t < count: every point lies
    on two lines of distinct multiplicities, so nearly every point is a
    type of its own, count*(count - 1)/2 types at total degree
    count*(count + 1)/2.  Read from the graph, which keeps those points on
    two lines; the summary of ``line_incidence`` leaves them out."""
    return incidence_graph([((1, t, t * t), t + 1) for t in range(count)]).point_types


# Graphs drawn (seed 11) under each of the CLI's `check` bounds.
WALK_CORPORA = {"default": 400, "wide": 200, "many_point": 40, "reduced": 200}


class TestBreakpointWalk:
    """The breakpoint walk of _euler_characteristics gives the table of the
    per-j pairing it replaced, and its work follows the breakpoints."""

    @pytest.mark.parametrize("name", WALK_CORPORA)
    def test_matches_per_j_pairing_on_seeded_corpora(self, name):
        bounds, count = CHECK_BOUNDS[name], WALK_CORPORA[name]
        rng = SplitMix64(11)
        for _ in range(count):
            summary = generate_graph(rng, bounds).point_types
            assert list(_euler_characteristics(summary)) == list(per_j_characteristics(summary))

    @pytest.mark.parametrize("count", [20, 40, 60])
    def test_matches_per_j_pairing_on_weighted_lines(self, count):
        summary = weighted_line_summary(count)
        assert list(_euler_characteristics(summary)) == list(per_j_characteristics(summary))

    @on_repeated_types
    @given(arrangement_graphs())
    def test_matches_per_j_pairing_on_generated_graphs(self, g):
        summary = g.point_types
        assert list(_euler_characteristics(summary)) == list(per_j_characteristics(summary))

    @pytest.mark.parametrize(
        "summary",
        [*ONE_MULTIPLICITY_SUMMARIES.values(), M_V_AT_COMPONENT_MULTIPLICITY],
        ids=[*ONE_MULTIPLICITY_SUMMARIES, "m_v-at-component-multiplicity"],
    )
    def test_one_multiplicity_walk_matches_per_j_pairing(self, summary):
        assert list(_euler_characteristics(summary)) == list(per_j_characteristics(summary))

    @given(one_multiplicity_summaries())
    def test_one_multiplicity_walk_matches_per_j_pairing_on_drawn_summaries(self, summary):
        assert list(_euler_characteristics(summary)) == list(per_j_characteristics(summary))

    def test_line_events_follow_breakpoints(self):
        # Counted, not timed: 780 types at d = 820, where a per-j loop over
        # the types runs T*d = 639 600 times.  The walk visits each rise of
        # every type's m_v and m_l once and each i once, about 5 line events
        # per unit of d + sum_T (m_v + sum_l m_l) = 64 780.
        summary = weighted_line_summary(40)
        d = sum(m * deg for m, deg in summary.degree_by_mult.items())
        breakpoints = d + sum(sum(m * mu + m for m, mu in branches) for branches in summary.histogram)
        assert (len(summary.histogram), d) == (780, 820)
        code = _euler_characteristics.__code__
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            table = list(_euler_characteristics(summary))
        finally:
            sys.settrace(previous)
        assert len(table) == d
        assert lines <= 8 * breakpoints


def distinct_point_mult_summary(count, base=9):
    """Five components of degree 20 and multiplicities base..base + 4, and
    ``count`` points through all five, the k-th with branch multiplicities
    (20, 20, 20, 20, 20 - k): each point is a type of its own, with
    m_v = d - (base + 4)*k close to the total degree d = 100*(base + 2).
    Such a file breaks the genus bound, but it validates."""
    return graph(
        [(20, base + l) for l in range(5)], [[(l, 20 - k if l == 4 else 20) for l in range(5)] for k in range(count)]
    ).point_types


def traced_peak(route, summary):
    """The peak of the memory route(summary) allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        route(summary)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepMemory:
    """No step list of a point multiplicity outlives its type: a route's
    peak memory grows with d, not with the distinct m_v of the types.  The
    family is that of unrealisable files with five components of degree 20
    and consecutive multiplicities, scaled from multiplicities 900..904
    (d = 90 200) down to 9..13 (d = 1100) so that tracemalloc, which slows
    these routes about fortyfold, stays under a second.  Had each route
    kept the steps of every m_v, the 20 types would hold about 20*d of
    them: measured with such a cache, a peak of 2.1 (kernel) and 2.3 (RR)
    times the one-point peak, against 1.4 and 1.6 without."""

    @pytest.mark.parametrize("route", [spectrum_of_point_types, _spectrum_of_point_types], ids=["kernel", "rr"])
    def test_peak_stays_near_the_one_point_peak(self, route):
        one = traced_peak(route, distinct_point_mult_summary(1))
        summary = distinct_point_mult_summary(20)
        assert len({sum(m * mu for m, mu in branches) for branches in summary.histogram}) == 20
        many = traced_peak(route, summary)
        assert many <= 1.8 * one

    def test_kernel_equals_riemann_roch_on_the_family(self):
        summary = distinct_point_mult_summary(20)
        assert spectrum_of_point_types(summary) == _spectrum_of_point_types(summary)


def build_and_compare_route_spectra(summary):
    assert spectrum_of_point_types(summary) == _spectrum_of_point_types(summary)


class TestRouteSpectrumMemory:
    """Each route hands its coefficient runs to the spectrum as one list and
    the spectrum builds no term dict for a comparison, so building and
    comparing both route spectra of 200 weighted lines (1, t, t^2) of
    multiplicity t + 1 (d = 20 100, no point on three lines) peaks at about
    330 bytes of tracemalloc per j.  With a dict of the 3d terms in each
    spectrum it peaked at about 720."""

    def test_peak_per_j_stays_under_the_bound(self):
        summary = line_incidence([((1, t, t * t), t + 1) for t in range(200)]).point_types()
        d = sum(m * deg for m, deg in summary.degree_by_mult.items())
        assert (d, len(summary.histogram)) == (20100, 0)
        assert traced_peak(build_and_compare_route_spectra, summary) <= 500 * d


class TestTypedBuild:
    """The per-type pairing of the closed expansions gives the Euler
    characteristics of the per-point classes."""

    @pytest.mark.parametrize(
        "g",
        seeded_graphs(40)
        + HIGH_MULT_GRAPHS
        + repeated_type_graphs()
        + GROUPING_GRAPHS
        + seeded_graphs(12, GraphBounds(max_degree=3, max_mult=3)),
    )
    def test_matches_per_point_build(self, g):
        assert list(_euler_characteristics(g.point_types)) == reference_characteristics(g)

    @given(arrangement_graphs())
    def test_matches_per_point_build_on_generated_graphs(self, g):
        assert list(_euler_characteristics(g.point_types)) == reference_characteristics(g)


def point_type_keys(g):
    """Each point's type, in point order: the sorted tuple of (m_l, m_{v,l})
    over its branches."""
    comp_mult = {c.id: c.multiplicity for c in g.components}
    return [tuple(sorted((comp_mult[br.component], br.mult) for br in p.branches)) for p in g.points]


def assert_validate_counts_every_point(g):
    """validate's summary of a valid graph: its histogram is the per-point
    count of point_type_keys, and its component data the sums over the
    components."""
    summary = validate(g).point_types
    assert summary == g.point_types
    assert summary.histogram == Counter(point_type_keys(g))
    degree_by_mult = Counter()
    for c in g.components:
        degree_by_mult[c.multiplicity] += c.degree
    assert summary.degree_by_mult == degree_by_mult
    assert summary.comp_pairs == sum(binom(c.degree, 2) for c in g.components)


class TestSharedSummary:
    @pytest.mark.parametrize(
        "g", seeded_graphs(40) + GROUPING_GRAPHS + HIGH_MULT_GRAPHS + repeated_type_graphs()
    )
    def test_validate_counts_every_point(self, g):
        assert_validate_counts_every_point(g)

    @given(arrangement_graphs(max_points=12))
    def test_validate_counts_every_point_of_generated_graphs(self, g):
        assert_validate_counts_every_point(g)

    def test_general_then_riemann_roch_build_one_summary(self, monkeypatch):
        build = ArrangementGraph.point_types.func
        calls = []

        def counted(g):
            calls.append(g)
            return build(g)

        counted_property = cached_property(counted)
        counted_property.__set_name__(ArrangementGraph, "point_types")
        monkeypatch.setattr(ArrangementGraph, "point_types", counted_property)
        g = fermat_graph()
        assert spectrum_general(g) == spectrum_via_riemann_roch(g)
        assert len(calls) == 1 and calls[0] is g


class TestSpectrumViaRiemannRoch:
    def test_nodal_cubic(self):
        assert spectrum_via_riemann_roch(nodal_cubic()) == Spectrum(
            {
                Fraction(1): 1,
                Fraction(4, 3): 2,
                Fraction(5, 3): 2,
            }
        )

    def test_line_and_nodal_cubic(self):
        assert spectrum_via_riemann_roch(line_and_nodal_cubic()) == Spectrum(
            {
                Fraction(1): 2,
                Fraction(5, 4): 2,
                Fraction(3, 2): 2,
                Fraction(7, 4): 2,
                Fraction(2): -1,
            }
        )

    def test_double_crossing_lines(self):
        assert spectrum_via_riemann_roch(two_line_powers(2, 2)) == Spectrum(
            {
                Fraction(3, 2): -1,
                Fraction(2): -1,
                Fraction(5, 2): 1,
            }
        )

    def test_single_line_has_empty_spectrum(self):
        assert spectrum_via_riemann_roch(graph([(1, 1)])) == Spectrum.zero()

    @given(arrangement_graphs())
    @settings(max_examples=60)
    def test_agrees_with_combinatorial_route(self, g):
        # The package's central cross-validation: characteristic-class
        # route and closed-form route must coincide exactly.
        assert spectrum_via_riemann_roch(g) == spectrum_general(g)

    def test_forty_general_lines_within_budget(self):
        g = general_position_lines(40)
        start = time.perf_counter()
        result = spectrum_via_riemann_roch(g)
        elapsed = time.perf_counter() - start
        assert result == spectrum_general(g)
        assert elapsed < 5.0

    def test_three_hundred_general_lines_within_budget(self):
        # 44 850 points of one type: the classes are built once and the
        # pairing takes one step per j.
        g = general_position_lines(300)
        start = time.perf_counter()
        result = spectrum_via_riemann_roch(g)
        elapsed = time.perf_counter() - start
        assert result == spectrum_general(g)
        assert elapsed < 5.0

    @pytest.mark.parametrize("count", [12, 40])
    def test_builds_no_cohomology_class(self, count, monkeypatch):
        g = general_position_lines(count)
        made = []
        honest_init = CohClass.__init__

        def counted_init(self, *args, **kwargs):
            made.append(args)
            honest_init(self, *args, **kwargs)

        monkeypatch.setattr(CohClass, "__init__", counted_init)
        spectrum_via_riemann_roch(g)
        assert made == []
        # The per-point reference builds are seen by the same count.
        todd(g)
        assert made
