import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    M_V_AT_COMPONENT_MULTIPLICITY,
    ONE_MULTIPLICITY_SUMMARIES,
    arrangement_graphs,
    crossing_powers_closed_form,
    graph,
    line_and_nodal_cubic,
    nodal_cubic,
    one_multiplicity_summaries,
    pencil_graph,
    random_line_forms,
    triangle_graph,
    two_line_powers,
)
from curvespec.arrangement import (
    MAX_TOTAL_DEGREE,
    ArrangementGraph,
    Branch,
    PointTypeSummary,
    SingularPoint,
    complement_euler_characteristic,
    derived,
)
from curvespec.binomial import binom, ceil_div
from curvespec.formulas import (
    spectrum_binary_linear,
    spectrum_general,
    spectrum_hyperplane,
    spectrum_irreducible_power,
    spectrum_isolated,
    spectrum_of_point_types,
    spectrum_reduced,
    spectrum_smooth_components,
)
from curvespec.lines import incidence_graph
from curvespec.randomgraphs import GraphBounds, SplitMix64, generate_graph
from curvespec.riemann_roch import twist_class
from curvespec.spectrum import Spectrum


class TestGeneral:
    def test_nodal_cubic(self):
        assert spectrum_general(nodal_cubic()) == Spectrum(
            {1: 1, Fraction(4, 3): 2, Fraction(5, 3): 2}
        )

    def test_single_line(self):
        assert spectrum_general(graph([(1, 1)])) == Spectrum.zero()

    @pytest.mark.parametrize("m1,m2,g", [(1, 1, 1), (2, 2, 2), (2, 4, 2), (3, 6, 3), (5, 3, 1)])
    def test_crossing_line_powers(self, m1, m2, g):
        assert spectrum_general(two_line_powers(m1, m2)) == crossing_powers_closed_form(g)

    @given(arrangement_graphs())
    def test_support_bound(self, g):
        d = derived(g).total_degree
        for alpha, n in spectrum_general(g).items():
            assert 0 < alpha <= 3
            assert (alpha * d).denominator == 1
            assert isinstance(n, int)

    @given(arrangement_graphs())
    def test_sum_is_topological(self, g):
        # Spectrum(1) = d * chi(P^2 minus C) - 1: the Milnor fibre is a
        # d-fold cover of the complement, and the spectrum sums to its
        # reduced Euler characteristic.
        d = derived(g).total_degree
        assert spectrum_general(g).eval_at_one() == d * complement_euler_characteristic(g) - 1

    @given(arrangement_graphs(max_components=3, max_points=4))
    def test_component_and_point_order_irrelevant(self, g):
        reordered = ArrangementGraph(tuple(reversed(g.components)), tuple(reversed(g.points)))
        assert spectrum_general(reordered) == spectrum_general(g)

    @given(arrangement_graphs(max_degree=3, max_mult=12))
    def test_large_multiplicities_stay_exact(self, g):
        # No overflow or precision ceiling: coefficients are plain ints.
        assert spectrum_general(g) is not None


def per_point_display(g):
    """The general display summed point by point from the twist classes:
    the reference for the type-grouped kernel."""
    d = derived(g).total_degree
    d_red = sum(c.degree for c in g.components)
    comp_pairs = sum(binom(c.degree, 2) for c in g.components)
    terms = []
    for j in range(1, d + 1):
        u = twist_class(g, j)
        u0 = int(u.b0)
        n0 = binom(d_red - u0 - 1, 2)
        n1 = (u0 - 1) * (d_red - u0 - 1) + comp_pairs
        n2 = binom(u0 - 1, 2) - (1 if j == d else 0)
        for p in g.points:
            uv, m_red = int(u.bv.get(p.id, 0)), sum(br.mult for br in p.branches)
            n0 -= binom(m_red - uv - 1, 2)
            n1 -= uv * (m_red - uv - 1) + sum(binom(br.mult, 2) for br in p.branches)
            n2 -= binom(uv, 2)
        terms += [(Fraction(j, d) + level, n) for level, n in enumerate((n0, n1, n2))]
    return Spectrum(terms)


def weighted_grid(seed):
    """Weighted lines x = a*z, y = b*z and x - y = c*z: most points are
    double or triple points whose weight multisets repeat many times."""
    rng = random.Random(seed)
    forms = [(1, 0, -a) for a in range(5)] + [(0, 1, -b) for b in range(5)]
    forms += [(1, -1, -c) for c in range(-3, 4)]
    return incidence_graph([(f, rng.choice((1, 1, 2, 3))) for f in forms])


class TestTypeKernel:
    def test_matches_per_point_display_on_check_corpus(self):
        for seed in range(300):
            g = generate_graph(SplitMix64(seed))
            assert spectrum_general(g) == per_point_display(g), seed

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_point_display_on_repeated_types(self, seed):
        g = weighted_grid(seed)
        mult = {c.id: c.multiplicity for c in g.components}
        types = {tuple(sorted((mult[br.component], br.mult) for br in p.branches)) for p in g.points}
        assert len(g.points) >= 3 * len(types)
        assert spectrum_general(g) == per_point_display(g)


def per_j_kernel(summary):
    """The general display from a point-type summary, every type evaluated
    at every j: the reference for the breakpoint walk."""
    degree_by_mult = summary.degree_by_mult
    d = sum(m * deg for m, deg in degree_by_mult.items())
    d_red = sum(degree_by_mult.values())
    types = []
    for branches, count in summary.histogram.items():
        weight: dict[int, int] = {}
        for m, mult in branches:
            weight[m] = weight.get(m, 0) + mult
        m_v = sum(m * w for m, w in weight.items())
        pairs = sum(binom(mult, 2) for _, mult in branches)
        types.append((weight, m_v, sum(weight.values()), pairs, count))
    terms = []
    for j in range(1, d + 1):
        ceil_by_mult = {m: ceil_div(j * m, d) for m in degree_by_mult}
        u0 = sum(ceil_by_mult[m] * deg for m, deg in degree_by_mult.items()) - j
        n0 = binom(d_red - u0 - 1, 2)
        n1 = (u0 - 1) * (d_red - u0 - 1) + summary.comp_pairs
        n2 = binom(u0 - 1, 2) - (1 if j == d else 0)
        for weight, m_v, m_red, pairs, count in types:
            uv = sum(ceil_by_mult[m] * w for m, w in weight.items()) - ceil_div(j * m_v, d)
            n0 -= count * binom(m_red - uv - 1, 2)
            n1 -= count * (uv * (m_red - uv - 1) + pairs)
            n2 -= count * binom(uv, 2)
        terms += [(j, n0), (d + j, n1), (2 * d + j, n2)]
    return Spectrum(terms, den=d)


def line_summary(mults, histogram, comp_pairs=0):
    """A summary of lines with the given multiplicities; histogram maps the
    multiplicities of the lines through a point to a point count."""
    types = {tuple(sorted((m, 1) for m in through)): n for through, n in histogram.items()}
    return PointTypeSummary(Counter(mults), comp_pairs, types)


EDGE_SUMMARIES = {
    "d=1": line_summary([1], {}),
    "one-line-power-m=d": line_summary([7], {}),
    "one-conic-power": PointTypeSummary({5: 2}, 1, {((5, 2),): 1}),
    "pencil-m_v=d": line_summary([1, 1, 1, 1], {(1, 1, 1, 1): 1}),
    "weighted-pencil-m_v=d": line_summary([2, 3, 5], {(2, 3, 5): 1}),
    "pencil-of-twelve-fold-lines": line_summary([12] * 3, {(12, 12, 12): 1}),
    "empty-histogram": PointTypeSummary({1: 2, 3: 1}, 4, {}),
    "many-points-one-type": line_summary([1] * 80, {(1, 1): 3160}),
    "many-points-few-types": line_summary([1] * 30 + [2] * 10, {(1, 1): 435, (1, 2): 300, (2, 2): 45}),
    "many-curves-one-type": PointTypeSummary({3: 12}, 120, {((3, 2),): 40, ((3, 1), (3, 1)): 500}),
    **ONE_MULTIPLICITY_SUMMARIES,
    "m_v-at-component-multiplicity": M_V_AT_COMPONENT_MULTIPLICITY,
}


class TestBreakpointKernel:
    @pytest.mark.parametrize("summary", EDGE_SUMMARIES.values(), ids=EDGE_SUMMARIES.keys())
    def test_edge_cases_match_per_j_kernel(self, summary):
        assert spectrum_of_point_types(summary) == per_j_kernel(summary)

    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 8),
        st.integers(0, 24),
        st.integers(1, 6),
        st.integers(1, 12),
    )
    def test_matches_per_j_kernel_on_generator_graphs(self, seed, comps, points, degree, mult):
        bounds = GraphBounds(max_components=comps, max_points=points, max_degree=degree, max_mult=mult)
        summary = generate_graph(SplitMix64(seed), bounds).point_types
        assert spectrum_of_point_types(summary) == per_j_kernel(summary)

    @given(arrangement_graphs(max_components=5, max_points=8, max_degree=5, max_mult=12))
    def test_matches_per_j_kernel_on_drawn_graphs(self, g):
        summary = g.point_types
        assert spectrum_of_point_types(summary) == per_j_kernel(summary)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_j_kernel_on_weighted_lines(self, seed):
        summary = incidence_graph(random_line_forms(seed)).point_types
        assert spectrum_of_point_types(summary) == per_j_kernel(summary)

    @given(one_multiplicity_summaries())
    def test_one_multiplicity_walk_matches_per_j_kernel_on_drawn_summaries(self, summary):
        assert spectrum_of_point_types(summary) == per_j_kernel(summary)


def per_point_reduced(g):
    """The reduced display with one step per point per j: the reference for
    the grouped points of spectrum_reduced."""
    data = derived(g)
    d = data.total_degree
    comp_pairs = sum(binom(c.degree, 2) for c in g.components)
    terms = []
    for j in range(1, d + 1):
        n0 = binom(j - 1, 2)
        n1 = (j - 1) * (d - j - 1) + comp_pairs
        n2 = binom(d - j - 1, 2) - (1 if j == d else 0)
        for p in g.points:
            m_v = data.point_mult[p.id]
            ceil_v = ceil_div(j * m_v, d)
            n0 -= binom(ceil_v - 1, 2)
            n1 -= (ceil_v - 1) * (m_v - ceil_v) + sum(binom(br.mult, 2) for br in p.branches)
            n2 -= binom(m_v - ceil_v, 2)
        terms += [(j, n0), (d + j, n1), (2 * d + j, n2)]
    return Spectrum(terms, den=d)


def repeated_reduced_points(seed):
    """A reduced graph of cubics and quartics whose points repeat few
    (m_v, branch pairs) values: double points of one component, nodes where
    two components cross and ordinary 4-fold points where three meet."""
    rng = random.Random(seed)
    comps = [(rng.choice((3, 4)), 1) for _ in range(rng.randint(3, 6))]
    pts = []
    for _ in range(rng.randint(20, 60)):
        kind = rng.random()
        if kind < 0.3:
            pts.append([(rng.randrange(len(comps)), 2)])
        elif kind < 0.8:
            a, b = rng.sample(range(len(comps)), 2)
            pts.append([(a, 1), (b, 1)])
        else:
            a, b, c = rng.sample(range(len(comps)), 3)
            pts.append([(a, 1), (b, 2), (c, 1)])
    return graph(comps, pts)


def grouped_by_point_pairs(g):
    """The reduced display with the points grouped by (m_v, branch pair
    count), counted from the points themselves: the reference for the
    m_v groups and folded pair counts of spectrum_reduced."""
    d = sum(c.degree for c in g.components)
    comp_pairs = sum(binom(c.degree, 2) for c in g.components)
    groups = Counter(
        (sum(br.mult for br in p.branches), sum(binom(br.mult, 2) for br in p.branches)) for p in g.points
    )
    terms = []
    for j in range(1, d + 1):
        n0 = binom(j - 1, 2)
        n1 = (j - 1) * (d - j - 1) + comp_pairs
        n2 = binom(d - j - 1, 2) - (1 if j == d else 0)
        for (m_v, branch_pairs), count in groups.items():
            ceil_v = ceil_div(j * m_v, d)
            n0 -= count * binom(ceil_v - 1, 2)
            n1 -= count * ((ceil_v - 1) * (m_v - ceil_v) + branch_pairs)
            n2 -= count * binom(m_v - ceil_v, 2)
        terms += [(j, n0), (d + j, n1), (2 * d + j, n2)]
    return Spectrum(terms, den=d)


class TestReducedGrouping:
    def test_matches_point_grouping_on_reduced_graphs(self):
        bounds = GraphBounds(max_components=8, max_points=60, max_degree=6, max_mult=1)
        rng = SplitMix64(19)
        graphs = [generate_graph(rng, bounds) for _ in range(60)]
        graphs += [repeated_reduced_points(seed) for seed in range(10, 20)]
        for g in graphs:
            assert spectrum_reduced(g) == grouped_by_point_pairs(g)

    def test_matches_per_point_loop_on_reduced_generator_graphs(self):
        bounds = GraphBounds(max_components=8, max_points=24, max_degree=6, max_mult=1)
        for seed in range(200):
            g = generate_graph(SplitMix64(seed), bounds)
            assert spectrum_reduced(g) == per_point_reduced(g), seed

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_point_loop_on_repeated_points(self, seed):
        g = repeated_reduced_points(seed)
        data = derived(g)
        keys = {(data.point_mult[p.id], sum(binom(br.mult, 2) for br in p.branches)) for p in g.points}
        assert len(g.points) >= 4 * len(keys)
        assert spectrum_reduced(g) == per_point_reduced(g)

    @pytest.mark.parametrize(
        "g",
        [
            *(graph([(1, 1)] * n, [[(i, 1) for i in range(n)]]) for n in (2, 3, 7)),
            graph([(1, 1)] * 4, [[(i, 1) for i in range(4)], [(0, 1)], [(3, 1)]]),
            graph([(1, 1)], [[(0, 1)]]),
            graph([(2, 1)], [[(0, 1)]]),
            graph([(3, 1), (1, 1)], [[(0, 2)], [(0, 1)], [(1, 1)], [(0, 1), (1, 1)]]),
        ],
        ids=["pencil-2", "pencil-3", "pencil-7", "pencil-and-smooth-points", "line-smooth-point",
             "conic-smooth-point", "nodal-cubic-line-smooth-points"],
    )
    def test_matches_per_point_loop_at_the_table_edges(self, g):
        # A pencil has m_v = d, so ceil(j*m_v/d) reaches c = m_v at j = d;
        # a smooth point has m_v = 1, a table of c = 0..1.
        assert spectrum_reduced(g) == per_point_reduced(g) == spectrum_general(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_point_loop_on_line_arrangements(self, seed):
        # Proportional forms merge and add up their multiplicities.
        lines = incidence_graph(random_line_forms(seed))
        g = ArrangementGraph(tuple(replace(c, multiplicity=1) for c in lines.components), lines.points)
        assert spectrum_reduced(g) == per_point_reduced(g)


class TestReduced:
    def test_line_and_nodal_cubic(self):
        expected = Spectrum(
            {1: 2, Fraction(5, 4): 2, Fraction(3, 2): 2, Fraction(7, 4): 2, 2: -1}
        )
        assert spectrum_reduced(line_and_nodal_cubic()) == expected

    def test_two_crossing_lines(self):
        assert spectrum_reduced(two_line_powers(1, 1)) == Spectrum.term(2, -1)

    def test_triangle(self):
        assert spectrum_reduced(triangle_graph()) == Spectrum({1: 1, 2: -2})

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            spectrum_reduced(two_line_powers(2, 2))

    @given(arrangement_graphs(reduced=True))
    def test_agrees_with_general(self, g):
        assert spectrum_reduced(g) == spectrum_general(g)


class TestSmoothComponents:
    def test_two_crossing_lines(self):
        assert spectrum_smooth_components(two_line_powers(1, 1)) == Spectrum.term(2, -1)

    def test_single_conic(self):
        assert spectrum_smooth_components(graph([(2, 1)])) == Spectrum.term(Fraction(3, 2))

    def test_triangle(self):
        assert spectrum_smooth_components(triangle_graph()) == Spectrum({1: 1, 2: -2})

    def test_rejects_multiple_branch(self):
        with pytest.raises(ValueError):
            spectrum_smooth_components(nodal_cubic())

    @given(arrangement_graphs(simple_branches=True))
    def test_agrees_with_general(self, g):
        assert spectrum_smooth_components(g) == spectrum_general(g)


class TestHyperplane:
    def test_crossing_lines(self):
        assert spectrum_hyperplane(two_line_powers(1, 1)) == Spectrum.term(2, -1)
        assert spectrum_hyperplane(two_line_powers(2, 2)) == Spectrum(
            {Fraction(3, 2): -1, 2: -1, Fraction(5, 2): 1}
        )

    def test_pencil_matches_dummy_shifted_planar_value(self):
        # A dummy variable multiplies the spectrum by -t (the join with a
        # smooth one-variable function).
        assert spectrum_hyperplane(pencil_graph()) == Spectrum.term(1, -1) * spectrum_binary_linear([1, 1, 1])

    def test_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            spectrum_hyperplane(nodal_cubic())

    @given(arrangement_graphs(lines_only=True))
    def test_agrees_with_general(self, g):
        assert spectrum_hyperplane(g) == spectrum_general(g)


def per_j_power(d, m, point_mults):
    """The irreducible-power display with every point evaluated at every
    j in [1, m*d]: the reference for the period read through the reduced
    display's tables."""
    total = m * d
    terms = []
    for j in range(1, total + 1):
        q = ceil_div(j, d)
        u0 = q * d - j
        n0 = binom(d - u0 - 1, 2)
        n1 = (u0 - 1) * (d - u0 - 1) + binom(d, 2)
        n2 = binom(u0 - 1, 2) - (1 if j == total else 0)
        for mu in point_mults:
            uv = q * mu - ceil_div(j * mu, d)
            n0 -= binom(mu - uv - 1, 2)
            n1 -= uv * (mu - uv - 1) + binom(mu, 2)
            n2 -= binom(uv, 2)
        terms += [(j, n0), (total + j, n1), (2 * total + j, n2)]
    return Spectrum(terms, den=total)


@st.composite
def power_arguments(draw):
    """(d, m, point_mults) with d <= 12, m <= 6 and up to 10 point
    multiplicities in [2, d], repeats allowed."""
    d = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    mults = draw(st.lists(st.integers(2, d), max_size=10)) if d >= 2 else []
    return d, m, mults


# The same values as each kind of iterable: both displays read their list once.
ITERABLES = {
    "list": list,
    "tuple": tuple,
    "iterator": iter,
    "generator": lambda values: (v for v in values),
}


class TestIrreduciblePower:
    def test_nodal_cubic(self):
        assert spectrum_irreducible_power(3, 1, [2]) == spectrum_general(nodal_cubic())

    def test_smooth_conic(self):
        assert spectrum_irreducible_power(2, 1, []) == Spectrum.term(Fraction(3, 2))

    def test_squared_nodal_cubic_matches_general(self):
        g = graph([(3, 2)], [[(0, 2)]])
        assert spectrum_irreducible_power(3, 2, [2]) == spectrum_general(g)

    def test_multiplicity_out_of_range(self):
        with pytest.raises(ValueError):
            spectrum_irreducible_power(3, 1, [1])
        with pytest.raises(ValueError):
            spectrum_irreducible_power(3, 1, [4])
        with pytest.raises(ValueError):
            spectrum_irreducible_power(0, 1, [])

    def test_power_below_one(self):
        with pytest.raises(ValueError, match="power must be >= 1, got 0"):
            spectrum_irreducible_power(3, 0, [])

    @given(st.integers(2, 5), st.integers(1, 4), st.lists(st.integers(2, 5), max_size=4))
    def test_support_on_fine_grid(self, d, m, mults):
        mults = [min(mu, d) for mu in mults]
        s = spectrum_irreducible_power(d, m, mults)
        for alpha, _ in s.items():
            assert 0 < alpha <= 3
            assert (alpha * m * d).denominator == 1

    @given(st.integers(1, 4), st.integers(1, 4), st.lists(st.integers(2, 4), max_size=3))
    def test_agrees_with_general_on_one_component_graph(self, d, m, mults):
        mults = [mu for mu in mults if mu <= d]
        g = graph([(d, m)], [[(0, mu)] for mu in mults])
        assert spectrum_irreducible_power(d, m, mults) == spectrum_general(g)

    @given(power_arguments())
    @example((1, 6, []))
    @example((7, 3, []))
    @example((9, 1, [2, 3, 3, 9]))
    @example((5, 4, [5, 5, 2]))
    @example((2, 6, [2] * 10))
    def test_matches_per_j_power(self, args):
        assert spectrum_irreducible_power(*args) == per_j_power(*args)

    @pytest.mark.parametrize("kind", ITERABLES.values(), ids=ITERABLES.keys())
    def test_reads_any_iterable_once(self, kind):
        mults = [2, 3, 3, 6]
        assert spectrum_irreducible_power(6, 2, kind(mults)) == spectrum_irreducible_power(6, 2, mults)
        assert spectrum_irreducible_power(3, 1, kind([2])) == spectrum_irreducible_power(3, 1, [2])


def per_form_binary(mults):
    """The binary display summing ceil(j*m/d) over every form at every j:
    the reference for the forms counted by multiplicity."""
    d = sum(mults)
    terms = []
    for j in range(1, d + 1):
        ceil_sum = sum(ceil_div(j * m, d) for m in mults)
        terms += [(j, len(mults) - ceil_sum + j - 1), (d + j, ceil_sum - j - 1 + (1 if j == d else 0))]
    return Spectrum(terms, den=d)


class TestBinaryLinear:
    def test_two_distinct_forms(self):
        assert spectrum_binary_linear([1, 1]) == Spectrum.term(1)

    def test_single_squared_form(self):
        assert spectrum_binary_linear([2]) == Spectrum.term(Fraction(3, 2), -1)

    def test_non_isolated_mixed(self):
        assert spectrum_binary_linear([2, 1]) == Spectrum.term(1)

    def test_matches_isolated_closed_form(self):
        for d in range(2, 11):
            assert spectrum_binary_linear([1] * d) == spectrum_isolated(d, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum_binary_linear([])
        with pytest.raises(ValueError):
            spectrum_binary_linear([1, 0])

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    def test_support_bound(self, mults):
        d = sum(mults)
        for alpha, _ in spectrum_binary_linear(mults).items():
            assert 0 < alpha <= 2
            assert (alpha * d).denominator == 1

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    def test_matches_per_form_binary(self, mults):
        assert spectrum_binary_linear(mults) == per_form_binary(mults)

    @pytest.mark.parametrize("kind", ITERABLES.values(), ids=ITERABLES.keys())
    def test_reads_any_iterable_once(self, kind):
        mults = [1, 3, 1, 2, 3]
        assert spectrum_binary_linear(kind(mults)) == spectrum_binary_linear(mults)
        assert spectrum_binary_linear(kind([1, 1])) == Spectrum.term(1)

    @pytest.mark.parametrize("kind", ITERABLES.values(), ids=ITERABLES.keys())
    def test_empty_iterable_rejected(self, kind):
        with pytest.raises(ValueError, match="^need at least one linear form$"):
            spectrum_binary_linear(kind([]))


class TestIsolated:
    def test_conic(self):
        assert spectrum_isolated(2, 3) == Spectrum.term(Fraction(3, 2))

    def test_cubic(self):
        assert spectrum_isolated(3, 3) == Spectrum(
            {1: 1, Fraction(4, 3): 3, Fraction(5, 3): 3, 2: 1}
        )

    def test_degree_one_is_zero(self):
        for n in (1, 2, 3):
            assert spectrum_isolated(1, n) == Spectrum.zero()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            spectrum_isolated(0, 3)
        with pytest.raises(ValueError):
            spectrum_isolated(3, 4)

    @given(st.integers(1, 12), st.integers(1, 3))
    def test_milnor_number(self, d, n):
        assert spectrum_isolated(d, n).eval_at_one() == (d - 1) ** n

    @given(st.integers(1, 12))
    def test_matches_pointless_single_component(self, d):
        assert spectrum_general(graph([(d, 1)])) == spectrum_isolated(d, 3)

    def test_is_the_power_of_the_geometric_sum(self):
        for d in range(1, 31):
            factor = Spectrum([(i, 1) for i in range(1, d)], den=d)
            power = Spectrum.term(0)
            for n in (1, 2, 3):
                power = power * factor
                assert spectrum_isolated(d, n) == power, (d, n)


# Each closed display at the total degree limit, with the spectrum's value
# at t = 1 ((d - 1)^3 for a pointless curve, d * chi(complement) - 1 for a
# curve with points, 1 - d for one binary form raised to d, (d - 1)^2 for d
# distinct forms, (d - 1)^n for the isolated form), and past the limit,
# where it must refuse before its j loop.  The long lists pin that the cost
# does not grow with the number of entries.
AT_THE_DEGREE_LIMIT = {
    "power": (spectrum_irreducible_power, (MAX_TOTAL_DEGREE, 1, []), (MAX_TOTAL_DEGREE - 1) ** 3),
    "power-many-points": (
        spectrum_irreducible_power,
        (1000, 100, [2] * 2000),
        MAX_TOTAL_DEGREE * complement_euler_characteristic(graph([(1000, 100)], [[(0, 2)]] * 2000)) - 1,
    ),
    "binary": (spectrum_binary_linear, ([MAX_TOTAL_DEGREE],), 1 - MAX_TOTAL_DEGREE),
    "binary-many-forms": (spectrum_binary_linear, ([1] * MAX_TOTAL_DEGREE,), (MAX_TOTAL_DEGREE - 1) ** 2),
    "isolated": (spectrum_isolated, (MAX_TOTAL_DEGREE, 1), MAX_TOTAL_DEGREE - 1),
}
PAST_THE_DEGREE_LIMIT = {
    "power-degree": (spectrum_irreducible_power, (MAX_TOTAL_DEGREE + 1, 1, []), MAX_TOTAL_DEGREE + 1),
    "power-power": (spectrum_irreducible_power, (1, MAX_TOTAL_DEGREE + 1, []), MAX_TOTAL_DEGREE + 1),
    "power-product": (spectrum_irreducible_power, (1000, 101, [2] * 20), 101_000),
    "power-far": (spectrum_irreducible_power, (10**9, 10**9, []), 10**18),
    "binary": (spectrum_binary_linear, ([MAX_TOTAL_DEGREE, 1],), MAX_TOTAL_DEGREE + 1),
    "binary-far": (spectrum_binary_linear, ([10**6] * 200,), 2 * 10**8),
    "isolated": (spectrum_isolated, (MAX_TOTAL_DEGREE + 1, 3), MAX_TOTAL_DEGREE + 1),
    "isolated-far": (spectrum_isolated, (10**12, 3), 10**12),
}


@pytest.mark.parametrize("case", AT_THE_DEGREE_LIMIT.values(), ids=AT_THE_DEGREE_LIMIT.keys())
def test_closed_displays_take_the_degree_limit(case):
    function, args, value = case
    assert function(*args).eval_at_one() == value


@pytest.mark.parametrize("case", PAST_THE_DEGREE_LIMIT.values(), ids=PAST_THE_DEGREE_LIMIT.keys())
def test_closed_displays_refuse_past_the_degree_limit(case):
    function, args, total = case
    with pytest.raises(ValueError, match=f"^total degree {total} exceeds the limit {MAX_TOTAL_DEGREE}$"):
        function(*args)


# Closed-display calls with an argument or list entry that is not an int,
# or is a bool: each must raise TypeError before its j loop.
NON_INT_ARGUMENTS = {
    "power-float-entry": (spectrum_irreducible_power, (3, 2, [2.0]), "point multiplicity"),
    "power-bool-entry": (spectrum_irreducible_power, (3, 1, [True]), "point multiplicity"),
    "power-bool-power": (spectrum_irreducible_power, (3, True, []), "power"),
    "power-float-power": (spectrum_irreducible_power, (3, 2.0, []), "power"),
    "power-bool-degree": (spectrum_irreducible_power, (True, 1, []), "degree"),
    "power-float-degree": (spectrum_irreducible_power, (3.0, 1, [2]), "degree"),
    "binary-bool-entry": (spectrum_binary_linear, ([True, 2],), "multiplicity"),
    "binary-float-entry": (spectrum_binary_linear, ([1, 2.0],), "multiplicity"),
    "binary-string-entry": (spectrum_binary_linear, (["1"],), "multiplicity"),
    "isolated-float-degree": (spectrum_isolated, (2.0, 2), "degree"),
    "isolated-bool-degree": (spectrum_isolated, (True, 2), "degree"),
    "isolated-bool-dimension": (spectrum_isolated, (2, True), "ambient dimension"),
    "isolated-float-dimension": (spectrum_isolated, (2, 2.0), "ambient dimension"),
}


@pytest.mark.parametrize("case", NON_INT_ARGUMENTS.values(), ids=NON_INT_ARGUMENTS.keys())
def test_closed_displays_take_only_int_arguments(case):
    function, args, name = case
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        function(*args)


class TestPointSetInvariance:
    @given(arrangement_graphs(max_components=3, max_points=3), st.data())
    def test_extra_simple_node_is_neutral(self, g, data):
        assume(len(g.components) >= 2)
        i = data.draw(st.integers(0, len(g.components) - 2))
        k = data.draw(st.integers(i + 1, len(g.components) - 1))
        node = SingularPoint(
            "extra",
            (Branch(g.components[i].id, 1), Branch(g.components[k].id, 1)),
        )
        enlarged = ArrangementGraph(g.components, g.points + (node,))
        assert spectrum_general(enlarged) == spectrum_general(g)

    @given(arrangement_graphs(max_components=3, max_points=3), st.data())
    def test_extra_smooth_point_is_neutral(self, g, data):
        idx = data.draw(st.integers(0, len(g.components) - 1))
        point = SingularPoint("extra", (Branch(g.components[idx].id, 1),))
        enlarged = ArrangementGraph(g.components, g.points + (point,))
        assert spectrum_general(enlarged) == spectrum_general(g)
