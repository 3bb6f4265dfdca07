import json
import random
import tracemalloc
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import curvespec.lines
from curvespec.arrangement import (
    MAX_TOTAL_DEGREE,
    ArrangementGraph,
    Branch,
    Component,
    InvalidArrangementError,
    PointTypeSummary,
    SingularPoint,
    _object,
    _require,
    require_valid,
    validate,
)
from curvespec.formulas import spectrum_hyperplane, spectrum_of_point_types
from curvespec.lines import (
    _ENTRY,
    LineFileError,
    ZeroFormError,
    _Incidence,
    _integer_triple,
    incidence_graph,
    line_incidence,
    load_lines,
    normalize_form,
)
from curvespec.riemann_roch import _spectrum_of_point_types, spectrum_via_riemann_roch
from curvespec.spectrum import format_spectrum

from conftest import pencil_graph, random_line_forms, triangle_graph, two_line_powers

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
triples = st.tuples(coefficients, coefficients, coefficients).filter(
    lambda t: any(t)
)


class TestNormalizeForm:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ((0, -2, 4), (0, 1, -2)),
            (("1/3", 0, 0), (1, 0, 0)),
            ((0, 0, -5), (0, 0, 1)),
            ((Fraction(1, 2), Fraction(-3, 4), 1), (2, -3, 4)),
            (("-2/3", "4/9", 0), (3, -2, 0)),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_form(raw) == expected

    def test_zero_form_rejected(self):
        with pytest.raises(ZeroFormError):
            normalize_form((0, 0, 0))

    def test_wrong_arity(self):
        with pytest.raises(LineFileError):
            normalize_form((1, 2))

    def test_float_rejected(self):
        with pytest.raises(LineFileError):
            normalize_form((0.5, 1, 0))

    def test_bool_rejected(self):
        with pytest.raises(LineFileError):
            normalize_form((True, 1, 0))

    def test_garbage_string_rejected(self):
        with pytest.raises(LineFileError):
            normalize_form(("one", 0, 0))

    @pytest.mark.parametrize(
        "text, value",
        [("3", 3), ("+3", 3), (" -6/4 ", Fraction(-3, 2)), ("\t06/4\n", Fraction(3, 2))],
    )
    def test_coefficient_strings(self, text, value):
        assert normalize_form((text, 1, 0)) == normalize_form((value, 1, 0))

    @pytest.mark.parametrize(
        "text",
        [
            "", "1.5", ".5", "1e3", "1E3", "1e2000000", "1_000", "1/0", "1 /2", "1/-2", "- 1", "nan", "0x10",
            # Digits and spaces outside ASCII, which int() and a Unicode \d or \s take.
            "\u0663/\u0662", "\u0661/\u0662", "\uff13", "3/\uff12", "\u00a03",
        ],
    )
    def test_only_sign_digits_and_denominator_accepted(self, text):
        with pytest.raises(LineFileError, match="is not a valid rational"):
            normalize_form((text, 0, 0))

    @given(st.tuples(*[st.integers(-10**6, 10**6)] * 3).filter(any))
    def test_integer_fast_path_matches_fraction_route(self, t):
        expected = normalize_form(tuple(Fraction(x) for x in t))
        assert normalize_form(t) == expected
        assert normalize_form(list(t)) == expected
        assert normalize_form(tuple(str(x) for x in t)) == expected

    @pytest.mark.parametrize("raw", [(True, 1, 0), (1, False, 0), (0, 1, True)])
    def test_bool_rejected_among_integers(self, raw):
        with pytest.raises(LineFileError):
            normalize_form(raw)

    @given(triples)
    def test_idempotent(self, t):
        once = normalize_form(t)
        assert normalize_form(once) == once

    @given(triples, coefficients.filter(bool))
    def test_scaling_invariant(self, t, scale):
        scaled = tuple(x * scale for x in t)
        assert normalize_form(scaled) == normalize_form(t)

    @given(triples)
    def test_canonical_shape(self, t):
        a, b, c = normalize_form(t)
        assert gcd(gcd(abs(a), abs(b)), abs(c)) == 1
        assert next(x for x in (a, b, c) if x) > 0


class TestIncidenceGraph:
    def test_triangle(self):
        g = incidence_graph([(X, 1), (Y, 1), (Z, 1)])
        assert g == triangle_graph()

    def test_pencil(self):
        g = incidence_graph([(X, 1), (Y, 1), ((1, 1, 0), 1)])
        assert g == pencil_graph()

    @pytest.mark.parametrize("m1, m2", [(1, 1), (2, 2), (3, 5)])
    def test_two_crossing_lines_with_multiplicity(self, m1, m2):
        g = incidence_graph([(X, m1), (Y, m2)])
        assert g == two_line_powers(m1, m2)

    def test_proportional_forms_merge(self):
        g = incidence_graph([(X, 1), ((2, 0, 0), 2), (("-1/2", 0, 0), 3)])
        assert g.components == (Component("l1", 1, 6),)
        assert g.points == ()

    def test_single_line_has_no_points(self):
        g = incidence_graph([((1, 2, 3), 1)])
        assert g.points == ()

    def test_rational_coefficients(self):
        # x/2 - y/3 = 0 and x + y = 0 meet only at the origin of the
        # affine chart z != 0.
        g = incidence_graph([(("1/2", "-1/3", 0), 1), ((1, 1, 0), 1)])
        assert len(g.points) == 1
        assert len(g.points[0].branches) == 2

    def test_multiplicity_type_checked(self):
        with pytest.raises(LineFileError):
            incidence_graph([(X, 1.0)])
        with pytest.raises(LineFileError):
            incidence_graph([(X, True)])

    @pytest.mark.parametrize("raw", [(True, 0, 0), (1, False, 0), (0, 1, True), (1, 0, 1.0), [True, 0, 0]])
    def test_coefficients_type_checked(self, raw):
        with pytest.raises(LineFileError, match="must be an integer or 'p/q' string"):
            incidence_graph([(raw, 1)])

    @given(st.tuples(*[st.integers(-10**6, 10**6)] * 3).filter(any))
    def test_integer_triples_merge_as_normalize_form_does(self, t):
        # An int tuple skips normalize_form; a list of the same ints takes it.
        forms = [(t, 1), (list(t), 2), (tuple(-x for x in t), 3)]
        assert _Incidence(forms).lines == [normalize_form(t)]
        assert _Incidence(forms).mults == [6]

    def test_nonpositive_multiplicity_fails_validation_not_parsing(self):
        g = incidence_graph([(X, 0), (Y, 1)])
        report = validate(g)
        assert not report.ok
        assert any(code == "nonpositive-multiplicity" for code, _, _ in report.errors)

    def test_empty_input_rejected(self):
        with pytest.raises(LineFileError):
            incidence_graph([])

    @given(triples, triples, triples)
    def test_concurrency_matches_determinant(self, t1, t2, t3):
        forms = [normalize_form(t) for t in (t1, t2, t3)]
        assume(len(set(forms)) == 3)
        det = (
            t1[0] * (t2[1] * t3[2] - t2[2] * t3[1])
            - t1[1] * (t2[0] * t3[2] - t2[2] * t3[0])
            + t1[2] * (t2[0] * t3[1] - t2[1] * t3[0])
        )
        g = incidence_graph([(t1, 1), (t2, 1), (t3, 1)])
        if det == 0:
            assert len(g.points) == 1
            assert len(g.points[0].branches) == 3
        else:
            assert len(g.points) == 3
            assert all(len(p.branches) == 2 for p in g.points)

    @given(
        st.lists(st.tuples(triples, st.integers(1, 3)), min_size=1, max_size=5),
        st.permutations(range(5)),
    )
    def test_input_order_irrelevant(self, forms, order):
        shuffled = [forms[i] for i in order if i < len(forms)]
        a = spectrum_hyperplane(incidence_graph(forms))
        b = spectrum_hyperplane(incidence_graph(shuffled))
        assert a == b

    @given(
        st.lists(st.tuples(triples, st.integers(1, 3)), min_size=2, max_size=4),
        st.lists(
            st.tuples(st.sampled_from(range(3)), st.sampled_from(range(3)), st.integers(-3, 3)),
            max_size=6,
        ),
    )
    def test_projective_change_of_coordinates_invariant(self, forms, shears):
        # Build a unimodular matrix from elementary shears; acting on the
        # coefficient triples is a projective change of coordinates, which
        # must not change the incidence combinatorics.
        matrix = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for i, j, c in shears:
            assume(i != j)
            for k in range(3):
                matrix[j][k] += c * matrix[i][k]

        def act(t):
            return tuple(sum(t[r] * matrix[r][k] for r in range(3)) for k in range(3))

        def shape(g):
            return sorted(sorted(br.mult for br in p.branches) for p in g.points)

        moved = [(act(t), m) for t, m in forms]
        before = incidence_graph(forms)
        after = incidence_graph(moved)
        assert spectrum_hyperplane(before) == spectrum_hyperplane(after)
        assert shape(before) == shape(after)
        assert sorted(c.multiplicity for c in before.components) == sorted(
            c.multiplicity for c in after.components
        )


def brute_force_graph(weighted_forms):
    """Incidence by definition: every pairwise intersection, and line k
    through a point iff their dot product is 0."""
    lines, mults = [], {}
    for raw, mult in weighted_forms:
        form = normalize_form(raw)
        if form not in mults:
            lines.append(form)
            mults[form] = 0
        mults[form] += mult
    points = {primitive_point(_cross(u, v)) for i, u in enumerate(lines) for v in lines[i + 1 :]}
    return ArrangementGraph(
        tuple(Component(f"l{i + 1}", 1, mults[form]) for i, form in enumerate(lines)),
        tuple(
            SingularPoint(
                f"v{n + 1}",
                tuple(
                    Branch(f"l{i + 1}")
                    for i, form in enumerate(lines)
                    if sum(x * y for x, y in zip(form, point)) == 0
                ),
            )
            for n, point in enumerate(sorted(points))
        ),
    )


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def concurrent_line_forms(seed):
    """Seeded weighted lines (weights 1-3) that reach every branch of the
    incidence sweep: forms with a = 0 and with a = b = 0, pencils of four or
    more lines through points with zero coordinates, lines through two
    pencil points, and proportional copies, all in shuffled order."""
    rng = random.Random(seed)
    small = (-2, -1, 0, 0, 0, 1, 2)
    centres = []
    while len(centres) < rng.randint(2, 4):
        p = tuple(rng.choice(small) for _ in range(3))
        if any(p) and p not in centres:
            centres.append(p)
    raws = [(0, 0, rng.choice((1, -2))), (0, rng.choice((1, -1)), rng.randint(-2, 2))]
    for p in centres:
        for _ in range(rng.randint(4, 6)):
            line = _cross(p, tuple(rng.randint(-2, 2) for _ in range(3)))
            if any(line):
                raws.append(line)
    for p, q in zip(centres, centres[1:]):
        if any(_cross(p, q)):
            raws.append(_cross(p, q))
    for _ in range(rng.randint(1, 3)):
        raws.append(tuple(rng.choice((-3, -1, 2, Fraction(1, 2))) * x for x in rng.choice(raws)))
    rng.shuffle(raws)
    return [(raw, rng.randint(1, 3)) for raw in raws]


def shared_line_forms():
    """y = 0 passes through two points on four lines: (0:0:1), owned by
    x = 0, and (1:0:0), owned by z = 0.  Both lie on y = 0 and on two lines
    after it, so the sweep meets each again there and must skip it."""
    return [
        ((1, 0, 0), 1),
        ((0, 0, 1), 2),
        ((0, 1, 0), 3),
        ((1, 1, 0), 1),
        ((1, -1, 0), 2),
        ((0, 1, 1), 3),
        ((0, 1, -1), 1),
        ((1, 1, 1), 2),
    ]


class TestIncidenceAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_small_coefficients(self, seed):
        rng = random.Random(seed)
        forms = []
        for _ in range(rng.randint(1, 14)):
            if forms and rng.random() < 0.2:
                # A proportional copy of an earlier line.
                raw, _ = rng.choice(forms)
                scale = rng.choice((-3, -1, 2, Fraction(1, 2)))
                raw = tuple(scale * x for x in raw)
            else:
                raw = (0, 0, 0)
                while raw == (0, 0, 0):
                    raw = tuple(rng.randint(-2, 2) for _ in range(3))
            forms.append((raw, rng.randint(1, 3)))
        assert incidence_graph(forms) == brute_force_graph(forms)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_pencils_and_copies(self, seed):
        forms = random_line_forms(seed, max_lines=25)
        assert incidence_graph(forms) == brute_force_graph(forms)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_concurrent_lines(self, seed):
        forms = concurrent_line_forms(seed)
        assert incidence_graph(forms) == brute_force_graph(forms)

    def test_shared_line_through_two_large_points(self):
        forms = shared_line_forms()
        assert incidence_graph(forms) == brute_force_graph(forms)


def primitive_point(v):
    """A nonzero integer triple divided by its gcd, first nonzero entry
    positive: one name per projective point."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def assert_sweep_matches_gcd_keys(forms):
    """The sweep's points against the keying it replaced: every pair of
    lines grouped by the primitive cross product, with gcd and sign fixed.
    Each point comes once, its lines ascending; ``graph()`` is the graph of
    those points by definition."""
    incidence = _Incidence(forms)
    lines = incidence.lines
    through = {}
    for i, u in enumerate(lines):
        for k in range(i + 1, len(lines)):
            through.setdefault(primitive_point(_cross(u, lines[k])), set()).update((i, k))
    expected = sorted(sorted(on) for on in through.values())
    swept = list(incidence._sweep(True))
    assert all(on == sorted(set(on)) for on in swept)
    assert sorted(swept) == expected
    assert sorted(incidence._sweep(False)) == [on for on in expected if len(on) > 2]
    assert incidence.graph() == brute_force_graph(forms)
    return swept


def lines_through(point, directions):
    """The lines through ``point`` and each of ``directions``, as forms of
    multiplicity 1 (a direction through the point itself gives none)."""
    return [(line, 1) for line in (_cross(point, v) for v in directions) if any(line)]


def farey_forms(bound):
    """Line (1, 0, C) and lines (C, 1, 1 - C) and (C, 1, -C), C = ``bound``:
    in the first line's frame they meet it at (x : y) = (C^2 + C - 1 : 1)
    and (C^2 + C : 1), Farey neighbours (|y1*x2 - y2*x1| = 1), so their
    ratios differ by 1/(x1*x2), about 1/C^4.  Such a pair needs a = 1 (the
    determinant is a times det(line, k1, k2)), and with a = 1 no |x| exceeds
    C^2 + C, so two keys come about this close and no closer.  The sums of the first
    line with each of the other two make both points triple points."""
    c = bound
    first, near, far = (1, 0, c), (c, 1, 1 - c), (c, 1, -c)
    return [(first, 1), (near, 2), (far, 3), ((c + 1, 1, 1), 1), ((c + 1, 1, 0), 1)]


huge = st.integers(-(10**12), 10**12)
centres = st.tuples(
    st.one_of(st.just(0), huge), st.one_of(st.just(0), huge), st.one_of(st.just(0), huge)
).filter(any)
directions = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)), min_size=2, max_size=4)


class TestSweepKey:
    """The sweep keys each intersection by floor(y * M / x) in place of the
    primitive pair (x, y); it finds the points the gcd keying finds."""

    @given(st.lists(st.tuples(st.tuples(huge, huge, huge).filter(any), st.integers(1, 3)), min_size=1, max_size=8))
    def test_huge_coefficients(self, forms):
        assert_sweep_matches_gcd_keys(forms)

    @given(
        st.lists(st.tuples(centres, directions), min_size=1, max_size=3),
        st.lists(st.tuples(huge, huge, huge).filter(any), max_size=3),
    )
    def test_concurrent_lines_through_far_points(self, pencils, extra):
        forms = [(raw, 1) for raw in extra]
        for centre, dirs in pencils:
            forms += lines_through(centre, dirs)
        assume(forms)
        assert_sweep_matches_gcd_keys(forms)

    @pytest.mark.parametrize("bound", [2, 10, 999, 10**6, 10**12, 10**40])
    def test_farey_neighbours_near_the_bound(self, bound):
        swept = assert_sweep_matches_gcd_keys(farey_forms(bound))
        assert [0, 1, 3] in swept and [0, 2, 4] in swept

    @pytest.mark.parametrize("bound", [3, 10**6, 10**12])
    def test_points_with_x_zero(self, bound):
        # Line (a, b, c) meets every line (p, q, r) through (c : 0 : -a)
        # there, where x = c*p - a*r = 0: a pencil of four lines keyed by
        # None at line 0.  Line (1, 1, 1) meets only (1, 5, 1) at its own
        # x = 0 point, (1 : 0 : -1).
        a, b, c = bound, 1, bound - 1
        forms = [((a, b, c), 1)] + lines_through((c, 0, -a), [(0, 1, 0), (1, 1, 0), (bound, 7, 2)])
        forms += [((1, 1, 1), 2), ((1, 5, 1), 1), ((2, -3, bound), 1)]
        swept = assert_sweep_matches_gcd_keys(forms)
        assert [0, 1, 2, 3] in swept and [4, 5] in swept

    @pytest.mark.parametrize("bound", [1, 4, 10**12])
    def test_lines_led_by_the_second_or_third_coordinate(self, bound):
        # Lines (0, 1, t*B) and (0, 0, 1) all pass through (1 : 0 : 0): a
        # pencil found in the rotated frame of (0, 1, -2B).  The points
        # (0 : B : -1) and (B : 0 : 1) are met by (0, 1, B) and (0, 1, 0) in
        # that frame, and (0 : 1 : 0) by (0, 0, 1) in the frame of lines led
        # by their third coordinate.
        forms = [((0, 1, t * bound), 1) for t in range(-2, 3)] + [((0, 0, 1), 2)]
        forms += lines_through((0, bound, -1), [(1, 0, 0), (1, 1, 1), (0, 0, 1)])
        forms += lines_through((bound, 0, 1), [(0, 1, 0), (1, 2, 3)])
        swept = assert_sweep_matches_gcd_keys(forms)
        assert all(on in swept for on in ([0, 1, 2, 3, 4, 5], [3, 6, 7], [2, 8, 9], [5, 7, 8]))


def is_node(point_type):
    """A point on exactly two lines: two branches of multiplicity 1."""
    return len(point_type) == 2 and point_type[0][1] == point_type[1][1] == 1


def assert_matches_graph_summary(forms):
    """The summary straight from incidence is the graph's summary less its
    simple nodes, and the nodes it leaves out are exactly the pairs of lines
    that meet at no point on three or more lines: C(L, 2) - sum_v C(r_v, 2)
    over the points it keeps."""
    incidence = _Incidence(forms)
    summary = incidence.point_types()
    full = incidence_graph(forms).point_types
    nodes = sum(n for t, n in full.histogram.items() if is_node(t))
    kept = {t: n for t, n in full.histogram.items() if not is_node(t)}
    assert summary == PointTypeSummary(full.degree_by_mult, full.comp_pairs, kept)
    assert all(summary.histogram.values())
    lines = len(incidence.lines)
    assert nodes == comb(lines, 2) - sum(n * comb(len(t), 2) for t, n in summary.histogram.items())
    # The nodes add nothing: the kernel on the graph's full summary.
    assert spectrum_of_point_types(full) == spectrum_of_point_types(summary)
    return summary


class TestPointTypeSummary:
    """The summary straight from incidence equals the summary of the graph
    less its points on exactly two lines."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_graph_summary(self, seed):
        forms = random_line_forms(seed)
        summary = assert_matches_graph_summary(forms)
        # RR, fed by the graph's summary, against the kernel and RR, both
        # fed by the summary built from line incidence.
        assert spectrum_via_riemann_roch(incidence_graph(forms)) == spectrum_of_point_types(summary)
        assert _spectrum_of_point_types(summary) == spectrum_of_point_types(summary)

    def test_riemann_roch_on_the_summary_of_stored_line_files(self):
        items = json.loads((BENCH_DATA / "lines.json").read_text(encoding="utf-8"))["items"]
        assert len(items) >= 30
        for item in items:
            forms = [(entry["form"], entry.get("multiplicity", 1)) for entry in item["input"]]
            rr = _spectrum_of_point_types(_Incidence(forms).point_types())
            assert format_spectrum(rr) + "\n" == item["stdout"]
            assert rr == spectrum_via_riemann_roch(incidence_graph(forms))

    @pytest.mark.parametrize("seed", range(40))
    def test_concurrent_lines_match_graph_summary(self, seed):
        assert_matches_graph_summary(concurrent_line_forms(seed))

    def test_shared_line_through_two_large_points(self):
        # Besides the two points on four lines, x + y + z = 0 passes through
        # (0 : 1 : -1) on x = 0 and y + z = 0, and (1 : -1 : 0) on z = 0 and
        # x + y = 0.
        summary = assert_matches_graph_summary(shared_line_forms())
        assert summary.histogram == {
            ((1, 1), (1, 1), (2, 1), (3, 1)): 1,
            ((1, 1), (2, 1), (3, 1), (3, 1)): 1,
            ((1, 1), (2, 1), (3, 1)): 1,
            ((1, 1), (2, 1), (2, 1)): 1,
        }

    def test_two_line_types_all_inside_larger_points_are_dropped(self):
        # Four lines of multiplicity 1 through one point: every pair of
        # them meets there, so no point lies on exactly two of them.  The
        # four nodes on the fifth line are left out too.
        forms = [((1, t, 0), 1) for t in range(4)] + [((0, 0, 1), 2)]
        summary = assert_matches_graph_summary(forms)
        assert summary.histogram == {((1, 1), (1, 1), (1, 1), (1, 1)): 1}

    def test_type_is_the_sorted_tuple_of_line_multiplicities(self):
        # A pencil of three lines through (0, 0, 1) and a fourth line z = 0.
        summary = assert_matches_graph_summary([((1, 0, 0), 3), ((0, 1, 0), 1), ((1, 1, 0), 2), ((0, 0, 1), 2)])
        assert summary.histogram == {((1, 1), (2, 1), (3, 1)): 1}
        assert summary.degree_by_mult == {1: 1, 2: 2, 3: 1}
        assert summary.comp_pairs == 0


class TestLineValidation:
    """Line data can break an invariant only at its components, so checking
    the components alone (as ``line_incidence`` does) checks everything."""

    @pytest.mark.parametrize("seed", range(60))
    def test_no_point_level_errors(self, seed):
        rng = random.Random(seed)
        forms = [(raw, m if rng.random() < 0.8 else rng.randint(-3, 0)) for raw, m in random_line_forms(seed)]
        g = incidence_graph(forms)
        report = validate(g)
        assert all(loc == "components" or loc.startswith("component ") for _, _, loc in report.errors)
        assert report.errors == validate(ArrangementGraph(g.components, ())).errors
        if report.errors:
            with pytest.raises(InvalidArrangementError) as caught:
                line_incidence(forms)
            assert caught.value.report.errors == report.errors
        else:
            assert line_incidence(forms).graph() == g

    def test_rejects_before_the_pair_loop(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("the pair loop ran")

        monkeypatch.setattr(_Incidence, "_sweep", refuse)
        with pytest.raises(InvalidArrangementError):
            line_incidence([((1, 0, 0), 2), ((2, 0, 0), -2), ((0, 1, 0), 1)])

    @pytest.mark.parametrize(
        "forms, codes",
        [
            ([(X, 1), (Y, 2), (Z, 3)], []),
            ([(X, 0), (Y, 1)], ["nonpositive-multiplicity"]),
            ([(X, -3), (Y, 1), (Z, 0)], ["nonpositive-multiplicity"] * 2),
            ([(X, 2), ((2, 0, 0), -2), (Y, 1)], ["nonpositive-multiplicity"]),
            ([(X, 2), (("-1/2", 0, 0), -3), (Y, 1)], ["nonpositive-multiplicity"]),
            ([(X, 1), ((3, 0, 0), -1), (Y, 0), ((0, -1, 0), 1)], ["nonpositive-multiplicity"]),
            ([(X, MAX_TOTAL_DEGREE - 1), (Y, 1)], []),
            ([(X, MAX_TOTAL_DEGREE), (Y, 1)], ["total-degree-too-large"]),
            ([(X, MAX_TOTAL_DEGREE - 2), ((3, 0, 0), 1), (Y, 1)], []),
            ([(X, MAX_TOTAL_DEGREE - 1), ((3, 0, 0), 1), (Y, 1)], ["total-degree-too-large"]),
            ([(X, MAX_TOTAL_DEGREE + 5), (Y, -5)], ["nonpositive-multiplicity"]),
            ([(X, MAX_TOTAL_DEGREE + 6), (Y, -5)], ["nonpositive-multiplicity", "total-degree-too-large"]),
            ([(X, 0), (Y, MAX_TOTAL_DEGREE + 1)], ["nonpositive-multiplicity", "total-degree-too-large"]),
        ],
    )
    def test_merged_checks_match_the_component_records(self, monkeypatch, forms, codes):
        records = ArrangementGraph(_Incidence(forms).components(), ())
        assert [code for code, _, _ in validate(records).errors] == codes
        if codes:
            with pytest.raises(InvalidArrangementError) as caught:
                line_incidence(forms)
            with pytest.raises(InvalidArrangementError) as expected:
                require_valid(records)
            assert caught.value.report.errors == expected.value.report.errors
            assert str(caught.value) == str(expected.value)
        else:
            def refuse(*args):
                raise AssertionError("a Component was built")

            monkeypatch.setattr(curvespec.lines, "Component", refuse)
            line_incidence(forms)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([X, Y, Z, (1, 1, 0), (2, 0, 0), (-1, -1, 0), (0, "1/2", 0)]),
                st.sampled_from([-2, -1, 0, 1, 2, MAX_TOTAL_DEGREE // 2, MAX_TOTAL_DEGREE]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_merged_checks_raise_what_require_valid_raises(self, forms):
        records = ArrangementGraph(_Incidence(forms).components(), ())
        try:
            require_valid(records)
        except InvalidArrangementError as exc:
            with pytest.raises(InvalidArrangementError) as caught:
                line_incidence(forms)
            assert caught.value.report.errors == exc.report.errors
            assert str(caught.value) == str(exc)
        else:
            assert line_incidence(forms).mults == [c.multiplicity for c in records.components]


def test_summary_memory_does_not_grow_with_the_points():
    # 300 general-position lines meet in 44 850 points, each on two lines;
    # the summary leaves those points out and stores none of them.
    forms = [((1, t, t * t), 1) for t in range(300)]
    tracemalloc.start()
    try:
        spectrum_of_point_types(line_incidence(forms).point_types())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def schema_reading(data):
    """``load_lines`` on decoded JSON with every entry read by the schema
    checks alone: the reference its inline reading must match."""
    out = []
    for i, entry in enumerate(data):
        raw, mult = _object(entry, _ENTRY, "entry {}", i, error=LineFileError)
        if not isinstance(raw, list) or len(raw) != 3:
            raise LineFileError(f"entry {i}: 'form' must be a 3-element array")
        form = _integer_triple(raw, "entry {}, coefficient {}", i)
        out.append((form, _require(mult, int, "entry {}: multiplicity", i, error=LineFileError)))
    return out


@st.composite
def line_entries_around_the_inline_shape(draw):
    """A line file entry, mostly of the inline shape ({"form": three ints}
    and maybe an int "multiplicity"), else one step off it."""
    value = st.one_of(
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.booleans(),
        st.floats(-3, 3, allow_nan=False),
        st.builds("{}/{}".format, st.integers(-5, 5), st.integers(0, 4)),
        st.none(),
    )
    ints = st.integers(-5, 5)
    kind = draw(st.sampled_from(["ints"] * 12 + ["mixed", "short", "long", "not a list"]))
    if kind == "ints":
        form = draw(st.lists(ints, min_size=3, max_size=3))
    elif kind == "mixed":
        form = draw(st.lists(st.one_of(ints, value), min_size=3, max_size=3))
    elif kind == "short":
        form = draw(st.lists(ints, min_size=0, max_size=2))
    elif kind == "long":
        form = draw(st.lists(ints, min_size=4, max_size=5))
    else:
        form = draw(st.one_of(value, st.dictionaries(st.just("a"), ints)))
    rare = st.sampled_from([False] * 19 + [True])
    entry = {} if draw(rare) else {"form": form}
    if draw(st.booleans()):
        entry["multiplicity"] = draw(st.one_of(ints, ints, ints, ints, value))
    if draw(rare):
        entry[draw(st.sampled_from(["weight", "Form", ""]))] = draw(ints)
    if draw(rare):
        return draw(st.one_of(st.just(form), value))  # not an object at all
    return entry



class TestLoadLines:
    def write(self, tmp_path, payload):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"form": [1, 0, 0], "multiplicity": 2},
                {"form": ["0", "1/3", "0"]},
            ],
        )
        forms = load_lines(path)
        assert forms == [((1, 0, 0), 2), ((0, 1, 0), 1)]
        for (form, _), raw in zip(forms, ([1, 0, 0], ["0", "1/3", "0"])):
            assert normalize_form(form) == normalize_form(raw)
        g = incidence_graph(forms)
        assert g == two_line_powers(2, 1)

    def test_forms_come_back_with_denominators_cleared(self, tmp_path):
        # Integer triples, not yet primitive; a zero form passes here and
        # is reported by normalize_form once the whole file is read.
        path = self.write(tmp_path, [{"form": ["2/3", "-4/9", 2]}, {"form": [0, "0/5", 0]}, {"form": [4, 6, 8]}])
        assert load_lines(path) == [((6, -4, 18), 1), ((0, 0, 0), 1), ((4, 6, 8), 1)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(LineFileError):
            load_lines(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "lines.json"
        path.write_text("[{", encoding="utf-8")
        with pytest.raises(LineFileError):
            load_lines(str(path))

    @pytest.mark.parametrize(
        "payload",
        [
            {"form": [1, 0, 0]},
            [[1, 0, 0]],
            [{"form": [1, 0, 0], "weight": 1}],
            [{"multiplicity": 1}],
            [{"form": [1, 0]}],
            [{"form": [1, 0, 0, 0]}],
            [{"form": "x"}],
            [{"form": [1.5, 0, 0]}],
            [{"form": [True, 0, 0]}],
            [{"form": ["x+y", 0, 0]}],
            [{"form": [1, 0, 0], "multiplicity": 1.5}],
            [{"form": [1, 0, 0], "multiplicity": True}],
        ],
    )
    def test_schema_violations(self, tmp_path, payload):
        with pytest.raises(LineFileError):
            load_lines(self.write(tmp_path, payload))

    @given(entries=st.lists(line_entries_around_the_inline_shape(), max_size=4))
    def test_inline_reading_matches_the_schema_checks(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("entries") / "lines.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        try:
            expected = schema_reading(json.loads(path.read_text(encoding="utf-8")))
        except LineFileError as exc:
            with pytest.raises(LineFileError) as caught:
                load_lines(str(path))
            assert str(caught.value) == str(exc)
        else:
            forms = load_lines(str(path))
            assert forms == expected
            assert all(type(form) is tuple and type(mult) is int for form, mult in forms)

