import dataclasses
import inspect
import json
import typing
from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvespec.arrangement
import curvespec.cli

from conftest import (
    ARRANGEMENT_NUMBERS,
    CHECK_BOUNDS,
    MUTANT_VALUES,
    SMALL_ARRANGEMENT,
    arrangement_graphs,
    graph,
    line_and_nodal_cubic,
    manifest_generator,
    mutated,
    nodal_cubic,
    pencil_graph,
    triangle_graph,
    two_line_powers,
)
from curvespec.arrangement import (
    ArrangementFormatError,
    ArrangementGraph,
    Branch,
    Component,
    InvalidArrangementError,
    MAX_TOTAL_DEGREE,
    SingularPoint,
    complement_euler_characteristic,
    derived,
    graph_from_dict,
    graph_to_dict,
    load_arrangement,
    require_valid,
    validate,
)
from curvespec.arrangement import _COMPONENT, _object
from curvespec.binomial import binom
from curvespec.cli import main
from curvespec.cohomology import CohClass
from curvespec.formulas import (
    spectrum_general,
    spectrum_hyperplane,
    spectrum_reduced,
    spectrum_smooth_components,
)
from curvespec.randomgraphs import GraphBounds, SplitMix64, generate_graph, insert_smooth_point, insert_snc_node
from curvespec.riemann_roch import (
    chern_cotangent_log,
    chern_cotangent_log_closed,
    chern_tangent,
    euler_characteristic,
    spectrum_via_riemann_roch,
    todd,
    todd_closed,
    twist_class,
)


def error_codes(g):
    return {code for code, _, _ in validate(g).errors}


def warning_codes(g):
    return {code for code, _, _ in validate(g).warnings}


class TestValidate:
    def test_nodal_cubic_clean(self):
        report = validate(nodal_cubic())
        assert report.ok
        assert not report.warnings

    def test_empty_components(self):
        assert "empty-components" in error_codes(ArrangementGraph(()))

    def test_duplicate_component_id(self):
        g = ArrangementGraph((Component("a", 1), Component("a", 2)))
        assert "duplicate-component-id" in error_codes(g)

    def test_nonpositive_degree_and_multiplicity(self):
        g = ArrangementGraph((Component("a", 0), Component("b", 2, 0)))
        codes = error_codes(g)
        assert "nonpositive-degree" in codes
        assert "nonpositive-multiplicity" in codes

    def test_unknown_component_reference(self):
        g = ArrangementGraph(
            (Component("a", 2),),
            (SingularPoint("v", (Branch("missing", 1),)),),
        )
        assert "unknown-component" in error_codes(g)

    def test_duplicate_point_id_and_branch(self):
        g = ArrangementGraph(
            (Component("a", 2),),
            (
                SingularPoint("v", (Branch("a", 1), Branch("a", 1))),
                SingularPoint("v", (Branch("a", 2),)),
            ),
        )
        codes = error_codes(g)
        assert "duplicate-point-id" in codes
        assert "duplicate-branch" in codes

    def test_empty_branches(self):
        g = ArrangementGraph((Component("a", 1),), (SingularPoint("v", ()),))
        assert "empty-branches" in error_codes(g)

    def test_branch_multiplicity_exceeds_degree(self):
        g = graph([(2, 1)], [[(0, 3)]])
        assert "branch-mult-exceeds-degree" in error_codes(g)

    def test_nonpositive_branch_multiplicity(self):
        g = ArrangementGraph((Component("a", 2),), (SingularPoint("v", (Branch("a", 0),)),))
        assert "nonpositive-branch-mult" in error_codes(g)

    def test_empty_ids(self):
        g = ArrangementGraph((Component("", 1),), (SingularPoint("", (Branch("", 1),)),))
        assert "empty-id" in error_codes(g)

    def test_total_degree_limit(self):
        at_limit = ArrangementGraph((Component("a", 1, MAX_TOTAL_DEGREE),))
        assert validate(at_limit).ok
        over = ArrangementGraph((Component("a", 1, MAX_TOTAL_DEGREE - 1), Component("b", 2)))
        assert validate(over).errors == (
            (
                "total-degree-too-large",
                f"total degree {MAX_TOTAL_DEGREE + 1} exceeds the limit {MAX_TOTAL_DEGREE}",
                "components",
            ),
        )

    def test_total_degree_too_long_to_print(self):
        huge = 10**8000  # str() refuses ints of more than 4300 digits
        report = validate(ArrangementGraph((Component("a", huge, -huge),)))
        assert [code for code, _, _ in report.errors] == ["nonpositive-multiplicity"]
        report = validate(ArrangementGraph((Component("a", huge, huge),)))
        ((code, message, location),) = report.errors
        assert (code, location) == ("total-degree-too-large", "components")
        assert message == f"total degree {'1' + '0' * 76}... exceeds the limit {MAX_TOTAL_DEGREE}"

    def test_snc_warning(self):
        assert warning_codes(two_line_powers(1, 1)) == {"snc-node"}

    def test_smooth_point_warning(self):
        g = graph([(2, 1)], [[(0, 1)]])
        assert warning_codes(g) == {"smooth-point"}

    def test_ordinary_point_no_warning(self):
        assert not validate(nodal_cubic()).warnings

    def test_warnings_are_worded_when_read(self, monkeypatch):
        # Two simple nodes, a smooth point, an ordinary triple point and a
        # point with an error, which gets no warning.
        g = graph(
            [(1, 1), (1, 1), (2, 1), (1, 1)],
            [[(0, 1), (1, 1)], [(0, 1), (2, 1)], [(2, 1)], [(0, 1), (1, 1), (3, 1)], [(1, 1), (1, 1)]],
        )
        point_at = curvespec.arrangement._point_at
        worded = []

        def counted(point, branch=None):
            worded.append(point.id)
            return point_at(point, branch)

        monkeypatch.setattr(curvespec.arrangement, "_point_at", counted)
        report = validate(g)
        assert worded == ["v5"]  # the duplicate-branch error alone
        assert [(code, point.id) for code, point in report.flagged] == [
            ("snc-node", "v1"), ("snc-node", "v2"), ("smooth-point", "v3")
        ]
        assert report.warnings == (
            ("snc-node", "transverse crossing of two components (simple node)", "point 'v1'"),
            ("snc-node", "transverse crossing of two components (simple node)", "point 'v2'"),
            ("smooth-point", "total branch multiplicity 1: point is a smooth point of the union", "point 'v3'"),
        )
        assert report.warnings is report.warnings
        assert worded == ["v5", "v1", "v2", "v3"]

    @given(arrangement_graphs())
    def test_generated_graphs_valid(self, g):
        assert validate(g).ok

    def test_require_valid_raises_with_report(self):
        g = ArrangementGraph(())
        with pytest.raises(InvalidArrangementError) as err:
            require_valid(g)
        assert err.value.report.errors


@pytest.fixture
def validate_calls(monkeypatch):
    """The graphs passed to curvespec.arrangement.validate, in call order."""
    calls = []
    validate = curvespec.arrangement.validate

    def counted(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(curvespec.arrangement, "validate", counted)
    return calls


LINES_THROUGH_A_POINT = {
    "components": [{"id": "a", "degree": 1}, {"id": "b", "degree": 1}, {"id": "c", "degree": 1}],
    "points": [{"id": "v", "branches": [{"component": "a"}, {"component": "b"}, {"component": "c"}]}],
}
DOUBLE_LINES = {
    "components": [{"id": "a", "degree": 1, "multiplicity": 2}, {"id": "b", "degree": 1, "multiplicity": 2}],
    "points": [{"id": "v", "branches": [{"component": "a"}, {"component": "b"}]}],
}

# Every public entry that takes a graph, called on one.
GRAPH_ENTRIES = {
    "spectrum_general": spectrum_general,
    "spectrum_reduced": spectrum_reduced,
    "spectrum_smooth_components": spectrum_smooth_components,
    "spectrum_hyperplane": spectrum_hyperplane,
    "chern_tangent": chern_tangent,
    "chern_cotangent_log": chern_cotangent_log,
    "chern_cotangent_log_closed": chern_cotangent_log_closed,
    "todd": todd,
    "todd_closed": todd_closed,
    "twist_class": lambda g: twist_class(g, 1),
    "euler_characteristic": lambda g: euler_characteristic(g, 0, CohClass()),
    "spectrum_via_riemann_roch": spectrum_via_riemann_roch,
    "point_types": lambda g: g.point_types,
}


COMPUTE_OPTIONS = pytest.mark.parametrize(
    "options",
    [[], ["--verify"], ["--formula", "smooth"], ["--formula", "hyperplane"]],
    ids=["auto", "verify", "smooth", "hyperplane"],
)


class TestValidatedOnce:
    """A graph keeps its validation report, so each graph object is
    validated once, however many entries it passes through; a file is
    never checked twice."""

    @pytest.mark.parametrize("doc", [LINES_THROUGH_A_POINT, DOUBLE_LINES], ids=["reduced", "non-reduced"])
    @COMPUTE_OPTIONS
    def test_one_call_per_compute(self, tmp_path, capsys, monkeypatch, validate_calls, doc, options):
        # A valid file is checked by the one pass that reads it, so no route
        # calls validate, and only --formula smooth builds point records.
        loaded = []

        def load(path):
            loaded.append(load_arrangement(path))
            return loaded[-1]

        monkeypatch.setattr(curvespec.cli, "load_arrangement", load)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path), *options]) == 0
        assert validate_calls == []
        assert ("points" in loaded[0].__dict__) == (options == ["--formula", "smooth"])

    @COMPUTE_OPTIONS
    def test_one_call_per_invalid_compute(self, tmp_path, capsys, validate_calls, options):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**LINES_THROUGH_A_POINT, "components": LINES_THROUGH_A_POINT["components"][:2]}))
        assert main(["compute", str(path), *options]) == 2
        assert capsys.readouterr().err.startswith("error [unknown-component] point 'v', branch 'c'")
        assert len(validate_calls) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_check_validates_each_graph_once(self, capsys, monkeypatch, validate_calls, seed):
        # check also inserts a smooth point and, given two components, a
        # node; each inserted graph extends the drawn graph's report, which
        # is the report validate gives it.
        inserted = []

        def recorded(insert):
            def run(g, rng):
                inserted.append(insert(g, rng))
                return inserted[-1]

            return run

        for name in ("insert_snc_node", "insert_smooth_point"):
            monkeypatch.setattr(curvespec.cli, name, recorded(getattr(curvespec.cli, name)))
        drawn = generate_graph(SplitMix64(seed), GraphBounds())
        assert main(["check", "--count", "1", "--seed", str(seed)]) == 0
        assert validate_calls == [drawn]
        assert len(inserted) == (2 if len(drawn.components) >= 2 else 1)
        for g in inserted:
            assert len(g.points) == len(drawn.points) + 1
            assert g.__dict__["_report"] == validate(g)

    @pytest.mark.parametrize("entry", GRAPH_ENTRIES.values(), ids=GRAPH_ENTRIES.keys())
    def test_invalid_graph_raises_on_every_call(self, validate_calls, entry):
        g = graph([(1, 1)], [[(0, 1), (0, 1)]])  # the line listed twice at one point
        for _ in range(3):
            with pytest.raises(InvalidArrangementError) as err:
                entry(g)
            assert [code for code, _, _ in err.value.report.errors] == ["duplicate-branch"]
        assert validate_calls == [g]


def kept_report(g):
    """The report a graph keeps, or None if it has not made one."""
    return g.__dict__.get("_report")


def assert_kept_report_is_validate(g):
    kept, fresh = kept_report(g), validate(g)
    assert kept.errors == fresh.errors
    assert kept.flagged == fresh.flagged
    assert kept.point_types == fresh.point_types
    assert hash(kept) == hash(fresh)


# The (seed, count) of each seeded `check` run: acceptance criterion 2 and CI.
CHECK_RUNS = {"default": (1, 200), "wide": (2, 500), "many_point": (3, 200), "reduced": (4, 300)}

# A validated parent with components l1 (degree 2) and l2 (degree 3) and
# the point v1; each appended point below has one error.
WITH_POINT_ERRORS = {
    "duplicate-point-id": SingularPoint("v1", (Branch("l1"),)),
    "empty-id": SingularPoint("", (Branch("l1"),)),
    "unknown-component": SingularPoint("w", (Branch("l9"),)),
    "duplicate-branch": SingularPoint("w", (Branch("l1"), Branch("l1"))),
    "nonpositive-branch-mult": SingularPoint("w", (Branch("l1", 0),)),
    "branch-mult-exceeds-degree": SingularPoint("w", (Branch("l1", 3),)),
    "empty-branches": SingularPoint("w", ()),
}


@st.composite
def appended_points(draw, g):
    """A point to append to ``g``, valid or not: its id may repeat or be
    empty, its branches may name unknown or repeated components, with
    multiplicities from -1 to one above the largest degree."""
    ids = [p.id for p in g.points] + ["", "w1", "w2"]
    comps = [c.id for c in g.components] + ["zz"]
    top = max(c.degree for c in g.components) + 1
    branches = draw(st.lists(st.tuples(st.sampled_from(comps), st.integers(-1, top)), max_size=4))
    return SingularPoint(draw(st.sampled_from(ids)), tuple(Branch(c, m) for c, m in branches))


class TestWithPoint:
    """with_point appends one point; a graph with a valid kept report hands
    the new graph that report extended by the checks on the new point,
    which is the report validate gives the new graph."""

    @given(st.data())
    def test_kept_report_is_validate(self, data):
        parent = data.draw(arrangement_graphs())
        point = data.draw(appended_points(parent))
        assert parent.point_types is not None
        child = parent.with_point(point)
        assert child.points == parent.points + (point,)
        assert child.components == parent.components
        assert_kept_report_is_validate(child)

    @pytest.mark.parametrize("name", CHECK_RUNS)
    def test_kept_report_is_validate_on_check_corpora(self, name):
        # The draws of `check`: the graph, then a node given two components,
        # then a smooth point, both added to the drawn graph.
        seed, count = CHECK_RUNS[name]
        bounds = CHECK_BOUNDS[name]
        rng = SplitMix64(seed)
        for _ in range(count):
            g = generate_graph(rng, bounds)
            assert g.point_types is not None
            children = [insert_snc_node(g, rng)] if len(g.components) >= 2 else []
            children.append(insert_smooth_point(g, rng))
            for child in children:
                assert_kept_report_is_validate(child)

    @pytest.mark.parametrize("code", WITH_POINT_ERRORS)
    def test_each_error_of_the_new_point(self, code):
        parent = graph([(2, 1), (3, 1)], [[(0, 2), (1, 2)]])
        assert parent.point_types is not None
        child = parent.with_point(WITH_POINT_ERRORS[code])
        assert_kept_report_is_validate(child)
        assert [c for c, _, _ in kept_report(child).errors] == [code]
        assert kept_report(child).point_types is None
        with pytest.raises(InvalidArrangementError):
            require_valid(child)

    def test_unvalidated_parent_hands_on_no_report(self, validate_calls):
        parent = nodal_cubic()
        child = parent.with_point(SingularPoint("w", (Branch("l1"),)))
        assert kept_report(parent) is None and kept_report(child) is None
        assert child.point_types is not None
        assert validate_calls == [child]

    def test_invalid_parent_hands_on_no_report(self, validate_calls):
        parent = graph([(2, 1)], [[(0, 3)]])  # the branch exceeds the degree
        assert not parent._report.ok
        child = parent.with_point(SingularPoint("w", (Branch("l1"),)))
        assert kept_report(child) is None
        assert [c for c, _, _ in child._report.errors] == ["branch-mult-exceeds-degree"]
        assert validate_calls == [parent, child]


class TestInvalidPointTypes:
    """A graph's point_types is validate's summary, so an invalid graph has
    none: reading it raises, as every graph route does."""

    @pytest.mark.parametrize(
        "g, code",
        [
            (ArrangementGraph((Component("a", 1),), (SingularPoint("v", (Branch("b"),)),)), "unknown-component"),
            (ArrangementGraph((Component("a", 1, 0), Component("c", 1))), "nonpositive-multiplicity"),
            (
                ArrangementGraph(
                    (Component("a", 1, 0), Component("c", 1)),
                    (SingularPoint("v", (Branch("a"), Branch("c"))),),
                ),
                "nonpositive-multiplicity",
            ),
        ],
        ids=["unknown-component", "zero-multiplicity", "zero-multiplicity-at-a-point"],
    )
    def test_invalid_graph_has_no_summary(self, g, code):
        assert validate(g).point_types is None
        with pytest.raises(InvalidArrangementError) as err:
            g.point_types
        assert [c for c, _, _ in err.value.report.errors] == [code]


def cubic_with_point(point):
    """The validated cubic "c" with the point v (branch multiplicity 2),
    with ``point`` appended by ``with_point``."""
    parent = ArrangementGraph((Component("c", 3),), (SingularPoint("v", (Branch("c", 2),)),))
    assert parent.point_types is not None
    return parent.with_point(point)


# Records built through the API with a field of a type no file reader
# accepts, and the error codes validate gives them; a point stands for the
# cubic with that point appended by with_point.
MISTYPED_RECORDS = {
    "str-degree": (ArrangementGraph((Component("c", "3"),)), ["non-integer"]),
    "str-degree-under-a-branch": (
        ArrangementGraph((Component("c", "3"),), (SingularPoint("v", (Branch("c", 2),)),)),
        ["non-integer"],
    ),
    "str-branch-mult": (
        ArrangementGraph((Component("c", 3),), (SingularPoint("v", (Branch("c", "2"),)),)),
        ["non-integer"],
    ),
    "float-multiplicity": (ArrangementGraph((Component("c", 3, 1.5),)), ["non-integer"]),
    "float-degree": (ArrangementGraph((Component("c", 2.0),)), ["non-integer"]),
    "bool-multiplicity": (ArrangementGraph((Component("c", 3, True),)), ["non-integer"]),
    "list-component-id": (ArrangementGraph((Component(["c"], 3), Component(["c"], 1))), ["empty-id", "empty-id"]),
    "int-point-id-and-branch-component": (
        ArrangementGraph((Component("c", 3),), (SingularPoint(7, (Branch(3),)),)),
        ["empty-id", "unknown-component"],
    ),
    "list-point-id-and-branch-component": (
        ArrangementGraph((Component("c", 3),), (SingularPoint(["v"], (Branch(["c"]), Branch(["c"]))),)),
        ["empty-id", "unknown-component", "unknown-component"],
    ),
    "with-point-float-branch-mult": (SingularPoint("w", (Branch("c", 2.0),)), ["non-integer"]),
    "with-point-list-id": (SingularPoint(["w"], (Branch("c"),)), ["empty-id"]),
}


class TestMistypedRecords:
    """validate is total on records built through the API: a number that
    is not an int, or is a bool, and an id that is not a str are errors,
    so no route meets them."""

    @pytest.mark.parametrize("g, codes", MISTYPED_RECORDS.values(), ids=MISTYPED_RECORDS.keys())
    def test_every_route_raises_invalid_arrangement(self, g, codes):
        if isinstance(g, SingularPoint):
            g = cubic_with_point(g)
        errors = validate(g).errors
        assert [code for code, _, _ in errors] == codes
        assert all("must be an integer, got" in message for code, message, _ in errors if code == "non-integer")
        assert g._report.errors == errors
        with pytest.raises(InvalidArrangementError):
            require_valid(g)
        for route in (
            spectrum_general,
            spectrum_reduced,
            spectrum_smooth_components,
            spectrum_hyperplane,
            spectrum_via_riemann_roch,
        ):
            with pytest.raises(InvalidArrangementError):
                route(g)

    def test_message_names_the_field(self):
        g = ArrangementGraph((Component("c", 2.0, True),), (SingularPoint("v", (Branch("c", "1"),)),))
        assert validate(g).errors == (
            ("non-integer", "degree must be an integer, got 2.0", "component 'c'"),
            ("non-integer", "multiplicity must be an integer, got True", "component 'c'"),
            ("non-integer", "branch multiplicity must be an integer, got '1'", "point 'v', branch 'c'"),
        )


class TestDerived:
    def test_line_and_nodal_cubic(self):
        data = derived(line_and_nodal_cubic())
        assert data.total_degree == 4
        assert data.point_mult == {"v1": 3, "v2": 2}

    def test_single_component_with_double_point(self):
        data = derived(nodal_cubic())
        assert data.total_degree == 3
        assert data.point_mult == {"v1": 2}

    def test_two_double_lines(self):
        data = derived(two_line_powers(2, 2))
        assert data.total_degree == 4
        assert data.point_mult == {"v1": 4}

    @given(arrangement_graphs())
    def test_aggregates_are_sums(self, g):
        data = derived(g)
        assert data.total_degree == sum(c.multiplicity * c.degree for c in g.components)
        mult = {c.id: c.multiplicity for c in g.components}
        for p in g.points:
            assert data.point_mult[p.id] == sum(mult[b.component] * b.mult for b in p.branches)


def pairwise_complement_euler_characteristic(g):
    """3 - chi(C) with every sum over component pairs written out."""
    through = {c.id: {} for c in g.components}
    for p in g.points:
        for br in p.branches:
            through[br.component][p.id] = br.mult
    chi = 0
    for c in g.components:
        genus = binom(c.degree - 1, 2) - sum(binom(m, 2) for m in through[c.id].values())
        chi += 2 - 2 * genus
    chi -= sum(sum(br.mult for br in p.branches) - 1 for p in g.points)
    comps = g.components
    for i, a in enumerate(comps):
        for b in comps[i + 1 :]:
            listed = sum(m * through[b.id].get(v, 0) for v, m in through[a.id].items())
            chi -= a.degree * b.degree - listed
    return 3 - chi


class TestComplementEulerCharacteristic:
    @pytest.mark.parametrize(
        "g, chi",
        [
            (graph([(1, 1)]), 1),  # the affine plane
            (graph([(3, 1)]), 3),  # smooth cubic: chi(C) = 0
            (nodal_cubic(), 2),  # a sphere with two points glued
            (two_line_powers(1, 1), 0),  # C x C*
            (graph([(1, 1), (1, 1)]), 0),  # the same node left implicit
            (triangle_graph(), 0),  # (C*)^2
            (pencil_graph(), -1),  # C x (P^1 minus three points)
        ],
    )
    def test_known_complements(self, g, chi):
        assert complement_euler_characteristic(g) == chi

    @given(arrangement_graphs(max_components=5, max_points=6))
    def test_matches_pairwise_sums(self, g):
        assert complement_euler_characteristic(g) == pairwise_complement_euler_characteristic(g)


CUBIC = {"id": "c", "degree": 3}

# graph_from_dict's diagnostics, which `compute` prints as they are: a
# non-object, unknown keys and missing keys at each level, bad scalar types
# and non-list arrays.  Errors are found in document order, except that a
# point's branches are read before its id.
SCHEMA_VIOLATIONS = [
    ([], "arrangement must be a JSON object, got list"),
    ({"components": {}}, "'components' must be a list"),
    ({"components": [{"id": "c"}]}, "components[0] needs 'id' and 'degree'"),
    ({"components": [{"id": "c", "degree": "3"}]}, "components[0].degree must be an integer, got '3'"),
    ({"components": [{"id": 1, "degree": 3}]}, "components[0].id must be a string, got 1"),
    ({"components": [{"id": "c", "degree": 3.0}]}, "components[0].degree must be an integer, got 3.0"),
    ({"components": [{"id": "c", "degree": True}]}, "components[0].degree must be an integer, got True"),
    ({"components": [{"id": "c", "degree": 3, "extra": 1}]}, "components[0] has unknown keys: ['extra']"),
    ({"components": [CUBIC], "points": [{"id": "v"}]}, "points[0] needs 'id' and 'branches'"),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{}]}]},
        "points[0].branches[0] needs 'component'",
    ),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{"component": "c", "mult": "2"}]}]},
        "points[0].branches[0].mult must be an integer, got '2'",
    ),
    ({"components": [CUBIC], "extra": []}, "arrangement has unknown keys: ['extra']"),
    ({"components": [], 1: 2, "x": 3}, "arrangement has unknown keys: ['x', 1]"),
    (None, "arrangement must be a JSON object, got NoneType"),
    ({}, "'components' must be a list"),
    ({"components": [CUBIC], "points": None}, "'points' must be a list"),
    ({"components": [CUBIC, 3]}, "components[1] must be an object"),
    ({"components": [CUBIC, {"degree": 3}]}, "components[1] needs 'id' and 'degree'"),
    (
        {"components": [{"id": "c", "degree": 3, "zeta": 1, "alpha": 2}]},
        "components[0] has unknown keys: ['alpha', 'zeta']",
    ),
    (
        {"components": [{"id": "c", "degree": 3, "multiplicity": 1.5}]},
        "components[0].multiplicity must be an integer, got 1.5",
    ),
    (
        {"components": [{"id": "c", "degree": 3, "multiplicity": False}]},
        "components[0].multiplicity must be an integer, got False",
    ),
    ({"components": [CUBIC], "points": {}}, "'points' must be a list"),
    ({"components": [CUBIC], "points": ["v"]}, "points[0] must be an object"),
    ({"components": [CUBIC], "points": [{"branches": []}]}, "points[0] needs 'id' and 'branches'"),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [], "color": "red"}]},
        "points[0] has unknown keys: ['color']",
    ),
    ({"components": [CUBIC], "points": [{"id": 7, "branches": []}]}, "points[0].id must be a string, got 7"),
    ({"components": [CUBIC], "points": [{"id": "v", "branches": "c"}]}, "points[0].branches must be a list"),
    (
        {
            "components": [CUBIC],
            "points": [{"id": "v", "branches": []}, {"id": "w", "branches": [{"component": "c"}, ["c", 2]]}],
        },
        "points[1].branches[1] must be an object",
    ),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{"component": "c", "weight": 2}]}]},
        "points[0].branches[0] has unknown keys: ['weight']",
    ),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{"component": 5}]}]},
        "points[0].branches[0].component must be a string, got 5",
    ),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{"component": "c", "mult": True}]}]},
        "points[0].branches[0].mult must be an integer, got True",
    ),
    (
        {"components": [CUBIC], "points": [{"id": 7, "branches": [{"component": "c", "mult": 2.0}]}]},
        "points[0].branches[0].mult must be an integer, got 2.0",
    ),
    # Values whose repr fails on an int too long for str(), which only a
    # Python mapping can hold: echoed by their type.
    (
        {"components": [{"id": "c", "degree": [10**5000]}]},
        "components[0].degree must be an integer, got <list too long to print>",
    ),
    ({"components": [], (10**5000,): 1}, "arrangement has unknown keys: <list too long to print>"),
    # Several faults in one point: the first branch fault wins, and the
    # point's id is checked only after its branches.
    (
        {"components": [CUBIC], "points": [{"id": 7, "branches": [{"component": "c", "mult": 2}, ["c", 2]]}]},
        "points[0].branches[1] must be an object",
    ),
    (
        {"components": [CUBIC], "points": [{"id": None, "branches": [{"component": "c", "mult": False}]}]},
        "points[0].branches[0].mult must be an integer, got False",
    ),
    (
        {"components": [CUBIC], "points": [{"id": True, "branches": [{"component": "c", "mult": 1, "w": 2}]}]},
        "points[0].branches[0] has unknown keys: ['w']",
    ),
    (
        {"components": [CUBIC], "points": [{"id": 7, "branches": [{"component": "c", "mult": 2}]}]},
        "points[0].id must be a string, got 7",
    ),
    ({"components": [CUBIC], "points": [{"id": False, "branches": []}]}, "points[0].id must be a string, got False"),
    # Two keys, but not the schema's two.
    ({"components": [CUBIC], "points": [{"id": "v", "color": "red"}]}, "points[0] has unknown keys: ['color']"),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{"mult": 2, "weight": 1}]}]},
        "points[0].branches[0] has unknown keys: ['weight']",
    ),
    (
        {"components": [CUBIC], "points": [{"id": "v", "branches": [{"component": None, "mult": 1}]}]},
        "points[0].branches[0].component must be a string, got None",
    ),
    ({"components": [CUBIC], "points": [{"id": "v", "branches": None}]}, "points[0].branches must be a list"),
]


def wrapped(data, mapping):
    """``data`` with every dict in it, at any depth, rebuilt as ``mapping``."""
    if type(data) is dict:
        return mapping({key: wrapped(value, mapping) for key, value in data.items()})
    if type(data) is list:
        return [wrapped(value, mapping) for value in data]
    return data


MAPPINGS = [MappingProxyType, OrderedDict]


class Count(int):
    pass


class Name(str):
    pass


COMPONENT = {"id": "c", "degree": 3, "multiplicity": 2}
ODD_VALUES = [True, False, 0, -1, 2.0, 3.5, "3", "", None, [], Count(3), Name("c"), 10**30]


@st.composite
def component_objects(draw):
    """A component object with some of its keys dropped or given values of
    other types (bool, float, str, an int or str subclass), perhaps an
    extra key, and perhaps held in another Mapping or in no mapping at all."""
    obj = dict(COMPONENT)
    for key in draw(st.lists(st.sampled_from(sorted(COMPONENT)), unique=True)):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(st.sampled_from(ODD_VALUES))
    if draw(st.booleans()):
        obj[draw(st.sampled_from(["color", "mult", "Degree"]))] = draw(st.sampled_from(ODD_VALUES))
    return draw(st.sampled_from([dict, dict, OrderedDict, MappingProxyType, lambda o: list(o.items())]))(obj)


def outcome(read):
    """The fields of the record ``read()`` returns, each with its type, or
    the message of the ArrangementFormatError it raises."""
    try:
        record = read()
    except ArrangementFormatError as err:
        return str(err)
    return [(type(value), value) for value in dataclasses.astuple(record)]


class TestSerialization:
    @given(arrangement_graphs())
    def test_round_trip(self, g):
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_defaults_applied(self):
        g = graph_from_dict(
            {
                "components": [{"id": "c", "degree": 3}],
                "points": [{"id": "v", "branches": [{"component": "c"}]}],
            }
        )
        assert g.components[0].multiplicity == 1
        assert g.points[0].branches[0].mult == 1

    def test_points_key_optional(self):
        g = graph_from_dict({"components": [{"id": "c", "degree": 1}]})
        assert g.points == ()

    @pytest.mark.parametrize(
        "data, message", SCHEMA_VIOLATIONS, ids=[f"data{i}" for i in range(len(SCHEMA_VIOLATIONS))]
    )
    def test_schema_violations(self, data, message):
        with pytest.raises(ArrangementFormatError) as err:
            graph_from_dict(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize(
        "data, message", SCHEMA_VIOLATIONS, ids=[f"data{i}" for i in range(len(SCHEMA_VIOLATIONS))]
    )
    def test_schema_violations_in_any_mapping(self, data, message, mapping):
        # Objects that are not plain dicts skip the one-pass read and must
        # fail with the same first message.
        with pytest.raises(ArrangementFormatError) as err:
            graph_from_dict(wrapped(data, mapping))
        assert str(err.value) == message

    @given(arrangement_graphs())
    def test_any_mapping_loads_like_a_dict(self, g):
        data = graph_to_dict(g)
        for mapping in MAPPINGS:
            assert graph_from_dict(wrapped(data, mapping)) == g

    @given(st.integers(0, 2**64 - 1))
    def test_generator_graphs_round_trip(self, seed):
        g = generate_graph(SplitMix64(seed), GraphBounds(max_components=8, max_points=24, max_degree=6, max_mult=5))
        data = graph_to_dict(g)
        assert graph_from_dict(data) == g
        assert graph_from_dict(wrapped(data, MappingProxyType)) == g

    def test_subclassed_values_load(self):
        class Name(str):
            pass

        class Count(int):
            pass

        data = {
            "components": [{"id": Name("l1"), "degree": Count(3)}],
            "points": [{"id": Name("v1"), "branches": [{"component": Name("l1"), "mult": Count(2)}]}],
        }
        assert graph_from_dict(data) == nodal_cubic()
        assert graph_from_dict(wrapped(data, OrderedDict)) == nodal_cubic()

    def test_graphs_are_hashable(self):
        cache = {nodal_cubic(): "a"}
        assert cache[nodal_cubic()] == "a"

    @given(component_objects(), st.integers(0, 2))
    def test_components_read_as_the_schema_reads_them(self, obj, index):
        # A component read in one pass must give what _object alone gives:
        # the same values of the same types, or the same first message.
        comps = [{"id": f"x{k}", "degree": 1} for k in range(index)] + [obj]
        expected = outcome(lambda: Component(*_object(obj, _COMPONENT, "components[{}]", index)))
        assert outcome(lambda: graph_from_dict({"components": comps}).components[index]) == expected


def read(data):
    """The graph that ``graph_from_dict(data)`` gives and its point types,
    with the type and message of whatever either raises."""
    try:
        g = graph_from_dict(data)
    except ArrangementFormatError as err:
        return [ArrangementFormatError, str(err)]
    try:
        return [g, g.point_types]
    except InvalidArrangementError as err:
        return [g, InvalidArrangementError, str(err)]


def read_in_one_pass(data) -> bool:
    """Whether graph_from_dict reads ``data`` in its one pass (a graph that
    keeps its point types and has built no point record), after checking
    that the schema reader and validate, which a top-level
    ``MappingProxyType`` forces, give the same graph, point types and
    errors."""
    assert read(data) == read(MappingProxyType(data))
    try:
        state = graph_from_dict(data).__dict__
    except ArrangementFormatError:
        return False
    return "point_types" in state and "points" not in state


MANIFEST = manifest_generator()


class TestOnePassRead:
    """graph_from_dict's one pass over plain JSON against the schema reader
    and validate, which it replaces for valid files."""

    def test_stored_compute_inputs(self):
        inputs = MANIFEST.stored_inputs("compute")
        assert len(inputs) == 96
        for data in inputs:
            assert read_in_one_pass(data)

    @pytest.mark.parametrize("name", MANIFEST.DECLINE_EDITS)
    def test_one_file_per_check(self, name):
        assert read_in_one_pass(MANIFEST.DECLINE_BASE)
        assert not read_in_one_pass(MANIFEST.declined(name))

    @settings(max_examples=200)
    @given(st.dictionaries(st.integers(0, len(ARRANGEMENT_NUMBERS) - 1), MUTANT_VALUES, min_size=1, max_size=3))
    def test_mutated_inputs(self, replacements):
        read_in_one_pass(mutated(SMALL_ARRANGEMENT, ARRANGEMENT_NUMBERS, replacements))

    @given(arrangement_graphs())
    def test_drawn_graphs(self, g):
        data = graph_to_dict(g)
        assert read_in_one_pass(data) == validate(g).ok

    def test_records_are_built_once_from_a_snapshot(self):
        data = graph_to_dict(line_and_nodal_cubic())
        g = graph_from_dict(data)
        data["components"].pop()
        data["points"][0]["id"] = "renamed"
        data["points"][0]["branches"][1]["mult"] = 1
        data["points"][1]["branches"].append({"component": "x"})
        data["points"].append({"id": "new", "branches": []})
        assert "points" not in g.__dict__
        assert g.point_types == line_and_nodal_cubic().point_types
        assert g.points == line_and_nodal_cubic().points
        assert g.points is g.points
        assert g == line_and_nodal_cubic() and hash(g) == hash(line_and_nodal_cubic())
        assert repr(g) == repr(line_and_nodal_cubic())
        assert "_report" not in g.__dict__
        require_valid(g)
        assert "_report" not in g.__dict__
        assert g._report.warnings == (("snc-node", "transverse crossing of two components (simple node)", "point 'v2'"),)
        assert_kept_report_is_validate(g)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.points = ()


# The records as generated dataclasses, with the same names, fields and
# annotations: the reference for their written-out __init__ methods.
REFERENCE_RECORDS = {
    Component: dataclasses.make_dataclass(
        "Component",
        [("id", "str"), ("degree", "int"), ("multiplicity", "int", dataclasses.field(default=1))],
        frozen=True,
        slots=True,
    ),
    Branch: dataclasses.make_dataclass(
        "Branch", [("component", "str"), ("mult", "int", dataclasses.field(default=1))], frozen=True, slots=True
    ),
    SingularPoint: dataclasses.make_dataclass(
        "SingularPoint",
        [("id", "str"), ("branches", "Tuple[Branch, ...]")],
        namespace={"__post_init__": lambda self: object.__setattr__(self, "branches", tuple(self.branches))},
        frozen=True,
        slots=True,
    ),
}

# (record, positional arguments, keyword arguments): positional, by keyword
# and by default, made afresh for each call since an iterator is used up.
# A point given its branches as a list or an iterator must store a tuple,
# as the reference's __post_init__ does.
CONSTRUCTIONS = [
    (Component, lambda: ("c", 3, 2), dict),
    (Component, lambda: ("c", 3), dict),
    (Component, lambda: ("c",), lambda: {"multiplicity": 4, "degree": 2}),
    (Component, tuple, lambda: {"id": "c", "degree": Count(3)}),
    (Branch, lambda: ("c", 2), dict),
    (Branch, lambda: ("c",), dict),
    (Branch, tuple, lambda: {"mult": 5, "component": Name("c")}),
    (SingularPoint, lambda: ("v", [Branch("c"), Branch("d", 2)]), dict),
    (SingularPoint, lambda: ("v",), lambda: {"branches": (Branch("c"),)}),
    (SingularPoint, tuple, lambda: {"id": "v", "branches": iter([Branch("c", 2)])}),
    (SingularPoint, lambda: ("v", ()), dict),
]


class TestRecords:
    RECORDS = [Component("c", 3, 2), Branch("c", 2), SingularPoint("v", [Branch("c"), Branch("d", 2)])]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_slotted_frozen_values(self, record):
        assert not hasattr(record, "__dict__")
        first = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, first)
        # A name that is not a field has no slot, and is refused alike.
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.color = "red"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.color
        copy = dataclasses.replace(record)
        assert copy == record and copy is not record
        assert {record: 1}[copy] == 1
        assert dataclasses.replace(record, **{first: "other"}) != record

    def test_constructors_keep_their_defaults_and_coercion(self):
        assert Component("c", 3) == Component(id="c", degree=3, multiplicity=1)
        assert Branch("c") == Branch(component="c", mult=1)
        point = SingularPoint("v", [Branch("c")])
        assert point.branches == (Branch("c"),)
        assert repr(point) == "SingularPoint(id='v', branches=(Branch(component='c', mult=1),))"
        assert repr(Component("c", 3)) == "Component(id='c', degree=3, multiplicity=1)"
        assert dataclasses.replace(point, branches=[Branch("d")]).branches == (Branch("d"),)

    @pytest.mark.parametrize(
        "record, args, kwargs", CONSTRUCTIONS, ids=[f"call{i}" for i in range(len(CONSTRUCTIONS))]
    )
    def test_construction_matches_the_generated_dataclass(self, record, args, kwargs):
        reference = REFERENCE_RECORDS[record]
        made, expected = record(*args(), **kwargs()), reference(*args(), **kwargs())
        fields = [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(expected)]
        assert [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(made)] == fields
        values = [(type(getattr(made, name)), getattr(made, name)) for name, *_ in fields]
        assert values == [(type(getattr(expected, name)), getattr(expected, name)) for name, *_ in fields]
        assert hash(made) == hash(expected)
        assert repr(made) == repr(expected)
        renamed = {fields[0][0]: "other"}
        assert repr(dataclasses.replace(made, **renamed)) == repr(dataclasses.replace(expected, **renamed))
        assert repr(dataclasses.replace(made)) == repr(made)

    @pytest.mark.parametrize("record", list(REFERENCE_RECORDS), ids=lambda r: r.__name__)
    def test_signature_matches_the_generated_dataclass(self, record):
        reference = REFERENCE_RECORDS[record]
        assert inspect.signature(record).parameters == inspect.signature(reference).parameters
        # Written under postponed evaluation, the return annotation is the
        # string "None", which resolves as the generated None does.
        assert typing.get_type_hints(record.__init__)["return"] is type(None)
        for args in [(), ("a", 1, 2, 3)]:
            with pytest.raises(TypeError) as made:
                record(*args)
            with pytest.raises(TypeError) as expected:
                reference(*args)
            assert str(made.value) == str(expected.value)

    def test_graph_keeps_its_report(self):
        g = nodal_cubic()
        assert require_valid(g) is g
        assert g.__dict__["_report"] == validate(g)
        assert hash(g.__dict__["_report"]) == hash(validate(g))
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.points = ()


class TestLoadArrangement(object):
    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_dict(line_and_nodal_cubic())))
        assert load_arrangement(str(path)) == line_and_nodal_cubic()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArrangementFormatError):
            load_arrangement(str(tmp_path / "nope.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArrangementFormatError):
            load_arrangement(str(path))

    def test_invalid_data(self, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(
            json.dumps(
                {
                    "components": [{"id": "c", "degree": 2}],
                    "points": [{"id": "v", "branches": [{"component": "c", "mult": 5}]}],
                }
            )
        )
        with pytest.raises(InvalidArrangementError):
            load_arrangement(str(path))
