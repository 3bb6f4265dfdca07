"""Combinatorial model of a plane curve arrangement with ordinary singularities.

An :class:`ArrangementGraph` records the discrete data of a homogeneous
polynomial f = prod(f_l^{m_l}) in three variables whose reduced zero set is a
union of curves C_l meeting only in ordinary multiple points: one node per
irreducible component (with its degree d_l and multiplicity m_l in f) and one
node per singular point of the union, carrying the local intersection
multiplicity m_{v,l} of each branch of C_l through that point.

Everything downstream consumes only this graph; no defining equations are
needed.  Validation is total: :func:`validate` returns a report instead of
raising, so the CLI can distinguish malformed files (format errors) from
well-formed files describing impossible data (validation errors).  A graph
is immutable and keeps its report, so :func:`require_valid` validates it once,
and :meth:`ArrangementGraph.with_point` hands a kept report on to the graph
with one more point, extended by the checks on that point alone.
The same pass sorts the points into types: a valid graph's report carries
its :class:`PointTypeSummary`, which every spectrum route reads.

:func:`graph_from_dict` reads a valid arrangement of plain JSON values
(dicts with exactly the schema's keys, lists, ``str`` ids, ``int`` numbers)
in one pass that makes every check of :func:`validate` and counts the point
types.  The graph it returns keeps that summary, so no route validates it,
and builds its point records only when ``points`` is first read.  Anything
else, such as another ``Mapping``, a value of another type, an unknown or
missing key, or data that fails a check, goes through the one table-driven
schema check and then :func:`validate`, which word every message in reading
order.  The records' written-out ``__init__`` fills each slot through its
member descriptor.

:func:`_rational` reads every exact rational: line coefficients, spectrum
exponents and cohomology scalars.
"""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Mapping, Tuple, Union

__all__ = [
    "ArrangementFormatError",
    "ArrangementGraph",
    "Branch",
    "Component",
    "InvalidArrangementError",
    "MAX_TOTAL_DEGREE",
    "PointTypeSummary",
    "SingularPoint",
    "ValidationReport",
    "complement_euler_characteristic",
    "graph_from_dict",
    "graph_to_dict",
    "load_arrangement",
    "require_valid",
    "validate",
]


# Largest total degree sum(m_l * d_l) accepted: every formula loops over
# j = 1..d and prints O(d) terms, so an unbounded d means an unbounded run.
MAX_TOTAL_DEGREE = 100_000


class ArrangementFormatError(ValueError):
    """Input file or dict does not match the arrangement schema."""


class InvalidArrangementError(ValueError):
    """Structurally well-formed graph that violates an arrangement invariant."""

    def __init__(self, report: "ValidationReport"):
        lines = [f"{code} at {loc}: {msg}" for code, msg, loc in report.errors]
        super().__init__("invalid arrangement: " + "; ".join(lines))
        self.report = report


def _frozen(cls):
    """Refuse every attribute set or delete on a frozen slotted record with
    :class:`dataclasses.FrozenInstanceError`.  The methods that
    ``dataclass(frozen=True, slots=True)`` generates name the class that
    ``slots=True`` replaced, so on CPython 3.11 a name that is not a field
    raises TypeError from their ``super()`` call instead."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Component:
    """One irreducible curve in the arrangement.

    ``degree`` is the degree of the reduced component, ``multiplicity`` the
    exponent it carries in the (possibly non-reduced) defining polynomial.
    """

    id: str
    degree: int
    multiplicity: int = 1

    def __init__(self, id: str, degree: int, multiplicity: int = 1) -> None:
        _SET_COMPONENT_ID(self, id)
        _SET_DEGREE(self, degree)
        _SET_MULTIPLICITY(self, multiplicity)


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Branch:
    """A component passing through a singular point with local multiplicity ``mult``."""

    component: str
    mult: int = 1

    def __init__(self, component: str, mult: int = 1) -> None:
        _SET_COMPONENT(self, component)
        _SET_MULT(self, mult)


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class SingularPoint:
    id: str
    branches: Tuple[Branch, ...]

    def __init__(self, id: str, branches: Tuple[Branch, ...]) -> None:
        _SET_POINT_ID(self, id)
        _SET_BRANCHES(self, tuple(branches))


# The records' slot setters: one C call per field, where a generated
# __init__ calls object.__setattr__ per field.
_SET_COMPONENT_ID, _SET_DEGREE, _SET_MULTIPLICITY = (
    Component.__dict__[name].__set__ for name in ("id", "degree", "multiplicity")
)
_SET_COMPONENT, _SET_MULT = (Branch.__dict__[name].__set__ for name in ("component", "mult"))
_SET_POINT_ID, _SET_BRANCHES = (SingularPoint.__dict__[name].__set__ for name in ("id", "branches"))


class _PointsOnFirstRead:
    """The default of ``ArrangementGraph.points``: ``()`` read on the class.
    Every graph that ``__init__`` makes holds its own ``points``; one that
    :func:`graph_from_dict` read in one pass holds instead a snapshot
    {id: ((component, mult), ...)} of its points, from which their records
    are built here, once, on first read."""

    def __get__(self, graph, owner=None):
        if graph is None:
            return ()
        snapshot = graph.__dict__.pop("_snapshot")
        points = tuple(SingularPoint(pid, [Branch(c, m) for c, m in brs]) for pid, brs in snapshot.items())
        graph.__dict__["points"] = points
        return points


@dataclass(frozen=True)
class ArrangementGraph:
    """Bipartite incidence record: components on one side, singular points on the other."""

    components: Tuple[Component, ...]
    points: Tuple[SingularPoint, ...] = _PointsOnFirstRead()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "points", tuple(self.points))

    def is_reduced(self) -> bool:
        return all(comp.multiplicity == 1 for comp in self.components)

    @cached_property
    def _report(self) -> "ValidationReport":
        """:func:`validate` of this graph, made on first use and kept."""
        return validate(self)

    def with_point(self, point: SingularPoint) -> "ArrangementGraph":
        """This graph with ``point`` appended.  If this graph already keeps a
        report without errors, the new graph's report is that report
        extended by :func:`validate`'s checks on ``point`` alone, which
        equals :func:`validate` of the new graph; otherwise the new graph is
        validated in full on first use."""
        child = ArrangementGraph(self.components, self.points + (point,))
        report = self.__dict__.get("_report")
        if report is not None and report.ok:
            errors: list = []
            flagged = list(report.flagged)
            summary = report.point_types
            histogram = dict(summary.histogram)
            seen_comp = {comp.id: comp for comp in self.components}
            _check_point(point, seen_comp, {p.id for p in self.points}, errors, flagged, histogram)
            types = None if errors else PointTypeSummary(summary.degree_by_mult, summary.comp_pairs, histogram)
            child.__dict__["_report"] = ValidationReport(tuple(errors), tuple(flagged), types)
        return child

    @cached_property
    def point_types(self) -> "PointTypeSummary":
        """The :class:`PointTypeSummary` that :func:`validate` built for this
        graph; :class:`InvalidArrangementError` if the graph is invalid."""
        return require_valid(self)._report.point_types


@dataclass(frozen=True)
class PointTypeSummary:
    """All the spectrum routes read of an arrangement.

    ``degree_by_mult`` maps each component multiplicity m to the sum of the
    degrees of the components with that multiplicity, ``comp_pairs`` is
    sum_l binom(d_l, 2), and ``histogram`` counts the singular points of
    each type: the sorted tuple of (m_l, m_{v,l}) over a point's branches.
    The summary of a line arrangement that ``curvespec.lines`` builds leaves
    out the points on exactly two lines, which add nothing to the spectrum.
    """

    degree_by_mult: Mapping[int, int]
    comp_pairs: int
    histogram: Mapping[tuple, int]


# The message of each warning code; a warning is worded only when read.
_WARNINGS = {
    "smooth-point": "total branch multiplicity 1: point is a smooth point of the union",
    "snc-node": "transverse crossing of two components (simple node)",
}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: errors as (code, message, location)
    triples, ``flagged``, the (code, point) of each warning, which
    ``warnings`` words as such triples when first read, and the graph's
    :class:`PointTypeSummary` if there are no errors, else None."""

    errors: Tuple[Tuple[str, str, str], ...] = ()
    flagged: Tuple[Tuple[str, SingularPoint], ...] = ()
    point_types: PointTypeSummary | None = field(default=None, hash=False)  # its dicts do not hash

    @property
    def ok(self) -> bool:
        return not self.errors

    @cached_property
    def warnings(self) -> Tuple[Tuple[str, str, str], ...]:
        return tuple((code, _WARNINGS[code], _point_at(point)) for code, point in self.flagged)


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool, the rule of :func:`_require`."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def _component_at(comp: Component) -> str:
    return f"component {_echo(comp.id)}"


def _point_at(point: SingularPoint, branch: Branch | None = None) -> str:
    at = f"point {_echo(point.id)}"
    return at if branch is None else f"{at}, branch {_echo(branch.component)}"


def _check_point(
    point: SingularPoint,
    seen_comp: dict[str, Component],
    seen_pt: set[str],
    errors: list,
    flagged: list,
    histogram: dict[tuple, int],
) -> None:
    """:func:`validate`'s checks on one point, the only code that checks a
    point: ``seen_comp`` maps each component id to its first component,
    ``seen_pt`` holds the ids of the points before this one and gains its
    id.  Errors and warnings are appended to ``errors`` and ``flagged``,
    and an error-free point's type is counted in ``histogram``."""
    point_errors = len(errors)
    named = isinstance(point.id, str)
    if not named or not point.id:
        errors.append(("empty-id", "point id must be a nonempty string", _point_at(point)))
    if named:
        if point.id in seen_pt:
            errors.append(("duplicate-point-id", f"point id {_echo(point.id)} repeats", _point_at(point)))
        seen_pt.add(point.id)
    if not point.branches:
        errors.append(("empty-branches", "point must lie on at least one component", _point_at(point)))
    branch_comps: set[str] = set()
    pairs = []
    m_red = 0
    for br in point.branches:
        component = br.component
        mult = br.mult
        named = isinstance(component, str)
        comp = seen_comp.get(component) if named else None
        if comp is None:
            message = f"branch names unknown component {_echo(component)}"
            errors.append(("unknown-component", message, _point_at(point, br)))
        else:
            pairs.append((comp.multiplicity, mult))
        if named:
            if component in branch_comps:
                message = f"component {_echo(component)} listed twice"
                errors.append(("duplicate-branch", message, _point_at(point, br)))
            branch_comps.add(component)
        if not _is_int(mult):
            message = f"branch multiplicity must be an integer, got {_echo(mult)}"
            errors.append(("non-integer", message, _point_at(point, br)))
            continue
        m_red += mult
        if mult < 1:
            message = f"branch multiplicity must be >= 1, got {_echo(mult)}"
            errors.append(("nonpositive-branch-mult", message, _point_at(point, br)))
        elif comp is not None and _is_int(comp.degree) and mult > comp.degree:
            message = f"branch multiplicity {_echo(mult)} exceeds component degree {_echo(comp.degree)}"
            errors.append(("branch-mult-exceeds-degree", message, _point_at(point, br)))
    if len(errors) == point_errors:
        # No error: the branches name distinct components, each with
        # branch multiplicity >= 1, so two summing to 2 meet as a node.
        if m_red == 1:
            flagged.append(("smooth-point", point))
        elif m_red == 2 and len(pairs) == 2:
            flagged.append(("snc-node", point))
        pairs.sort()
        key = tuple(pairs)
        histogram[key] = histogram.get(key, 0) + 1


def validate(graph: ArrangementGraph) -> ValidationReport:
    """Check every arrangement invariant, accumulating all violations.

    Messages and locations echo values and ids through :func:`_echo`; an
    error is worded when it is recorded, a warning when the report's
    ``warnings`` are read.  The same pass over the points sorts them into
    types: the report of a valid graph carries its
    :class:`PointTypeSummary`, the one counting that every graph route
    reads.  Records built through the API are held to the file readers'
    types: a number that is not an int, or is a bool, is a ``non-integer``
    error and an id that is not a str an ``empty-id`` error, and the
    arithmetic skips such a field, so no route meets it."""
    errors: list[Tuple[str, str, str]] = []
    flagged: list[Tuple[str, SingularPoint]] = []
    degree_by_mult: dict[int, int] = {}
    comp_pairs = 0
    histogram: dict[tuple, int] = {}

    if not graph.components:
        errors.append(("empty-components", "arrangement needs at least one component", "components"))

    seen_comp: dict[str, Component] = {}
    total_degree = 0
    for comp in graph.components:
        named = isinstance(comp.id, str)
        if not named or not comp.id:
            errors.append(("empty-id", "component id must be a nonempty string", _component_at(comp)))
        if named and comp.id in seen_comp:
            message = f"component id {_echo(comp.id)} repeats"
            errors.append(("duplicate-component-id", message, _component_at(comp)))
        elif named:
            seen_comp[comp.id] = comp
        numbers = True
        for name, value in (("degree", comp.degree), ("multiplicity", comp.multiplicity)):
            if not _is_int(value):
                errors.append(("non-integer", f"{name} must be an integer, got {_echo(value)}", _component_at(comp)))
                numbers = False
            elif value < 1:
                message = f"{name} must be >= 1, got {_echo(value)}"
                errors.append((f"nonpositive-{name}", message, _component_at(comp)))
        if numbers:
            degree_by_mult[comp.multiplicity] = degree_by_mult.get(comp.multiplicity, 0) + comp.degree
            comp_pairs += comp.degree * (comp.degree - 1) // 2
            total_degree += comp.multiplicity * comp.degree
    if total_degree > MAX_TOTAL_DEGREE:
        message = f"total degree {_echo(total_degree)} exceeds the limit {MAX_TOTAL_DEGREE}"
        errors.append(("total-degree-too-large", message, "components"))

    seen_pt: set[str] = set()
    for point in graph.points:
        _check_point(point, seen_comp, seen_pt, errors, flagged, histogram)

    summary = None if errors else PointTypeSummary(degree_by_mult, comp_pairs, histogram)
    return ValidationReport(tuple(errors), tuple(flagged), summary)


def require_valid(graph: ArrangementGraph) -> ArrangementGraph:
    """The graph itself if it is valid, else :class:`InvalidArrangementError`.
    A graph that keeps its point-type summary is valid; any other graph's
    report is made by its first check and read by every later one."""
    if "point_types" in graph.__dict__:
        return graph
    report = graph._report
    if not report.ok:
        raise InvalidArrangementError(report)
    return graph


@dataclass(frozen=True)
class DerivedData:
    """Aggregates of f, computed from the graph: ``total_degree`` is
    deg f = sum(m_l * d_l) and ``point_mult[v]`` the multiplicity
    sum(m_l * m_{v,l}) of f at v.  The per-point twist
    :func:`curvespec.riemann_roch.twist_class` and the tests read them; the
    formulas read the graph's point-type summary instead.
    """

    total_degree: int
    point_mult: Mapping[str, int]


def derived(graph: ArrangementGraph) -> DerivedData:
    comp_mult = {comp.id: comp.multiplicity for comp in graph.components}
    total = sum(comp.multiplicity * comp.degree for comp in graph.components)
    point_mult = {
        point.id: sum(comp_mult[br.component] * br.mult for br in point.branches) for point in graph.points
    }
    return DerivedData(total, point_mult)


def complement_euler_characteristic(graph: ArrangementGraph) -> int:
    """Topological Euler characteristic of P^2 minus the reduced curve C of a
    valid graph, from the combinatorial data alone: 3 - chi(C) with

        chi(C) = sum_l (2 - 2 g_l) - sum_v (m_red,v - 1)
                 - sum_{l<l'} (d_l d_l' - sum_v m_{v,l} m_{v,l'}),
        g_l = binom(d_l - 1, 2) - sum_v binom(m_{v,l}, 2).

    The normalisation of C_l has genus g_l, an ordinary point v has m_red,v
    preimages, and intersections that are not listed are simple nodes (the
    Bezout term).  The pair sums are taken as (square of the sum - sum of
    squares)/2, so the cost is linear in the points and branches.  The
    spectrum of the defining polynomial sums to d * (3 - chi(C)) - 1.
    """
    degrees = [comp.degree for comp in graph.components]
    d_red = sum(degrees)
    squares = sum(dl * dl for dl in degrees)
    chi = sum(2 - (dl - 1) * (dl - 2) for dl in degrees) - (d_red * d_red - squares) // 2
    for point in graph.points:
        m_red = sum(br.mult for br in point.branches)
        branch_squares = sum(br.mult * br.mult for br in point.branches)
        chi += branch_squares - m_red  # 2 * sum_l binom(m_{v,l}, 2): the genus drops
        chi -= m_red - 1
        chi += (m_red * m_red - branch_squares) // 2  # the listed intersections
    return 3 - chi


# ---------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------


def _echo(value) -> str:
    """repr of an offending input value, cut to 80 characters so the
    diagnostic stays one short line.  An int with more digits than str()
    converts (4300 by default, Python 3.10.7 and later) is cut to about
    100 leading digits first; any other value whose repr fails (say, a
    list holding such an int) is echoed by its type alone."""
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"<{type(value).__name__} too long to print>"
        shift = int((value.bit_length() - 1) * 0.30102999566) - 100  # digits below the leading ~100
        text = "-" * (value < 0) + str(abs(value) // 10**shift)
    return text if len(text) <= 80 else text[:77] + "..."


def _require(value, kind: type, where: str, *at, error=ArrangementFormatError):
    """``value`` if it is a ``kind``, int (not bool) or str, else ``error`` at ``where.format(*at)``."""
    if type(value) is kind or isinstance(value, kind) and not isinstance(value, bool):
        return value
    noun = "an integer" if kind is int else "a string"
    raise error(f"{where.format(*at)} must be {noun}, got {_echo(value)}")


RationalLike = Union[Fraction, int, str]

# Exact rational text: [sign]digits[/digits] in ASCII digits, inside ASCII
# whitespace.  Fraction(str) also takes "0.1", "1e2000000" (at a cost that
# grows with the exponent), "\u0663" and, by Python version, "1_000" and "1 / 2".
_RATIONAL_RE = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*", re.ASCII)


def _rational(x: RationalLike, where: str, *at, error: type[ValueError] | None = None) -> Fraction:
    """``x`` as a Fraction by the one rule for exact rationals: a
    ``numbers.Rational`` that is not a bool, or a string that ``_RATIONAL_RE``
    matches with a nonzero denominator and digit runs that ``int()`` converts.
    Anything else raises ``error`` at ``where.format(*at)``; with no
    ``error``, another type raises TypeError and another string ValueError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        m = _RATIONAL_RE.fullmatch(x)
        if m is not None:
            try:
                return Fraction(int(m[1]), int(m[2] or 1))
            except (ValueError, ZeroDivisionError):  # a digit run past int()'s limit, or q = 0
                pass
        raise (error or ValueError)(f"{where.format(*at)} is not a valid rational: {_echo(x)}")
    if isinstance(x, bool) or not isinstance(x, Rational):
        raise (error or TypeError)(f"{where.format(*at)} must be an integer or 'p/q' string, got {_echo(x)}")
    return Fraction(x)


# Each object of the schema: {key: (type of its value, or None if the caller
# checks it; default, or _NEEDED)} and the error for a missing needed key.
_NEEDED = object()
_ARRANGEMENT = ({"components": (None, None), "points": (None, [])}, "")
_COMPONENT = ({"id": (str, _NEEDED), "degree": (int, _NEEDED), "multiplicity": (int, 1)}, "needs 'id' and 'degree'")
_POINT = ({"id": (None, _NEEDED), "branches": (None, _NEEDED)}, "needs 'id' and 'branches'")
_BRANCH = ({"component": (str, _NEEDED), "mult": (int, 1)}, "needs 'component'")


def _object(obj, schema, where: str, *at, error=ArrangementFormatError) -> list:
    """The values of ``schema``'s keys in ``obj``, in schema order, once ``obj``
    is an object (any ``Mapping``) with no other key, every needed key and
    typed values of their types; ``where.format(*at)`` is formatted only for an error."""
    fields, missing = schema
    if type(obj) is not dict and not isinstance(obj, Mapping):  # a dict skips the slow abstract check
        raise error(f"{where.format(*at)} must be an object")
    if not obj.keys() <= fields.keys():  # a subset test on the keys view builds no set
        extra = [key for key in obj if key not in fields]
        try:
            extra.sort()
        except TypeError:  # keys of several types, which only a Python mapping has
            extra.sort(key=_echo)
        raise error(f"{where.format(*at)} has unknown keys: {_echo(extra)}")
    for key, (_, default) in fields.items():
        if default is _NEEDED and key not in obj:
            raise error(f"{where.format(*at)} {missing}")
    values = []
    for key, (kind, default) in fields.items():
        value = obj.get(key, default)
        if kind is not None and type(value) is not kind:
            _require(value, kind, where + "." + key, *at, error=error)
        values.append(value)
    return values


def _read_valid(data) -> ArrangementGraph | None:
    """The graph of ``data`` read in one pass, or None if ``data`` is not
    plain JSON of the schema's shape and types or fails a check of
    :func:`validate`.  The graph keeps the :class:`PointTypeSummary`
    counted in the pass and a snapshot of its points that holds none of
    the caller's containers, from which ``points`` is built on first read."""
    if type(data) is not dict or len(data) != 1 + ("points" in data):
        return None
    raw_comps = data.get("components")
    raw_pts = data.get("points", [])
    if type(raw_comps) is not list or type(raw_pts) is not list or not raw_comps:
        return None
    comps: dict[str, Component] = {}
    degree_by_mult: dict[int, int] = {}
    comp_pairs = total_degree = 0
    for rc in raw_comps:
        if not (
            type(rc) is dict
            and type(comp_id := rc.get("id")) is str
            and type(degree := rc.get("degree")) is int
            and type(multiplicity := rc.get("multiplicity", 1)) is int
            and len(rc) == 2 + ("multiplicity" in rc)
            and comp_id and comp_id not in comps and degree >= 1 and multiplicity >= 1
        ):
            return None
        comps[comp_id] = Component(comp_id, degree, multiplicity)
        degree_by_mult[multiplicity] = degree_by_mult.get(multiplicity, 0) + degree
        comp_pairs += degree * (degree - 1) // 2
        total_degree += multiplicity * degree
    if total_degree > MAX_TOTAL_DEGREE:
        return None
    histogram: dict[tuple, int] = {}
    snapshot: dict[str, tuple] = {}
    for rp in raw_pts:
        if not (
            type(rp) is dict
            and len(rp) == 2
            and type(point_id := rp.get("id")) is str
            and type(raw_brs := rp.get("branches")) is list
            and point_id and point_id not in snapshot and raw_brs
        ):
            return None
        names: set[str] = set()
        branches = []
        pairs = []
        for rb in raw_brs:
            if not (
                type(rb) is dict
                and type(name := rb.get("component")) is str
                and type(mult := rb.get("mult", 1)) is int
                and len(rb) == 1 + ("mult" in rb)
                and (comp := comps.get(name)) is not None and 1 <= mult <= comp.degree and name not in names
            ):
                return None
            names.add(name)
            branches.append((name, mult))
            pairs.append((comp.multiplicity, mult))
        pairs.sort()
        key = tuple(pairs)
        histogram[key] = histogram.get(key, 0) + 1
        snapshot[point_id] = tuple(branches)
    graph = object.__new__(ArrangementGraph)
    graph.__dict__.update(
        components=tuple(comps.values()),
        _snapshot=snapshot,
        point_types=PointTypeSummary(degree_by_mult, comp_pairs, histogram),
    )
    return graph


def graph_from_dict(data) -> ArrangementGraph:
    """Build a graph from the JSON object layout.  Objects may be any
    ``Mapping``.  A valid plain-JSON arrangement is read in one pass; any
    other input goes through the table-driven schema check, where schema
    errors raise :class:`ArrangementFormatError` and semantic problems are
    left to :func:`validate`."""
    graph = _read_valid(data)
    if graph is not None:
        return graph
    if type(data) is not dict and not isinstance(data, Mapping):
        raise ArrangementFormatError(f"arrangement must be a JSON object, got {type(data).__name__}")
    raw_comps, raw_pts = _object(data, _ARRANGEMENT, "arrangement")
    if not isinstance(raw_comps, list):
        raise ArrangementFormatError("'components' must be a list")
    comps = [Component(*_object(rc, _COMPONENT, "components[{}]", i)) for i, rc in enumerate(raw_comps)]
    if not isinstance(raw_pts, list):
        raise ArrangementFormatError("'points' must be a list")
    points = []
    for i, rp in enumerate(raw_pts):
        point_id, raw_brs = _object(rp, _POINT, "points[{}]", i)
        if not isinstance(raw_brs, list):
            raise ArrangementFormatError(f"points[{i}].branches must be a list")
        branches = [Branch(*_object(rb, _BRANCH, "points[{}].branches[{}]", i, k)) for k, rb in enumerate(raw_brs)]
        points.append(SingularPoint(_require(point_id, str, "points[{}].id", i), branches))
    return ArrangementGraph(tuple(comps), tuple(points))


def graph_to_dict(graph: ArrangementGraph) -> dict:
    return {
        "components": [
            {"id": c.id, "degree": c.degree, "multiplicity": c.multiplicity} for c in graph.components
        ],
        "points": [
            {"id": p.id, "branches": [{"component": b.component, "mult": b.mult} for b in p.branches]}
            for p in graph.points
        ],
    }


def _load_json(path: str, error: type[ValueError]):
    """Parse a JSON file; every way it can fail raises ``error`` with a
    one-line message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # json's only other ValueError: the int digit limit
        raise error(f"{path} holds an integer with too many digits") from exc
    except RecursionError as exc:
        raise error(f"{path} nests arrays or objects too deeply") from exc


def load_arrangement(path: str) -> ArrangementGraph:
    """Read an arrangement JSON file; raises :class:`ArrangementFormatError`
    on bad JSON or schema, :class:`InvalidArrangementError` on bad data."""
    return require_valid(graph_from_dict(_load_json(path, ArrangementFormatError)))
