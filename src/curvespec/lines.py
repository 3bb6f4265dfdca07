"""Exact incidence geometry for projective line arrangements.

Turns an explicit list of rational linear forms a*x + b*y + c*z into the
combinatorial arrangement graph: proportional forms are merged into one
component with summed multiplicity, every pairwise intersection point is
computed by a cross product of coefficient triples, and coincident
intersections are merged by canonical primitive integer coordinates.  All
arithmetic is exact, so collinearity and concurrency decisions are never
subject to rounding.

The spectrum needs less than the graph.  A line has degree 1 and meets
each of its points simply, so a point's type is the sorted tuple of
(m_l, 1) over the lines through it, and the point-type summary of
:mod:`curvespec.formulas` comes straight from the incidence data, with no
point objects built.  Such data can fail validation only at the
components (multiplicities and the total degree), so
:func:`line_incidence` checks those alone, before the O(L^2) pair loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational
from typing import Sequence, Tuple, Union

from .arrangement import ArrangementGraph, Branch, Component, SingularPoint, require_valid
from .arrangement import _check_keys, _echo, _load_json, _require_int
from .formulas import PointTypeSummary, spectrum_of_point_types
from .spectrum import Spectrum

__all__ = [
    "LineFileError",
    "LinearForm",
    "ZeroFormError",
    "incidence_graph",
    "line_incidence",
    "load_lines",
    "normalize_form",
]

RationalLike = Union[Fraction, int, str]


class ZeroFormError(ValueError):
    """The zero triple does not define a projective line."""


class LineFileError(ValueError):
    """Line-arrangement file does not match the expected schema."""


@dataclass(frozen=True)
class LinearForm:
    """Primitive integer representative of a projective line.

    Canonical: gcd(|a|, |b|, |c|) = 1 and the first nonzero coefficient is
    positive, so two triples define the same line iff their canonical forms
    are equal.
    """

    a: int
    b: int
    c: int

    def coefficients(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _primitive(x: int, y: int, z: int) -> Tuple[int, int, int]:
    """Divide a nonzero integer triple by its content and make its first
    nonzero entry positive."""
    g = gcd(x, y, z)
    if g == 0:
        raise ZeroFormError("all three coefficients are zero")
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        g = -g
    return (x // g, y // g, z // g)


def _to_fraction(x: RationalLike, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Rational, str)):
        raise LineFileError(f"{what} must be an integer or 'p/q' string, got {_echo(x)}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise LineFileError(f"{what} is not a valid rational: {_echo(x)}") from exc


def normalize_form(raw: Sequence[RationalLike]) -> LinearForm:
    """Clear denominators, divide by the content, and fix the sign so the
    first nonzero coefficient is positive."""
    if len(raw) != 3:
        raise LineFileError(f"a linear form needs exactly 3 coefficients, got {len(raw)}")
    if all(type(x) is int for x in raw):  # no denominators to clear (bool is not int here)
        return LinearForm(*_primitive(*raw))
    triple = [_to_fraction(x, f"coefficient {i}") for i, x in enumerate(raw)]
    denom = lcm(*(x.denominator for x in triple))
    return LinearForm(*_primitive(*(int(x * denom) for x in triple)))


class _Incidence:
    """A weighted list of linear forms, merged, and where the lines meet.

    Proportional forms merge into one line (multiplicities summed,
    first-seen order kept); line i becomes component ``l{i + 1}``.  The
    pair loop runs on first use of :attr:`through`, so the components can
    be validated before it.
    """

    def __init__(self, forms: Sequence[Tuple[Sequence[RationalLike], int]]):
        if not forms:
            raise LineFileError("need at least one linear form")
        index: dict[Tuple[int, int, int], int] = {}
        self.lines: list[Tuple[int, int, int]] = []
        self.mults: list[int] = []
        for raw, mult in forms:
            _require_int(mult, "multiplicity", LineFileError)
            # Nonpositive multiplicities are kept and fail validation, which
            # keeps the schema/data error split uniform across inputs.
            line = normalize_form(raw).coefficients()
            k = index.get(line)
            if k is None:
                index[line] = len(self.lines)
                self.lines.append(line)
                self.mults.append(mult)
            else:
                self.mults[k] += mult

    def components(self) -> Tuple[Component, ...]:
        return tuple(Component(f"l{i + 1}", 1, m) for i, m in enumerate(self.mults))

    @cached_property
    def through(self) -> dict[Tuple[int, int, int], list[int]]:
        """Every intersection point (canonical primitive coordinates) with
        the ascending indices of the lines through it: the one O(L^2) pair
        loop.

        The first line i through a point meets every later line through it
        exactly there, so the point first appears in a pair with line i,
        and each other line k through it is the second line of the pair
        (i, k).  Appending k only for those pairs lists each line once.
        """
        lines = self.lines
        through: dict[Tuple[int, int, int], list[int]] = {}
        for i, (a, b, c) in enumerate(lines):
            for k in range(i + 1, len(lines)):
                p, q, r = lines[k]
                point = _primitive(b * r - c * q, c * p - a * r, a * q - b * p)
                on_point = through.get(point)
                if on_point is None:
                    through[point] = [i, k]
                elif on_point[0] == i:
                    on_point.append(k)
        return through

    def graph(self) -> ArrangementGraph:
        """The arrangement graph: points ``v{n + 1}`` in sorted coordinate
        order, each line through a point a branch of multiplicity 1."""
        through = self.through
        points = tuple(
            SingularPoint(f"v{n + 1}", tuple(Branch(f"l{i + 1}", 1) for i in through[point]))
            for n, point in enumerate(sorted(through))
        )
        return ArrangementGraph(self.components(), points)

    def point_types(self) -> PointTypeSummary:
        """The point-type summary of :func:`curvespec.formulas.spectrum_of_point_types`,
        without building the graph: every line has degree 1 and meets a
        point simply, so a point's type is the sorted tuple of (m_l, 1) over
        the lines through it, and there are no component pairs."""
        mults = self.mults
        counts = Counter(tuple(sorted([mults[i] for i in on_point])) for on_point in self.through.values())
        histogram = {tuple((m, 1) for m in type_mults): n for type_mults, n in counts.items()}
        return PointTypeSummary(Counter(mults), 0, histogram)

    def spectrum(self) -> Spectrum:
        """The hyperplane-arrangement spectrum, from the point-type summary."""
        return spectrum_of_point_types(self.point_types())


def line_incidence(forms: Sequence[Tuple[Sequence[RationalLike], int]]) -> _Incidence:
    """Merge a weighted list of linear forms and validate the merged lines.

    Line data can break an invariant only at its components: every branch
    has multiplicity 1, which never exceeds degree 1, the ids are fresh and
    a line is listed once per point.  So checking the components validates
    the whole arrangement, and it runs before the pair loop.  Raises
    :class:`~curvespec.arrangement.InvalidArrangementError` as
    ``require_valid`` does.  The result's ``spectrum()`` and ``graph()``
    share one pair loop, run on first use.
    """
    incidence = _Incidence(forms)
    require_valid(ArrangementGraph(incidence.components(), ()))
    return incidence


def incidence_graph(forms: Sequence[Tuple[Sequence[RationalLike], int]]) -> ArrangementGraph:
    """Arrangement graph of a weighted list of linear forms.

    Proportional forms merge (multiplicities summed, first-seen order kept);
    the points are all pairwise intersections, each recording every line
    through it with branch multiplicity 1 (a line meets a point simply).
    """
    return _Incidence(forms).graph()


def load_lines(path: str) -> list[Tuple[Tuple[RationalLike, ...], int]]:
    """Read a line-arrangement JSON file: an array of
    {"form": [a, b, c], "multiplicity": m} with integer or "p/q" entries."""
    data = _load_json(path, LineFileError)
    if not isinstance(data, list):
        raise LineFileError("line file must be a JSON array")
    out = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise LineFileError(f"entry {i} must be an object")
        _check_keys(entry, ("form", "multiplicity"), f"entry {i}", LineFileError)
        if "form" not in entry:
            raise LineFileError(f"entry {i} needs a 'form'")
        raw = entry["form"]
        if not isinstance(raw, list) or len(raw) != 3:
            raise LineFileError(f"entry {i}: 'form' must be a 3-element array")
        if not all(type(x) is int for x in raw):
            for k, x in enumerate(raw):
                _to_fraction(x, f"entry {i}, coefficient {k}")
        mult = _require_int(entry.get("multiplicity", 1), f"entry {i}: multiplicity", LineFileError)
        out.append((tuple(raw), mult))
    return out
