"""Exact incidence geometry for projective line arrangements.

Turns an explicit list of rational linear forms a*x + b*y + c*z into the
combinatorial arrangement graph: proportional forms are merged into one
component with summed multiplicity, every pairwise intersection point is
computed by a cross product of coefficient triples, and coincident
intersections are merged by canonical primitive integer coordinates.  All
arithmetic is exact, so collinearity and concurrency decisions are never
subject to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Sequence, Tuple, Union

from .arrangement import ArrangementGraph, Branch, Component, SingularPoint
from .arrangement import _check_keys, _echo, _load_json, _require_int

__all__ = [
    "LineFileError",
    "LinearForm",
    "ZeroFormError",
    "incidence_graph",
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
    triple = [_to_fraction(x, f"coefficient {i}") for i, x in enumerate(raw)]
    denom = lcm(*(x.denominator for x in triple))
    return LinearForm(*_primitive(*(int(x * denom) for x in triple)))


def incidence_graph(forms: Sequence[Tuple[Sequence[RationalLike], int]]) -> ArrangementGraph:
    """Arrangement graph of a weighted list of linear forms.

    Proportional forms merge (multiplicities summed, first-seen order kept);
    the points are all pairwise intersections, each recording every line
    through it with branch multiplicity 1 (a line meets a point simply).
    """
    if not forms:
        raise LineFileError("need at least one linear form")
    lines: list[LinearForm] = []
    mults: dict[LinearForm, int] = {}
    for raw, mult in forms:
        _require_int(mult, "multiplicity", LineFileError)
        # Nonpositive multiplicities flow into the graph and fail validation
        # there, keeping the schema/data error split uniform across inputs.
        form = normalize_form(raw)
        if form not in mults:
            lines.append(form)
            mults[form] = 0
        mults[form] += mult

    # Each point collects its lines inside the pair loop.  The first line
    # through a point meets every later line through it exactly there, so
    # the point appears first in a pair with that line and every other line
    # through it is the second line of some pair.
    through: dict[Tuple[int, int, int], set[int]] = {}
    for i, p in enumerate(lines):
        for k in range(i + 1, len(lines)):
            q = lines[k]
            point = _primitive(p.b * q.c - p.c * q.b, p.c * q.a - p.a * q.c, p.a * q.b - p.b * q.a)
            on_point = through.get(point)
            if on_point is None:
                through[point] = {i, k}
            else:
                on_point.add(k)

    comp_ids = [f"l{i + 1}" for i in range(len(lines))]
    components = tuple(
        Component(id=comp_ids[i], degree=1, multiplicity=mults[form]) for i, form in enumerate(lines)
    )
    singular_points = tuple(
        SingularPoint(
            id=f"v{n + 1}",
            branches=tuple(Branch(component=comp_ids[i], mult=1) for i in sorted(through[coords])),
        )
        for n, coords in enumerate(sorted(through))
    )
    return ArrangementGraph(components, singular_points)


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
        for k, x in enumerate(raw):
            _to_fraction(x, f"entry {i}, coefficient {k}")
        mult = _require_int(entry.get("multiplicity", 1), f"entry {i}: multiplicity", LineFileError)
        out.append((tuple(raw), mult))
    return out
