"""Exact incidence geometry for projective line arrangements.

Turns an explicit list of rational linear forms a*x + b*y + c*z into the
combinatorial arrangement graph: proportional forms are merged into one
component with summed multiplicity, and each line, in one sweep, groups
the later lines by where they meet it (the cross product of coefficient
triples, a ratio in that line's own coordinates keyed by one exact
integer floor).  All arithmetic is exact, so collinearity and concurrency
decisions are never subject to rounding.  Each coefficient is checked and
converted once.  :func:`load_lines` returns integer triples; an entry of
the common shape (a plain object with a form of three ints and an int
multiplicity) is read inline with one ``type(x) is int`` test per value,
any other through the schema checks that word the diagnostics.  The incidence step divides an int
triple by its content directly, and passes any other form to
:func:`normalize_form`, which checks and converts it into the line's
primitive triple, a plain ``(a, b, c)`` tuple.

The spectrum needs less than the graph.  A line has degree 1 and meets
each of its points simply, so a point's type is the sorted tuple of
(m_l, 1) over the lines through it, and the point-type summary that both
spectrum routes read of a graph comes straight from the incidence data, with
no point objects built.  A point on exactly two lines adds zero to every
spectrum coefficient, so the summary holds only the points on three or more
lines, which are the only ones the sweep keeps; the points on two lines are
neither kept nor counted.  Such data can fail validation only at the
components (multiplicities and the total degree), so :func:`line_incidence`
checks those alone, on the merged multiplicities and before the O(L^2)
sweep; it builds component records only to word an error.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterator, Sequence, Tuple

from .arrangement import (
    MAX_TOTAL_DEGREE,
    ArrangementGraph,
    Branch,
    Component,
    PointTypeSummary,
    RationalLike,
    SingularPoint,
    require_valid,
)
from .arrangement import _NEEDED, _echo, _load_json, _object, _rational, _require

__all__ = [
    "LineFileError",
    "ZeroFormError",
    "incidence_graph",
    "line_incidence",
    "load_lines",
    "normalize_form",
]

class ZeroFormError(ValueError):
    """The zero triple does not define a projective line."""


class LineFileError(ValueError):
    """Line-arrangement file does not match the expected schema."""


def _primitive(x: int, y: int, z: int) -> Tuple[int, int, int]:
    """Divide a nonzero integer triple by its content and make its first
    nonzero entry positive."""
    g = gcd(x, y, z)
    if g == 0:
        raise ZeroFormError("all three coefficients are zero")
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        g = -g
    return (x // g, y // g, z // g)


def _to_fraction(x: RationalLike, where: str, *at) -> Fraction:
    return _rational(x, where, *at, error=LineFileError)


def _integer_triple(raw: Sequence[RationalLike], where: str, *at) -> Tuple[int, int, int]:
    """The three coefficients ``raw`` times the lcm of their denominators,
    each coefficient checked and converted once; ``where.format(*at, k)``
    names coefficient k, and is formatted only for an error."""
    triple = [_to_fraction(x, where, *at, k) for k, x in enumerate(raw)]
    denom = lcm(*(x.denominator for x in triple))
    return tuple(x.numerator * (denom // x.denominator) for x in triple)


def normalize_form(raw: Sequence[RationalLike]) -> Tuple[int, int, int]:
    """The primitive integer triple (a, b, c) of the line a*x + b*y + c*z:
    denominators cleared, divided by the content, and the first nonzero
    coefficient positive.  Two forms define the same line iff their
    normalized triples are equal."""
    if len(raw) != 3:
        raise LineFileError(f"a linear form needs exactly 3 coefficients, got {len(raw)}")
    return _primitive(*_integer_triple(raw, "coefficient {}"))


class _Incidence:
    """A weighted list of linear forms, merged, and where the lines meet.

    Proportional forms merge into one line (multiplicities summed,
    first-seen order kept); line i becomes component ``l{i + 1}``.  No
    intersection is computed before :meth:`point_types` or :meth:`graph`
    runs the sweep, so the components can be validated first.
    """

    def __init__(self, forms: Sequence[Tuple[Sequence[RationalLike], int]]):
        if not forms:
            raise LineFileError("need at least one linear form")
        index: dict[Tuple[int, int, int], int] = {}
        self.lines: list[Tuple[int, int, int]] = []
        self.mults: list[int] = []
        for raw, mult in forms:
            if type(mult) is not int:
                _require(mult, int, "multiplicity", error=LineFileError)
            # Nonpositive multiplicities are kept and fail validation, which
            # keeps the schema/data error split uniform across inputs.
            if (
                type(raw) is tuple
                and len(raw) == 3
                and type(raw[0]) is int
                and type(raw[1]) is int
                and type(raw[2]) is int
            ):
                line = _primitive(*raw)  # as load_lines returns forms: no denominators to clear
            else:
                line = normalize_form(raw)
            k = index.get(line)
            if k is None:
                index[line] = len(self.lines)
                self.lines.append(line)
                self.mults.append(mult)
            else:
                self.mults[k] += mult

    def components(self) -> Tuple[Component, ...]:
        return tuple(Component(f"l{i + 1}", 1, m) for i, m in enumerate(self.mults))

    def _sweep(self, two_line_points: bool) -> Iterator[list[int]]:
        """The ascending indices of the lines through each intersection
        point, once per point: the one O(L^2) pair loop.  Points on exactly
        two lines are yielded only if ``two_line_points``.

        Line i groups the later lines by where they meet it.  With line i's
        coordinates (a, b, c) rotated cyclically so that a != 0 (a cyclic
        rotation commutes with the cross product), line k = (p, q, r) meets
        it at the point fixed by the last two coordinates of the cross
        product, the ratio (x : y) = (c*p - a*r : a*q - b*p), never (0 : 0).
        Its key is the integer floor(y * M / x) when x != 0 and ``None``
        when x = 0, where M = (2*C^2)^2 and C is the largest absolute
        coefficient of the lines; no gcd is taken.  The key names the point
        exactly.  |x| <= |c*p| + |a*r| <= 2*C^2, so |x1*x2| <= M, and two
        distinct ratios y1/x1 != y2/x2 differ by the nonzero integer
        |y1*x2 - y2*x1| over |x1*x2|, at least 1/M: their multiples by M
        differ by at least 1, and so do their floors.  Equal ratios,
        whatever the signs of x and y, have equal floors.

        A point belongs to the smallest line through it.  When line i
        yields a point on lines i < g1 < g2 < ..., each g_s notes g_{s+1}:
        at line g_s that point is the group whose first line is g_{s+1}, and
        two lines meet only once, so that group is skipped.  Memory stays
        O(L) plus one entry per line through each point on three or more
        lines.
        """
        lines = self.lines
        frames = (lines, [(b, c, a) for a, b, c in lines], [(c, a, b) for a, b, c in lines])
        scale = (2 * max(max(map(abs, line)) for line in lines) ** 2) ** 2
        seen: dict[int, set[int]] = {}
        for i, line in enumerate(lines):
            frame = frames[0 if line[0] else 1 if line[1] else 2]
            a, b, c = frame[i]
            first: dict[int | None, int] = {}
            groups: dict[int, list[int]] = {}
            for k, (p, q, r) in enumerate(frame[i + 1 :], i + 1):
                x = c * p - a * r
                j = first.setdefault((a * q - b * p) * scale // x if x else None, k)
                if j != k:
                    on = groups.get(j)
                    if on is None:
                        groups[j] = [i, j, k]
                    else:
                        on.append(k)
            done = seen.pop(i, ())
            for j, on in groups.items():
                if j not in done:
                    for s in range(1, len(on) - 1):
                        seen.setdefault(on[s], set()).add(on[s + 1])
                    yield on
            if two_line_points:
                for j in first.values():
                    if j not in groups and j not in done:
                        yield [i, j]

    def graph(self) -> ArrangementGraph:
        """The arrangement graph: points ``v{n + 1}`` in sorted coordinate
        order, each line through a point a branch of multiplicity 1, in
        ascending line order."""
        lines = self.lines
        points = []
        for on in self._sweep(True):
            (a, b, c), (p, q, r) = lines[on[0]], lines[on[1]]
            points.append((_primitive(b * r - c * q, c * p - a * r, a * q - b * p), on))
        points.sort(key=itemgetter(0))
        return ArrangementGraph(
            self.components(),
            tuple(
                SingularPoint(f"v{n + 1}", tuple(Branch(f"l{i + 1}", 1) for i in on))
                for n, (_, on) in enumerate(points)
            ),
        )

    def point_types(self) -> PointTypeSummary:
        """The arrangement graph's ``point_types`` less its simple nodes,
        without building the graph: every line has degree 1 and meets a
        point simply, so a point's type is the sorted tuple of (m_l, 1) over
        the lines through it, and there are no component pairs.

        Only the points on three or more lines, which the sweep yields, are
        counted, each by its profile, the sorted tuple of the multiplicities
        of its lines; the type ((m, 1), ...) is built once per distinct
        profile, not once per point.  A point on exactly two lines, of type ((m, 1), (m', 1)),
        has m_red = 2 and a twist of 0 or 1 at every j, so it adds zero to
        every coefficient of both spectrum routes (Budur and Saito read only
        the points on three or more lines of a line arrangement).
        """
        mults = self.mults
        profiles = Counter(tuple(sorted(map(mults.__getitem__, on))) for on in self._sweep(False))
        histogram = {tuple([(m, 1) for m in profile]): count for profile, count in profiles.items()}
        return PointTypeSummary(Counter(mults), 0, histogram)


def line_incidence(forms: Sequence[Tuple[Sequence[RationalLike], int]]) -> _Incidence:
    """Merge a weighted list of linear forms and validate the merged lines.

    Line data can break an invariant only at its components: every branch
    has multiplicity 1, which never exceeds degree 1, the ids are fresh and
    a line is listed once per point.  Of the component rules, lines of
    degree 1 named ``l1``, ``l2``, ... can break only two: each multiplicity
    is at least 1, and their sum is at most ``MAX_TOTAL_DEGREE``.  So those
    two checks validate the whole arrangement, before the pair loop; only
    when one fails are the components built and validated, which words the
    :class:`~curvespec.arrangement.InvalidArrangementError` exactly as
    ``require_valid`` does.  The result's ``point_types()`` and ``graph()``
    each run the pair loop when called.
    """
    incidence = _Incidence(forms)
    if min(incidence.mults) < 1 or sum(incidence.mults) > MAX_TOTAL_DEGREE:
        require_valid(ArrangementGraph(incidence.components(), ()))
    return incidence


def incidence_graph(forms: Sequence[Tuple[Sequence[RationalLike], int]]) -> ArrangementGraph:
    """Arrangement graph of a weighted list of linear forms.

    Proportional forms merge (multiplicities summed, first-seen order kept);
    the points are all pairwise intersections, each recording every line
    through it with branch multiplicity 1 (a line meets a point simply).
    """
    return _Incidence(forms).graph()


# A line file entry, as the objects of curvespec.arrangement's schema.
_ENTRY = ({"form": (None, _NEEDED), "multiplicity": (None, 1)}, "needs a 'form'")


def load_lines(path: str) -> list[Tuple[Tuple[int, int, int], int]]:
    """Read a line-arrangement JSON file: an array of
    {"form": [a, b, c], "multiplicity": m} with integer or "p/q" entries.

    Each form comes back as an integer triple, its denominators cleared
    (not yet divided by its content).  A zero form passes here and is
    reported by :func:`normalize_form`, after the whole file is read."""
    data = _load_json(path, LineFileError)
    if not isinstance(data, list):
        raise LineFileError("line file must be a JSON array")
    out = []
    for i, entry in enumerate(data):
        # A plain dict with exactly the schema's keys, a form of three ints
        # and an int multiplicity is read inline; anything else goes through
        # _object, _integer_triple and _require, which word the diagnostics
        # and fix their order.
        if (
            type(entry) is dict
            and type(raw := entry.get("form")) is list
            and len(raw) == 3
            and type(raw[0]) is int
            and type(raw[1]) is int
            and type(raw[2]) is int
            and type(mult := entry.get("multiplicity", 1)) is int
            and len(entry) == 1 + ("multiplicity" in entry)
        ):
            out.append((tuple(raw), mult))
            continue
        raw, mult = _object(entry, _ENTRY, "entry {}", i, error=LineFileError)
        if not isinstance(raw, list) or len(raw) != 3:
            raise LineFileError(f"entry {i}: 'form' must be a 3-element array")
        form = _integer_triple(raw, "entry {}, coefficient {}", i)
        out.append((form, _require(mult, int, "entry {}: multiplicity", i, error=LineFileError)))
    return out
