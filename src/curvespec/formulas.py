"""Closed-form spectrum formulas for curve arrangements with ordinary points.

One kernel evaluates the general display (:func:`spectrum_general`).  It
sees a singular point only through its type, so it runs once per type, not
once per point.  It is split in two: a :class:`PointTypeSummary` (degree by
component multiplicity, the component pair count and the histogram of point
types) and one j-loop over that summary, :func:`spectrum_of_point_types`.
A graph is summarised here; ``curvespec.lines`` builds the same summary
straight from line incidence, where a point's type is the sorted tuple of
(m_l, 1) over the lines through it.  :func:`spectrum_smooth_components` and
:func:`spectrum_hyperplane` are that kernel behind a domain check: their
agreement with the general formula tests the check, not a second
implementation.  The reduced, irreducible-power, binary and isolated
displays are separate code that shares no formula code with the kernel, so
each of them is an independent check of the general formula on its own
domain, and the test suite checks that.

Shared shape of all the plane-curve formulas: for each j in [1, d] (d the
total degree) three integer coefficients are produced at the exponents
j/d, 1 + j/d and 2 + j/d, built from the twist coefficients

    u0(j) = sum_l ceil(j*m_l/d)*d_l - j
    uv(j) = sum_{l through v} ceil(j*m_l/d)*m_{v,l} - ceil(j*m_v/d)

via generalized binomials (binom(-1, 2) = 1 matters: it produces the
-delta(j, d) cancellation pattern at the top exponent).  Every exponent is
a multiple of 1/d, so the rows (j, n0, n1, n2) become a spectrum on the
integer grid 1/d: the numerators j, d + j and 2d + j, with no rational
arithmetic between the j-loop and the printed output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .arrangement import ArrangementGraph, derived, require_valid
from .binomial import binom, ceil_div
from .spectrum import Spectrum

__all__ = [
    "TwistCoefficients",
    "spectrum_binary_linear",
    "spectrum_general",
    "spectrum_hyperplane",
    "spectrum_irreducible_power",
    "spectrum_isolated",
    "spectrum_reduced",
    "spectrum_smooth_components",
    "twist_coefficients",
]


@dataclass(frozen=True)
class TwistCoefficients:
    """Integer coefficients of the j-th twisting divisor class.

    ``e0`` is the coefficient on the pulled-back hyperplane direction,
    ``ev`` maps each singular point id to the coefficient on its
    exceptional direction.  For reduced arrangements e0 = d - j and
    ev[v] = m_v - ceil(j*m_v/d).
    """

    j: int
    e0: int
    ev: Mapping[str, int]


def twist_coefficients(graph: ArrangementGraph, j: int) -> TwistCoefficients:
    """Evaluate u0(j) and uv(j) for a valid graph and 1 <= j <= d."""
    require_valid(graph)
    data = derived(graph)
    d = data.total_degree
    if not 1 <= j <= d:
        raise ValueError(f"j must lie in [1, {d}], got {j}")
    ceil_by_comp = {c.id: ceil_div(j * c.multiplicity, d) for c in graph.components}
    e0 = sum(ceil_by_comp[c.id] * c.degree for c in graph.components) - j
    ev = {}
    for point in graph.points:
        total = sum(ceil_by_comp[br.component] * br.mult for br in point.branches)
        ev[point.id] = total - ceil_div(j * data.point_mult[point.id], d)
    return TwistCoefficients(j, e0, ev)


def _three_level_spectrum(d: int, rows) -> Spectrum:
    """Assemble coefficients {(j, n0, n1, n2)} into a spectrum over exponents
    j/d, 1 + j/d, 2 + j/d, i.e. the numerators j, d + j, 2d + j on the grid 1/d."""
    terms = []
    for j, n0, n1, n2 in rows:
        terms += ((j, n0), (d + j, n1), (2 * d + j, n2))
    return Spectrum(terms, den=d)


@dataclass(frozen=True)
class PointTypeSummary:
    """All the general display reads of an arrangement.

    ``degree_by_mult`` maps each component multiplicity m to the sum of the
    degrees of the components with that multiplicity, ``comp_pairs`` is
    sum_l binom(d_l, 2), and ``histogram`` counts the singular points of
    each type: the sorted tuple of (m_l, m_{v,l}) over a point's branches.
    """

    degree_by_mult: Mapping[int, int]
    comp_pairs: int
    histogram: Mapping[tuple, int]


def _point_type_summary(graph: ArrangementGraph) -> PointTypeSummary:
    comp_mult = {c.id: c.multiplicity for c in graph.components}
    histogram = Counter(
        tuple(sorted((comp_mult[br.component], br.mult) for br in p.branches)) for p in graph.points
    )
    degree_by_mult: dict[int, int] = {}
    for c in graph.components:
        degree_by_mult[c.multiplicity] = degree_by_mult.get(c.multiplicity, 0) + c.degree
    comp_pairs = sum(c.degree * (c.degree - 1) // 2 for c in graph.components)
    return PointTypeSummary(degree_by_mult, comp_pairs, histogram)


def spectrum_of_point_types(summary: PointTypeSummary) -> Spectrum:
    """The general display, evaluated once per point type.

    A point enters only through its type, so each j costs one ceiling per
    distinct component multiplicity and one step per type, however many
    points share a type.  The summary must come from a valid arrangement.
    """
    degree_by_mult = summary.degree_by_mult
    d = sum(m * deg for m, deg in degree_by_mult.items())
    d_red = sum(degree_by_mult.values())
    comp_pairs = summary.comp_pairs
    types = []
    for branches, count in summary.histogram.items():
        # uv(j) = sum_m ceil(j*m/d) * weight[m] - ceil(j*m_v/d)
        weight: dict[int, int] = {}
        for m, mult in branches:
            weight[m] = weight.get(m, 0) + mult
        m_v = sum(m * w for m, w in weight.items())
        m_red = sum(weight.values())
        pairs = sum(mult * (mult - 1) // 2 for _, mult in branches)
        types.append((tuple(weight.items()), m_v, m_red, pairs, count))

    # binom(x, 2) is written x*(x - 1)//2 (exact for every integer x, and
    # binom(-1, 2) = 1), ceil(j*m/d) as (j*m + d - 1)//d.
    rows = []
    top = d - 1
    for j in range(1, d + 1):
        ceil_by_mult = {m: (j * m + top) // d for m in degree_by_mult}
        u0 = sum(ceil_by_mult[m] * deg for m, deg in degree_by_mult.items()) - j
        low = d_red - u0 - 1
        n0 = low * (low - 1) // 2
        n1 = (u0 - 1) * low + comp_pairs
        n2 = (u0 - 1) * (u0 - 2) // 2
        for weight, m_v, m_red, pairs, count in types:
            uv = -((j * m_v + top) // d)
            for m, w in weight:
                uv += ceil_by_mult[m] * w
            low = m_red - uv - 1
            n0 -= count * (low * (low - 1) // 2)
            n1 -= count * (uv * low + pairs)
            n2 -= count * (uv * (uv - 1) // 2)
        if j == d:
            n2 -= 1
        rows.append((j, n0, n1, n2))
    return _three_level_spectrum(d, rows)


def _general_display(graph: ArrangementGraph) -> Spectrum:
    """The general display of a valid graph."""
    return spectrum_of_point_types(_point_type_summary(graph))


def spectrum_general(graph: ArrangementGraph) -> Spectrum:
    """Spectrum of a possibly non-reduced ordinary curve arrangement."""
    require_valid(graph)
    return _general_display(graph)


def spectrum_reduced(graph: ArrangementGraph) -> Spectrum:
    """Spectrum of a reduced arrangement (all component multiplicities 1),
    via the simplified display where u0 = d - j."""
    require_valid(graph)
    if not graph.is_reduced():
        bad = [c.id for c in graph.components if c.multiplicity != 1]
        raise ValueError(f"reduced formula needs all multiplicities 1; components {bad} violate that")
    data = derived(graph)
    d = data.total_degree
    comp_pairs = sum(c.degree * (c.degree - 1) // 2 for c in graph.components)
    points = [
        (data.point_mult[p.id], sum(br.mult * (br.mult - 1) // 2 for br in p.branches))
        for p in graph.points
    ]

    # binom(x, 2) is written x*(x - 1)//2, ceil(j*m_v/d) as (j*m_v + d - 1)//d.
    rows = []
    top = d - 1
    for j in range(1, d + 1):
        n0 = (j - 1) * (j - 2) // 2
        n1 = (j - 1) * (d - j - 1) + comp_pairs
        n2 = (d - j - 1) * (d - j - 2) // 2
        for m_v, branch_pairs in points:
            ceil_v = (j * m_v + top) // d
            n0 -= (ceil_v - 1) * (ceil_v - 2) // 2
            n1 -= (ceil_v - 1) * (m_v - ceil_v) + branch_pairs
            n2 -= (m_v - ceil_v) * (m_v - ceil_v - 1) // 2
        if j == d:
            n2 -= 1
        rows.append((j, n0, n1, n2))
    return _three_level_spectrum(d, rows)


def spectrum_smooth_components(graph: ArrangementGraph) -> Spectrum:
    """Spectrum when every component is a smooth curve, i.e. every branch
    multiplicity m_{v,l} is 1 (so the per-branch pair counts vanish).

    The general display behind a domain check."""
    require_valid(graph)
    bad = [
        (p.id, br.component)
        for p in graph.points
        for br in p.branches
        if br.mult != 1
    ]
    if bad:
        raise ValueError(f"smooth-components formula needs every branch multiplicity 1; got {bad}")
    return _general_display(graph)


def spectrum_hyperplane(graph: ArrangementGraph) -> Spectrum:
    """Spectrum of a line arrangement (all component degrees 1), where both
    the component pair count and the branch pair counts vanish.

    The general display behind a domain check."""
    require_valid(graph)
    bad = [c.id for c in graph.components if c.degree != 1]
    if bad:
        raise ValueError(f"hyperplane formula needs all component degrees 1; components {bad} violate that")
    return _general_display(graph)


def spectrum_irreducible_power(d: int, m: int, point_mults: Sequence[int]) -> Spectrum:
    """Spectrum of the m-th power of one irreducible degree-d curve whose
    ordinary multiple points have the given reduced multiplicities.

    Sampling runs over j in [1, m*d]; exponents live on the 1/(m*d) grid.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    for mu in point_mults:
        if not 2 <= mu <= d:
            raise ValueError(f"point multiplicity must lie in [2, {d}], got {mu}")
    total = m * d
    curve_pairs = binom(d, 2)

    rows = []
    for j in range(1, total + 1):
        q = ceil_div(j, d)
        u0 = q * d - j
        n0 = binom(d - u0 - 1, 2)
        n1 = (u0 - 1) * (d - u0 - 1) + curve_pairs
        n2 = binom(u0 - 1, 2)
        for mu in point_mults:
            uv = q * mu - ceil_div(j * mu, d)
            n0 -= binom(mu - uv - 1, 2)
            n1 -= uv * (mu - uv - 1) + binom(mu, 2)
            n2 -= binom(uv, 2)
        if j == total:
            n2 -= 1
        rows.append((j, n0, n1, n2))
    return _three_level_spectrum(total, rows)


def spectrum_binary_linear(mults: Sequence[int]) -> Spectrum:
    """Spectrum of a product of distinct linear forms in two variables,
    the l-th form raised to mults[l].  Exponents lie in (0, 2]."""
    if not mults:
        raise ValueError("need at least one linear form")
    for m in mults:
        if m < 1:
            raise ValueError(f"multiplicity must be >= 1, got {m}")
    d = sum(mults)
    d_red = len(mults)
    rows = []
    for j in range(1, d + 1):
        ceil_sum = sum(ceil_div(j * m, d) for m in mults)
        n0 = d_red - ceil_sum + j - 1
        n1 = ceil_sum - j - 1 + (1 if j == d else 0)
        rows.append((j, n0, n1, 0))
    return _three_level_spectrum(d, rows)


def spectrum_isolated(d: int, n: int) -> Spectrum:
    """Spectrum of a homogeneous polynomial of degree d in n variables with
    an isolated singularity: the n-th power of t^(1/d) + ... + t^((d-1)/d).

    d = 1 gives the zero spectrum (empty geometric sum).
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if n not in (1, 2, 3):
        raise ValueError(f"ambient dimension must be 1, 2 or 3, got {n}")
    factor = Spectrum([(i, 1) for i in range(1, d)], den=d)
    result = Spectrum.term(0)
    for _ in range(n):
        result = result * factor
    return result
