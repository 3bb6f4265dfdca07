"""Closed-form spectrum formulas for curve arrangements with ordinary points.

One kernel evaluates the general display (:func:`spectrum_general`).  It
sees a singular point only through its type, so it runs once per type, not
once per point: :func:`spectrum_of_point_types` reads a graph's
``point_types`` summary, which ``validate`` builds in its pass over the
points and which the reduced display and the characteristic-class route
read too (the routes share that counting, no formula code), and walks the
breakpoints of the twist coefficients: each ceil(j*m/d) is a step function
of j, so every type is visited only where its uv steps, its changes go
into difference arrays, and one prefix pass over j fills the three
coefficient runs.  Every step computes one quadratic: the other follows
from it (see :func:`spectrum_of_point_types`).
``curvespec.lines`` builds that summary straight from line incidence,
where a point's type is the sorted tuple of (m_l, 1) over the lines
through it, and leaves out the points on exactly two lines: such a type
((m, 1), (m', 1)) has m_red = 2 and a twist uv(j) of 0 or 1 at every j, so
it adds zero to every coefficient.  :func:`spectrum_smooth_components` and
:func:`spectrum_hyperplane` check their domain and call
:func:`spectrum_general`: their agreement with it tests the check, not a
second implementation, and the graph is still validated once.  The
reduced, irreducible-power, binary and isolated displays are separate code
that shares no formula code with the kernel, so each of them is an
independent check of the general formula on its own domain, and the test
suite checks that.  The reduced display reads each j from per-m_v tables
over c = ceil(j*m_v/d); the power display reads one period, j = 1..d, of
those tables and repeats it m times; the binary display sums over distinct
multiplicities and the isolated form uses window sums.  The displays that
take library arguments instead of a validated graph refuse a total degree
above ``MAX_TOTAL_DEGREE`` themselves.

Shared shape of all the plane-curve formulas: for each j in [1, d] (d the
total degree) three integer coefficients are produced at the exponents
j/d, 1 + j/d and 2 + j/d, built from the twist coefficients

    u0(j) = sum_l ceil(j*m_l/d)*d_l - j
    uv(j) = sum_{l through v} ceil(j*m_l/d)*m_{v,l} - ceil(j*m_v/d)

via generalized binomials (binom(-1, 2) = 1 matters: it produces the
-delta(j, d) cancellation pattern at the top exponent).  Every exponent is
a multiple of 1/d, so each display fills three runs of coefficients, n0,
n1 and n2 over j = 1..d, and hands ``n0 + n1 + n2`` to the trusted
constructor ``Spectrum._dense(d, run)``: the coefficients at the numerators
1..3d of the grid 1/d in order (j, then d + j, then 2d + j).  The spectrum
keeps that list, builds no term dict until arithmetic or a hash needs one,
and compares and prints from the list, so there is no rational arithmetic
between the j-loop and the printed output.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

from .arrangement import MAX_TOTAL_DEGREE, ArrangementGraph, PointTypeSummary, _echo, _require, require_valid
from .binomial import binom
from .spectrum import Spectrum

__all__ = [
    "spectrum_binary_linear",
    "spectrum_general",
    "spectrum_hyperplane",
    "spectrum_irreducible_power",
    "spectrum_isolated",
    "spectrum_reduced",
    "spectrum_smooth_components",
]


def _bounded(total: int) -> int:
    """``total``, the total degree of a display's input, unless it exceeds
    the limit that ``validate`` puts on every arrangement."""
    if total > MAX_TOTAL_DEGREE:
        raise ValueError(f"total degree {total} exceeds the limit {MAX_TOTAL_DEGREE}")
    return total


def _three_level_spectrum(d: int, n0: list[int], n1: list[int], n2: list[int]) -> Spectrum:
    """The spectrum of the coefficient runs n0, n1, n2 over j = 1..d at the
    exponents j/d, 1 + j/d, 2 + j/d, i.e. the numerators j, d + j, 2d + j on
    the grid 1/d, which the runs fill in increasing order: one dense run."""
    return Spectrum._dense(d, n0 + n1 + n2)


def spectrum_of_point_types(summary: PointTypeSummary) -> Spectrum:
    """The general display, evaluated as a walk over breakpoints.

    For 1 <= j <= d, ceil(j*m/d) = #{k in [0, m): k*d//m < j}: a step
    function of j that rises by one at the 0-based positions k*d//m.  So
    u0 is one prefix sum over a ``rise`` array fed by the m steps of each
    component multiplicity, and a point type's uv changes only at the steps
    of the multiplicities in its weight and of m_v.  Each type is walked
    once over its own steps, adding count * (new - old) of two of its three
    quadratics into difference arrays; the three add up to a constant that
    folds, with its pair counts, into one constant of n1.  Only
    binom(uv, 2) is computed at a step: binom(m_red - uv - 1, 2) differs
    from it by binom(m_red - 1, 2) - (m_red - 2)*uv, so its change is that
    of binom(uv, 2) less (m_red - 2) times the change of uv, and the
    constant is seeded once at position 0.  A weight with m_red <= 2 is
    skipped, its quadratics being 0 at every j.  One prefix pass over j
    then fills the coefficient runs, so the cost grows with d plus the
    breakpoints of the types, however many points share a type.  The
    summary must come from a valid arrangement.
    """
    degree_by_mult = summary.degree_by_mult
    d = d_red = 0
    for m, deg in degree_by_mult.items():
        d += m * deg
        d_red += deg
    # The part of n1 that is constant in j: the component pair count less,
    # for every point, its branch pair counts and binom(m_red - 1, 2).
    pair_term = summary.comp_pairs

    # positions[m] lists the 0-based positions j - 1 where ceil(j*m/d)
    # rises by one.
    positions = {}
    rise = [0] * d
    for m, deg in degree_by_mult.items():
        positions[m] = steps = [k * d // m for k in range(m)]
        for p in steps:
            rise[p] += deg

    # Types with the same weight by component multiplicity share their uv
    # and m_red; only their branch pair counts differ, and those go into
    # pair_term here.  A type is sorted, so its weight merges runs of equal m.
    by_weight: dict[tuple, int] = {}
    for branches, count in summary.histogram.items():
        weight = []
        last = 0
        for m, mult in branches:
            if m == last:
                weight[-1] = (m, weight[-1][1] + mult)
            else:
                weight.append((m, mult))
                last = m
            pair_term -= count * (mult * (mult - 1) // 2)
        key = tuple(weight)
        by_weight[key] = by_weight.get(key, 0) + count

    # diff_k[p] is the change at j = p + 1 of the sum over types of
    # count * (k-th quadratic of uv); binom(x, 2) is written x*(x - 1)//2.
    # With low = m_red - uv - 1 the three quadratics binom(low, 2), uv*low
    # and binom(uv, 2) add up to binom(m_red - 1, 2) at every j, so the
    # middle one is carried by pair_term, diff0 and diff2.  And
    # binom(low, 2) = binom(uv, 2) + binom(m_red - 1, 2) - (m_red - 2)*uv,
    # so a step that moves uv by e changes the first quadratic by the change
    # of the last less (m_red - 2)*e: each step computes one quadratic, and
    # the constant binom(m_red - 1, 2) is seeded at position 0, where every
    # uv starts from 0 with both quadratics 0 before j = 1.
    diff0 = [0] * d
    diff2 = [0] * d
    for weight, count in by_weight.items():
        # uv(j) = sum_m ceil(j*m/d) * weight[m] - ceil(j*m_v/d).
        m_v = m_red = 0
        for m, w in weight:
            m_v += m * w
            m_red += w
        top = m_red - 1
        if top < 2:
            # uv and low lie in {0, 1} at every j: both quadratics are 0.
            continue
        seed = count * (top * (top - 1) // 2)
        pair_term -= seed
        diff0[0] += seed
        slope = count * (m_red - 2)
        # Walked from uv = 0 before j = 1; position 0 is a step of every m,
        # so the first event sets the values at j = 1.  The steps of m_v are
        # made for this weight alone: kept for every distinct m_v, they would
        # grow with the weights, not with d.
        events = dict.fromkeys([k * d // m_v for k in range(m_v)], -1)
        for m, w in weight:
            for p in positions[m]:
                events[p] = events.get(p, 0) + w
        uv = old = 0
        for p in sorted(events):
            e = events[p]
            uv += e
            new = count * (uv * (uv - 1) // 2)
            change = new - old
            diff2[p] += change
            diff0[p] += change - slope * e
            old = new

    n0, n1, n2 = [], [], []
    add0, add1, add2 = n0.append, n1.append, n2.append
    ceil_sum = s0 = s2 = 0
    for j, r, e0, e2 in zip(range(1, d + 1), rise, diff0, diff2):
        ceil_sum += r
        s0 += e0
        s2 += e2
        u0 = ceil_sum - j
        low = d_red - u0 - 1
        add0(low * (low - 1) // 2 - s0)
        add1((u0 - 1) * low + pair_term + s0 + s2)
        add2((u0 - 1) * (u0 - 2) // 2 - s2)
    # The -delta(j, d) at the top exponent.
    n2[-1] -= 1
    return _three_level_spectrum(d, n0, n1, n2)


def spectrum_general(graph: ArrangementGraph) -> Spectrum:
    """Spectrum of a possibly non-reduced ordinary curve arrangement."""
    return spectrum_of_point_types(require_valid(graph).point_types)


def spectrum_reduced(graph: ArrangementGraph) -> Spectrum:
    """Spectrum of a reduced arrangement (all component multiplicities 1),
    via the simplified display where u0 = d - j.

    Each j is evaluated directly, with no breakpoints or difference arrays,
    so this is a second algorithm beside the general kernel.  It reads the
    graph's ``point_types`` summary and groups its types by m_v alone: a
    point's branch pair count does not depend on j, so every type's count
    times it folds into the j-constant of n1 together with ``comp_pairs``."""
    summary = require_valid(graph).point_types
    if not graph.is_reduced():
        bad = [c.id for c in graph.components if c.multiplicity != 1]
        raise ValueError(f"reduced formula needs all multiplicities 1; components {_echo(bad)} violate that")
    d = sum(summary.degree_by_mult.values())
    pair_term = summary.comp_pairs
    by_point_mult: dict[int, int] = {}
    for branches, count in summary.histogram.items():
        m_v = 0
        for _, mult in branches:
            m_v += mult
            pair_term -= count * (mult * (mult - 1) // 2)
        by_point_mult[m_v] = by_point_mult.get(m_v, 0) + count

    run0, run1, run2 = _reduced_runs(d, pair_term, by_point_mult)
    run2[-1] -= 1
    return _three_level_spectrum(d, run0, run1, run2)


def _reduced_runs(d: int, pair_term: int, by_point_mult: dict[int, int]) -> tuple[list[int], list[int], list[int]]:
    """Runs n0, n1, n2 over j = 1..d, before the top -1, of a reduced curve
    of degree d: n1's j-constant ``pair_term``, and ``by_point_mult[m_v]``
    points of multiplicity m_v, whose quadratics depend on j only through
    c = ceil(j*m_v/d); each group tabulates them, times its size, over
    c = 0..m_v, so a j costs a floor division and three subtractions per group."""
    # binom(x, 2) is written x*(x - 1)//2, ceil(j*m_v/d) as (j*m_v + d - 1)//d.
    tables = [
        (
            m_v,
            [count * ((c - 1) * (c - 2) // 2) for c in range(m_v + 1)],
            [count * ((c - 1) * (m_v - c)) for c in range(m_v + 1)],
            [count * ((m_v - c) * (m_v - c - 1) // 2) for c in range(m_v + 1)],
        )
        for m_v, count in by_point_mult.items()
    ]
    run0, run1, run2 = [], [], []
    top = d - 1
    for j in range(1, d + 1):
        n0 = (j - 1) * (j - 2) // 2
        n1 = (j - 1) * (d - j - 1) + pair_term
        n2 = (d - j - 1) * (d - j - 2) // 2
        for m_v, low, mid, high in tables:
            c = (j * m_v + top) // d
            n0 -= low[c]
            n1 -= mid[c]
            n2 -= high[c]
        run0.append(n0)
        run1.append(n1)
        run2.append(n2)
    return run0, run1, run2


def spectrum_smooth_components(graph: ArrangementGraph) -> Spectrum:
    """Spectrum when every component is a smooth curve, i.e. every branch
    multiplicity m_{v,l} is 1 (so the per-branch pair counts vanish).

    :func:`spectrum_general` behind a domain check."""
    require_valid(graph)
    bad = [
        (p.id, br.component)
        for p in graph.points
        for br in p.branches
        if br.mult != 1
    ]
    if bad:
        raise ValueError(f"smooth-components formula needs every branch multiplicity 1; got {_echo(bad)}")
    return spectrum_general(graph)


def spectrum_hyperplane(graph: ArrangementGraph) -> Spectrum:
    """Spectrum of a line arrangement (all component degrees 1), where both
    the component pair count and the branch pair counts vanish.

    :func:`spectrum_general` behind a domain check."""
    require_valid(graph)
    bad = [c.id for c in graph.components if c.degree != 1]
    if bad:
        raise ValueError(f"hyperplane formula needs all component degrees 1; components {_echo(bad)} violate that")
    return spectrum_general(graph)


def spectrum_irreducible_power(d: int, m: int, point_mults: Iterable[int]) -> Spectrum:
    """Spectrum of the m-th power of one irreducible degree-d curve whose
    ordinary multiple points have the given reduced multiplicities (any
    iterable, read once).

    Exponents live on the 1/(m*d) grid.  For j = (q - 1)*d + r with
    1 <= r <= d, u0 = d - r and uv = mu - ceil(r*mu/d): one period of the
    reduced display's runs over r, repeated m times.
    """
    if _require(d, int, "degree", error=TypeError) < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if _require(m, int, "power", error=TypeError) < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    total = _bounded(m * d)
    by_point_mult: dict[int, int] = {}
    for mu in point_mults:
        if not 2 <= _require(mu, int, "point multiplicity", error=TypeError) <= d:
            raise ValueError(f"point multiplicity must lie in [2, {d}], got {mu}")
        by_point_mult[mu] = by_point_mult.get(mu, 0) + 1
    pair_term = binom(d, 2) - sum(count * binom(mu, 2) for mu, count in by_point_mult.items())
    run0, run1, run2 = [run * m for run in _reduced_runs(d, pair_term, by_point_mult)]
    run2[-1] -= 1
    return _three_level_spectrum(total, run0, run1, run2)


def spectrum_binary_linear(mults: Iterable[int]) -> Spectrum:
    """Spectrum of a product of distinct linear forms in two variables,
    the l-th form raised to mults[l] (any iterable, read once).  Exponents
    lie in (0, 2].  Each j sums count * ceil(j*m/d) over the k distinct
    multiplicities, and k(k + 1)/2 <= d."""
    by_mult: dict[int, int] = {}
    for m in mults:
        if _require(m, int, "multiplicity", error=TypeError) < 1:
            raise ValueError(f"multiplicity must be >= 1, got {m}")
        by_mult[m] = by_mult.get(m, 0) + 1
    if not by_mult:
        raise ValueError("need at least one linear form")
    d = _bounded(sum(m * count for m, count in by_mult.items()))
    d_red = sum(by_mult.values())
    top = d - 1
    run0, run1 = [], []
    for j in range(1, d + 1):
        ceil_sum = sum([count * ((j * m + top) // d) for m, count in by_mult.items()])
        run0.append(d_red - ceil_sum + j - 1)
        run1.append(ceil_sum - j - 1)
    run1[-1] += 1
    return _three_level_spectrum(d, run0, run1, [0] * d)


def spectrum_isolated(d: int, n: int) -> Spectrum:
    """Spectrum of a homogeneous polynomial of degree d in n variables with
    an isolated singularity: the n-th power of t^(1/d) + ... + t^((d-1)/d).

    The coefficient at t^(k/d) counts the ways to write k as a sum of n
    numerators in [1, d - 1]: one factor's box, then n - 1 window sums of
    width d - 1 over k = 0..3d, each one prefix pass, so the cost grows
    linearly with d.  d = 1 gives the zero spectrum (empty geometric sum).
    """
    if _require(d, int, "degree", error=TypeError) < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if _require(n, int, "ambient dimension", error=TypeError) not in (1, 2, 3):
        raise ValueError(f"ambient dimension must be 1, 2 or 3, got {n}")
    _bounded(d)
    run = [0] + [1] * (d - 1) + [0] * (2 * d + 1)
    for _ in range(n - 1):
        prefix = [0, *accumulate(run)]  # prefix[k] = sum(run[:k])
        run = [prefix[k] - prefix[max(k - d + 1, 0)] for k in range(3 * d + 1)]
    return Spectrum._dense(d, run[1:])
