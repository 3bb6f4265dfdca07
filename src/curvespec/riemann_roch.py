"""Independent spectrum computation via characteristic classes.

Pipeline: build the Chern class of the log cotangent bundle of the blown-up
plane from product formulas (tangent Chern class of a blow-up, negative
powers of the boundary factors for the log twist), take Chern characters of
its wedge powers, twist by an explicit divisor class depending on an
integer sample index j, multiply by the Todd class, and integrate.  The
resulting Euler characteristics assemble into spectrum coefficients.

The per-point builds (:func:`chern_tangent`, :func:`chern_cotangent_log`,
:func:`todd`, :func:`wedge_ch`, :func:`euler_characteristic`) work from
first principles in the truncated cohomology ring; they are the tests'
reference, importable from this module but not exported by the package.
The spectrum route takes the log cotangent class from its closed
expansion instead, written once in :func:`_log_chern`, and the Todd class
from its closed form; the ``*_closed`` functions are per-point views of
those expansions, so tests compare the two builds.  Agreement of :func:`spectrum_via_riemann_roch`
with the combinatorial formulas in :mod:`curvespec.formulas` is the
package's central cross-validation.

Cost.  The per-point builds form every product formula with
:func:`curvespec.cohomology.product`, ring products in a balanced tree, in
time O(P log P) for P points.  The spectrum route builds no class at all.
It reads only the graph's :class:`~curvespec.arrangement.PointTypeSummary`,
the point-type counting it shares with the closed formulas: the closed
coefficients of a point depend only on its type (its sorted (m_l, m_{v,l})
pairs), and so does its twist coefficient u_v.  With
td = 1 - (3*e0 + sum_v e_v)/2 + e0^2 the twisted structure sheaf has
2*chi_0 = 2 + u0^2 - sum_v u_v^2 - 3*u0 + sum_v u_v.  For the rank-2 log
cotangent bundle ch(wedge^2) = ch(c1), so chi_2(u) = chi_0(u + c1), and
ch(wedge^1) = ch(wedge^0) + ch(wedge^2) - c2, so chi_1 = chi_0 + chi_2 - c2.
Each j therefore reads u0 and three integer sums over the point types,
sum u_v, sum m_{v,red}*u_v and sum u_v^2, each type times its count.  With
i = d - j every twist coefficient is built from floors floor(i*m/d), which
rise by one at i = ceil(k*d/m); so the four go into difference arrays at
those rises (the linear ones once per distinct component multiplicity and
once per type at the rises of its m_v, sum u_v^2 by one walk per type) and
one pass over i yields every j.  The cost is
O(d + sum_T (m_v + sum_l m_l)) for the types T, not O(T*d).  Every chi is
formed as an integer over 2, and an odd numerator (from a non-integral c2,
say) fails the integrality assertion.  No :class:`fractions.Fraction` is
made in the pairing.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import ArrangementGraph, PointTypeSummary, derived, require_valid
from .cohomology import ONE, CohClass, exceptional_class, hyperplane_e0, point_e, product
from .spectrum import Spectrum

__all__ = ["spectrum_via_riemann_roch"]


def _branch_mults(graph: ArrangementGraph) -> list[dict[str, int]]:
    """{point id: m_{v,l}} for each component l, in component order."""
    through: dict[str, dict[str, int]] = {c.id: {} for c in graph.components}
    for point in graph.points:
        for br in point.branches:
            through[br.component][point.id] = br.mult
    return [through[c.id] for c in graph.components]


def chern_tangent(graph: ArrangementGraph) -> CohClass:
    """Total Chern class of the tangent bundle of the blow-up, by the
    product formula c = (1 - e0)^3 * prod_v (1 + e_v)((1 - e0 - e_v)/(1 - e0))^2."""
    require_valid(graph)
    # The per-point denominators (1 - e0)^2 join the (1 - e0)^3 of the plane.
    line = ONE - hyperplane_e0()
    factors = [(line, 3 - 2 * len(graph.points))]
    for point in graph.points:
        e_v = point_e(point.id)
        factors += [(ONE + e_v, 1), (line - e_v, 2)]
    return product(factors)


def _dual(c):
    return c.degree_part(0) - c.degree_part(1) + c.degree_part(2)


def _chern_cotangent_log(graph: ArrangementGraph, tangent: CohClass) -> CohClass:
    factors = [(_dual(tangent), 1)]
    factors += [(ONE - point_e(point.id), -1) for point in graph.points]
    factors += [
        (ONE - exceptional_class(c.degree, mults), -1) for c, mults in zip(graph.components, _branch_mults(graph))
    ]
    return product(factors)


def chern_cotangent_log(graph: ArrangementGraph) -> CohClass:
    """Total Chern class of the sheaf of 1-forms with log poles along the
    total transform of the arrangement (exceptional curves and strict
    transforms): the cotangent class times 1/(1 - e_v) for every point and
    1/(1 - [E_l]) for every component."""
    return _chern_cotangent_log(graph, chern_tangent(graph))


def chern_cotangent_log_closed(graph: ArrangementGraph) -> CohClass:
    """Closed-form expansion of :func:`chern_cotangent_log` (see
    :func:`_log_chern`), each point's e_v coefficient 2 - m_{v,red} read off
    its branches, a regression target for the product route."""
    d_red, _, c2_twice = _log_chern(require_valid(graph).point_types)
    bv = {point.id: 2 - sum(br.mult for br in point.branches) for point in graph.points}
    return CohClass(1, 3 - d_red, bv, Fraction(c2_twice, 2))


def _todd(tangent):
    # The scalar part of a tangent class is 1.
    one = tangent.degree_part(0)
    c1 = tangent.degree_part(1)
    c2 = tangent.degree_part(2)
    return one + c1 / 2 + (c1 * c1 + c2) / 12


def todd(graph: ArrangementGraph) -> CohClass:
    """Todd class 1 + c1/2 + (c1^2 + c2)/12 of the blown-up surface."""
    return _todd(chern_tangent(graph))


def todd_closed(graph: ArrangementGraph) -> CohClass:
    """Closed form 1 - (sum_v e_v + 3 e0)/2 + e0^2 of :func:`todd`, the one
    :func:`_euler_characteristics` pairs with, regression target."""
    require_valid(graph)
    return CohClass(1, Fraction(-3, 2), {point.id: Fraction(-1, 2) for point in graph.points}, 1)


def wedge_ch(c_total: CohClass, p: int) -> CohClass:
    """Chern character of the p-th wedge power of a rank-2 bundle with the
    given total Chern class (p = 0, 1, 2)."""
    if c_total.degree_part(0) != ONE:
        raise ValueError("total Chern class must have scalar part 1")
    if p not in (0, 1, 2):
        raise ValueError(f"wedge power must be 0, 1 or 2, got {p}")
    if p == 0:
        return ONE
    c1 = c_total.degree_part(1)
    determinant = ONE + c1 + c1 * c1 / 2
    return determinant if p == 2 else ONE + determinant - c_total.degree_part(2)


def line_bundle_ch(divisor: CohClass) -> CohClass:
    """Chern character 1 + u + u^2/2 of the line bundle with divisor class u."""
    if not divisor.is_divisor():
        raise ValueError(f"expected a pure degree-1 class, got {divisor!r}")
    return ONE + divisor + divisor * divisor / 2


def twist_class(graph: ArrangementGraph, j: int) -> CohClass:
    """Divisor class of the j-th twist, built from floor divisions:
    (d - j)*e0 + sum_v floor((d-j)*m_v/d)*e_v + sum_l floor((d-j)*m_l/d)*[E_l].

    Expanding [E_l] reproduces the ceiling-based twist coefficients of the
    combinatorial formulas via floor((d-j)*m/d) = m - ceil(j*m/d).
    """
    require_valid(graph)
    data = derived(graph)
    d = data.total_degree
    if not 1 <= j <= d:
        raise ValueError(f"j must lie in [1, {d}], got {j}")
    i = d - j
    # Each floor(i*m_l/d)*[E_l] = -floor(i*m_l/d)*(d_l*e0 + sum_v m_{v,l}*e_v)
    # is collected into the integer coefficients in one pass.
    floors = {comp.id: (i * comp.multiplicity) // d for comp in graph.components}
    b0 = i - sum(floors[comp.id] * comp.degree for comp in graph.components)
    bv = {
        point.id: (i * data.point_mult[point.id]) // d - sum(floors[br.component] * br.mult for br in point.branches)
        for point in graph.points
    }
    return CohClass(b0=b0, bv=bv)


def _integer(numerator: int, den: int, what: str) -> int:
    value, rest = divmod(numerator, den)
    if rest:
        raise ArithmeticError(f"{what} must be an integer, got {Fraction(numerator, den)}")
    return value


def euler_characteristic(graph: ArrangementGraph, p: int, divisor: CohClass) -> int:
    """Euler characteristic of the p-th wedge of log 1-forms twisted by the
    line bundle of the given divisor class, by Hirzebruch-Riemann-Roch.

    Rational numbers appear mid-computation (Todd denominators); the result
    is asserted integral, so a fractional value signals an internal bug.
    """
    tangent = chern_tangent(graph)
    log_chern = _chern_cotangent_log(graph, tangent)
    integrand = wedge_ch(log_chern, p) * line_bundle_ch(divisor) * _todd(tangent)
    value = integrand.integrate()
    return _integer(value.numerator, value.denominator, f"chi_{p}")


def _log_chern(summary: PointTypeSummary) -> tuple[int, list[int], int]:
    """(d_red, [m_{v,red} per type], 2*c2) of a valid arrangement's summary,
    in the order of its histogram, from the closed expansion

        c(Omega^1(log)) = 1 + c1 + c2*e0^2,
        c1 = (3 - d_red)*e0 + sum_v (2 - m_{v,red})*e_v,
        c2 = (d_red^2 + sum_l d_l^2)/2 + 3*(1 - d_red)
             - sum_v ((m_{v,red}^2 + sum_l m_{v,l}^2)/2 - 2*m_{v,red} + 1),

    with e_v^2 rewritten as -e0^2.  The reduced degree d_red = sum_l d_l
    enters (not the total degree), and m_{v,red} = sum_l m_{v,l}: log
    poles see each component once, whatever its multiplicity.
    sum_l d_l^2 = 2*comp_pairs + d_red, and a type's count multiplies its
    e0^2 term."""
    d_red = sum(summary.degree_by_mult.values())
    top = d_red * d_red + 2 * summary.comp_pairs + d_red + 6 * (1 - d_red)
    m_reds = []
    for branches, count in summary.histogram.items():
        m_red = sum(mu for _, mu in branches)
        m_reds.append(m_red)
        top -= count * (m_red * m_red + sum(mu * mu for _, mu in branches) - 4 * m_red + 2)
    return d_red, m_reds, top


def _rises(m: int, d: int) -> list[int]:
    """The i in [0, d) at which floor(i*m/d) rises by one, for 1 <= m <= d:
    i = ceil(k*d/m) for k = 1..m-1, all distinct."""
    return [(k * d + m - 1) // m for k in range(1, m)]


def _euler_characteristics(summary: PointTypeSummary):
    """Yield (j, [chi_0, chi_1, chi_2]) for the twists j = 1..d of a valid
    arrangement with point-type summary ``summary``: the integer form of
    euler_characteristic(graph, p, twist_class(graph, j)).

    With i = d - j the twist is u = u0*e0 + sum_v u_v*e_v, where
    u0 = i - sum_l floor(i*m_l/d)*d_l and
    u_v = floor(i*m_v/d) - sum_l floor(i*m_l/d)*m_{v,l}.  The pairing reads
    u0, S = sum_T count*u_T, S_m = sum_T count*m_{T,red}*u_T and
    Q = sum_T count*u_T^2 (T the point types), all kept as difference arrays
    over i at the rises of the floors (see :func:`_rises`)."""
    d_red, m_reds, c2_twice = _log_chern(summary)
    # c1 = c1_e0*e0 + sum_v (2 - m_{v,red})*e_v.  ch(wedge^2) = ch(c1), so
    # chi_2(u) = chi_0(u + c1) = chi_0(u) + K/2 + c1.u with K = 2*chi_0(c1) - 2,
    # and ch(wedge^1) = ch(wedge^0) + ch(wedge^2) - c2.  With
    # td = 1 - (3*e0 + sum_v e_v)/2 + e0^2 that gives
    #   2*chi_0 = 2 + u0^2 - 3*u0 + X,              X = S - Q,
    #   2*chi_2 = 2*chi_0 + K + 2*c1_e0*u0 + Y,     Y = 2*(S_m - 2*S).
    c1_e0 = 3 - d_red
    k = -c1_e0 * d_red
    degree_by_mult = summary.degree_by_mult
    d = sum(m * deg for m, deg in degree_by_mult.items())
    rises = {m: _rises(m, d) for m in degree_by_mult}
    # What one rise of floor(i*m_l/d) adds to u0, X and Y, by m_l.
    linear = {m: [-deg, 0, 0] for m, deg in degree_by_mult.items()}
    diff_x = [0] * d
    diff_y = [0] * d
    for (branches, count), m_red in zip(summary.histogram.items(), m_reds):
        k -= count * (2 - m_red) * (1 - m_red)
        count_y = 2 * count * (m_red - 2)
        point_mult = 0
        for m, mu in branches:
            point_mult += m * mu
            row = linear[m]
            row[1] -= count * mu
            row[2] -= count_y * mu
        # The rises of m_v are made for this type alone and added here: kept
        # for every distinct m_v, they would grow with the types, not with d.
        steps = _rises(point_mult, d)
        for i in steps:
            diff_x[i] += count
            diff_y[i] += count_y
        # u_T is 0 at i = 0; it rises by 1 at each rise of m_v and falls by
        # m_{v,l} at each rise of m_l.
        events = dict.fromkeys(steps, 1)
        for m, mu in branches:
            for i in rises[m]:
                events[i] = events.get(i, 0) - mu
        u = square = 0
        for i in sorted(events):
            u += events[i]
            new = u * u
            diff_x[i] -= count * (new - square)
            square = new

    diff_u0 = [0] * d
    for m, (a, b, c) in linear.items():
        for i in rises[m]:
            diff_u0[i] += a
            diff_x[i] += b
            diff_y[i] += c

    # The pass runs down from i = d - 1 (j = 1): it starts from the sums of
    # the differences and takes off the rise at i after yielding j.  The
    # constants 2 and K ride in X and Y.
    u0_less_i, x, y = sum(diff_u0), 2 + sum(diff_x), k + sum(diff_y)
    c1_twice = 2 * c1_e0
    c2_odd = c2_twice % 2
    for j, rise_u0, rise_x, rise_y in zip(range(1, d + 1), diff_u0[::-1], diff_x[::-1], diff_y[::-1]):
        u0 = d - j + u0_less_i
        twice0 = u0 * (u0 - 3) + x
        twice2 = twice0 + c1_twice * u0 + y
        twice1 = twice0 + twice2 - c2_twice
        if twice0 % 2 or twice2 % 2 or c2_odd:
            _integer(twice0, 2, "chi_0")
            _integer(twice2, 2, "chi_2")
            _integer(twice1, 2, "chi_1")
        yield j, [twice0 // 2, twice1 // 2, twice2 // 2]
        u0_less_i -= rise_u0
        x -= rise_x
        y -= rise_y


def spectrum_via_riemann_roch(graph: ArrangementGraph) -> Spectrum:
    """Assemble the spectrum from Euler characteristics: the coefficient at
    exponent k + j/d is (-1)^k * (chi_{2-k}(twist_j) - delta), where delta
    is 1 exactly at the top exponent 3 (reduced cohomology correction)."""
    return _spectrum_of_point_types(require_valid(graph).point_types)


def _spectrum_of_point_types(summary: PointTypeSummary) -> Spectrum:
    """:func:`spectrum_via_riemann_roch` of a valid arrangement, from its
    point-type summary alone, such as the one ``curvespec.lines`` counts
    without building a graph."""
    d = sum(m * deg for m, deg in summary.degree_by_mult.items())
    run0, run1, run2 = [], [], []
    for _, (chi0, chi1, chi2) in _euler_characteristics(summary):
        run0.append(chi2)
        run1.append(-chi1)
        run2.append(chi0)
    run2[-1] -= 1
    # Exponent k + j/d is the numerator k*d + j on the grid 1/d: the runs
    # fill the numerators 1..3d in order.
    return Spectrum._dense(d, run0 + run1 + run2)
