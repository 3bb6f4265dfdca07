"""Independent spectrum computation via characteristic classes.

Pipeline: build the Chern class of the log cotangent bundle of the blown-up
plane from product formulas (tangent Chern class of a blow-up, negative
powers of the boundary factors for the log twist), take Chern characters of
its wedge powers, twist by an explicit divisor class depending on an
integer sample index j, multiply by the Todd class, and integrate.  The
resulting Euler characteristics assemble into spectrum coefficients.

The public per-point builds (:func:`chern_tangent`,
:func:`chern_cotangent_log`, :func:`todd`, :func:`wedge_ch`,
:func:`euler_characteristic`) work from first principles in the truncated
cohomology ring; they are the reference.  The spectrum route takes the log
cotangent class from its closed expansion instead, written once in
:func:`_log_chern`, and the Todd class from its closed form; the
``*_closed`` functions are per-point views of those expansions, so tests
compare the two builds.  Agreement of :func:`spectrum_via_riemann_roch`
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
Each j therefore takes three integer sums over the point types, sum u_v,
sum m_{v,red}*u_v and sum u_v^2, each type once, times its count: O(T*d)
in all for T types and total degree d.  Every chi is formed as an integer
over 2, and an odd numerator (from a non-integral c2, say) fails the
integrality assertion.  No :class:`fractions.Fraction` is made in the
pairing.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import ArrangementGraph, PointTypeSummary, derived, require_valid
from .cohomology import ONE, CohClass, exceptional_class, hyperplane_e0, point_e, product
from .spectrum import Spectrum

__all__ = [
    "chern_cotangent_log",
    "chern_cotangent_log_closed",
    "chern_tangent",
    "euler_characteristic",
    "line_bundle_ch",
    "spectrum_via_riemann_roch",
    "todd",
    "todd_closed",
    "twist_class",
    "wedge_ch",
]


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
    :func:`_log_chern`), each point's e_v coefficient that of its type, a
    regression target for the product route."""
    summary = require_valid(graph).point_types
    d_red, m_reds, c2_twice = _log_chern(summary)
    by_type = {key: 4 - 2 * m_red for key, m_red in zip(summary.histogram, m_reds)}
    bv = {point.id: by_type[key] for point, key in zip(graph.points, graph.point_type_keys())}
    return CohClass._of(2, 2, 6 - 2 * d_red, bv, c2_twice)


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
    return CohClass._of(2, 2, -3, {point.id: -1 for point in graph.points}, 2)


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
    return CohClass._of(1, 0, b0, bv, 0)


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


def _euler_characteristics(summary: PointTypeSummary):
    """Yield (j, [chi_0, chi_1, chi_2]) for the twists j = 1..d of a valid
    arrangement with point-type summary ``summary``: the integer form of
    euler_characteristic(graph, p, twist_class(graph, j))."""
    d_red, m_reds, c2_twice = _log_chern(summary)
    # c1 = c1_e0*e0 + sum_v (2 - m_{v,red})*e_v.  ch(wedge^2) = ch(c1), so
    # chi_2(u) = chi_0(u + c1) = chi_0(u) + K/2 + c1.u with K = 2*chi_0(c1) - 2,
    # and ch(wedge^1) = ch(wedge^0) + ch(wedge^2) - c2.
    c1_e0 = 3 - d_red
    k = -c1_e0 * d_red
    # Points of one type share m_v = sum m_l*m_{v,l}, m_{v,red} and u, so
    # each type steps once per j, times its count.
    types = []
    for (branches, count), m_red in zip(summary.histogram.items(), m_reds):
        k -= count * (2 - m_red) * (1 - m_red)
        types.append((sum(m * mu for m, mu in branches), branches, count, count * m_red))

    degree_by_mult = summary.degree_by_mult
    d = sum(m * deg for m, deg in degree_by_mult.items())
    for j in range(1, d + 1):
        # Twist u = i*e0 + sum_v floor(i*m_v/d)*e_v + sum_l floor(i*m_l/d)*[E_l].
        i = d - j
        floors = {}
        u0 = i
        for m, deg in degree_by_mult.items():
            floors[m] = floor = (i * m) // d
            u0 -= floor * deg
        s = s_m = q = 0
        for point_mult, branches, count, count_m in types:
            u = (i * point_mult) // d
            for m, mu in branches:
                u -= floors[m] * mu
            cu = count * u
            s += cu
            s_m += count_m * u
            q += cu * u
        # 2*chi_0 = 2 * integral of td*ch(u), td = 1 - (3*e0 + sum_v e_v)/2 + e0^2.
        twice0 = 2 + u0 * u0 - q - 3 * u0 + s
        twice2 = twice0 + k + 2 * (c1_e0 * u0 - 2 * s + s_m)
        chi0, chi2 = _integer(twice0, 2, "chi_0"), _integer(twice2, 2, "chi_2")
        yield j, [chi0, _integer(twice0 + twice2 - c2_twice, 2, "chi_1"), chi2]


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
    terms = {}
    for j, (chi0, chi1, chi2) in _euler_characteristics(summary):
        # Exponent k + j/d is the numerator k*d + j on the grid 1/d.
        terms[j] = chi2
        terms[d + j] = -chi1
        terms[2 * d + j] = chi0 - 1 if j == d else chi0
    return Spectrum._of(d, terms)
