"""Independent spectrum computation via characteristic classes.

Pipeline: build the Chern class of the log cotangent bundle of the blown-up
plane from product formulas (tangent Chern class of a blow-up, negative
powers of the boundary factors for the log twist), take Chern characters of
its wedge powers, twist by an explicit divisor class depending on an
integer sample index j, multiply by the Todd class, and integrate.  The
resulting Euler characteristics assemble into spectrum coefficients.

Everything is computed from first principles in the truncated cohomology
ring; the closed-form expansions (`*_closed` functions) are kept only as
regression targets so the two routes check each other.  Agreement of
:func:`spectrum_via_riemann_roch` with the combinatorial formulas in
:mod:`curvespec.formulas` is the package's central cross-validation.

Cost.  Every factor of the product formulas has scalar part 1, so each
product is formed as exp(sum of logs) (:func:`curvespec.cohomology.product`)
in time linear in the points and branches; the per-point and per-component
factors are built straight on the ring's integer grid, and the tangent
class is built once per spectrum and feeds both the log cotangent class and
the Todd class.  The weighted classes W_p = ch(wedge^p of log 1-forms) * td
are built once.  For an integral twist u = u0*e0 + sum_v u_v*e_v the
integral of W*ch(u) is W.c + W.b0*u0 - sum_v W.bv[v]*u_v +
W.a*(u0^2 - sum_v u_v^2)/2, so after scaling the three W_p to one
denominator D, times 2, every j costs integer sums only, and a remainder
modulo 2D still fails the integrality assertion.  A point enters those sums
only through its type (m_v, its branches as (m_l, m_{v,l}) pairs, and its
three W_p.bv numerators), so each j takes one step per point type, times
its count.  No :class:`fractions.Fraction` is made between the factor
builds and the pairing.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .arrangement import ArrangementGraph, DerivedData, derived, require_valid
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


def _strict_transform_classes(graph: ArrangementGraph) -> list[CohClass]:
    """[E_l] = -(d_l*e0 + sum_v m_{v,l}*e_v) for each component l."""
    return [exceptional_class(c.degree, mults) for c, mults in zip(graph.components, _branch_mults(graph))]


def chern_tangent(graph: ArrangementGraph) -> CohClass:
    """Total Chern class of the tangent bundle of the blow-up, by the
    product formula c = (1 - e0)^3 * prod_v (1 + e_v)((1 - e0 - e_v)/(1 - e0))^2."""
    require_valid(graph)
    # The factors have integer coefficients, so they sit on the grid 1:
    # CohClass._of(1, a, b0, bv, c) is a + b0*e0 + sum_v bv[v]*e_v + c*e0^2.
    # The per-point denominators (1 - e0)^2 join the (1 - e0)^3 of the plane.
    factors = [(CohClass._of(1, 1, -1, {}, 0), 3 - 2 * len(graph.points))]
    for point in graph.points:
        v = point.id
        factors.append((CohClass._of(1, 1, 0, {v: 1}, 0), 1))  # 1 + e_v
        factors.append((CohClass._of(1, 1, -1, {v: -1}, 0), 2))  # 1 - e0 - e_v
    return product(factors)


def _dual(c: CohClass) -> CohClass:
    return c.degree_part(0) - c.degree_part(1) + c.degree_part(2)


def _chern_cotangent_log(graph: ArrangementGraph, tangent: CohClass) -> CohClass:
    factors = [(_dual(tangent), 1)]
    # 1 - e_v for each point and 1 - [E_l] = 1 + d_l*e0 + sum_v m_{v,l}*e_v
    # for each component, on the grid 1 as in chern_tangent.
    factors.extend((CohClass._of(1, 1, 0, {point.id: -1}, 0), -1) for point in graph.points)
    factors.extend(
        (CohClass._of(1, 1, c.degree, mults, 0), -1) for c, mults in zip(graph.components, _branch_mults(graph))
    )
    return product(factors)


def chern_cotangent_log(graph: ArrangementGraph) -> CohClass:
    """Total Chern class of the sheaf of 1-forms with log poles along the
    total transform of the arrangement (exceptional curves and strict
    transforms): the cotangent class times 1/(1 - e_v) for every point and
    1/(1 - [E_l]) for every component."""
    return _chern_cotangent_log(graph, chern_tangent(graph))


def chern_cotangent_log_closed(graph: ArrangementGraph) -> CohClass:
    """Closed-form expansion of :func:`chern_cotangent_log`, used as a
    regression target for the product route.

    Degree 1 carries -(d_red - 3) on e0 and -(m_{v,red} - 2) on each e_v;
    degree 2 is assembled with e_v^2 rewritten as -e0^2.  The reduced degree
    d_red = sum(d_l) enters (not the total degree), and m_{v,red} =
    sum(m_{v,l}): log poles see each component once, whatever its
    multiplicity.
    """
    require_valid(graph)
    d_red = sum(c.degree for c in graph.components)
    sq_deg = sum(c.degree**2 for c in graph.components)

    b0 = Fraction(-(d_red - 3))
    bv = {}
    top = Fraction(d_red**2 + sq_deg, 2) + 3 * (1 - d_red)
    for p in graph.points:
        m_red = sum(br.mult for br in p.branches)
        sq_branch = sum(br.mult**2 for br in p.branches)
        bv[p.id] = Fraction(-(m_red - 2))
        # e_v^2 coefficient, flipped in sign by e_v^2 = -e0^2.
        top -= Fraction(m_red**2 + sq_branch, 2) - 2 * m_red + 1
    return CohClass(a=1, b0=b0, bv=bv, c=top)


def _todd(tangent: CohClass) -> CohClass:
    c1 = tangent.degree_part(1)
    c2 = tangent.degree_part(2)
    return ONE + c1 / 2 + (c1 * c1 + c2) / 12


def todd(graph: ArrangementGraph) -> CohClass:
    """Todd class 1 + c1/2 + (c1^2 + c2)/12 of the blown-up surface."""
    return _todd(chern_tangent(graph))


def todd_closed(graph: ArrangementGraph) -> CohClass:
    """Closed form 1 - (sum_v e_v + 3 e0)/2 + e0^2, regression target."""
    require_valid(graph)
    return CohClass(
        a=1,
        b0=Fraction(-3, 2),
        bv={p.id: Fraction(-1, 2) for p in graph.points},
        c=1,
    )


def wedge_ch(c_total: CohClass, p: int) -> CohClass:
    """Chern character of the p-th wedge power of a rank-2 bundle with the
    given total Chern class (p = 0, 1, 2)."""
    if c_total.degree_part(0) != ONE:
        raise ValueError("total Chern class must have scalar part 1")
    c1 = c_total.degree_part(1)
    c2 = c_total.degree_part(2)
    if p == 0:
        return ONE
    if p == 1:
        return 2 * ONE + c1 + (c1 * c1 - 2 * c2) / 2
    if p == 2:
        return ONE + c1 + c1 * c1 / 2
    raise ValueError(f"wedge power must be 0, 1 or 2, got {p}")


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
    total = hyperplane_e0(i)
    for point in graph.points:
        total = total + point_e(point.id, (i * data.point_mult[point.id]) // d)
    for comp, e_class in zip(graph.components, _strict_transform_classes(graph)):
        total = total + e_class * ((i * comp.multiplicity) // d)
    return total


def _integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} must be an integer, got {value}")
    return value.numerator


def euler_characteristic(graph: ArrangementGraph, p: int, divisor: CohClass) -> int:
    """Euler characteristic of the p-th wedge of log 1-forms twisted by the
    line bundle of the given divisor class, by Hirzebruch-Riemann-Roch.

    Rational numbers appear mid-computation (Todd denominators); the result
    is asserted integral, so a fractional value signals an internal bug.
    """
    tangent = chern_tangent(graph)
    log_chern = _chern_cotangent_log(graph, tangent)
    integrand = wedge_ch(log_chern, p) * line_bundle_ch(divisor) * _todd(tangent)
    return _integer(integrand.integrate(), f"chi_{p}")


def _euler_characteristics(graph: ArrangementGraph, data: DerivedData):
    """Yield (j, [chi_0, chi_1, chi_2]) for the twists j = 1..d of a valid
    graph with derived data ``data``: the integer form of
    euler_characteristic(graph, p, twist_class(graph, j))."""
    tangent = chern_tangent(graph)
    log_chern = _chern_cotangent_log(graph, tangent)
    td = _todd(tangent)
    weighted = [wedge_ch(log_chern, p) * td for p in range(3)]

    # With D the lcm of the three grids, 2*D*W_p has integer coefficients
    # and D*W_p.a is an integer.
    half = lcm(*(w.den for w in weighted))
    scale = 2 * half
    grids = [(half // w.den, w.numerators()) for w in weighted]
    const = [2 * k * c for k, (_, _, _, c) in grids]
    lin_e0 = [2 * k * b0 for k, (_, b0, _, _) in grids]
    quad = [k * a for k, (a, _, _, _) in grids]

    comp_mult = {c.id: c.multiplicity for c in graph.components}
    d = data.total_degree
    degree_by_mult: dict[int, int] = {}
    for c in graph.components:
        degree_by_mult[c.multiplicity] = degree_by_mult.get(c.multiplicity, 0) + c.degree
    # A point enters the pairing only through its key: m_v, its branches
    # as sorted (m_l, m_{v,l}) pairs and its three scaled W_p.bv numerators.
    # Points sharing a key share u, so each key steps once, times its count.
    groups = Counter(
        (
            data.point_mult[point.id],
            tuple(sorted((comp_mult[br.component], br.mult) for br in point.branches)),
            *(2 * k * bv.get(point.id, 0) for k, (_, _, bv, _) in grids),
        )
        for point in graph.points
    )

    for j in range(1, d + 1):
        # Twist u = i*e0 + sum_v floor(i*m_v/d)*e_v + sum_l floor(i*m_l/d)*[E_l].
        i = d - j
        floors = {}
        u0 = i
        for m, deg in degree_by_mult.items():
            floors[m] = floor = (i * m) // d
            u0 -= floor * deg
        lin0 = lin1 = lin2 = square = 0
        for (point_mult, branches, w0, w1, w2), count in groups.items():
            u = (i * point_mult) // d
            for m, mu in branches:
                u -= floors[m] * mu
            cu = count * u
            lin0 += w0 * cu
            lin1 += w1 * cu
            lin2 += w2 * cu
            square += cu * u
        lin = (lin_e0[0] * u0 - lin0, lin_e0[1] * u0 - lin1, lin_e0[2] * u0 - lin2)
        square = u0 * u0 - square
        chis = []
        for p in range(3):
            total = const[p] + lin[p] + quad[p] * square
            chi, rest = divmod(total, scale)
            if rest:
                raise ArithmeticError(f"chi_{p} must be an integer, got {Fraction(total, scale)}")
            chis.append(chi)
        yield j, chis


def spectrum_via_riemann_roch(graph: ArrangementGraph) -> Spectrum:
    """Assemble the spectrum from Euler characteristics: the coefficient at
    exponent k + j/d is (-1)^k * (chi_{2-k}(twist_j) - delta), where delta
    is 1 exactly at the top exponent 3 (reduced cohomology correction)."""
    require_valid(graph)
    data = derived(graph)
    d = data.total_degree
    terms = {}
    for j, (chi0, chi1, chi2) in _euler_characteristics(graph, data):
        # Exponent k + j/d is the numerator k*d + j on the grid 1/d.
        terms[j] = chi2
        terms[d + j] = -chi1
        terms[2 * d + j] = chi0 - 1 if j == d else chi0
    return Spectrum._of(d, terms)
