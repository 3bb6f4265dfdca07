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
cohomology ring; they are the reference.  The spectrum route takes the two
classes from their closed expansions instead, written once in
:meth:`_Typed._closed_classes`; the ``*_closed`` functions are per-point
views of those expansions, so tests compare the two builds.  Agreement of
:func:`spectrum_via_riemann_roch` with the combinatorial formulas in
:mod:`curvespec.formulas` is the package's central cross-validation.

Cost.  The per-point builds form every product formula with
:func:`curvespec.cohomology.product`, ring products in a balanced tree, in
time O(P log P) for P points.  The spectrum route builds no
:class:`curvespec.cohomology.CohClass`.  It reads only the graph's
:class:`~curvespec.arrangement.PointTypeSummary`, the point-type counting
it shares with the closed formulas.  The closed e_v coefficients of a
point depend only on its type (its sorted (m_l, m_{v,l}) pairs), and
e_v*e_w = 0 for v != w and e_v*e0 = 0, so the route builds
c(Omega^1(log)), td and the weighted classes W_p = ch(wedge^p of log
1-forms) * td once per type, in a private ring of plain ints with one
coefficient e_T per type and e_T*e_T = -count_T*e0^2, O(T) per ring
operation.  For an integral twist u = u0*e0 + sum_v u_v*e_v the integral of
W*ch(u) is W.c + W.b0*u0 - sum_v W.bv[v]*u_v + W.a*(u0^2 - sum_v u_v^2)/2,
so after scaling the three W_p to one denominator D, times 2, each j takes
integer sums with one step per type, times its count, O(T*d) in all, and a
remainder modulo 2D still fails the integrality assertion.  No
:class:`fractions.Fraction` is made between the class build and the
pairing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _closed(graph: ArrangementGraph, k: int) -> CohClass:
    """Class k of :meth:`_Typed._closed_classes` of a valid graph, with
    each point's e_v coefficient that of its type."""
    summary = require_valid(graph).point_types
    typed = _Typed._closed_classes(summary)[k]
    by_type = dict(zip(summary.histogram, typed.x))
    bv = {point.id: by_type[key] for point, key in zip(graph.points, graph.point_type_keys())}
    return CohClass._of(typed.den, typed.a, typed.b0, bv, typed.c)


def chern_cotangent_log_closed(graph: ArrangementGraph) -> CohClass:
    """Closed-form expansion of :func:`chern_cotangent_log` (see
    :meth:`_Typed._closed_classes`), a regression target for the product
    route."""
    return _closed(graph, 0)


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
    """Closed form 1 - (sum_v e_v + 3 e0)/2 + e0^2 of :func:`todd`,
    regression target."""
    return _closed(graph, 1)


def wedge_ch(c_total: CohClass, p: int) -> CohClass:
    """Chern character of the p-th wedge power of a rank-2 bundle with the
    given total Chern class (p = 0, 1, 2)."""
    if c_total.degree_part(0) != ONE:
        raise ValueError("total Chern class must have scalar part 1")
    if p not in (0, 1, 2):
        raise ValueError(f"wedge power must be 0, 1 or 2, got {p}")
    return _wedges(c_total)[p]


def _wedges(c_total):
    """[ch(wedge^p) for p = 0, 1, 2] for a total Chern class with scalar
    part 1, in either ring."""
    one = c_total.degree_part(0)
    c1 = c_total.degree_part(1)
    c2 = c_total.degree_part(2)
    c1_sq = c1 * c1
    return [one, 2 * one + c1 + (c1_sq - 2 * c2) / 2, one + c1 + c1_sq / 2]


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


class _Typed:
    """Class a + b0*e0 + sum_T x[T]*e_T + c*e0^2 over the positive denominator
    den, on the point types of one graph.  e_T is the sum of e_v over the
    counts[T] points of type T, so x[T] is the e_v coefficient of each of
    them: the closed expansions give the points of one type the same
    coefficients, and e_v*e_w = 0 for v != w and e_v*e0 = 0 keep them equal
    in every product.  Distinct types and e0 stay orthogonal and
    e_T*e_T = -counts[T]*e0^2.  The classes of one build share ``counts``; x
    is a list in its order."""

    __slots__ = ("counts", "den", "a", "b0", "x", "c")

    def __init__(self, counts: list[int], den: int, a: int, b0: int, x: list[int], c: int):
        self.counts = counts
        self.den, self.a, self.b0, self.x, self.c = den, a, b0, x, c

    def reduced(self) -> "_Typed":
        """The same class in lowest terms."""
        g = gcd(self.den, self.a, self.b0, self.c, *self.x)
        return _Typed(self.counts, self.den // g, self.a // g, self.b0 // g, [u // g for u in self.x], self.c // g)

    def degree_part(self, k: int) -> "_Typed":
        zero = [0] * len(self.x)
        if k == 0:
            return _Typed(self.counts, self.den, self.a, 0, zero, 0)
        if k == 1:
            return _Typed(self.counts, self.den, 0, self.b0, self.x, 0)
        return _Typed(self.counts, self.den, 0, 0, zero, self.c)

    def __add__(self, other: "_Typed") -> "_Typed":
        d, e = self.den, other.den
        den = d if d == e else lcm(d, e)
        s, t = den // d, den // e
        x = [s * u + t * v for u, v in zip(self.x, other.x)]
        a, b0, c = s * self.a + t * other.a, s * self.b0 + t * other.b0, s * self.c + t * other.c
        return _Typed(self.counts, den, a, b0, x, c)

    def __sub__(self, other: "_Typed") -> "_Typed":
        return self + other * -1

    def __mul__(self, other) -> "_Typed":
        if type(other) is int:
            x = [other * u for u in self.x]
            return _Typed(self.counts, self.den, other * self.a, other * self.b0, x, other * self.c)
        a, a2 = self.a, other.a
        cross = self.b0 * other.b0 - sum(n * u * v for n, u, v in zip(self.counts, self.x, other.x))
        x = [a * v + a2 * u for u, v in zip(self.x, other.x)]
        b0, c = a * other.b0 + a2 * self.b0, a * other.c + a2 * self.c + cross
        return _Typed(self.counts, self.den * other.den, a * a2, b0, x, c)

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "_Typed":
        """Division by a positive integer."""
        return _Typed(self.counts, self.den * k, self.a, self.b0, self.x, self.c)

    @classmethod
    def _closed_classes(cls, summary: PointTypeSummary) -> tuple["_Typed", "_Typed"]:
        """(c(Omega^1(log)), td) over the denominator 2 on the point types of
        a valid arrangement's summary, in the order of its histogram, from
        the closed expansions

            c(Omega^1(log)) = 1 - (d_red - 3)*e0 - sum_v (m_{v,red} - 2)*e_v
                + ((d_red^2 + sum_l d_l^2)/2 + 3*(1 - d_red)
                   - sum_v ((m_{v,red}^2 + sum_l m_{v,l}^2)/2 - 2*m_{v,red} + 1))*e0^2,
            td = 1 - (3*e0 + sum_v e_v)/2 + e0^2,

        with e_v^2 rewritten as -e0^2.  The reduced degree d_red = sum_l d_l
        enters (not the total degree), and m_{v,red} = sum_l m_{v,l}: log
        poles see each component once, whatever its multiplicity.
        sum_l d_l^2 = 2*comp_pairs + d_red, and a type's count multiplies
        its e0^2 term."""
        counts = list(summary.histogram.values())
        d_red = sum(summary.degree_by_mult.values())
        top = d_red * d_red + 2 * summary.comp_pairs + d_red + 6 * (1 - d_red)
        x = []
        for branches, count in summary.histogram.items():
            m_red = sum(mu for _, mu in branches)
            x.append(4 - 2 * m_red)
            top -= count * (m_red * m_red + sum(mu * mu for _, mu in branches) - 4 * m_red + 2)
        log_chern = cls(counts, 2, 2, 6 - 2 * d_red, x, top)
        return log_chern, cls(counts, 2, 2, -3, [-1] * len(counts), 2)


def _weighted_classes(summary: PointTypeSummary) -> list[_Typed]:
    """W_p = ch(wedge^p of log 1-forms) * td for p = 0, 1, 2 on the typed
    ring of the point types of a valid arrangement's summary, in the order
    of its histogram."""
    log_chern, td = _Typed._closed_classes(summary)
    return [(w * td).reduced() for w in _wedges(log_chern)]


def _euler_characteristics(summary: PointTypeSummary):
    """Yield (j, [chi_0, chi_1, chi_2]) for the twists j = 1..d of a valid
    arrangement with point-type summary ``summary``: the integer form of
    euler_characteristic(graph, p, twist_class(graph, j))."""
    weighted = _weighted_classes(summary)

    # With D the lcm of the three grids, 2*D*W_p has integer coefficients
    # and D*W_p.a is an integer.
    half = lcm(*(w.den for w in weighted))
    scale = 2 * half
    grids = [half // w.den for w in weighted]
    const = [2 * k * w.c for k, w in zip(grids, weighted)]
    lin_e0 = [2 * k * w.b0 for k, w in zip(grids, weighted)]
    quad = [k * w.a for k, w in zip(grids, weighted)]
    # Points of one type share m_v = sum m_l*m_{v,l}, u and their W_p.bv
    # numerators, so each type steps once per j, times its count.
    histogram = summary.histogram
    point_mults = (sum(m * mu for m, mu in branches) for branches in histogram)
    scaled = ([2 * k * u for u in w.x] for k, w in zip(grids, weighted))
    types = list(zip(point_mults, histogram, histogram.values(), *scaled))

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
        lin0 = lin1 = lin2 = square = 0
        for point_mult, branches, count, w0, w1, w2 in types:
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
