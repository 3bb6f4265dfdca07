"""Truncated cohomology ring of the plane blown up at the singular points.

Blowing up the projective plane at the points of an arrangement gives a
surface whose even cohomology has basis 1, e0, {e_v}, e0^2, where e0 is the
negative of the pulled-back hyperplane class and e_v the negative of the
exceptional class over the point v.  The only nonzero products of
generators are e0*e0 = e0^2 and e_v*e_v = -e0^2; everything of degree above
the surface dimension is truncated away.  Classes are stored with e_v^2
already rewritten into the e0^2 slot, so a :class:`CohClass` holds one
coefficient per basis element and multiplication stays linear in the
number of points.

Each coefficient is one :class:`fractions.Fraction`, and zero e_v terms are
dropped, so equality of classes is plain structural equality.

Integration returns the e0^2 coefficient: the self-intersection of a
general line is one point, which fixes the normalization integrate(e0^2) = 1.

The ring is the reference for the characteristic-class route.  The
spectrum path builds no class in it: it pairs closed expansions of the
classes per point type, in plain integers, and the tests check both those
expansions and the Euler characteristics the pairing gives against the
per-point builds made here.
:func:`product` multiplies its factors pairwise in a balanced tree, so P
factors of one point each cost O(P log P), where a chain of ring products
would copy every point coefficient once per factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from .arrangement import RationalLike, _rational

__all__ = ["CohClass", "ONE", "exceptional_class", "hyperplane_e0", "point_e", "product"]


def _frac(x: RationalLike) -> Fraction:
    return _rational(x, "class coefficient")


class CohClass:
    """Element a + b0*e0 + sum_v bv[v]*e_v + c*e0^2 of the truncated ring.

    ``CohClass(a, b0, bv, c)`` takes exact rationals (Fraction, int or
    ``"p/q"`` strings).  Classes are immutable.
    """

    __slots__ = ("_a", "_b0", "_bv", "_c")

    def __init__(
        self,
        a: RationalLike = 0,
        b0: RationalLike = 0,
        bv: Mapping[str, RationalLike] | None = None,
        c: RationalLike = 0,
    ):
        self._a = _frac(a)
        self._b0 = _frac(b0)
        point = {v: _frac(x) for v, x in (bv or {}).items()}
        self._bv = {v: x for v, x in point.items() if x}
        self._c = _frac(c)

    # -- coefficients ---------------------------------------------------

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b0(self) -> Fraction:
        return self._b0

    @property
    def bv(self) -> dict[str, Fraction]:
        return dict(self._bv)

    @property
    def c(self) -> Fraction:
        return self._c

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self._a, self._b0, self._c, self._bv) == (other._a, other._b0, other._c, other._bv)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        bv = dict(self._bv)
        for v, y in other._bv.items():
            bv[v] = bv.get(v, 0) + y
        return CohClass(self._a + other._a, self._b0 + other._b0, bv, self._c + other._c)

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass(-self._a, -self._b0, {v: -x for v, x in self._bv.items()}, -self._c)

    def __mul__(self, other: Union["CohClass", RationalLike]) -> "CohClass":
        if not isinstance(other, CohClass):
            try:
                s = _frac(other)
            except (TypeError, ValueError):
                return NotImplemented
            return CohClass(self._a * s, self._b0 * s, {v: x * s for v, x in self._bv.items()}, self._c * s)
        a, b0, bv = self._a, self._b0, self._bv
        a2, b02, bv2 = other._a, other._b0, other._bv
        # Degree-2 part of the product of the degree-1 parts:
        # (b0 e0 + Σ bv e_v)(b0' e0 + Σ bv' e_v) = (b0 b0' − Σ bv bv') e0².
        cross = b0 * b02
        for v, x in bv.items():
            y = bv2.get(v)
            if y is not None:
                cross -= x * y
        prod = {v: a * y for v, y in bv2.items()}
        for v, x in bv.items():
            prod[v] = prod.get(v, 0) + a2 * x
        return CohClass(a * a2, a * b02 + a2 * b0, prod, a * other._c + a2 * self._c + cross)

    def __rmul__(self, other: RationalLike) -> "CohClass":
        return self * other

    def __truediv__(self, other: int) -> "CohClass":
        """Division by a nonzero integer."""
        if type(other) is not int:
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a class by zero")
        return self * Fraction(1, other)

    # -- queries --------------------------------------------------------

    def integrate(self) -> Fraction:
        """Pairing with the fundamental class: the e0^2 coefficient."""
        return self._c

    def degree_part(self, k: int) -> "CohClass":
        """Homogeneous piece of cohomological degree 2k (k = 0, 1, 2)."""
        if k == 0:
            return CohClass(self._a)
        if k == 1:
            return CohClass(0, self._b0, self._bv)
        if k == 2:
            return CohClass(c=self._c)
        raise ValueError(f"degree index must be 0, 1 or 2, got {k}")

    def is_divisor(self) -> bool:
        """True when the class is purely degree 1."""
        return not self._a and not self._c

    def inverse(self) -> "CohClass":
        """Multiplicative inverse in the truncated ring; needs a unit (a != 0).

        With x = a + n, n nilpotent of order 3, the inverse is
        (1 - n/a + n^2/a^2)/a, where n^2 = (b0^2 - sum_v bv^2)*e0^2.
        """
        if not self._a:
            raise ZeroDivisionError("class with zero scalar part is not invertible")
        inv = 1 / self._a
        s = -inv * inv
        square = self._b0 * self._b0 - sum(x * x for x in self._bv.values())
        return CohClass(inv, s * self._b0, {v: s * x for v, x in self._bv.items()}, s * self._c + square * inv**3)

    def __repr__(self) -> str:
        parts = []
        if self._a:
            parts.append(str(self._a))
        if self._b0:
            parts.append(f"{self._b0}*e0")
        for v in sorted(self._bv):
            parts.append(f"{self._bv[v]}*e[{v}]")
        if self._c:
            parts.append(f"{self._c}*e0^2")
        return "CohClass(" + (" + ".join(parts) if parts else "0") + ")"


ONE = CohClass(a=1)


def product(factors: Iterable[Tuple[CohClass, int]]) -> CohClass:
    """prod f**k over the (f, k) pairs.  A negative k takes powers of
    f.inverse(), so f needs a nonzero scalar part; k = 0 skips f.  The
    factors are multiplied pairwise in a balanced tree, so P factors that
    each carry one point cost O(P log P)."""
    terms: list[CohClass] = []
    for factor, k in factors:
        terms += [factor.inverse() if k < 0 else factor] * abs(k)
    while len(terms) > 1:
        pairs = [x * y for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs) :]
    return terms[0] if terms else ONE


def hyperplane_e0(coeff: RationalLike = 1) -> CohClass:
    """coeff * e0 (recall e0 is minus the pulled-back hyperplane class)."""
    return CohClass(b0=coeff)


def point_e(point_id: str, coeff: RationalLike = 1) -> CohClass:
    """coeff * e_v for the exceptional direction over one blown-up point."""
    return CohClass(bv={point_id: coeff})


def exceptional_class(degree: int, branch_mults: Mapping[str, int]) -> CohClass:
    """Class of the strict transform's residual: for a component of degree
    d_l through points with branch multiplicities m_{v,l}, the total
    transform identity gives [E_l] = -(d_l*e0 + sum_v m_{v,l}*e_v)."""
    return CohClass(b0=-degree, bv={v: -m for v, m in branch_mults.items()})
