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

All coefficients of a class sit on one integer grid: the class stores a
positive denominator ``den`` and integer numerators for 1, e0, each e_v and
e0^2.  After every operation they are divided by gcd(den, *numerators) and
zero e_v terms are dropped, so equality of classes is plain structural
equality.  The ring operations and :func:`product` use integer arithmetic
only; the attributes ``a``, ``b0``, ``bv``, ``c`` and
:meth:`CohClass.integrate` still speak :class:`fractions.Fraction`.

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
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, Tuple, Union

__all__ = ["CohClass", "ONE", "exceptional_class", "hyperplane_e0", "point_e", "product"]

ScalarLike = Union[Fraction, int, str]


def _frac(x: ScalarLike) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Rational, str)):
        raise TypeError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


class CohClass:
    """Element a + b0*e0 + sum_v bv[v]*e_v + c*e0^2 of the truncated ring.

    ``CohClass(a, b0, bv, c)`` takes exact rationals (Fraction, int or
    ``"p/q"`` strings).  Classes are immutable; ``den`` and
    :meth:`numerators` give the integer grid the class is stored on.
    """

    __slots__ = ("_den", "_a", "_b0", "_bv", "_c")

    def __init__(
        self,
        a: ScalarLike = 0,
        b0: ScalarLike = 0,
        bv: Mapping[str, ScalarLike] | None = None,
        c: ScalarLike = 0,
    ):
        a, b0, c = _frac(a), _frac(b0), _frac(c)
        point = {v: _frac(x) for v, x in (bv or {}).items()}
        # The lcm of the reduced denominators is already in lowest terms.
        den = lcm(a.denominator, b0.denominator, c.denominator, *(x.denominator for x in point.values()))
        self._den = den
        self._a = a.numerator * (den // a.denominator)
        self._b0 = b0.numerator * (den // b0.denominator)
        self._bv = {v: x.numerator * (den // x.denominator) for v, x in point.items() if x}
        self._c = c.numerator * (den // c.denominator)

    @classmethod
    def _of(cls, den: int, a: int, b0: int, bv: Mapping[str, int], c: int) -> "CohClass":
        """Class from integer numerators over the positive denominator den,
        brought to lowest terms: the ring operations and the
        characteristic-class builds use it in place of the checking
        constructor."""
        bv = {v: x for v, x in bv.items() if x}
        g = gcd(den, a, b0, c, *bv.values())
        if g != 1:
            den //= g
            a //= g
            b0 //= g
            c //= g
            bv = {v: x // g for v, x in bv.items()}
        obj = object.__new__(cls)
        obj._den = den
        obj._a = a
        obj._b0 = b0
        obj._bv = bv
        obj._c = c
        return obj

    # -- coefficients ---------------------------------------------------

    @property
    def den(self) -> int:
        """Positive common denominator of all coefficients, in lowest terms."""
        return self._den

    def numerators(self) -> Tuple[int, int, dict[str, int], int]:
        """Integer numerators (a, b0, bv, c) over :attr:`den`."""
        return self._a, self._b0, dict(self._bv), self._c

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b0(self) -> Fraction:
        return Fraction(self._b0, self._den)

    @property
    def bv(self) -> dict[str, Fraction]:
        den = self._den
        return {v: Fraction(x, den) for v, x in self._bv.items()}

    @property
    def c(self) -> Fraction:
        return Fraction(self._c, self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return (
            self._den == other._den
            and self._a == other._a
            and self._b0 == other._b0
            and self._c == other._c
            and self._bv == other._bv
        )

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        d, e = self._den, other._den
        den = lcm(d, e)
        s, t = den // d, den // e
        bv = {v: s * x for v, x in self._bv.items()}
        for v, y in other._bv.items():
            bv[v] = bv.get(v, 0) + t * y
        return CohClass._of(
            den, s * self._a + t * other._a, s * self._b0 + t * other._b0, bv, s * self._c + t * other._c
        )

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass._of(self._den, -self._a, -self._b0, {v: -x for v, x in self._bv.items()}, -self._c)

    def __mul__(self, other: Union["CohClass", ScalarLike]) -> "CohClass":
        if not isinstance(other, CohClass):
            try:
                other = _frac(other)
            except (TypeError, ValueError):
                return NotImplemented
            p, q = other.numerator, other.denominator
            return CohClass._of(
                self._den * q, self._a * p, self._b0 * p, {v: x * p for v, x in self._bv.items()}, self._c * p
            )
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
        return CohClass._of(
            self._den * other._den, a * a2, a * b02 + a2 * b0, prod, a * other._c + a2 * self._c + cross
        )

    def __rmul__(self, other: ScalarLike) -> "CohClass":
        return self * other

    def __truediv__(self, other: int) -> "CohClass":
        """Division by a nonzero integer."""
        if type(other) is not int:
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a class by zero")
        s = 1 if other > 0 else -1
        return CohClass._of(
            self._den * other * s, self._a * s, self._b0 * s, {v: x * s for v, x in self._bv.items()}, self._c * s
        )

    # -- queries --------------------------------------------------------

    def integrate(self) -> Fraction:
        """Pairing with the fundamental class: the e0^2 coefficient."""
        return Fraction(self._c, self._den)

    def degree_part(self, k: int) -> "CohClass":
        """Homogeneous piece of cohomological degree 2k (k = 0, 1, 2)."""
        if k == 0:
            return CohClass._of(self._den, self._a, 0, {}, 0)
        if k == 1:
            return CohClass._of(self._den, 0, self._b0, self._bv, 0)
        if k == 2:
            return CohClass._of(self._den, 0, 0, {}, self._c)
        raise ValueError(f"degree index must be 0, 1 or 2, got {k}")

    def is_divisor(self) -> bool:
        """True when the class is purely degree 1."""
        return self._a == 0 and self._c == 0

    def inverse(self) -> "CohClass":
        """Multiplicative inverse in the truncated ring; needs a unit (a != 0).

        With x = (a + n)/den, n nilpotent of order 3, the inverse is
        den*(a^2 - a*n + n^2)/a^3.
        """
        a = self._a
        if a == 0:
            raise ZeroDivisionError("class with zero scalar part is not invertible")
        # Numerators and denominator a^3 times the sign of a, so that the
        # denominator stays positive.
        s = self._den if a > 0 else -self._den
        t = -s * a
        return CohClass._of(
            abs(a) ** 3,
            s * a * a,
            t * self._b0,
            {v: t * x for v, x in self._bv.items()},
            t * self._c + s * (self._b0 * self._b0 - sum(x * x for x in self._bv.values())),
        )

    def __repr__(self) -> str:
        parts = []
        if self._a:
            parts.append(str(self.a))
        if self._b0:
            parts.append(f"{self.b0}*e0")
        bv = self.bv
        for v in sorted(bv):
            parts.append(f"{bv[v]}*e[{v}]")
        if self._c:
            parts.append(f"{self.c}*e0^2")
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


def hyperplane_e0(coeff: ScalarLike = 1) -> CohClass:
    """coeff * e0 (recall e0 is minus the pulled-back hyperplane class)."""
    return CohClass(b0=coeff)


def point_e(point_id: str, coeff: ScalarLike = 1) -> CohClass:
    """coeff * e_v for the exceptional direction over one blown-up point."""
    return CohClass(bv={point_id: coeff})


def exceptional_class(degree: int, branch_mults: Mapping[str, int]) -> CohClass:
    """Class of the strict transform's residual: for a component of degree
    d_l through points with branch multiplicities m_{v,l}, the total
    transform identity gives [E_l] = -(d_l*e0 + sum_v m_{v,l}*e_v)."""
    return CohClass(b0=-degree, bv={v: -m for v, m in branch_mults.items()})
