"""Truncated rational cohomology ring of the plane blown up at the singular points.

Blowing up the projective plane at the points of an arrangement gives a
surface whose even cohomology has basis 1, e0, {e_v}, e0^2, where e0 is the
negative of the pulled-back hyperplane class and e_v the negative of the
exceptional class over the point v.  The only nonzero products of
generators are e0*e0 = e0^2 and e_v*e_v = -e0^2; everything of degree above
the surface dimension is truncated away.  Classes are stored with e_v^2
already rewritten into the e0^2 slot, so a :class:`CohClass` holds one
rational per basis element and multiplication stays linear in the number
of points.

Integration returns the e0^2 coefficient: the self-intersection of a
general line is one point, which fixes the normalization integrate(e0^2) = 1.

Every class with scalar part 1 is 1 + n with n^3 = 0, so the series for
log and exp stop after two terms and stay exact over the rationals:
log(1 + n) = n - n^2/2 and exp(s) = 1 + s + s^2/2 (:meth:`CohClass.log`,
:meth:`CohClass.exp`).  :func:`product` multiplies many such factors as
exp(sum of logs), in time linear in their total support, where a chain of
ring products would copy every point coefficient once per factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Tuple, Union

__all__ = ["CohClass", "ONE", "exceptional_class", "hyperplane_e0", "point_e", "product"]

ScalarLike = Union[Fraction, int, str]


def _frac(x: ScalarLike) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (Rational, str)):
        raise TypeError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class CohClass:
    """Element a + b0*e0 + sum_v bv[v]*e_v + c*e0^2 of the truncated ring."""

    a: Fraction = Fraction(0)
    b0: Fraction = Fraction(0)
    bv: Mapping[str, Fraction] = field(default_factory=dict)
    c: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b0", _frac(self.b0))
        object.__setattr__(self, "c", _frac(self.c))
        clean = {v: _frac(x) for v, x in self.bv.items() if x != 0}
        object.__setattr__(self, "bv", clean)

    @classmethod
    def _of(cls, a: Fraction, b0: Fraction, bv: Mapping[str, Fraction], c: Fraction) -> "CohClass":
        """Class from coefficients that are already Fractions: the ring
        operations skip the public constructor's checks and conversions."""
        obj = object.__new__(cls)
        obj.__dict__.update(a=a, b0=b0, bv={v: x for v, x in bv.items() if x}, c=c)
        return obj

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        bv = dict(self.bv)
        for v, x in other.bv.items():
            bv[v] = bv.get(v, 0) + x
        return CohClass._of(self.a + other.a, self.b0 + other.b0, bv, self.c + other.c)

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass._of(-self.a, -self.b0, {v: -x for v, x in self.bv.items()}, -self.c)

    def __mul__(self, other: Union["CohClass", ScalarLike]) -> "CohClass":
        if not isinstance(other, CohClass):
            try:
                s = _frac(other)
            except TypeError:
                return NotImplemented
            return CohClass._of(self.a * s, self.b0 * s, {v: x * s for v, x in self.bv.items()}, self.c * s)
        # Degree-2 part of the product of the degree-1 parts:
        # (b0 e0 + Σ bv e_v)(b0' e0 + Σ bv' e_v) = (b0 b0' − Σ bv bv') e0².
        cross = self.b0 * other.b0
        for v, x in self.bv.items():
            y = other.bv.get(v)
            if y is not None:
                cross -= x * y
        bv = {v: self.a * x for v, x in other.bv.items()}
        for v, x in self.bv.items():
            bv[v] = bv.get(v, 0) + other.a * x
        return CohClass._of(
            self.a * other.a,
            self.a * other.b0 + other.a * self.b0,
            bv,
            self.a * other.c + other.a * self.c + cross,
        )

    def __rmul__(self, other: ScalarLike) -> "CohClass":
        return self * other

    # -- queries --------------------------------------------------------

    def integrate(self) -> Fraction:
        """Pairing with the fundamental class: the e0^2 coefficient."""
        return self.c

    def degree_part(self, k: int) -> "CohClass":
        """Homogeneous piece of cohomological degree 2k (k = 0, 1, 2)."""
        if k == 0:
            return CohClass._of(self.a, _ZERO, {}, _ZERO)
        if k == 1:
            return CohClass._of(_ZERO, self.b0, self.bv, _ZERO)
        if k == 2:
            return CohClass._of(_ZERO, _ZERO, {}, self.c)
        raise ValueError(f"degree index must be 0, 1 or 2, got {k}")

    def is_divisor(self) -> bool:
        """True when the class is purely degree 1."""
        return self.a == 0 and self.c == 0

    def inverse(self) -> "CohClass":
        """Multiplicative inverse in the truncated ring; needs a unit (a != 0).

        With x = a(1 + n), n nilpotent of order 3, the inverse is
        (1 - n + n^2)/a.
        """
        if self.a == 0:
            raise ZeroDivisionError("class with zero scalar part is not invertible")
        n = CohClass._of(_ZERO, self.b0, self.bv, self.c) * Fraction(1, self.a)
        return (ONE - n + n * n) * Fraction(1, self.a)

    def _square(self) -> Fraction:
        """e0^2 coefficient of the square of the degree-1 part."""
        return self.b0 * self.b0 - sum(x * x for x in self.bv.values())

    def log(self) -> "CohClass":
        """log(1 + n) = n - n^2/2 of a class 1 + n with scalar part 1."""
        if self.a != 1:
            raise ValueError(f"log needs scalar part 1, got {self.a}")
        return CohClass._of(_ZERO, self.b0, self.bv, self.c - self._square() / 2)

    def exp(self) -> "CohClass":
        """exp(s) = 1 + s + s^2/2 of a class s with scalar part 0."""
        if self.a != 0:
            raise ValueError(f"exp needs scalar part 0, got {self.a}")
        return CohClass._of(_ONE, self.b0, self.bv, self.c + self._square() / 2)

    def __repr__(self) -> str:
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b0:
            parts.append(f"{self.b0}*e0")
        for v in sorted(self.bv):
            parts.append(f"{self.bv[v]}*e[{v}]")
        if self.c:
            parts.append(f"{self.c}*e0^2")
        return "CohClass(" + (" + ".join(parts) if parts else "0") + ")"


_ZERO = Fraction(0)
_ONE = Fraction(1)
ONE = CohClass(a=_ONE)


def product(factors: Iterable[Tuple[CohClass, int]]) -> CohClass:
    """prod f**k over the (f, k) pairs, each f with scalar part 1, formed as
    exp(sum k*log f); negative k divides."""
    b0 = c = _ZERO
    bv: dict[str, Fraction] = {}
    for factor, k in factors:
        log = factor.log()
        b0 += k * log.b0
        c += k * log.c
        for v, x in log.bv.items():
            bv[v] = bv.get(v, 0) + k * x
    return CohClass._of(_ZERO, b0, bv, c).exp()


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
