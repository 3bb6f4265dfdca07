"""Spectrum polynomials: finite integer combinations of rational powers of t.

A spectrum is a fractional Laurent polynomial sum(n_alpha * t^alpha) with
integer coefficients n_alpha and exact rational exponents alpha.  All
exponents of a spectrum sit on one integer grid: the spectrum stores a
denominator ``den`` and a dict from integer numerators k to coefficients,
the exponent of a term being k/den.  ``den`` is the least common
denominator of the exponents (it is divided by gcd(den, *numerators)), so
colliding terms such as t^(6/4) and t^(3/2) merge, and zero coefficients
are dropped eagerly, so that equality of spectra is plain structural
equality.  The closed formulas and the characteristic-class route build
their spectra directly on the grid 1/d with integer arithmetic only,
through the trusted constructor ``Spectrum._of(d, pairs)``, which skips the
per-term type checks and the merging of repeated numerators: they hand it
(numerator, coefficient) pairs in increasing numerator order, three runs of
coefficients at j, d + j and 2d + j, so the terms are stored in exponent
order and formatting sorts keys that are already sorted.
:meth:`Spectrum.items`, :meth:`Spectrum.support` and
:meth:`Spectrum.coefficient` still speak :class:`fractions.Fraction`.

Three serializations are supported (see :func:`format_spectrum`):

* ``plain``  -- ``t + 2*t^(4/3) + 2*t^(5/3)``; integer exponents bare
  (``t^2``), fractional exponents parenthesized (``t^(4/3)``); ``0`` is the
  zero spectrum.  :func:`parse_spectrum` inverts this format exactly,
  matching one regular expression per term.
* ``latex``  -- ``2t+2t^{5/4}+2t^{3/2}-t^{2}``.
* ``json``   -- ``[{"alpha": "4/3", "n": 2}, ...]`` sorted by exponent.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Tuple, Union

__all__ = [
    "Spectrum",
    "SpectrumParseError",
    "dummy_shift",
    "format_spectrum",
    "parse_spectrum",
]

ExponentLike = Union[Fraction, int, str]


class SpectrumParseError(ValueError):
    """Malformed spectrum text; records the offending position and token."""

    def __init__(self, message: str, position: int, token: str):
        super().__init__(f"{message} at position {position}: {token!r}")
        self.position = position
        self.token = token


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Spectrum:
    """Immutable fractional Laurent polynomial with integer coefficients.

    ``Spectrum(terms)`` takes (exponent, coefficient) pairs or a mapping,
    exponents as Fraction, int or ``"p/q"`` strings.  ``Spectrum(terms,
    den=d)`` takes (integer numerator k, coefficient) pairs for the
    exponents k/d.
    """

    __slots__ = ("_den", "_terms")

    def __init__(
        self,
        terms: Union[Mapping[ExponentLike, int], Iterable[Tuple[ExponentLike, int]], None] = None,
        den: int | None = None,
    ):
        items = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        if den is None:
            exponents = [(Fraction(alpha), n) for alpha, n in items]
            den = lcm(*(alpha.denominator for alpha, _ in exponents))
            items = [(alpha.numerator * (den // alpha.denominator), n) for alpha, n in exponents]
        elif not _is_int(den) or den < 1:
            raise ValueError(f"grid denominator must be a positive integer, got {den!r}")
        data: dict[int, int] = {}
        for k, n in items:
            # Plain ints, the usual case, skip the isinstance checks.
            if type(n) is not int and not _is_int(n):
                raise TypeError(f"coefficient must be an integer, got {n!r}")
            if type(k) is not int and not _is_int(k):
                raise TypeError(f"grid numerator must be an integer, got {k!r}")
            data[k] = data.get(k, 0) + n
        self._store(den, data.items())

    def _store(self, den: int, pairs: Iterable[Tuple[int, int]]) -> None:
        data = {k: n for k, n in pairs if n}
        g = gcd(den, *data)
        if g > 1:
            den //= g
            data = {k // g: n for k, n in data.items()}
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    # -- construction ------------------------------------------------

    @classmethod
    def _of(cls, den: int, pairs: Iterable[Tuple[int, int]]) -> "Spectrum":
        """Spectrum from (int grid numerator, int coefficient) pairs with
        distinct numerators over the positive denominator den, brought to
        lowest terms with zero coefficients dropped, its terms kept in the
        order of ``pairs``: the formula routes use it in place of the
        checking constructor, which also merges repeated numerators."""
        obj = object.__new__(cls)
        obj._store(den, pairs)
        return obj

    @classmethod
    def zero(cls) -> "Spectrum":
        return cls()

    @classmethod
    def term(cls, alpha: ExponentLike, n: int = 1) -> "Spectrum":
        """The monomial n * t^alpha."""
        return cls({alpha: n})

    # -- inspection --------------------------------------------------

    def items(self) -> list[Tuple[Fraction, int]]:
        """Terms as (exponent, coefficient) pairs, exponents strictly increasing."""
        den = self._den
        return [(Fraction(k, den), n) for k, n in sorted(self._terms.items())]

    def coefficient(self, alpha: ExponentLike) -> int:
        alpha = Fraction(alpha)
        scale, rest = divmod(self._den, alpha.denominator)
        return 0 if rest else self._terms.get(alpha.numerator * scale, 0)

    def support(self) -> Tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(k, den) for k in sorted(self._terms))

    def eval_at_one(self) -> int:
        """Sum of all coefficients, i.e. the polynomial evaluated at t = 1.

        For the spectrum of an isolated singularity this is the Milnor
        number.
        """
        return sum(self._terms.values())

    def __iter__(self) -> Iterator[Tuple[Fraction, int]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Spectrum({format_spectrum(self, 'plain')!r})"

    def __str__(self) -> str:
        return format_spectrum(self, "plain")

    # -- algebra -----------------------------------------------------

    def _on_grid(self, den: int) -> list[Tuple[int, int]]:
        """Terms as (numerator, coefficient) pairs over ``den``, a multiple of
        this spectrum's denominator."""
        scale = den // self._den
        return [(k * scale, n) for k, n in self._terms.items()]

    def __add__(self, other: "Spectrum") -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        den = lcm(self._den, other._den)
        return Spectrum(self._on_grid(den) + other._on_grid(den), den=den)

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Spectrum":
        return Spectrum([(k, -n) for k, n in self._terms.items()], den=self._den)

    def __mul__(self, other: Union["Spectrum", int]) -> "Spectrum":
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            return Spectrum([(k, n * other) for k, n in self._terms.items()], den=self._den)
        if not isinstance(other, Spectrum):
            return NotImplemented
        den = lcm(self._den, other._den)
        right = other._on_grid(den)
        return Spectrum(
            ((k1 + k2, n1 * n2) for k1, n1 in self._on_grid(den) for k2, n2 in right), den=den
        )

    def __rmul__(self, other: int) -> "Spectrum":
        if isinstance(other, bool) or not isinstance(other, int):
            return NotImplemented
        return self * other


def dummy_shift(s: Spectrum) -> Spectrum:
    """Spectrum of the same polynomial after adding one unused variable.

    Adding a dummy variable multiplies the spectrum by -t (the spectrum of
    a smooth 1-variable function under the join), so a value computed in
    ambient dimension n is carried to dimension n + 1.
    """
    return Spectrum.term(1, -1) * s


# ---------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------


def _exponents(s: Spectrum) -> Iterator[Tuple[str, int]]:
    """(exponent in lowest terms as "p" or "p/q", coefficient) per term in
    increasing exponent order, one gcd per term."""
    den = s._den
    for k, n in sorted(s._terms.items()):
        g = gcd(k, den)
        yield (str(k // den) if g == den else f"{k // g}/{den // g}"), n


def format_spectrum(s: Spectrum, style: str = "plain") -> str:
    """Render a spectrum in one of the styles ``plain``, ``latex``, ``json``."""
    if style == "json":
        return json.dumps([{"alpha": alpha, "n": n} for alpha, n in _exponents(s)])
    if style not in ("plain", "latex"):
        raise ValueError(f"unknown spectrum style {style!r}")
    if not s:
        return "0"
    plain = style == "plain"
    times, plus, minus = ("*", " + ", " - ") if plain else ("", "+", "-")
    den = s._den
    terms = sorted(s._terms.items())
    parts: list[str] = []
    for k, n in terms:
        g = gcd(k, den)
        if g != den:
            power = f"t^({k // g}/{den // g})" if plain else f"t^{{{k // g}/{den // g}}}"
        elif k != den:
            power = f"t^{k // den}" if plain else f"t^{{{k // den}}}"
        else:
            power = "t"
        if n == 1:
            parts.append(plus + power)
        elif n == -1:
            parts.append(minus + power)
        else:
            parts.append(f"{minus if n < 0 else plus}{-n if n < 0 else n}{times}{power}")
    # The first term carries no "+", and its "-" no spaces.
    parts[0] = "-" + parts[0][len(minus) :] if terms[0][1] < 0 else parts[0][len(plus) :]
    return "".join(parts)


# ---------------------------------------------------------------------
# parsing (plain style)
# ---------------------------------------------------------------------

# One term of the plain style: an optional sign, an optional "n*"
# coefficient, t, and an optional exponent "^k" or "^(p/q)", where k and p
# may carry a minus sign; whitespace may separate any two tokens.  The
# conditional group asks for "/q)" exactly when the exponent opens with "(".
# ASCII only: a Unicode \d or \s would also take digits such as "\u0663"
# and spaces such as "\u00a0".
_TERM_RE = re.compile(
    r"(?P<sign>[-+]?)\s*(?:(?P<coef>\d+)\s*\*\s*)?t\s*"
    r"(?:\^\s*(?P<paren>\()?\s*(?P<neg>-?)\s*(?P<num>\d+)(?(paren)\s*/\s*(?P<den>\d+)\s*\)))?\s*",
    re.ASCII,
)
_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII


def _digits(m: re.Match, group: str, sign: str = "") -> int:
    """The integer of a digit run; a run longer than ``int()`` converts
    (``sys.get_int_max_str_digits()``) raises :class:`SpectrumParseError`."""
    try:
        return int(sign + m[group])
    except ValueError:
        raise SpectrumParseError("digit run too long", m.start(group), m[group]) from None


def parse_spectrum(text: str) -> Spectrum:
    """Parse the plain-style rendering back into a :class:`Spectrum`.

    The text is ``0`` (the zero spectrum) or a sequence of terms
    ``[+|-] [n*] t [^k | ^(p/q)]`` in which every term after the first has
    its sign, q is not zero, and whitespace may separate any two tokens.
    Anything else raises :class:`SpectrumParseError` at the first text that
    does not continue a term, and so does a digit run too long for ``int()``.
    """
    if text.strip(_SPACE) == "0":
        return Spectrum.zero()
    pos = len(text) - len(text.lstrip(_SPACE))
    if pos == len(text):
        raise SpectrumParseError("empty input", pos, "<end>")
    terms = []
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (terms and not m["sign"]):
            message = "expected '+' or '-' and a term" if terms else "expected a term"
            raise SpectrumParseError(message, pos, text[pos])
        den = _digits(m, "den") if m["den"] else 1
        if not den:
            raise SpectrumParseError("expected a positive denominator", m.start("den"), m["den"])
        alpha = Fraction(_digits(m, "num", m["neg"]), den) if m["num"] else 1
        n = _digits(m, "coef") if m["coef"] else 1
        terms.append((alpha, -n if m["sign"] == "-" else n))
        pos = m.end()
    return Spectrum(terms)
