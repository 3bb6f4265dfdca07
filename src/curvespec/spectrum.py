"""Spectrum polynomials: finite integer combinations of rational powers of t.

A spectrum is a fractional Laurent polynomial sum(n_alpha * t^alpha) with
integer coefficients n_alpha and exact rational exponents alpha.  All
exponents of a spectrum sit on one integer grid 1/den, the exponent of a
term being k/den for an integer numerator k.  A spectrum is stored in one
of two forms:

* dense: the closed formulas and the characteristic-class route fill three
  runs of coefficients n0, n1, n2 over j = 1..d, at the exponents j/d,
  1 + j/d and 2 + j/d, and hand over ``n0 + n1 + n2`` through the trusted
  constructor ``Spectrum._dense(d, run)``: run[k - 1] is the coefficient at
  k/d for k = 1..3d, zeros included, and the spectrum keeps that list.
* normal: a denominator ``den`` and a dict from integer numerators to
  nonzero coefficients, ``den`` the least common denominator of the
  exponents (it is divided by gcd(den, *numerators)), so colliding terms
  such as t^(6/4) and t^(3/2) merge and equal spectra have equal dicts.  The
  checking constructor builds this form.  A dense spectrum builds it at most
  once, when arithmetic, ``hash``, a query or a comparison with anything but
  a dense run of its grid and length first needs it.

Equality compares two dense runs directly when they lie on the same grid
and have the same length, and the normal forms otherwise.  Evaluation at
t = 1 and every format style read a dense run in place, with no dict and
no sort; the other queries read the normal form.  :func:`format_spectrum`
prints a dense run by residue class: for k = l*d + j the exponent k/d is
(l*q + j/g)/q in lowest terms, with g = gcd(j, d) and q = d/g, so it takes
one gcd per residue j and builds each nonzero term's text in one
expression, the integer exponents at the multiples of d being the only
special terms.  A normal form, which arithmetic returns, prints term by
term.  :meth:`Spectrum.items`, :meth:`Spectrum.support` and
:meth:`Spectrum.coefficient` speak :class:`fractions.Fraction`; exponents
given to the checking constructor or to :meth:`Spectrum.coefficient` are
exact rationals, read by :func:`curvespec.arrangement._rational`.

Three serializations are supported (see :func:`format_spectrum`):

* ``plain``  -- ``t + 2*t^(4/3) + 2*t^(5/3)``; integer exponents bare
  (``t^2``), fractional exponents parenthesized (``t^(4/3)``); ``0`` is the
  zero spectrum.  :func:`parse_spectrum` inverts this format exactly,
  matching one regular expression per term.
* ``latex``  -- ``2t+2t^{5/4}+2t^{3/2}-t^{2}``.
* ``json``   -- ``[{"alpha": "4/3", "n": 2}, ...]`` sorted by exponent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .arrangement import RationalLike, _echo, _is_int, _rational

__all__ = [
    "Spectrum",
    "SpectrumParseError",
    "format_spectrum",
    "parse_spectrum",
]

class SpectrumParseError(ValueError):
    """Malformed spectrum text; records the offending position and token.
    The message echoes the token cut to 80 characters; ``token`` keeps it whole."""

    def __init__(self, message: str, position: int, token: str):
        super().__init__(f"{message} at position {position}: {_echo(token)}")
        self.position = position
        self.token = token


def _exponent(alpha: RationalLike) -> Fraction:
    return _rational(alpha, "exponent")


def _lowest(den: int, pairs: Iterable[Tuple[int, int]]) -> Tuple[int, dict[int, int]]:
    """The normal form of the (distinct numerator, coefficient) pairs over
    den: zero coefficients dropped, den and the numerators divided by their
    gcd, the terms kept in the order of ``pairs``."""
    data = {k: n for k, n in pairs if n}
    g = gcd(den, *data)
    if g > 1:
        return den // g, {k // g: n for k, n in data.items()}
    return den, data


class Spectrum:
    """Immutable fractional Laurent polynomial with integer coefficients.

    ``Spectrum(terms)`` takes (exponent, coefficient) pairs or a mapping,
    exponents exact rationals (Fraction, int or ``"p/q"`` strings).
    ``Spectrum(terms, den=d)`` takes (integer numerator k, coefficient)
    pairs for the exponents k/d.
    """

    # _run is a dense spectrum's coefficient list over the numerators
    # 1..len(_run) on the grid 1/_grid, and None for a normal one; _normal
    # is the (den, terms) normal form, None until a dense spectrum needs it.
    __slots__ = ("_run", "_grid", "_normal")

    def __init__(
        self,
        terms: Union[Mapping[RationalLike, int], Iterable[Tuple[RationalLike, int]], None] = None,
        den: int | None = None,
    ):
        items = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        if den is None:
            exponents = [(_exponent(alpha), n) for alpha, n in items]
            den = lcm(*(alpha.denominator for alpha, _ in exponents))
            items = [(alpha.numerator * (den // alpha.denominator), n) for alpha, n in exponents]
        elif not _is_int(den) or den < 1:
            raise ValueError(f"grid denominator must be a positive integer, got {_echo(den)}")
        data: dict[int, int] = {}
        for k, n in items:
            if not _is_int(n):
                raise TypeError(f"coefficient must be an integer, got {_echo(n)}")
            if not _is_int(k):
                raise TypeError(f"grid numerator must be an integer, got {_echo(k)}")
            data[k] = data.get(k, 0) + n
        _set(self, None, 0, _lowest(den, data.items()))

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    # -- construction ------------------------------------------------

    @classmethod
    def _dense(cls, den: int, run: list[int]) -> "Spectrum":
        """Spectrum whose coefficient at t^(k/den) is run[k - 1] for
        k = 1..len(run), the positive int den and the int coefficients
        unchecked: the formula routes hand over a fresh list of their
        coefficient runs, which the spectrum keeps as it is."""
        obj = object.__new__(cls)
        _set(obj, run, den, None)
        return obj

    @classmethod
    def zero(cls) -> "Spectrum":
        return cls()

    @classmethod
    def term(cls, alpha: RationalLike, n: int = 1) -> "Spectrum":
        """The monomial n * t^alpha."""
        return cls({alpha: n})

    def _normal_form(self) -> Tuple[int, dict[int, int]]:
        """(den, terms): the least grid and the nonzero coefficients by
        numerator, in increasing numerator order for a dense spectrum."""
        normal = self._normal
        if normal is None:
            normal = _lowest(self._grid, enumerate(self._run, 1))
            object.__setattr__(self, "_normal", normal)
        return normal

    def _ordered(self) -> Tuple[int, list[Tuple[int, int]]]:
        """The least grid denominator and the (numerator, coefficient) pairs
        of the nonzero terms over it, in increasing exponent order."""
        den, terms = self._normal_form()
        return den, sorted(terms.items())

    # -- inspection --------------------------------------------------

    def items(self) -> list[Tuple[Fraction, int]]:
        """Terms as (exponent, coefficient) pairs, exponents strictly increasing."""
        den, pairs = self._ordered()
        return [(Fraction(k, den), n) for k, n in pairs]

    def coefficient(self, alpha: RationalLike) -> int:
        alpha = _exponent(alpha)
        den, terms = self._normal_form()
        scale, rest = divmod(den, alpha.denominator)
        return 0 if rest else terms.get(alpha.numerator * scale, 0)

    def support(self) -> Tuple[Fraction, ...]:
        den, pairs = self._ordered()
        return tuple(Fraction(k, den) for k, _ in pairs)

    def eval_at_one(self) -> int:
        """Sum of all coefficients, i.e. the polynomial evaluated at t = 1.

        For the spectrum of an isolated singularity this is the Milnor
        number.
        """
        run = self._run
        return sum(self._normal[1].values() if run is None else run)

    def __iter__(self) -> Iterator[Tuple[Fraction, int]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._normal_form()[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        run, other_run = self._run, other._run
        if run is not None and other_run is not None and self._grid == other._grid and len(run) == len(other_run):
            return run == other_run
        return self._normal_form() == other._normal_form()

    def __hash__(self) -> int:
        den, terms = self._normal_form()
        return hash((den, frozenset(terms.items())))

    def __repr__(self) -> str:
        return f"Spectrum({format_spectrum(self, 'plain')!r})"

    def __str__(self) -> str:
        return format_spectrum(self, "plain")

    # -- algebra -----------------------------------------------------

    def _on_grid(self, den: int) -> list[Tuple[int, int]]:
        """Terms as (numerator, coefficient) pairs over ``den``, a multiple of
        this spectrum's least denominator."""
        own, terms = self._normal_form()
        scale = den // own
        return [(k * scale, n) for k, n in terms.items()]

    def __add__(self, other: "Spectrum") -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        den = lcm(self._normal_form()[0], other._normal_form()[0])
        return Spectrum(self._on_grid(den) + other._on_grid(den), den=den)

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Spectrum":
        den, terms = self._normal_form()
        return Spectrum([(k, -n) for k, n in terms.items()], den=den)

    def __mul__(self, other: Union["Spectrum", int]) -> "Spectrum":
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            den, terms = self._normal_form()
            return Spectrum([(k, n * other) for k, n in terms.items()], den=den)
        if not isinstance(other, Spectrum):
            return NotImplemented
        den = lcm(self._normal_form()[0], other._normal_form()[0])
        right = other._on_grid(den)
        return Spectrum(
            ((k1 + k2, n1 * n2) for k1, n1 in self._on_grid(den) for k2, n2 in right), den=den
        )

    def __rmul__(self, other: int) -> "Spectrum":
        if isinstance(other, bool) or not isinstance(other, int):
            return NotImplemented
        return self * other


def _set(s: Spectrum, run: list[int] | None, grid: int, normal: Tuple[int, dict[int, int]] | None) -> None:
    """Fill the three slots of a new spectrum past its ``__setattr__``."""
    object.__setattr__(s, "_run", run)
    object.__setattr__(s, "_grid", grid)
    object.__setattr__(s, "_normal", normal)


# ---------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------

# A term's text is led by its separator, which the first term drops: " + "
# or " - " (plain), "+" or "-" (latex), ", " (json).


def _power(style: str, p: int, q: int) -> str:
    """The text of t^(p/q), p/q in lowest terms (q = 1 for an integer)."""
    if style == "json":
        return f"{p}/{q}" if q != 1 else str(p)
    if q != 1:
        return f"t^({p}/{q})" if style == "plain" else f"t^{{{p}/{q}}}"
    if p == 1:
        return "t"
    return f"t^{p}" if style == "plain" else f"t^{{{p}}}"


def _term(style: str, n: int, power: str) -> str:
    """The text of the term n*power, led by its separator."""
    if style == "plain":
        return (
            f" + {n}*{power}" if n > 1
            else f" - {-n}*{power}" if n < -1
            else f" + {power}" if n == 1
            else f" - {power}"
        )
    if style == "latex":
        return f"+{n}{power}" if n > 1 else f"-{-n}{power}" if n < -1 else f"+{power}" if n == 1 else f"-{power}"
    return f', {{"alpha": "{power}", "n": {n}}}'


def _plain_fractions(ks: range, gs: list[int], tails: list[str], level: list[int]) -> list[str]:
    """The texts of the nonzero fractional terms of one level of a dense
    run, given its numerators ks, the gcds gs of their residues with the
    grid, the residues' denominator texts tails ("/q" and the closing
    character) and its coefficients: :func:`_term` of :func:`_power`,
    written out as one f-string per term.  The same for each style."""
    return [
        f" + {n}*t^({k // g}{tail}" if n > 1
        else f" - {-n}*t^({k // g}{tail}" if n < -1
        else f" + t^({k // g}{tail}" if n == 1
        else f" - t^({k // g}{tail}"
        for k, g, tail, n in zip(ks, gs, tails, level)
        if n
    ]


def _latex_fractions(ks: range, gs: list[int], tails: list[str], level: list[int]) -> list[str]:
    return [
        f"+{n}t^{{{k // g}{tail}" if n > 1
        else f"-{-n}t^{{{k // g}{tail}" if n < -1
        else f"+t^{{{k // g}{tail}" if n == 1
        else f"-t^{{{k // g}{tail}"
        for k, g, tail, n in zip(ks, gs, tails, level)
        if n
    ]


def _json_fractions(ks: range, gs: list[int], tails: list[str], level: list[int]) -> list[str]:
    return [f', {{"alpha": "{k // g}{tail}, "n": {n}}}' for k, g, tail, n in zip(ks, gs, tails, level) if n]


# Per style: the character that closes a fractional exponent, and its
# fractional terms.
_STYLES = {"plain": (")", _plain_fractions), "latex": ("}", _latex_fractions), "json": ('"', _json_fractions)}


def _run_texts(run: list[int], d: int, style: str) -> list[str]:
    """The texts of the levels of a dense run on the grid 1/d, empty ones
    left out.  For k = l*d + j with 0 < j < d the exponent k/d is
    (l*q + j/g)/q in lowest terms, g = gcd(j, d) and q = d/g: one gcd and
    one denominator text per residue j serve every level, and level l's
    only integer exponent is l + 1, at k = (l + 1)*d."""
    close, fractions = _STYLES[style]
    gs = [gcd(j, d) for j in range(1, min(d, len(run) + 1))]
    whole = f"/{d}{close}"
    tails = [whole if g == 1 else f"/{d // g}{close}" for g in gs]
    texts = []
    for base in range(0, len(run), d):
        level = run[base : base + d]
        terms = fractions(range(base + 1, base + d), gs, tails, level)
        if len(level) == d and level[-1]:
            terms.append(_term(style, level[-1], _power(style, base // d + 1, 1)))
        if terms:
            texts.append("".join(terms))
    return texts


def format_spectrum(s: Spectrum, style: str = "plain") -> str:
    """Render a spectrum in one of the styles ``plain``, ``latex``, ``json``.

    The terms come in increasing exponent order, each exponent in lowest
    terms.  A dense run, the form every formula route returns, of any
    length, prints one level (its coefficients at l + j/d for j = 1..d) at
    a time, with one gcd per residue j shared by the levels (see
    :func:`_run_texts`); a normal form, which arithmetic returns, prints
    term by term, one gcd per term."""
    if not (isinstance(style, str) and style in _STYLES):
        raise ValueError(f"unknown spectrum style {_echo(style)}")
    run = s._run
    if run is not None:
        texts = _run_texts(run, s._grid, style)
    else:
        den, pairs = s._ordered()
        texts = [_term(style, n, _power(style, k // g, den // g)) for k, n in pairs for g in (gcd(k, den),)]
    if style == "json":
        if texts:
            texts[0] = texts[0][2:]
        return f"[{''.join(texts)}]"
    if not texts:
        return "0"
    # The first term carries no "+", and its "-" no spaces.
    first = texts[0]
    if style == "plain":
        texts[0] = "-" + first[3:] if first[1] == "-" else first[3:]
    elif first[0] == "+":
        texts[0] = first[1:]
    return "".join(texts)


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
