"""Spectrum polynomials: finite integer combinations of rational powers of t.

A spectrum is a fractional Laurent polynomial sum(n_alpha * t^alpha) with
integer coefficients n_alpha and exact rational exponents alpha.  Exponents
are stored as reduced :class:`fractions.Fraction` values so that colliding
terms such as t^(6/4) and t^(3/2) merge, and zero coefficients are dropped
eagerly so that equality of spectra is plain structural equality.

Three serializations are supported (see :func:`format_spectrum`):

* ``plain``  -- ``t + 2*t^(4/3) + 2*t^(5/3)``; integer exponents bare
  (``t^2``), fractional exponents parenthesized (``t^(4/3)``); ``0`` is the
  zero spectrum.  :func:`parse_spectrum` inverts this format exactly.
* ``latex``  -- ``2t+2t^{5/4}+2t^{3/2}-t^{2}``.
* ``json``   -- ``[{"alpha": "4/3", "n": 2}, ...]`` sorted by exponent.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
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


class Spectrum:
    """Immutable fractional Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[ExponentLike, int], Iterable[Tuple[ExponentLike, int]], None] = None,
    ):
        data: dict[Fraction, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for alpha, n in items:
                if isinstance(n, bool) or not isinstance(n, int):
                    raise TypeError(f"coefficient must be an integer, got {n!r}")
                exp = Fraction(alpha)
                data[exp] = data.get(exp, 0) + n
        object.__setattr__(self, "_terms", {a: n for a, n in data.items() if n})

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    # -- construction ------------------------------------------------

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
        return sorted(self._terms.items())

    def coefficient(self, alpha: ExponentLike) -> int:
        return self._terms.get(Fraction(alpha), 0)

    def support(self) -> Tuple[Fraction, ...]:
        return tuple(sorted(self._terms))

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
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Spectrum({format_spectrum(self, 'plain')!r})"

    def __str__(self) -> str:
        return format_spectrum(self, "plain")

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "Spectrum") -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        return Spectrum([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Spectrum":
        return Spectrum({a: -n for a, n in self._terms.items()})

    def __mul__(self, other: Union["Spectrum", int]) -> "Spectrum":
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            return Spectrum({a: n * other for a, n in self._terms.items()})
        if not isinstance(other, Spectrum):
            return NotImplemented
        return Spectrum(
            (a1 + a2, n1 * n2) for a1, n1 in self._terms.items() for a2, n2 in other._terms.items()
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


def _plain_power(alpha: Fraction) -> str:
    if alpha == 1:
        return "t"
    if alpha.denominator == 1:
        return f"t^{alpha.numerator}"
    return f"t^({alpha})"


def _latex_power(alpha: Fraction) -> str:
    if alpha == 1:
        return "t"
    return f"t^{{{alpha}}}"


def format_spectrum(s: Spectrum, style: str = "plain") -> str:
    """Render a spectrum in one of the styles ``plain``, ``latex``, ``json``."""
    if style == "json":
        return json.dumps([{"alpha": str(a), "n": n} for a, n in s.items()])
    if style not in ("plain", "latex"):
        raise ValueError(f"unknown spectrum style {style!r}")
    if not s:
        return "0"
    parts: list[str] = []
    for i, (alpha, n) in enumerate(s.items()):
        mag = abs(n)
        if style == "plain":
            body = _plain_power(alpha) if mag == 1 else f"{mag}*{_plain_power(alpha)}"
            if i == 0:
                parts.append(f"-{body}" if n < 0 else body)
            else:
                parts.append(f" - {body}" if n < 0 else f" + {body}")
        else:
            body = _latex_power(alpha) if mag == 1 else f"{mag}{_latex_power(alpha)}"
            if i == 0:
                parts.append(f"-{body}" if n < 0 else body)
            else:
                parts.append(f"-{body}" if n < 0 else f"+{body}")
    return "".join(parts)


# ---------------------------------------------------------------------
# parsing (plain style)
# ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+|[t^*+\-()/]")


def _tokenize(text: str) -> list[Tuple[str, int]]:
    tokens: list[Tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpectrumParseError("unexpected character", pos, ch)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> Tuple[str, int]:
        if self.i >= len(self.tokens):
            raise SpectrumParseError("unexpected end of input", len(self.text), "<end>")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok, pos = self.take()
        if tok != want:
            raise SpectrumParseError(f"expected {want!r}", pos, tok)

    def fail(self, message: str) -> "SpectrumParseError":
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
        else:
            tok, pos = "<end>", len(self.text)
        return SpectrumParseError(message, pos, tok)

    def integer(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok, pos = self.take()
        if not tok.isdigit():
            raise SpectrumParseError("expected an integer", pos, tok)
        return sign * int(tok)

    def exponent(self) -> Fraction:
        if self.peek() == "(":
            self.take()
            p = self.integer()
            self.expect("/")
            q_tok, q_pos = self.take()
            if not q_tok.isdigit() or int(q_tok) == 0:
                raise SpectrumParseError("expected a positive denominator", q_pos, q_tok)
            self.expect(")")
            return Fraction(p, int(q_tok))
        return Fraction(self.integer())

    def term(self) -> Tuple[Fraction, int]:
        coef = 1
        tok = self.peek()
        if tok is not None and tok.isdigit():
            coef = int(self.take()[0])
            self.expect("*")
        self.expect("t")
        if self.peek() == "^":
            self.take()
            return self.exponent(), coef
        return Fraction(1), coef

    def spectrum(self) -> Spectrum:
        # Lone "0" is the zero spectrum.
        if len(self.tokens) == 1 and self.tokens[0][0] == "0":
            return Spectrum.zero()
        terms = []
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        while True:
            alpha, coef = self.term()
            terms.append((alpha, sign * coef))
            tok = self.peek()
            if tok is None:
                break
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise self.fail("expected '+' or '-' between terms")
            self.take()
        return Spectrum(terms)


def parse_spectrum(text: str) -> Spectrum:
    """Parse the plain-style rendering back into a :class:`Spectrum`."""
    parser = _Parser(text)
    if not parser.tokens:
        raise SpectrumParseError("empty input", 0, "<end>")
    return parser.spectrum()
