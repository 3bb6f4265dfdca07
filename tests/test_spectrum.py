import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import arrangement_graphs, spectra
from curvespec.cohomology import CohClass
from curvespec.formulas import (
    _three_level_spectrum,
    spectrum_binary_linear,
    spectrum_general,
    spectrum_irreducible_power,
    spectrum_isolated,
    spectrum_reduced,
)
from curvespec.lines import LineFileError, normalize_form
from curvespec.riemann_roch import spectrum_via_riemann_roch
from curvespec.spectrum import (
    Spectrum,
    SpectrumParseError,
    format_spectrum,
    parse_spectrum,
)

BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"

# Values that no exact-rational reader takes: exponents, line coefficients
# and cohomology scalars alike.
REFUSED = [
    (0.1, TypeError),  # Fraction(0.1) is 3602879701896397/36028797018963968
    (True, TypeError),  # Fraction(True) is 1
    (float("inf"), TypeError),  # Fraction(inf) raises OverflowError
    (None, TypeError),
    ("1e2000000", ValueError),  # Fraction() would take time growing with the exponent
    ("1.5", ValueError),
    ("1_000", ValueError),  # Fraction() takes it from Python 3.11
    ("", ValueError),
    ("1/0", ValueError),  # Fraction() raises ZeroDivisionError
    ("1/-2", ValueError),
    ("\u0661/2", ValueError),
    ("1 / 2", ValueError),  # Fraction() takes it from Python 3.12
    ("0.1", ValueError),
    ("1e3", ValueError),
    ("\u0663", ValueError),  # Fraction() takes non-ASCII digits
]
REFUSED_IDS = [
    "float", "bool", "inf", "None", "huge-exponent-string", "decimal-string", "underscore-string",
    "empty-string", "zero-denominator", "negative-denominator", "non-ascii-digit",
    "spaced-slash-string", "tenth-string", "exponent-string", "non-ascii-integer",
]


def read_three_ways(text):
    """What the three exact-rational readers make of ``text``: its value as a
    spectrum exponent, a cohomology scalar and a line coefficient, each an
    ``error`` marker if that reader refuses it."""

    def attempt(read):
        try:
            return read()
        except (TypeError, ValueError):
            return "error"

    def line_coefficient():
        a, _, c = normalize_form([text, 0, 1])
        return Fraction(a, c)

    return (
        attempt(lambda: Spectrum.term(text).support()[0]),
        attempt(lambda: CohClass(text).a),
        attempt(line_coefficient),
    )


class TestConstruction:
    def test_duplicate_exponents_merge(self):
        s = Spectrum([(Fraction(6, 4), 1), (Fraction(3, 2), 2)])
        assert s == Spectrum({Fraction(3, 2): 3})

    def test_zero_coefficients_dropped(self):
        s = Spectrum({Fraction(1, 2): 0, 1: 3})
        assert s.support() == (Fraction(1),)
        assert not Spectrum({"4/2": 1, 2: -1})

    def test_exponent_coercion(self):
        assert Spectrum({"4/3": 2}) == Spectrum({Fraction(4, 3): 2})
        assert Spectrum({" -6/4 ": 1, "2": 1, 3: 1}) == Spectrum({Fraction(-3, 2): 1, 2: 1, Fraction(3): 1})
        assert Spectrum.term(2, 5).coefficient("4/2") == Spectrum.term(2, 5).coefficient(2) == 5

    @pytest.mark.parametrize("alpha, error", REFUSED, ids=REFUSED_IDS)
    def test_only_documented_exponent_types(self, alpha, error):
        with pytest.raises(error):
            Spectrum({alpha: 1})
        with pytest.raises(error):
            Spectrum.term(alpha)
        for s in (Spectrum.term(1), spectrum_isolated(3, 2)):
            with pytest.raises(error):
                s.coefficient(alpha)

    @pytest.mark.parametrize("alpha, error", REFUSED, ids=REFUSED_IDS)
    def test_three_readers_refuse_alike(self, alpha, error):
        # Line coefficients and cohomology scalars follow the exponents' rule.
        with pytest.raises(error):
            CohClass(alpha)
        message = "must be an integer or 'p/q' string" if error is TypeError else "is not a valid rational"
        with pytest.raises(LineFileError, match=message):
            normalize_form([alpha, 0, 1])

    @pytest.mark.parametrize("text, value", [(" -6/4 ", Fraction(-3, 2)), ("+5", 5), ("0", 0), ("4/2", 2)])
    def test_three_readers_accept_alike(self, text, value):
        assert read_three_ways(text) == (value, value, value)

    @given(st.text(alphabet="0123456789+-/ ._e\u00a0\u0663", max_size=8))
    @example("1 / 2")
    @example("1_000")
    @example("\u00a01")
    def test_three_readers_agree(self, text):
        outcomes = read_three_ways(text)
        assert len(set(outcomes)) == 1, outcomes

    @pytest.mark.parametrize(
        "text",
        ["7" * 5000, "1/" + "7" * 5000, " -" + "7" * 5000 + " "],
        ids=["5000-digit-integer", "5000-digit-denominator", "5000-digit-negative-spaced"],
    )
    def test_long_digit_run_is_outside_the_grammar(self, text):
        # Past int()'s digit limit a string is refused with the module's own
        # message, which echoes at most 80 characters of it.
        for read, subject in [
            (Spectrum.term, "exponent"),
            (Spectrum.term(1).coefficient, "exponent"),
            (CohClass, "class coefficient"),
        ]:
            with pytest.raises(ValueError, match=f"^{subject} is not a valid rational: '") as info:
                read(text)
            assert len(str(info.value)) < 160
        with pytest.raises(LineFileError, match="is not a valid rational") as info:
            normalize_form([text, 0, 1])
        assert len(str(info.value)) < 160

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Spectrum({1: Fraction(1, 2)})
        with pytest.raises(TypeError):
            Spectrum({1: True})

    def test_immutable(self):
        s = Spectrum.term(1)
        with pytest.raises(AttributeError):
            s._terms = {}

    def test_items_strictly_increasing(self):
        s = Spectrum({2: 1, Fraction(1, 3): 4, 1: -2})
        exponents = [a for a, _ in s.items()]
        assert exponents == sorted(exponents)
        assert len(set(exponents)) == len(exponents)

    def test_hashable(self):
        assert hash(Spectrum({1: 2})) == hash(Spectrum([(1, 1), (1, 1)]))


class TestAlgebra:
    def test_monomial_distribution(self):
        half = Fraction(1, 2)
        assert Spectrum.term(half) * (Spectrum.term(half) + Spectrum.term(1)) == Spectrum(
            {1: 1, Fraction(3, 2): 1}
        )

    def test_zero_annihilates(self):
        assert Spectrum.zero() * Spectrum({1: 5, 2: -1}) == Spectrum.zero()

    def test_conic_cube(self):
        s = Spectrum.term(Fraction(1, 2))
        assert s * s * s == Spectrum.term(Fraction(3, 2))

    def test_scalar_multiplication(self):
        s = Spectrum({1: 2, 2: -1})
        assert 3 * s == s * 3 == Spectrum({1: 6, 2: -3})
        assert s * 0 == Spectrum.zero()

    def test_subtraction_and_negation(self):
        s = Spectrum({1: 2})
        assert s - s == Spectrum.zero()
        assert -s == Spectrum({1: -2})

    def test_foreign_operands_are_not_implemented(self):
        s = Spectrum.term(1)
        for other in (1, "t", Fraction(1), None):
            assert s.__eq__(other) is NotImplemented
            assert s.__add__(other) is NotImplemented
            assert s.__sub__(other) is NotImplemented
            assert s != other
            with pytest.raises(TypeError):
                s + other
            with pytest.raises(TypeError):
                s - other
        for other in ("t", True, 1.5, Fraction(1), None):
            assert s.__mul__(other) is NotImplemented
            assert s.__rmul__(other) is NotImplemented
            with pytest.raises(TypeError):
                s * other
            with pytest.raises(TypeError):
                other * s

    @given(spectra(), spectra())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(spectra(max_terms=4), spectra(max_terms=4), spectra(max_terms=4))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(spectra(max_terms=4), spectra(max_terms=4), spectra(max_terms=4))
    def test_mul_distributes_over_add(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(spectra())
    def test_exponent_zero_unit(self, s):
        assert Spectrum.term(0) * s == s

    @given(spectra(), spectra())
    def test_eval_at_one_is_ring_map(self, a, b):
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


class TestEvalAtOne:
    def test_milnor_number_of_smooth_cubic(self):
        assert spectrum_isolated(3, 3).eval_at_one() == (3 - 1) ** 3

    def test_smooth_conic(self):
        assert Spectrum.term(Fraction(3, 2)).eval_at_one() == 1

    def test_zero(self):
        assert Spectrum.zero().eval_at_one() == 0


class TestFormat:
    def test_plain_fixture(self):
        s = Spectrum({1: 1, Fraction(4, 3): 2, Fraction(5, 3): 2})
        assert format_spectrum(s) == "t + 2*t^(4/3) + 2*t^(5/3)"

    def test_plain_zero(self):
        assert format_spectrum(Spectrum.zero()) == "0"

    def test_plain_signs_and_powers(self):
        s = Spectrum({Fraction(-1, 2): -1, 1: 1, 2: -3, 0: 2})
        assert format_spectrum(s) == "-t^(-1/2) + 2*t^0 + t - 3*t^2"

    def test_latex_fixture(self):
        s = Spectrum({1: 2, Fraction(5, 4): 2, Fraction(3, 2): 2, Fraction(7, 4): 2, 2: -1})
        assert format_spectrum(s, "latex") == "2t+2t^{5/4}+2t^{3/2}+2t^{7/4}-t^{2}"

    def test_json_sorted_by_exponent(self):
        s = Spectrum({2: -1, Fraction(1, 2): 3})
        assert format_spectrum(s, "json") == '[{"alpha": "1/2", "n": 3}, {"alpha": "2", "n": -1}]'

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_spectrum(Spectrum.zero(), "html")
        # An unhashable style is unknown too, not a TypeError.
        with pytest.raises(ValueError, match="unknown spectrum style"):
            format_spectrum(Spectrum.zero(), [])

    def test_repr_and_str(self):
        for s in (Spectrum({1: 1, Fraction(4, 3): 2}), Spectrum._dense(3, [0, 0, 1, 2])):
            assert str(s) == "t + 2*t^(4/3)"
            assert repr(s) == "Spectrum('t + 2*t^(4/3)')"
        assert repr(Spectrum.zero()) == "Spectrum('0')"


class TestParse:
    def test_single_negative_term(self):
        assert parse_spectrum("-t^2") == Spectrum.term(2, -1)

    def test_zero(self):
        assert parse_spectrum("0") == Spectrum.zero()

    def test_fraction_exponents(self):
        assert parse_spectrum("t + 2*t^(4/3)") == Spectrum({1: 1, Fraction(4, 3): 2})

    def test_negative_fraction_exponent(self):
        assert parse_spectrum("3*t^(-1/2)") == Spectrum({Fraction(-1, 2): 3})

    def test_leading_plus_and_whitespace(self):
        assert parse_spectrum("  +2*t  -  t^2 ") == Spectrum({1: 2, 2: -1})

    def test_repeated_exponents_merge(self):
        assert parse_spectrum("t + t - 2*t") == Spectrum.zero()

    @pytest.mark.parametrize(
        "text, expected",
        [
            (" - 2 * t ^ ( - 1 / 2 ) + 3 * t ^ - 2 - t ", {Fraction(-1, 2): -2, -2: 3, 1: -1}),
            ("\tt\t+\n7*t^2\t", {1: 1, 2: 7}),
            ("+t", {1: 1}),
            ("t^-2", {-2: 1}),
            ("t^(- 1/2)", {Fraction(-1, 2): 1}),
            ("t^0 - t^(0/5)", {}),
            ("0*t", {}),
            (" 0 ", {}),
            ("00*t + 012*t^(03/06)", {Fraction(1, 2): 12}),
        ],
    )
    def test_accepted_language(self, text, expected):
        assert parse_spectrum(text) == Spectrum(expected)

    @pytest.mark.parametrize(
        "text",
        [
            "", " ", "\t\n", "t^", "2*", "t^(1/0)", "t^(1/00)", "x", "1 + t", "t t", "2**t",
            "t^(1/2", "--t", "t^()", "2t", "t^+2", "t^(+1/2)", "t^(1/-2)", "0 + t", "00", "\u0660",
            "t +", "t^2 3", "t^(1 / 2 3)", "1 2*t", "2*t^x",
            # Digits and spaces outside ASCII, which int() and a Unicode \d or \s take.
            "\u0663*t^(\u0661/\u0662)", "\u0662*t^(\u0661/\u0663)", "t^\uff12", "t +\u00a0t", "\u00a00",
        ],
    )
    def test_malformed_inputs_report_position(self, text):
        with pytest.raises(SpectrumParseError) as err:
            parse_spectrum(text)
        assert 0 <= err.value.position <= len(text)
        assert err.value.token

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="int() converts 5000-digit strings here",
    )
    @pytest.mark.parametrize(
        "text, position",
        [("1" * 5000 + "*t", 0), ("t^" + "1" * 5000, 2), ("t^(1/" + "1" * 5000 + ")", 5)],
        ids=["coefficient", "exponent", "denominator"],
    )
    def test_digit_run_too_long_for_int(self, text, position):
        with pytest.raises(SpectrumParseError) as err:
            parse_spectrum(text)
        assert err.value.position == position
        assert err.value.token == "1" * 5000
        assert len(str(err.value)) < 160

    def test_long_token_is_cut_in_the_message(self):
        # 4000 zeros are one token whether int() takes them (a zero
        # denominator) or not (a digit run too long).
        with pytest.raises(SpectrumParseError) as err:
            parse_spectrum("t^(1/" + "0" * 4000 + ")")
        assert err.value.position == 5
        assert err.value.token == "0" * 4000
        assert len(str(err.value)) < 160
        assert str(err.value).endswith("...")

    @given(spectra())
    def test_round_trip(self, s):
        assert parse_spectrum(format_spectrum(s)) == s

    def test_round_trip_of_stored_outputs(self):
        outputs = [
            item["stdout"].removesuffix("\n")
            for name in ("compute", "lines")
            for item in json.loads((BENCH_DATA / f"{name}.json").read_text(encoding="utf-8"))["items"]
        ]
        assert len(outputs) == 131
        for text in outputs:
            assert format_spectrum(parse_spectrum(text)) == text

    @given(st.text(alphabet=" \t0123456789t^*+-()/x\u0663", max_size=16))
    def test_any_text_is_rejected_or_round_trips(self, text):
        try:
            s = parse_spectrum(text)
        except SpectrumParseError as err:
            assert 0 <= err.position <= len(text)
            return
        assert parse_spectrum(format_spectrum(s)) == s


class ReferenceSpectrum:
    """Spectrum terms in a dict keyed by reduced Fraction exponents: the
    representation the integer grid replaced, kept as the oracle."""

    def __init__(self, terms=()):
        data = {}
        for alpha, n in terms:
            alpha = Fraction(alpha)
            data[alpha] = data.get(alpha, 0) + n
        self.terms = {a: n for a, n in data.items() if n}

    def items(self):
        return sorted(self.terms.items())

    def coefficient(self, alpha):
        return self.terms.get(Fraction(alpha), 0)

    def eval_at_one(self):
        return sum(self.terms.values())

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        return ReferenceSpectrum([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return ReferenceSpectrum((a, -n) for a, n in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ReferenceSpectrum((a, n * other) for a, n in self.terms.items())
        return ReferenceSpectrum(
            (a1 + a2, n1 * n2) for a1, n1 in self.terms.items() for a2, n2 in other.terms.items()
        )


def reference_format(s, style):
    """format_spectrum over Fraction exponents, term by term."""
    if style == "json":
        return json.dumps([{"alpha": str(a), "n": n} for a, n in s.items()])
    if not s.terms:
        return "0"
    parts = []
    for i, (alpha, n) in enumerate(s.items()):
        if style == "plain":
            power = "t" if alpha == 1 else f"t^{alpha}" if alpha.denominator == 1 else f"t^({alpha})"
            body = power if abs(n) == 1 else f"{abs(n)}*{power}"
            sep = ("-" if n < 0 else "") if i == 0 else (" - " if n < 0 else " + ")
        else:
            power = "t" if alpha == 1 else f"t^{{{alpha}}}"
            body = power if abs(n) == 1 else f"{abs(n)}{power}"
            sep = ("-" if n < 0 else "") if i == 0 else ("-" if n < 0 else "+")
        parts.append(sep + body)
    return "".join(parts)


# Exponents p/q with q up to 8 collide often (6/4 = 3/2), reach below zero
# and include 0; zero coefficients are drawn too.
term_lists = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)),
        st.integers(-3, 3),
    ),
    max_size=7,
)
grid_terms = st.tuples(
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-3, 3)), max_size=7),
)
PROBES = [Fraction(p, q) for q in range(1, 10) for p in range(-13, 14)]
coefficients = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**30), 10**30))

# Grids that often reduce, exponents below 0, at 0 and at 1, coefficients
# +-1, small and large, and the empty list (the zero spectrum).
format_grids = st.tuples(
    st.integers(1, 12),
    st.lists(
        st.tuples(st.integers(-40, 40), st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))),
        max_size=12,
    ),
)


def assert_matches(s, ref):
    assert s.items() == ref.items()
    assert list(s) == ref.items()
    assert s.support() == tuple(a for a, _ in ref.items())
    assert len(s) == len(ref.terms)
    assert bool(s) == bool(ref.terms)
    assert s.eval_at_one() == ref.eval_at_one()
    for alpha in PROBES:
        assert s.coefficient(alpha) == ref.coefficient(alpha)
    for style in ("plain", "latex", "json"):
        assert format_spectrum(s, style) == reference_format(ref, style)


class TestAgainstReference:
    @given(term_lists)
    def test_construction(self, terms):
        assert_matches(Spectrum(terms), ReferenceSpectrum(terms))

    @given(grid_terms)
    def test_grid_construction(self, grid):
        den, pairs = grid
        assert_matches(Spectrum(pairs, den=den), ReferenceSpectrum((Fraction(k, den), n) for k, n in pairs))

    @given(term_lists, term_lists, st.integers(-3, 3))
    def test_algebra(self, left, right, scale):
        a, b = Spectrum(left), Spectrum(right)
        ra, rb = ReferenceSpectrum(left), ReferenceSpectrum(right)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        assert_matches(-a, -ra)
        assert_matches(a * b, ra * rb)
        assert_matches(a * scale, ra * scale)
        assert_matches(scale * a, ra * scale)

    @given(term_lists, term_lists)
    def test_equality_and_hash(self, left, right):
        a, b = Spectrum(left), Spectrum(right)
        assert (a == b) == (ReferenceSpectrum(left) == ReferenceSpectrum(right))
        # The same terms, scaled onto a finer grid and given in reverse.
        again = Spectrum([(f"{x.numerator * 5}/{x.denominator * 5}", n) for x, n in reversed(left)])
        assert again == a
        assert hash(again) == hash(a)

    @given(grid_terms, st.integers(2, 5))
    def test_grid_is_reduced(self, grid, factor):
        den, pairs = grid
        s = Spectrum(pairs, den=den)
        coarse = Spectrum([(k * factor, n) for k, n in pairs], den=den * factor)
        assert coarse == s
        assert hash(coarse) == hash(s)

    @given(format_grids)
    @example((1, []))
    @example((6, [(6, 1), (0, -1), (-6, 1), (3, -1), (-3, 2)]))
    @example((12, [(12, -1), (4, 2), (-18, 1)]))
    @example((4, [(-2, -1), (8, 1)]))
    def test_format_grids(self, grid):
        den, pairs = grid
        assert_matches(Spectrum(pairs, den=den), ReferenceSpectrum((Fraction(k, den), n) for k, n in pairs))
        # The trusted constructor on the 3x grid, one coefficient per
        # numerator, zeros between: a dense run starts at numerator 1, so
        # the numerators k in -40..40 move to k + 41.
        last = dict(pairs)
        run = [0] * (3 * 81)
        for k, n in last.items():
            run[3 * (k + 41) - 1] = n
        assert_matches(
            Spectrum._dense(den * 3, run),
            ReferenceSpectrum((Fraction(k + 41, den), n) for k, n in last.items()),
        )

    @pytest.mark.parametrize("d", range(1, 41))
    def test_format_route_runs(self, d):
        # Dense runs as the routes build them, 3d long with every residue of
        # the grid filled, and of other lengths, with and without zeros.
        values = [1, -1, 2, -3, 10**30, -(10**30), 7, -1, 1]
        full = [values[k % len(values)] for k in range(3 * d)]
        holed = [0 if k % 4 == d % 4 else n for k, n in enumerate(full)]
        runs = [full, holed, [0] * (3 * d), [], full[:1], full[: d - 1], full[:d], holed[: 2 * d + 1], holed + full]
        for run in runs:
            assert_matches(
                Spectrum._dense(d, list(run)),
                ReferenceSpectrum((Fraction(k, d), n) for k, n in enumerate(run, 1)),
            )

    @given(st.integers(1, 40).flatmap(lambda d: st.tuples(st.just(d), st.lists(coefficients, max_size=4 * d + 2))))
    def test_format_dense_runs(self, dense):
        d, run = dense
        assert_matches(Spectrum._dense(d, list(run)), ReferenceSpectrum((Fraction(k, d), n) for k, n in enumerate(run, 1)))

    @given(spectra(max_terms=10))
    def test_fraction_spectra(self, s):
        assert_matches(s, ReferenceSpectrum(s.items()))


class TestGrid:
    def test_pairs_equal_fraction_terms(self):
        pairs = [(1, 2), (7, -1), (4, 3), (0, 5), (-3, 1), (12, 1)]
        assert Spectrum(pairs, den=6) == Spectrum([(Fraction(k, 6), n) for k, n in pairs])

    def test_non_reduced_grid(self):
        s = Spectrum([(2, 1), (4, -2), (-6, 3)], den=6)
        assert s == Spectrum({Fraction(1, 3): 1, Fraction(2, 3): -2, -1: 3})
        assert format_spectrum(s) == "3*t^-1 + t^(1/3) - 2*t^(2/3)"

    def test_colliding_numerators_cancel(self):
        assert Spectrum([(3, 1), (6, 2), (3, -1), (6, -2)], den=4) == Spectrum.zero()
        assert hash(Spectrum([(3, 1), (3, -1)], den=4)) == hash(Spectrum.zero())

    @pytest.mark.parametrize("den", [0, -2, True, Fraction(3), 1.0])
    def test_bad_denominator(self, den):
        with pytest.raises(ValueError):
            Spectrum([(1, 1)], den=den)

    @pytest.mark.parametrize("pair", [(Fraction(1, 2), 1), (True, 1), (1.0, 1)])
    def test_numerators_must_be_integers(self, pair):
        with pytest.raises(TypeError):
            Spectrum([pair], den=2)

    @pytest.mark.parametrize("n", [Fraction(1, 2), True, 1.0])
    def test_coefficients_must_be_integers(self, n):
        with pytest.raises(TypeError):
            Spectrum([(1, n)], den=2)

    @given(st.integers(1, 12), st.integers(1, 12), st.dictionaries(st.integers(-20, 20), st.integers(-3, 3)))
    def test_trusted_constructor_matches_checking_one(self, factor, den, terms):
        # A common factor of den and every numerator leaves a grid to
        # reduce; coefficient 0 is drawn often.  A dense run starts at
        # numerator 1, so the numerators k in -20..20 move to k + 21 before
        # the scaling by factor.
        den *= factor
        terms = {factor * (k + 21): n for k, n in terms.items()}
        run = [0] * (factor * 41)
        for k, n in terms.items():
            run[k - 1] = n
        trusted = Spectrum._dense(den, run)
        checked = Spectrum(list(terms.items()), den=den)
        assert trusted == checked
        assert trusted._normal_form() == checked._normal_form()


@st.composite
def level_runs(draw):
    """(d, n0, n1, n2): three coefficient runs over j = 1..d, with zero,
    small, negative and large coefficients.  When a factor g > 1 of d is
    drawn, every coefficient off the multiples of g is 0, so that the grid
    reduces by g or a multiple of it."""
    g = draw(st.integers(1, 4))
    d = g * draw(st.integers(1, 10))
    return (d, *([draw(coefficients) if j % g == 0 else 0 for j in range(1, d + 1)] for _ in range(3)))


def assert_in_exponent_order(s):
    terms = s._normal_form()[1]
    assert list(terms) == sorted(terms)
    assert 0 not in terms.values()


def assert_reads_match(dense, checked):
    """Every read of a dense spectrum gives what it gives on the checking
    constructor's spectrum of the same terms."""
    assert dense == checked and checked == dense
    assert not dense != checked
    assert len(dense) == len(checked)
    assert bool(dense) == bool(checked)
    assert dense.items() == checked.items()
    assert dense.support() == checked.support()
    assert dense.eval_at_one() == checked.eval_at_one()
    den = dense._grid
    for alpha in PROBES + [Fraction(k, 2 * den) for k in range(-2, 6 * den + 4)]:
        assert dense.coefficient(alpha) == checked.coefficient(alpha)
    for style in ("plain", "latex", "json"):
        assert format_spectrum(dense, style) == format_spectrum(checked, style)


class TestTrustedBuild:
    """The formula routes build their spectra from three coefficient runs
    through the trusted constructor; it must give what the checking one
    gives on the same (numerator, coefficient) pairs, in exponent order."""

    @given(level_runs())
    @example((1, [0], [0], [0]))
    @example((4, [0, 5, 0, -5], [0, 0, 0, 10**30], [0, 1, 0, 0]))
    def test_level_runs_match_the_checking_constructor(self, runs):
        d, *levels = runs
        pairs = [(level * d + j, n) for level, run in enumerate(levels) for j, n in enumerate(run, 1)]
        checked = Spectrum(pairs, den=d)
        run = [n for level in levels for n in level]

        def dense():
            # A new object each time, so no read finds a normal form that
            # an earlier read built.
            return Spectrum._dense(d, list(run))

        for trusted in (_three_level_spectrum(d, *levels), dense()):
            assert trusted == checked
            assert trusted._normal_form() == checked._normal_form()
            assert_in_exponent_order(trusted)
        assert_reads_match(dense(), checked)
        assert hash(dense()) == hash(checked)
        # Two runs on one grid: equal runs, a run that differs in its last
        # coefficient, and the same terms in a longer run; and the same run
        # on another grid, equal only when it is all zeros.
        assert dense() == _three_level_spectrum(d, *levels)
        assert Spectrum._dense(d, run[:-1] + [run[-1] + 1]) != dense()
        assert Spectrum._dense(d, run + [0] * d) == dense()
        assert (Spectrum._dense(2 * d, list(run)) == dense()) == (not any(run))
        other = Spectrum.term(Fraction(1, 2), 3) - Spectrum.term(2)
        for left in (dense(), checked):
            assert dense() + left == checked + checked
            assert dense() - left == Spectrum.zero() == left - dense()
            assert dense() * left == checked * checked
            assert dense() + other == checked + other and other - dense() == other - checked
            assert dense() * other == checked * other
        assert dense() * -3 == -3 * dense() == checked * -3
        assert -dense() == -checked
        # The same terms on the grid 2d, every odd numerator 0.
        doubled = Spectrum._dense(2 * d, [x for n in run for x in (0, n)])
        assert doubled == dense() and dense() == doubled
        assert hash(doubled) == hash(checked)
        assert_reads_match(doubled, checked)

    @given(arrangement_graphs())
    def test_routes_store_their_terms_in_exponent_order(self, g):
        for route in (spectrum_general, spectrum_via_riemann_roch):
            assert_in_exponent_order(route(g))
        if g.is_reduced():
            assert_in_exponent_order(spectrum_reduced(g))

    @pytest.mark.parametrize("d, m, mults", [(3, 1, [2]), (4, 3, [2, 3]), (6, 2, [2, 2, 5])])
    def test_single_curve_power_stores_its_terms_in_exponent_order(self, d, m, mults):
        assert_in_exponent_order(spectrum_irreducible_power(d, m, mults))

    @pytest.mark.parametrize("mults", [[1], [1, 1], [2, 1, 3], [4, 4, 2]])
    def test_binary_form_stores_its_terms_in_exponent_order(self, mults):
        assert_in_exponent_order(spectrum_binary_linear(mults))
