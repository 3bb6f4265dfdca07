from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvespec.cohomology import ONE, CohClass, exceptional_class, hyperplane_e0, point_e, product

E0 = hyperplane_e0()
E0_SQ = CohClass(c=1)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def classes(draw):
    bv = {
        name: draw(rationals)
        for name in draw(st.sets(st.sampled_from(["p", "q", "r"]), max_size=3))
    }
    return CohClass(draw(rationals), draw(rationals), bv, draw(rationals))


class TestRelations:
    def test_hyperplane_square(self):
        assert E0 * E0 == E0_SQ

    def test_exceptional_square(self):
        ev = point_e("v")
        assert ev * ev == CohClass(c=-1)

    def test_mixed_products_vanish(self):
        assert E0 * point_e("v") == CohClass()
        assert point_e("v") * point_e("w") == CohClass()

    def test_triple_products_vanish(self):
        for x in (E0, point_e("v")):
            assert (x * x) * x == CohClass()
            assert x * (x * x) == CohClass()

    def test_strict_transform_class(self):
        e = exceptional_class(3, {"v": 2, "w": 1})
        assert e == CohClass(b0=-3, bv={"v": -2, "w": -1})


class TestRingLaws:
    @given(classes(), classes())
    def test_commutative(self, x, y):
        assert x * y == y * x

    @given(classes(), classes(), classes())
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(classes(), classes(), classes())
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(classes())
    def test_unit(self, x):
        assert ONE * x == x

    @given(classes())
    def test_additive_group(self, x):
        assert x - x == CohClass()
        assert x + (-x) == CohClass()

    @given(classes())
    def test_scalar_action(self, x):
        assert x * 2 == x + x
        assert Fraction(1, 2) * (x + x) == x

    def test_zero_coefficients_normalized_away(self):
        for zero in (0, "0", "0/5", Fraction(0)):
            x = CohClass(bv={"v": zero})
            assert x == CohClass()
            assert x.bv == {}
            assert x * ONE == x

    def test_non_rational_rejected(self):
        with pytest.raises(TypeError):
            CohClass(a=0.5)
        with pytest.raises(TypeError):
            CohClass(a=True)


class TestIntegrate:
    def test_top_class(self):
        assert E0_SQ.integrate() == 1

    def test_exceptional_square(self):
        assert (point_e("v") * point_e("v")).integrate() == -1

    def test_no_top_part(self):
        assert (ONE + E0).integrate() == 0


class TestInverse:
    def test_geometric_series(self):
        assert (ONE + E0).inverse() == ONE - E0 + E0_SQ

    def test_identity(self):
        assert ONE.inverse() == ONE

    def test_line_through_one_point(self):
        # 1/(1 - [E_l]) for a line through a single point equals
        # 1 + [E_l] + [E_l]^2, whose degree-2 part cancels entirely.
        e = exceptional_class(1, {"v": 1})
        expected = ONE + e + e * e
        assert (ONE - e).inverse() == expected
        assert expected == ONE - hyperplane_e0() - point_e("v")

    @given(classes())
    def test_inverse_is_two_sided(self, x):
        if x.a == 0:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == ONE
            assert x.inverse() * x == ONE


def unit_part(x):
    """x with its scalar part replaced by 1."""
    return ONE + x - x.degree_part(0)


def chain_product(factors):
    """prod f**k as a left-to-right chain of ring products; a negative k
    takes powers of f.inverse()."""
    total = ONE
    for factor, k in factors:
        step = factor.inverse() if k < 0 else factor
        for _ in range(abs(k)):
            total = total * step
    return total


class TestLogExp:
    @given(classes(), classes())
    def test_product_matches_ring_products(self, x, y):
        x, y = unit_part(x), unit_part(y)
        assert product([(x, 2), (y, -1)]) == x * x * y.inverse()
        assert product([]) == ONE


class TestProduct:
    @given(classes(), classes())
    def test_zero_power_skips_the_factor(self, x, y):
        # Not even a class without an inverse is inverted at k = 0.
        zero_scalar = x - x.degree_part(0)
        assert product([(y, 1), (zero_scalar, 0)]) == y
        assert product([(zero_scalar, 0)]) == ONE

    @given(classes(), st.integers(-3, -1))
    def test_negative_power_needs_a_unit(self, x, k):
        with pytest.raises(ZeroDivisionError):
            product([(ONE + E0, 1), (x - x.degree_part(0), k)])

    @given(st.lists(st.tuples(classes(), st.integers(0, 3)), max_size=6))
    def test_any_scalar_part_for_non_negative_powers(self, drawn):
        assert product(drawn) == chain_product(drawn)

    @given(st.lists(st.tuples(classes(), st.integers(-3, 3)), max_size=4))
    def test_negative_powers_of_units(self, drawn):
        units = [(unit_part(x), k) for x, k in drawn]
        assert product(units) == chain_product(units)


class TestStructure:
    def test_degree_parts_sum_to_whole(self):
        x = CohClass(2, 3, {"v": 1}, Fraction(5, 2))
        assert x.degree_part(0) + x.degree_part(1) + x.degree_part(2) == x
        with pytest.raises(ValueError):
            x.degree_part(3)

    def test_is_divisor(self):
        assert point_e("v").is_divisor()
        assert (E0 + point_e("v")).is_divisor()
        assert not ONE.is_divisor()
        assert not E0_SQ.is_divisor()

    @given(classes(), classes())
    def test_multiplication_grading(self, x, y):
        # Degree-2 part of a product only sees degrees 0+2, 1+1, 2+0.
        top = (x * y).degree_part(2)
        expected = (
            x.degree_part(0) * y.degree_part(2)
            + x.degree_part(1) * y.degree_part(1)
            + x.degree_part(2) * y.degree_part(0)
        )
        assert top == expected


class TestAccessors:
    def test_coefficients(self):
        x = CohClass(2, "1/3", {"v": -1}, Fraction(5, 2))
        assert (x.a, x.b0, x.bv, x.c) == (2, Fraction(1, 3), {"v": -1}, Fraction(5, 2))
        assert CohClass().c == 0

    def test_repr(self):
        x = CohClass(1, 2, {"v": Fraction(1, 2), "u": -1}, 3)
        assert repr(x) == "CohClass(1 + 2*e0 + -1*e[u] + 1/2*e[v] + 3*e0^2)"
        assert repr(CohClass(b0=-1, bv={"w": 0})) == "CohClass(-1*e0)"
        assert repr(CohClass()) == "CohClass(0)"

    def test_foreign_operands_are_not_implemented(self):
        for other in (1, None, "1", Fraction(1)):
            assert ONE.__eq__(other) is NotImplemented
            assert ONE.__add__(other) is NotImplemented
            assert ONE.__sub__(other) is NotImplemented
            assert ONE != other
            with pytest.raises(TypeError):
                ONE + other
            with pytest.raises(TypeError):
                ONE - other
        for other in (None, 1.5, True, "x"):
            assert ONE.__mul__(other) is NotImplemented
            with pytest.raises(TypeError):
                ONE * other


class TestScalarMultiplication:
    def test_non_numeric_string_is_a_type_error(self):
        for bad in ("abc", "", "1/0x"):
            with pytest.raises(TypeError):
                ONE * bad
            with pytest.raises(TypeError):
                bad * ONE


class TestDivision:
    @given(classes(), st.integers(-6, 6).filter(bool))
    def test_matches_scalar_inverse(self, x, k):
        assert x / k == x * Fraction(1, k)
        assert (x / k) * k == x

    def test_rejects_zero_and_non_integers(self):
        with pytest.raises(ZeroDivisionError):
            ONE / 0
        for bad in (Fraction(1, 2), 2.0, True, ONE):
            with pytest.raises(TypeError):
                ONE / bad
