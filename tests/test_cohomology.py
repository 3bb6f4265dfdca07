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
        assert CohClass(bv={"v": 0}) == CohClass()

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


class TestLogExp:
    @given(classes())
    def test_exp_inverts_log(self, x):
        assert unit_part(x).log().exp() == unit_part(x)

    @given(classes(), classes())
    def test_product_matches_ring_products(self, x, y):
        x, y = unit_part(x), unit_part(y)
        assert product([(x, 2), (y, -1)]) == x * x * y.inverse()
        assert product([]) == ONE

    def test_scalar_part_is_checked(self):
        with pytest.raises(ValueError):
            (ONE + ONE).log()
        with pytest.raises(ValueError):
            ONE.exp()


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
