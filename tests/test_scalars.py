"""Field arithmetic and Laurent polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpa.errors import DivisionByZero, FieldMismatch, PeriodMismatch
from clpa.scalars import (
    QQ,
    LaurentPoly,
    PFElement,
    PrimeField,
    field_from_spec,
)


class TestScalarArith:
    def test_rational_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_gf5_mul(self):
        assert PFElement(3, 5) * PFElement(4, 5) == PFElement(2, 5)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            PFElement(1, 5) / PFElement(0, 5)
        with pytest.raises(DivisionByZero):
            1 / PFElement(0, 5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            Fraction(1) + PFElement(1, 5)
        with pytest.raises(FieldMismatch):
            PFElement(1, 5) + PFElement(1, 7)

    def test_reduced_representation(self):
        # Fraction keeps rationals reduced with positive denominators
        a = Fraction(2, 4) + Fraction(1, 2)
        assert (a.numerator, a.denominator) == (1, 1)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(2**31 + 11)

    def test_field_from_spec(self):
        assert field_from_spec("q") == QQ
        assert field_from_spec("gf:7") == PrimeField(7)
        with pytest.raises(ValueError):
            field_from_spec("gf:otter")


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gf5_elements = st.integers(min_value=0, max_value=4).map(lambda n: PFElement(n, 5))


class TestFieldAxioms:
    @given(a=rationals, b=rationals, c=rationals)
    def test_rational_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0

    @given(a=gf5_elements, b=gf5_elements, c=gf5_elements)
    def test_gf5_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a / a == PFElement(1, 5)


def lp(period, coeffs, field=QQ):
    mapped = {k: field.from_int(v) if isinstance(v, int) else v
              for k, v in coeffs.items()}
    return LaurentPoly.from_dict(period, mapped, field)


class TestLaurent:
    def test_inverse_pair(self):
        t = lp(1, {1: 1})
        tinv = lp(1, {-1: 1})
        assert t * tinv == lp(1, {0: 1})

    def test_one_plus_t_times_one_minus_t(self):
        assert lp(1, {0: 1, 1: 1}) * lp(1, {0: 1, 1: -1}) == lp(1, {0: 1, 2: -1})

    def test_period_mismatch(self):
        with pytest.raises(PeriodMismatch):
            lp(1, {1: 1}) * lp(2, {1: 1})

    def test_involution_reverses_exponents(self):
        assert lp(1, {1: 1}).star() == lp(1, {-1: 1})
        assert lp(1, {0: 2, 1: 3}).star() == lp(1, {0: 2, -1: 3})

    def test_involution_order_two(self):
        f = lp(1, {0: 1, 1: 1, 3: -1})
        assert f.star().star() == f

    def test_degree_of_homogeneous_term_scales_with_period(self):
        f = lp(3, {2: 5})
        assert set(f.degree_components()) == {6}

    def test_zero_coefficients_dropped(self):
        f = lp(1, {0: 1}) - lp(1, {0: 1})
        assert f.is_zero() and f.terms == ()


laurent_polys = st.builds(
    lambda coeffs: lp(2, coeffs),
    st.dictionaries(st.integers(min_value=-4, max_value=4),
                    st.integers(min_value=-5, max_value=5), max_size=4),
)


class TestLaurentProperties:
    @settings(max_examples=60)
    @given(f=laurent_polys, g=laurent_polys)
    def test_involution_antimultiplicative(self, f, g):
        assert (f * g).star() == g.star() * f.star()

    @settings(max_examples=60)
    @given(f=laurent_polys, g=laurent_polys)
    def test_mul_against_evaluation_oracle(self, f, g):
        # independent check: Laurent polynomials are functions on Q \ {0}
        for point in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            fg = f * g
            assert _eval(fg, point) == _eval(f, point) * _eval(g, point)

    @settings(max_examples=60)
    @given(f=laurent_polys, g=laurent_polys)
    def test_convolution_coefficient_rule(self, f, g):
        fg = f * g
        exponents = {k for k, _ in f.terms} | {k for k, _ in g.terms}
        for d in range(-8, 9):
            expected = sum(
                (f.coeff(k) * g.coeff(d - k) for k in exponents),
                start=Fraction(0),
            )
            assert fg.coeff(d) == expected


def _eval(f, x):
    return sum((a * x**k for k, a in f.terms), start=Fraction(0))
