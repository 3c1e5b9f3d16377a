"""Field arithmetic and Laurent polynomials."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpa.algebra import AlgebraContext
from clpa.errors import DivisionByZero, FieldMismatch, PeriodMismatch
from clpa.gradedmat import DirectSum, GradedMatrixAlgebra
from clpa.scalars import (
    QQ,
    LaurentPoly,
    PFElement,
    PrimeField,
    _is_prime,
    field_from_spec,
)

from conftest import loop_with_exit, random_element, random_object

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "clpa"


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
        with pytest.raises(FieldMismatch):
            QQ.one + PFElement(1, 5)
        with pytest.raises(FieldMismatch):
            PFElement(1, 5) * 7
        with pytest.raises(FieldMismatch):
            3 - PFElement(1, 5)

    def test_reduced_representation(self):
        # Fraction keeps rationals reduced with positive denominators
        a = Fraction(2, 4) + Fraction(1, 2)
        assert (a.numerator, a.denominator) == (1, 1)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(2**31 + 11)
        with pytest.raises(ValueError):
            PrimeField(46_337 ** 2)  # below 2**31, its least factor near sqrt(2**31)

    def test_largest_allowed_modulus_accepted(self):
        assert PrimeField(2_147_483_647).p == 2**31 - 1

    def test_field_from_spec(self):
        assert field_from_spec("q") == QQ
        assert field_from_spec("gf:7") == PrimeField(7)
        with pytest.raises(ValueError):
            field_from_spec("gf:otter")


class TestPrimality:
    # trial division runs to sqrt(n): composites with no small factor try it the longest

    def test_agrees_with_a_sieve_below_20000(self):
        sieve = [False, False] + [True] * (20_000 - 2)
        for p in range(2, 142):
            if sieve[p]:
                sieve[p * p::p] = [False] * len(range(p * p, 20_000, p))
        assert [n for n in range(20_000) if _is_prime(n)] == [
            n for n, prime in enumerate(sieve) if prime]

    def test_large_prime(self):
        assert _is_prime(1_000_000_007)

    def test_strong_pseudoprime_to_bases_2_3_5_refused(self):
        assert not _is_prime(25_326_001)
        with pytest.raises(ValueError, match="25326001 is not prime"):
            PrimeField(25_326_001)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gf5_elements = st.integers(min_value=0, max_value=4).map(lambda n: PFElement(n, 5))


class TestRationalScalars:
    """A rational is an int when integral and a Fraction only when it is not."""

    def test_field_constants_are_ints(self):
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(QQ.from_int(-3)) is int and QQ.from_int(-3) == -3

    def test_contains(self):
        assert QQ.contains(2) and QQ.contains(Fraction(1, 2))
        assert not QQ.contains(PFElement(1, 5)) and PrimeField(5).contains(PFElement(1, 5))
        assert not PrimeField(7).contains(PFElement(1, 5))
        for foreign in (True, 0.5, "1"):
            assert not QQ.contains(foreign) and not PrimeField(5).contains(foreign)
        assert not PrimeField(5).contains(2) and not PrimeField(5).contains(Fraction(1, 3))

    @pytest.mark.parametrize("foreign", [2, PFElement(1, 7), True],
                             ids=["int", "other_prime", "bool"])
    def test_scale_refuses_scalars_outside_gf5(self, foreign):
        gf5 = PrimeField(5)
        with pytest.raises(FieldMismatch):
            AlgebraContext(loop_with_exit(), gf5).vertex("v").scale(foreign)
        with pytest.raises(FieldMismatch):
            DirectSum((GradedMatrixAlgebra("field", 1, (0,), base=gf5),)).unit(0, 0, 0).scale(foreign)
        with pytest.raises(FieldMismatch):
            LaurentPoly.constant(gf5.one, 1, gf5).scale(foreign)

    def test_div_is_exact_and_an_int_when_integral(self):
        for a, b, q in ((6, 3, 2), (-6, 3, -2), (6, -4, Fraction(-3, 2)), (0, 5, 0),
                        (-1, 2, Fraction(-1, 2)), (Fraction(2, 3), 4, Fraction(1, 6)),
                        (Fraction(1, 2), Fraction(1, 4), 2), (3, Fraction(1, 3), 9)):
            got = QQ.div(a, b)
            assert got == q
            assert type(got) is (int if q == int(q) else Fraction)

    def test_div_by_zero(self):
        for b in (0, Fraction(0)):
            with pytest.raises(DivisionByZero):
                QQ.div(1, b)
        with pytest.raises(DivisionByZero):
            PrimeField(5).div(PFElement(1, 5), PFElement(0, 5))

    @given(a=rationals, b=rationals)
    def test_div_inverts_mul(self, a, b):
        if b:
            q = QQ.div(a, b)
            assert q * b == a and type(q) is (int if q.denominator == 1 else Fraction)

    def test_prime_field_div(self):
        gf5 = PrimeField(5)
        assert gf5.div(PFElement(3, 5), PFElement(4, 5)) * PFElement(4, 5) == PFElement(3, 5)


def _coeffs_are_ints(values) -> bool:
    return all(type(c) is int for c in values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_integer_elements_keep_int_coefficients(seed):
    # sums, products and stars of integer combinations never turn into Fractions
    rng = random.Random(seed)
    ctx = AlgebraContext(random_object(rng) if seed % 2 else loop_with_exit(), QQ)
    x = random_element(ctx, rng, max_terms=5)
    y = random_element(ctx, rng, max_terms=5)
    for z in (x, y, x + y, x - y, x * y, y * x * y, x.star(), (x * y).star(), ctx.unit()):
        assert _coeffs_are_ints(z.terms.values()), z


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["field", "laurent"]),
       combos=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2),
                                 st.integers(-3, 3)), min_size=2, max_size=8))
def test_integer_matrices_keep_int_coefficients(kind, combos):
    alg = GradedMatrixAlgebra(kind, 3, (0, 1, 1), period=2 if kind == "laurent" else None)
    s = DirectSum((alg,), QQ)
    x = y = s.zero()
    for n, (i, j, k, c) in enumerate(combos):
        unit = s.unit(0, i, j, k if kind == "laurent" else 0).scale(QQ.from_int(c))
        if n % 2:
            x = x + unit
        else:
            y = y + unit
    for z in (x + y, x - y, x * y, y * x * y, x.star(), (x * y).star()):
        assert _coeffs_are_ints(z.terms.values()), z


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
        assert _coeffs_are_ints(a for _, a in (f * g - f).star().terms)

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


def _src_trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_field_div_is_the_only_division():
    # `/` on two ints gives a float, so the package divides only through Field.div
    found = [f"{name}:{node.lineno}" for name, tree in _src_trees() if name != "scalars.py"
             for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert found == []


def test_fractions_is_imported_only_by_scalars():
    found = [f"{name}:{node.lineno}" for name, tree in _src_trees() if name != "scalars.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)]
    assert found == []
