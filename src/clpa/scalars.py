"""Exact coefficient arithmetic: rationals, prime fields, and Laurent polynomials.

A rational is an ``int`` when it is integral and a ``fractions.Fraction``
only when it is not; a GF(p) scalar is a :class:`PFElement` (p prime, at
most 2**31, so trial division up to sqrt(p) decides primality).
``Field.div`` is the only division, as ``/`` on two ints gives a float.  Any
mix of fields, a plain int with a :class:`PFElement` included, raises
:class:`~clpa.errors.FieldMismatch`.  The field involution is the identity.

A Laurent polynomial carries an intrinsic *period* ``n``: the generator ``t``
stands for a degree-``n`` homogeneous element, so the term ``a*t^k`` is
homogeneous of degree ``k*n``.  Arithmetic across periods is an error, never
a coercion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union

from ._record import Record
from .errors import DivisionByZero, FieldMismatch, PeriodMismatch


def _is_prime(n: int) -> bool:
    # trial division by 2 and the odd d <= sqrt(n): at most 23 170 of them up to 2**31
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


class PFElement(Record):
    """An element of GF(p), stored reduced to [0, p)."""

    __slots__ = ("value", "p")
    value: int
    p: int

    def __init__(self, value: int, p: int):
        _set_pf_value(self, value % p)
        _set_pf_p(self, p)

    def __eq__(self, other):
        if other.__class__ is not PFElement:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def _check(self, other: "PFElement") -> "PFElement":
        if not isinstance(other, PFElement):
            raise FieldMismatch(f"cannot combine GF({self.p}) with {type(other).__name__}")
        if other.p != self.p:
            raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
        return other

    def __add__(self, other):
        other = self._check(other)
        return PFElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return PFElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return PFElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.value == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return PFElement(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        if self.value == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return self._check(other) / self

    def __neg__(self):
        return PFElement(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return f"{self.value} mod {self.p}"


# the slots' own setters write past the frozen __setattr__, faster than object.__setattr__
_set_pf_value, _set_pf_p = PFElement.value.__set__, PFElement.p.__set__


Scalar = Union[int, Fraction, PFElement]  # a rational is an int or, if not integral, a Fraction


class RationalField:
    """The field of exact rationals, trivially graded, identity involution."""

    name = "Q"
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return int(n)

    def contains(self, a) -> bool:
        return a.__class__ is int or isinstance(a, Fraction)  # never a bool

    def div(self, a, b):
        """The exact quotient a / b: an int when it is integral."""
        if not b:
            raise DivisionByZero("division by zero in Q")
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(a, b)
            if not r:
                return q
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


class PrimeField(Record):
    """GF(p) for a prime p <= 2**31."""

    p: int
    name: str = ""

    def __post_init__(self):
        if self.p > 2**31:
            raise ValueError(f"prime field modulus {self.p} exceeds 2**31")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "name", f"GF({self.p})")

    def from_int(self, n: int) -> PFElement:
        return PFElement(n, self.p)

    @property
    def zero(self) -> PFElement:
        return PFElement(0, self.p)

    @property
    def one(self) -> PFElement:
        return PFElement(1, self.p)

    def contains(self, a) -> bool:
        return isinstance(a, PFElement) and a.p == self.p

    def div(self, a: PFElement, b: PFElement) -> PFElement:
        return a / b

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

Field = Union[RationalField, PrimeField]


def field_from_spec(spec: str) -> Field:
    """Build a field from a CLI-style spec: ``q`` or ``gf:p``."""
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rational"):
        return QQ
    m = re.fullmatch(r"gf:(\d+)", spec)
    if m:
        return PrimeField(int(m.group(1)))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'gf:p')")


class LaurentPoly(Record):
    """A Laurent polynomial sum(a_k t^k) whose generator t carries degree ``period``.

    ``terms`` maps exponents to nonzero scalars; zero coefficients are never
    stored.  Stored as a sorted tuple of (exponent, coefficient) pairs so
    values are hashable and canonically comparable.
    """

    period: int
    terms: tuple
    field: Field

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        cleaned = tuple(sorted((k, a) for k, a in dict(self.terms).items() if a))
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def from_dict(cls, period: int, coeffs: dict, field: Field) -> "LaurentPoly":
        return cls(period, tuple(coeffs.items()), field)

    @classmethod
    def zero_poly(cls, period: int, field: Field) -> "LaurentPoly":
        return cls(period, (), field)

    @classmethod
    def constant(cls, a: Scalar, period: int, field: Field) -> "LaurentPoly":
        return cls(period, ((0, a),), field)

    @classmethod
    def t_power(cls, k: int, period: int, field: Field) -> "LaurentPoly":
        return cls(period, ((k, field.one),), field)

    def _check(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.period != self.period:
            raise PeriodMismatch(f"period {self.period} vs {other.period}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def coeff(self, k: int) -> Scalar:
        for e, a in self.terms:
            if e == k:
                return a
        return self.field.zero

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, a in other.terms:
            out[k] = out.get(k, self.field.zero) + a
        return LaurentPoly.from_dict(self.period, out, self.field)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, a in other.terms:
            out[k] = out.get(k, self.field.zero) - a
        return LaurentPoly.from_dict(self.period, out, self.field)

    def __neg__(self):
        return LaurentPoly(self.period, tuple((k, -a) for k, a in self.terms), self.field)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        for k1, a1 in self.terms:
            for k2, a2 in other.terms:
                k = k1 + k2
                out[k] = out.get(k, self.field.zero) + a1 * a2
        return LaurentPoly.from_dict(self.period, out, self.field)

    def scale(self, a: Scalar) -> "LaurentPoly":
        if not self.field.contains(a):
            raise FieldMismatch(f"scalar {a!r} is not in {self.field!r}")
        return LaurentPoly(self.period, tuple((k, a * c) for k, c in self.terms), self.field)

    def star(self) -> "LaurentPoly":
        """Involution: degree reversal t^k -> t^-k (the field involution is the identity)."""
        return LaurentPoly(self.period, tuple((-k, a) for k, a in self.terms), self.field)

    def support(self) -> tuple:
        """(left, right): one key on both sides; the ring is commutative, so
        no product is zero by support."""
        return {0}, {0}

    def is_zero(self) -> bool:
        return not self.terms

    def zero(self) -> "LaurentPoly":
        return LaurentPoly.zero_poly(self.period, self.field)

    def degree_components(self) -> dict:
        """Split into homogeneous parts, keyed by degree k*period."""
        return {
            k * self.period: LaurentPoly(self.period, ((k, a),), self.field)
            for k, a in self.terms
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, a in self.terms:
            if k == 0:
                parts.append(str(a))
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                one = self.field.one
                parts.append(tpow if a == one else f"{a}*{tpow}")
        return " + ".join(parts)
