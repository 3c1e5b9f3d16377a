"""Sparse elements: the arithmetic that algebra elements and graded matrices share.

An element keeps its parent algebra and ``terms``, a dict from basis keys
(normal monomials, or matrix units) to nonzero coefficients.  Sums, scaling,
the zero test, equality and hashing read nothing else, so they are written
once here; products, the involution, supports and degrees depend on the
basis and stay with each class.  The dict is unordered: only printing sorts.
"""

from .errors import FieldMismatch


def add_term(out: dict, key, c) -> None:
    """Add c·key to the combination ``out``, dropping the term if it cancels."""
    prev = out.get(key)
    if prev is None:
        out[key] = c
    else:
        acc = prev + c
        if acc:
            out[key] = acc
        else:
            del out[key]


class SparseElement:
    """A subclass keeps its parent under ``_parent`` and provides ``_field``,
    the parent's coefficient field; ``_like(terms)``, the element of the same
    parent with these terms, built unchecked; and ``_mismatch``, the error
    class and message for an operand of another parent."""

    __slots__ = ()

    def _check(self, other) -> None:
        if other.__class__ is self.__class__ and other._parent is self._parent:
            return
        if not isinstance(other, self.__class__):
            raise TypeError(f"expected {self.__class__.__name__}, got {type(other).__name__}")
        if other._parent != self._parent:
            error, message = self._mismatch
            raise error(message)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and self._parent == other._parent

    def __hash__(self):
        return hash((self._parent, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, -c)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, a):
        field = self._field
        if not field.contains(a):
            raise FieldMismatch(f"scalar {a!r} is not in {field!r}")
        if not a:
            return self._like({})
        return self._like({key: a * c for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def zero(self):
        return self._like({})
