"""Parser for element expressions.

The grammar has no nesting, so one pattern, ``_TERM``, built from pieces named
after its lines, reads a whole term::

    EXPR  := ['-'] TERM (('+' | '-') TERM)*
    TERM  := [SCALAR '*'] MONO
    SCALAR:= INT ['/' INT]
    MONO  := PATH ['|' PATH]
    PATH  := id ('.' id)*

:func:`parse_expression` reads every term before it looks up any id.  A syntax
error quotes the first non-blank character from which no term continues, or
names the end of the text; a graph error gives the offending id's position.
A lone vertex id is the trivial path at that vertex; ``p|q`` denotes p q*.
Ids holding an operator character cannot be referenced.  No two optional
blank runs stand side by side in ``_TERM``, so matching is linear.
"""

from __future__ import annotations

import re

from .algebra import AlgebraContext, AlgebraElement, Monomial
from .errors import GraphFormatError, ParseError
from .graphs import Path

_ID = re.compile(r"[^\s+\-*/|.~]+")
_PATH = rf"{_ID.pattern}(?:\s*\.\s*{_ID.pattern})*"
_SCALAR = r"(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*\*\s*"
_MONO = rf"(?P<left>{_PATH})(?:\s*\|\s*(?P<right>{_PATH}))?"
_TERM = re.compile(rf"\s*(?:(?P<sign>[+-])\s*)?(?P<term>(?:{_SCALAR})?{_MONO})?")
_BLANKS = re.compile(r"\s*")


def _path(text: str, m: re.Match, group: str, ctx: AlgebraContext) -> Path:
    g = ctx.graph
    ids = list(_ID.finditer(text, m.start(group), m.end(group)))
    if len(ids) == 1 and ids[0][0] in g.vertices:
        return Path(ids[0][0])
    try:
        return g.make_path(t[0] for t in ids)
    except GraphFormatError as err:
        raise ParseError(str(err), ids[err.index].start()) from err


def _term(text: str, m: re.Match, ctx: AlgebraContext) -> tuple:
    field, g = ctx.field, ctx.graph
    coeff = field.from_int(-1 if m["sign"] == "-" else 1)
    if m["num"]:
        coeff = coeff * field.from_int(int(m["num"]))
    if m["den"]:
        den = field.from_int(int(m["den"]))
        if not den:
            raise ParseError("zero denominator", m.start("den"))
        coeff = field.div(coeff, den)
    left = _path(text, m, "left", ctx)
    right = _path(text, m, "right", ctx) if m["right"] else Path(g.path_range(left))
    if g.path_range(left) != g.path_range(right):
        last = right.edges[-1] if right.edges else right.source
        raise ParseError(f"paths {left} and {right} have different ranges",
                         m.end("right") - len(last))
    return coeff, Monomial(left, right)


def parse_expression(text: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse an element expression and return its normal form."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    terms, pos = [], 0
    while _BLANKS.match(text, pos).end() < len(text):
        m = _TERM.match(text, pos)
        # only the first term goes unsigned, and it may carry '-' but not '+'
        bad_sign = m["sign"] is None if terms else m["sign"] == "+"
        if bad_sign or m["term"] is None:
            at = _BLANKS.match(text, pos if bad_sign else m.end()).end()
            got = repr(text[at:at + 12]) if at < len(text) else "end of expression"
            raise ParseError(f"unexpected {got}", at)
        terms.append(m)
        pos = m.end()
    return ctx.from_raw([_term(text, m, ctx) for m in terms])
