"""Parser for element expressions.

Grammar::

    EXPR  := ['-'] TERM (('+' | '-') TERM)*
    TERM  := [SCALAR '*'] MONO
    SCALAR:= INT ['/' INT]
    MONO  := PATH ['|' PATH]
    PATH  := id ('.' id)*

A lone vertex id denotes the trivial path at that vertex; ``p|q`` denotes
p q*.  Ids that collide with the operator characters cannot be referenced.
"""

from __future__ import annotations

import re

from ._record import Record
from .algebra import AlgebraContext, AlgebraElement, Monomial
from .errors import ParseError
from .graphs import Path

_TOKEN = re.compile(r"\s*(?:(?P<op>[+\-*/|.])|(?P<atom>[^\s+\-*/|.~]+))")


class _Token(Record):
    kind: str       # "op" | "atom"
    text: str
    pos: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("op"):
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        else:
            tokens.append(_Token("atom", m.group("atom"), m.start("atom")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: AlgebraContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset: int = 0):
        k = self.i + offset
        return self.tokens[k] if k < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> AlgebraElement:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        raw = []
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            sign = -1
        raw.append(self.term(sign))
        while self.peek() is not None:
            op = self.take()
            if op.kind != "op" or op.text not in "+-":
                raise ParseError(f"expected '+' or '-', got {op.text!r}", op.pos)
            raw.append(self.term(-1 if op.text == "-" else 1))
        return self.ctx.from_raw(raw)

    def term(self, sign: int):
        coeff = self.ctx.field.from_int(sign)
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", len(self.text))
        if tok.kind == "atom" and re.fullmatch(r"\d+", tok.text):
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == "op" and nxt.text == "*":
                self.take()
                self.take()
                coeff = coeff * self.ctx.field.from_int(int(tok.text))
            elif (
                nxt is not None and nxt.kind == "op" and nxt.text == "/"
                and self.peek(2) is not None and self.peek(2).kind == "atom"
                and re.fullmatch(r"\d+", self.peek(2).text)
                and self.peek(3) is not None and self.peek(3).kind == "op"
                and self.peek(3).text == "*"
            ):
                num = int(self.take().text)
                self.take()
                den_tok = self.take()
                den = int(den_tok.text)
                self.take()
                field = self.ctx.field
                if not field.from_int(den):
                    raise ParseError("zero denominator", den_tok.pos)
                coeff = field.div(coeff * field.from_int(num), field.from_int(den))
        mono = self.mono()
        return (coeff, mono)

    def mono(self) -> Monomial:
        left = self.path()
        right = None
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "|":
            self.take()
            right = self.path()
        g = self.ctx.graph
        if right is None:
            right = Path(g.path_range(left))
        if g.path_range(left) != g.path_range(right):
            raise ParseError(
                f"paths {left} and {right} have different ranges", self.tokens[self.i - 1].pos
            )
        return Monomial(left, right)

    def path(self) -> Path:
        tok = self.take()
        if tok.kind != "atom":
            raise ParseError(f"expected an id, got {tok.text!r}", tok.pos)
        ids = [tok]
        while (
            self.peek() is not None
            and self.peek().kind == "op"
            and self.peek().text == "."
        ):
            self.take()
            nxt = self.take()
            if nxt.kind != "atom":
                raise ParseError(f"expected an id after '.', got {nxt.text!r}", nxt.pos)
            ids.append(nxt)
        g = self.ctx.graph
        if len(ids) == 1 and ids[0].text in g.vertices:
            return Path(ids[0].text)
        for t in ids:
            if not g.has_edge(t.text):
                kind = "vertex or edge" if len(ids) == 1 else "edge"
                raise ParseError(f"unknown {kind} id {t.text!r}", t.pos)
        for a, b in zip(ids, ids[1:]):
            if g.rng(a.text) != g.src(b.text):
                raise ParseError(
                    f"edges {a.text!r} and {b.text!r} do not compose", b.pos
                )
        return Path(g.src(ids[0].text), tuple(t.text for t in ids))


def parse_expression(text: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse an element expression and return its normal form."""
    return _Parser(text, ctx).parse()
