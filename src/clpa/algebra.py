"""Exact element arithmetic in the Cohn-Leavitt algebra of a finite object.

Elements are scalar combinations of monomials p|q (meaning p q* for paths
p, q with a common range).  A terminating rewriting system reduces every
combination to a canonical normal form: the monomial p|q is *irreducible*
unless p and q are both nonempty and both end in the distinguished special
edge of a vertex of S, in which case one application of the full relation
at that vertex replaces it by a strictly smaller combination.

A :class:`Monomial` is the flat tuple (len p, p.edges, s(p), len q,
q.edges, s(q)).  Comparing it orders monomials by (length, edges, source)
of p, then of q, which is the canonical term order; hashing, equality and
sorting all run on the tuple, and the arithmetic reads its fields by index.

Raw input (``monomial``, ``unit``, parsed expressions) is normalised by
:meth:`AlgebraContext.from_raw`.  Arithmetic on elements keeps normal form
by construction instead: a sum of normal combinations is normal; the star
of a normal monomial is normal, because reducibility is symmetric in p and
q; and the product of normal p q* and r s* is normal unless q = r, since
when one of q, r is a proper prefix of the other the product ends exactly
as r s* or as p q* does.  Only those critical q = r products, p s*, go
through the rewriting loop.

The special edge of an S-vertex may be chosen per context; by default it is
the lexicographically smallest edge the vertex emits.  The choice is recorded
in the context, so normal forms are reproducible and contexts with different
choices are different (mixing their elements raises ``ContextMismatch``).
:func:`clpa.monoid.exit_cycle_chain` picks an exit edge, which keeps its
cycle projections single monomials.  That irreducible monomials are linearly
independent, for any choice, is cited, not proved here
(Alahmadi-Alsulami-Jain-Zelmanov, J. Algebra Appl. 2012; Abrams-Ara-Siles
Molina, Leavitt Path Algebras, LNM 2191); the generator maps of
:mod:`clpa.classify` are proved isomorphisms without it.

All values are immutable and all operations pure.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, Optional

from ._record import Record
from .errors import ContextMismatch, FieldMismatch, IncompleteMap
from .graphs import CLObject, Graph, Path
from .scalars import QQ, Field, Scalar


class Monomial(tuple):
    """The product p q* of two paths with r(p) = r(q), laid out as its own sort key."""

    __slots__ = ()

    def __new__(cls, left: Path, right: Path):
        return _new(cls, (len(left.edges), left.edges, left.source,
                          len(right.edges), right.edges, right.source))

    def __getnewargs__(self):
        return self.left, self.right

    @property
    def left(self) -> Path:
        return Path(self[2], self[1])

    @property
    def right(self) -> Path:
        return Path(self[5], self[4])

    @property
    def degree(self) -> int:
        return self[0] - self[3]

    def star(self) -> "Monomial":
        return _new(Monomial, self[3:] + self[:3])

    def __repr__(self):
        return f"Monomial(left={self.left!r}, right={self.right!r})"

    def __str__(self):
        if not self[3]:
            return str(self.left)
        return f"{self.left}|{self.right}"


# builds a Monomial from its six fields, past the Path-taking constructor
_new = tuple.__new__
# the sort key of a (monomial, coefficient) term
_first = itemgetter(0)


class AlgebraContext(Record):
    """A Cohn-Leavitt algebra: the object (E, S), the field, and the special edges.

    ``special`` gives (vertex, edge) pairs that choose the special edge at
    some S-vertices; every S-vertex not named gets its smallest edge.
    ``special`` is then normalised to one pair per S-vertex, in vertex order.
    """

    obj: CLObject
    field: Field = QQ
    special: tuple = ()

    def __post_init__(self):
        g, s_set = self.obj.graph, self.obj.s_set
        chosen: dict = {}
        for v, e in self.special:
            if v not in s_set:
                raise ValueError(f"special edge given at {v!r}, which is not in S")
            if e not in g.out_edges(v):
                raise ValueError(f"{v!r} does not emit the special edge {e!r}")
            if v in chosen:
                raise ValueError(f"special edge given twice at {v!r}")
            chosen[v] = e
        for v in s_set:
            chosen.setdefault(v, min(g.out_edges(v)))
        object.__setattr__(self, "special", tuple(sorted(chosen.items())))

    @property
    def graph(self) -> Graph:
        return self.obj.graph

    def special_edge(self, v: str) -> Optional[str]:
        for w, e in self.special:
            if w == v:
                return e
        return None

    # -- element constructors ------------------------------------------------

    def validate_path(self, p: Path) -> Path:
        g = self.graph
        if p.source not in g.vertices:
            raise ValueError(f"unknown vertex {p.source!r}")
        at = p.source
        for e in p.edges:
            if not g.has_edge(e) or g.src(e) != at:
                raise ValueError(f"invalid path {p}: edge {e!r} does not continue it")
            at = g.rng(e)
        return p

    def monomial(self, p: Path, q: Path, coeff: Optional[Scalar] = None) -> "AlgebraElement":
        self.validate_path(p)
        self.validate_path(q)
        g = self.graph
        if g.path_range(p) != g.path_range(q):
            raise ValueError(f"paths {p} and {q} have different ranges")
        c = self.field.one if coeff is None else coeff
        return self.from_raw([(c, Monomial(p, q))])

    def vertex(self, v: str) -> "AlgebraElement":
        return self.monomial(Path(v), Path(v))

    def edge(self, e: str) -> "AlgebraElement":
        g = self.graph
        return self.monomial(g.make_path([e]), Path(g.rng(e)))

    def ghost(self, e: str) -> "AlgebraElement":
        g = self.graph
        return self.monomial(Path(g.rng(e)), g.make_path([e]))

    def path_element(self, edge_ids: Iterable[str]) -> "AlgebraElement":
        p = self.graph.make_path(edge_ids)
        return self.monomial(p, Path(self.graph.path_range(p)))

    def zero_element(self) -> "AlgebraElement":
        return AlgebraElement(self, ())

    def unit(self) -> "AlgebraElement":
        """The identity: the sum of all vertices (the graph is finite)."""
        return self.from_raw(
            [(self.field.one, Monomial(Path(v), Path(v))) for v in self.graph.vertices]
        )

    def from_raw(self, terms: Iterable[tuple]) -> "AlgebraElement":
        """Normal form of a raw combination of (coefficient, monomial) pairs."""
        out: dict = {}
        terms = list(terms)
        foreign = [c for c, _ in terms if not self.field.contains(c)]
        if foreign:
            raise FieldMismatch(f"coefficient {foreign[0]!r} is not in {self.field!r}")
        self._rewrite_into(out, [(m, c) for c, m in terms if c])
        return _element(self, out)

    def _rewrite_into(self, out: dict, stack: list) -> None:
        """Add the normal form of the (monomial, nonzero coefficient) pairs to ``out``."""
        while stack:
            m, c = stack.pop()
            v = self._reducible_at(m)
            if v is None:
                _add_term(out, m, c)
                continue
            lp, p, ps, lq, q, qs = m
            p1, q1 = p[:-1], q[:-1]
            stack.append((_new(Monomial, (lp - 1, p1, ps, lq - 1, q1, qs)), c))
            gamma = p[-1]
            for e in self.graph.out_edges(v):
                if e != gamma:
                    stack.append((_new(Monomial, (lp, p1 + (e,), ps, lq, q1 + (e,), qs)), -c))

    def _reducible_at(self, m: Monomial) -> Optional[str]:
        # reducible iff p and q both end in the special edge of an S-vertex
        if not m[0] or not m[3]:
            return None
        last = m[1][-1]
        if m[4][-1] != last:
            return None
        v = self.graph.src(last)
        if self.special_edge(v) == last:
            return v
        return None

    def is_normal(self, m: Monomial) -> bool:
        return self._reducible_at(m) is None


def _add_term(out: dict, m: Monomial, c: Scalar) -> None:
    """Add c·m to the combination ``out``, dropping the term if it cancels."""
    prev = out.get(m)
    if prev is None:
        out[m] = c
    else:
        acc = prev + c
        if acc:
            out[m] = acc
        else:
            del out[m]


def _element(ctx: AlgebraContext, out: dict) -> "AlgebraElement":
    """The element of a dict of normal monomials with nonzero coefficients."""
    if len(out) < 2:
        return AlgebraElement(ctx, tuple(out.items()))
    return AlgebraElement(ctx, tuple(sorted(out.items(), key=_first)))


class AlgebraElement(Record):
    """An element in canonical normal form: sorted (monomial, coefficient) terms."""

    __slots__ = ("ctx", "terms")
    ctx: AlgebraContext
    terms: tuple

    def __init__(self, ctx: AlgebraContext, terms: tuple):
        _set_elem_ctx(self, ctx)
        _set_elem_terms(self, terms)

    def __eq__(self, other):
        if other.__class__ is not AlgebraElement:
            return NotImplemented
        return self.terms == other.terms and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.ctx, self.terms))

    def _check(self, other: "AlgebraElement") -> None:
        if other.__class__ is AlgebraElement and other.ctx is self.ctx:
            return
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected AlgebraElement, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatch("elements live in different algebra contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms:
            _add_term(out, m, c)
        return _element(self.ctx, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms:
            _add_term(out, m, -c)
        return _element(self.ctx, out)

    def __neg__(self):
        return AlgebraElement(self.ctx, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        # (p q*)(r s*) is p t s* if r = q t, p (s t)* if q = r t, and 0 otherwise.
        # For nonempty t it ends as r s* or p q* does, so it is normal; only
        # the critical q = r products p s* are rewritten.
        self._check(other)
        out: dict = {}
        critical = []
        for m1, c1 in self.terms:
            lp, p, ps, lq, q, qs = m1
            for m2, c2 in other.terms:
                if m2[2] != qs:
                    continue
                lr, r = m2[0], m2[1]
                if lq < lr:
                    if r[:lq] != q:
                        continue
                    prod = _new(Monomial, (lp + lr - lq, p + r[lq:], ps, m2[3], m2[4], m2[5]))
                elif lr < lq:
                    if q[:lr] != r:
                        continue
                    prod = _new(Monomial, (lp, p, ps, m2[3] + lq - lr, m2[4] + q[lr:], m2[5]))
                else:
                    if q == r:
                        critical.append((_new(Monomial, (lp, p, ps, m2[3], m2[4], m2[5])), c1 * c2))
                    continue
                _add_term(out, prod, c1 * c2)
        if critical:
            self.ctx._rewrite_into(out, critical)
        return _element(self.ctx, out)

    def scale(self, a: Scalar) -> "AlgebraElement":
        if not self.ctx.field.contains(a):
            raise ContextMismatch(f"scalar {a!r} is not in {self.ctx.field!r}")
        if not a:
            return self.ctx.zero_element()
        return AlgebraElement(self.ctx, tuple((m, a * c) for m, c in self.terms))

    def star(self) -> "AlgebraElement":
        """The involution: termwise swap of p and q (the field involution is the identity).

        Swapping keeps each monomial normal and distinct, so only the order changes.
        """
        return AlgebraElement(self.ctx, tuple(sorted(
            [(m.star(), c) for m, c in self.terms], key=_first)))

    def support(self) -> tuple:
        """(left, right): the sources of the p and of the q over the terms p q*.

        (p q*)(r s*) = 0 unless s(q) = s(r), so x y = 0 whenever the right
        support of x and the left support of y are disjoint.
        """
        terms = self.terms
        return {m[2] for m, _ in terms}, {m[5] for m, _ in terms}

    def is_zero(self) -> bool:
        return not self.terms

    def zero(self) -> "AlgebraElement":
        return self.ctx.zero_element()

    def degree_components(self) -> dict:
        out: dict = {}
        for m, c in self.terms:
            out.setdefault(m[0] - m[3], []).append((m, c))
        return {
            d: AlgebraElement(self.ctx, tuple(parts)) for d, parts in sorted(out.items())
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        one = self.ctx.field.one
        for m, c in self.terms:
            parts.append(str(m) if c == one else f"{c} * {m}")
        return " + ".join(parts)


_set_elem_ctx, _set_elem_terms = AlgebraElement.ctx.__set__, AlgebraElement.terms.__set__


def is_idempotent(x: AlgebraElement) -> bool:
    return x * x == x


# -- generator maps ----------------------------------------------------------


class GeneratorMapReport(Record):
    """Outcome of checking a generator assignment against the algebra axioms."""

    failures: tuple
    degree_failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures and not self.degree_failures


def path_image(source: str, edges: tuple, images: Mapping):
    """The image of the path with this source and these edges: that of its
    source if trivial, else the product of its edges' images."""
    if not edges:
        return images[source]
    acc = images[edges[0]]
    for e in edges[1:]:
        acc = acc * images[e]
    return acc


def evaluate_monomial(m: Monomial, images: Mapping):
    left = path_image(m[2], m[1], images)
    if not m[3]:
        return left
    return left * path_image(m[5], m[4], images).star()


def evaluate_element(x: AlgebraElement, images: Mapping):
    """Push an algebra element through a generator assignment.

    The images must form a *-algebra in the element protocol sense: they
    support ``+ - *``, ``star()``, ``scale(a)``, ``is_zero()``, ``zero()``,
    ``degree_components()`` and ``support()``.  ``support()`` returns sets
    ``(left, right)`` such that x y = 0 whenever right(x) and left(y) are
    disjoint.  Equality ``==`` must be equality of elements, so each element
    type keeps a canonical form.
    """
    total = None
    for m, c in x.terms:
        term = evaluate_monomial(m, images).scale(c)
        total = term if total is None else total + term
    if total is None:
        return next(iter(images.values())).zero()
    return total


def _meeting_pairs(names: list, firsts: Mapping, seconds: Mapping):
    """The pairs (x, y) of a double loop over ``names`` whose product can be nonzero.

    ``firsts[x]`` and ``seconds[y]`` are the supports of the two factors; a
    pair is kept when x == y or the right support of x meets the left
    support of y.  The kept pairs come in double-loop order.
    """
    holders: dict = {}
    for j, y in enumerate(names):
        for k in seconds[y][0]:
            holders.setdefault(k, []).append(j)
    for i, x in enumerate(names):
        for j in sorted({i}.union(*(holders.get(k, ()) for k in firsts[x][1]))):
            yield x, names[j]


def edge_projections(graph: Graph, v: str, images: Mapping):
    """The sum of phi(e) phi(e)* over the edges e that v emits (v must emit one)."""
    first, *rest = (images[e] * images[e].star() for e in graph.out_edges(v))
    return sum(rest, first)


def check_generator_map(obj: CLObject, images: Mapping) -> GeneratorMapReport:
    """Check every axiom instance of the object at the given images.

    ``images`` maps every vertex id and edge id to a target element; ghost
    images are the involutions of the edge images.  An empty failure list
    certifies a *-homomorphism on generators.  The degree check demands each
    vertex image be homogeneous of degree 0 and each edge image of degree 1.

    Evaluated: (V*) v* = v at every vertex, (E1), (CK1), (SCK2), and (V)
    v v = v only at the vertices that are neither a range nor in S.  The
    other instances are proved from these, as star is an involutive
    anti-homomorphism of every target:

    * (E2) r(e) e* = e* and e* s(e) = e* are the stars of the two (E1)
      instances, by (V*) at r(e) and s(e).
    * (V) at r = r(e): r = e* e by (CK1), so r r = e* (e r) = e* e = r by
      (CK1) and (E1).
    * (V) at v in S: v = sum of e e* over the edges of v by (SCK2), so v v =
      sum over e, f of e (e* f) f* = sum over e of e r(e) e* = v by (CK1)
      and (E1).

    The v != w instances of (V) and the e != f instances of (CK1) claim a
    product is 0.  They are evaluated only where the right support of the
    first factor meets the left support of the second: elsewhere the product
    is 0 by the multiplication rule itself (e_ij e_kl = 0 for j != k, and
    q* r = q* s(q) s(r) r = 0 for s(q) != s(r)), so a skipped instance is
    proved, not sampled.  So that no skipped product hides two different
    algebras, the images must first all have the same ``zero()``; images
    that do not are reported as failures and nothing else is checked.
    """
    g = obj.graph
    verts = sorted(g.vertices)
    edges = sorted(g.edge_ids())
    missing = [x for x in verts + edges if x not in images]
    if missing:
        raise IncompleteMap(f"no image given for: {missing}")
    if verts:
        zero = images[verts[0]].zero()
        strangers = tuple(
            f"image of {x} lies in another algebra than the image of {verts[0]}"
            for x in verts + edges if images[x].zero() != zero)
        if strangers:
            return GeneratorMapReport(strangers, ())

    failures = []

    def expect_zero(label: str, value):
        if not value.is_zero():
            failures.append(f"{label} is nonzero: {value}")

    def expect_equal(label: str, got, want):
        if got != want:
            failures.append(f"{label}: {got} != {want}")

    ghosts = {e: images[e].star() for e in edges}
    supports = {x: images[x].support() for x in verts + edges}
    ghost_supports = {e: ghosts[e].support() for e in edges}
    implied = obj.s_set.union(map(g.rng, edges))
    for v in verts:
        expect_equal(f"(V*) {v}*={v}", images[v].star(), images[v])
    for v, w in _meeting_pairs(verts, supports, supports):
        if v != w:
            expect_zero(f"(V) {v}*{w}=0", images[v] * images[w])
        elif v not in implied:
            expect_equal(f"(V) {v}*{v}={v}", images[v] * images[v], images[v])
    for e in edges:
        img = images[e]
        expect_equal(f"(E1) s({e}){e}={e}", images[g.src(e)] * img, img)
        expect_equal(f"(E1) {e}r({e})={e}", img * images[g.rng(e)], img)
    for e, f in _meeting_pairs(edges, ghost_supports, supports):
        prod = ghosts[e] * images[f]
        if e == f:
            expect_equal(f"(CK1) {e}*{e}=r({e})", prod, images[g.rng(e)])
        else:
            expect_zero(f"(CK1) {e}*{f}=0", prod)
    for v in sorted(obj.s_set):
        expect_equal(f"(SCK2) {v}=sum ee*", edge_projections(g, v, images), images[v])

    degree_failures = []
    for v in verts:
        if not set(images[v].degree_components()) <= {0}:
            degree_failures.append(f"vertex {v}: image not homogeneous of degree 0")
    for e in edges:
        if not set(images[e].degree_components()) <= {1}:
            degree_failures.append(f"edge {e}: image not homogeneous of degree 1")

    return GeneratorMapReport(tuple(failures), tuple(degree_failures))


# -- the relative graph's generator images ------------------------------------


def relative_generator_images(
    obj: CLObject, field: Field = QQ
) -> tuple:
    """The relative graph of (E, S) plus its canonical generator images.

    Returns ``(rel, ctx, images)`` where ``images`` assigns to every vertex
    and edge of the relative graph an element of the Cohn-Leavitt algebra of
    (E, S): ordinary vertices map to themselves or to their full-relation
    expansion, each new primed sink v' to v minus that expansion, and edges
    map to themselves corrected on the right by the image of their range.
    """
    rel = obj.relative
    ctx = AlgebraContext(obj, field)
    g = obj.graph
    unprimed = sorted(rel.primed_vertex)
    images: dict = {}

    def expansion(v: str, head: tuple = ()) -> AlgebraElement:
        # the sum of (head f) f* over the edges f of v, each term normal as v is not in S
        return ctx.from_raw([(ctx.field.one, Monomial(g.make_path(head + (f,)), g.make_path([f])))
                             for f in g.out_edges(v)])

    for v in sorted(g.vertices):
        images[v] = expansion(v) if v in unprimed else ctx.vertex(v)
    for v in unprimed:
        images[rel.primed_vertex[v]] = ctx.vertex(v) - expansion(v)
    for e in sorted(g.edge_ids()):
        # phi(e) = e phi(r(e)) in normal form: e, or the sum of (e f) f* when r(e) is unprimed
        if e in rel.primed_edge:
            images[e] = expansion(g.rng(e), (e,))
            images[rel.primed_edge[e]] = ctx.edge(e) - images[e]
        else:
            images[e] = ctx.edge(e)
    return rel, ctx, images
