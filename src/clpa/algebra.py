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

An element keeps its terms as a dict from normal monomial to nonzero
coefficient, the storage it shares with :mod:`clpa.gradedmat` through
:class:`clpa._sparse.SparseElement`; only printing sorts the terms.

Raw input (``monomial``, parsed expressions) is normalised by
:meth:`AlgebraContext.from_raw`.  The generators are built in normal form
directly: a vertex, an edge, a ghost edge, a path and the unit are sums of
distinct monomials p q* with p or q trivial, and a monomial needs both sides
nonempty to be reducible.  Arithmetic on elements keeps normal form by
construction: a sum of normal combinations is normal; the star
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

from typing import Iterable, Mapping, Optional

from ._record import Record
from ._sparse import SparseElement, add_term
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
            g.make_path((e,), v)  # v emits e
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

    def monomial(self, p: Path, q: Path, coeff: Optional[Scalar] = None) -> "AlgebraElement":
        g = self.graph
        for path in (p, q):
            g.make_path(path.edges, path.source)
        if g.path_range(p) != g.path_range(q):
            raise ValueError(f"paths {p} and {q} have different ranges")
        c = self.field.one if coeff is None else coeff
        return self.from_raw([(c, Monomial(p, q))])

    # The generators below are sums of distinct monomials p q* with p or q
    # trivial: normal, since a reducible monomial has both sides nonempty.

    def _one_term(self, p: Path, q: Path) -> "AlgebraElement":
        return AlgebraElement(self, {Monomial(p, q): self.field.one})

    def vertex(self, v: str) -> "AlgebraElement":
        p = self.graph.make_path((), v)
        return self._one_term(p, p)

    def edge(self, e: str) -> "AlgebraElement":
        return self.path_element([e])

    def ghost(self, e: str) -> "AlgebraElement":
        return self.path_element([e]).star()

    def path_element(self, edge_ids: Iterable[str]) -> "AlgebraElement":
        p = self.graph.make_path(edge_ids)
        return self._one_term(p, Path(self.graph.path_range(p)))

    def unit(self) -> "AlgebraElement":
        """The identity: the sum of all vertices (the graph is finite)."""
        one = self.field.one
        return AlgebraElement(self, {Monomial(Path(v), Path(v)): one for v in self.graph.vertices})

    def from_raw(self, terms: Iterable[tuple]) -> "AlgebraElement":
        """Normal form of a raw combination of (coefficient, monomial) pairs."""
        out: dict = {}
        terms = list(terms)
        foreign = [c for c, _ in terms if not self.field.contains(c)]
        if foreign:
            raise FieldMismatch(f"coefficient {foreign[0]!r} is not in {self.field!r}")
        self._rewrite_into(out, [(m, c) for c, m in terms if c])
        return AlgebraElement(self, out)

    def _rewrite_into(self, out: dict, stack: list) -> None:
        """Add the normal form of the (monomial, nonzero coefficient) pairs to ``out``."""
        while stack:
            m, c = stack.pop()
            v = self._reducible_at(m)
            if v is None:
                add_term(out, m, c)
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


class AlgebraElement(SparseElement, Record):
    """An element in normal form: ``terms`` maps normal monomials to nonzero
    coefficients.  The dict is unordered; printing sorts it by monomial.
    Sums, scaling, equality, hashing and the operand check are
    :class:`SparseElement`'s."""

    __slots__ = ("ctx", "terms")
    ctx: AlgebraContext
    terms: dict

    def __init__(self, ctx: AlgebraContext, terms: dict):
        _set_elem_ctx(self, ctx)
        _set_elem_terms(self, terms)

    _field = property(lambda self: self.ctx.field)
    _mismatch = ContextMismatch, "elements live in different algebra contexts"

    def _like(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.ctx, terms)

    def __mul__(self, other):
        # (p q*)(r s*) is p t s* if r = q t, p (s t)* if q = r t, and 0 otherwise.
        # For nonempty t it ends as r s* or p q* does, so it is normal; only
        # the critical q = r products p s* are rewritten.
        self._check(other)
        out: dict = {}
        critical = []
        for m1, c1 in self.terms.items():
            lp, p, ps, lq, q, qs = m1
            for m2, c2 in other.terms.items():
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
                add_term(out, prod, c1 * c2)
        if critical:
            self.ctx._rewrite_into(out, critical)
        return AlgebraElement(self.ctx, out)

    def star(self) -> "AlgebraElement":
        """The involution: termwise swap of p and q (the field involution is the identity).

        Swapping keeps each monomial normal and distinct.
        """
        return AlgebraElement(self.ctx, {m.star(): c for m, c in self.terms.items()})

    def support(self) -> tuple:
        """(left, right): the sources of the p and of the q over the terms p q*.

        (p q*)(r s*) = 0 unless s(q) = s(r), so x y = 0 whenever the right
        support of x and the left support of y are disjoint.
        """
        terms = self.terms
        return {m[2] for m in terms}, {m[5] for m in terms}

    def degree_components(self) -> dict:
        out: dict = {}
        for m, c in self.terms.items():
            out.setdefault(m[0] - m[3], {})[m] = c
        return {d: AlgebraElement(self.ctx, part) for d, part in sorted(out.items())}

    def __str__(self):
        if not self.terms:
            return "0"
        one = self.ctx.field.one
        return " + ".join(str(m) if c == one else f"{c} * {m}"
                          for m, c in sorted(self.terms.items()))


_set_elem_ctx, _set_elem_terms = AlgebraElement.ctx.__set__, AlgebraElement.terms.__set__
# the ctx slot, under the name SparseElement reads
AlgebraElement._parent = AlgebraElement.ctx


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


def path_image(source: str, edges: tuple, images: Mapping, memo: dict):
    """The image of the path with this source and these edges: that of its
    source if trivial, else the product of its edges' images.

    ``memo`` maps edge tuples to images.  The product starts from the longest
    suffix of ``edges`` found there and records each longer suffix, so each
    new suffix costs one product.
    """
    if not edges:
        return images[source]
    # the longest recorded suffix starts at k; with none, k is the last edge
    k = next((k for k in range(len(edges)) if edges[k:] in memo), len(edges) - 1)
    acc = memo.setdefault(edges[k:], images[edges[k]])
    for i in range(k - 1, -1, -1):
        acc = memo[edges[i:]] = images[edges[i]] * acc
    return acc


def evaluate_monomial(m: Monomial, images: Mapping, memo: Optional[dict] = None):
    memo = {} if memo is None else memo
    left = path_image(m[2], m[1], images, memo)
    if not m[3]:
        return left
    return left * path_image(m[5], m[4], images, memo).star()


def evaluate_element(x: AlgebraElement, images: Mapping, memo: Optional[dict] = None):
    """Push an algebra element through a generator assignment.

    The images must form a *-algebra in the element protocol sense: they
    support ``+ - *``, ``star()``, ``scale(a)``, ``is_zero()``, ``zero()``,
    ``degree_components()`` and ``support()``.  ``support()`` returns sets
    ``(left, right)`` such that x y = 0 whenever right(x) and left(y) are
    disjoint.  Equality ``==`` must be equality of elements, so each element
    type keeps a canonical form.  Path images go through ``memo``, a fresh
    table when none is given, and the terms are added pairwise.
    """
    memo = {} if memo is None else memo
    parts = [evaluate_monomial(m, images, memo).scale(c) for m, c in x.terms.items()]
    if not parts:
        return next(iter(images.values())).zero()
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) // 2 * 2:]
    return parts[0]


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
    one = field.one
    images: dict = {}

    def expansion(v: str, head: tuple = ()) -> AlgebraElement:
        # the sum of (head f) f* over the edges f of v: distinct, and normal as
        # v is not in S, so has no special edge
        return AlgebraElement(ctx, {Monomial(g.make_path(head + (f,)), g.make_path([f])): one
                                    for f in g.out_edges(v)})

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
