"""Classification of finite no-exit objects into graded matricial form.

A *no-exit object* is a pair (E, S) where no cycle vertex is a bifurcation
and every cycle vertex lies in S.  Its algebra decomposes into one matrix
block over the base field per sink and per regular vertex outside S, and one
matrix block over a Laurent ring per cycle:

* block size = number of paths ending at the block's target vertex (for a
  cycle, at its distinguished base vertex, which the target may not pass
  through before the end),
* shift vector = the sorted lengths of those paths,
* Laurent period = the cycle length.

``build_generator_map`` realizes the decomposition explicitly: the i-th
enumerated path q_i of a block indexes a matrix dimension, a vertex maps to
the diagonal units of the paths it emits, and an edge e maps to the units
e_{ij} t^k determined by factoring e.q_j as q_i followed by k turns of the
cycle.  Every map is proved a graded *-isomorphism (axioms, injectivity by
graded uniqueness, surjectivity onto matrix units, degrees) before it is
returned; a verification failure is always an implementation bug, never a
valid state, and raises ClassificationBug.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ._record import Record
from .algebra import (
    AlgebraContext,
    AlgebraElement,
    check_generator_map,
    edge_projections,
    evaluate_element,
    path_image,
)
from .errors import ClassificationBug, NotASubgraph, NotNoExitObject
from .gradedmat import DirectSum, GradedMatrix, GradedMatrixAlgebra, MatricialSignature
from .graphs import CLObject, Path, SubobjectSystem, paths_into, subobject_system
from .scalars import QQ, Field


def no_exit_violations(obj: CLObject) -> list:
    """Why the object is not no-exit: empty iff the graph is no-exit and
    every cycle vertex lies in S."""
    g = obj.graph
    return ([f"cycle vertex {v} is a bifurcation (the cycle has an exit)"
             for v in sorted(g.cycle_vertices.intersection(g.bifurcations()))]
            + [f"cycle vertex {v} is not in S" for v in sorted(g.cycle_vertices - obj.s_set)])


class Block(Record):
    """One direct summand: its target in the graph and its enumerated paths."""

    kind: str                     # "sink" | "unrelated" | "cycle"
    target: str                   # the sink / S-complement vertex / cycle base
    paths: tuple                  # all paths into the target, sorted by length
    cycle: Optional[Path] = None

    @property
    def size(self) -> int:
        return len(self.paths)

    @property
    def shifts(self) -> tuple:
        return tuple(len(p) for p in self.paths)

    def algebra(self, base: Field = QQ) -> GradedMatrixAlgebra:
        if self.kind == "cycle":
            return GradedMatrixAlgebra(
                "laurent", self.size, self.shifts, period=self.cycle.length, base=base
            )
        return GradedMatrixAlgebra("field", self.size, self.shifts, base=base)


def blocks_of(obj: CLObject) -> tuple:
    """The block decomposition data of a no-exit object (raw, untranslated)."""
    g = obj.graph
    violations = no_exit_violations(obj)
    if violations:
        raise NotNoExitObject("; ".join(violations))
    out = []
    for v in g.sinks():
        out.append(Block("sink", v, tuple(paths_into(g, v))))
    for v in g.regular_vertices():
        if v not in obj.s_set:
            out.append(Block("unrelated", v, tuple(paths_into(g, v))))
    for c in g.cycles:
        out.append(Block("cycle", c.source, tuple(paths_into(g, c.source)), cycle=c))
    return tuple(out)


def _signature(blocks) -> MatricialSignature:
    return MatricialSignature(
        tuple((b.size, b.shifts) for b in blocks if b.kind != "cycle"),
        tuple((b.size, b.cycle.length, b.shifts) for b in blocks if b.kind == "cycle"),
    )


def classify(obj: CLObject) -> MatricialSignature:
    """The canonical matricial signature of a no-exit object."""
    return _signature(blocks_of(obj))


class GeneratorMap(Record):
    """A verified generator assignment into the direct sum of matrix blocks.

    Its images extend to a graded *-isomorphism from CL(E, S) onto the
    direct sum: :func:`_verify_generator_map` proves the extension a
    homomorphism (axioms), injective (graded uniqueness) and surjective
    (every unit is hit).
    """

    obj: CLObject
    ctx: AlgebraContext
    blocks: tuple
    algebra: DirectSum        # one summand per block, in block order
    images: dict

    # the path images, by edge tuple, that verification and evaluation share (see path_image)
    path_images = cached_property(lambda self: {})

    def evaluate(self, x: AlgebraElement) -> GradedMatrix:
        return evaluate_element(x, self.images, self.path_images)


def build_generator_map(obj: CLObject, sig: Optional[MatricialSignature] = None,
                        field: Field = QQ) -> GeneratorMap:
    """Construct and fully verify the generator map of a no-exit object.

    ``sig``, when given, must equal ``classify(obj)``; it is cross-checked.
    Path q_j of a block puts e_jj into the image of its source, and each
    edge e into that source puts e_ij t^k into the image of e, where
    e.q_j = q_i c^k.  A path that enters a cycle cannot leave it, and a sink
    or an unrelated target lies on no cycle, so k = 0 and q_i = e.q_j, except
    for the edge e that leaves a cycle base target: e.q_j = c = q_0 c.
    """
    blocks = blocks_of(obj)
    if sig is not None and sig != _signature(blocks):
        raise ValueError("supplied signature does not match the classification")
    g = obj.graph
    algebra = DirectSum(tuple(b.algebra(field) for b in blocks), field)
    terms = {x: {} for x in sorted(g.vertices) + sorted(g.edge_ids())}
    for bi, b in enumerate(blocks):
        index = {q: i for i, q in enumerate(b.paths)}
        for j, q in enumerate(b.paths):
            terms[q.source][(bi, j, j, 0)] = field.one
            for e in g.in_edges(q.source):
                if b.kind == "cycle" and g.src(e) == b.target:
                    terms[e][(bi, 0, j, 1)] = field.one
                    continue
                path = Path(g.src(e), (e,) + q.edges)
                if path not in index:
                    raise ClassificationBug(f"path {path} is not in the enumeration of {b.target}")
                terms[e][(bi, index[path], j, 0)] = field.one
    images = {x: GradedMatrix(algebra, t) for x, t in terms.items()}
    gmap = GeneratorMap(obj, AlgebraContext(obj, field), blocks, algebra, images)
    _verify_generator_map(gmap)
    return gmap


def uniqueness_conditions(graph, s_set, images) -> dict:
    """The elements graded uniqueness needs nonzero for a *-homomorphism psi.

    Through CL(E, S) = L(E(S)), the graded uniqueness theorem (Tomforde,
    J. Algebra 318, 2007) makes a graded *-homomorphism psi out of CL(E, S)
    injective iff psi(v) != 0 for every vertex v and
    psi(v) - sum over s(e) = v of psi(e) psi(e)* != 0 for every regular
    vertex v outside S.  Returns those elements keyed ``(v, False)`` and
    ``(v, True)`` respectively, from the generator ``images`` of psi.
    """
    conditions = {(v, False): images[v] for v in sorted(graph.vertices)}
    for v in graph.regular_vertices():
        if v not in s_set:
            conditions[v, True] = images[v] - edge_projections(graph, v, images)
    return conditions


def _verify_generator_map(gmap: GeneratorMap) -> None:
    """Prove that the images extend to a graded *-isomorphism onto the blocks.

    Once the axioms and degrees hold, the images extend to a graded
    *-homomorphism phi from CL(E, S) = L(E(S)) into the direct sum.  Graded
    uniqueness makes phi injective when every :func:`uniqueness_conditions`
    element is nonzero, and phi is surjective when it hits every unit.
    phi(q_i mid q_j*) = P_i M P_j* with P_q = phi(q) and M = phi(mid),
    where mid = w for a sink or cycle base w, and w minus the sum of e e*
    over its edges for a regular target outside S (its block tracks that
    complement; phi of it is already a uniqueness condition).  For a cycle
    block, q_i c and q_j c give the units times t and t^-1, with C = phi(c)
    inserted.  The degree check makes phi graded, so a product that equals a
    unit has that unit's degree; no unit degree is compared again.
    """
    report = check_generator_map(gmap.obj, gmap.images)
    if not report.ok:
        raise ClassificationBug(
            "generator map fails axioms: " + "; ".join(report.failures + report.degree_failures)
        )
    images = gmap.images
    conditions = uniqueness_conditions(gmap.obj.graph, gmap.obj.s_set, images)
    for (v, gap), x in conditions.items():
        if x.is_zero():
            what = f"phi({v}) - sum of phi(e) phi(e)* over s(e) = {v}" if gap else f"phi({v})"
            raise ClassificationBug(f"generator map is not injective: {what} is 0")
    one = gmap.algebra.base.one
    for bi, b in enumerate(gmap.blocks):
        mid = conditions[b.target, b.kind == "unrelated"]
        paths = [path_image(q.source, q.edges, images, gmap.path_images) for q in b.paths]
        lefts = [[(p * mid, 0)] for p in paths]
        if b.kind == "cycle":
            cyc = path_image(b.cycle.source, b.cycle.edges, images, gmap.path_images)
            for p, row in zip(paths, lefts):
                row.append((p * cyc * mid, 1))
                row.append((p * mid * cyc.star(), -1))
        rights = [p.star() for p in paths]
        for i, (qi, row) in enumerate(zip(b.paths, lefts)):
            for j, (qj, right) in enumerate(zip(b.paths, rights)):
                for left, tpow in row:
                    got = left * right
                    if got.terms != {(bi, i, j, tpow): one}:
                        raise ClassificationBug(
                            f"unit e[{bi}]_{i}{j} t^{tpow} is not hit: the image of "
                            f"{qi} mid {qj}* (with {tpow} turns of the cycle) is {got}"
                        )


def inclusion_injective(sub: CLObject, gmap: GeneratorMap):
    """Decide whether CL(F, T) -> CL(E, S) is injective for a subobject (F, T).

    ``gmap`` must come from :func:`build_generator_map`: its images phi then
    satisfy every axiom and degree condition of (E, S), and phi is an
    isomorphism.  F must be a subgraph of E, with the same source and range
    for each of its edges; otherwise NotASubgraph is raised.

    The inclusion is injective exactly when psi, the restriction of phi to
    the generators of F, is.  The (V), (V*), (E1), (E2) and (CK1) instances
    of F, and its degree conditions, are instances of those of E at the
    same images, so they hold.  Only (SCK2) at v in T can be new, because F may
    drop edges of v; those sums are evaluated.  When they hold, psi is a
    graded *-homomorphism, injective iff every
    :func:`uniqueness_conditions` element of (F, T) is nonzero (for a
    regular v outside T, the sum of psi(e) psi(e)* is then nonzero by (CK1)).
    Returns ``(ok, conditions, nonzero)``: the verdict, which is also False
    when some (SCK2) of T fails, the number of nonzero conditions, and how
    many of them hold.
    """
    g = sub.graph
    if not g.is_subgraph_of(gmap.obj.graph):
        raise NotASubgraph("candidate is not a subgraph of the ambient graph")
    psi = gmap.images
    relations = all(edge_projections(g, v, psi) == psi[v] for v in sorted(sub.s_set))
    conditions = uniqueness_conditions(g, sub.s_set, psi).values()
    nonzero = sum(not x.is_zero() for x in conditions)
    return relations and nonzero == len(conditions), len(conditions), nonzero


class ClassifiedSystem(Record):
    """A subobject system annotated with signatures and injectivity verdicts."""

    system: SubobjectSystem
    signatures: tuple
    injectivity: tuple        # inclusion_injective's (ok, conditions, nonzero) per node

    @property
    def top_signature(self) -> MatricialSignature:
        return self.signatures[self.system.top_index]


def classify_system(obj: CLObject, field: Field = QQ) -> ClassifiedSystem:
    """Classify every complete subobject and prove the inclusions injective."""
    ambient_map = build_generator_map(obj, field=field)
    system = subobject_system(obj)
    signatures = tuple(classify(node) for node in system.nodes)
    injectivity = tuple(inclusion_injective(node, ambient_map) for node in system.nodes)
    return ClassifiedSystem(system, signatures, injectivity)
