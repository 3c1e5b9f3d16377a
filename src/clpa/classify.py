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
cycle.  Every map is machine-verified (axioms, surjectivity onto matrix
units, degrees) before it is returned; a verification failure is always an
implementation bug, never a valid state, and raises ClassificationBug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._linalg import rank_of_sparse
from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    check_generator_map,
    evaluate_element,
    evaluate_monomial,
    normal_monomials,
)
from .errors import ClassificationBug, NotNoExitObject
from .gradedmat import (
    GradedMatrixAlgebra,
    MatricialSignature,
    MatTuple,
    direct_sum_unit,
)
from .graphs import CLObject, Cycle, Path, SubobjectSystem, paths_into, predicates, subobject_system
from .scalars import QQ, Field


def check_no_exit_object(obj: CLObject):
    """True iff the graph is no-exit and every cycle vertex lies in S."""
    violations = _no_exit_violations(obj, predicates(obj.graph))
    return (not violations), violations


def _no_exit_violations(obj: CLObject, facts) -> list:
    violations = []
    bifs = set(facts.bifurcations)
    for c in facts.cycles:
        on_cycle = c.vertex_set(obj.graph)
        for v in sorted(on_cycle & bifs):
            violations.append(f"cycle vertex {v} is a bifurcation (the cycle has an exit)")
        for v in sorted(on_cycle - obj.s_set):
            violations.append(f"cycle vertex {v} is not in S")
    return violations


@dataclass(frozen=True)
class Block:
    """One direct summand: its target in the graph and its enumerated paths."""

    kind: str                     # "sink" | "unrelated" | "cycle"
    target: str                   # the sink / S-complement vertex / cycle base
    paths: tuple                  # all paths into the target, sorted by length
    cycle: Optional[Cycle] = None

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
    facts = predicates(g)
    violations = _no_exit_violations(obj, facts)
    if violations:
        raise NotNoExitObject("; ".join(violations))
    out = []
    for v in facts.sinks:
        out.append(Block("sink", v, tuple(paths_into(g, v))))
    for v in facts.regular_vertices:
        if v not in obj.s_set:
            out.append(Block("unrelated", v, tuple(paths_into(g, v))))
    for c in facts.cycles:
        base = c.base(g)
        out.append(Block("cycle", base, tuple(paths_into(g, base)), cycle=c))
    return tuple(out)


def classify(obj: CLObject) -> MatricialSignature:
    """The canonical matricial signature of a no-exit object."""
    blocks = blocks_of(obj)
    return MatricialSignature(
        tuple((b.size, b.shifts) for b in blocks if b.kind != "cycle"),
        tuple((b.size, b.cycle.length, b.shifts) for b in blocks if b.kind == "cycle"),
    )


@dataclass(frozen=True)
class GeneratorMap:
    """A verified generator assignment into the direct sum of matrix blocks."""

    obj: CLObject
    ctx: AlgebraContext
    blocks: tuple
    algebras: tuple
    images: dict

    def evaluate(self, x: AlgebraElement) -> MatTuple:
        return evaluate_element(x, self.images)

    def block_unit(self, block: int, i: int, j: int, tpow: int = 0) -> MatTuple:
        return direct_sum_unit(self.algebras, block, i, j, tpow)


def _factor_path(g, block: Block, path: Path):
    """Write ``path`` (ending at the block target) as q_i . c^k; (i, k)."""
    if block.kind != "cycle":
        try:
            return block.paths.index(path), 0
        except ValueError:
            raise ClassificationBug(
                f"path {path} into {block.target} is not in the enumeration"
            ) from None
    vseq = g.path_vertices(path)
    idx = vseq.index(block.target)
    prefix = Path(path.source, path.edges[:idx])
    rest = path.edges[idx:]
    turns, cyc = divmod(len(rest), block.cycle.length)
    if cyc != 0 or rest != block.cycle.edges * turns:
        raise ClassificationBug(f"path {path} does not factor through cycle {block.cycle}")
    try:
        return block.paths.index(prefix), turns
    except ValueError:
        raise ClassificationBug(
            f"prefix {prefix} of {path} is not in the enumeration of {block.target}"
        ) from None


def build_generator_map(obj: CLObject, sig: Optional[MatricialSignature] = None,
                        field: Field = QQ) -> GeneratorMap:
    """Construct and fully verify the generator map of a no-exit object.

    ``sig``, when given, must equal ``classify(obj)``; it is cross-checked.
    """
    blocks = blocks_of(obj)
    if sig is not None and sig != classify(obj):
        raise ValueError("supplied signature does not match the classification")
    ctx = AlgebraContext(obj, field)
    g = obj.graph
    algebras = tuple(b.algebra(field) for b in blocks)

    images: dict = {}
    for v in sorted(g.vertices):
        total = MatTuple(tuple(a.zero() for a in algebras))
        for bi, b in enumerate(blocks):
            for i, q in enumerate(b.paths):
                if q.source == v:
                    total = total + direct_sum_unit(algebras, bi, i, i)
        images[v] = total
    for e in sorted(g.edge_ids()):
        w = g.rng(e)
        total = MatTuple(tuple(a.zero() for a in algebras))
        for bi, b in enumerate(blocks):
            for j, q in enumerate(b.paths):
                if q.source != w:
                    continue
                extended = Path(g.src(e), (e,) + q.edges)
                i, k = _factor_path(g, b, extended)
                total = total + direct_sum_unit(algebras, bi, i, j, k)
        images[e] = total

    gmap = GeneratorMap(obj, ctx, blocks, algebras, images)
    _verify_generator_map(gmap)
    return gmap


def _verify_generator_map(gmap: GeneratorMap) -> None:
    report = check_generator_map(gmap.obj, gmap.images)
    if not report.ok:
        raise ClassificationBug(
            "generator map fails axioms: " + "; ".join(report.failures + report.degree_failures)
        )
    ctx = gmap.ctx
    g = gmap.obj.graph
    for bi, b in enumerate(gmap.blocks):
        period = b.cycle.length if b.kind == "cycle" else None
        w = b.target
        # the element whose i,j-compression hits the block unit: q_i mid q_j*,
        # where mid = w for sinks and cycle bases, but w minus its expansion
        # for a regular target outside S (its block tracks the complement)
        mid = ctx.vertex(w)
        if b.kind == "unrelated":
            mid = mid - ctx.from_raw(
                [
                    (ctx.field.one, Monomial(g.make_path([e]), g.make_path([e])))
                    for e in g.out_edges(w)
                ]
            )
        for i, qi in enumerate(b.paths):
            for j, qj in enumerate(b.paths):
                checks = [(qi, qj, 0)]
                if b.kind == "cycle":
                    cpath = b.cycle.as_path(g)
                    checks.append((g.compose(qi, cpath), qj, 1))
                    checks.append((qi, g.compose(qj, cpath), -1))
                for left, right, tpow in checks:
                    z = (
                        ctx.from_raw([(ctx.field.one, Monomial(left, Path(w)))])
                        * mid
                        * ctx.from_raw([(ctx.field.one, Monomial(Path(w), right))])
                    )
                    got = gmap.evaluate(z)
                    want = gmap.block_unit(bi, i, j, tpow)
                    if not (got - want).is_zero():
                        raise ClassificationBug(
                            f"unit e[{bi}]_{i}{j} t^{tpow} is not hit: "
                            f"{z} evaluates to {got}"
                        )
                    # left/right already carry the k cycle turns, so this is
                    # |q_i| + k*n - |q_j|
                    expected_degree = len(left) - len(right)
                    if not set(got.degree_components()) <= {expected_degree}:
                        raise ClassificationBug(
                            f"degree of image of {z} is not {expected_degree}"
                        )


def monomial_independence(
    gmap: GeneratorMap,
    max_each: Optional[int] = None,
    max_bilength: Optional[int] = None,
    ctx: Optional[AlgebraContext] = None,
):
    """Certify that distinct normal-form monomials have independent images.

    Enumerates the normal monomials of ``ctx`` (default: the map's own
    context) within the length bounds, pushes them through the map, and
    returns ``(ok, count, rank)`` of the resulting coordinate vectors.
    """
    ctx = ctx or gmap.ctx
    monos = normal_monomials(ctx, max_each=max_each, max_bilength=max_bilength)
    vectors = []
    for m in monos:
        img = evaluate_monomial(m, gmap.images)
        vectors.append({(bi,) + unit: a for bi, block in enumerate(img.blocks)
                        for unit, a in block.terms.items()})
    rank = rank_of_sparse(vectors, gmap.ctx.field)
    return rank == len(monos), len(monos), rank


@dataclass(frozen=True)
class ClassifiedSystem:
    """A subobject system annotated with signatures and injectivity evidence."""

    system: SubobjectSystem
    signatures: tuple
    injectivity: tuple        # (ok, monomial count, rank) per node

    @property
    def top_signature(self) -> MatricialSignature:
        return self.signatures[self.system.top_index]


def classify_system(obj: CLObject, field: Field = QQ,
                    injectivity_bilength: int = 3) -> ClassifiedSystem:
    """Classify every complete subobject and certify the inclusions injective.

    The inclusion of a complete subobject sends normal monomials to normal
    monomials; pushing them through the ambient generator map and checking
    linear independence certifies injectivity on the bounded range.
    """
    ok, violations = check_no_exit_object(obj)
    if not ok:
        raise NotNoExitObject("; ".join(violations))
    system = subobject_system(obj)
    ambient_map = build_generator_map(obj, field=field)
    signatures = []
    evidence = []
    for node in system.nodes:
        signatures.append(classify(node))
        sub_ctx = AlgebraContext(node, field)
        evidence.append(
            monomial_independence(ambient_map, max_bilength=injectivity_bilength,
                                  ctx=sub_ctx)
        )
    return ClassifiedSystem(system, tuple(signatures), tuple(evidence))
