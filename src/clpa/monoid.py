"""The monoid of projective classes presented by a graph object.

The monoid is computed through the relative graph: its generators are the
relative graph's vertices and each regular vertex contributes the relation
v = sum of the ranges of its edges (the relative graph imposes the full
relation at every regular vertex, which is why one schema suffices).

Atomicity plus cancellativity holds exactly when the relative graph is
no-exit, in which case the monoid is free commutative of rank
(#sinks + #cycles of the relative graph) and the isomorphism sends a
generator to its vector of path counts into each sink and cycle.  When the
relative graph has a cycle with an exit, the classical idempotent chain
c^n (c*)^n certifies the failure of cancellation, and the witness is checked
at the algebra level, never assumed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ._linalg import nullspace_basis
from ._record import Record
from .algebra import AlgebraContext, is_idempotent
from .classify import blocks_of
from .errors import ClassificationBug, NotAnExit, NotNoExitObject
from .graphs import CLObject, Cycle, RelativeGraph, predicates, relative_graph
from fractions import Fraction

from .scalars import QQ, Field


class MonoidElement(Record):
    """A finite multiset over the generator set, as sorted (gen, mult) pairs."""

    counts: tuple

    def __post_init__(self):
        cleaned = tuple(sorted((g, int(m)) for g, m in dict(self.counts).items() if m))
        if any(m < 0 for _, m in cleaned):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "counts", cleaned)

    @classmethod
    def of(cls, *generators: str) -> "MonoidElement":
        out: dict = {}
        for g in generators:
            out[g] = out.get(g, 0) + 1
        return cls(tuple(out.items()))

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        out = dict(self.counts)
        for g, m in other.counts:
            out[g] = out.get(g, 0) + m
        return MonoidElement(tuple(out.items()))

    def contains(self, other: "MonoidElement") -> bool:
        mine = dict(self.counts)
        return all(mine.get(g, 0) >= m for g, m in other.counts)

    def remove(self, other: "MonoidElement") -> "MonoidElement":
        out = dict(self.counts)
        for g, m in other.counts:
            out[g] = out[g] - m
        return MonoidElement(tuple(out.items()))

    def __str__(self):
        if not self.counts:
            return "0"
        return " + ".join(g if m == 1 else f"{m}{g}" for g, m in self.counts)


class Presentation(Record):
    """Generators and relations of the projective-class monoid of an object."""

    obj: CLObject
    rel: RelativeGraph
    generators: tuple
    relations: tuple        # (vertex, MonoidElement rhs) per regular relative vertex

    def element(self, *generators: str) -> MonoidElement:
        unknown = set(generators) - set(self.generators)
        if unknown:
            raise ValueError(f"unknown generators: {sorted(unknown)}")
        return MonoidElement.of(*generators)

    @cached_property
    def functionals(self) -> list:
        """A basis of additive functionals (over Q) constant on every relation."""
        gens = self.generators
        index = {g: i for i, g in enumerate(gens)}
        rows = []
        for v, rhs in self.relations:
            row = [Fraction(0)] * len(gens)
            row[index[v]] += 1
            for g, m in rhs.counts:
                row[index[g]] -= m
            rows.append(row)
        return nullspace_basis(rows, QQ) if rows else [
            [Fraction(1) if j == i else Fraction(0) for j in range(len(gens))]
            for i in range(len(gens))
        ]

    @cached_property
    def invariant(self) -> Optional[dict]:
        """The path-count invariant, or None when the relative graph has an exit."""
        return path_count_invariant(self)


def presentation(obj: CLObject) -> Presentation:
    rel = relative_graph(obj)
    g = rel.graph
    relations = []
    for v in g.regular_vertices():
        rhs = MonoidElement.of(*[g.rng(e) for e in g.out_edges(v)])
        relations.append((v, rhs))
    return Presentation(obj, rel, tuple(sorted(g.vertices)), tuple(relations))


# -- invariants ----------------------------------------------------------------


def path_count_invariant(pres: Presentation) -> Optional[dict]:
    """Generator -> vector of path counts into each sink/cycle of the relative graph.

    Defined exactly when the relative graph is no-exit; the vectors land in
    N^(#sinks + #cycles) and respect every relation, so they induce a monoid
    map onto a free commutative monoid (an isomorphism in this case).
    """
    leavitt = pres.rel.leavitt_object()
    try:
        blocks = blocks_of(leavitt)
    except NotNoExitObject:
        return None
    g = leavitt.graph
    return {
        v: tuple(sum(1 for q in b.paths if q.source == v) for b in blocks)
        for v in sorted(g.vertices)
    }


def invariant_value(invariant: dict, x: MonoidElement) -> tuple:
    size = len(next(iter(invariant.values()))) if invariant else 0
    total = [0] * size
    for g, m in x.counts:
        for i, c in enumerate(invariant[g]):
            total[i] += m * c
    return tuple(total)


def relations_preserved(pres: Presentation, invariant: dict) -> list:
    """The relations violated by the invariant (empty list = well-defined)."""
    bad = []
    for v, rhs in pres.relations:
        lhs_vec = invariant_value(invariant, MonoidElement.of(v))
        rhs_vec = invariant_value(invariant, rhs)
        if lhs_vec != rhs_vec:
            bad.append((v, rhs, lhs_vec, rhs_vec))
    return bad


class EqualityAnswer(Record):
    verdict: str                      # "yes" | "no" | "unknown"
    common_reduct: Optional[MonoidElement] = None
    separating_functional: Optional[tuple] = None


def equal(pres: Presentation, a: MonoidElement, b: MonoidElement,
          depth: int = 8, max_states: int = 20000) -> EqualityAnswer:
    """Word-problem check: exact on a no-exit relative graph, tri-valued otherwise.

    No: some additive functional invariant under every relation separates
    a from b.  Yes, when the relative graph is no-exit: the path-count
    invariant is an isomorphism onto N^r and the functionals span its
    coordinates, so no separating functional means equal.  Yes, otherwise:
    bidirectional application of the relations meets within ``depth``.
    Everything else: unknown (no decision procedure is claimed).
    """
    if a == b:
        return EqualityAnswer("yes", common_reduct=a)

    index = {g: i for i, g in enumerate(pres.generators)}
    diff: dict = {}
    for x, sign in ((a, 1), (b, -1)):
        for g, m in x.counts:
            i = index[g]
            diff[i] = diff.get(i, 0) + sign * m
    support = [(i, d) for i, d in diff.items() if d]
    for functional in pres.functionals:
        if sum(functional[i] * d for i, d in support):
            return EqualityAnswer("no", separating_functional=tuple(functional))

    invariant = pres.invariant
    if invariant is not None:
        if invariant_value(invariant, a) != invariant_value(invariant, b):
            raise ClassificationBug(
                f"no functional separates {a} from {b}, but the invariant does"
            )
        return EqualityAnswer("yes")

    moves = [(v, rhs) for v, rhs in pres.relations if MonoidElement.of(v) != rhs]

    def neighbours(x: MonoidElement):
        for v, rhs in moves:
            single = MonoidElement.of(v)
            if x.contains(single):
                yield x.remove(single) + rhs
            if x.contains(rhs):
                yield x.remove(rhs) + single

    seen_a, seen_b = {a}, {b}
    frontier_a, frontier_b = {a}, {b}
    for _ in range(depth):
        if seen_a & seen_b:
            break
        grow_a = len(seen_a) <= len(seen_b)
        frontier = frontier_a if grow_a else frontier_b
        seen = seen_a if grow_a else seen_b
        new = set()
        for x in frontier:
            for y in neighbours(x):
                if y not in seen:
                    new.add(y)
        seen |= new
        if grow_a:
            frontier_a = new
        else:
            frontier_b = new
        if len(seen_a) + len(seen_b) > max_states or not new:
            break
    meet = seen_a & seen_b
    if meet:
        return EqualityAnswer("yes", common_reduct=sorted(meet, key=str)[0])
    return EqualityAnswer("unknown")


# -- verdicts and witnesses ------------------------------------------------------


class CancellationWitness(Record):
    """The idempotent chain p_n = c^n (c*)^n exhibiting a cancellation failure.

    The monoid identity [v] = [v] + [p_n - p_n+1] with [p_n - p_n+1] nonzero
    (certified by p_n != p_n+1 at the normal-form level) contradicts
    cancellativity.  All listed checks were verified in the algebra.
    """

    base_vertex: str
    cycle: Cycle
    idempotents: tuple         # p_1 ... p_N as AlgebraElements
    statements: tuple

    def transcript(self) -> str:
        return "\n".join(self.statements)


def exit_cycle_chain(obj: CLObject, cycle: Cycle, count: int, field: Field = QQ):
    """The cycle rebased at its first exit v, with c^n and p_n = c^n (c^n)*.

    Returns ``(v, based, powers, projections)``: ``based`` is the rebased
    cycle, ``powers[n]`` is c^n for n = 0..count (``powers[0]`` is v) and
    ``projections[n-1]`` is p_n for n = 1..count.
    """
    g = obj.graph
    exits = sorted(v for v in cycle.vertex_set(g) if len(g.out_edges(v)) >= 2)
    if not exits:
        raise NotAnExit(f"cycle {cycle} has no exit")
    v = exits[0]
    k = [g.src(e) for e in cycle.edges].index(v)
    based = Cycle(cycle.edges[k:] + cycle.edges[:k])
    ctx = AlgebraContext(obj, field)
    c = ctx.path_element(based.edges)
    powers = [ctx.vertex(v)]
    for _ in range(count):
        powers.append(powers[-1] * c)
    projections = tuple(p * p.star() for p in powers[1:])
    return v, based, tuple(powers), projections


def cancellation_witness(obj: CLObject, cycle: Cycle, n_max: int = 3,
                         field: Field = QQ) -> CancellationWitness:
    """Verify the cancellation-failure chain along a cycle with an exit."""
    v, based, powers, ps = exit_cycle_chain(obj, cycle, n_max + 1, field)
    vert = powers[0]
    statements = [f"cycle {based} based at the bifurcation {v}"]
    for n in range(1, n_max + 1):
        p, p_next = ps[n - 1], ps[n]
        checks = {
            f"p_{n} idempotent": is_idempotent(p),
            f"p_{n} p_{n+1} = p_{n+1}": p * p_next == p_next,
            f"p_{n} != p_{n+1}": p != p_next,
            f"(c^{n})* c^{n} = {v}": powers[n].star() * powers[n] == vert,
        }
        for label, okay in checks.items():
            if not okay:
                raise ClassificationBug(f"cancellation witness check failed: {label}")
            statements.append(f"checked {label}")
        statements.append(
            f"[{v}] = [p_{n}] = [p_{n+1}] + [p_{n} - p_{n+1}] gives "
            f"[{v}] = [{v}] + [p_{n} - p_{n+1}] with p_{n} - p_{n+1} != 0"
        )
    return CancellationWitness(v, based, ps[:n_max], tuple(statements))


class MonoidVerdict(Record):
    atomic_cancellative: bool
    invariant: Optional[dict]          # generator -> path-count vector, when true
    invariant_rank: Optional[int]
    witness: Optional[CancellationWitness]
    justification: str


def atomic_cancellative_verdict(obj: CLObject) -> MonoidVerdict:
    """Decide atomic + cancellative through the relative graph.

    The bare graph being no-exit is not enough: a cycle vertex outside S
    acquires an exit in the relative graph (the relation v = v + v' then
    already defeats cancellation), so the test is on the relative graph.
    """
    pres = presentation(obj)
    invariant = pres.invariant
    if invariant is not None:
        bad = relations_preserved(pres, invariant)
        if bad:
            raise ClassificationBug(f"invariant violates relations: {bad}")
        rank = len(next(iter(invariant.values()))) if invariant else 0
        return MonoidVerdict(
            True, invariant, rank, None,
            "relative graph is no-exit: the monoid is free commutative on "
            f"{rank} generators (one per sink and per cycle)",
        )
    leavitt = pres.rel.leavitt_object()
    bad_cycle = predicates(leavitt.graph).exit_cycles[0]
    witness = cancellation_witness(leavitt, bad_cycle)
    return MonoidVerdict(
        False, None, None, witness,
        "relative graph has a cycle with an exit: cancellation fails",
    )
