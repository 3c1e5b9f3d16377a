"""The monoid of projective classes presented by a graph object.

The monoid is computed through the relative graph: its generators are the
relative graph's vertices and each regular vertex contributes the relation
v = sum of the ranges of its edges (the relative graph imposes the full
relation at every regular vertex, which is why one schema suffices).  Its
word problem is decided exactly: a separating additive functional, the
path-count invariant, or the normal forms of the completed relations.

Atomicity plus cancellativity holds exactly when the relative graph is
no-exit, in which case the monoid is free commutative of rank
(#sinks + #cycles of the relative graph) and the isomorphism sends a
generator to its vector of path counts into each sink and cycle.  When the
relative graph has a cycle with an exit, the classical idempotent chain
c^n (c*)^n certifies the failure of cancellation, and the witness is checked
at the algebra level, never assumed.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from math import lcm
from operator import ge
from types import MappingProxyType
from typing import Mapping, Optional

from ._linalg import nullspace_basis
from ._record import Record
from .algebra import AlgebraContext, is_idempotent
from .classify import blocks_of
from .errors import ClassificationBug, NotAnExit
from .graphs import CLObject, Path, RelativeGraph
from .scalars import QQ, Field


class MonoidElement(Record):
    """A finite multiset over the generator set, as sorted (gen, mult) pairs.

    The multiplicities of a repeated generator add up; each must be an int
    (not a bool) and nonnegative.
    """

    counts: tuple

    def __post_init__(self):
        out: dict = {}
        for g, m in self.counts:
            if type(m) is not int:
                raise ValueError(f"multiplicity of {g!r} must be an int, not {m!r}")
            if m < 0:
                raise ValueError("multiplicities must be nonnegative")
            out[g] = out.get(g, 0) + m
        object.__setattr__(self, "counts", tuple(sorted((g, m) for g, m in out.items() if m)))

    @classmethod
    def of(cls, *generators: str) -> "MonoidElement":
        return cls(tuple((g, 1) for g in generators))

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        return MonoidElement(self.counts + other.counts)

    def __str__(self):
        return " + ".join(g if m == 1 else f"{m}{g}" for g, m in self.counts) or "0"


class Presentation(Record):
    """Generators and relations of the projective-class monoid of an object.

    Built once per object by :func:`presentation`, so every reader shares its
    functionals, invariant and completion.
    """

    rel: RelativeGraph
    generators: tuple
    relations: tuple        # (vertex, MonoidElement rhs) per regular relative vertex

    def element(self, *generators: str) -> MonoidElement:
        x = MonoidElement.of(*generators)
        self._exponents(x)  # rejects names that are not generators
        return x

    def _exponents(self, x: MonoidElement) -> tuple:
        counts = dict(x.counts)
        extra = counts.keys() - set(self.generators)
        if extra:
            raise ValueError(f"unknown generators: {sorted(extra)}")
        return tuple(counts.get(g, 0) for g in self.generators)

    def _relation_vectors(self) -> list:
        return [(self._exponents(MonoidElement.of(v)), self._exponents(rhs)) for v, rhs in self.relations]

    @cached_property
    def rewriting(self) -> tuple:
        """The relations completed to a confluent rewriting system (see ``_complete``)."""
        return _complete(self._relation_vectors())

    def normal_form(self, x: MonoidElement) -> MonoidElement:
        """The normal form of x: equal elements, and only they, share it."""
        return MonoidElement(tuple(zip(self.generators, _reduce(self.rewriting, self._exponents(x), {}))))

    @cached_property
    def functionals(self) -> tuple:
        """A basis of additive functionals constant on every relation, in ints.

        Each rational basis vector is scaled by the lcm of its denominators.
        Tuples, since every ``equal`` on the object reads them.
        """
        rows = [[p - q for p, q in zip(*pair)] for pair in self._relation_vectors()]
        basis = nullspace_basis(rows, len(self.generators), QQ)
        scales = [lcm(*(x.denominator for x in vec)) for vec in basis]
        return tuple(tuple(int(x * d) for x in vec) for vec, d in zip(basis, scales))

    invariant = cached_property(lambda self: path_count_invariant(self))  # None: the relative graph has an exit


def presentation(obj: CLObject) -> Presentation:
    """The presentation of obj's monoid, built on first call and kept with obj.

    It lives in obj's instance dict, as ``CLObject.relative`` does, so it is
    not a field: equality, hashing, ``repr`` and pickling ignore it.
    """
    pres = obj.__dict__.get("presentation")
    if pres is None:
        rel = obj.relative
        g = rel.graph
        relations = tuple((v, MonoidElement.of(*[g.rng(e) for e in g.out_edges(v)]))
                          for v in g.regular_vertices())
        pres = Presentation(rel, tuple(sorted(g.vertices)), relations)
        obj.__dict__["presentation"] = pres
    return pres


# -- invariants ----------------------------------------------------------------


def path_count_invariant(pres: Presentation) -> Optional[Mapping]:
    """Generator -> vector of path counts into each sink/cycle of the relative graph.

    Defined exactly when the relative graph is no-exit; the vectors land in
    N^(#sinks + #cycles) and respect every relation, so they induce a monoid
    map onto a free commutative monoid (an isomorphism in this case).  The
    mapping is read-only, since every ``equal`` on the object reads it.
    """
    leavitt = pres.rel.leavitt
    if leavitt.graph.exit_cycle is not None:
        return None
    blocks = blocks_of(leavitt)
    sources = [Counter(q.source for q in b.paths) for b in blocks]
    return MappingProxyType({v: tuple(c[v] for c in sources) for v in sorted(leavitt.graph.vertices)})


def invariant_value(invariant: Mapping, x: MonoidElement) -> tuple:
    size = len(next(iter(invariant.values()))) if invariant else 0
    return tuple(sum(m * invariant[g][i] for g, m in x.counts) for i in range(size))


def relations_preserved(pres: Presentation, invariant: Mapping) -> list:
    """The relations violated by the invariant (empty list = well-defined)."""
    values = [(v, rhs, invariant_value(invariant, MonoidElement.of(v)), invariant_value(invariant, rhs))
              for v, rhs in pres.relations]
    return [bad for bad in values if bad[2] != bad[3]]


class EqualityAnswer(Record):
    verdict: str                      # "yes" | "no": the word problem is decided
    common_reduct: Optional[MonoidElement] = None
    separating_functional: Optional[tuple] = None


def equal(pres: Presentation, a: MonoidElement, b: MonoidElement) -> EqualityAnswer:
    """Decide [a] = [b] in the monoid presented by ``pres``: "yes" or "no".

    In order: a separating additive functional (the certificate of a "no"),
    the path-count invariant on a no-exit relative graph (the functionals span
    it), then the normal forms of the completed relations (a common reduct).
    """
    support = [(i, x - y) for i, (x, y) in enumerate(zip(pres._exponents(a), pres._exponents(b))) if x != y]
    for functional in pres.functionals:
        if sum(functional[i] * d for i, d in support):
            return EqualityAnswer("no", separating_functional=functional)

    invariant = pres.invariant
    if invariant is not None:
        if invariant_value(invariant, a) != invariant_value(invariant, b):
            raise ClassificationBug(f"no functional separates {a} from {b}, but the invariant does")
        return EqualityAnswer("yes")

    reduct = pres.normal_form(a)
    return EqualityAnswer("yes", common_reduct=reduct) if reduct == pres.normal_form(b) \
        else EqualityAnswer("no")


# -- completion of the relations -------------------------------------------------
# Elements are exponent vectors over ``Presentation.generators``.  A rule is (lhs,
# rhs, support bitmask of lhs), lhs above rhs in the graded order: total
# multiplicity first, then the vectors compared in generator order.


def _mask(x: tuple) -> int:
    return sum(1 << i for i, m in enumerate(x) if m)


def _reduce(rules, x: tuple, memo: dict) -> tuple:
    """The normal form of x; ``memo`` records it for every element on the way."""
    path = []
    while x not in memo:
        path.append(x)
        mask = _mask(x)
        x = next((tuple(p - q + r for p, q, r in zip(x, lhs, rhs)) for lhs, rhs, lmask in rules
                  if not lmask & ~mask and all(map(ge, x, lhs))), x)
        if x is path[-1]:  # no rule applies: x is normal
            memo[x] = x
    memo.update(dict.fromkeys(path, memo[x]))
    return memo[x]


def _overlap(one, two) -> tuple:  # the two one-step rewrites of the lcm of the lhs
    lcm = tuple(map(max, one[0], two[0]))
    return tuple(tuple(p - q + r for p, q, r in zip(lcm, lhs, rhs)) for lhs, rhs, _ in (one, two))


def _complete(relations: list) -> tuple:
    """Complete relations (pairs of exponent vectors) to a confluent rule system.

    Overlaps at lcms of left-hand sides join smallest first, skipping coprime
    pairs (their rules commute) and, by Buchberger's chain criterion, pairs
    whose lcm a third lhs divides once its pairs with both are done.  A rule
    whose lhs a newer one divides retires but keeps its queued pairs.  It ends
    by Dickson's lemma (Ballantyne-Lankford, Comput. Math. Appl. 7, 1981);
    the result is proved by joining every relation and every critical pair.
    """
    rules, active, pending, queue = {}, {}, set(), []

    def settle(a: tuple, b: tuple):
        rhs, lhs = sorted((_reduce(active.values(), x, {}) for x in (a, b)), key=lambda x: (sum(x), x))
        if lhs == rhs:
            return
        new, mask = len(rules), _mask(lhs)
        for i, (l, _, m) in list(active.items()):
            if not mask & ~m and all(map(ge, l, lhs)):
                del active[i]
        for i, (l, _, m) in rules.items():
            if m & mask:
                lcm = tuple(map(max, l, lhs))
                heappush(queue, (sum(lcm), lcm, i, new))
                pending.add((i, new))
        active[new] = rules[new] = (lhs, rhs, mask)

    for a, b in relations:
        settle(a, b)
    while queue:
        _, lcm, i, j = heappop(queue)
        pending.discard((i, j))
        mask = rules[i][2] | rules[j][2]
        if not any(k not in (i, j) and not m & ~mask and all(map(ge, lcm, l))
                   and not {(min(i, k), max(i, k)), (min(j, k), max(j, k))} & pending
                   for k, (l, _, m) in rules.items()):
            settle(*_overlap(rules[i], rules[j]))
    system, memo = tuple(active.values()), {}
    for a, b in relations + [_overlap(p, q) for p, q in combinations(system, 2) if p[2] & q[2]]:
        if _reduce(system, a, memo) != _reduce(system, b, memo):
            raise ClassificationBug(f"completion is not confluent: {a} and {b} do not join")
    return system


# -- chain witnesses -------------------------------------------------------------


class ChainWitness(Record):
    """A chain of elements along a cycle, with the transcript that proves its claim.

    ``cycle`` is the closed path c from the vertex v the chain is based at.
    ``chain`` is g_n = v - c^n (c^n)* for the noetherian witness, p_n =
    c^n (c^n)* for the cancellation witness and d_n = (v - c)^n for the
    artinian one, which also keeps ``powers`` h_n = c^n.  Every statement
    that a check backs went through :func:`prove`.
    """

    cycle: Path
    chain: tuple               # AlgebraElements, n = 1 .. N
    statements: tuple
    powers: tuple = ()

    def transcript(self) -> str:
        return "\n".join(self.statements)


def prove(statements: list, holds: bool, statement: str) -> None:
    """Append ``statement`` to a witness transcript, or raise naming it when it fails."""
    if not holds:
        raise ClassificationBug(f"witness check failed: {statement}")
    statements.append(statement)


def cycle_powers(ctx: AlgebraContext, cycle: Path, count: int) -> list:
    """``[v, c, ..., c^count]`` for the cycle c, a closed path from v."""
    c = ctx.path_element(cycle.edges)
    powers = [ctx.vertex(cycle.source)]
    for _ in range(count):
        powers.append(powers[-1] * c)
    return powers


def exit_cycle_chain(obj: CLObject, cycle: Path, count: int, field: Field = QQ):
    """The cycle rebased at its first exit v, with c^n and p_n = c^n (c^n)*.

    Returns ``(based, powers, projections)``: ``based`` is the cycle as the
    closed path from v, ``powers[n]`` is c^n for n = 0..count (``powers[0]``
    is v) and ``projections[n-1]`` is p_n for n = 1..count.

    The elements live in a context whose special edge, at every S-vertex of
    the cycle with an exit, is the smallest edge leaving the cycle (elsewhere
    it is the default, the smallest edge).  Then c^n (c^n)* reduces to one
    monomial, so every p_n is one term and v - p_n two.  With a cycle edge
    special, p_n would rewrite to a sum that grows with n (2n + 1 terms on a
    rose of two loops with an exit).
    """
    g = obj.graph
    vertices = g.path_vertices(cycle)
    v = min((u for u in vertices if len(g.out_edges(u)) >= 2), default=None)
    if v is None:
        raise NotAnExit(f"cycle {cycle} has no exit")
    k = vertices.index(v)
    based = Path(v, cycle.edges[k:] + cycle.edges[:k])
    on_cycle = set(based.edges)
    exits = {u: [e for e in g.out_edges(u) if e not in on_cycle]
             for u in obj.s_set.intersection(vertices)}
    ctx = AlgebraContext(obj, field, tuple((u, min(es)) for u, es in exits.items() if es))
    powers = cycle_powers(ctx, based, count)
    projections = tuple(p * p.star() for p in powers[1:])
    return based, tuple(powers), projections


def cancellation_witness(obj: CLObject, cycle: Path, n_max: int = 3,
                         field: Field = QQ) -> ChainWitness:
    """Verify the cancellation-failure chain p_n = c^n (c^n)* along a cycle with an exit.

    The monoid identity [v] = [v] + [p_n - p_n+1] with [p_n - p_n+1] nonzero
    (certified by p_n != p_n+1 at the normal-form level) contradicts
    cancellativity.
    """
    based, powers, ps = exit_cycle_chain(obj, cycle, n_max + 1, field)
    v = based.source
    statements = [f"cycle {based} based at the bifurcation {v}"]
    for n in range(1, n_max + 1):
        p, p_next = ps[n - 1], ps[n]
        prove(statements, is_idempotent(p), f"checked p_{n} idempotent")
        prove(statements, p * p_next == p_next, f"checked p_{n} p_{n+1} = p_{n+1}")
        prove(statements, p != p_next, f"checked p_{n} != p_{n+1}")
        prove(statements, powers[n].star() * powers[n] == powers[0],
              f"checked (c^{n})* c^{n} = {v}")
        statements.append(f"[{v}] = [p_{n}] = [p_{n+1}] + [p_{n} - p_{n+1}] gives "
                          f"[{v}] = [{v}] + [p_{n} - p_{n+1}] with p_{n} - p_{n+1} != 0")
    return ChainWitness(based, ps[:n_max], tuple(statements))


# -- the verdict -----------------------------------------------------------------


class MonoidVerdict(Record):
    atomic_cancellative: bool
    invariant: Optional[dict]          # generator -> path-count vector, when true
    invariant_rank: Optional[int]
    witness: Optional[ChainWitness]
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
        # a plain dict of the caller's own: the presentation's stays read-only
        return MonoidVerdict(True, dict(invariant), rank, None,
                             "relative graph is no-exit: the monoid is free commutative "
                             f"on {rank} generators (one per sink and per cycle)")
    leavitt = pres.rel.leavitt
    witness = cancellation_witness(leavitt, leavitt.graph.exit_cycle)
    return MonoidVerdict(False, None, None, witness,
                         "relative graph has a cycle with an exit: cancellation fails")
