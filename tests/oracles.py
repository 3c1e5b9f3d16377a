"""Test-side oracles: bounded path and normal-monomial enumeration, the
rank evidence that normal monomials have independent images, and a bounded
move search for the monoid word problem.

The program cites the normal-monomial basis (Alahmadi-Alsulami-Jain-Zelmanov,
J. Algebra Appl. 2012) and proves its generator maps isomorphisms by graded
uniqueness; these oracles cross-check the basis on bounded families.  It
decides the word problem by completing the monoid relations; the move search
cross-checks that on small presentations, and a naive reducer re-proves the
completed systems confluent.
"""

from itertools import combinations
from typing import Optional

from clpa._linalg import rank_of_sparse
from clpa.algebra import AlgebraContext, Monomial, evaluate_monomial
from clpa.errors import NonFiniteEnumeration
from clpa.graphs import Graph, Path, find_cycles
from clpa.monoid import MonoidElement, Presentation


def all_paths(graph: Graph, max_length: Optional[int] = None) -> list:
    """Every path of the graph up to ``max_length`` (unbounded needs acyclicity)."""
    if max_length is None:
        if find_cycles(graph):
            raise NonFiniteEnumeration("graph has cycles; pass max_length")
        max_length = len(graph.vertices)
    out = [Path(v) for v in sorted(graph.vertices)]
    frontier = list(out)
    for _ in range(max_length):
        nxt = []
        for p in frontier:
            for e in graph.out_edges(graph.path_range(p)):
                nxt.append(Path(p.source, p.edges + (e,)))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    out.sort(key=Path.sort_key)
    return out


def normal_monomials(ctx: AlgebraContext, max_each: Optional[int] = None) -> list:
    """All normal-form monomials p|q with paths of length at most ``max_each``."""
    paths = all_paths(ctx.graph, max_each)
    by_range: dict = {}
    for p in paths:
        by_range.setdefault(ctx.graph.path_range(p), []).append(p)
    out = []
    for _, group in sorted(by_range.items()):
        for p in group:
            for q in group:
                m = Monomial(p, q)
                if ctx.is_normal(m):
                    out.append(m)
    out.sort()
    return out


def monomial_independence(ctx: AlgebraContext, images, max_each: int):
    """Rank evidence that distinct normal monomials have independent images.

    Pushes the normal monomials of ``ctx`` with paths of length at most
    ``max_each`` through the generator ``images`` and returns
    ``(ok, count, rank)`` of the resulting coordinate vectors.
    """
    monos = normal_monomials(ctx, max_each=max_each)
    vectors = [evaluate_monomial(m, images).terms for m in monos]
    rank = rank_of_sparse(vectors, ctx.field)
    return rank == len(monos), len(monos), rank


def move_search(pres: Presentation, a: MonoidElement, b: MonoidElement,
                depth: int = 8, max_states: int = 20000) -> Optional[MonoidElement]:
    """An element that both a and b reach by applying relations, or None.

    Each relation v = rhs is applied in both directions, for at most
    ``depth`` rounds, growing the smaller side first and stopping once more
    than ``max_states`` elements are seen.  A meet proves [a] = [b]; None
    proves nothing.
    """
    def contains(x: MonoidElement, y: MonoidElement) -> bool:
        mine = dict(x.counts)
        return all(mine.get(g, 0) >= m for g, m in y.counts)

    def remove(x: MonoidElement, y: MonoidElement) -> MonoidElement:
        out = dict(x.counts)
        for g, m in y.counts:
            out[g] -= m
        return MonoidElement(tuple(out.items()))

    moves = [(MonoidElement.of(v), rhs) for v, rhs in pres.relations if MonoidElement.of(v) != rhs]

    def neighbours(x: MonoidElement):
        for single, rhs in moves:
            if contains(x, single):
                yield remove(x, single) + rhs
            if contains(x, rhs):
                yield remove(x, rhs) + single

    seen_a, seen_b = {a}, {b}
    frontier_a, frontier_b = {a}, {b}
    for _ in range(depth):
        if seen_a & seen_b:
            break
        grow_a = len(seen_a) <= len(seen_b)
        frontier = frontier_a if grow_a else frontier_b
        seen = seen_a if grow_a else seen_b
        new = {y for x in frontier for y in neighbours(x) if y not in seen}
        seen |= new
        if grow_a:
            frontier_a = new
        else:
            frontier_b = new
        if len(seen_a) + len(seen_b) > max_states or not new:
            break
    meet = seen_a & seen_b
    return sorted(meet, key=str)[0] if meet else None


def completion_confluent(rules) -> bool:
    """Whether a rewriting system of ``Presentation.rewriting`` is oriented
    by the graded order and every pair of its rules joins at the lcm of
    their left-hand sides (pairs with disjoint left-hand sides included).

    Rules are (lhs, rhs, mask) triples of exponent vectors; the mask is
    ignored and every rule is tried in turn.
    """
    def reduce(x: tuple) -> tuple:
        while True:
            for lhs, rhs, _ in rules:
                if all(p >= q for p, q in zip(x, lhs)):
                    x = tuple(p - q + r for p, q, r in zip(x, lhs, rhs))
                    break
            else:
                return x

    if any((sum(lhs), lhs) <= (sum(rhs), rhs) for lhs, rhs, _ in rules):
        return False
    for (l1, r1, _), (l2, r2, _) in combinations(rules, 2):
        lcm = tuple(map(max, l1, l2))
        one = tuple(m - p + q for m, p, q in zip(lcm, l1, r1))
        two = tuple(m - p + q for m, p, q in zip(lcm, l2, r2))
        if reduce(one) != reduce(two):
            return False
    return True
