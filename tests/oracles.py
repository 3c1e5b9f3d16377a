"""Test-side oracles: bounded path and normal-monomial enumeration, and the
rank evidence that normal monomials have independent images.

The program cites the normal-monomial basis (Alahmadi-Alsulami-Jain-Zelmanov,
J. Algebra Appl. 2012) and proves its generator maps isomorphisms by graded
uniqueness; these oracles cross-check the basis on bounded families.
"""

from typing import Optional

from clpa._linalg import rank_of_sparse
from clpa.algebra import AlgebraContext, Monomial, evaluate_monomial
from clpa.errors import NonFiniteEnumeration
from clpa.graphs import Graph, Path, find_cycles


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
    out.sort(key=Monomial.sort_key)
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
