#!/usr/bin/env python3
"""Walkthrough: the monoid of projective classes and when it is free.

The monoid is presented by the vertices of the relative graph with one
relation per regular vertex.  It is atomic and cancellative exactly when the
relative graph is no-exit; then the path-count vectors give an isomorphism
onto a free commutative monoid.  A cycle with an exit defeats cancellation,
and the failure is witnessed by an explicit idempotent chain in the algebra.
"""

from clpa.graphs import CLObject, Graph, predicates
from clpa.monoid import (
    atomic_cancellative_verdict,
    cancellation_witness,
    equal,
    invariant_value,
    path_count_invariant,
    presentation,
)

print("=" * 70)
print("A bifurcation away from any cycle is harmless: v -> u1, v -> u2")
print("=" * 70)
obj = CLObject(Graph(["v", "u1", "u2"], [("e1", "v", "u1"), ("e2", "v", "u2")]), ["v"])
pres = presentation(obj)
print("generators:", ", ".join(pres.generators))
for lhs, rhs in pres.relations:
    print(f"relation: {lhs} = {rhs}")

a, b = pres.element("v"), pres.element("u1", "u2")
print(f"is [v] = [u1] + [u2]?  {equal(pres, a, b).verdict}")
print(f"is [u1] = [u2]?        {equal(pres, pres.element('u1'), pres.element('u2')).verdict}")

inv = path_count_invariant(pres)
print("free invariant vectors (one coordinate per sink/cycle):")
for g, vec in sorted(inv.items()):
    print(f"  [{g}] -> {list(vec)}")
print(f"check: value at v = {list(invariant_value(inv, a))}, "
      f"at u1+u2 = {list(invariant_value(inv, b))}")

print()
print("=" * 70)
print("Two loops at one vertex: the cycle has an exit, cancellation fails")
print("=" * 70)
rose = CLObject(Graph(["v"], [("c1", "v", "v"), ("c2", "v", "v")]), ["v"])
verdict = atomic_cancellative_verdict(rose)
print(f"atomic and cancellative: {verdict.atomic_cancellative}")
print(verdict.justification)
print("\nwitness transcript (all checks ran in the algebra):")
print(verdict.witness.transcript())

print()
print("=" * 70)
print("The subtle case: a loop with NO relation imposed")
print("=" * 70)
toeplitz = CLObject(Graph(["v"], [("c", "v", "v")]), [])
pres = presentation(toeplitz)
for lhs, rhs in pres.relations:
    print(f"relative-graph relation: {lhs} = {rhs}")
print("the graph itself is no-exit, but the relative graph is not:")
verdict = atomic_cancellative_verdict(toeplitz)
print(f"atomic and cancellative: {verdict.atomic_cancellative}")

print("\nfor contrast, the same loop with the relation imposed is free of rank 1:")
loop = CLObject(Graph(["v"], [("c", "v", "v")]), ["v"])
verdict = atomic_cancellative_verdict(loop)
print(f"atomic and cancellative: {verdict.atomic_cancellative}, "
      f"invariant {dict((g, list(v)) for g, v in verdict.invariant.items())}")

print("\nexplicit chain on a 2-cycle with an exit edge:")
obj = CLObject(
    Graph(["v1", "v2", "w"],
          [("a", "v1", "v2"), ("b", "v2", "v1"), ("x", "v1", "w")]),
    ["v1", "v2"],
)
cycles = predicates(obj.graph).cycles
witness = cancellation_witness(obj, cycles[0], 2)
print(witness.transcript())
