#!/usr/bin/env python3
"""Walkthrough: which graded matrix algebras arise from graphs at all?

M_2(K)(0, 0) never does.  Any candidate graph would need exactly two paths
into a single sink, and the trivial path forces the shift vector (0, 1); the
zero components then have dimensions 4 versus 2, which no graded isomorphism
can reconcile.  This script sweeps every simple digraph on up to three
vertices and reports the distinguishing degree for each.
"""

from collections import Counter

from clpa import classify, decide_graded_iso
from clpa.classify import no_exit_violations
from clpa.gradedmat import GradedMatrixAlgebra
from clpa.graphs import CLObject, Graph

target = GradedMatrixAlgebra("field", 2, (0, 0))
print(f"target algebra: {target.describe()}")
from clpa.gradedmat import component_dim
print("component dimensions around zero:",
      {d: component_dim(target, d) for d in (-1, 0, 1)})

print("\nsweeping all simple digraphs on <= 3 vertices with all valid S sets...")


def small_objects():
    for n in (1, 2, 3):
        vertices = [f"v{i}" for i in range(n)]
        slots = [(a, b) for a in vertices for b in vertices]
        for mask in range(1 << len(slots)):
            edges = [(f"e{i}", a, b) for i, (a, b) in enumerate(slots) if mask >> i & 1]
            g = Graph(vertices, edges)
            if g.exit_cycle is not None:
                continue
            on_cycles = g.cycle_vertices
            free = [v for v in g.regular_vertices() if v not in on_cycles]
            for smask in range(1 << len(free)):
                s = on_cycles | {v for i, v in enumerate(free) if smask >> i & 1}
                obj = CLObject(g, s)
                if not no_exit_violations(obj):
                    yield obj


count = 0
deltas = Counter()
for obj in small_objects():
    decision = decide_graded_iso(target, classify(obj))
    assert decision.verdict == "no"
    deltas[decision.certificate[0]] += 1
    count += 1

print(f"{count} objects checked; all verdicts were 'no'")
print("distinguishing degrees used:", dict(sorted(deltas.items())))

print("\nthe closest miss, one edge into one sink with the relation imposed:")
near = CLObject(Graph(["u", "w"], [("g", "u", "w")]), ["u"])
sig = classify(near)
print(f"  classifies as {sig.describe()}")
decision = decide_graded_iso(target, sig)
delta, da, db, window = decision.certificate
print(f"  verdict {decision.verdict}: degree {delta} components have dimensions "
      f"{da} vs {db} (window |delta| <= {window})")

print("\nshift translations, by contrast, are invisible:")
a = GradedMatrixAlgebra("field", 2, (0, 1))
b = GradedMatrixAlgebra("field", 2, (3, 4))
decision = decide_graded_iso(a, b)
m = decision.matches[0]
print(f"  {a.describe()} vs {b.describe()}: {decision.verdict} "
      f"(translation {m.translation}, permutation {list(m.permutation)})")
