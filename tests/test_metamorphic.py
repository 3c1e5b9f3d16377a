"""Every command against the mathematics: metamorphic relations and a census.

Four graph operations have known effects on the algebra, so on every answer:

* relabelling ids and reordering the input changes nothing;
* a disjoint union A ⊔ B has the direct sum as its algebra: family verdicts
  AND, signatures and monoid ranks add;
* out-splitting at a vertex of S with at least two edges keeps the algebra
  up to graded *-isomorphism (Bates-Pask, Ergodic Theory Dynam. Systems 24,
  2004; Abrams-Louly-Pardo-Smith, J. Algebra 333, 2011);
* the relative graph E(S), with S all of its regular vertices, has the same
  algebra (CL(E, S) ≅ L(E(S)), Ara-Goodearl 2012).

The census runs every object on at most 3 vertices and 4 edges, up to
isomorphism, through ``report``, the monoid verdict, ``classify`` and the
noetherian witness.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clpa.classify import classify, no_exit_violations
from clpa.errors import NoCycle, NotNoExitObject
from clpa.gradedmat import MatricialSignature, decide_graded_iso
from clpa.graphs import CLObject, Graph
from clpa.monoid import atomic_cancellative_verdict
from clpa.reports import FAMILIES, chain_witness, report

from conftest import random_no_exit_object, random_object


def _signature(obj):
    """The matricial signature, or None when the object is not no-exit."""
    try:
        return classify(obj)
    except NotNoExitObject:
        return None


def _facts(obj):
    """Family verdicts, signature and monoid rank (None when the relative graph has an exit)."""
    return (report(obj).family_verdicts(), _signature(obj),
            atomic_cancellative_verdict(obj).invariant_rank)


def _assert_same_algebra(a, b):
    """Equal verdicts and monoid ranks, and graded-isomorphic signatures."""
    verdicts_a, sig_a, rank_a = _facts(a)
    verdicts_b, sig_b, rank_b = _facts(b)
    assert verdicts_a == verdicts_b
    assert rank_a == rank_b
    assert (sig_a is None) == (sig_b is None)
    if sig_a is not None:
        assert decide_graded_iso(sig_a, sig_b).verdict == "yes", (sig_a, sig_b)


@st.composite
def objects(draw):
    """An object from either conftest generator."""
    rng = draw(st.randoms(use_true_random=False))
    return (random_no_exit_object if draw(st.booleans()) else random_object)(rng)


# -- the operations ---------------------------------------------------------------


def relabel(obj, rng):
    """The object with fresh shuffled ids, its vertices and edges listed in a new order."""
    g = obj.graph
    names = sorted(g.vertices) + list(g.edge_ids())
    fresh = [f"n{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    new = dict(zip(names, fresh))
    vertices = [new[v] for v in sorted(g.vertices)]
    edges = [(new[e], new[s], new[r]) for e, s, r in g.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return CLObject(Graph(vertices, edges), [new[v] for v in obj.s_set])


def disjoint_union(a, b):
    tagged = [(tag, obj.graph, obj.s_set) for tag, obj in (("a_", a), ("b_", b))]
    return CLObject(
        Graph([t + v for t, g, _ in tagged for v in g.vertices],
              [(t + e, t + s, t + r) for t, g, _ in tagged for e, s, r in g.edges]),
        [t + v for t, _, s_set in tagged for v in s_set])


def out_split(obj, v, groups):
    """Out-split v: the edges of v fall into ``groups``, v into one vertex v^j per
    group, emitting that group, and each edge e into v into one edge e^j into
    each v^j.  The new vertices lie in S exactly when v does."""
    g = obj.graph
    new = [f"{v}^{j}" for j in range(len(groups))]
    home = {f: new[j] for j, group in enumerate(groups) for f in group}
    edges = []
    for e, s, r in g.edges:
        s = home.get(e, s)
        edges += [(f"{e}^{j}", s, w) for j, w in enumerate(new)] if r == v else [(e, s, r)]
    s_set = [u for u in obj.s_set if u != v] + (new if v in obj.s_set else [])
    return CLObject(Graph([u for u in g.vertices if u != v] + new, edges), s_set)


def _split_groups(draw, edges):
    """A partition of ``edges`` (at least two) into at least two nonempty groups."""
    edges = draw(st.permutations(edges))
    m = draw(st.integers(2, len(edges)))
    groups = [[e] for e in edges[:m]]
    for e in edges[m:]:
        groups[draw(st.integers(0, m - 1))].append(e)
    return groups


# -- the relations ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(obj=objects(), rng=st.randoms(use_true_random=False))
def test_relabelling_changes_no_answer(obj, rng):
    twin = relabel(obj, rng)
    assert _facts(twin) == _facts(obj)
    # the noetherian witness cycle is a shortest cycle with an exit
    a, b = (report(x).witnesses.get("noetherian_chain") for x in (obj, twin))
    assert (a is None) == (b is None)
    if a is not None:
        assert a.cycle.length == b.cycle.length


@settings(max_examples=60, deadline=None)
@given(a=objects(), b=objects())
def test_disjoint_union_is_the_direct_sum(a, b):
    (verdicts_a, sig_a, rank_a), (verdicts_b, sig_b, rank_b) = _facts(a), _facts(b)
    verdicts, sig, rank = _facts(disjoint_union(a, b))
    assert verdicts == {f: verdicts_a[f] and verdicts_b[f] for f in FAMILIES}
    if sig_a is None or sig_b is None:
        assert sig is None
    else:
        assert sig == MatricialSignature(sig_a.field_blocks + sig_b.field_blocks,
                                         sig_a.laurent_blocks + sig_b.laurent_blocks)
    assert rank == (None if rank_a is None or rank_b is None else rank_a + rank_b)


@settings(max_examples=80, deadline=None)
@given(obj=objects(), data=st.data())
def test_out_splitting_in_s_keeps_the_algebra(obj, data):
    g = obj.graph
    candidates = [v for v in sorted(obj.s_set) if len(g.out_edges(v)) >= 2]
    assume(candidates)
    v = data.draw(st.sampled_from(candidates))
    _assert_same_algebra(out_split(obj, v, _split_groups(data.draw, g.out_edges(v))), obj)


@settings(max_examples=80, deadline=None)
@given(obj=objects())
def test_relative_graph_keeps_the_algebra(obj):
    _assert_same_algebra(obj.relative.leavitt, obj)


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), data=st.data())
def test_out_splitting_outside_s_changes_the_signature(rng, data):
    # the negative control: outside S, (SCK2) at v is not imposed, and each v^j
    # outside S heads a block of its own.  A new source x outside S with two or
    # three edges into a random no-exit object keeps it no-exit and gives the
    # draw at least one such v, with no draw filtered out.
    base = random_no_exit_object(rng)
    targets = data.draw(st.lists(st.sampled_from(sorted(base.graph.vertices)), min_size=2, max_size=3))
    obj = CLObject(Graph(sorted(base.graph.vertices) + ["x"],
                         list(base.graph.edges) + [(f"x{i}", "x", w) for i, w in enumerate(targets)]),
                   base.s_set)
    g = obj.graph
    candidates = [v for v in g.regular_vertices()
                  if v not in obj.s_set and len(g.out_edges(v)) >= 2]
    v = data.draw(st.sampled_from(candidates))
    groups = _split_groups(data.draw, g.out_edges(v))
    before, after = classify(obj), classify(out_split(obj, v, groups))
    assert after != before
    blocks = [len(s.field_blocks) + len(s.laurent_blocks) for s in (before, after)]
    assert blocks[1] == blocks[0] + len(groups) - 1


# -- the census -------------------------------------------------------------------


def census(max_vertices=3, max_edges=4):
    """Every object with 1 to ``max_vertices`` vertices and at most ``max_edges``
    edges (loops and parallel edges included) and every valid S, one per
    isomorphism class, the canonical form taken over all vertex permutations."""
    found = {}
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.product(range(n), repeat=2))
        perms = list(itertools.permutations(range(n)))
        for k in range(max_edges + 1):
            for edges in itertools.combinations_with_replacement(pairs, k):
                regular = sorted({a for a, _ in edges})
                for r in range(len(regular) + 1):
                    for s_set in itertools.combinations(regular, r):
                        key = min((tuple(sorted((p[a], p[b]) for a, b in edges)),
                                   tuple(sorted(p[v] for v in s_set))) for p in perms)
                        found.setdefault((n, key), (n, edges, s_set))
    objs = []
    for n, edges, s_set in found.values():
        vs = [f"v{i}" for i in range(n)]
        objs.append(CLObject(Graph(vs, [(f"e{i}", vs[a], vs[b]) for i, (a, b) in enumerate(edges)]),
                             [vs[v] for v in s_set]))
    return objs


@pytest.fixture(scope="module")
def census_objects():
    return census()


def test_census_counts(census_objects):
    assert len(census_objects) == 731
    assert sum(not no_exit_violations(obj) for obj in census_objects) == 150


def test_census_cross_command_facts(census_objects):
    # the patterns of family verdicts that the three predicates allow: acyclic
    # implies no-exit, and a finite nonempty acyclic graph has a sink
    allowed = {
        tuple(all(facts[p] for p in deciders) for _, deciders, _ in FAMILIES.values())
        for facts in ({"no_exit": n, "acyclic": a, "sink_free": s}
                      for n, a, s in ((False, False, False), (True, False, False),
                                      (True, False, True), (True, True, False)))
    }
    patterns = set()
    for obj in census_objects:
        g, rep = obj.graph, report(obj)
        verdicts = rep.family_verdicts()
        patterns.add(tuple(verdicts[f] for f in FAMILIES))
        # the predicates, read off the object itself
        assert rep.relative_acyclic == (not g.cycle_vertices)
        assert rep.relative_sink_free == (not g.sinks() and obj.s_set == set(g.regular_vertices()))
        sig = _signature(obj)
        assert (sig is not None) == (not no_exit_violations(obj)) == rep.relative_no_exit
        if sig is not None:
            assert verdicts["laurent_sum"] == (not sig.field_blocks)
            assert verdicts["sum_field"] == (not sig.laurent_blocks)
        assert atomic_cancellative_verdict(obj).atomic_cancellative == verdicts["projectives"]
        try:
            chain_witness(obj, "noetherian")
        except NoCycle:
            assert verdicts["noetherian"]
        else:
            assert not verdicts["noetherian"]
    assert patterns == allowed
