"""The support-pruned axiom check and the inclusion test against full oracles."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clpa.algebra import (
    AlgebraContext,
    AlgebraElement,
    check_generator_map,
    relative_generator_images,
)
from clpa.classify import build_generator_map, inclusion_injective
from clpa.errors import NotASubgraph
from clpa.gradedmat import DirectSum, GradedMatrix, GradedMatrixAlgebra
from clpa.graphs import CLObject, Graph, subobject_system
from clpa.reports import relgraph_verify
from clpa.scalars import QQ, PrimeField

from conftest import binary_tree, fan, random_no_exit_object, random_object

FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def reference_check(obj, images) -> tuple:
    """Every axiom instance at every ordered pair, equality by difference.

    The unpruned check, kept as an oracle: returns ``(failures,
    degree_failures)`` in the order and wording of ``check_generator_map``,
    including the instances that it proves instead of evaluating.
    """
    g = obj.graph
    failures = []

    def expect_zero(label, value):
        if not value.is_zero():
            failures.append(f"{label} is nonzero: {value}")

    def expect_equal(label, got, want):
        if not (got - want).is_zero():
            failures.append(f"{label}: {got} != {want}")

    verts = sorted(g.vertices)
    edges = sorted(g.edge_ids())
    ghosts = {e: images[e].star() for e in edges}
    for v in verts:
        expect_equal(f"(V*) {v}*={v}", images[v].star(), images[v])
    for v in verts:
        for w in verts:
            prod = images[v] * images[w]
            if v == w:
                expect_equal(f"(V) {v}*{v}={v}", prod, images[v])
            else:
                expect_zero(f"(V) {v}*{w}=0", prod)
    for e in edges:
        img, ghost = images[e], ghosts[e]
        expect_equal(f"(E1) s({e}){e}={e}", images[g.src(e)] * img, img)
        expect_equal(f"(E1) {e}r({e})={e}", img * images[g.rng(e)], img)
        expect_equal(f"(E2) r({e}){e}*={e}*", images[g.rng(e)] * ghost, ghost)
        expect_equal(f"(E2) {e}*s({e})={e}*", ghost * images[g.src(e)], ghost)
    for e in edges:
        for f in edges:
            prod = ghosts[e] * images[f]
            if e == f:
                expect_equal(f"(CK1) {e}*{e}=r({e})", prod, images[g.rng(e)])
            else:
                expect_zero(f"(CK1) {e}*{f}=0", prod)
    for v in sorted(obj.s_set):
        acc = None
        for e in g.out_edges(v):
            term = images[e] * ghosts[e]
            acc = term if acc is None else acc + term
        expect_equal(f"(SCK2) {v}=sum ee*", acc, images[v])

    degree_failures = []
    for v in verts:
        if not set(images[v].degree_components()) <= {0}:
            degree_failures.append(f"vertex {v}: image not homogeneous of degree 0")
    for e in edges:
        if not set(images[e].degree_components()) <= {1}:
            degree_failures.append(f"edge {e}: image not homogeneous of degree 1")
    return tuple(failures), tuple(degree_failures)


def implied_labels(obj) -> set:
    """The labels of the instances that ``check_generator_map`` proves from the others."""
    g = obj.graph
    labels = {f"(V) {v}*{v}={v}" for v in obj.s_set.union(map(g.rng, g.edge_ids()))}
    for e in g.edge_ids():
        labels |= {f"(E2) r({e}){e}*={e}*", f"(E2) {e}*s({e})={e}*"}
    return labels


def assert_matches_reference(obj, images):
    """The check reports the reference's failures at the instances it evaluates,
    and its verdict is the full reference's."""
    report = check_generator_map(obj, images)
    failures, degree_failures = reference_check(obj, images)
    implied = implied_labels(obj)
    evaluated = tuple(f for f in failures if f.split(": ", 1)[0] not in implied)
    assert (report.failures, report.degree_failures) == (evaluated, degree_failures)
    assert report.ok == (not failures and not degree_failures)
    return report


# -- the pruned check equals the full one -------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_pruned_check_matches_reference_on_classification_images(seed, data):
    obj = random_no_exit_object(random.Random(seed))
    gmap = build_generator_map(obj, field=data.draw(st.sampled_from(FIELDS)))
    images = dict(gmap.images)
    assert assert_matches_reference(obj, images).ok
    one = gmap.algebra.base.one
    verts = sorted(obj.graph.vertices)
    edges = sorted(obj.graph.edge_ids())

    # a unit of w's block added to v's image: v w meets w's support, so (V) fails
    if len(verts) >= 2:
        v, w = data.draw(st.permutations(verts))[:2]
        unit = data.draw(st.sampled_from(sorted(images[w].terms)))
        bad = dict(images)
        bad[v] = images[v] + GradedMatrix(gmap.algebra, {unit: one})
        report = assert_matches_reference(obj, bad)
        assert any(f.startswith(f"(V) {v}*{w}=0 is nonzero") for f in report.failures)

    # a scaled vertex image: (V) fails where it is evaluated, and elsewhere an
    # instance that implies it fails
    v = data.draw(st.sampled_from(verts))
    scaled = dict(images)
    scaled[v] = images[v].scale(gmap.algebra.base.from_int(2))
    assert_matches_reference(obj, scaled)

    if edges:
        e = data.draw(st.sampled_from(edges))
        # a stray unit anywhere in the direct sum
        block = data.draw(st.integers(0, len(gmap.blocks) - 1))
        alg = gmap.algebra.summands[block]
        i, j = (data.draw(st.integers(0, alg.size - 1)) for _ in range(2))
        k = data.draw(st.integers(-1, 1)) if alg.kind == "laurent" else 0
        stray = dict(images)
        stray[e] = images[e] + GradedMatrix(gmap.algebra, {(block, i, j, k): one})
        assert_matches_reference(obj, stray)
        # a scaled edge image
        scaled = dict(images)
        scaled[e] = images[e].scale(gmap.algebra.base.from_int(2))
        assert_matches_reference(obj, scaled)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_pruned_check_matches_reference_on_relative_images(seed, data):
    obj = random_object(random.Random(seed))
    rel, ctx, images = relative_generator_images(obj, data.draw(st.sampled_from(FIELDS)))
    target = rel.leavitt
    assert assert_matches_reference(target, images).ok
    verts = sorted(rel.graph.vertices)
    if len(verts) >= 2:
        v, w = data.draw(st.permutations(verts))[:2]
        bad = dict(images)
        bad[v] = images[v] + images[w]
        report = assert_matches_reference(target, bad)
        if not images[w].is_zero():
            assert any(f.startswith(f"(V) {v}*{w}=0 is nonzero") for f in report.failures)
    edges = sorted(rel.graph.edge_ids())
    if edges:
        e = data.draw(st.sampled_from(edges))
        scaled = dict(images)
        scaled[e] = images[e].scale(ctx.field.from_int(2))
        assert_matches_reference(target, scaled)


class TestVertexImages:
    # an isolated vertex is neither a range nor in S: (V*) and (V) v*v=v are
    # the only instances that can fail there, and both are evaluated
    def test_self_adjoint_non_idempotent_image(self):
        algebra = DirectSum((GradedMatrixAlgebra("field", 1, (0,)),))
        obj = CLObject(Graph(["v"], []), [])
        report = assert_matches_reference(obj, {"v": algebra.unit(0, 0, 0).scale(2)})
        assert [f.split(":")[0] for f in report.failures] == ["(V) v*v=v"]

    # an idempotent of degree 0 that is not its own star is no *-homomorphic image
    def test_non_self_adjoint_idempotent_in_a_field_block(self):
        algebra = DirectSum((GradedMatrixAlgebra("field", 2, (0, 0)),))
        p = algebra.unit(0, 0, 0) + algebra.unit(0, 0, 1)
        assert p * p == p
        obj = CLObject(Graph(["v"], []), [])
        report = assert_matches_reference(obj, {"v": p})
        assert [f.split(":")[0] for f in report.failures] == ["(V*) v*=v"]
        assert not report.degree_failures

    def test_non_self_adjoint_idempotent_algebra_element(self):
        # e e* + e f* in the Cohn algebra of two edges v -> u
        ctx = AlgebraContext(CLObject(Graph(["v", "u"], [("e", "v", "u"), ("f", "v", "u")]), []))
        p = ctx.edge("e") * ctx.ghost("e") + ctx.edge("e") * ctx.ghost("f")
        assert p * p == p and set(p.degree_components()) == {0}
        obj = CLObject(Graph(["w"], []), [])
        report = assert_matches_reference(obj, {"w": p})
        assert [f.split(":")[0] for f in report.failures] == ["(V*) w*=w"]


class TestImagesInOneAlgebra:
    def test_disjoint_images_in_two_contexts(self):
        # no product meets both contexts, so only the zero() comparison sees them
        obj = CLObject(Graph(["v", "w"], []), [])
        images = {"v": AlgebraContext(obj).vertex("v"),
                  "w": AlgebraContext(obj, PrimeField(3)).vertex("w")}
        report = check_generator_map(obj, images)
        assert report.failures == ("image of w lies in another algebra than the image of v",)

    def test_edge_image_in_another_direct_sum(self):
        obj = fan(1, s_on=True)
        images = dict(build_generator_map(obj).images)
        other = build_generator_map(obj, field=PrimeField(3)).algebra
        images["e1"] = GradedMatrix(other, {u: other.base.one for u in images["e1"].terms})
        report = check_generator_map(obj, images)
        assert report.failures == ("image of e1 lies in another algebra than the image of u1",)
        assert not report.degree_failures


# -- product counts ------------------------------------------------------------


def _count_products(monkeypatch) -> list:
    calls = [0]
    for cls in (GradedMatrix, AlgebraElement):
        original = cls.__mul__

        def counted(a, b, original=original):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
    return calls


class TestProductCounts:
    # binary tree of depth 5: 63 vertices, 62 edges, S = the internal vertices
    def test_check_generator_map_is_linear_on_a_tree(self, monkeypatch):
        obj = binary_tree(5)[0]
        images = build_generator_map(obj).images
        calls = _count_products(monkeypatch)
        assert check_generator_map(obj, images).ok
        # two (E1), one (CK1) and one (SCK2) product per edge; every vertex is a
        # range or in S, so no (V) product is evaluated
        assert calls[0] == 4 * len(obj.graph.edges) == 248

    def test_relgraph_verify_is_linear_on_a_tree(self, monkeypatch):
        obj = binary_tree(5)[0]
        calls = _count_products(monkeypatch)
        assert relgraph_verify(obj).ok
        g = obj.graph
        # as above, plus the (CK1) pairs of distinct edges with a common source,
        # whose supports meet; the images themselves are built with no product
        siblings = sum(len(g.out_edges(v)) * (len(g.out_edges(v)) - 1) for v in g.vertices)
        assert calls[0] == 4 * len(g.edges) + siblings == 310


# -- inclusion_injective -----------------------------------------------------


def reference_inclusion(sub, gmap) -> tuple:
    """The full axiom pass on the restricted images, then graded uniqueness."""
    g = sub.graph
    psi = {x: gmap.images[x] for x in sorted(g.vertices) + sorted(g.edge_ids())}
    failures, degree_failures = reference_check(sub, psi)
    conditions = [psi[v] for v in sorted(g.vertices)]
    for v in g.regular_vertices():
        if v not in sub.s_set:
            gap = psi[v]
            for e in g.out_edges(v):
                gap = gap - psi[e] * psi[e].star()
            conditions.append(gap)
    nonzero = sum(not x.is_zero() for x in conditions)
    ok = not failures and not degree_failures and nonzero == len(conditions)
    return ok, len(conditions), nonzero


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_inclusion_matches_full_axiom_pass_on_every_subobject(seed):
    obj = random_no_exit_object(random.Random(seed))
    # the subobject system grows exponentially: up to 34 500 nodes at 11 vertices
    assume(len(obj.graph.vertices) <= 6)
    gmap = build_generator_map(obj)
    for node in subobject_system(obj).nodes:
        assert inclusion_injective(node, gmap) == reference_inclusion(node, gmap)


@pytest.mark.parametrize("sub", [
    CLObject(fan(2).graph, []),
    CLObject(Graph(["v", "u1"], [("e1", "v", "u1")]), ["v"]),
], ids=["relation_dropped", "relation_on_one_edge"])
def test_inclusion_matches_full_axiom_pass_on_rejects(sub):
    gmap = build_generator_map(fan(2, s_on=True))
    assert inclusion_injective(sub, gmap) == reference_inclusion(sub, gmap)


class TestInclusionNeedsASubgraph:
    # fan(2) with S = {v}: v -> u1 by e1, v -> u2 by e2
    def test_unknown_vertex(self):
        gmap = build_generator_map(fan(2, s_on=True))
        sub = CLObject(Graph(["v", "z"], []), [])
        with pytest.raises(NotASubgraph):
            inclusion_injective(sub, gmap)

    def test_edge_with_another_range(self):
        gmap = build_generator_map(fan(2, s_on=True))
        sub = CLObject(Graph(["v", "u1", "u2"], [("e1", "v", "u2"), ("e2", "v", "u2")]),
                       ["v"])
        with pytest.raises(NotASubgraph):
            inclusion_injective(sub, gmap)
