"""Signatures, verified generator maps, and annotated subobject systems."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpa.algebra import AlgebraContext, check_generator_map
from clpa.classify import (
    GeneratorMap,
    _verify_generator_map,
    blocks_of,
    build_generator_map,
    classify,
    classify_system,
    inclusion_injective,
    no_exit_violations,
    uniqueness_conditions,
)
from clpa.errors import ClassificationBug, NotNoExitObject
from clpa.gradedmat import DirectSum, GradedMatrix, GradedMatrixAlgebra, MatricialSignature
from clpa.graphs import CLObject, Graph
from clpa.scalars import QQ, PrimeField

from conftest import (
    NO_EXIT_CORPUS,
    comet,
    cycle,
    cycle_with_tail,
    fan,
    loop,
    loop_plus_sink,
    random_no_exit_object,
    rose,
    single_sink,
    tree,
)
from oracles import monomial_independence


class TestNoExitObjectCheck:
    def test_loop_with_relation(self):
        assert no_exit_violations(loop()) == []

    def test_loop_without_relation_fails_cycle_condition(self):
        assert any("not in S" in v for v in no_exit_violations(loop(False)))

    def test_rose_fails_no_exit(self):
        assert any("bifurcation" in v for v in no_exit_violations(rose()))

    def test_classify_rejects_bad_objects(self):
        with pytest.raises(NotNoExitObject):
            classify(rose())
        with pytest.raises(NotNoExitObject):
            build_generator_map(loop(False))


class TestSignatures:
    def test_fan_reproduces_known_decomposition(self):
        for n in range(1, 6):
            sig = classify(fan(n))
            expected = MatricialSignature(
                tuple([(2, (0, 1))] * n + [(1, (0,))]), ()
            )
            assert sig == expected

    def test_loop_is_laurent_line(self):
        assert classify(loop()) == MatricialSignature((), ((1, 1, (0,)),))

    def test_two_cycle(self):
        assert classify(cycle(2)) == MatricialSignature((), ((2, 2, (0, 1)),))

    def test_single_sink(self):
        assert classify(single_sink()) == MatricialSignature(((1, (0,)),), ())

    def test_loop_plus_sink_has_one_block_each(self):
        sig = classify(NO_EXIT_CORPUS["loop_plus_sink"]())
        assert sig == MatricialSignature(((1, (0,)),), ((1, 1, (0,)),))

    def test_acyclic_no_laurent_blocks(self):
        for obj in (fan(3), tree(), single_sink()):
            assert classify(obj).laurent_blocks == ()

    def test_sink_free_full_relations_no_field_blocks(self):
        for obj in (loop(), cycle(2), cycle(3), comet()):
            assert classify(obj).field_blocks == ()

    def test_relabel_invariance(self):
        obj = cycle_with_tail()
        mapping = {"x": "z9", "v1": "m", "v2": "a", "t": "k1", "a": "k2", "b": "k3"}
        g = obj.graph
        relabeled = CLObject(
            Graph(
                [mapping[v] for v in g.vertices],
                [(mapping[e], mapping[g.src(e)], mapping[g.rng(e)]) for e in g.edge_ids()],
            ),
            [mapping[v] for v in obj.s_set],
        )
        assert classify(obj) == classify(relabeled)

    def test_relabel_invariance_randomized(self):
        rng = random.Random(101)
        for _ in range(15):
            obj = random_no_exit_object(rng)
            g = obj.graph
            names = sorted(g.vertices) + sorted(g.edge_ids())
            perm = [f"n{i}" for i in range(len(names))]
            rng.shuffle(perm)
            mapping = dict(zip(names, perm))
            relabeled = CLObject(
                Graph(
                    [mapping[v] for v in g.vertices],
                    [
                        (mapping[e], mapping[g.src(e)], mapping[g.rng(e)])
                        for e in g.edge_ids()
                    ],
                ),
                [mapping[v] for v in obj.s_set],
            )
            assert classify(obj) == classify(relabeled)

    def test_block_sizes_match_path_counts(self):
        rng = random.Random(55)
        for _ in range(15):
            obj = random_no_exit_object(rng)
            blocks = blocks_of(obj)
            g = obj.graph
            unrelated = set(g.regular_vertices()) - set(obj.s_set)
            assert len(blocks) == len(g.sinks()) + len(unrelated) + len(g.cycles)
            for b in blocks:
                assert b.size == len(b.paths) == len(b.shifts)


def comet_into_cycle(tail: int, length: int):
    """A tail x0 -> ... -> x(tail-1) into a cycle of the given length, S = all."""
    ring = [f"c{i}" for i in range(length)]
    vs = [f"x{i}" for i in range(tail)] + ring
    es = [(f"t{i}", f"x{i}", f"x{i + 1}" if i + 1 < tail else ring[0]) for i in range(tail)]
    es += [(f"a{i}", ring[i], ring[(i + 1) % length]) for i in range(length)]
    return CLObject(Graph(vs, es), vs)


def binary_tree(depth: int):
    """The complete binary tree of the given depth, S = the internal vertices."""
    vs, es, level = ["r"], [], ["r"]
    for _ in range(depth):
        level = [v + b for v in level for b in "01"]
        vs += level
        es += [("e" + w, w[:-1], w) for w in level]
    return CLObject(Graph(vs, es), [v for v in vs if len(v) <= depth])


class TestLargeObjects:
    def test_long_path_classifies(self):
        n = 2000
        vs = [f"x{i}" for i in range(n)]
        obj = CLObject(Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]),
                       vs[:-1])
        sig = classify(obj)
        assert sig.laurent_blocks == ()
        assert sig.field_blocks == ((n, tuple(range(n))),)

    @pytest.mark.parametrize("obj, sizes", [
        (comet_into_cycle(8, 3), [("cycle", 11)]),
        (binary_tree(4), [("sink", 5)] * 16),
    ], ids=["comet8-3", "tree4"])
    def test_generator_map_at_scale(self, obj, sizes):
        # build_generator_map verifies every axiom, unit and degree itself
        gmap = build_generator_map(obj)
        assert [(b.kind, b.size) for b in gmap.blocks] == sizes
        one = gmap.ctx.field.one
        for img in gmap.images.values():
            assert all(a == one for a in img.terms.values())


class TestGeneratorMaps:
    def test_fan_images_match_known_map(self):
        for n in (1, 3):
            obj = fan(n)
            gmap = build_generator_map(obj)
            # block order: sinks u1..un, then the unrelated source v
            for i in range(1, n + 1):
                u_img = gmap.evaluate(gmap.ctx.vertex(f"u{i}"))
                assert u_img == gmap.algebra.unit(i - 1, 0, 0)
                e_img = gmap.evaluate(gmap.ctx.edge(f"e{i}"))
                assert e_img == gmap.algebra.unit(i - 1, 1, 0)
            v_img = gmap.evaluate(gmap.ctx.vertex("v"))
            expected = gmap.algebra.unit(n, 0, 0)
            for i in range(n):
                expected = expected + gmap.algebra.unit(i, 1, 1)
            assert v_img == expected

    def test_loop_map(self):
        gmap = build_generator_map(loop())
        assert gmap.evaluate(gmap.ctx.vertex("v")) == gmap.algebra.unit(0, 0, 0)
        assert gmap.evaluate(gmap.ctx.edge("c")) == gmap.algebra.unit(0, 0, 0, tpow=1)

    def test_chain_leavitt_map(self):
        obj = CLObject(Graph(["u", "v"], [("g", "u", "v")]), ["u"])
        gmap = build_generator_map(obj)
        assert gmap.evaluate(gmap.ctx.vertex("v")) == gmap.algebra.unit(0, 0, 0)
        assert gmap.evaluate(gmap.ctx.vertex("u")) == gmap.algebra.unit(0, 1, 1)
        assert gmap.evaluate(gmap.ctx.edge("g")) == gmap.algebra.unit(0, 1, 0)

    def test_corpus_maps_verify(self, no_exit_object):
        # build_generator_map raises on any axiom/surjectivity/degree failure
        gmap = build_generator_map(no_exit_object)
        assert gmap.images

    def test_corpus_maps_verify_gf5(self, no_exit_object):
        gmap = build_generator_map(no_exit_object, field=PrimeField(5))
        assert gmap.images

    def test_signature_cross_check(self):
        obj = cycle_with_tail()
        assert build_generator_map(obj, sig=classify(obj)).blocks == blocks_of(obj)
        with pytest.raises(ValueError, match="does not match"):
            build_generator_map(obj, sig=classify(fan(2)))

    def test_random_objects_verify(self):
        rng = random.Random(77)
        for _ in range(20):
            obj = random_no_exit_object(rng)
            build_generator_map(obj)

    def test_monomial_independence_on_corpus(self, no_exit_object):
        gmap = build_generator_map(no_exit_object)
        ok, count, rank = monomial_independence(gmap.ctx, gmap.images, max_each=3)
        assert ok, f"rank {rank} < {count}"


@pytest.mark.parametrize("obj", [fan(2), cycle_with_tail(), loop_plus_sink()],
                         ids=["fan2", "cycle_with_tail", "loop_plus_sink"])
class TestVerifierRejects:
    def test_block_no_generator_reaches(self, obj):
        # a copy of the last block with zero images in it: the axioms still
        # hold, but none of its units is hit
        gmap = build_generator_map(obj)
        algebra = DirectSum(gmap.algebra.summands + gmap.algebra.summands[-1:],
                            gmap.algebra.base)
        images = {x: GradedMatrix(algebra, img.terms) for x, img in gmap.images.items()}
        bad = GeneratorMap(obj, gmap.ctx, gmap.blocks + gmap.blocks[-1:], algebra, images)
        assert check_generator_map(obj, images).ok
        with pytest.raises(ClassificationBug,
                           match=rf"unit e\[{len(gmap.blocks)}\]_00 t\^0 is not hit"):
            _verify_generator_map(bad)

    def test_edge_image_missing_a_unit(self, obj):
        gmap = build_generator_map(obj)
        dropped = 0
        for e in sorted(obj.graph.edge_ids()):
            img = gmap.images[e]
            for unit in img.terms:
                images = {**gmap.images, e: GradedMatrix(img.algebra, {
                    u: a for u, a in img.terms.items() if u != unit})}
                bad = GeneratorMap(obj, gmap.ctx, gmap.blocks, gmap.algebra, images)
                with pytest.raises(ClassificationBug, match="fails axioms"):
                    _verify_generator_map(bad)
                dropped += 1
        assert dropped > 0


@pytest.mark.parametrize("obj", [fan(2), cycle_with_tail()], ids=["fan2", "cycle_with_tail"])
def test_block_shifts_not_a_translation_fail_degrees(obj):
    # the same units in a block whose shifts moved by i at index i: the
    # products still hold, so only the degree check can catch it
    gmap = build_generator_map(obj)
    changed = 0
    for bi, alg in enumerate(gmap.algebra.summands):
        if alg.size < 2:
            continue
        moved = GradedMatrixAlgebra(alg.kind, alg.size,
                                    tuple(g + i for i, g in enumerate(alg.shifts)),
                                    alg.period, alg.base)
        summands = list(gmap.algebra.summands)
        summands[bi] = moved
        algebra = DirectSum(tuple(summands), gmap.algebra.base)
        images = {x: GradedMatrix(algebra, img.terms) for x, img in gmap.images.items()}
        report = check_generator_map(obj, images)
        assert not report.failures and report.degree_failures
        bad = GeneratorMap(obj, gmap.ctx, gmap.blocks, algebra, images)
        with pytest.raises(ClassificationBug,
                           match="fails axioms: .*image not homogeneous of degree"):
            _verify_generator_map(bad)
        changed += 1
    assert changed > 0


def _three_block_object():
    # u -> w (sink) and u -> v (loop c, v in S): one sink, one unrelated and
    # one cycle block
    return CLObject(Graph(["u", "v", "w"], [("c", "v", "v"), ("e", "u", "w"),
                                            ("f", "u", "v")]), ["v"])


def _projections(gmap):
    """The zero map, then each map that drops one block of ``gmap``'s images."""
    yield "zero", {x: img.zero() for x, img in gmap.images.items()}
    for bi in range(len(gmap.blocks)):
        yield f"drop block {bi}", {x: GradedMatrix(img.algebra, {
            u: a for u, a in img.terms.items() if u[0] != bi}) for x, img in gmap.images.items()}


class TestInjectivityStep:
    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
    def test_homomorphisms_with_a_kernel_fail_injectivity(self, field):
        obj = _three_block_object()
        gmap = build_generator_map(obj, field=field)
        assert sorted(b.kind for b in gmap.blocks) == ["cycle", "sink", "unrelated"]
        seen = 0
        for name, images in _projections(gmap):
            # still a graded *-homomorphism, so only the uniqueness step can catch it
            assert check_generator_map(obj, images).ok, name
            bad = GeneratorMap(obj, gmap.ctx, gmap.blocks, gmap.algebra, images)
            with pytest.raises(ClassificationBug, match="is not injective") as info:
                _verify_generator_map(bad)
            assert "is not hit" not in str(info.value), name
            seen += 1
        assert seen == 1 + len(gmap.blocks)

    def test_names_the_vanishing_condition(self):
        obj = _three_block_object()
        gmap = build_generator_map(obj)
        unrelated = next(i for i, b in enumerate(gmap.blocks) if b.kind == "unrelated")
        images = dict(_projections(gmap))[f"drop block {unrelated}"]
        bad = GeneratorMap(obj, gmap.ctx, gmap.blocks, gmap.algebra, images)
        with pytest.raises(ClassificationBug,
                           match=r"phi\(u\) - sum of phi\(e\) phi\(e\)\* over s\(e\) = u is 0"):
            _verify_generator_map(bad)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_maps_meet_every_condition(self, seed):
        obj = random_no_exit_object(random.Random(seed))
        gmap = build_generator_map(obj)
        conditions = uniqueness_conditions(obj.graph, obj.s_set, gmap.images)
        regular_outside = [v for v in obj.graph.regular_vertices() if v not in obj.s_set]
        assert len(conditions) == len(obj.graph.vertices) + len(regular_outside)
        assert all(not x.is_zero() for x in conditions.values())


class TestClassifySystem:
    def test_fan_chain_of_signatures(self):
        result = classify_system(fan(3))
        sig_of = dict(zip(result.system.nodes, result.signatures))
        for k in (1, 2, 3):
            node = CLObject(
                Graph(
                    ["v"] + [f"u{i}" for i in range(1, k + 1)],
                    [(f"e{i}", "v", f"u{i}") for i in range(1, k + 1)],
                ),
                [],
            )
            expected = MatricialSignature(tuple([(2, (0, 1))] * k + [(1, (0,))]), ())
            assert sig_of[node] == expected
        assert result.top_signature == classify(fan(3))

    def test_injectivity_proved_everywhere(self):
        result = classify_system(fan(3))
        for ok, conditions, nonzero in result.injectivity:
            assert ok and conditions == nonzero

    def test_single_sink_system(self):
        result = classify_system(single_sink())
        assert len(result.system.nodes) == 2
        assert result.top_signature == MatricialSignature(((1, (0,)),), ())

    def test_disjoint_loop_and_sink(self):
        result = classify_system(NO_EXIT_CORPUS["loop_plus_sink"]())
        assert result.top_signature == MatricialSignature(((1, (0,)),), ((1, 1, (0,)),))
        for ok, _, _ in result.injectivity:
            assert ok

    def test_rejects_bad_objects(self):
        with pytest.raises(NotNoExitObject, match="cycle vertex v is a bifurcation"):
            classify_system(rose())
        with pytest.raises(NotNoExitObject, match="cycle vertex v is not in S"):
            classify_system(loop(False))
        # each vertex is named once per reason, however many cycles pass through it
        with pytest.raises(NotNoExitObject) as raised:
            classify_system(rose(3))
        assert str(raised.value) == "cycle vertex v is a bifurcation (the cycle has an exit)"
        two_loops = CLObject(Graph(["v", "u"], [("a", "u", "u"), ("b", "u", "v"), ("c", "v", "u"),
                                                ("d", "v", "v")]), ["u"])
        with pytest.raises(NotNoExitObject) as raised:
            classify_system(two_loops)
        assert str(raised.value) == (
            "cycle vertex u is a bifurcation (the cycle has an exit); "
            "cycle vertex v is a bifurcation (the cycle has an exit); "
            "cycle vertex v is not in S")


SMALL_NO_EXIT = sorted(name for name, make in NO_EXIT_CORPUS.items()
                       if len(make().graph.vertices) <= 4)


@pytest.mark.parametrize("name", SMALL_NO_EXIT)
def test_injectivity_agrees_with_rank_oracle(name):
    # bounded oracle: the ambient images of each node's normal monomials with
    # paths of length <= 2 are linearly independent
    obj = NO_EXIT_CORPUS[name]()
    result = classify_system(obj)
    images = build_generator_map(obj).images
    assert len(result.injectivity) == len(result.system.nodes)
    for node, (ok, conditions, nonzero) in zip(result.system.nodes, result.injectivity):
        assert ok and nonzero == conditions == len(node.graph.vertices) + len(
            [v for v in node.graph.regular_vertices() if v not in node.s_set])
        assert _independent_images(node, images), node


def _independent_images(node, images) -> bool:
    return monomial_independence(AlgebraContext(node), images, max_each=2)[0]


class TestInclusionRejects:
    # fan(2) with S = {v}: v -> u1 by e1, v -> u2 by e2
    def test_relation_dropped_is_not_injective(self):
        ambient = fan(2, s_on=True)
        gmap = build_generator_map(ambient)
        sub = CLObject(ambient.graph, [])
        # (F, {}) satisfies the axioms, but v - e1 e1* - e2 e2* maps to 0
        ok, conditions, nonzero = inclusion_injective(sub, gmap)
        assert (ok, conditions, nonzero) == (False, 4, 3)
        assert not _independent_images(sub, gmap.images)

    def test_relation_on_one_edge_fails_axioms(self):
        ambient = fan(2, s_on=True)
        gmap = build_generator_map(ambient)
        sub = CLObject(Graph(["v", "u1"], [("e1", "v", "u1")]), ["v"])
        # v = e1 e1* fails; every image is still nonzero
        ok, conditions, nonzero = inclusion_injective(sub, gmap)
        assert (ok, conditions, nonzero) == (False, 2, 2)
