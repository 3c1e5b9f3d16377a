"""Normal forms, products, involution, grading, and generator-map checking."""

import random
from fractions import Fraction

import pytest

from clpa.algebra import (
    AlgebraContext,
    Monomial,
    check_generator_map,
    evaluate_element,
    is_idempotent,
)
from clpa.errors import ContextMismatch, IncompleteMap, NonFiniteEnumeration
from clpa.graphs import Graph, Path
from clpa.scalars import QQ, LaurentPoly, PrimeField

from conftest import chain, fan, loop, random_element, rose, tree
from oracles import all_paths, normal_monomials


def ctx_of(obj, field=QQ):
    return AlgebraContext(obj, field)


class TestNormalForm:
    def test_loop_full_relation_rewrites(self):
        ctx = ctx_of(loop())
        c = ctx.graph.make_path(["c"])
        assert ctx.monomial(c, c) == ctx.vertex("v")

    def test_loop_without_relation_is_irreducible(self):
        ctx = ctx_of(loop(False))
        c = ctx.graph.make_path(["c"])
        el = ctx.monomial(c, c)
        assert el.terms == ((Monomial(c, c), Fraction(1)),)

    def test_bifurcation_rewrite(self):
        # v emits e1, e2 to sinks; special edge is e1, so e1 e1* = v - e2 e2*
        ctx = ctx_of(fan(2, s_on=True))
        e1 = ctx.graph.make_path(["e1"])
        e2 = ctx.graph.make_path(["e2"])
        got = ctx.monomial(e1, e1)
        assert got == ctx.vertex("v") - ctx.monomial(e2, e2)

    def test_special_edge_is_lex_smallest(self):
        ctx = ctx_of(rose())
        assert ctx.special_edge("v") == "c1"

    def test_chosen_special_edge(self):
        # with e2 special, e2 e2* = v - e1 e1*; the two contexts do not mix
        obj = fan(2, s_on=True)
        ctx = AlgebraContext(obj, QQ, (("v", "e2"),))
        assert ctx.special_edge("v") == "e2" and ctx != ctx_of(obj)
        e1, e2 = (ctx.graph.make_path([e]) for e in ("e1", "e2"))
        assert ctx.monomial(e1, e1).terms == ((Monomial(e1, e1), Fraction(1)),)
        assert ctx.monomial(e2, e2) == ctx.vertex("v") - ctx.monomial(e1, e1)
        with pytest.raises(ContextMismatch):
            ctx.vertex("v") + ctx_of(obj).vertex("v")

    def test_rewrite_terminates_on_nested_tails(self):
        ctx = ctx_of(rose())
        c1 = ctx.graph.make_path(["c1", "c1"])
        el = ctx.monomial(c1, c1)
        # fixed point: no term of the result ends in the special edge twice
        for m, _ in el.terms:
            assert ctx.is_normal(m)

    def test_order_independence(self):
        ctx = ctx_of(fan(3, s_on=True))
        rng = random.Random(3)
        raw = []
        for _ in range(6):
            x = random_element(ctx, rng)
            raw.extend((c, m) for m, c in x.terms)
        expect = ctx.from_raw(raw)
        for seed in range(5):
            shuffled = raw[:]
            random.Random(seed).shuffle(shuffled)
            assert ctx.from_raw(shuffled) == expect


class TestMultiplication:
    def test_ghost_edge_gives_range(self):
        ctx = ctx_of(fan(2))
        assert ctx.ghost("e1") * ctx.edge("e1") == ctx.vertex("u1")

    def test_distinct_ghost_kills(self):
        ctx = ctx_of(fan(2))
        assert (ctx.ghost("e1") * ctx.edge("e2")).is_zero()

    def test_vertices_are_orthogonal_idempotents(self):
        ctx = ctx_of(fan(2))
        assert is_idempotent(ctx.vertex("v"))
        u1, u2 = ctx.vertex("u1"), ctx.vertex("u2")
        assert (u1 * u2).is_zero() and (u2 * u1).is_zero()

    def test_loop_projection_collapses(self):
        ctx = ctx_of(loop())
        c = ctx.graph.make_path(["c"])
        cc = ctx.monomial(c, c)
        assert cc * cc == ctx.vertex("v")

    def test_unit_is_identity(self):
        ctx = ctx_of(tree())
        one = ctx.unit()
        rng = random.Random(17)
        for _ in range(10):
            x = random_element(ctx, rng)
            assert one * x == x and x * one == x

    def test_context_mismatch(self):
        a = ctx_of(loop()).vertex("v")
        b = ctx_of(rose()).vertex("v")
        with pytest.raises(ContextMismatch):
            a * b

    def test_rose_projection_chain(self):
        ctx = ctx_of(rose())
        c = ctx.path_element(["c1"])
        p = [None]
        for n in range(1, 4):
            power = ctx.vertex("v")
            for _ in range(n):
                power = power * c
            p.append(power * power.star())
        assert is_idempotent(p[1]) and is_idempotent(p[2])
        assert p[1] * p[2] == p[2]
        assert p[1] != p[2]


LAW_GRAPHS = {
    "fan2_leavitt": fan(2, s_on=True),
    "loop": loop(),
    "rose2": rose(),
    "tree": tree(),
    "chain": chain(),
}


@pytest.mark.parametrize("name", sorted(LAW_GRAPHS))
class TestAlgebraLaws:
    def test_associativity(self, name):
        ctx = ctx_of(LAW_GRAPHS[name])
        rng = random.Random(hash(name) % 10**6)
        for _ in range(200):
            a, b, c = (random_element(ctx, rng, max_len=2) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_involution_antimultiplicative_order_two(self, name):
        ctx = ctx_of(LAW_GRAPHS[name])
        rng = random.Random(hash(name) % 10**6 + 1)
        for _ in range(100):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            assert (a * b).star() == b.star() * a.star()
            assert a.star().star() == a

    def test_grading_multiplicative(self, name):
        ctx = ctx_of(LAW_GRAPHS[name])
        rng = random.Random(hash(name) % 10**6 + 2)
        for _ in range(100):
            x = random_element(ctx, rng)
            for dx, part_x in x.degree_components().items():
                for dy, part_y in random_element(ctx, rng).degree_components().items():
                    prod = part_x * part_y
                    assert prod.is_zero() or set(prod.degree_components()) == {dx + dy}

    def test_star_negates_degrees(self, name):
        ctx = ctx_of(LAW_GRAPHS[name])
        rng = random.Random(hash(name) % 10**6 + 3)
        for _ in range(50):
            x = random_element(ctx, rng)
            assert set(x.star().degree_components()) == {
                -d for d in x.degree_components()
            }


class TestHomogeneousComponents:
    def test_loop_power_degree(self):
        ctx = ctx_of(loop())
        c2 = ctx.path_element(["c", "c"])
        x = c2 * ctx.path_element(["c"]).star()
        assert set(x.degree_components()) == {1}

    def test_mixed_degrees_split(self):
        ctx = ctx_of(chain())
        x = ctx.vertex("u") + ctx.edge("g")
        comps = x.degree_components()
        assert set(comps) == {0, 1}
        assert comps[0] == ctx.vertex("u") and comps[1] == ctx.edge("g")
        assert sum(comps.values(), ctx.zero_element()) == x

    def test_gf2_coefficients(self):
        ctx = ctx_of(fan(2, s_on=True), PrimeField(2))
        e1 = ctx.graph.make_path(["e1"])
        got = ctx.monomial(e1, e1)
        # over GF(2): e1 e1* = v + e2 e2*
        e2 = ctx.graph.make_path(["e2"])
        assert got == ctx.vertex("v") + ctx.monomial(e2, e2)


class TestCohnDimension:
    def test_no_rewriting_for_empty_s(self):
        # with S empty the monomial count is exactly #{(p,q) : r(p) = r(q)}
        for obj in (fan(2), fan(3), chain(False)):
            ctx = ctx_of(obj)
            paths = all_paths(obj.graph)
            by_range = {}
            for p in paths:
                by_range.setdefault(obj.graph.path_range(p), []).append(p)
            expected = sum(len(group) ** 2 for group in by_range.values())
            assert len(normal_monomials(ctx)) == expected

    def test_unbounded_enumeration_needs_acyclic(self):
        with pytest.raises(NonFiniteEnumeration):
            all_paths(loop().graph)


class TestGeneratorMapChecking:
    def test_loop_into_laurent_ring(self):
        obj = loop()
        one = LaurentPoly.constant(Fraction(1), 1, QQ)
        t = LaurentPoly.t_power(1, 1, QQ)
        report = check_generator_map(obj, {"v": one, "c": t})
        assert report.ok

    def test_wrong_degree_detected(self):
        obj = loop()
        one = LaurentPoly.constant(Fraction(1), 1, QQ)
        t2 = LaurentPoly.t_power(2, 1, QQ)
        report = check_generator_map(obj, {"v": one, "c": t2})
        assert not report.ok and report.degree_failures

    def test_broken_relation_detected(self):
        obj = loop()
        one = LaurentPoly.constant(Fraction(1), 1, QQ)
        half = one.scale(Fraction(1, 2))
        report = check_generator_map(obj, {"v": one, "c": half})
        assert any("(CK1)" in f or "(SCK2)" in f for f in report.failures)

    def test_missing_image(self):
        with pytest.raises(IncompleteMap):
            check_generator_map(loop(), {"v": LaurentPoly.constant(Fraction(1), 1, QQ)})

    def test_identity_map_on_algebra(self):
        obj = tree()
        ctx = ctx_of(obj)
        images = {v: ctx.vertex(v) for v in obj.graph.vertices}
        images.update({e: ctx.edge(e) for e in obj.graph.edge_ids()})
        report = check_generator_map(obj, images)
        assert report.ok

    def test_evaluate_element_is_multiplicative_for_identity(self):
        obj = fan(2, s_on=True)
        ctx = ctx_of(obj)
        images = {v: ctx.vertex(v) for v in obj.graph.vertices}
        images.update({e: ctx.edge(e) for e in obj.graph.edge_ids()})
        rng = random.Random(29)
        for _ in range(20):
            x = random_element(ctx, rng)
            assert evaluate_element(x, images) == x


class TestPathsHelpers:
    def test_all_paths_bounded(self):
        paths = all_paths(loop().graph, 3)
        assert [len(p) for p in paths] == [0, 1, 2, 3]

    def test_trivial_path_str(self):
        assert str(Path("v")) == "v"
        g = Graph(["a", "b"], [("e", "a", "b")])
        assert str(g.make_path(["e"])) == "e"
