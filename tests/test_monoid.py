"""Monoid presentations, the word problem and its completion, verdicts, and witnesses."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clpa.monoid as monoid_mod
from clpa._linalg import nullspace_basis
from clpa.errors import NotAnExit
from clpa.graphs import CLObject, Graph
from clpa.monoid import (
    MonoidElement,
    atomic_cancellative_verdict,
    cancellation_witness,
    equal,
    invariant_value,
    path_count_invariant,
    presentation,
    relations_preserved,
)
from clpa.scalars import QQ

from conftest import (
    NO_EXIT_CORPUS,
    binary_tree,
    cycle_with_exit,
    fan,
    loop,
    loop_with_exit,
    random_no_exit_object,
    random_object,
    rose,
    single_sink,
)
from oracles import completion_confluent, move_search


class TestMonoidElement:
    def test_repeated_generators_add_up(self):
        assert MonoidElement((("a", 1), ("a", 1))) == MonoidElement.of("a", "a")
        assert MonoidElement((("b", 2), ("a", 1), ("b", 3))).counts == (("a", 1), ("b", 5))
        assert MonoidElement((("a", 1), ("a", 0))).counts == (("a", 1),)
        assert MonoidElement.of("a", "b") + MonoidElement.of("a") == MonoidElement.of("b", "a", "a")

    @pytest.mark.parametrize("m", [1.5, 2.0, "2", True, None], ids=repr)
    def test_multiplicity_must_be_an_int(self, m):
        with pytest.raises(ValueError, match="must be an int"):
            MonoidElement((("a", m),))


class TestOnePresentationPerObject:
    def test_built_once_and_kept(self):
        obj = fan(2, s_on=True)
        assert presentation(obj) is presentation(obj)

    def test_equal_objects_get_their_own(self):
        # kept in the instance dict, like CLObject.relative: equality, hashing
        # and repr ignore it
        a, b = loop_with_exit(), loop_with_exit()
        pres = presentation(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert presentation(b) is not pres and presentation(b) == pres

    @pytest.mark.parametrize("make, gens, free", [(loop_with_exit, ("v", "w"), False),
                                                  (lambda: fan(2, s_on=True), ("v", "u1"), True)],
                             ids=["loop_with_exit", "fan2_leavitt"])
    def test_derived_values_computed_once(self, monkeypatch, make, gens, free):
        # the verdict and five queries, each on presentation(obj) again, share
        # one nullspace, one invariant and at most one completion
        calls = {"_complete": 0, "nullspace_basis": 0, "path_count_invariant": 0}

        def count(name):
            fn = getattr(monoid_mod, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(monoid_mod, name, counted)

        for name in calls:
            count(name)
        obj = make()
        assert atomic_cancellative_verdict(obj).atomic_cancellative == free
        x, y = (presentation(obj).element(g) for g in gens)
        for a, b in [(x, x), (x, y), (x, x + x), (y + y, y), (x + y, y + x)]:
            assert equal(presentation(obj), a, b).verdict in ("yes", "no")
        assert calls["_complete"] <= 1
        assert calls["nullspace_basis"] == calls["path_count_invariant"] == 1


class TestPresentation:
    def test_single_sink_free(self):
        pres = presentation(single_sink())
        assert pres.generators == ("w",) and pres.relations == ()

    def test_loop_degenerate_relation(self):
        pres = presentation(loop())
        assert pres.relations == (("v", MonoidElement.of("v")),)

    def test_bifurcation_relation(self):
        pres = presentation(fan(2, s_on=True))
        assert ("v", MonoidElement.of("u1", "u2")) in pres.relations

    def test_unrelated_vertex_generators(self):
        # v -> u1 with S empty: the relative graph adds the isolated sink v';
        # the generator named v stands for the expansion of v, so the lone
        # relation is v = u1 and v' is a free generator
        pres = presentation(fan(1))
        assert set(pres.generators) == {"v", "u1", "v'"}
        assert pres.relations == (("v", MonoidElement.of("u1")),)

    def test_toeplitz_relation(self):
        # loop with S empty: v emits both c and its primed copy, so v = v + v'
        pres = presentation(loop(False))
        assert pres.relations == (("v", MonoidElement.of("v", "v'")),)


class TestEqual:
    def test_one_step_relation(self):
        pres = presentation(fan(2, s_on=True))
        answer = equal(pres, pres.element("v"), pres.element("u1", "u2"))
        assert answer.verdict == "yes"

    def test_distinct_sinks_separated(self):
        pres = presentation(fan(2, s_on=True))
        answer = equal(pres, pres.element("u1"), pres.element("u2"))
        assert answer.verdict == "no"
        assert answer.separating_functional is not None

    def test_toeplitz_absorbs_primed_copies(self):
        # the toeplitz relation v = v + v' makes v and v + 3v' equal; a search
        # needs three moves to see it, the completed relations none
        pres = presentation(loop(False))
        v = pres.element("v")
        answer = equal(pres, v, v + pres.element("v'", "v'", "v'"))
        assert answer.verdict == "yes" and answer.common_reduct == v

    @pytest.mark.parametrize("make, gen", [(loop_with_exit, "w"), (lambda: loop(False), "v'")],
                             ids=["loop_with_exit", "toeplitz"])
    def test_no_functional_still_decides_no(self, make, gen):
        # w = 2w on the loop with an exit and v' = 2v' on the toeplitz loop:
        # no additive functional separates the sides, and they are not equal
        pres = presentation(make())
        answer = equal(pres, pres.element(gen), pres.element(gen, gen))
        assert answer.verdict == "no" and answer.separating_functional is None

    def test_unknown_generator_rejected(self):
        pres = presentation(loop_with_exit())
        with pytest.raises(ValueError, match="unknown generators"):
            equal(pres, MonoidElement.of("zzz"), pres.element("w"))
        with pytest.raises(ValueError, match="unknown generators"):
            pres.normal_form(MonoidElement.of("zzz"))

    def test_tree_root_against_its_leaves(self):
        # 31 vertices: the root equals the sum of its 16 leaves, which no
        # bounded search reaches; the invariant decides it with no search
        obj, root, leaves = binary_tree(4)
        pres = presentation(obj)
        assert len(leaves) == 16
        all_leaves = pres.element(*leaves)
        assert equal(pres, pres.element(root), all_leaves).verdict == "yes"
        short = equal(pres, pres.element(root), pres.element(*leaves[1:]))
        assert short.verdict == "no" and short.separating_functional is not None
        children = pres.element(root + "0", root + "1")
        assert equal(pres, pres.element(root), children).verdict == "yes"
        assert equal(pres, pres.element(leaves[0]), pres.element(leaves[1])).verdict == "no"

    def test_reflexive(self):
        pres = presentation(loop())
        assert equal(pres, pres.element("v"), pres.element("v")).verdict == "yes"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_equal_decides_on_no_exit_objects(seed, data):
    pres = presentation(random_no_exit_object(random.Random(seed)))
    inv = path_count_invariant(pres)
    assert inv is not None
    elements = st.lists(st.sampled_from(pres.generators), max_size=4).map(
        lambda gens: MonoidElement.of(*gens)
    )
    for _ in range(5):
        a, b = data.draw(elements), data.draw(elements)
        answer = equal(pres, a, b)
        assert answer.verdict in ("yes", "no")
        same = invariant_value(inv, a) == invariant_value(inv, b)
        assert (answer.verdict == "yes") == same


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_equal_agrees_with_move_search(seed, data):
    # exits allowed: a meet found by the bounded search forces "yes", and
    # every "yes" is a shared normal form of the completed relations
    pres = presentation(random_object(random.Random(seed)))
    elements = st.lists(st.sampled_from(pres.generators), max_size=4).map(
        lambda gens: MonoidElement.of(*gens)
    )
    for _ in range(5):
        a, b = data.draw(elements), data.draw(elements)
        answer = equal(pres, a, b)
        if move_search(pres, a, b) is not None:
            assert answer.verdict == "yes"
        if answer.verdict == "yes":
            reduct = pres.normal_form(a)
            assert reduct == pres.normal_form(b)
            # the invariant answers a no-exit relative graph without a reduct
            assert answer.common_reduct == (reduct if pres.invariant is None else None)
        else:
            assert answer.verdict == "no"


class TestFunctionals:
    def test_scaled_to_ints(self):
        # b -> a twice and a loop at a, S = {a, b}: a = a and b = 2a; the
        # rational nullspace basis is (1/2, 1)
        g = Graph(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"), ("c", "a", "a")])
        functionals = presentation(CLObject(g, ["a", "b"])).functionals
        assert functionals == ((1, 2),)
        assert all(type(x) is int for vec in functionals for x in vec)

    def test_shared_and_immutable(self):
        # every equal on the object reads these and the invariant, so none
        # may write to them
        pres = presentation(fan(2, s_on=True))
        functionals = pres.functionals
        with pytest.raises(TypeError):
            functionals[0][0] = 5
        with pytest.raises(TypeError):
            pres.invariant["v"] = (9, 9)
        answer = equal(pres, pres.element("u1"), pres.element("u2"))
        assert answer.separating_functional in functionals
        assert type(answer.separating_functional) is tuple


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_int_functionals_are_positive_multiples_of_the_rational_basis(seed, data):
    # a positive multiple separates exactly what the rational vector does,
    # so scaling changes no verdict of equal
    pres = presentation(random_object(random.Random(seed)))
    rows = [[p - q for p, q in zip(*pair)] for pair in pres._relation_vectors()]
    rational = nullspace_basis(rows, len(pres.generators), QQ)
    assert len(pres.functionals) == len(rational)
    for scaled, vec in zip(pres.functionals, rational):
        assert all(type(x) is int for x in scaled)
        k = next(i for i, x in enumerate(vec) if x)
        factor = scaled[k] / vec[k]
        assert factor > 0 and list(scaled) == [factor * x for x in vec]
    elements = st.lists(st.sampled_from(pres.generators), max_size=4).map(
        lambda gens: MonoidElement.of(*gens)
    )
    for _ in range(5):
        a, b = data.draw(elements), data.draw(elements)
        diff = [x - y for x, y in zip(pres._exponents(a), pres._exponents(b))]
        separated = any(sum(f * d for f, d in zip(vec, diff)) for vec in rational)
        answer = equal(pres, a, b)
        assert separated == (answer.separating_functional is not None)


def _random_graphs(count: int) -> list:
    # random graphs on 4 to 12 vertices with up to twice as many edges; of
    # the first 150, numbers 44 and 106 need the most rules
    rng, out = random.Random(1), []
    for _ in range(count):
        nv = rng.randint(4, 12)
        vs = [f"v{j}" for j in range(nv)]
        edges = [(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(rng.randint(nv, 2 * nv))]
        g = Graph(vs, edges)
        out.append(CLObject(g, [v for v in g.regular_vertices() if rng.random() < 0.6]))
    return out


class TestCompletion:
    @pytest.mark.parametrize("k, gens", [(44, 17), (106, 19)])
    def test_hard_instance_completes(self, k, gens):
        # the completion proves its own result: a relation or an overlap
        # that fails to join raises ClassificationBug
        pres = presentation(_random_graphs(k + 1)[k])
        assert len(pres.generators) == gens
        start = time.perf_counter()
        pres.rewriting
        assert time.perf_counter() - start < 5

    def test_completion_confluent_by_oracle(self):
        # re-proves, outside the program, what the completion proves itself
        rng = random.Random(7)
        for obj in _random_graphs(20) + [random_object(rng) for _ in range(40)]:
            assert completion_confluent(presentation(obj).rewriting)


class TestInvariant:
    def test_fan_invariant_rank(self):
        # n sinks plus the primed copy of the emitter: N^(n+1)
        for n in (1, 2, 3):
            pres = presentation(fan(n))
            inv = path_count_invariant(pres)
            assert inv is not None
            assert len(next(iter(inv.values()))) == n + 1
            assert relations_preserved(pres, inv) == []

    def test_loop_invariant(self):
        pres = presentation(loop())
        inv = path_count_invariant(pres)
        assert inv == {"v": (1,)}

    def test_invariant_respects_relations_on_corpus(self):
        for name, make in sorted(NO_EXIT_CORPUS.items()):
            pres = presentation(make())
            inv = path_count_invariant(pres)
            assert inv is not None, name
            assert relations_preserved(pres, inv) == [], name

    def test_invariant_agrees_with_equal(self):
        rng = random.Random(31)
        for _ in range(10):
            obj = random_no_exit_object(rng)
            pres = presentation(obj)
            inv = path_count_invariant(pres)
            if inv is None:
                continue
            gens = pres.generators
            for _ in range(10):
                a = MonoidElement.of(*rng.choices(gens, k=rng.randint(0, 3)))
                b = MonoidElement.of(*rng.choices(gens, k=rng.randint(0, 3)))
                answer = equal(pres, a, b)
                same_inv = invariant_value(inv, a) == invariant_value(inv, b)
                if answer.verdict == "yes":
                    assert same_inv
                if answer.verdict == "no":
                    assert not same_inv

    def test_refinement_on_invariant_images(self):
        # vectors in N^k refine: a + b = c + d splits into a 2x2 grid
        rng = random.Random(41)
        pres = presentation(fan(2))
        inv = path_count_invariant(pres)
        gens = pres.generators
        for _ in range(40):
            a, b, c, d = (
                invariant_value(inv, MonoidElement.of(*rng.choices(gens, k=2)))
                for _ in range(4)
            )
            total_left = tuple(x + y for x, y in zip(a, b))
            total_right = tuple(x + y for x, y in zip(c, d))
            if total_left != total_right:
                continue
            r11 = tuple(min(x, y) for x, y in zip(a, c))
            r12 = tuple(x - y for x, y in zip(a, r11))
            r21 = tuple(x - y for x, y in zip(c, r11))
            r22 = tuple(x - y for x, y in zip(b, r21))
            assert all(x >= 0 for x in r22)
            assert tuple(x + y for x, y in zip(r21, r22)) == b


class TestVerdicts:
    def test_no_exit_corpus_all_free(self):
        for name, make in sorted(NO_EXIT_CORPUS.items()):
            verdict = atomic_cancellative_verdict(make())
            assert verdict.atomic_cancellative, name
            assert verdict.invariant is not None

    def test_fan_rank(self):
        verdict = atomic_cancellative_verdict(fan(3))
        assert verdict.invariant_rank == 4

    def test_rose_fails_with_witness(self):
        verdict = atomic_cancellative_verdict(rose())
        assert not verdict.atomic_cancellative
        assert verdict.witness is not None
        assert len(verdict.witness.chain) == 3

    def test_toeplitz_fails(self):
        # no-exit graph, but the empty S breaks the cycle condition: the
        # relative graph has an exit and cancellation fails
        verdict = atomic_cancellative_verdict(loop(False))
        assert not verdict.atomic_cancellative
        assert verdict.witness is not None


class TestCancellationWitness:
    def test_rose_chain(self):
        obj = rose()
        witness = cancellation_witness(obj, obj.graph.exit_cycle, 3)
        assert len(witness.chain) == 3
        assert "p_1 != p_2" in "\n".join(witness.statements)

    def test_no_exit_cycle_rejected(self):
        obj = loop()
        (c,) = obj.graph.cycles
        with pytest.raises(NotAnExit):
            cancellation_witness(obj, c, 2)

    def test_two_cycle_with_exit(self):
        obj = cycle_with_exit(2)
        witness = cancellation_witness(obj, obj.graph.exit_cycle, 2)
        assert witness.cycle.source == "v1"
