"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import random
import time

from clpa.algebra import AlgebraContext
from clpa.classify import (
    build_generator_map,
    classify,
    classify_system,
    no_exit_violations,
)
from clpa.expr import parse_expression
from clpa.gradedmat import (
    GradedMatrixAlgebra,
    MatricialSignature,
    brute_force_iso_oracle,
    decide_graded_iso,
)
from clpa.graphs import CLObject, Graph, relative_graph
from clpa.monoid import (
    atomic_cancellative_verdict,
    cancellation_witness,
    path_count_invariant,
    presentation,
    relations_preserved,
)
from clpa.reports import relgraph_verify, report
from clpa.scalars import PrimeField

from conftest import (
    NO_EXIT_CORPUS,
    chain,
    fan,
    loop,
    random_element,
    random_no_exit_object,
    random_object,
    rose,
    tree,
)
from oracles import monomial_independence


def _announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


def test_criterion_1_explicit_family_reproduction():
    """The finite truncations classify to M_2(K)(0,1)^n + K with the known map."""
    worst = 0.0
    for n in range(1, 6):
        t0 = time.perf_counter()
        obj = fan(n)
        sig = classify(obj)
        expected = MatricialSignature(tuple([(2, (0, 1))] * n + [(1, (0,))]), ())
        assert sig == expected, f"n={n}: {sig.describe()}"
        gmap = build_generator_map(obj, sig)  # raises on any verification failure
        for i in range(1, n + 1):
            assert gmap.evaluate(gmap.ctx.vertex(f"u{i}")) == gmap.algebra.unit(i - 1, 0, 0)
            assert gmap.evaluate(gmap.ctx.edge(f"e{i}")) == gmap.algebra.unit(i - 1, 1, 0)
        v_expected = gmap.algebra.unit(n, 0, 0)
        for i in range(n):
            v_expected = v_expected + gmap.algebra.unit(i, 1, 1)
        assert gmap.evaluate(gmap.ctx.vertex("v")) == v_expected
        worst = max(worst, time.perf_counter() - t0)
    _announce(1, worst < 1.0, f"n=1..5 signatures and maps verified, worst {worst:.3f}s per n")


def _exhaustive_small_no_exit_objects():
    """Every simple digraph on <= 3 labelled vertices, with every valid S."""
    out = []
    for n in (1, 2, 3):
        vertices = [f"v{i}" for i in range(n)]
        slots = [(a, b) for a in vertices for b in vertices]
        for mask in range(1 << len(slots)):
            edges = [
                (f"e{i}", a, b)
                for i, (a, b) in enumerate(slots)
                if mask >> i & 1
            ]
            g = Graph(vertices, edges)
            if g.exit_cycle is not None:
                continue
            on_cycles = set()
            for c in g.cycles:
                on_cycles.update(g.path_vertices(c))
            free = [v for v in g.regular_vertices() if v not in on_cycles]
            for smask in range(1 << len(free)):
                s = on_cycles | {v for i, v in enumerate(free) if smask >> i & 1}
                obj = CLObject(g, s)
                if not no_exit_violations(obj):
                    out.append(obj)
    return out


def test_criterion_2_realization_question():
    """M_2(K)(0,0) is not the signature of any small no-exit object."""
    t0 = time.perf_counter()
    target = GradedMatrixAlgebra("field", 2, (0, 0))
    corpus = _exhaustive_small_no_exit_objects()
    assert len(corpus) > 200
    certificates = {}
    for obj in corpus:
        decision = decide_graded_iso(target, classify(obj))
        assert decision.verdict == "no", obj
        certificates[obj] = decision.certificate
    two_paths = CLObject(Graph(["v0", "v1"], [("e1", "v0", "v1")]), [])
    assert classify(two_paths) == MatricialSignature(((1, (0,)), (2, (0, 1))), ())
    single_block = CLObject(Graph(["v0", "v1"], [("e1", "v0", "v1")]), ["v0"])
    assert classify(single_block) == MatricialSignature(((2, (0, 1)),), ())
    delta, da, db, _ = certificates[single_block]
    assert (delta, da, db) == (0, 4, 2)
    elapsed = time.perf_counter() - t0
    _announce(
        2,
        True,
        f"all {len(corpus)} exhaustive objects distinguished from M_2(K)(0,0); "
        f"two-paths case carries the delta=0 (4 vs 2) certificate; {elapsed:.1f}s",
    )


def test_criterion_3_loop_algebra():
    obj = loop()
    sig = classify(obj)
    assert sig == MatricialSignature((), ((1, 1, (0,)),))
    ctx = AlgebraContext(obj)
    assert parse_expression("c|c", ctx) == ctx.vertex("v")
    verdicts = {c["code"]: c["verdict"] for c in report(obj).to_json()["conditions"]}
    noetherian = all(verdicts[c] for c in ("8l", "8r", "9l", "9r", "10l", "10r", "11l", "11r"))
    graded_artinian = all(verdicts[c] for c in ("15", "16l", "16r", "17l", "17r"))
    plain_artinian = any(verdicts[c] for c in ("6'", "7'l", "7'r", "8'l", "8'r"))
    ok = noetherian and graded_artinian and not plain_artinian
    _announce(
        3,
        ok,
        "loop: Laurent line signature, c c* = v, noetherian and graded-artinian "
        "families true, non-graded artinian family false",
    )


def test_criterion_4_normal_form_soundness():
    t0 = time.perf_counter()
    corpus = [
        (name, make())
        for name, make in sorted(NO_EXIT_CORPUS.items())
        if len(make().graph.vertices) <= 4
    ]
    assert len(corpus) >= 10
    rng = random.Random(2024)
    for name, obj in corpus:
        gmap = build_generator_map(obj)
        ctx = gmap.ctx
        for _ in range(100):
            x = random_element(ctx, rng, max_len=2)
            y = random_element(ctx, rng, max_len=2)
            fx, fy = gmap.evaluate(x), gmap.evaluate(y)
            assert gmap.evaluate(x * y) == fx * fy, name
            assert (x == y) == (fx == fy), name
        ok, count, rank = monomial_independence(ctx, gmap.images, max_each=3)
        assert ok, f"{name}: rank {rank} < {count}"
    elapsed = time.perf_counter() - t0
    _announce(
        4,
        elapsed < 30.0,
        f"{len(corpus)} objects x 100 pairs: representation is multiplicative and "
        f"faithful; bounded monomials independent; {elapsed:.1f}s total",
    )


def test_criterion_5_algebra_laws():
    graphs = {
        "fan2_leavitt": fan(2, s_on=True),
        "loop": loop(),
        "rose2": rose(),
        "tree": tree(),
        "chain": chain(),
    }
    for name, obj in sorted(graphs.items()):
        ctx = AlgebraContext(obj)
        rng = random.Random(hash(name) % 10**6)
        for _ in range(200):
            a, b, c = (random_element(ctx, rng, max_len=2) for _ in range(3))
            assert (a * b) * c == a * (b * c), name
        for _ in range(60):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            assert (a * b).star() == b.star() * a.star(), name
            assert a.star().star() == a, name
            for da, part_a in a.degree_components().items():
                assert set(part_a.star().degree_components()) <= {-da}
                for db, part_b in b.degree_components().items():
                    prod = part_a * part_b
                    assert prod.is_zero() or set(prod.degree_components()) == {da + db}
    _announce(
        5,
        True,
        "associativity on 200 triples per graph; involution anti-multiplicative of "
        "order two; grading multiplicative; components star into negated degrees",
    )


def test_criterion_6_oracle_agreement():
    t0 = time.perf_counter()
    gf2 = PrimeField(2)
    pairs = 0
    for n in (1, 2):
        for sa in itertools.product((0, 1, 2), repeat=n):
            for sb in itertools.product((0, 1, 2), repeat=n):
                a = GradedMatrixAlgebra("field", n, sa, base=gf2)
                b = GradedMatrixAlgebra("field", n, sb, base=gf2)
                decision = decide_graded_iso(a, b)
                assert decision.verdict != "unknown", (sa, sb)
                assert (decision.verdict == "yes") == brute_force_iso_oracle(a, b), (sa, sb)
                pairs += 1
    elapsed = time.perf_counter() - t0
    _announce(
        6,
        elapsed < 10.0,
        f"decision procedure matches the GF(2) conjugation oracle on {pairs} pairs "
        f"with no unknowns; {elapsed:.1f}s",
    )


def test_criterion_7_monoid_verdicts():
    for name, make in sorted(NO_EXIT_CORPUS.items()):
        obj = make()
        pres = presentation(obj)
        invariant = path_count_invariant(pres)
        assert invariant is not None, name
        assert relations_preserved(pres, invariant) == [], name
        verdict = atomic_cancellative_verdict(obj)
        assert verdict.atomic_cancellative, name
        rg = relative_graph(obj).graph
        assert verdict.invariant_rank == len(rg.sinks()) + len(rg.cycles), name
    rose_obj = rose()
    witness = cancellation_witness(rose_obj, rose_obj.graph.exit_cycle, 3)
    assert len(witness.chain) == 3
    _announce(
        7,
        True,
        f"{len(NO_EXIT_CORPUS)} no-exit objects carry the free invariant with every "
        "relation preserved; the two-loop rose yields a verified p_n chain for N=3",
    )


def test_criterion_8_relative_graphs():
    toeplitz = loop(False)
    assert relgraph_verify(toeplitz).ok
    rng = random.Random(88)
    preserved = 0
    for _ in range(20):
        obj = random_object(rng)
        rep = relgraph_verify(obj)
        assert rep.ok and rep.vertex_count_ok and rep.edge_count_ok
        if not no_exit_violations(obj):
            assert relative_graph(obj).graph.exit_cycle is None
            preserved += 1
    for _ in range(15):
        obj = random_no_exit_object(rng)
        if not no_exit_violations(obj):
            assert relative_graph(obj).graph.exit_cycle is None
            preserved += 1
    _announce(
        8,
        preserved >= 5,
        "relative-graph images verified on the no-relation loop and 20 random "
        f"objects; count formulas hold; no-exit preserved on {preserved} qualifying objects",
    )


def test_criterion_9_direct_limit_system():
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
        assert sig_of[node] == expected, k
    assert all(ok for ok, _, _ in result.injectivity)
    _announce(
        9,
        True,
        f"signature chain M_2(0,1)^i + K for i=1,2,3 inside a {len(result.system.nodes)}-"
        "node system; inclusions proved injective by graded uniqueness",
    )
