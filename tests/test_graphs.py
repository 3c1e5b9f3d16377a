"""Graph cycles and structure, path enumeration, complete subobjects, relative graphs."""

import random
import time
import tracemalloc

import pytest

from clpa.classify import classify
from clpa.errors import GraphFormatError, NonFiniteEnumeration, NotASubgraph, NotNoExitObject
from clpa.graphs import (
    CLObject,
    Graph,
    Path,
    complete,
    cycle_facts,
    dot_lines,
    is_complete_subobject,
    object_from_json,
    object_to_json,
    paths_into,
    relative_graph,
    subobject_system,
)
from clpa.monoid import atomic_cancellative_verdict
from clpa.reports import noetherian_chain_witness, report

from conftest import (
    brute_force_paths_into,
    comet,
    cycle,
    fan,
    loop,
    random_no_exit_object,
    random_object,
    rose,
)


def _leq(system, i, j) -> bool:
    """Node i lies in node j: its mask is contained in j's."""
    return system.masks[i] | system.masks[j] == system.masks[j]


class TestValidation:
    def test_edge_endpoints_must_exist(self):
        with pytest.raises(GraphFormatError):
            Graph(["v"], [("e", "v", "ghost")])

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])

    def test_bad_id_characters(self):
        for bad in ("a b", "a|b", "a.b", "a~b", ""):
            with pytest.raises(GraphFormatError):
                Graph([bad], [])

    @pytest.mark.parametrize("ids", [["zz"], ["c", "zz"]])
    def test_make_path_names_an_unknown_edge(self, ids):
        with pytest.raises(ValueError, match="unknown edge id 'zz'") as err:
            loop().graph.make_path(ids)
        assert err.value.index == len(ids) - 1

    def test_one_id_as_vertex_and_edge_rejected(self):
        with pytest.raises(GraphFormatError,
                           match=r"ids used for both a vertex and an edge: \['v'\]"):
            Graph(["v"], [("v", "v", "v")])

    def test_make_path_needs_an_edge(self):
        with pytest.raises(ValueError, match="make_path needs a source or at least one edge"):
            loop().graph.make_path([])

    def test_make_path_edges_must_compose(self):
        with pytest.raises(GraphFormatError, match="^edges 'e1' and 'e2' do not compose$") as err:
            fan(2).graph.make_path(["e1", "e2"])
        assert err.value.index == 1

    def test_make_path_from_a_source(self):
        g = loop().graph
        assert g.make_path([], "v") == Path("v")
        assert g.make_path(["c", "c"], "v") == g.make_path(["c", "c"]) == Path("v", ("c", "c"))

    @pytest.mark.parametrize("edges, source, message, index", [
        (["e1"], "w", "unknown vertex 'w'", None),
        ([], "w", "unknown vertex 'w'", None),
        (["e1"], "u1", "edge 'e1' does not start at 'u1'", 0),
        # every id is looked up before any two are composed
        (["e1", "e2", "zz"], None, "unknown edge id 'zz'", 2),
        (["e1", "zz"], "u1", "unknown edge id 'zz'", 1),
    ])
    def test_make_path_names_the_failing_id(self, edges, source, message, index):
        with pytest.raises(GraphFormatError, match=f"^{message}$") as err:
            fan(2).graph.make_path(edges, source)
        assert err.value.index == index

    def test_s_must_be_regular(self):
        with pytest.raises(GraphFormatError):
            CLObject(Graph(["v"], []), ["v"])

    def test_json_round_trip(self):
        obj = fan(2, s_on=True)
        assert object_from_json(object_to_json(obj)) == obj

    @pytest.mark.parametrize("change", [
        {"vertices": 5}, {"vertices": "vw"}, {"edges": 5}, {"edges": {"id": "e"}},
        {"S": 5}, {"S": "v"}, {"S": [["a"]]}, {"S": [5]},
        {"edges": [{"id": "e", "src": {}, "rng": "w"}]},
        {"edges": [{"id": "e", "src": "v", "rng": ["w"]}]},
        {"s": ["v"]},
        {"edges": [{"id": "e", "src": "v", "rng": "w", "range": "w"}]},
        {"vertices": ["v", "w", "v"]}, {"S": ["v", "v"]},
    ])
    def test_malformed_json_fields_rejected(self, change):
        data = {"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "rng": "w"}],
                "S": ["v"]}
        assert object_from_json(data).s_set == {"v"}
        with pytest.raises(GraphFormatError):
            object_from_json({**data, **change})


class TestPredicates:
    def test_single_loop(self):
        g = loop().graph
        assert g.exit_cycle is None and g.cycles
        assert len(g.cycles) == 1 and g.cycles[0].edges == ("c",)
        assert g.sinks() == ()

    def test_rose_has_exit(self):
        g = rose().graph
        assert g.exit_cycle == Path("v", ("c1",))  # parallel loops: the first one
        assert g.bifurcations() == ("v",)
        assert g.cycles == () and g.cycle_vertices == {"v"}

    def test_fan_acyclic(self):
        g = fan(3).graph
        assert not g.cycles and g.exit_cycle is None and not g.cycle_vertices
        assert set(g.sinks()) == {"u1", "u2", "u3"}
        assert g.regular_vertices() == ("v",)

    def test_cycle_canonical_rotation(self):
        g = cycle(3).graph
        (c,) = g.cycles
        assert g.src(c.edges[0]) == "v1"  # smallest vertex id anchors the rotation

    def test_two_cycle_found_once(self):
        assert len(cycle(2).graph.cycles) == 1


class TestPathsInto:
    def test_unknown_target_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown vertex 'ghost'"):
            paths_into(loop().graph, "ghost")

    def test_single_cycle(self):
        g = cycle(2).graph
        paths = paths_into(g, "v1")
        assert [len(p) for p in paths] == [0, 1]
        assert paths[0] == Path("v1") and paths[1].edges == ("a2",)

    def test_chain_to_sink(self):
        g = Graph(["u", "v"], [("g", "u", "v")])
        paths = paths_into(g, "v")
        assert [(len(p), p.source) for p in paths] == [(0, "v"), (1, "u")]

    def test_fan_sink(self):
        paths = paths_into(fan(3).graph, "u1")
        assert [len(p) for p in paths] == [0, 1]

    def test_lengths_weakly_increasing_and_trivial_first(self):
        rng = random.Random(7)
        for _ in range(25):
            obj = random_no_exit_object(rng)
            for v in sorted(obj.graph.vertices):
                paths = paths_into(obj.graph, v)
                lengths = [len(p) for p in paths]
                assert lengths == sorted(lengths)
                assert paths[0] == Path(v)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            obj = random_no_exit_object(rng)
            for v in sorted(obj.graph.vertices):
                got = paths_into(obj.graph, v)
                expected = brute_force_paths_into(obj.graph, v, max_len=8)
                assert got == expected

    def test_cycle_reaching_target_without_avoid_cut(self):
        # loop at v feeding sink w: infinitely many paths end at w
        g = Graph(["v", "w"], [("c", "v", "v"), ("e", "v", "w")])
        with pytest.raises(NonFiniteEnumeration):
            paths_into(g, "w")


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class TestDeepGraphs:
    # walks use an explicit stack: depth is not bounded by the recursion limit
    N = 2000

    def _long_cycle(self, *extra):
        vs = [f"v{i}" for i in range(self.N)]
        edges = [(f"a{i}", vs[i], vs[(i + 1) % self.N]) for i in range(self.N)]
        return Graph(vs + ["w"], edges + list(extra)), vs

    def test_cycle_facts_long_cycle(self):
        g, vs = self._long_cycle()
        (c,) = g.cycles
        assert c.length == self.N and c.source == min(vs) and g.exit_cycle is None
        # linear: each vertex is walked once (the quadratic anchor walks took ~1 s)
        assert min(_seconds(cycle_facts, g) for _ in range(3)) < 0.05

    def test_cycle_facts_long_cycle_with_exit(self):
        g, vs = self._long_cycle(("x", "v0", "w"))
        assert g.cycles == () and g.cycle_vertices == set(vs)
        assert g.exit_cycle.length == self.N and g.exit_cycle.source == min(vs)
        assert min(_seconds(cycle_facts, g) for _ in range(3)) < 0.05

    def test_cycle_facts_long_cycle_with_chord(self):
        g, vs = self._long_cycle(("x", "v0", f"v{self.N // 2}"))
        assert g.cycles == () and g.cycle_vertices == set(vs)
        assert g.exit_cycle.length == self.N // 2 + 1 and "x" in g.exit_cycle.edges
        assert min(_seconds(cycle_facts, g) for _ in range(3)) < 0.05

    def test_paths_into_long_path(self):
        vs = [f"v{i}" for i in range(self.N)]
        g = Graph(vs, [(f"a{i}", vs[i], vs[i + 1]) for i in range(self.N - 1)])
        paths = paths_into(g, vs[-1])
        assert [len(p) for p in paths] == list(range(self.N))
        assert paths[-1].source == vs[0]


def complete_digraph(n: int) -> CLObject:
    """An edge between every two distinct vertices, both ways; S = every vertex."""
    vs = [f"v{i:02}" for i in range(n)]
    return CLObject(Graph(vs, [(f"e{a}_{b}", a, b) for a in vs for b in vs if a != b]), vs)


class TestDenseGraph:
    # the complete digraph on 12 vertices has 119 481 284 cycles; no answer lists them
    @pytest.mark.parametrize("answer", [
        report, atomic_cancellative_verdict,
        lambda obj: noetherian_chain_witness(obj, obj.graph.exit_cycle),
    ], ids=["report", "atomic_cancellative_verdict", "noetherian_chain_witness"])
    def test_answers_under_one_second(self, answer):
        obj = complete_digraph(12)
        assert _seconds(answer, obj) < 1.0
        assert obj.graph.exit_cycle.length == 2 and len(obj.graph.cycle_vertices) == 12

    def test_classify_refuses_under_one_second(self):
        obj = complete_digraph(12)
        start = time.perf_counter()
        with pytest.raises(NotNoExitObject, match="cycle vertex v00 is a bifurcation"):
            classify(obj)
        assert time.perf_counter() - start < 1.0


def random_subgraph(rng, ambient) -> Graph:
    vs = [v for v in sorted(ambient.graph.vertices) if rng.random() < 0.6]
    es = [e for e in ambient.graph.edges if e[1] in vs and e[2] in vs and rng.random() < 0.6]
    return Graph(vs, es)


class TestCompleteSubobjects:
    def test_fan_subobject(self):
        ambient = fan(3)
        sub = CLObject(Graph(["v", "u1"], [("e1", "v", "u1")]), [])
        ok, violations = is_complete_subobject(sub, ambient)
        assert ok and violations == []

    def test_missing_edges_violation(self):
        ambient = fan(3, s_on=True)
        sub = CLObject(Graph(["v", "u1"], [("e1", "v", "u1")]), [])
        ok, violations = is_complete_subobject(sub, ambient)
        assert not ok
        assert any("v" in v for v in violations)

    def test_empty_subgraph_is_complete(self):
        ok, violations = is_complete_subobject(
            CLObject(Graph([], []), []), fan(2, s_on=True)
        )
        assert ok

    def test_not_a_subgraph(self):
        with pytest.raises(NotASubgraph):
            is_complete_subobject(loop(), fan(2))

    def test_closure_of_a_non_subgraph_rejected(self):
        with pytest.raises(NotASubgraph, match="candidate is not a subgraph of the ambient graph"):
            complete(loop().graph, fan(2))

    def test_t_outside_s_violation(self):
        # F = E, but the ambient S is empty while T holds v
        ok, violations = is_complete_subobject(fan(2, s_on=True), fan(2))
        assert (ok, violations) == (False, ["v: in T but not in S"])

    def test_closure_adds_sibling_edges(self):
        ambient = fan(3, s_on=True)
        sub = Graph(["v", "u1"], [("e1", "v", "u1")])
        closed = complete(sub, ambient)
        assert set(closed.graph.edge_ids()) == {"e1", "e2", "e3"}
        assert closed.s_set == frozenset({"v"})

    def test_closure_of_whole_object_is_identity(self):
        ambient = fan(2, s_on=True)
        closed = complete(ambient.graph, ambient)
        assert closed == ambient

    def test_closure_of_sink(self):
        ambient = fan(2, s_on=True)
        closed = complete(Graph(["u1"], []), ambient)
        assert closed == CLObject(Graph(["u1"], []), [])

    def test_random_closures_are_complete(self):
        rng = random.Random(23)
        for _ in range(30):
            ambient = random_object(rng)
            sub = random_subgraph(rng, ambient)
            closed = complete(sub, ambient)
            ok, violations = is_complete_subobject(closed, ambient)
            assert ok, violations
            assert sub.is_subgraph_of(closed.graph)

    def test_closure_is_the_least_complete_subobject_above(self):
        rng = random.Random(29)
        for _ in range(400):
            ambient = random_object(rng)
            sub = random_subgraph(rng, ambient)
            system = subobject_system(ambient)
            least = system.nodes.index(complete(sub, ambient))
            for j, node in enumerate(system.nodes):
                if sub.is_subgraph_of(node.graph):
                    assert _leq(system, least, j), (ambient, sub, node)


class TestRelativeGraph:
    def test_loop_without_relation(self):
        rel = relative_graph(loop(False))
        assert rel.graph.vertices == frozenset({"v", "v'"})
        assert set(rel.graph.edge_ids()) == {"c", "c'"}
        assert rel.graph.rng("c'") == "v'"

    def test_full_s_is_identity(self):
        obj = fan(2, s_on=True)
        rel = relative_graph(obj)
        assert rel.graph == obj.graph
        assert rel.primed_vertex == {} and rel.primed_edge == {}

    def test_chain_cohn_adds_only_reached_primes(self):
        # u -> v sink, S = {}: u is regular and unrelated, nothing ranges at u
        rel = relative_graph(CLObject(Graph(["u", "v"], [("g", "u", "v")]), []))
        assert rel.graph.vertices == frozenset({"u", "v", "u'"})
        assert set(rel.graph.edge_ids()) == {"g"}

    def test_counts_formula(self):
        rng = random.Random(5)
        for _ in range(40):
            obj = random_object(rng)
            rel = relative_graph(obj)
            g = obj.graph
            unrelated = set(g.regular_vertices()) - set(obj.s_set)
            assert len(rel.graph.vertices) == len(g.vertices) + len(unrelated)
            assert len(rel.graph.edges) == len(g.edges) + sum(
                1 for e in g.edge_ids() if g.rng(e) in unrelated
            )

    def test_no_exit_preserved_under_cycle_condition(self):
        rng = random.Random(13)
        seen = 0
        for _ in range(60):
            obj = random_no_exit_object(rng)
            on_cycles = set()
            for c in obj.graph.cycles:
                on_cycles.update(obj.graph.path_vertices(c))
            if obj.graph.exit_cycle is None and on_cycles <= obj.s_set:
                seen += 1
                assert relative_graph(obj).graph.exit_cycle is None
        assert seen >= 10

    def test_primed_name_freshness(self):
        g = Graph(["v", "v'"], [("e", "v", "v"), ("f", "v'", "v")])
        rel = relative_graph(CLObject(g, []))
        assert rel.primed_vertex["v"] == "v''"


# the covers check runs on the first 16 (its cubic reference is slow), the leq check on all
SYSTEM_CASES = ([fan(3), fan(4), comet(1), comet(2)]
                + [random_object(random.Random(seed)) for seed in range(32)])
SYSTEM_IDS = ["fan3", "fan4", "comet1", "comet2"] + [f"random{s}" for s in range(32)]


class TestSubobjectSystem:
    def test_two_disjoint_sinks_powerset(self):
        system = subobject_system(CLObject(Graph(["a", "b"], []), []))
        assert len(system.nodes) == 4

    def test_single_vertex(self):
        system = subobject_system(CLObject(Graph(["a"], []), []))
        assert len(system.nodes) == 2  # empty and full

    def test_fan_chain_present(self):
        system = subobject_system(fan(3))
        chain = [
            CLObject(
                Graph(["v"] + [f"u{i}" for i in range(1, k + 1)],
                      [(f"e{i}", "v", f"u{i}") for i in range(1, k + 1)]),
                [],
            )
            for k in (1, 2, 3)
        ]
        idx = [system.nodes.index(c) for c in chain]
        assert _leq(system, idx[0], idx[1]) and _leq(system, idx[1], idx[2])
        assert system.top_index == idx[2]

    @pytest.mark.parametrize("obj", SYSTEM_CASES[:16], ids=SYSTEM_IDS[:16])
    def test_covers_match_the_definition(self, obj):
        system = subobject_system(obj)
        n = len(system.nodes)
        leq = [[_leq(system, i, j) for j in range(n)] for i in range(n)]
        want = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and leq[i][j] and not any(
                k not in (i, j) and leq[i][k] and leq[k][j]
                for k in range(n)
            )
        ]
        assert list(system.covers()) == want

    @pytest.mark.parametrize("obj", SYSTEM_CASES, ids=SYSTEM_IDS)
    def test_leq_is_inclusion_of_the_objects(self, obj):
        system = subobject_system(obj)
        for i, a in enumerate(system.nodes):
            for j, b in enumerate(system.nodes):
                included = (a.graph.vertices <= b.graph.vertices
                            and set(a.graph.edges) <= set(b.graph.edges)
                            and a.s_set <= b.s_set)
                assert _leq(system, i, j) == included, (a, b)

    def test_covers_memory_is_linear_in_the_output(self):
        system = subobject_system(fan(9))
        tracemalloc.start()
        try:
            pairs = list(system.covers())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(system.masks), len(pairs)) == (20195, 120914)
        assert peak < 200 * (len(system.masks) + len(pairs)), peak

    def test_dot_export_is_written_as_it_is_produced(self, tmp_path):
        system = subobject_system(fan(9))
        out = tmp_path / "fan9.dot"
        tracemalloc.start()
        try:
            with open(out, "w") as fh:
                fh.writelines(dot_lines(system))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 3_000_000
        assert peak < size // 2, (peak, size)

    def test_all_nodes_complete(self):
        obj = fan(2, s_on=True)
        system = subobject_system(obj)
        for node in system.nodes:
            ok, violations = is_complete_subobject(node, obj)
            assert ok, violations

    def test_s_bundles_all_or_nothing(self):
        obj = fan(2, s_on=True)
        system = subobject_system(obj)
        for node in system.nodes:
            present = set(node.graph.edge_ids())
            assert present in (set(), {"e1", "e2"})
