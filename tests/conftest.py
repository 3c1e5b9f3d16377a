"""Shared graph builders, corpora, and randomized element generators."""

from __future__ import annotations

import random

import pytest

from clpa.algebra import AlgebraContext, Monomial
from clpa.graphs import CLObject, Graph, Path


# -- named small objects -----------------------------------------------------


def single_sink():
    return CLObject(Graph(["w"], []), [])


def chain(s_on: bool = True):
    """u -> v with v a sink."""
    return CLObject(Graph(["u", "v"], [("g", "u", "v")]), ["u"] if s_on else [])


def fan(n: int, s_on: bool = False):
    """One source v emitting e_i to sinks u_i (the finite truncations F_n)."""
    vs = ["v"] + [f"u{i}" for i in range(1, n + 1)]
    es = [(f"e{i}", "v", f"u{i}") for i in range(1, n + 1)]
    return CLObject(Graph(vs, es), ["v"] if s_on else [])


def loop(s_on: bool = True):
    return CLObject(Graph(["v"], [("c", "v", "v")]), ["v"] if s_on else [])


def rose(k: int = 2):
    edges = [(f"c{i}", "v", "v") for i in range(1, k + 1)]
    return CLObject(Graph(["v"], edges), ["v"])


def cycle(n: int, s_on: bool = True):
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [(f"a{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]
    return CLObject(Graph(vs, es), vs if s_on else [])


def cycle_with_tail():
    """x -> v1 -> v2 -> v1; only the cycle vertices carry the full relation."""
    g = Graph(
        ["x", "v1", "v2"],
        [("t", "x", "v1"), ("a", "v1", "v2"), ("b", "v2", "v1")],
    )
    return CLObject(g, ["x", "v1", "v2"])


def cycle_with_exit(n: int = 2):
    """A cycle of length n with one extra edge leaving it (not no-exit)."""
    base = cycle(n)
    vs = sorted(base.graph.vertices) + ["w"]
    es = list(base.graph.edges) + [("x", "v1", "w")]
    return CLObject(Graph(vs, es), ["v1", "v2"][:n])


def loop_with_exit():
    """A loop in S with an edge out to a sink: the relative graph has an exit."""
    return CLObject(Graph(["v", "w"], [("c", "v", "v"), ("x", "v", "w")]), ["v"])


def binary_tree(depth: int):
    """Complete binary tree; S = the internal vertices.  Returns (obj, root, leaves)."""
    vertices, edges, leaves = ["r"], [], ["r"]
    for _ in range(depth):
        below = [v + b for v in leaves for b in "01"]
        edges += [(f"e{w}", w[:-1], w) for w in below]
        vertices += below
        leaves = below
    internal = [v for v in vertices if v not in leaves]
    return CLObject(Graph(vertices, edges), internal), "r", leaves


def parallel_to_sink():
    """v emitting two parallel edges to one sink (a bifurcation off any cycle)."""
    return CLObject(Graph(["v", "u"], [("e1", "v", "u"), ("e2", "v", "u")]), ["v"])


def tree():
    """Binary tree of depth 2 with full relations at the regular vertices."""
    g = Graph(
        ["r", "a", "b", "c", "d"],
        [("e1", "r", "a"), ("e2", "r", "b"), ("e3", "a", "c"), ("e4", "a", "d")],
    )
    return CLObject(g, ["r", "a"])


def loop_plus_sink():
    g = Graph(["v", "w"], [("c", "v", "v")])
    return CLObject(g, ["v"])


def comet(tail: int = 1):
    """A path of length ``tail`` feeding a loop; sink-free and no-exit."""
    vs = [f"p{i}" for i in range(tail)] + ["v"]
    es = [(f"t{i}", f"p{i}", f"p{i+1}" if i + 1 < tail else "v") for i in range(tail)]
    es.append(("c", "v", "v"))
    return CLObject(Graph(vs, es), vs)


NO_EXIT_CORPUS = {
    "single_sink": single_sink,
    "chain": chain,
    "chain_cohn": lambda: chain(False),
    "fan1": lambda: fan(1),
    "fan2": lambda: fan(2),
    "fan3": lambda: fan(3),
    "fan2_leavitt": lambda: fan(2, s_on=True),
    "loop": loop,
    "two_cycle": lambda: cycle(2),
    "three_cycle": lambda: cycle(3),
    "cycle_with_tail": cycle_with_tail,
    "parallel_to_sink": parallel_to_sink,
    "tree": tree,
    "loop_plus_sink": loop_plus_sink,
    "comet": comet,
}

EXIT_CORPUS = {
    "rose2": rose,
    "rose3": lambda: rose(3),
    "cycle_with_exit": cycle_with_exit,
    "toeplitz": lambda: loop(False),   # no-exit graph, but fails the S condition
}


@pytest.fixture(params=sorted(NO_EXIT_CORPUS))
def no_exit_object(request):
    return NO_EXIT_CORPUS[request.param]()


# -- randomized generators ----------------------------------------------------


def random_no_exit_object(rng: random.Random) -> CLObject:
    """A random finite no-exit object: disjoint cycles plus trees into them."""
    vertices = []
    edges = []
    cycle_vertices = []
    n_cycles = rng.randint(0, 2)
    for ci in range(n_cycles):
        length = rng.randint(1, 3)
        ring = [f"c{ci}v{k}" for k in range(length)]
        vertices += ring
        cycle_vertices += ring
        for k in range(length):
            edges.append((f"c{ci}e{k}", ring[k], ring[(k + 1) % length]))
    n_sinks = rng.randint(0 if n_cycles else 1, 2)
    sinks = [f"s{i}" for i in range(n_sinks)]
    vertices += sinks
    n_feeders = rng.randint(0, 3)
    feeders = [f"f{i}" for i in range(n_feeders)]
    for i, f in enumerate(feeders):
        targets = vertices[:]
        vertices.append(f)
        k = rng.randint(1, 2)
        for j in range(k):
            edges.append((f"fe{i}_{j}", f, rng.choice(targets)))
    regular = {src for _, src, _ in edges}
    s_set = set(cycle_vertices)
    for v in sorted(regular - s_set):
        if rng.random() < 0.5:
            s_set.add(v)
    return CLObject(Graph(vertices, edges), sorted(s_set))


def random_object(rng: random.Random) -> CLObject:
    """A random small multigraph with a random valid S (exits allowed)."""
    n = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for k in range(rng.randint(0, 6)):
        edges.append((f"e{k}", rng.choice(vertices), rng.choice(vertices)))
    g = Graph(vertices, edges)
    regs = list(g.regular_vertices())
    s_set = [v for v in regs if rng.random() < 0.6]
    return CLObject(g, s_set)


def random_path(ctx: AlgebraContext, rng: random.Random, max_len: int = 3) -> Path:
    g = ctx.graph
    v = rng.choice(sorted(g.vertices))
    edges = []
    for _ in range(rng.randint(0, max_len)):
        out = g.out_edges(v if not edges else g.rng(edges[-1]))
        if not out:
            break
        e = rng.choice(out)
        if not edges and g.src(e) != v:
            break
        edges.append(e)
    return Path(v, tuple(edges)) if not edges else Path(g.src(edges[0]), tuple(edges))


def random_element(ctx: AlgebraContext, rng: random.Random,
                   max_terms: int = 3, max_len: int = 3):
    """A random normal-form element with small integer coefficients."""
    g = ctx.graph
    raw = []
    for _ in range(rng.randint(1, max_terms)):
        p = random_path(ctx, rng, max_len)
        target = g.path_range(p)
        candidates = [
            q for q in _paths_to(ctx, target, max_len)
        ]
        q = rng.choice(candidates)
        coeff = ctx.field.from_int(rng.choice([-2, -1, 1, 2]))
        raw.append((coeff, Monomial(p, q)))
    return ctx.from_raw(raw)


def _paths_to(ctx: AlgebraContext, target: str, max_len: int):
    from oracles import all_paths

    return [p for p in all_paths(ctx.graph, max_len)
            if ctx.graph.path_range(p) == target]


def brute_force_paths_into(graph: Graph, target: str, max_len: int):
    """Independent oracle: filter all edge sequences up to ``max_len``.

    Enumerates every composable edge sequence by exhaustion and keeps the
    ones ending at the target without touching it earlier.
    """
    found = [Path(target)]
    seqs = [[e] for e in graph.edge_ids()]
    for _ in range(max_len):
        next_seqs = []
        for seq in seqs:
            if all(graph.rng(a) == graph.src(b) for a, b in zip(seq, seq[1:])):
                if graph.rng(seq[-1]) == target and all(
                    graph.src(e) != target for e in seq
                ):
                    found.append(Path(graph.src(seq[0]), tuple(seq)))
                next_seqs.extend(seq + [e] for e in graph.edge_ids())
        seqs = next_seqs
    uniq = sorted(set(found), key=Path.sort_key)
    return uniq
