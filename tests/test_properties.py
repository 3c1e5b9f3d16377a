"""Hypothesis-driven structural invariants across randomly drawn objects."""

import random
from pathlib import Path as FilePath

from hypothesis import given, settings
from hypothesis import strategies as st

from clpa._linalg import nullspace_basis
from clpa.algebra import AlgebraContext, Monomial, evaluate_element
from clpa.classify import check_no_exit_object, classify
from clpa.graphs import (
    CLObject,
    Graph,
    Path,
    complete,
    find_cycles,
    is_complete_subobject,
    load_object,
    predicates,
    relative_graph,
)
from clpa.monoid import exit_cycle_chain
from clpa.scalars import QQ, PrimeField

from conftest import random_element, random_object

FIELDS = [QQ, PrimeField(2), PrimeField(3)]


@st.composite
def small_objects(draw):
    """A multigraph on up to 4 vertices with a valid S subset."""
    n = draw(st.integers(min_value=1, max_value=4))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=5))
    edges = [
        (
            f"e{k}",
            draw(st.sampled_from(vertices)),
            draw(st.sampled_from(vertices)),
        )
        for k in range(m)
    ]
    g = Graph(vertices, edges)
    regs = g.regular_vertices()
    s_set = [v for v in regs if draw(st.booleans())]
    return CLObject(g, s_set)


@settings(max_examples=60, deadline=None)
@given(obj=small_objects(), data=st.data())
def test_closure_output_is_always_complete(obj, data):
    vs = [v for v in sorted(obj.graph.vertices) if data.draw(st.booleans())]
    keep = set(vs)
    es = [e for e in obj.graph.edges if e[1] in keep and e[2] in keep
          and data.draw(st.booleans())]
    closed = complete(Graph(vs, es), obj)
    ok, violations = is_complete_subobject(closed, obj)
    assert ok, violations


@settings(max_examples=60, deadline=None)
@given(obj=small_objects())
def test_relative_graph_count_formulas(obj):
    rel = relative_graph(obj)
    g = obj.graph
    unrelated = set(g.regular_vertices()) - set(obj.s_set)
    assert len(rel.graph.vertices) == len(g.vertices) + len(unrelated)
    assert len(rel.graph.edges) == len(g.edges) + sum(
        1 for e in g.edge_ids() if g.rng(e) in unrelated
    )


@settings(max_examples=60, deadline=None)
@given(obj=small_objects())
def test_no_exit_object_iff_relative_graph_no_exit(obj):
    ok, _ = check_no_exit_object(obj)
    assert ok == predicates(relative_graph(obj).graph).is_no_exit


@settings(max_examples=40, deadline=None)
@given(obj=small_objects())
def test_classification_block_bookkeeping(obj):
    ok, _ = check_no_exit_object(obj)
    if not ok:
        return
    sig = classify(obj)
    facts = predicates(obj.graph)
    unrelated = set(facts.regular_vertices) - set(obj.s_set)
    assert len(sig.field_blocks) == len(facts.sinks) + len(unrelated)
    assert len(sig.laurent_blocks) == len(facts.cycles)
    if facts.is_acyclic:
        assert sig.laurent_blocks == ()
    if not facts.sinks and set(facts.regular_vertices) <= obj.s_set:
        assert sig.field_blocks == ()


@settings(max_examples=40, deadline=None)
@given(obj=small_objects())
def test_vertex_sum_acts_as_identity(obj):
    ctx = AlgebraContext(obj)
    one = ctx.unit()
    for v in sorted(obj.graph.vertices):
        assert one * ctx.vertex(v) == ctx.vertex(v)
    for e in sorted(obj.graph.edge_ids()):
        assert ctx.edge(e) * one == ctx.edge(e)
        assert (ctx.ghost(e) * one).star() == ctx.edge(e)


def _raw_product(a: Monomial, b: Monomial):
    """(p q*)(r s*) by definition: p t s* if r = q t, p (s t)* if q = r t, else None."""
    q, r = a.right, b.left
    if q.source != r.source:
        return None
    if r.edges[:len(q.edges)] == q.edges:
        tail = r.edges[len(q.edges):]
        return Monomial(Path(a.left.source, a.left.edges + tail), b.right)
    if q.edges[:len(r.edges)] == r.edges:
        tail = q.edges[len(r.edges):]
        return Monomial(a.left, Path(b.right.source, b.right.edges + tail))
    return None


@settings(max_examples=150, deadline=None)
@given(obj=small_objects(), field=st.sampled_from(FIELDS),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_element_operations_equal_normal_form_of_raw_combination(obj, field, seed):
    # from_raw is the oracle: the operations themselves rewrite only q = r products
    ctx = AlgebraContext(obj, field)
    rng = random.Random(seed)
    x = random_element(ctx, rng, max_terms=6)
    y = random_element(ctx, rng, max_terms=6)
    raw_x = [(c, m) for m, c in x.terms]
    raw_y = [(c, m) for m, c in y.terms]
    products = [(c1 * c2, _raw_product(m1, m2)) for c1, m1 in raw_x for c2, m2 in raw_y]
    cases = [
        (x + y, raw_x + raw_y),
        (x - y, raw_x + [(-c, m) for c, m in raw_y]),
        (x.star(), [(c, m.star()) for c, m in raw_x]),
        (x * y, [(c, m) for c, m in products if m is not None]),
    ]
    for got, raw in cases:
        assert got == ctx.from_raw(raw)
        assert all(ctx.is_normal(m) for m, _ in got.terms)


def _random_special(obj: CLObject, rng: random.Random) -> tuple:
    g = obj.graph
    return tuple((v, rng.choice(g.out_edges(v))) for v in sorted(obj.s_set))


def _generator_images(ctx: AlgebraContext) -> dict:
    g = ctx.graph
    return {**{v: ctx.vertex(v) for v in g.vertices},
            **{e: ctx.edge(e) for e in g.edge_ids()}}


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FIELDS), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_change_of_special_edges_is_a_star_isomorphism(field, seed):
    # any choice of special edges gives a basis of the same algebra, so the
    # generators of one context evaluated in the other form a *-isomorphism
    rng = random.Random(seed)
    obj = random_object(rng)
    a = AlgebraContext(obj, field, _random_special(obj, rng))
    b = AlgebraContext(obj, field, _random_special(obj, rng))
    to_a, to_b = _generator_images(a), _generator_images(b)
    x = random_element(a, rng, max_terms=6)
    y = random_element(a, rng, max_terms=6)
    fx, fy = evaluate_element(x, to_b), evaluate_element(y, to_b)
    assert fx.ctx is b
    assert evaluate_element(x + y, to_b) == fx + fy
    assert evaluate_element(x * y, to_b) == fx * fy
    assert evaluate_element(x.star(), to_b) == fx.star()
    assert evaluate_element(fx, to_a) == x


@st.composite
def cycles_with_exits(draw):
    """A cycle v1 -> ... -> vk -> v1 with exits to a sink w, and a random S.

    Edge ids are shuffled, so an exit edge may sort before or after the
    cycle edge at its vertex.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    exits = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=k))
    ids = draw(st.permutations([f"e{i}" for i in range(k + len(exits))]))
    vs = [f"v{i}" for i in range(1, k + 1)]
    edges = [(ids[i], vs[i], vs[(i + 1) % k]) for i in range(k)]
    edges += [(ids[k + j], vs[i], "w") for j, i in enumerate(exits)]
    return CLObject(Graph(vs + ["w"], edges), [v for v in vs if draw(st.booleans())])


def _assert_chain_stays_small(obj: CLObject, count: int = 50):
    _, _, powers, projections = exit_cycle_chain(obj, predicates(obj.graph).exit_cycles[0], count)
    for p in projections:
        assert len(p.terms) == 1
        assert len((powers[0] - p).terms) <= 2


def test_rose_with_exit_chain_is_one_monomial_per_step():
    # its smallest edge is a loop; as the special edge it gave p_n 2n + 1 terms
    golden = FilePath(__file__).parent / "golden" / "inputs" / "rose_with_exit.json"
    _assert_chain_stays_small(load_object(str(golden)))


@settings(max_examples=40, deadline=None)
@given(obj=cycles_with_exits())
def test_exit_cycle_chain_is_one_monomial_per_step(obj):
    _assert_chain_stays_small(obj)


def _dense_nullspace(rows, field) -> list:
    """Reference: Gauss-Jordan updating every column of every row."""
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.one / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_nullspace_basis_matches_dense_elimination(field, data):
    ncols = data.draw(st.integers(min_value=1, max_value=8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=1, max_size=7))
    rows = [[field.from_int(x) for x in row] for row in rows]
    assert nullspace_basis(rows, field) == _dense_nullspace(rows, field)


def _brute_force_cycles(g: Graph) -> list:
    """Closed paths with pairwise distinct sources, each in canonical rotation
    (starting at its smallest source), sorted by (length, edges)."""
    out = []
    stack = [((e,), frozenset({g.src(e)})) for e in g.edge_ids()]
    while stack:
        edges, sources = stack.pop()
        at = g.rng(edges[-1])
        if at == g.src(edges[0]) and at == min(sources):
            out.append(edges)
        stack.extend((edges + (e,), sources | {at})
                     for e in g.out_edges(at) if at not in sources)
    return sorted(out, key=lambda c: (len(c), c))


@st.composite
def multigraphs_with_tails(draw):
    """A multigraph on up to 5 vertices, with long tails into and out of it."""
    n = draw(st.integers(min_value=1, max_value=5))
    core = [f"v{i}" for i in range(n)]
    edges = [(f"e{k}", draw(st.sampled_from(core)), draw(st.sampled_from(core)))
             for k in range(draw(st.integers(min_value=0, max_value=9)))]
    vertices = list(core)
    for t in range(draw(st.integers(min_value=0, max_value=3))):
        length = draw(st.integers(min_value=1, max_value=30))
        into = draw(st.booleans())
        # "a" sorts before the core's ids and "x" after them
        chain = [f"{'a' if into else 'x'}{t}_{i}" for i in range(length)]
        end = draw(st.sampled_from(core))
        chain = chain + [end] if into else [end] + chain
        vertices.extend(v for v in chain if v not in core)
        edges.extend((f"t{t}_{i}", u, w) for i, (u, w) in enumerate(zip(chain, chain[1:])))
    return Graph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(g=multigraphs_with_tails())
def test_find_cycles_matches_definition(g):
    assert [c.edges for c in find_cycles(g)] == _brute_force_cycles(g)
