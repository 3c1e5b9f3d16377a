"""Finite directed graphs with a designated vertex subset S.

The pair (E, S) — a graph together with a set S of regular vertices — is the
basic object of the package: it determines a Cohn-Leavitt algebra in which
the full Cuntz-Krieger relation is imposed exactly at the vertices of S.

Everything here is immutable and id-based: vertices and edges are nonempty
strings without whitespace or any of ``| . ~``.  Multigraphs (parallel edges,
several loops at one vertex) are fully supported, which is why a cycle is
stored as an edge sequence, not a vertex sequence: the :class:`Path` around
it from its base, the smallest vertex id on it.  No cycle list is built:
:func:`cycle_facts` finds the cycles without an exit, the vertices on a
cycle and one shortest cycle with an exit, with one walk and one search per
bifurcation.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import cached_property
from typing import Iterable, Optional

from ._record import Record
from .errors import GraphFormatError, NonFiniteEnumeration, NotASubgraph

_ID_RE = re.compile(r"[^\s|.~]+")


def _check_id(kind: str, name) -> str:
    if not isinstance(name, str) or not _ID_RE.fullmatch(name):
        raise GraphFormatError(
            f"bad {kind} id {name!r}: ids are nonempty strings without "
            "whitespace or any of '|', '.', '~'"
        )
    return name


class Graph(Record):
    """A finite directed graph.  Edges are (id, source, range) triples."""

    vertices: frozenset
    edges: tuple

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple]):
        vs = frozenset(_check_id("vertex", v) for v in vertices)
        es = []
        seen = set()
        for eid, src, rng in edges:
            _check_id("edge", eid)
            if eid in seen:
                raise GraphFormatError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if not (isinstance(src, str) and src in vs and isinstance(rng, str) and rng in vs):
                raise GraphFormatError(f"edge {eid!r} has undeclared endpoint")
            es.append((eid, src, rng))
        if vs & seen:
            raise GraphFormatError(f"ids used for both a vertex and an edge: {sorted(vs & seen)}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(sorted(es)))
        out: dict = {v: [] for v in vs}
        inn: dict = {v: [] for v in vs}
        by_id: dict = {}
        for e in self.edges:
            out[e[1]].append(e[0])
            inn[e[2]].append(e[0])
            by_id[e[0]] = e
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "_in", {v: tuple(es) for v, es in inn.items()})
        object.__setattr__(self, "_by_id", by_id)

    # -- basic accessors ---------------------------------------------------

    def src(self, eid: str) -> str:
        return self._by_id[eid][1]

    def rng(self, eid: str) -> str:
        return self._by_id[eid][2]

    def out_edges(self, v: str) -> tuple:
        """Edge ids emitted by v, sorted."""
        return self._out[v]

    def in_edges(self, v: str) -> tuple:
        return self._in[v]

    def edge_ids(self) -> tuple:
        return tuple(e[0] for e in self.edges)

    def sinks(self) -> tuple:
        return tuple(sorted(v for v in self.vertices if not self._out[v]))

    def regular_vertices(self) -> tuple:
        """Vertices emitting at least one edge (finiteness is automatic here)."""
        return tuple(sorted(v for v in self.vertices if self._out[v]))

    def bifurcations(self) -> tuple:
        return tuple(sorted(v for v in self.vertices if len(self._out[v]) >= 2))

    def is_subgraph_of(self, other: "Graph") -> bool:
        return self.vertices <= other.vertices and set(self.edges) <= set(other.edges)

    # the cycles without an exit, the vertices on a cycle and a shortest
    # cycle with an exit (see cycle_facts), found together on first read
    _cycle_facts = cached_property(lambda self: cycle_facts(self))
    cycles = property(lambda self: self._cycle_facts[0])
    cycle_vertices = property(lambda self: self._cycle_facts[1])
    exit_cycle = property(lambda self: self._cycle_facts[2])

    # -- paths -------------------------------------------------------------

    def path_range(self, p: "Path") -> str:
        return self.rng(p.edges[-1]) if p.edges else p.source

    def path_vertices(self, p: "Path") -> tuple:
        """The vertex sequence s(e1), ..., s(ek), r(p) (just the source if trivial)."""
        return (p.source,) + tuple(self.rng(e) for e in p.edges)

    def make_path(self, edge_ids: Iterable[str], source: Optional[str] = None) -> "Path":
        """The path along ``edge_ids`` (from ``source``, if given), checked: the
        one check of ids and edge sequences against the graph.  The first fault,
        in the order unknown source, unknown edge id, first edge not from the
        source, two edges that do not compose, raises GraphFormatError naming
        its id, with the id's index in ``edge_ids`` (None for the source)."""
        ids = tuple(edge_ids)
        if source is None and not ids:
            raise ValueError("make_path needs a source or at least one edge")
        if source is not None and source not in self.vertices:
            raise GraphFormatError(f"unknown vertex {source!r}")
        for i, e in enumerate(ids):
            if e not in self._by_id:
                raise GraphFormatError(f"unknown edge id {e!r}", i)
        if source is not None and ids and self.src(ids[0]) != source:
            raise GraphFormatError(f"edge {ids[0]!r} does not start at {source!r}", 0)
        for i in range(1, len(ids)):
            if self.rng(ids[i - 1]) != self.src(ids[i]):
                raise GraphFormatError(f"edges {ids[i - 1]!r} and {ids[i]!r} do not compose", i)
        return Path(self.src(ids[0]) if ids else source, ids)


class Path(Record):
    """A finite path: a source vertex plus a (possibly empty) edge sequence."""

    __slots__ = ("source", "edges")
    source: str
    edges: tuple

    def __init__(self, source: str, edges: tuple = ()):
        _set_path_source(self, source)
        _set_path_edges(self, edges)

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.source == other.source and self.edges == other.edges

    def __hash__(self):
        return hash((self.source, self.edges))

    def __len__(self):
        return len(self.edges)

    length = property(__len__)

    def sort_key(self):
        return (len(self.edges), self.edges, self.source)

    def __str__(self):
        return ".".join(self.edges) if self.edges else self.source


# the slots' own setters write past the frozen __setattr__, faster than object.__setattr__
_set_path_source, _set_path_edges = Path.source.__set__, Path.edges.__set__


def _reach(step, end, start: str) -> dict:
    """Breadth-first search: each vertex reached from ``start`` by a nonempty
    path (along ``step(v)``'s edges to ``end(e)``) -> the edge first reaching it."""
    first, queue = {}, [start]
    for v in queue:  # the queue grows as it is read
        for e in step(v):
            if end(e) not in first:
                first[end(e)] = e
                queue.append(end(e))
    return first


def cycle_facts(graph: Graph) -> tuple:
    """The cycles without an exit, the vertices on some cycle, and a shortest
    cycle with an exit (None exactly when the graph is no-exit).

    No cycle is listed.  A cycle has no exit exactly when each of its
    vertices emits one edge, so following those only edges, visiting each
    vertex once, finds these cycles; they come in :meth:`Path.sort_key`
    order.  Every other cycle passes through a bifurcation b, and its
    vertices are those that b reaches and that reach b.  The search forward
    from b meets b again first along a shortest cycle through b; ties go to
    the smaller bifurcation, then to the first path in edge order.  Each
    cycle is the closed :class:`Path` from its base, its smallest vertex.
    """
    def based(edges: list) -> Path:
        k = min(range(len(edges)), key=lambda i: graph.src(edges[i]))
        return Path(graph.src(edges[k]), tuple(edges[k:] + edges[:k]))

    cycles, walked = [], {}
    for start in graph.vertices:
        v, vs, es = start, [], []
        while v not in walked and len(graph.out_edges(v)) == 1:
            walked[v] = start
            vs.append(v)
            es.append(graph.out_edges(v)[0])
            v = graph.rng(es[-1])
        if walked.get(v) == start:  # the walk closed on itself
            cycles.append(based(es[vs.index(v):]))
    on_cycles = {v for c in cycles for v in graph.path_vertices(c)}
    exit_cycle = None
    for b in graph.bifurcations():
        ahead = _reach(graph.out_edges, graph.rng, b)
        if b not in ahead:
            continue
        on_cycles |= ahead.keys() & _reach(graph.in_edges, graph.src, b).keys()
        edges = [ahead[b]]
        while graph.src(edges[-1]) != b:
            edges.append(ahead[graph.src(edges[-1])])
        if exit_cycle is None or len(edges) < len(exit_cycle):
            exit_cycle = based(edges[::-1])
    return tuple(sorted(cycles, key=Path.sort_key)), frozenset(on_cycles), exit_cycle


class CLObject(Record):
    """A graph together with a subset S of its regular vertices."""

    graph: Graph
    s_set: frozenset

    def __init__(self, graph: Graph, s_set: Iterable[str] = ()):
        ss = frozenset(_check_id("vertex", v) for v in s_set)
        regular = set(graph.regular_vertices())
        bad = ss - regular
        if bad:
            raise GraphFormatError(
                f"S contains vertices that are not regular (or not declared): {sorted(bad)}"
            )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "s_set", ss)

    # the relative graph (see relative_graph), built on first read
    relative = cached_property(lambda self: relative_graph(self))


def paths_into(graph: Graph, target: str) -> list:
    """All paths ending at ``target`` that do not pass through it before the end.

    The trivial path at the target is always included and the result is
    sorted by (length, edge ids).

    Raises :class:`NonFiniteEnumeration` if a cycle avoiding the target can
    reach it (the family would be infinite).
    """
    if target not in graph.vertices:
        raise GraphFormatError(f"unknown vertex {target!r}")
    out = [Path(target)]
    # depth-first walk backwards: a stack of (in-edge iterator, path so far)
    seen = {target}
    stack = [(iter(graph.in_edges(target)), ())]
    while stack:
        it, edges = stack[-1]
        eid = next(it, None)
        if eid is None:
            stack.pop()
            if edges:
                seen.discard(graph.src(edges[0]))
            continue
        u = graph.src(eid)
        if u == target:
            continue
        if u in seen:
            raise NonFiniteEnumeration(
                f"infinitely many paths into {target!r}: cycle through {u!r} "
                "avoids the target"
            )
        p = Path(u, (eid,) + edges)
        out.append(p)
        seen.add(u)
        stack.append((iter(graph.in_edges(u)), p.edges))
    out.sort(key=Path.sort_key)
    return out


def is_complete_subobject(sub: CLObject, ambient: CLObject):
    """Check the all-or-nothing condition for (sub) inside (ambient).

    Returns ``(ok, violations)`` where violations name offending vertices.
    The condition: T is contained in S, and whenever a vertex v of S appears
    in the subgraph with at least one of its ambient out-edges, then *all*
    its ambient out-edges are present and v lies in T.  A vertex of T always
    emits an edge of F, as :class:`CLObject` holds T to regular vertices.
    """
    F, T = sub.graph, sub.s_set
    E, S = ambient.graph, ambient.s_set
    if not F.is_subgraph_of(E):
        raise NotASubgraph("candidate is not a subgraph of the ambient graph")
    violations = []
    if not T <= S:
        violations.extend(f"{v}: in T but not in S" for v in sorted(T - S))
    for v in sorted(S & F.vertices):
        ambient_out = set(E.out_edges(v))
        present = ambient_out & set(F.edge_ids())
        if present:
            if present != ambient_out:
                violations.append(
                    f"{v}: emits {sorted(ambient_out - present)} in the ambient "
                    "graph but not in the subgraph"
                )
            if v not in T:
                violations.append(f"{v}: emits edges in the subgraph but is not in T")
    return (not violations), violations


def complete(sub_graph: Graph, ambient: CLObject) -> CLObject:
    """Close a subgraph to the minimal complete subobject of the ambient object.

    The closure is the least down-set of the poset of :class:`SubobjectSystem`
    holding the subgraph: its vertices, and every upper element with an
    edge in it together with that element's endpoints.
    """
    if not sub_graph.is_subgraph_of(ambient.graph):
        raise NotASubgraph("candidate is not a subgraph of the ambient graph")
    present = set(sub_graph.edges)
    chosen = [(edges, t) for _, edges, t in _poset(ambient)[1] if present.intersection(edges)]
    edges = [e for group, _ in chosen for e in group]
    vertices = sub_graph.vertices | {v for _, src, rng in edges for v in (src, rng)}
    result = CLObject(Graph(vertices, edges), [t for _, t in chosen if t is not None])
    ok, violations = is_complete_subobject(result, ambient)
    if not ok:  # pragma: no cover - closure is constructed to satisfy the check
        raise AssertionError(f"closure failed its own check: {violations}")
    return result


class RelativeGraph(Record):
    """The relative graph of (E, S) plus the bookkeeping of its new ids.

    For every regular vertex v outside S a fresh sink v' is added, and every
    edge e ranging at such a v acquires a parallel copy e' ranging at v'.
    ``primed_vertex`` / ``primed_edge`` map the original ids to the new ones.
    """

    graph: Graph
    primed_vertex: dict
    primed_edge: dict

    # the relative graph with S = all regular vertices (full relations), built on first read
    leavitt = cached_property(lambda self: CLObject(self.graph, self.graph.regular_vertices()))


def _fresh(name: str, taken: set) -> str:
    candidate = name + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


def relative_graph(obj: CLObject) -> RelativeGraph:
    E, S = obj.graph, obj.s_set
    unprimed = set(E.regular_vertices()) - set(S)
    taken = set(E.vertices) | set(E.edge_ids())
    primed_vertex = {}
    for v in sorted(unprimed):
        primed_vertex[v] = _fresh(v, taken)
        taken.add(primed_vertex[v])
    primed_edge = {}
    edges = list(E.edges)
    for eid in sorted(E.edge_ids()):
        if E.rng(eid) in unprimed:
            primed_edge[eid] = _fresh(eid, taken)
            taken.add(primed_edge[eid])
            edges.append((primed_edge[eid], E.src(eid), primed_vertex[E.rng(eid)]))
    graph = Graph(set(E.vertices) | set(primed_vertex.values()), edges)
    return RelativeGraph(graph, primed_vertex, primed_edge)


class SubobjectSystem(Record):
    """All complete subobjects of a finite object, ordered by inclusion.

    A complete subobject is a vertex set with an edge set that holds each
    S-vertex's out-edges all or none (T is then the S-vertices emitting an
    edge), so the subobjects are the down-sets of a poset P: the sorted
    vertices, then one element per S-vertex standing for its whole out-edge
    group, then one per edge from a vertex outside S, each above its edges'
    endpoints.  Node i is ``masks[i]``, bit k for the k-th element of P, and
    the nodes form a finite distributive lattice (Birkhoff; Davey-Priestley,
    *Introduction to Lattices and Order*, ch. 5).
    """

    ambient: CLObject
    masks: tuple          # int per node, sorted deterministically
    top_index: int

    # P as (sorted vertices, upper elements), see _poset
    poset = cached_property(lambda self: _poset(self.ambient))

    def covers(self):
        """The covering pairs (i, j) of the inclusion order, sorted, one at a time.

        In a lattice of down-sets, J covers I exactly when J = I + {x} for
        an x outside I whose lower elements all lie in I.
        """
        vertices, uppers = self.poset
        below = [0] * len(vertices) + [b for b, _, _ in uppers]
        index = {m: i for i, m in enumerate(self.masks)}
        for i, m in enumerate(self.masks):
            js = [index[m | 1 << x] for x, b in enumerate(below) if not m >> x & 1 and b | m == m]
            for j in sorted(js):
                yield i, j

    def contents(self, i: int) -> tuple:
        """Node i's vertex ids, edge triples and T, each sorted."""
        vertices, uppers = self.poset
        m = self.masks[i]
        chosen = [u for k, u in enumerate(uppers) if m >> len(vertices) + k & 1]
        return ([v for k, v in enumerate(vertices) if m >> k & 1],
                sorted(e for _, edges, _ in chosen for e in edges),
                [t for _, _, t in chosen if t is not None])

    def node(self, i: int) -> CLObject:
        """Node i as a CLObject, built from its mask."""
        vertices, edges, t_set = self.contents(i)
        return CLObject(Graph(vertices, edges), t_set)

    # every node as a CLObject, built on first read
    nodes = cached_property(lambda self: tuple(map(self.node, range(len(self.masks)))))


def _poset(obj: CLObject) -> tuple:
    """P as the sorted vertices and the upper elements, in order.

    An upper element is ``(below, edges, t)``: ``below`` is the mask of the
    endpoints of ``edges``, and ``t`` the S-vertex emitting them, or None
    for an edge from a vertex outside S.
    """
    E, S = obj.graph, obj.s_set
    vertices = sorted(E.vertices)
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    groups = [(E.out_edges(v), v) for v in sorted(S)]
    groups += [((eid,), None) for eid, src, _ in E.edges if src not in S]
    uppers = []
    for eids, t in groups:
        edges = tuple(E._by_id[e] for e in eids)
        ends = {v for _, src, rng in edges for v in (src, rng)}
        uppers.append((sum(bit[v] for v in ends), edges, t))
    return vertices, uppers


def subobject_system(obj: CLObject) -> SubobjectSystem:
    """Enumerate every complete subobject (exponential; intended for small graphs).

    A down-set of P is any set of upper elements together with any superset
    of their endpoints.  Nodes are sorted by vertex count, edge count, vertex
    ids and then edges, which puts the whole object last.
    """
    vertices, uppers = _poset(obj)
    everyone = (1 << len(vertices)) - 1
    keyed = []
    for chosen in range(1 << len(uppers)):
        need, edges = 0, []
        for k, (below, group, _) in enumerate(uppers):
            if chosen >> k & 1:
                need |= below
                edges.extend(group)
        edges.sort()
        free = everyone & ~need
        sub = free
        while True:  # every subset of the free vertices
            vs = need | sub
            names = tuple([v for k, v in enumerate(vertices) if vs >> k & 1])
            keyed.append(((len(names), len(edges), names, edges), vs | chosen << len(vertices)))
            if not sub:
                break
            sub = (sub - 1) & free
    keyed.sort()
    return SubobjectSystem(obj, tuple(m for _, m in keyed), len(keyed) - 1)


# -- JSON interchange -------------------------------------------------------


def graph_to_json(vertices: list, edges, s_set=None) -> dict:
    """The JSON record of sorted vertex ids, (id, source, range) triples
    sorted by id and, unless None, the sorted list S."""
    data = {"vertices": vertices, "edges": [{"id": e, "src": s, "rng": r} for e, s, r in edges]}
    if s_set is not None:
        data["S"] = s_set
    return data


def object_to_json(obj: CLObject) -> dict:
    return graph_to_json(sorted(obj.graph.vertices), obj.graph.edges, sorted(obj.s_set))


def object_from_json(data) -> CLObject:
    if not isinstance(data, dict):
        raise GraphFormatError("graph JSON must be an object")
    unknown = sorted(set(data) - {"vertices", "edges", "S"})
    if unknown:
        raise GraphFormatError(f"graph JSON has unknown keys {unknown}")
    if "vertices" not in data:
        raise GraphFormatError("graph JSON missing field: 'vertices'")
    vertices, raw_edges, s_set = data["vertices"], data.get("edges", []), data.get("S", [])
    for name, value in (("vertices", vertices), ("edges", raw_edges), ("S", s_set)):
        if not isinstance(value, list):
            raise GraphFormatError(f"graph JSON field {name!r} must be a list")
    edges = []
    for e in raw_edges:
        try:
            edges.append((e["id"], e["src"], e["rng"]))
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"edge record {e!r} missing field") from exc
        if len(e) != 3:
            raise GraphFormatError(f"edge record {e!r} has unknown keys "
                                   f"{sorted(set(e) - {'id', 'src', 'rng'})}")
    obj = CLObject(Graph(vertices, edges), s_set)
    for kind, ids in (("vertex id", vertices), ("S entry", s_set)):
        repeated = [x for x, n in Counter(ids).items() if n > 1]
        if repeated:
            raise GraphFormatError(f"repeated {kind} {repeated[0]!r}")
    return obj


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; a repeated key raises ValueError naming it."""
    repeated = [k for k, n in Counter(k for k, _ in pairs).items() if n > 1]
    if repeated:
        raise ValueError(f"repeated key {repeated[0]!r}")
    return dict(pairs)


def read_json(path: str):
    """The JSON value in a file; malformed or too deeply nested text, or an
    object with a repeated key, raises GraphFormatError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise GraphFormatError(f"{path}: {exc}") from exc


def load_object(path: str) -> CLObject:
    return object_from_json(read_json(path))


def dot_lines(system: SubobjectSystem):
    """The lines of :func:`system_to_dot`, each as soon as it is known."""
    yield "digraph subobjects {\n  rankdir=BT;\n"
    for i in range(len(system.masks)):
        vertices, edges, t_set = system.contents(i)
        label = "{%s};{%s};T={%s}" % (",".join(vertices), ",".join(e[0] for e in edges),
                                      ",".join(t_set))
        yield f'  n{i} [label="{label}"];\n'
    for i, j in system.covers():
        yield f"  n{i} -> n{j};\n"
    yield "}\n"


def system_to_dot(system: SubobjectSystem) -> str:
    """Write-only DOT rendering of the inclusion order of complete subobjects."""
    return "".join(dot_lines(system))
