"""Reference answers computed apart from the program.

Nothing here imports clpa.  Graphs are the plain dicts of ``corpus``;
blocks are ``(kind, size, shifts, period)`` tuples.  Each function is the
textbook definition written directly, small inputs only:

* block data of a no-exit object by counting paths by length with a
  dynamic programme (no path enumeration);
* complete subobjects by filtering every subgraph by the all-or-nothing
  condition;
* graded isomorphism of matrix blocks by the criterion "shifts equal up to
  a permutation and a uniform translation, modulo the period for Laurent
  blocks" (Hazrat, Graded Rings and Graded Grothendieck Groups, LMS LNS 435,
  section 1.3);
* relative-graph predicates by reachability.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Plain:
    """A graph dict with adjacency lists."""

    def __init__(self, data: dict):
        self.vertices = sorted(data["vertices"])
        self.edges = [(e["id"], e["src"], e["rng"]) for e in data["edges"]]
        self.s_set = set(data["S"])
        self.out = {v: [] for v in self.vertices}
        for eid, s, r in self.edges:
            self.out[s].append((eid, r))

    def sinks(self):
        return [v for v in self.vertices if not self.out[v]]

    def regular(self):
        return [v for v in self.vertices if self.out[v]]

    def on_cycle(self) -> set:
        """Vertices from which some path of positive length returns."""
        found = set()
        for v in self.vertices:
            seen, todo = set(), [r for _, r in self.out[v]]
            while todo:
                w = todo.pop()
                if w == v:
                    found.add(v)
                    break
                if w not in seen:
                    seen.add(w)
                    todo.extend(r for _, r in self.out[w])
        return found

    def is_acyclic(self) -> bool:
        return not self.on_cycle()

    def is_no_exit(self) -> bool:
        return all(len(self.out[v]) == 1 for v in self.on_cycle())

    def no_exit_cycles(self) -> list:
        """The cycles of a no-exit graph as vertex lists (each vertex on a
        cycle has exactly one out-edge, so following it traces the cycle)."""
        cycles, done = [], set()
        for v in sorted(self.on_cycle()):
            if v in done:
                continue
            ring, w = [], v
            while w not in ring:
                ring.append(w)
                w = self.out[w][0][1]
            done |= set(ring)
            cycles.append(ring)
        return cycles


# -- block data of no-exit objects -----------------------------------------------


def path_counts(g: Plain, target: str) -> dict:
    """{source: {length: number of paths}} ending at ``target`` whose edges
    never leave ``target`` (it occurs only at the end)."""
    layer = {target: 1}
    counts = {target: {0: 1}}
    length = 0
    while layer:
        length += 1
        if length > len(g.vertices) + 1:
            raise ValueError(f"infinitely many paths into {target}")
        nxt = {}
        for eid, s, r in g.edges:
            if s != target and r in layer:
                nxt[s] = nxt.get(s, 0) + layer[r]
        for s, k in nxt.items():
            counts.setdefault(s, {})[length] = k
        layer = nxt
    return counts


def shift_vector(counts: dict) -> tuple:
    out = []
    for per_len in counts.values():
        for length, k in per_len.items():
            out += [length] * k
    return tuple(sorted(out))


def blocks_of(g: Plain) -> list:
    """[(kind, target, size, shifts, period)] sorted; kind as the program
    names it: sink, unrelated (regular outside S) or cycle."""
    out = []
    for v in g.sinks():
        sh = shift_vector(path_counts(g, v))
        out.append(("sink", v, len(sh), sh, None))
    for v in g.regular():
        if v not in g.s_set:
            sh = shift_vector(path_counts(g, v))
            out.append(("unrelated", v, len(sh), sh, None))
    for ring in g.no_exit_cycles():
        base = min(ring)
        sh = shift_vector(path_counts(g, base))
        out.append(("cycle", base, len(sh), sh, len(ring)))
    return sorted(out, key=repr)


def canon_field(shifts) -> tuple:
    s = sorted(shifts)
    return tuple(x - s[0] for x in s)


def canon_laurent(shifts, period: int) -> tuple:
    return min(tuple(sorted((x + d) % period for x in shifts)) for d in range(period))


def canon_block(kind, size, shifts, period) -> tuple:
    if kind == "field":
        return ("field", size, canon_field(shifts), None)
    return ("laurent", size, canon_laurent(shifts, period), period)


def signature(blocks) -> tuple:
    """Canonical (field blocks, laurent blocks) from blocks_of output."""
    fb = sorted((size, canon_field(sh)) for kind, _, size, sh, _ in blocks if kind != "cycle")
    lb = sorted((size, n, canon_laurent(sh, n))
                for kind, _, size, sh, n in blocks if kind == "cycle")
    return tuple(fb), tuple(lb)


# -- complete subobjects ------------------------------------------------------------


def is_complete(g: Plain, vertices: set, edge_ids: set) -> bool:
    for v in g.s_set & vertices:
        out = {e for e, _ in g.out[v]}
        if out & edge_ids and not out <= edge_ids:
            return False
    return True


def complete_subobjects(g: Plain) -> list:
    """Every (vertex set, edge set, T) passing the completeness filter."""
    by_id = {e: (s, r) for e, s, r in g.edges}
    found = []
    for vmask in product((0, 1), repeat=len(g.vertices)):
        vs = {v for v, bit in zip(g.vertices, vmask) if bit}
        inside = [e for e, (s, r) in by_id.items() if s in vs and r in vs]
        for emask in product((0, 1), repeat=len(inside)):
            es = {e for e, bit in zip(inside, emask) if bit}
            if is_complete(g, vs, es):
                t = frozenset(v for v in g.s_set if {e for e, _ in g.out[v]} & es)
                found.append((frozenset(vs), frozenset(es), t))
    return found


def closure(g: Plain, vertices, edge_ids) -> tuple:
    """The smallest complete subobject containing the given subgraph."""
    vs, es = set(vertices), set(edge_ids)
    by_id = {e: (s, r) for e, s, r in g.edges}
    changed = True
    while changed:
        changed = False
        for v in sorted(g.s_set & vs):
            out = {e for e, _ in g.out[v]}
            if out & es and not out <= es:
                es |= out
                vs |= {by_id[e][1] for e in out}
                changed = True
    t = {v for v in g.s_set if {e for e, _ in g.out[v]} & es}
    return vs, es, t


def check_dot(text: str, nodes_expected: int):
    """None if every node parses and every edge is a covering inclusion."""
    nodes, arrows = {}, []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("n") and "[label=" in line:
            idx = int(line[1:line.index(" ")])
            label = line[line.index('"') + 1:line.rindex('"')]
            vs, es, t = label.split(";")
            nodes[idx] = tuple(frozenset(x for x in part.strip("T={}").split(",") if x)
                               for part in (vs, es, t))
        elif "->" in line:
            a, b = line.rstrip(";").split("->")
            arrows.append((int(a.strip()[1:]), int(b.strip()[1:])))
    if len(nodes) != nodes_expected:
        return f"DOT has {len(nodes)} nodes, expected {nodes_expected}"

    def leq(x, y):
        return all(p <= q for p, q in zip(nodes[x], nodes[y]))

    for a, b in arrows:
        if not leq(a, b) or nodes[a] == nodes[b]:
            return f"DOT edge n{a} -> n{b} is not a strict inclusion"
        if any(k not in (a, b) and leq(a, k) and leq(k, b) for k in nodes):
            return f"DOT edge n{a} -> n{b} is not a covering pair"
    return None


# -- relative graph and monoid ----------------------------------------------------


def relative(g: Plain) -> Plain:
    """Add a sink v' for each regular v outside S and a copy e' -> v' of
    every edge e ranging at such a v (corpus ids never contain a prime, so
    the names are the program's)."""
    unrelated = {v for v in g.regular() if v not in g.s_set}
    vertices = list(g.vertices) + [v + "'" for v in unrelated]
    edges = [{"id": e, "src": s, "rng": r} for e, s, r in g.edges]
    edges += [{"id": e + "'", "src": s, "rng": r + "'"}
              for e, s, r in g.edges if r in unrelated]
    return Plain({"vertices": vertices, "edges": edges, "S": []})


def relative_facts(g: Plain) -> dict:
    rel = relative(g)
    no_exit = rel.is_no_exit()
    return {
        "no_exit": no_exit,
        "acyclic": rel.is_acyclic(),
        "sink_free": not rel.sinks(),
        "rank": len(rel.sinks()) + len(rel.no_exit_cycles()) if no_exit else None,
        "vertices": len(rel.vertices),
        "edges": len(rel.edges),
    }


FAMILY_PREDICATE = {
    "union_matricial": "no_exit", "sum_matricial": "no_exit",
    "projectives": "no_exit", "noetherian": "no_exit", "baer_socle": "no_exit",
    "graded_artinian": "no_exit", "union_field": "acyclic", "sum_field": "acyclic",
    "artinian": "acyclic", "laurent_sum": "laurent",
}


def family_truth(facts: dict) -> dict:
    value = dict(facts, laurent=facts["no_exit"] and facts["sink_free"])
    return {fam: value[pred] for fam, pred in FAMILY_PREDICATE.items()}


def monoid_relations(g: Plain):
    """Generators and relations (v, ranges of v's edges) of the monoid,
    read off the relative graph."""
    rel = relative(g)
    return rel.vertices, [(v, [r for _, r in rel.out[v]]) for v in rel.regular()]


def invariant(g: Plain) -> dict:
    """Generator -> path counts into each sink and cycle base of the
    relative graph (which must be no-exit)."""
    rel = relative(g)
    targets = rel.sinks() + [min(r) for r in rel.no_exit_cycles()]
    per_target = [path_counts(rel, t) for t in targets]
    return {v: tuple(sum(pc.get(v, {}).values()) for pc in per_target)
            for v in rel.vertices}


def invariant_value(inv: dict, counts: dict) -> tuple:
    size = len(next(iter(inv.values())))
    return tuple(sum(m * inv[gen][i] for gen, m in counts.items()) for i in range(size))


def nullspace(rows, ncols: int) -> list:
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][free]
        basis.append(vec)
    return basis


def relation_rows(generators, relations) -> list:
    index = {gname: i for i, gname in enumerate(generators)}
    rows = []
    for v, rhs in relations:
        row = [0] * len(generators)
        row[index[v]] += 1
        for w in rhs:
            row[index[w]] -= 1
        rows.append(row)
    return rows


def functional_separates(functional, rows, diff) -> bool:
    f = [Fraction(x) for x in functional]
    return (all(sum(a * b for a, b in zip(f, row)) == 0 for row in rows)
            and sum(a * b for a, b in zip(f, diff)) != 0)


# -- graded isomorphism -----------------------------------------------------------


def iso_truth(blocks_a, blocks_b) -> bool:
    key = lambda blocks: sorted(canon_block(*b) for b in blocks)
    return key(blocks_a) == key(blocks_b)


def component_dim(blocks, delta: int) -> int:
    total = 0
    for kind, size, g, period in blocks:
        for i in range(size):
            for j in range(size):
                d = delta - g[i] + g[j]
                total += (d == 0) if kind == "field" else (d % period == 0)
    return total


def match_ok(a, b, perm, translation, tpowers) -> bool:
    """Does (perm, translation, tpowers) carry block a onto block b?"""
    kind, size, ga, period = a
    if b[0] != kind or b[1] != size or b[3] != period:
        return False
    if sorted(perm) != list(range(size)):
        return False
    gb = b[2]
    for i in range(size):
        lhs = ga[i] + translation - gb[perm[i]]
        want = 0 if kind == "field" else tpowers[i] * period
        if lhs != want:
            return False
    return True


def check_iso(blocks_a, blocks_b, answer, canonical: bool):
    """None if ``answer`` (verdict, matches, certificate) is right.

    ``canonical`` says the program saw the signatures in canonical form
    (sorted, shifts normalised), so matches refer to canonical shifts.
    """
    truth = iso_truth(blocks_a, blocks_b)
    verdict, matches, cert = answer
    if canonical:
        blocks_a = sorted((canon_block(*b) for b in blocks_a), key=_sig_order)
        blocks_b = sorted((canon_block(*b) for b in blocks_b), key=_sig_order)
    if verdict == "unknown":
        return "fail", f"verdict unknown, truth {'yes' if truth else 'no'}"
    if verdict == "yes":
        if not truth:
            return "wrong", "verdict yes, truth no"
        free = list(range(len(blocks_b)))
        if len(matches) != len(blocks_a):
            return "wrong", "one match per block expected"
        for a, (perm, d, tp) in zip(blocks_a, matches):
            hit = next((j for j in free if match_ok(a, blocks_b[j], perm, d, tp)), None)
            if hit is None:
                return "wrong", f"match {perm},{d},{tp} does not carry block {a}"
            free.remove(hit)
        return None
    if verdict == "no":
        if truth:
            return "wrong", "verdict no, truth yes"
        delta, da, db = cert
        if (da, db) != (component_dim(blocks_a, delta), component_dim(blocks_b, delta)) or da == db:
            return "wrong", f"certificate at degree {delta} does not separate"
        return None
    return "wrong", f"verdict {verdict!r}"


def _sig_order(blk):
    kind, size, shifts, period = blk
    return (kind != "field", size, period or 0, shifts)
