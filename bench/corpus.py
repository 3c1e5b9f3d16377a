"""Seeded input generators for the benchmark.

Everything here is plain data: a graph object is the JSON dict that
``clpa.load_object`` reads, a graded block is a ``(kind, size, shifts,
period)`` tuple.  The program only ever sees files written from these
values.  The graph families build their objects with canonical ids;
``relabel`` gives them seeded ids.  Random shapes (multigraphs, mixed
objects) are drawn from a generator seeded by the template, not by the run,
so every seed gives a corpus of the same size and the same cost; the run
seed moves ids, shifts, primes, queries and the order of the ops.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import oracle as O

PRIMES = (2, 3, 5, 7)


def graph(vertices, edges, s_set) -> dict:
    """The graph-file dict; ``edges`` is a list of (id, src, rng) triples."""
    return {
        "vertices": sorted(vertices),
        "edges": [{"id": e, "src": s, "rng": r} for e, s, r in sorted(edges)],
        "S": sorted(s_set),
    }


def relabel(rng: random.Random, data: dict) -> dict:
    """Give every vertex and edge a fresh seeded id, keeping the sort order
    of the vertex ids and of the edge ids.

    The program's choices depend on that order only (the special edge at a
    vertex is its smallest out-edge, a cycle's base its smallest vertex), so
    every seed gives an input of the same cost and a different file.
    """
    def fresh(prefix, old):
        new = sorted(rng.sample(range(100, 1000), len(old)))
        return {o: f"{prefix}{n}" for o, n in zip(sorted(old), new)}

    vmap = fresh("v", data["vertices"])
    emap = fresh("e", [e["id"] for e in data["edges"]])
    return graph([vmap[v] for v in data["vertices"]],
                 [(emap[e["id"]], vmap[e["src"]], vmap[e["rng"]]) for e in data["edges"]],
                 [vmap[v] for v in data["S"]])


# -- graph families, with canonical ids (relabel them for the program) ---------


def comet(tail: int, cycle: int) -> dict:
    """A path of ``tail`` edges into a cycle of length ``cycle`` at its base;
    S = all vertices."""
    xs = [f"x{i}" for i in range(tail)]
    cs = [f"c{j}" for j in range(cycle)]
    edges = [(f"t{i}", x, xs[i + 1] if i + 1 < tail else cs[0]) for i, x in enumerate(xs)]
    edges += [(f"a{j}", c, cs[(j + 1) % cycle]) for j, c in enumerate(cs)]
    return graph(xs + cs, edges, xs + cs)


def binary_tree(depth: int):
    """Complete binary tree of the given depth; S = the internal vertices.
    Returns (graph, root, leaves)."""
    vertices, edges, internal, frontier = ["r"], [], [], ["r"]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            internal.append(v)
            for bit in "01":
                w = v + bit
                vertices.append(w)
                edges.append(("e" + w, v, w))
                nxt.append(w)
        frontier = nxt
    return graph(vertices, edges, internal), "r", frontier


def fan(leaves: int, s_on: bool = False) -> dict:
    """One source emitting one edge to each of ``leaves`` sinks."""
    us = [f"u{i}" for i in range(leaves)]
    return graph(["v"] + us, [(f"e{i}", "v", u) for i, u in enumerate(us)],
                 ["v"] if s_on else [])


def rose_with_exit(loops: int, exit_special: bool) -> dict:
    """``loops`` loops at v plus one edge x to a sink w; S = {v}.  The exit
    is the special (smallest) edge at v, or the largest one."""
    edges = [(f"c{i}", "v", "v") for i in range(loops)]
    edges.append(("a" if exit_special else "x", "v", "w"))
    return graph(["v", "w"], edges, ["v"])


def cycle_with_exit(length: int) -> dict:
    """A cycle of the given length with one edge leaving its base; S = the cycle."""
    cs = [f"c{j}" for j in range(length)]
    edges = [(f"a{j}", c, cs[(j + 1) % length]) for j, c in enumerate(cs)]
    return graph(cs + ["w"], edges + [("x", "c0", "w")], cs)


def multigraph(shape: random.Random, n_vertices: int, n_edges: int) -> dict:
    """A random multigraph with at most one loop and a random valid S."""
    vs = [f"v{i}" for i in range(n_vertices)]
    edges, loops = [], 0
    while len(edges) < n_edges:
        s, r = shape.choice(vs), shape.choice(vs)
        if s == r:
            if loops:
                continue
            loops += 1
        edges.append((f"e{len(edges)}", s, r))
    regular = sorted({s for _, s, _ in edges})
    return graph(vs, edges, [v for v in regular if shape.random() < 0.6])


def mixed_no_exit(shape: random.Random) -> dict:
    """Cycles of length 1 and 2, two sinks, and three feeders with two
    random edges each into the cycles and sinks: a no-exit object with
    several cycles and sinks.  The middle feeder lies outside S."""
    vertices, edges, s_set = ["c0", "d0", "d1", "s0", "s1"], [], {"c0", "d0", "d1"}
    edges = [("a0", "c0", "c0"), ("b0", "d0", "d1"), ("b1", "d1", "d0")]
    targets = ["c0", "d0", "s0", "s1"]
    for k in range(3):
        f = f"f{k}"
        edges += [(f"e{k}{j}", f, w) for j, w in enumerate(shape.sample(targets, 2))]
        if k != 1:
            s_set.add(f)
        vertices.append(f)
    return graph(vertices, edges, s_set)


def readme_example() -> dict:
    return graph(["v", "u1"], [("e1", "v", "u1")], ["v"])


# -- graded blocks and signatures ---------------------------------------------


def block(kind: str, size: int, shifts, period=None) -> tuple:
    return (kind, size, tuple(shifts), period)


def block_json(blk) -> dict:
    kind, size, shifts, period = blk
    out = {"size": size, "shifts": list(shifts)}
    if kind == "laurent":
        out["period"] = period
    return out


def signature_json(blocks) -> dict:
    return {
        "field_blocks": [block_json(b) for b in blocks if b[0] == "field"],
        "laurent_blocks": [block_json(b) for b in blocks if b[0] == "laurent"],
    }


def random_block(rng, kind: str, size: int) -> tuple:
    period = rng.randint(1, 3) if kind == "laurent" else None
    return block(kind, size, [rng.randint(0, 3) for _ in range(size)], period)


def iso_image(rng, blk) -> tuple:
    """The block with its shifts permuted and uniformly translated (and,
    for Laurent blocks, each moved by a multiple of the period)."""
    kind, size, shifts, period = blk
    d = rng.randint(-2, 2)
    moved = [s + d + (period * rng.randint(-1, 1) if kind == "laurent" else 0)
             for s in shifts]
    rng.shuffle(moved)
    return block(kind, size, moved, period)


def scan_window(blocks) -> int:
    """The degree window decide_graded_iso scans for a No certificate."""
    spread = max((max(b[2]) - min(b[2]) for b in blocks), default=0)
    period = max((b[3] for b in blocks if b[0] == "laurent"), default=1)
    return 2 * spread + period


def separated_pair(rng, kinds_sizes) -> tuple:
    """A pair of equal-shaped block lists whose component dimensions differ
    at some degree within the scan window of the decision procedure (with
    Laurent blocks of different periods the first such degree can lie
    beyond it, and the answer is then "unknown" by design)."""
    while True:
        a = [random_block(rng, k, n) for k, n in kinds_sizes]
        b = [block(k, n, random_block(rng, k, n)[2], blk[3])
             for (k, n), blk in zip(kinds_sizes, a)]
        window = scan_window(a + b)
        if any(O.component_dim(a, d) != O.component_dim(b, d)
               for d in range(-window, window + 1)):
            return a, b


REFLECTED_PAIR = (block("field", 3, (0, 0, 1)), block("field", 3, (0, 1, 1)))


def reflected_size3_pairs():
    """All size-3 field pairs with shifts in 0..2 whose component dimensions
    agree although no permutation plus translation matches them."""
    vectors = list(itertools.product(range(3), repeat=3))
    return [(ga, gb) for ga, gb in itertools.product(vectors, repeat=2)
            if O.canon_field(ga) != O.canon_field(gb)
            and all(O.component_dim([block("field", 3, ga)], d)
                    == O.component_dim([block("field", 3, gb)], d) for d in range(-3, 4))]


# -- files ----------------------------------------------------------------------


class Corpus:
    """Writes input files into one directory and lists them for loading."""

    def __init__(self, directory: str):
        self.directory = directory
        self.manifest = []       # (loader, path)
        os.makedirs(directory, exist_ok=True)

    def _write(self, name: str, data, loader: str) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        self.manifest.append((loader, path))
        return path

    def graph_file(self, name: str, data: dict) -> str:
        return self._write(name + ".json", data, "graph")

    def signature_file(self, name: str, blocks) -> str:
        return self._write(name + ".sig.json", signature_json(blocks), "signature")

    def algebra_file(self, name: str, blk, field: str) -> str:
        kind, size, shifts, period = blk
        data = {"kind": kind, "size": size, "shifts": list(shifts),
                "period": period, "field": field}
        return self._write(name + ".alg.json", data, "algebra")

    def raw_file(self, name: str, text: str) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def write_manifest(self) -> str:
        path = os.path.join(self.directory, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.manifest, fh)
        return path
