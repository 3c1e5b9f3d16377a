"""The benchmark's workloads: seeded corpora turned into lists of ops.

An op is one user-visible request.  ``run`` is the timed call into the
program, ``extract`` turns its result into a small hashable answer outside
the timed window, and ``check`` compares that answer with the references of
``oracle``.  Ops whose ``fault`` is set exercise one of the program's named
faults on inputs that do not depend on the seed; they fail on every run.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

import corpus as C
import oracle as O
from loaders import load

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    name: str                             # "<kind>/<input>"
    run: Callable[[], Any]
    extract: Callable[[Any], Any]
    check: Callable[[Any], Optional[tuple]]   # None, or (status, reason)
    fault: str = ""

    @property
    def kind(self) -> str:
        return self.name.split("/")[0]


def fail(reason):
    return ("fail", reason)


def wrong(reason):
    return ("wrong", reason)


# -- classify ------------------------------------------------------------------


def _blocks_answer(sig, gmap_blocks):
    return (sig, tuple(sorted(
        ((b.kind, b.target, b.size, tuple(sorted(b.shifts)),
          b.cycle.length if b.kind == "cycle" else None) for b in gmap_blocks),
        key=repr)))


def check_blocks(plain: O.Plain, answer):
    """answer = ((field_blocks, laurent_blocks), blocks) as the program gave them."""
    want_blocks = tuple(O.blocks_of(plain))
    sig, blocks = answer
    if blocks != want_blocks:
        return wrong(f"blocks {blocks} != reference {want_blocks}")
    if tuple(map(tuple, sig)) != O.signature(want_blocks):
        return wrong(f"signature {sig} != reference {O.signature(want_blocks)}")
    return None


def map_op(clpa, corpus, name, data, spec):
    path = corpus.graph_file(name, data)
    plain = O.Plain(data)
    from clpa.scalars import field_from_spec
    field = field_from_spec(spec)
    obj = load(clpa, "graph", path)

    def run():
        sig = clpa.classify(obj)
        return sig, clpa.build_generator_map(obj, sig, field=field)

    def extract(result):
        sig, gmap = result
        return _blocks_answer((sig.field_blocks, sig.laurent_blocks), gmap.blocks)

    return Op(f"classify/{name}-{spec}", run, extract, lambda a: check_blocks(plain, a))


def system_op(clpa, corpus, name, data, spec):
    path = corpus.graph_file(name, data)
    plain = O.Plain(data)
    from clpa.scalars import field_from_spec
    field = field_from_spec(spec)
    obj = load(clpa, "graph", path)

    def extract(cs):
        top = cs.top_signature
        return (len(cs.system.nodes), all(ok for ok, _, _ in cs.injectivity),
                (top.field_blocks, top.laurent_blocks))

    def check(answer):
        count, injective, top = answer
        want = len(O.complete_subobjects(plain))
        if count != want:
            return wrong(f"{count} complete subobjects, brute force finds {want}")
        if not injective:
            return wrong("an inclusion lacks injectivity evidence")
        if top != O.signature(O.blocks_of(plain)):
            return wrong(f"top signature {top}")
        return None

    return Op(f"system/{name}-{spec}", lambda: clpa.classify_system(obj, field=field),
              extract, check)


def iso_answer(decision):
    cert = decision.certificate[:3] if decision.certificate else None
    return (decision.verdict,
            tuple((tuple(m.permutation), m.translation, tuple(m.tpowers))
                  for m in decision.matches),
            cert)


def iso_signature_op(clpa, corpus, name, blocks_a, blocks_b, fault=""):
    a = load(clpa, "signature", corpus.signature_file(name + "-a", blocks_a))
    b = load(clpa, "signature", corpus.signature_file(name + "-b", blocks_b))
    return Op(f"iso/{name}", lambda: clpa.decide_graded_iso(a, b), iso_answer,
              lambda ans: O.check_iso(blocks_a, blocks_b, ans, canonical=True), fault)


def iso_algebra_op(clpa, corpus, name, blk_a, blk_b, spec, fault=""):
    a = load(clpa, "algebra", corpus.algebra_file(name + "-a", blk_a, spec))
    b = load(clpa, "algebra", corpus.algebra_file(name + "-b", blk_b, spec))
    return Op(f"iso/{name}-{spec}", lambda: clpa.decide_graded_iso(a, b), iso_answer,
              lambda ans: O.check_iso([blk_a], [blk_b], ans, canonical=False), fault)


def classify_ops(clpa, rng, corpus):
    prime = lambda: f"gf:{rng.choice(C.PRIMES)}"
    seeded = lambda data: C.relabel(rng, data)
    ops = []
    for t, c in [(t, c) for t in range(4) for c in (1, 2, 3)] + [(4, 3)]:
        spec = "q" if (t + c) % 2 == 0 else prime()
        ops.append(map_op(clpa, corpus, f"comet{t}{c}", seeded(C.comet(t, c)), spec))
    for d in (1, 2, 3):
        tree, _, _ = C.binary_tree(d)
        ops.append(map_op(clpa, corpus, f"tree{d}", seeded(tree), "q" if d % 2 else prime()))
    for n in range(1, 6):
        ops.append(map_op(clpa, corpus, f"fan{n}", seeded(C.fan(n)), "q"))
    for i in range(6):
        data = seeded(C.mixed_no_exit(random.Random(f"mixed-{i}")))
        ops.append(map_op(clpa, corpus, f"mixed{i}", data, "q" if i % 2 else prime()))
    small = [("fan1s", C.fan(1, s_on=True)), ("comet01", C.comet(0, 1)),
             ("fan2s", C.fan(2, s_on=True)), ("fan3", C.fan(3)), ("comet11", C.comet(1, 1)),
             ("comet02", C.comet(0, 2)), ("comet03", C.comet(0, 3)), ("comet12", C.comet(1, 2)),
             ("comet21", C.comet(2, 1))]
    for i, (name, data) in enumerate(small):
        ops.append(system_op(clpa, corpus, name, seeded(data), "q" if i % 2 else prime()))
    for kind, sizes in (("field", range(1, 7)), ("laurent", range(1, 6))):
        for size in sizes:
            blk = C.random_block(rng, kind, size)
            spec = "q" if size % 2 else prime()
            ops.append(iso_algebra_op(clpa, corpus, f"yes-{kind}{size}", blk,
                                      C.iso_image(rng, blk), spec))
    for i, shape in enumerate([(("field", 2), ("laurent", 3)),
                               (("field", 3), ("field", 1), ("laurent", 2)),
                               (("laurent", 4), ("field", 2))]):
        a = [C.random_block(rng, k, n) for k, n in shape]
        b = [C.iso_image(rng, blk) for blk in a]
        rng.shuffle(b)
        ops.append(iso_signature_op(clpa, corpus, f"yes-sig{i}", a, b))
    for i, (kind, size) in enumerate([("laurent", 4), ("field", 5)]):
        a, b = C.separated_pair(rng, [(kind, size)])
        ops.append(iso_algebra_op(clpa, corpus, f"no-{kind}{size}", a[0], b[0],
                                  "q" if i % 2 else prime()))
    for i, shape in enumerate([(("field", 2), ("laurent", 2)),
                               (("field", 4), ("laurent", 2))]):
        a, b = C.separated_pair(rng, list(shape))
        ops.append(iso_signature_op(clpa, corpus, f"no-sig{i}", a, b))
    blk_a, blk_b = C.REFLECTED_PAIR
    ops.append(iso_algebra_op(
        clpa, corpus, "reflected", blk_a, blk_b, "gf:2",
        fault="decide_graded_iso answers unknown on reflected size-3 shifts"))
    return ops


# -- analyze ---------------------------------------------------------------------


def equal_queries(rng, plain: O.Plain, tries: int = 4):
    """Seeded word-problem queries with known truth: yes-pairs one or two
    relation moves apart, no-pairs separated by an additive functional that
    kills every relation."""
    gens, rels = O.monoid_relations(plain)
    rows = O.relation_rows(gens, rels)
    basis = O.nullspace(rows, len(gens)) if rows else [
        [int(i == j) for j in range(len(gens))] for i in range(len(gens))]
    moves = {v: rhs for v, rhs in rels if [v] != rhs}
    queries = []
    for _ in range(tries):
        if not moves:
            break
        a = {rng.choice(sorted(moves)): 1}
        extra = rng.choice(gens)
        a[extra] = a.get(extra, 0) + 1
        b = dict(a)
        for _ in range(rng.randint(1, 2)):
            v = rng.choice([g for g in sorted(b) if b[g] and g in moves] or [None])
            if v is None:
                break
            b[v] -= 1
            for w in moves[v]:
                b[w] = b.get(w, 0) + 1
        queries.append((a, {g: m for g, m in b.items() if m}, True))
    for _ in range(tries):
        a = {}
        b = {}
        for side in (a, b):
            for g in rng.sample(gens, min(len(gens), rng.randint(1, 2))):
                side[g] = rng.randint(1, 2)
        diff = [a.get(g, 0) - b.get(g, 0) for g in gens]
        if any(O.functional_separates(f, rows, diff) for f in basis):
            queries.append((a, b, False))
    return queries


def analyze_op(clpa, corpus, name, data, queries, fault=""):
    path = corpus.graph_file(name, data)
    plain = O.Plain(data)
    obj = load(clpa, "graph", path)
    gens, rels = O.monoid_relations(plain)
    rows = O.relation_rows(gens, rels)
    facts = O.relative_facts(plain)
    families = O.family_truth(facts)
    inv = O.invariant(plain) if facts["no_exit"] else None
    M = clpa.MonoidElement

    def elem(counts):
        return M(tuple(counts.items()))

    program_queries = [(elem(a), elem(b)) for a, b, _ in queries]

    def run():
        rep = clpa.report(obj)
        verdict = clpa.atomic_cancellative_verdict(obj)
        rel = clpa.relgraph_verify(obj)
        pres = clpa.presentation(obj)
        return rep, verdict, rel, [clpa.equal(pres, a, b) for a, b in program_queries]

    def extract(result):
        rep, verdict, rel, answers = result
        return (
            (rep.relative_no_exit, rep.relative_acyclic, rep.relative_sink_free),
            tuple(sorted(rep.family_verdicts().items())),
            tuple(sorted(rep.witnesses)),
            (verdict.atomic_cancellative, verdict.invariant_rank, verdict.witness is not None),
            (rel.ok, len(rel.phi)),
            tuple((e.verdict, e.separating_functional) for e in answers),
        )

    def check(answer):
        flags, fams, witnesses, verdict, rel, answers = answer
        if flags != (facts["no_exit"], facts["acyclic"], facts["sink_free"]):
            return wrong(f"relative-graph flags {flags}, reference {facts}")
        if dict(fams) != families:
            return wrong(f"family verdicts {dict(fams)}")
        want_w = (("noetherian_chain",) if not facts["no_exit"] else ()) + (
            ("artinian_failure",) if facts["no_exit"] and not facts["acyclic"] else ())
        if witnesses != tuple(sorted(want_w)):
            return wrong(f"witnesses {witnesses}, expected {want_w}")
        atomic, rank, has_witness = verdict
        if atomic != facts["no_exit"]:
            return wrong(f"atomic-cancellative verdict {atomic}")
        if atomic and rank != facts["rank"]:
            return wrong(f"monoid rank {rank}, #sinks + #cycles = {facts['rank']}")
        if not atomic and not has_witness:
            return wrong("no cancellation witness")
        if rel != (True, facts["vertices"] + facts["edges"]):
            return wrong(f"relgraph verification {rel}")
        for (a, b, truth), (got, functional) in zip(queries, answers):
            if inv is not None and truth != (O.invariant_value(inv, a) == O.invariant_value(inv, b)):
                return wrong(f"query {a} = {b}: path-count vectors disagree with truth")
            if got == "unknown":
                return fail(f"equal({a}, {b}) is unknown; truth {'yes' if truth else 'no'}")
            if (got == "yes") != truth:
                return wrong(f"equal({a}, {b}) answered {got}")
            if got == "no":
                diff = [a.get(g, 0) - b.get(g, 0) for g in gens]
                if not O.functional_separates(functional, rows, diff):
                    return wrong(f"functional {functional} does not separate")
        return None

    return Op(f"analyze/{name}", run, extract, check, fault)


def subobject_op(clpa, corpus, name, data):
    obj = load(clpa, "graph", corpus.graph_file(name, data))
    plain = O.Plain(data)

    def run():
        system = clpa.subobject_system(obj)
        return system, clpa.graphs.system_to_dot(system)

    def check(answer):
        count, dot = answer
        want = len(O.complete_subobjects(plain))
        if count != want:
            return wrong(f"{count} complete subobjects, brute force finds {want}")
        problem = O.check_dot(dot, want)
        return wrong(problem) if problem else None

    return Op(f"dot/{name}", run, lambda r: (len(r[0].nodes), r[1]), check)


def analyze_ops(clpa, rng, corpus):
    seeded = lambda data: C.relabel(rng, data)
    ops = []

    def add(name, data):
        ops.append(analyze_op(clpa, corpus, name, data, equal_queries(rng, O.Plain(data))))

    for k in (2, 3, 4):
        add(f"rose{k}", seeded(C.rose_with_exit(k, exit_special=k != 3)))
    for n in (1, 2, 3, 4, 5):
        add(f"cycle-exit{n}", seeded(C.cycle_with_exit(n)))
    for i, (n, e) in enumerate([(2, 3)] * 5 + [(3, 3)] * 5):
        add(f"multi{i}", seeded(C.multigraph(random.Random(f"multi-{i}"), n, e)))
    for t in range(3):
        for c in (1, 2, 3):
            add(f"comet{t}{c}", seeded(C.comet(t, c)))
    tree, root, leaves = C.binary_tree(4)
    ops.append(analyze_op(
        clpa, corpus, "tree4", tree,
        [({root: 1}, {root + "0": 1, root + "1": 1}, True),
         ({leaves[0]: 1}, {leaves[1]: 1}, False),
         ({root: 1}, {leaf: 1 for leaf in leaves}, True)],
        fault="monoid.equal answers unknown for the tree root against its 16 leaves"))
    for n in (2, 3, 4, 5):
        ops.append(subobject_op(clpa, corpus, f"fan{n}", seeded(C.fan(n))))
    for t, c in ((1, 2), (2, 2), (3, 1)):
        ops.append(subobject_op(clpa, corpus, f"comet{t}{c}", seeded(C.comet(t, c))))
    return ops


# -- cli ---------------------------------------------------------------------------


def run_child(argv, env, cwd, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion: (exit code, stdout, peak RSS in KiB).

    The child is reaped with wait4 so its own resource usage is read.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Children:
    """How the cli ops start their children, and the children's peak RSS."""

    def __init__(self, root: str, trace_file: Optional[str] = None):
        self.root = root
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        if trace_file:
            self.prefix = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), trace_file]
        else:
            self.prefix = [sys.executable, "-m", "clpa.cli"]
        self.peak_kb = 0

    def run(self, args):
        rc, out, rss_kb = run_child(self.prefix + list(args), self.env, self.root)
        self.peak_kb = max(self.peak_kb, rss_kb)
        return rc, out


def _cli_sig(payload):
    return ((tuple((b["size"], tuple(b["shifts"])) for b in payload["field_blocks"]),
             tuple((b["size"], b["period"], tuple(b["shifts"]))
                   for b in payload["laurent_blocks"])))


def _cli_blocks(payload):
    return tuple(sorted(((b["kind"], b["target"], b["size"], tuple(sorted(b["shifts"])),
                          b["period"]) for b in payload["blocks"]), key=repr))


def cli_checks(plain: Optional[O.Plain]) -> dict:
    """Subcommand -> check of its parsed --json payload against the references."""
    def classify(p, extra):
        return check_blocks(plain, (_cli_sig(p), _cli_blocks(p)))

    def analyze(p, extra):
        facts = O.relative_facts(plain)
        rg = p["relative_graph"]
        if (rg["no_exit"], rg["acyclic"], rg["sink_free"]) != (
                facts["no_exit"], facts["acyclic"], facts["sink_free"]):
            return wrong(f"relative-graph flags {rg}")
        fams = {f: v["verdict"] for f, v in p["families"].items()}
        if fams != O.family_truth(facts):
            return wrong(f"family verdicts {fams}")
        return None

    def relgraph(p, extra):
        facts = O.relative_facts(plain)
        got = (p["verification"]["ok"], len(p["graph"]["vertices"]),
               len(p["graph"]["edges"]), len(p["phi"]))
        want = (True, facts["vertices"], facts["edges"], facts["vertices"] + facts["edges"])
        return None if got == want else wrong(f"relgraph {got}, reference {want}")

    def complete(p, extra):
        if "count" not in p:
            want = O.closure(plain, extra["vertices"], extra["edges"])
            got = (set(p["vertices"]), {e["id"] for e in p["edges"]}, set(p["S"]))
            return None if got == want else wrong(f"closure {got}, reference {want}")
        want = len(O.complete_subobjects(plain))
        if p["count"] != want:
            return wrong(f"{p['count']} complete subobjects, brute force finds {want}")
        if "dot" in extra:
            problem = O.check_dot(extra["dot"], want)
            return wrong(problem) if problem else None
        return None

    def monoid(p, extra):
        facts = O.relative_facts(plain)
        if p["atomic_cancellative"] != facts["no_exit"]:
            return wrong(f"atomic-cancellative verdict {p['atomic_cancellative']}")
        if facts["no_exit"] and p.get("invariant_rank") != facts["rank"]:
            return wrong(f"monoid rank {p.get('invariant_rank')}, reference {facts['rank']}")
        if not facts["no_exit"] and "witness" not in p:
            return wrong("no cancellation witness")
        return None

    def witness(p, extra):
        n, kind = extra["n"], p["kind"]
        pattern = {"noetherian": "checked g_{i} g_{j} = g_{i}",
                   "artinian": "checked h_{j} = c h_{i}",
                   "cancellation": "checked p_{i} idempotent"}[kind]
        lines = p["transcript"].splitlines()
        for i in range(1, n + 1):
            want = pattern.format(i=i, j=i + 1)
            if not any(line.startswith(want) for line in lines):
                return wrong(f"{kind} transcript lacks step {i} ({want!r})")
        return None

    def iso(p, extra):
        matches = [(m["permutation"], m["translation"], m["tpowers"])
                   for m in p.get("matches", [])]
        cert = p.get("certificate")
        answer = (p["verdict"], matches,
                  (cert["delta"], cert["dim_a"], cert["dim_b"]) if cert else None)
        return O.check_iso(extra["a"], extra["b"], answer, canonical=True)

    def eval_(p, extra):
        return None if p["terms"] == extra["terms"] else wrong(f"terms {p['terms']}")

    return {"classify": classify, "analyze": analyze, "relgraph": relgraph,
            "complete": complete, "monoid": monoid, "witness": witness, "iso": iso,
            "eval": eval_}


def cli_op(children, name, args, plain=None, expect_rc=0, extra=None, fault=""):
    """``args`` is the argument list after ``clpa``; ``extra`` carries what the
    check needs besides the payload (a DOT file path is read after the run)."""
    extra = dict(extra or {})
    sub = args[0]
    checker = cli_checks(plain)[sub]

    def extract(result):
        rc, out = result
        dot = None
        if "dot_path" in extra and os.path.exists(extra["dot_path"]):
            with open(extra["dot_path"]) as fh:
                dot = fh.read()
            os.remove(extra["dot_path"])
        return rc, out.decode(errors="replace"), dot

    def check(answer):
        rc, out, dot = answer
        if rc != expect_rc:
            return fail(f"exit {rc}, expected {expect_rc}")
        if expect_rc != 0:
            return None
        try:
            payload = json.loads(out)
        except ValueError:
            return wrong("stdout is not JSON")
        return checker(payload, dict(extra, dot=dot) if dot is not None else extra)

    return Op(f"cli-{sub}/{name}", lambda: children.run(args), extract, check, fault)


def cli_ops(children, rng, corpus):
    prime = lambda: f"gf:{rng.choice(C.PRIMES)}"
    ops = []
    flip = [0]

    def field():
        flip[0] += 1
        return "q" if flip[0] % 2 else prime()

    def graph_op(sub, name, data, *more, extra=None):
        path = corpus.graph_file(f"{sub}-{name}", data)
        args = [sub, path, *more, "--json", "--field", field()]
        ops.append(cli_op(children, name, args, O.Plain(data), extra=extra))

    seeded = lambda data: C.relabel(rng, data)
    readme = C.readme_example()
    tree2 = C.binary_tree(2)[0]
    for name, data in [("readme", readme), ("comet11", seeded(C.comet(1, 1))),
                       ("tree2", seeded(tree2)), ("comet33", seeded(C.comet(3, 3))),
                       ("comet43", seeded(C.comet(4, 3))), ("fan3", seeded(C.fan(3))),
                       ("mixed", seeded(C.mixed_no_exit(random.Random("mixed-0"))))]:
        graph_op("classify", name, data)
    for name, data in [("rose2", seeded(C.rose_with_exit(2, exit_special=True))),
                       ("cycle-exit2", seeded(C.cycle_with_exit(2))),
                       ("tree2", seeded(tree2)), ("comet12", seeded(C.comet(1, 2))),
                       ("multi", seeded(C.multigraph(random.Random("multi-a"), 3, 4)))]:
        graph_op("analyze", name, data)
    for name, data in [("readme", readme),
                       ("rose3", seeded(C.rose_with_exit(3, exit_special=False))),
                       ("fan2", seeded(C.fan(2)))]:
        graph_op("relgraph", name, data)
    graph_op("complete", "fan3", seeded(C.fan(3)), "--system")
    dot_path = os.path.join(corpus.directory, "comet21.dot")
    graph_op("complete", "comet21", seeded(C.comet(2, 1)), "--system", "--dot", dot_path,
             extra={"dot_path": dot_path})
    for name, data in [("tree2", seeded(tree2)),
                       ("multi", seeded(C.multigraph(random.Random("multi-b"), 4, 5)))]:
        eid, src, rng_v = rng.choice(O.Plain(data).edges)
        sub_path = corpus.graph_file(f"sub-{name}", C.graph([src, rng_v], [(eid, src, rng_v)], []))
        graph_op("complete", name, data, "--sub", sub_path,
                 extra={"vertices": {src, rng_v}, "edges": {eid}})
    toeplitz = C.graph(["v"], [("c", "v", "v")], [])
    for name, data in [("rose3", seeded(C.rose_with_exit(3, exit_special=False))),
                       ("tree2", seeded(tree2)), ("toeplitz", seeded(toeplitz))]:
        graph_op("monoid", name, data)
    for name, data, kind, n in [
            ("rose2", seeded(C.rose_with_exit(2, exit_special=True)), "noetherian", 2),
            ("comet11", seeded(C.comet(1, 1)), "artinian", 2),
            ("cycle-exit2", seeded(C.cycle_with_exit(2)), "cancellation", 3)]:
        graph_op("witness", name, data, "--kind", kind, "--n", str(n), extra={"n": n})
    for name, a, b in [
        ("yes-field4",) + _iso_pair(rng, "field", 4, True),
        ("yes-laurent3",) + _iso_pair(rng, "laurent", 3, True),
        ("no-field4",) + _iso_pair(rng, "field", 4, False),
        ("no-laurent3",) + _iso_pair(rng, "laurent", 3, False),
    ]:
        pa = corpus.signature_file(f"iso-{name}-a", a)
        pb = corpus.signature_file(f"iso-{name}-b", b)
        ops.append(cli_op(children, name, ["iso", pa, pb, "--json", "--field", field()],
                          extra={"a": a, "b": b}))
    fan2s = corpus.graph_file("eval-fan2s", C.graph(["v", "u1", "u2"],
                                                    [("e1", "v", "u1"), ("e2", "v", "u2")], ["v"]))
    loop = corpus.graph_file("eval-loop", C.graph(["v"], [("c", "v", "v")], ["v"]))
    for expr, path, spec in [("3 * e1|e1 + 3 * e2|e2", fan2s, prime()),
                             ("c|c", loop, "q")]:
        k = 3 if expr.startswith("3") else 1
        p = int(spec[3:]) if spec != "q" else None
        coeff = str(k) if p is None else f"{k % p} mod {p}"
        terms = [] if p and k % p == 0 else [{"monomial": "v", "coefficient": coeff}]
        ops.append(cli_op(children, f"{os.path.basename(path)[:-5]}-{spec}",
                          ["eval", expr, "--graph", path, "--json", "--field", spec],
                          extra={"terms": terms}))
    # the named faults: each should exit 2 and does not
    rose = corpus.graph_file("fault-rose", C.graph(
        ["v", "w"], [("c", "v", "v"), ("x", "v", "w")], ["v"]))
    ops.append(cli_op(children, "graph-files", ["iso", rose, rose, "--json"], expect_rc=2,
                      fault="iso reads graph files as empty signatures and answers yes"))
    ops.append(cli_op(children, "gf4", ["analyze", rose, "--json", "--field", "gf:4"],
                      expect_rc=2, fault="analyze accepts the non-prime field gf:4"))
    ops.append(cli_op(children, "n0", ["witness", rose, "--kind", "noetherian", "--n", "0",
                                       "--json"], expect_rc=2,
                      fault="witness --n 0 exits 0 with an empty chain"))
    bad = corpus.raw_file("malformed.json", '{"vertices": ["v"], "edges": [')
    ops.append(cli_op(children, "malformed", ["classify", bad, "--json"], expect_rc=2))
    return ops


def _iso_pair(rng, kind, size, yes):
    if yes:
        blk = C.random_block(rng, kind, size)
        return [blk], [C.iso_image(rng, blk)]
    return C.separated_pair(rng, [(kind, size)])


# -- the traced run's layer probe ----------------------------------------------------


def probe_ops(clpa, corpus):
    """One small call into every layer, on fixed inputs: a traced run makes
    it after each pass so that every per-layer metric has a value on every
    workload."""
    ops = [
        system_op(clpa, corpus, "probe-fan1", C.fan(1), "q"),
        analyze_op(clpa, corpus, "probe-cycle-exit1", C.cycle_with_exit(1), []),
        analyze_op(clpa, corpus, "probe-comet01", C.comet(0, 1), []),
        subobject_op(clpa, corpus, "probe-fan1", C.fan(1)),
        iso_algebra_op(clpa, corpus, "probe-yes2", C.block("laurent", 2, (0, 1), 2),
                       C.block("laurent", 2, (1, 2), 2), "q"),
    ]
    tree, root, _ = C.binary_tree(1)
    ops.append(analyze_op(clpa, corpus, "probe-tree1", tree,
                          [({root: 1}, {root + "0": 1, root + "1": 1}, True)]))
    return ops


def build(workload: str, clpa, seed: int, corpus, children=None):
    """The ops of one pass, in the seed's order.

    Pass sizes are 55 or 35 ops (5 mod 10): then the pooled median and 90th
    percentile of a run of whole passes fall in the middle of one op's
    samples, where a 30-op pass put both on the boundary between two ops of
    different cost and they jumped with the host's noise.
    """
    rng = random.Random(seed)
    if workload == "classify":
        ops = classify_ops(clpa, rng, corpus)
    elif workload == "analyze":
        ops = analyze_ops(clpa, rng, corpus)
    else:
        ops = cli_ops(children, rng, corpus)
    random.Random(seed).shuffle(ops)
    return ops
