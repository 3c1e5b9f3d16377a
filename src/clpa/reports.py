"""Condition lattices, verdicts, and algebra-level witnesses.

Ring-theoretic properties of the algebra of (E, S) are never decided by ring
computation: each one is equivalent to a graph predicate, and since the
algebra is canonically that of the relative graph, the predicates are
evaluated there.  For a finite graph the three deciding predicates are

* no-exit            (noetherian lattice, graded artinian lattice, monoid),
* acyclic            (non-graded artinian / semisimple lattice),
* no-exit + sink-free (purely Laurent decompositions),

with row-finiteness and the infinite-path conditions automatic.  Witness
constructions attach machine-checked algebraic proofs: a strictly increasing
chain of corner ideals along a cycle with an exit, and a strictly decreasing
chain in the Laurent corner of a cycle demonstrating
graded-artinian-but-not-artinian.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .algebra import check_generator_map, relative_generator_images
from .classify import build_generator_map
from .errors import ClassificationBug, NoCycle
from .graphs import CLObject, Cycle, object_to_json, predicates, relative_graph
from .monoid import exit_cycle_chain
from .scalars import QQ, Field


FAMILIES = {
    "union_matricial": "directed union of graded matricial algebras over K and Laurent rings",
    "sum_matricial": "direct sum of graded matrix algebras over K and Laurent rings",
    "union_field": "directed union of graded matricial algebras over K",
    "sum_field": "direct sum of graded matrix algebras over K",
    "laurent_sum": "direct sum of graded matrix algebras over Laurent rings only",
    "projectives": "projective-class monoid structure",
    "noetherian": "locally/categorically noetherian, graded and non-graded",
    "baer_socle": "locally Baer / graded self-injective / graded socle (cited equivalences)",
    "graded_artinian": "graded semisimple and graded locally/categorically artinian",
    "artinian": "semisimple and locally/categorically artinian (non-graded)",
}

_CONDITIONS = [
    # code, family, statement
    ("a", "union_matricial", "graded *-isomorphic to a directed union of graded matricial algebras over K and over Laurent rings"),
    ("b", "union_matricial", "graded isomorphic to such a directed union"),
    ("c", "union_matricial", "*-isomorphic to such a directed union (non-graded)"),
    ("d", "union_matricial", "isomorphic to such a directed union (non-graded)"),
    ("e", "union_matricial", "the graph is no-exit"),
    ("1", "sum_matricial", "graded *-isomorphic to a direct sum of graded matrix algebras over K and over Laurent rings"),
    ("2", "sum_matricial", "graded isomorphic to such a direct sum"),
    ("3", "sum_matricial", "*-isomorphic to such a direct sum (non-graded)"),
    ("4", "sum_matricial", "isomorphic to such a direct sum (non-graded)"),
    ("5", "sum_matricial", "row-finite no-exit graph; every infinite path ends in a sink or a cycle"),
    ("a'", "union_field", "graded *-isomorphic to a directed union of graded matricial algebras over K"),
    ("b'", "union_field", "graded isomorphic to such a directed union"),
    ("c'", "union_field", "*-isomorphic to such a directed union (non-graded)"),
    ("d'", "union_field", "isomorphic to such a directed union (non-graded)"),
    ("e'", "union_field", "the graph is acyclic"),
    ("1'", "sum_field", "graded *-isomorphic to a direct sum of graded matrix algebras over K"),
    ("2'", "sum_field", "graded isomorphic to such a direct sum"),
    ("3'", "sum_field", "*-isomorphic to such a direct sum (non-graded)"),
    ("4'", "sum_field", "isomorphic to such a direct sum (non-graded)"),
    ("5'", "sum_field", "row-finite acyclic graph; every infinite path ends in a sink"),
    ("1''", "laurent_sum", "graded *-isomorphic to a direct sum of graded matrix algebras over Laurent rings"),
    ("2''", "laurent_sum", "graded isomorphic to such a direct sum"),
    ("3''", "laurent_sum", "*-isomorphic to such a direct sum (non-graded)"),
    ("4''", "laurent_sum", "isomorphic to such a direct sum (non-graded)"),
    ("5''", "laurent_sum", "row-finite no-exit graph without sinks; every infinite path ends in a cycle"),
    ("6", "projectives", "the projective-class monoid is a direct sum of copies of the nonnegative integers"),
    ("7", "projectives", "the projective-class monoid is atomic and cancellative"),
    ("8l", "noetherian", "categorically left noetherian"),
    ("8r", "noetherian", "categorically right noetherian"),
    ("9l", "noetherian", "locally left noetherian"),
    ("9r", "noetherian", "locally right noetherian"),
    ("10l", "noetherian", "graded categorically left noetherian"),
    ("10r", "noetherian", "graded categorically right noetherian"),
    ("11l", "noetherian", "graded locally left noetherian"),
    ("11r", "noetherian", "graded locally right noetherian"),
    ("12", "baer_socle", "(graded) locally Baer"),
    ("13", "baer_socle", "graded self-injective"),
    ("14", "baer_socle", "coincides with its graded socle"),
    ("15", "graded_artinian", "graded semisimple"),
    ("16l", "graded_artinian", "graded categorically left artinian"),
    ("16r", "graded_artinian", "graded categorically right artinian"),
    ("17l", "graded_artinian", "graded locally left artinian"),
    ("17r", "graded_artinian", "graded locally right artinian"),
    ("6'", "artinian", "semisimple"),
    ("7'l", "artinian", "categorically left artinian"),
    ("7'r", "artinian", "categorically right artinian"),
    ("8'l", "artinian", "locally left artinian"),
    ("8'r", "artinian", "locally right artinian"),
]

_CITATION_ONLY = {"12", "13", "14"}


class ConditionEntry(Record):
    code: str
    family: str
    statement: str
    verdict: bool
    justification: str
    citation_only: bool = False


class PropertyReport(Record):
    """Per-condition verdicts plus constructive witnesses."""

    obj: CLObject
    relative_no_exit: bool
    relative_acyclic: bool
    relative_sink_free: bool
    entries: tuple
    notes: tuple
    witnesses: dict

    def verdict(self, code: str) -> bool:
        for e in self.entries:
            if e.code == code:
                return e.verdict
        raise KeyError(code)

    def family_verdicts(self) -> dict:
        out: dict = {}
        for e in self.entries:
            out.setdefault(e.family, set()).add(e.verdict)
        return {fam: next(iter(v)) if len(v) == 1 else None for fam, v in out.items()}

    def to_json(self) -> dict:
        return {
            "object": object_to_json(self.obj),
            "relative_graph": {
                "no_exit": self.relative_no_exit,
                "acyclic": self.relative_acyclic,
                "sink_free": self.relative_sink_free,
            },
            "families": {
                fam: {"description": FAMILIES[fam], "verdict": verdict}
                for fam, verdict in sorted(self.family_verdicts().items())
            },
            "conditions": [
                {
                    "code": e.code,
                    "family": e.family,
                    "statement": e.statement,
                    "verdict": e.verdict,
                    "justification": e.justification,
                    "citation_only": e.citation_only,
                }
                for e in self.entries
            ],
            "notes": list(self.notes),
            "witnesses": {k: w.transcript() for k, w in self.witnesses.items()},
        }


@lru_cache(maxsize=None)
def _entries(no_exit: bool, acyclic: bool, sink_free: bool) -> tuple:
    """The condition rows, which depend only on the three relative-graph predicates."""
    verdict_of_family = {
        "union_matricial": no_exit,
        "sum_matricial": no_exit,
        "union_field": acyclic,
        "sum_field": acyclic,
        "laurent_sum": no_exit and sink_free,
        "projectives": no_exit,
        "noetherian": no_exit,
        "baer_socle": no_exit,
        "graded_artinian": no_exit,
        "artinian": acyclic,
    }
    justification_of_family = {
        "union_matricial": "relative graph no-exit",
        "sum_matricial": "relative graph no-exit (row-finiteness and the infinite-path condition are automatic for finite graphs)",
        "union_field": "relative graph acyclic",
        "sum_field": "relative graph acyclic (the infinite-path condition is automatic for finite graphs)",
        "laurent_sum": "relative graph no-exit and without sinks",
        "projectives": "relative graph no-exit",
        "noetherian": "relative graph no-exit",
        "baer_socle": "relative graph no-exit; equivalence with the noetherian family is cited, not re-derived here",
        "graded_artinian": "relative graph no-exit",
        "artinian": "relative graph acyclic",
    }

    return tuple(
        ConditionEntry(
            code,
            family,
            statement,
            verdict_of_family[family],
            justification_of_family[family],
            citation_only=code in _CITATION_ONLY,
        )
        for code, family, statement in _CONDITIONS
    )


def report(obj: CLObject, field: Field = QQ) -> PropertyReport:
    """Evaluate every condition family on the relative graph of the object."""
    rel = relative_graph(obj)
    facts = predicates(rel.graph)
    no_exit = facts.is_no_exit
    acyclic = facts.is_acyclic
    sink_free = not facts.sinks
    entries = _entries(no_exit, acyclic, sink_free)

    notes = []
    witnesses: dict = {}
    if not no_exit:
        witnesses["noetherian_chain"] = noetherian_chain_witness(
            rel.leavitt_object(), facts.exit_cycles[0], field=field)
        notes.append(
            "a cycle with an exit yields a strictly increasing chain of graded "
            "corner left ideals (see the noetherian_chain witness)"
        )
    if no_exit and not acyclic:
        # a no-exit relative graph has the object's cycles, all inside S
        cycle = facts.cycles[0]
        witnesses["artinian_failure"] = artinian_failure_witness(obj, cycle, field=field)
        notes.append(
            "cycles are present: the algebra is graded locally artinian but not "
            "locally artinian, so the graded and non-graded artinian families "
            "genuinely differ (the implication between them is strict)"
        )
    return PropertyReport(
        obj, no_exit, acyclic, sink_free, entries, tuple(notes), witnesses
    )


# -- witnesses -------------------------------------------------------------------


class NoetherianChainWitness(Record):
    """g_n = v - c^n (c*)^n generating a strictly increasing graded chain."""

    base_vertex: str
    cycle: Cycle
    elements: tuple
    statements: tuple

    def transcript(self) -> str:
        return "\n".join(self.statements)


def noetherian_chain_witness(obj: CLObject, cycle: Cycle, n_max: int = 2,
                             field: Field = QQ) -> NoetherianChainWitness:
    """Prove the corner-ideal chain along a cycle with an exit strictly increasing.

    For an idempotent e, x lies in Ae exactly when xe = x.  So g_n g_n = g_n,
    g_n g_{n+1} = g_n and g_{n+1} g_n != g_{n+1} prove A g_n < A g_{n+1}.
    """
    v, based, powers, ps = exit_cycle_chain(obj, cycle, n_max + 1, field)
    gs = [powers[0] - p for p in ps]
    statements = [f"cycle {based} based at the bifurcation {v}"]
    for n in range(1, n_max + 1):
        g_n, g_next = gs[n - 1], gs[n]
        checks = {
            f"g_{n} g_{n+1} = g_{n} (the corner ideals are nested)": g_n * g_next == g_n,
            f"g_{n} idempotent": g_n * g_n == g_n,
            f"g_{n+1} g_{n} = g_{n} != g_{n+1}": g_next * g_n == g_n != g_next,
            f"g_{n} homogeneous of degree 0": set(g_n.degree_components()) <= {0},
        }
        for label, okay in checks.items():
            if not okay:
                raise ClassificationBug(f"noetherian witness check failed: {label}")
            statements.append(f"checked {label}")
        statements.append(
            f"so g_{n+1} is not in A g_{n} and A g_{n} < A g_{n+1} strictly "
            "(x in Ae iff xe = x for an idempotent e)"
        )
    return NoetherianChainWitness(v, based, tuple(gs[:n_max]), tuple(statements))


class ArtinianFailureWitness(Record):
    """Chains in the Laurent corner of a cycle.

    ``powers`` are h_n = c^n (with classification images t^n in the cycle
    block); they certify the corner contains a Laurent ring.  Since the
    cycle path is a partial isometry with full corner support, the powers
    generate the whole corner as one-sided ideals, so the non-artinian
    witness lives in ``chain``: d_n = (v - c)^n, whose images (1 - t)^n in
    the cycle block prove that its left ideals strictly decrease.  The
    degree records show why no such chain is graded: h_n is homogeneous of
    degree n*|c|, and the graded-artinian verdict stays true.
    """

    base_vertex: str
    cycle: Cycle
    powers: tuple
    chain: tuple
    statements: tuple

    def transcript(self) -> str:
        return "\n".join(self.statements)


def artinian_failure_witness(obj: CLObject, cycle: Cycle, n_max: int = 2,
                             field: Field = QQ) -> ArtinianFailureWitness:
    """Prove that the algebra of a no-exit object is not artinian along a cycle in S."""
    g = obj.graph
    base = cycle.base(g)
    if not cycle.vertex_set(g) <= obj.s_set:
        raise NoCycle(f"cycle {cycle} does not have all its vertices in S")
    gmap = build_generator_map(obj, field=field)
    ctx = gmap.ctx
    c = ctx.path_element(cycle.edges)
    vert = ctx.vertex(base)
    block_index = next(
        i for i, b in enumerate(gmap.blocks) if b.kind == "cycle" and b.cycle == cycle
    )
    triv = next(i for i, p in enumerate(gmap.blocks[block_index].paths) if p.is_trivial)

    def unit(k):
        return gmap.algebra.unit(block_index, triv, triv, k)

    statements = [f"cycle {cycle} based at {base} (length {cycle.length})"]
    powers = []
    h = vert
    for n in range(1, n_max + 2):
        h = h * c
        powers.append(h)
    for n in range(1, n_max + 1):
        if powers[n] != c * powers[n - 1]:
            raise ClassificationBug(f"h_{n+1} != c h_{n}")
        statements.append(f"checked h_{n+1} = c h_{n} (nesting of left ideals)")
        degs = set(powers[n - 1].degree_components())
        if degs != {n * cycle.length}:
            raise ClassificationBug(f"h_{n} not homogeneous of degree {n * cycle.length}")
        statements.append(
            f"h_{n} is homogeneous of degree {n * cycle.length}: these left ideals "
            "are graded and their nesting is NOT strictly-decreasing evidence in "
            "the graded sense; the graded artinian verdict remains true"
        )
    for n in range(1, n_max + 1):
        if not (gmap.evaluate(powers[n - 1]) - unit(n)).is_zero():
            raise ClassificationBug(f"classification image of h_{n} is not t^{n}")
        statements.append(
            f"classification image of h_{n} is t^{n} times the unit of its block"
        )

    one_minus = vert - c
    chain = []
    d = vert
    image = unit(0)                    # (1 - t)^n e, built by its recursion
    for n in range(1, n_max + 2):
        d = one_minus * d
        chain.append(d)
    for n in range(1, n_max + 1):
        d_n, d_next = chain[n - 1], chain[n]
        if d_next != one_minus * d_n:
            raise ClassificationBug(f"d_{n+1} != (v - c) d_{n}")
        image = image - image * unit(1)
        if not (gmap.evaluate(d_n) - image).is_zero():
            raise ClassificationBug(f"classification image of d_{n} is not (1 - t)^{n} e")
        statements.append(
            f"checked classification image of d_{n} = ({base} - c)^{n} is "
            f"(1 - t)^{n} e (e the unit of the trivial path in its block)"
        )
        statements.append(
            f"so d_{n} is not in A d_{n+1}, as 1 - t is not a unit of K[t, t^-1]: "
            f"A d_{n+1} < A d_{n} strictly"
        )
    return ArtinianFailureWitness(
        base, cycle, tuple(powers[:n_max]), tuple(chain[:n_max]), tuple(statements)
    )


# -- relative graph verification -----------------------------------------------


class RelativeGraphReport(Record):
    """Outcome of verifying the canonical generator images of the relative graph."""

    ok: bool
    vertex_count_ok: bool
    edge_count_ok: bool
    failures: tuple
    degree_failures: tuple
    phi: dict

    def transcript(self) -> str:
        status = "passed" if self.ok else "FAILED"
        return (
            f"relative graph verification {status}; "
            f"vertex count {'ok' if self.vertex_count_ok else 'WRONG'}, "
            f"edge count {'ok' if self.edge_count_ok else 'WRONG'}"
        )


def relgraph_verify(obj: CLObject, field: Field = QQ) -> RelativeGraphReport:
    """Check the relative graph's generator images satisfy the full axiom set.

    The relative graph imposes the full relation at every regular vertex, so
    the check runs with S = all regular vertices of the relative graph; the
    evaluation target is the algebra of (E, S) itself.  Degree preservation
    is part of the axiom check.
    """
    rel, ctx, images = relative_generator_images(obj, field)
    rep = check_generator_map(rel.leavitt_object(), images)
    g, rg = obj.graph, rel.graph
    unrelated = set(g.regular_vertices()) - set(obj.s_set)
    vertex_ok = len(rg.vertices) == len(g.vertices) + len(unrelated)
    edge_ok = len(rg.edges) == len(g.edges) + sum(
        1 for e in g.edge_ids() if g.rng(e) in unrelated
    )
    return RelativeGraphReport(
        rep.ok and vertex_ok and edge_ok,
        vertex_ok,
        edge_ok,
        rep.failures,
        rep.degree_failures,
        images,
    )
