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

from ._record import Record
from .algebra import check_generator_map, relative_generator_images
from .classify import build_generator_map, no_exit_violations
from .errors import NoCycle, NotNoExitObject
from .graphs import CLObject, Path, object_to_json
from .monoid import ChainWitness, cancellation_witness, cycle_powers, exit_cycle_chain, prove
from .scalars import QQ, Field


# family: (description, the relative-graph predicates that decide it, all of
# them required and each named as in PropertyReport's relative_* flags, and
# the justification of its verdict)
_NO_EXIT, _ACYCLIC = ("no_exit",), ("acyclic",)
FAMILIES = {
    "union_matricial": ("directed union of graded matricial algebras over K and Laurent rings",
                        _NO_EXIT, "relative graph no-exit"),
    "sum_matricial": ("direct sum of graded matrix algebras over K and Laurent rings", _NO_EXIT,
                      "relative graph no-exit (row-finiteness and the infinite-path condition are automatic for finite graphs)"),
    "union_field": ("directed union of graded matricial algebras over K", _ACYCLIC,
                    "relative graph acyclic"),
    "sum_field": ("direct sum of graded matrix algebras over K", _ACYCLIC,
                  "relative graph acyclic (the infinite-path condition is automatic for finite graphs)"),
    "laurent_sum": ("direct sum of graded matrix algebras over Laurent rings only",
                    ("no_exit", "sink_free"), "relative graph no-exit and without sinks"),
    "projectives": ("projective-class monoid structure", _NO_EXIT, "relative graph no-exit"),
    "noetherian": ("locally/categorically noetherian, graded and non-graded", _NO_EXIT,
                   "relative graph no-exit"),
    "baer_socle": ("locally Baer / graded self-injective / graded socle (cited equivalences)", _NO_EXIT,
                   "relative graph no-exit; equivalence with the noetherian family is cited, not re-derived here"),
    "graded_artinian": ("graded semisimple and graded locally/categorically artinian", _NO_EXIT,
                        "relative graph no-exit"),
    "artinian": ("semisimple and locally/categorically artinian (non-graded)", _ACYCLIC,
                 "relative graph acyclic"),
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


class PropertyReport(Record):
    """The relative-graph predicates, the family verdicts they decide, and witnesses."""

    obj: CLObject
    relative_no_exit: bool
    relative_acyclic: bool
    relative_sink_free: bool
    notes: tuple
    witnesses: dict

    def family_verdicts(self) -> dict:
        """Family -> verdict: true iff all of its deciding predicates hold.
        Every condition of a family shares its verdict."""
        return {fam: all(getattr(self, f"relative_{p}") for p in deciders)
                for fam, (_, deciders, _) in FAMILIES.items()}

    def to_json(self) -> dict:
        verdicts = self.family_verdicts()
        return {
            "object": object_to_json(self.obj),
            "relative_graph": {
                "no_exit": self.relative_no_exit,
                "acyclic": self.relative_acyclic,
                "sink_free": self.relative_sink_free,
            },
            "families": {fam: {"description": FAMILIES[fam][0], "verdict": verdict}
                         for fam, verdict in sorted(verdicts.items())},
            "conditions": [
                {"code": code, "family": family, "statement": statement,
                 "verdict": verdicts[family], "justification": FAMILIES[family][2],
                 "citation_only": code in _CITATION_ONLY}
                for code, family, statement in _CONDITIONS
            ],
            "notes": list(self.notes),
            "witnesses": {k: w.transcript() for k, w in self.witnesses.items()},
        }


def report(obj: CLObject, field: Field = QQ) -> PropertyReport:
    """Evaluate every condition family on the relative graph of the object."""
    rel = obj.relative
    no_exit = rel.graph.exit_cycle is None
    acyclic = not rel.graph.cycle_vertices
    sink_free = not rel.graph.sinks()

    notes = []
    witnesses: dict = {}
    if not no_exit:
        witnesses["noetherian_chain"] = chain_witness(obj, "noetherian", field=field)
        notes.append(
            "a cycle with an exit yields a strictly increasing chain of graded "
            "corner left ideals (see the noetherian_chain witness)"
        )
    if no_exit and not acyclic:
        witnesses["artinian_failure"] = chain_witness(obj, "artinian", field=field)
        notes.append(
            "cycles are present: the algebra is graded locally artinian but not "
            "locally artinian, so the graded and non-graded artinian families "
            "genuinely differ (the implication between them is strict)"
        )
    return PropertyReport(obj, no_exit, acyclic, sink_free, tuple(notes), witnesses)


# -- witnesses -------------------------------------------------------------------


def chain_witness(obj: CLObject, kind: str, n_max: int = 2, field: Field = QQ) -> ChainWitness:
    """The chain witness of ``kind`` on the cycle the verdicts rest on.

    "noetherian" and "cancellation" take the shortest cycle with an exit of
    the relative graph, the cycle of the monoid verdict; "artinian" takes the
    first cycle of a no-exit object, all of whose cycles lie in S.  A
    no-exit relative graph has the object's cycles, so :func:`report` and
    ``clpa witness`` certify the same one.
    """
    if kind == "artinian":
        violations = no_exit_violations(obj)
        if violations:
            raise NotNoExitObject("; ".join(violations))
        if not obj.graph.cycles:
            raise NoCycle("no cycle with all vertices in S")
        return artinian_failure_witness(obj, obj.graph.cycles[0], n_max, field)
    if kind not in ("noetherian", "cancellation"):
        raise ValueError(f"unknown witness kind {kind!r}")
    leavitt = obj.relative.leavitt
    if leavitt.graph.exit_cycle is None:
        raise NoCycle("no cycle with an exit in the graph")
    build = cancellation_witness if kind == "cancellation" else noetherian_chain_witness
    return build(leavitt, leavitt.graph.exit_cycle, n_max, field)


def noetherian_chain_witness(obj: CLObject, cycle: Path, n_max: int = 2,
                             field: Field = QQ) -> ChainWitness:
    """Prove the corner-ideal chain along a cycle with an exit strictly increasing.

    For an idempotent e, x lies in Ae exactly when xe = x.  So g_n g_n = g_n,
    g_n g_{n+1} = g_n and g_{n+1} g_n != g_{n+1} prove A g_n < A g_{n+1}.
    """
    based, powers, ps = exit_cycle_chain(obj, cycle, n_max + 1, field)
    gs = [powers[0] - p for p in ps]
    statements = [f"cycle {based} based at the bifurcation {based.source}"]
    for n in range(1, n_max + 1):
        g_n, g_next = gs[n - 1], gs[n]
        prove(statements, g_n * g_next == g_n,
              f"checked g_{n} g_{n+1} = g_{n} (the corner ideals are nested)")
        prove(statements, g_n * g_n == g_n, f"checked g_{n} idempotent")
        prove(statements, g_next * g_n == g_n != g_next, f"checked g_{n+1} g_{n} = g_{n} != g_{n+1}")
        prove(statements, set(g_n.degree_components()) <= {0},
              f"checked g_{n} homogeneous of degree 0")
        statements.append(
            f"so g_{n+1} is not in A g_{n} and A g_{n} < A g_{n+1} strictly "
            "(x in Ae iff xe = x for an idempotent e)"
        )
    return ChainWitness(based, tuple(gs[:n_max]), tuple(statements))


def artinian_failure_witness(obj: CLObject, cycle: Path, n_max: int = 2,
                             field: Field = QQ) -> ChainWitness:
    """Prove that the algebra of a no-exit object is not artinian along a cycle in S.

    The powers h_n = c^n have classification images t^n in the cycle block;
    they certify that the corner contains a Laurent ring.  As the cycle path
    is a partial isometry with full corner support, the powers generate the
    whole corner as one-sided ideals, so the non-artinian chain is d_n =
    (v - c)^n, whose images (1 - t)^n prove that its left ideals strictly
    decrease.  The degrees show why no such chain is graded: h_n is
    homogeneous of degree n*|c|, and the graded-artinian verdict stays true.
    """
    base = cycle.source
    if not obj.s_set.issuperset(obj.graph.path_vertices(cycle)):
        raise NoCycle(f"cycle {cycle} does not have all its vertices in S")
    gmap = build_generator_map(obj, field=field)
    block_index = next((i for i, b in enumerate(gmap.blocks) if b.cycle == cycle), None)
    if block_index is None:
        raise NoCycle(f"{cycle} is not a cycle of the graph")
    powers = cycle_powers(gmap.ctx, cycle, n_max + 1)
    vert, c = powers[0], powers[1]

    def unit(k):  # paths are sorted by length, so the trivial path is index 0
        return gmap.algebra.unit(block_index, 0, 0, k)

    statements = [f"cycle {cycle} based at {base} (length {cycle.length})"]
    for n in range(1, n_max + 1):
        prove(statements, powers[n + 1] == c * powers[n],
              f"checked h_{n+1} = c h_{n} (nesting of left ideals)")
        prove(statements, set(powers[n].degree_components()) == {n * cycle.length},
              f"h_{n} is homogeneous of degree {n * cycle.length}: these left ideals "
              "are graded and their nesting is NOT strictly-decreasing evidence in "
              "the graded sense; the graded artinian verdict remains true")
    for n in range(1, n_max + 1):
        prove(statements, (gmap.evaluate(powers[n]) - unit(n)).is_zero(),
              f"classification image of h_{n} is t^{n} times the unit of its block")

    one_minus, chain = vert - c, []
    d, image = vert, unit(0)           # d_n = (v - c)^n and its image (1 - t)^n e
    for n in range(1, n_max + 1):
        d, image = one_minus * d, image - image * unit(1)
        chain.append(d)
        prove(statements, (gmap.evaluate(d) - image).is_zero(),
              f"checked classification image of d_{n} = ({base} - c)^{n} is "
              f"(1 - t)^{n} e (e the unit of the trivial path in its block)")
        statements.append(
            f"so d_{n} is not in A d_{n+1}, as 1 - t is not a unit of K[t, t^-1]: "
            f"A d_{n+1} < A d_{n} strictly"
        )
    return ChainWitness(cycle, tuple(chain), tuple(statements), tuple(powers[1:n_max + 1]))


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
    rep = check_generator_map(rel.leavitt, images)
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
