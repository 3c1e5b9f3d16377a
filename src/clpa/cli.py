"""Command-line front end.

Subcommands: analyze, classify, relgraph, complete, monoid, witness, iso,
eval.  Graph files use the JSON format of :mod:`clpa.graphs`, signatures the
JSON format of :mod:`clpa.gradedmat`.  Exit codes: 0 success, 2 input
validation failure, 3 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import monoid as monoid_mod
from . import reports as reports_mod
from .algebra import AlgebraContext
from .classify import build_generator_map, classify as classify_object, no_exit_violations
from .errors import ClassificationBug, ClpaError, NotNoExitObject
from .expr import parse_expression
from .gradedmat import decide_graded_iso, signature_from_json, signature_to_json
from .graphs import (
    load_object,
    object_to_json,
    read_json,
    subobject_system,
    system_to_dot,
)
from .scalars import field_from_spec


def _emit_json(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    sub.add_argument("--field", default="q", help="coefficient field: q or gf:p")


def cmd_classify(args) -> int:
    obj = load_object(args.graph)
    sig = classify_object(obj)
    gmap = build_generator_map(obj, sig, field=args.field)
    if args.json:
        payload = signature_to_json(sig)
        payload["blocks"] = [
            {
                "kind": b.kind,
                "target": b.target,
                "size": b.size,
                "shifts": list(b.shifts),
                "period": b.cycle.length if b.kind == "cycle" else None,
                "paths": [str(p) for p in b.paths],
            }
            for b in gmap.blocks
        ]
        _emit_json(payload)
    else:
        print(f"signature: {sig.describe()}")
        print(f"{'block':>5}  {'kind':<10} {'target':<10} {'size':>4}  {'period':>6}  shifts")
        for i, b in enumerate(gmap.blocks):
            period = b.cycle.length if b.kind == "cycle" else "-"
            print(
                f"{i:>5}  {b.kind:<10} {b.target:<10} {b.size:>4}  {period:>6}  "
                f"{list(b.shifts)}"
            )
        print("generator map verified (axioms, injectivity, surjectivity, degrees)")
    return 0


def cmd_analyze(args) -> int:
    obj = load_object(args.graph)
    rep = reports_mod.report(obj, args.field)
    if args.json:
        _emit_json(rep.to_json())
    else:
        print(
            f"relative graph: no-exit={rep.relative_no_exit} "
            f"acyclic={rep.relative_acyclic} sink-free={rep.relative_sink_free}"
        )
        print(f"{'code':<5} {'verdict':<8} {'family':<16} statement")
        for e in rep.entries:
            mark = " (cited)" if e.citation_only else ""
            print(f"{e.code:<5} {str(e.verdict):<8} {e.family:<16} {e.statement}{mark}")
        for note in rep.notes:
            print(f"note: {note}")
        for name, witness in rep.witnesses.items():
            print(f"--- witness {name} ---")
            print(witness.transcript())
    return 0


def cmd_relgraph(args) -> int:
    obj = load_object(args.graph)
    rep = reports_mod.relgraph_verify(obj, args.field)
    rel = obj.relative
    if args.json:
        _emit_json(
            {
                "graph": {
                    "vertices": sorted(rel.graph.vertices),
                    "edges": [
                        {"id": e, "src": rel.graph.src(e), "rng": rel.graph.rng(e)}
                        for e in sorted(rel.graph.edge_ids())
                    ],
                },
                "phi": {k: str(v) for k, v in sorted(rep.phi.items())},
                "verification": {
                    "ok": rep.ok,
                    "failures": list(rep.failures),
                    "degree_failures": list(rep.degree_failures),
                },
            }
        )
    else:
        print(f"relative graph vertices: {sorted(rel.graph.vertices)}")
        print(f"relative graph edges: {sorted(rel.graph.edge_ids())}")
        for k, v in sorted(rep.phi.items()):
            print(f"  phi({k}) = {v}")
        print(rep.transcript())
    if not rep.ok:
        raise ClassificationBug("relative graph verification failed")
    return 0


def cmd_complete(args) -> int:
    ambient = load_object(args.graph)
    if args.system or args.dot:
        system = subobject_system(ambient)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(system_to_dot(system))
        if args.json:
            _emit_json(
                {
                    "count": len(system.masks),
                    "top": system.top_index,
                    "nodes": [object_to_json(system.node(i)) for i in range(len(system.masks))],
                }
            )
        else:
            print(f"{len(system.masks)} complete subobjects (top = {system.top_index})")
            for i in range(len(system.masks)):  # one node at a time: systems can be large
                print(f"  [{i}] {json.dumps(object_to_json(system.node(i)), sort_keys=True)}")
        return 0
    if not args.sub:
        raise ClpaError("complete needs --sub SUB.json or --system")
    sub = load_object(args.sub)
    from .graphs import complete as complete_op

    result = complete_op(sub.graph, ambient)
    if args.json:
        _emit_json(object_to_json(result))
    else:
        print(json.dumps(object_to_json(result), sort_keys=True))
    return 0


def cmd_monoid(args) -> int:
    obj = load_object(args.graph)
    pres = monoid_mod.presentation(obj)
    verdict = monoid_mod.atomic_cancellative_verdict(obj)
    if args.json:
        payload = {
            "generators": list(pres.generators),
            "relations": [
                {"lhs": v, "rhs": str(rhs)} for v, rhs in pres.relations
            ],
            "atomic_cancellative": verdict.atomic_cancellative,
            "justification": verdict.justification,
        }
        if verdict.invariant is not None:
            payload["invariant_rank"] = verdict.invariant_rank
            payload["invariant"] = {g: list(v) for g, v in verdict.invariant.items()}
        if verdict.witness is not None:
            payload["witness"] = verdict.witness.transcript()
        _emit_json(payload)
    else:
        print(f"generators: {', '.join(pres.generators)}")
        for v, rhs in pres.relations:
            print(f"  {v} = {rhs}")
        print(f"atomic and cancellative: {verdict.atomic_cancellative}")
        print(f"  ({verdict.justification})")
        if verdict.invariant is not None:
            print(f"free commutative invariant of rank {verdict.invariant_rank}:")
            for g, vec in sorted(verdict.invariant.items()):
                print(f"  [{g}] -> {list(vec)}")
        if verdict.witness is not None:
            print(verdict.witness.transcript())
    return 0


def cmd_witness(args) -> int:
    if args.n < 1:
        raise ClpaError(f"chain length --n must be at least 1, got {args.n}")
    obj = load_object(args.graph)
    if args.kind != "artinian":
        # the cycle that analyze and monoid certify: the relative graph's shortest with an exit
        leavitt = obj.relative.leavitt_object()
        if leavitt.graph.exit_cycle is None:
            raise ClpaError("no cycle with an exit in the graph")
        build = (monoid_mod.cancellation_witness if args.kind == "cancellation"
                 else reports_mod.noetherian_chain_witness)
        witness = build(leavitt, leavitt.graph.exit_cycle, args.n, args.field)
    else:
        violations = no_exit_violations(obj)
        if violations:
            raise NotNoExitObject("; ".join(violations))
        if not obj.graph.cycles:
            raise ClpaError("no cycle with all vertices in S")
        witness = reports_mod.artinian_failure_witness(obj, obj.graph.cycles[0], args.n, args.field)
    if args.json:
        _emit_json({"kind": args.kind, "transcript": witness.transcript()})
    else:
        print(witness.transcript())
    return 0


def cmd_iso(args) -> int:
    decision = decide_graded_iso(signature_from_json(read_json(args.sig_a)),
                                 signature_from_json(read_json(args.sig_b)))
    if args.json:
        payload = {"verdict": decision.verdict}
        if decision.verdict == "yes":
            payload["matches"] = [
                {
                    "permutation": list(m.permutation),
                    "translation": m.translation,
                    "tpowers": list(m.tpowers),
                }
                for m in decision.matches
            ]
        elif decision.verdict == "no":
            delta, da, db, window = decision.certificate
            payload["certificate"] = {
                "delta": delta,
                "dim_a": da,
                "dim_b": db,
                "window": window,
            }
        else:
            payload["note"] = decision.note
        _emit_json(payload)
    else:
        print(f"verdict: {decision.verdict}")
        if decision.verdict == "yes":
            for i, m in enumerate(decision.matches):
                print(
                    f"  block {i}: permutation {list(m.permutation)}, "
                    f"translation {m.translation}, t-powers {list(m.tpowers)}"
                )
        elif decision.verdict == "no":
            delta, da, db, window = decision.certificate
            print(
                f"  certificate: component dimensions differ at degree {delta} "
                f"({da} vs {db}; scanned |delta| <= {window})"
            )
        else:
            print(f"  {decision.note}")
    return 0


def cmd_eval(args) -> int:
    obj = load_object(args.graph)
    ctx = AlgebraContext(obj, args.field)
    result = parse_expression(args.expression, ctx)
    if args.json:
        _emit_json(
            {
                "normal_form": str(result),
                "terms": [
                    {"monomial": str(m), "coefficient": str(c)}
                    for m, c in result.terms
                ],
            }
        )
    else:
        print(str(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clpa",
        description="Exact computation in Cohn-Leavitt path algebras of finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="matricial signature and verified generator map")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="condition-lattice report with witnesses")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("relgraph", help="relative graph and generator-image verification")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_relgraph)

    p = sub.add_parser("complete", help="complete a subgraph, or list all complete subobjects")
    p.add_argument("graph")
    p.add_argument("--sub", help="subgraph JSON to close")
    p.add_argument("--system", action="store_true", help="enumerate all complete subobjects")
    p.add_argument("--dot", help="write the subobject order as DOT to this file")
    _add_common(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("monoid", help="presentation, verdicts, invariants, witnesses")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_monoid)

    p = sub.add_parser("witness", help="algebraic chain witnesses")
    p.add_argument("graph")
    p.add_argument("--kind", choices=["noetherian", "artinian", "cancellation"],
                   required=True)
    p.add_argument("--n", type=int, default=3, help="chain length")
    _add_common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("iso", help="decide graded isomorphism of two signatures")
    p.add_argument("sig_a")
    p.add_argument("sig_b")
    _add_common(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("eval", help="normal form of an element expression")
    p.add_argument("expression")
    p.add_argument("--graph", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.field = field_from_spec(args.field)
        return args.func(args)
    except ClassificationBug as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (ClpaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
