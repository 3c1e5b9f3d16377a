"""Command-line front end.

Subcommands: analyze, classify, relgraph, complete, monoid, witness, iso,
eval.  Graph files use the JSON format of :mod:`clpa.graphs`, signatures the
JSON format of :mod:`clpa.gradedmat`.  Exit codes: 0 success, 2 input
validation failure, 3 internal verification failure.

Each ``cmd_*`` returns its JSON payload and its table lines, either of which
may be lazy; :func:`main` prints the one that ``--json`` selects.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import monoid as monoid_mod
from . import reports as reports_mod
from .algebra import AlgebraContext
from .classify import build_generator_map, classify as classify_object
from .errors import ClassificationBug, ClpaError
from .expr import parse_expression
from .gradedmat import decide_graded_iso, signature_from_json, signature_to_json
from .graphs import (
    complete,
    dot_lines,
    graph_to_json,
    load_object,
    object_to_json,
    read_json,
    subobject_system,
)
from .scalars import field_from_spec


def cmd_classify(args):
    obj = load_object(args.graph)
    sig = classify_object(obj)
    gmap = build_generator_map(obj, sig, field=args.field)
    blocks = [
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
    lines = [f"signature: {sig.describe()}",
             f"{'block':>5}  {'kind':<10} {'target':<10} {'size':>4}  {'period':>6}  shifts"]
    lines += (f"{i:>5}  {b['kind']:<10} {b['target']:<10} {b['size']:>4}  "
              f"{b['period'] or '-':>6}  {b['shifts']}" for i, b in enumerate(blocks))
    lines.append("generator map verified (axioms, injectivity, surjectivity, degrees)")
    return {**signature_to_json(sig), "blocks": blocks}, lines


def cmd_analyze(args):
    payload = reports_mod.report(load_object(args.graph), args.field).to_json()
    rel = payload["relative_graph"]
    lines = [f"relative graph: no-exit={rel['no_exit']} "
             f"acyclic={rel['acyclic']} sink-free={rel['sink_free']}",
             f"{'code':<5} {'verdict':<8} {'family':<16} statement"]
    lines += (f"{c['code']:<5} {str(c['verdict']):<8} {c['family']:<16} {c['statement']}"
              f"{' (cited)' if c['citation_only'] else ''}" for c in payload["conditions"])
    lines += (f"note: {note}" for note in payload["notes"])
    for name, transcript in payload["witnesses"].items():
        lines += f"--- witness {name} ---", transcript
    return payload, lines


def cmd_relgraph(args):
    obj = load_object(args.graph)
    rep = reports_mod.relgraph_verify(obj, args.field)
    rel = obj.relative.graph
    payload = {
        "graph": graph_to_json(sorted(rel.vertices), rel.edges),
        "phi": {k: str(v) for k, v in sorted(rep.phi.items())},
        "verification": {
            "ok": rep.ok,
            "failures": list(rep.failures),
            "degree_failures": list(rep.degree_failures),
        },
    }
    lines = [f"relative graph vertices: {payload['graph']['vertices']}",
             f"relative graph edges: {list(rel.edge_ids())}"]
    lines += (f"  phi({k}) = {v}" for k, v in payload["phi"].items())
    lines.append(rep.transcript())
    if not rep.ok:  # a third item is a verification failure, reported after the output
        return payload, lines, "relative graph verification failed"
    return payload, lines


def cmd_complete(args):
    ambient = load_object(args.graph)
    if args.system or args.dot:
        system = subobject_system(ambient)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.writelines(dot_lines(system))
        count, top = len(system.masks), system.top_index

        def nodes():  # one node at a time, straight from its mask: systems can be large
            return (graph_to_json(*system.contents(i)) for i in range(count))

        lines = itertools.chain(
            [f"{count} complete subobjects (top = {top})"],
            (f"  [{i}] {json.dumps(node, sort_keys=True)}" for i, node in enumerate(nodes())))
        return {"count": count, "top": top, "nodes": nodes()}, lines
    if not args.sub:
        raise ClpaError("complete needs --sub SUB.json or --system")
    payload = object_to_json(complete(load_object(args.sub).graph, ambient))
    return payload, [json.dumps(payload, sort_keys=True)]


def cmd_monoid(args):
    obj = load_object(args.graph)
    pres = monoid_mod.presentation(obj)
    verdict = monoid_mod.atomic_cancellative_verdict(obj)
    payload = {
        "generators": list(pres.generators),
        "relations": [{"lhs": v, "rhs": str(rhs)} for v, rhs in pres.relations],
        "atomic_cancellative": verdict.atomic_cancellative,
        "justification": verdict.justification,
    }
    lines = [f"generators: {', '.join(pres.generators)}"]
    lines += (f"  {r['lhs']} = {r['rhs']}" for r in payload["relations"])
    lines += f"atomic and cancellative: {verdict.atomic_cancellative}", f"  ({verdict.justification})"
    if verdict.invariant is not None:
        payload["invariant_rank"] = verdict.invariant_rank
        payload["invariant"] = {g: list(v) for g, v in verdict.invariant.items()}
        lines.append(f"free commutative invariant of rank {verdict.invariant_rank}:")
        lines += (f"  [{g}] -> {vec}" for g, vec in sorted(payload["invariant"].items()))
    if verdict.witness is not None:
        payload["witness"] = verdict.witness.transcript()
        lines.append(payload["witness"])
    return payload, lines


def cmd_witness(args):
    if args.n < 1:
        raise ClpaError(f"chain length --n must be at least 1, got {args.n}")
    transcript = reports_mod.chain_witness(load_object(args.graph), args.kind, args.n,
                                           args.field).transcript()
    return {"kind": args.kind, "transcript": transcript}, [transcript]


def cmd_iso(args):
    decision = decide_graded_iso(signature_from_json(read_json(args.sig_a)),
                                 signature_from_json(read_json(args.sig_b)))
    payload = {"verdict": decision.verdict}
    lines = [f"verdict: {decision.verdict}"]
    if decision.verdict == "yes":
        payload["matches"] = [
            {"permutation": list(m.permutation), "translation": m.translation,
             "tpowers": list(m.tpowers)}
            for m in decision.matches
        ]
        lines += (f"  block {i}: permutation {m['permutation']}, "
                  f"translation {m['translation']}, t-powers {m['tpowers']}"
                  for i, m in enumerate(payload["matches"]))
    elif decision.verdict == "no":
        delta, da, db, window = decision.certificate
        payload["certificate"] = {"delta": delta, "dim_a": da, "dim_b": db, "window": window}
        lines.append(f"  certificate: component dimensions differ at degree {delta} "
                     f"({da} vs {db}; scanned |delta| <= {window})")
    else:
        payload["note"] = decision.note
        lines.append(f"  {decision.note}")
    return payload, lines


def cmd_eval(args):
    ctx = AlgebraContext(load_object(args.graph), args.field)
    result = parse_expression(args.expression, ctx)
    payload = {
        "normal_form": str(result),
        "terms": [{"monomial": str(m), "coefficient": str(c)}
                  for m, c in sorted(result.terms.items())],
    }
    return payload, [payload["normal_form"]]


# name, handler, help, and the arguments before --json and --field
COMMANDS = [
    ("classify", cmd_classify, "matricial signature and verified generator map", ["graph"]),
    ("analyze", cmd_analyze, "condition-lattice report with witnesses", ["graph"]),
    ("relgraph", cmd_relgraph, "relative graph and generator-image verification", ["graph"]),
    ("complete", cmd_complete, "complete a subgraph, or list all complete subobjects", [
        "graph",
        ("--sub", {"help": "subgraph JSON to close"}),
        ("--system", {"action": "store_true", "help": "enumerate all complete subobjects"}),
        ("--dot", {"help": "write the subobject order as DOT to this file"}),
    ]),
    ("monoid", cmd_monoid, "presentation, verdicts, invariants, witnesses", ["graph"]),
    ("witness", cmd_witness, "algebraic chain witnesses", [
        "graph",
        ("--kind", {"choices": ["noetherian", "artinian", "cancellation"], "required": True}),
        ("--n", {"type": int, "default": 3, "help": "chain length"}),
    ]),
    ("iso", cmd_iso, "decide graded isomorphism of two signatures", ["sig_a", "sig_b"]),
    ("eval", cmd_eval, "normal form of an element expression", [
        "expression",
        ("--graph", {"required": True}),
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clpa",
        description="Exact computation in Cohn-Leavitt path algebras of finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        p.add_argument("--field", default="q", help="coefficient field: q or gf:p")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.field = field_from_spec(args.field)
        payload, lines, *failure = args.func(args)  # see cmd_relgraph
        if args.json:
            # default=list writes a lazy sequence (the nodes of complete --system)
            print(json.dumps(payload, sort_keys=True, indent=2, default=list))
        else:
            for line in lines:
                print(line)
        if failure:
            raise ClassificationBug(failure[0])
        return 0
    except ClassificationBug as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (ClpaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
