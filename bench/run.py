"""The clpa benchmark: run one workload for a fixed time and check every answer.

    python3 bench/run.py --workload classify|analyze|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``
there.  The corpus is generated from the seed into ``.bench_work/`` and
removed at exit.  A run is a whole number of passes over the corpus, in
one seeded order, by a single client that issues one op at a time; passes
continue until the run has lasted about ``--seconds`` and made at least
100 ops.  Every answer is checked after the timed passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layers are traced and it holds
the per-layer metrics, and the spans are written to ``.bench_traces/``.
A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import corpus as C
import tracing
import workloads as W

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify", "analyze", "cli")
SETUP_STARTS = 6           # cold starts before and again after the passes
PROBE_STARTS = 5           # samples of cli.start_s and cli.import_s
MIN_OPS = 100


class Raised(str):
    """The answer of an op whose call raised."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def wall(argv, env) -> float:
    start = time.perf_counter()
    rc, _, _ = W.run_child(argv, env, ROOT)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return elapsed


def cold_starts(manifest: str, env, n: int) -> list:
    """Wall times of ``n`` fresh interpreters that import clpa and load the
    workload's inputs; one untimed start first writes the bytecode caches."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), manifest]
    wall(argv, env)
    return [wall(argv, env) for _ in range(n)]


def run_passes(ops, seconds, tracer=None, probe=()):
    """Whole passes until about ``seconds`` have gone and, untraced, MIN_OPS
    ops are done (a traced run reports no percentiles).

    Returns ([(op index, latency, answer)], passes).  Only the program call
    is timed; answers are extracted after it.
    """
    clock = time.perf_counter
    records, interned, passes, busy = [], {}, 0, 0.0
    min_ops = MIN_OPS if tracer is None else 1
    while True:
        start = clock()
        for i, op in enumerate(ops):
            call = op.run if tracer is None else (lambda op=op: tracer.op(op.name, op.run))
            t0 = clock()
            try:
                result = call()
            except Exception as exc:        # a failed op is recorded, not fatal
                result = Raised(f"{type(exc).__name__}: {exc}")
            latency = clock() - t0
            answer = result if isinstance(result, Raised) else ops[i].extract(result)
            del result
            answer = interned.setdefault((i, answer), answer)
            records.append((i, latency, answer))
        for op in probe:
            tracer.op(op.name, op.run)
        passes += 1
        busy += clock() - start
        if len(records) >= min_ops and seconds - busy <= busy / passes / 2:
            return records, passes


def check_all(ops, records):
    """Check every answer: (failed count, correct, Counter of failure reasons)."""
    verdicts = {}
    failed, correct, reasons = 0, True, Counter()
    for i, _, answer in records:
        key = (i, answer)
        if key not in verdicts:
            if isinstance(answer, Raised):
                verdicts[key] = ("fail", f"raised {answer}")
            else:
                try:
                    verdicts[key] = ops[i].check(answer)
                except Exception as exc:    # a malformed answer is a wrong one
                    verdicts[key] = ("wrong", f"check raised {type(exc).__name__}: {exc}")
        verdict = verdicts[key]
        if verdict is None:
            continue
        failed += 1
        expected = verdict[0] == "fail" and ops[i].fault
        correct = correct and bool(expected)
        reasons[(ops[i].name, "named fault" if expected else "UNEXPECTED", verdict[1])] += 1
    return failed, correct, reasons


def end_to_end(records, setup_s, peak_kb) -> dict:
    lat = [r[1] for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def cli_probe(workdir, children) -> dict:
    """Wall time of each subcommand on README-scale inputs (median of 3)."""
    probe = C.Corpus(os.path.join(workdir, "cli-probe"))
    g = probe.graph_file("readme", C.readme_example())
    rose = probe.graph_file("rose", C.graph(["v", "w"], [("c", "v", "v"), ("x", "v", "w")],
                                            ["v"]))
    fan = probe.graph_file("fan", C.graph(["v", "a", "b"], [("e", "v", "a"), ("f", "v", "b")],
                                          []))
    blk = C.block("field", 3, (0, 1, 1))
    sa = probe.signature_file("a", [blk])
    sb = probe.signature_file("b", [C.block("field", 3, (2, 1, 2))])
    commands = {
        "classify": ["classify", g], "analyze": ["analyze", rose], "relgraph": ["relgraph", g],
        "complete": ["complete", fan, "--system"], "monoid": ["monoid", rose],
        "witness": ["witness", rose, "--kind", "noetherian", "--n", "2"],
        "iso": ["iso", sa, sb], "eval": ["eval", "e1|e1", "--graph", g],
    }
    argv0 = [sys.executable, "-m", "clpa.cli"]
    return {sub: statistics.median(wall(argv0 + args + ["--json"], children.env)
                                   for _ in range(3))
            for sub, args in commands.items()}


def layer_metrics(args, tracer, passes, records, ops, workdir, children, trace_file):
    totals = tracer.totals()
    if trace_file and os.path.exists(trace_file):
        with open(trace_file) as fh:
            for line in fh:
                tracing.add_totals(totals, json.loads(line))
    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        value = totals[name] / passes
        if unit == "count" and totals[name] % passes == 0:
            value = totals[name] // passes
        metrics[name] = (value, unit)
    env = children.env
    metrics["cli.start_s"] = (statistics.median(
        wall([sys.executable, "-c", "pass"], env) for _ in range(PROBE_STARTS)), "s")
    metrics["cli.import_s"] = (statistics.median(
        wall([sys.executable, "-c", "import clpa.cli"], env) for _ in range(PROBE_STARTS)), "s")
    if args.workload == "cli":
        per_sub = {}
        for i, latency, _ in records:
            per_sub.setdefault(ops[i].kind[len("cli-"):], []).append(latency)
        subs = {sub: statistics.median(v) for sub, v in per_sub.items()}
    else:
        subs = cli_probe(workdir, children)
    for sub in tracing.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = (subs[sub], "s")
    traces = os.path.join(ROOT, ".bench_traces")
    os.makedirs(traces, exist_ok=True)
    tracer.dump(os.path.join(traces, f"{args.workload}-seed{args.seed}.json"),
                {"passes": passes, "metrics": metrics})
    return metrics


def run(args, clpa, workdir) -> dict:
    trace_file = os.path.join(workdir, "cli-totals.jsonl") if args.trace else None
    children = W.Children(ROOT, trace_file if args.workload == "cli" else None)
    corpus = C.Corpus(workdir)
    ops = W.build(args.workload, clpa, args.seed, corpus, children)
    manifest = corpus.write_manifest()
    starts = cold_starts(manifest, children.env, SETUP_STARTS)

    tracer, probe = None, ()
    if args.trace:
        probe = W.probe_ops(clpa, C.Corpus(os.path.join(workdir, "probe")))
        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, passes = run_passes(ops, args.seconds, tracer, probe)
    finally:
        if tracer:
            tracer.uninstall()
    if args.workload == "cli":
        peak_kb = children.peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # sampling set-up on both sides of the passes spreads it over the run
    setup_s = statistics.median(starts + cold_starts(manifest, children.env, SETUP_STARTS))

    failed, correct, reasons = check_all(ops, records)
    e2e = end_to_end(records, setup_s, peak_kb)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass, {passes} passes, "
          f"{len(records)} ops, {failed} failed, correct={correct}", file=sys.stderr)
    for (name, kind, reason), n in sorted(reasons.items()):
        print(f"  {kind}: {name} x{n}: {reason}", file=sys.stderr)
    for name, (value, unit) in e2e.items():
        print(f"  {'traced ' if args.trace else ''}{name} = {value:.6g} {unit}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(args, tracer, passes, records, ops, workdir, children,
                                trace_file)
    else:
        metrics = e2e
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clpa", "__init__.py")):
        print(f"error: no program source at {os.path.relpath(SRC)}/clpa; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import clpa
    if not os.path.abspath(clpa.__file__).startswith(SRC + os.sep):
        print(f"error: clpa was imported from {clpa.__file__}, not from src/",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run(args, clpa, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
