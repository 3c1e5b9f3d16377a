"""Demo, CLI and DOT output, byte for byte, against recorded golden files.

The files under ``tests/golden/`` were written by an earlier version of the
program; a change that should keep every output must keep them.  To record
them again after an intended output change, run::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from clpa.cli import main
from clpa.graphs import load_object, subobject_system, system_to_dot
from conftest import fan

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
HASH_SEEDS = ("0", "1")

_GRAPHS = {"readme": "readme_graph.json", "rose_exit": "rose_with_exit.json",
           "cycle_tail": "cycle_with_tail.json"}
_GRAPH_COMMANDS = {
    "classify": ["classify", "{graph}"],
    "analyze": ["analyze", "{graph}"],
    "relgraph": ["relgraph", "{graph}"],
    "complete": ["complete", "{graph}", "--system"],
    "monoid": ["monoid", "{graph}"],
    "witness_noetherian": ["witness", "{graph}", "--kind", "noetherian"],
    "witness_artinian": ["witness", "{graph}", "--kind", "artinian"],
    "witness_cancellation": ["witness", "{graph}", "--kind", "cancellation"],
}
_EVAL = {"readme": "2 * e1|e1 + v", "rose_exit": "c1.c2|c1 - x|x", "cycle_tail": "t.a.b|t + x"}
# coefficients that are not integers, and a sum of them that is
_RATIONAL_EVAL = {"half_diff": "1/2 * v - v", "half_sum": "1/2 * v + 1/2 * v"}
# terms out of normal order on F_3 with S = {v}; e1|e1 rewrites to v - e2|e2 - e3|e3
_UNORDERED_EVAL = "e3|e3 + u2 + e1|e1 + v + u1"


def _cli_cases():
    """(name, argv) for every subcommand, in table and in --json form."""
    cases = []
    for gname, gfile in _GRAPHS.items():
        graph = str(INPUTS / gfile)
        for cname, argv in _GRAPH_COMMANDS.items():
            cases.append((f"{cname}-{gname}", [a.format(graph=graph) for a in argv]))
        cases.append((f"eval-{gname}", ["eval", _EVAL[gname], "--graph", graph]))
    readme = str(INPUTS / _GRAPHS["readme"])
    for name, text in _RATIONAL_EVAL.items():
        cases.append((f"eval_{name}-readme", ["eval", text, "--graph", readme]))
    cases.append(("eval_unordered-fan3_leavitt",
                  ["eval", _UNORDERED_EVAL, "--graph", str(INPUTS / "fan3_leavitt.json")]))
    sub, sig_a, sig_b = (str(INPUTS / f) for f in ("readme_sub.json", "sig_a.json", "sig_b.json"))
    cases.append(("complete_sub-readme", ["complete", str(INPUTS / _GRAPHS["readme"]),
                                          "--sub", sub]))
    cases.append(("iso-a-b", ["iso", sig_a, sig_b]))
    # a loop outside S: its cycle has an exit only in the relative graph
    toeplitz = str(INPUTS / "toeplitz.json")
    for kind in ("noetherian", "cancellation"):
        cases.append((f"witness_{kind}-toeplitz", ["witness", toeplitz, "--kind", kind]))
    cases.append(("iso-a-a", ["iso", sig_a, sig_a]))
    return [(f"{name}-{form}", argv + extra)
            for name, argv in cases for form, extra in (("table", []), ("json", ["--json"]))]


CLI_CASES = _cli_cases()

# the DOT export of the subobject lattice, which no CLI golden above covers
_DOT_OBJECTS = {name: (lambda f=f: load_object(str(INPUTS / f))) for name, f in _GRAPHS.items()}
_DOT_OBJECTS["fan4"] = lambda: fan(4)


def _run_cli(argv) -> str:
    """Exit code and stdout of ``clpa argv``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _subobject_dot(name) -> str:
    return system_to_dot(subobject_system(_DOT_OBJECTS[name]()))


def _run_demo(demo, hash_seed: str) -> str:
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(ROOT / "src") + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return proc.stdout


@pytest.mark.parametrize("name, argv", CLI_CASES, ids=[n for n, _ in CLI_CASES])
def test_cli_output_matches_golden(name, argv):
    assert _run_cli(argv) == (GOLDEN / "cli" / f"{name}.out").read_text()


@pytest.mark.parametrize("name", list(_DOT_OBJECTS))
def test_subobject_dot_matches_golden(name):
    assert _subobject_dot(name) == (GOLDEN / "dot" / f"{name}.dot").read_text()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_matches_golden(demo):
    want = (GOLDEN / "demos" / f"{demo.stem}.out").read_text()
    for seed in HASH_SEEDS:
        assert _run_demo(demo, seed) == want, f"PYTHONHASHSEED={seed}"


def _write_all():
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "demos").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "dot").mkdir(parents=True, exist_ok=True)
    for name, argv in CLI_CASES:
        (GOLDEN / "cli" / f"{name}.out").write_text(_run_cli(argv))
    for name in _DOT_OBJECTS:
        (GOLDEN / "dot" / f"{name}.dot").write_text(_subobject_dot(name))
    for demo in DEMOS:
        (GOLDEN / "demos" / f"{demo.stem}.out").write_text(_run_demo(demo, HASH_SEEDS[0]))


if __name__ == "__main__":
    _write_all()
