"""Expression grammar and the command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clpa import reports
from clpa.algebra import AlgebraContext, Monomial
from clpa.cli import main
from clpa.errors import GraphFormatError, ParseError
from clpa.expr import parse_expression
from clpa.graphs import Path, object_to_json
from clpa.monoid import atomic_cancellative_verdict
from clpa.reports import RelativeGraphReport, report

from conftest import chain, fan, loop, random_object


@pytest.fixture
def fan_ctx():
    return AlgebraContext(fan(2, s_on=True))


class TestExpressions:
    def test_lone_vertex(self, fan_ctx):
        assert parse_expression("v", fan_ctx) == fan_ctx.vertex("v")

    def test_edge_monomial(self, fan_ctx):
        assert parse_expression("e1", fan_ctx) == fan_ctx.edge("e1")

    def test_ghost_pair(self, fan_ctx):
        got = parse_expression("e1 | e1", fan_ctx)
        e1 = fan_ctx.graph.make_path(["e1"])
        assert got == fan_ctx.monomial(e1, e1)

    def test_coefficients_and_sum(self, fan_ctx):
        got = parse_expression("2 * e1 | e1 + u1", fan_ctx)
        e1 = fan_ctx.graph.make_path(["e1"])
        two = fan_ctx.field.from_int(2)
        assert got == fan_ctx.monomial(e1, e1, two) + fan_ctx.vertex("u1")

    def test_rational_coefficient(self, fan_ctx):
        got = parse_expression("1/2 * v - v", fan_ctx)
        field = fan_ctx.field
        assert got == fan_ctx.vertex("v").scale(field.div(field.from_int(-1), field.from_int(2)))

    def test_dotted_path(self):
        ctx = AlgebraContext(loop())
        got = parse_expression("c.c | c", ctx)
        assert set(got.degree_components()) == {1}

    def test_normalizes(self):
        ctx = AlgebraContext(loop())
        assert parse_expression("c|c", ctx) == ctx.vertex("v")

    def test_range_mismatch(self, fan_ctx):
        with pytest.raises(ParseError):
            parse_expression("e1 | e2", fan_ctx)

    def test_unknown_id_reports_position(self, fan_ctx):
        with pytest.raises(ParseError, match=r"^unknown edge id 'ghost' \(at position 4\)$") as err:
            parse_expression("v + ghost", fan_ctx)
        assert err.value.position == 4

    def test_zero_denominator_reports_position(self, fan_ctx):
        with pytest.raises(ParseError, match=r"^zero denominator \(at position 2\)$") as err:
            parse_expression("1/0 * v", fan_ctx)
        assert err.value.position == 2

    def test_malformed_path(self, fan_ctx):
        with pytest.raises(ParseError, match=r"^edges 'e1' and 'e2' do not compose \(at position 3\)$"):
            parse_expression("e1.e2", fan_ctx)

    def test_zero_expressible(self, fan_ctx):
        assert parse_expression("v - v", fan_ctx).is_zero()


_BLANK = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def _path_text(draw, g, end):
    """A random path into ``end``, walked backwards, with its text."""
    edges = []
    for _ in range(draw(st.integers(0, 3))):
        into = g.in_edges(g.src(edges[0]) if edges else end)
        if not into:
            break
        edges.insert(0, draw(st.sampled_from(into)))
    if not edges:
        return Path(end), end
    dot = draw(_BLANK) + "." + draw(_BLANK)
    return g.make_path(edges), dot.join(edges)


@st.composite
def _expression(draw):
    """Expression text drawn from the grammar, with the (coefficient, monomial) terms it means."""
    ctx = AlgebraContext(random_object(draw(st.randoms(use_true_random=False))))
    g, field, blank = ctx.graph, ctx.field, lambda: draw(_BLANK)
    text, terms = "", []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from("-+" if k else ["", "-"]))
        coeff = field.from_int(-1 if sign == "-" else 1)
        text += blank() + sign + blank()
        if draw(st.booleans()):
            num, den = draw(st.integers(0, 30)), draw(st.one_of(st.none(), st.integers(1, 9)))
            coeff = coeff * field.from_int(num)
            if den is None:
                text += f"{num}{blank()}*{blank()}"
            else:
                coeff = field.div(coeff, field.from_int(den))
                text += f"{num}{blank()}/{blank()}{den}{blank()}*{blank()}"
        end = draw(st.sampled_from(sorted(g.vertices)))
        left, left_text = draw(_path_text(g, end))
        right, right_text = draw(_path_text(g, end))
        if right.edges or draw(st.booleans()):
            text += f"{left_text}{blank()}|{blank()}{right_text}"
        else:
            text += left_text
        terms.append((coeff, Monomial(left, right)))
    return ctx, text + blank(), terms


@settings(max_examples=200, deadline=None)
@given(case=_expression())
def test_grammar_round_trip(case):
    ctx, text, terms = case
    assert parse_expression(text, ctx) == ctx.from_raw(terms)


_FAN_CTX = AlgebraContext(fan(2, s_on=True))
_ALPHABET = ["v", "u1", "e1", "e2", "ghost", "0", "2", "13",
             "+", "-", "*", "/", "|", ".", "~", " ", "  ", "\t"]


@example(text="v ~")
@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(_ALPHABET), max_size=10).map("".join))
def test_random_text_parses_or_names_a_nonblank_position(text):
    try:
        parse_expression(text, _FAN_CTX)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        if not str(err).startswith("empty expression"):
            assert err.position == len(text) or not text[err.position].isspace(), str(err)


_SEPARATOR = st.sampled_from([".", ".", " . ", ".\t", "  ."])


@st.composite
def _id_sequence(draw):
    """A random multigraph's context, a nonempty sequence of its vertex and edge
    ids and one unknown id, that sequence as a PATH and the position of each id."""
    ctx = AlgebraContext(random_object(draw(st.randoms(use_true_random=False))))
    pool = sorted(ctx.graph.edge_ids()) + sorted(ctx.graph.vertices) + ["zz"]
    ids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    text, starts = "", []
    for k, t in enumerate(ids):
        text += draw(_SEPARATOR) if k else ""
        starts.append(len(text))
        text += t
    return ctx, ids, text, starts


@settings(max_examples=300, deadline=None)
@given(case=_id_sequence())
def test_make_path_parser_and_monomial_check_paths_alike(case):
    # one checker: all three accept the same sequences and name the same first
    # failing id, the parser at that id's position
    ctx, ids, text, starts = case
    g = ctx.graph
    lone = len(ids) == 1 and ids[0] in g.vertices  # the grammar's trivial path
    edges = () if lone else tuple(ids)
    # the first failing id, found without make_path: the first unknown one,
    # else the first that does not compose with the one before it
    unknown = [k for k, t in enumerate(edges) if t not in g.edge_ids()]
    first = unknown[0] if unknown else next(
        (k for k in range(1, len(edges)) if g.rng(edges[k - 1]) != g.src(edges[k])), None)
    try:
        path, fault = g.make_path(edges, ids[0] if lone else None), None
    except GraphFormatError as err:
        path, fault = None, (str(err), err.index)
        assert repr(ids[err.index]) in str(err)
    assert first == (None if fault is None else fault[1])
    try:
        got = parse_expression(text, ctx)
    except ParseError as err:
        assert fault is not None and str(err) == f"{fault[0]} (at position {starts[fault[1]]})"
    else:
        assert fault is None and got == ctx.monomial(path, Path(g.path_range(path)))
    source = ids[0] if lone else g.src(ids[0]) if ids[0] in g.edge_ids() else min(g.vertices)
    p = Path(source, edges)
    try:
        ctx.monomial(p, p)
    except GraphFormatError as err:
        assert (str(err), err.index) == fault
    else:
        assert fault is None and p == path


_N = 10**5
_LONG_INPUTS = {
    "blanks then ~": (" " * (_N - 1) + "~", _N - 1),
    "' .' runs": (("v" + " ." * _N)[:_N], 2),
    "20 000-edge path": (" . ".join(["c"] * 20_000).ljust(_N), lambda ctx: ctx.path_element(["c"] * 20_000)),
    "5 000 terms": (" + ".join(["v"] * 5_000).ljust(_N), lambda ctx: ctx.vertex("v").scale(5_000)),
}


@pytest.mark.parametrize("name", sorted(_LONG_INPUTS))
def test_long_input_under_one_second(name):
    ctx = AlgebraContext(loop())
    text, want = _LONG_INPUTS[name]
    assert len(text) == _N
    start = time.perf_counter()
    try:
        got = parse_expression(text, ctx)
    except ParseError as err:
        got = err.position
    assert time.perf_counter() - start < 1.0
    assert got == (want if isinstance(want, int) else want(ctx))


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "clpa.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(object_to_json(loop())))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(object_to_json(chain())))
    return str(path)


@pytest.fixture
def rose_exit_file(tmp_path):
    path = tmp_path / "rose.json"
    path.write_text(json.dumps({
        "vertices": ["v", "w"],
        "edges": [{"id": "c", "src": "v", "rng": "v"}, {"id": "x", "src": "v", "rng": "w"}],
        "S": ["v"],
    }))
    return str(path)


SUBCOMMAND_ARGS = {
    "classify": ["classify", "{loop}"],
    "analyze": ["analyze", "{rose}"],
    "relgraph": ["relgraph", "{rose}"],
    "complete": ["complete", "{loop}", "--system"],
    "monoid": ["monoid", "{rose}"],
    "witness": ["witness", "{rose}", "--kind", "noetherian", "--n", "2"],
    "iso": ["iso", "{sig}", "{sig}"],
    "eval": ["eval", "c|c", "--graph", "{loop}"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_field_validated_by_every_subcommand(command, loop_file, rose_exit_file, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"field_blocks": [{"size": 2, "shifts": [0, 1]}]}))
    files = {"loop": loop_file, "rose": rose_exit_file, "sig": str(sig)}
    args = [a.format(**files) for a in SUBCOMMAND_ARGS[command]]
    assert run_cli([*args, "--field", "gf:3"]).returncode == 0
    proc = run_cli([*args, "--field", "gf:4"])
    assert proc.returncode == 2
    assert "4 is not prime" in proc.stderr and "Traceback" not in proc.stderr


def test_field_square_of_a_prime_above_17_exits_2(loop_file):
    # 361 = 19 * 19: trial division refuses it only at its last divisor, 19 = sqrt(361)
    proc = run_cli(["eval", "c|c", "--graph", loop_file, "--field", "gf:361"])
    assert proc.returncode == 2
    assert "361 is not prime" in proc.stderr and "Traceback" not in proc.stderr


def _run_in_process(argv):
    """Exit code, stdout and stderr of ``clpa argv``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _laurent_2x2(shifts):
    return {"laurent_blocks": [{"size": 2, "period": 3_000_000, "shifts": shifts}]}


def _field_block(shifts):
    return {"field_blocks": [{"size": len(shifts), "shifts": shifts}]}


class TestCli:
    def test_classify_loop(self, loop_file):
        proc = run_cli(["classify", loop_file])
        assert proc.returncode == 0
        assert "M_1(K[t^1,t^-1])(0)" in proc.stdout

    def test_classify_json_deterministic(self, loop_file):
        out1 = run_cli(["classify", loop_file, "--json"])
        out2 = run_cli(["classify", loop_file, "--json"])
        assert out1.returncode == 0 and out1.stdout == out2.stdout
        payload = json.loads(out1.stdout)
        assert payload["laurent_blocks"] == [{"size": 1, "period": 1, "shifts": [0]}]

    def test_json_byte_stable_across_hash_seeds(self, loop_file):
        # separate interpreter runs randomize the hash seed; byte output must not
        for command in (["analyze"], ["monoid"], ["classify"]):
            runs = {run_cli([*command, loop_file, "--json"]).stdout for _ in range(3)}
            assert len(runs) == 1, command

    def test_eval(self, loop_file):
        proc = run_cli(["eval", "c|c", "--graph", loop_file])
        assert proc.returncode == 0 and proc.stdout.strip() == "v"

    def test_eval_gf_field(self, loop_file):
        proc = run_cli(["eval", "2 * v + v", "--graph", loop_file, "--field", "gf:3"])
        assert proc.returncode == 0 and proc.stdout.strip() == "0"

    def test_eval_json_terms(self, loop_file):
        proc = run_cli(["eval", "c + 2 * c", "--graph", loop_file, "--json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["terms"] == [{"monomial": "c", "coefficient": "3"}]

    def test_eval_parse_error_is_exit_2(self, loop_file):
        proc = run_cli(["eval", "nope", "--graph", loop_file])
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_analyze_json(self, loop_file):
        proc = run_cli(["analyze", loop_file, "--json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        verdicts = {c["code"]: c["verdict"] for c in payload["conditions"]}
        assert verdicts["9l"] and verdicts["15"] and not verdicts["8'l"]

    def test_iso_no_certificate(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"field_blocks": [{"size": 2, "shifts": [0, 0]}]}))
        b.write_text(json.dumps({"field_blocks": [{"size": 2, "shifts": [0, 1]}]}))
        proc = run_cli(["iso", str(a), str(b), "--json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "no"
        assert payload["certificate"]["delta"] == 0
        assert (payload["certificate"]["dim_a"], payload["certificate"]["dim_b"]) == (4, 2)

    def test_iso_yes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"field_blocks": [{"size": 2, "shifts": [0, 1]}]}))
        b.write_text(json.dumps({"field_blocks": [{"size": 2, "shifts": [7, 8]}]}))
        proc = run_cli(["iso", str(a), str(b)])
        assert proc.returncode == 0 and "yes" in proc.stdout

    @pytest.mark.parametrize("sig_a, sig_b, verdict", [
        pytest.param(_laurent_2x2([0, 1_000_000]), _laurent_2x2([2_999_999, 999_999]), "yes",
                     id="shifts0-yes"),
        pytest.param(_laurent_2x2([0, 1_000_000]), _laurent_2x2([0, 2]), "no",
                     id="shifts1-no"),
        pytest.param(_field_block([(i * 37) % 101 for i in range(1000)]),
                     _field_block([(i * 37) % 101 + 5 for i in reversed(range(1000))]), "yes",
                     id="field1000-yes"),
    ])
    def test_iso_large_period(self, tmp_path, sig_a, sig_b, verdict):
        # nothing may run over the range of the period, or over the n^2
        # matrix units of a large block
        paths = []
        for name, sig in (("a", sig_a), ("b", sig_b)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(sig))
            paths.append(str(path))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["iso", *paths, "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(out.getvalue())["verdict"] == verdict
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_monoid(self, chain_file):
        proc = run_cli(["monoid", chain_file, "--json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["atomic_cancellative"] is True
        assert payload["invariant_rank"] == 1

    def test_relgraph(self, tmp_path):
        path = tmp_path / "toep.json"
        path.write_text(json.dumps({
            "vertices": ["v"],
            "edges": [{"id": "c", "src": "v", "rng": "v"}],
            "S": [],
        }))
        proc = run_cli(["relgraph", str(path), "--json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verification"]["ok"] is True
        assert payload["phi"]["v'"] == "v + -1 * c|c"

    def test_complete_system_and_dot(self, loop_file, tmp_path):
        dot = tmp_path / "system.dot"
        proc = run_cli(["complete", loop_file, "--system", "--dot", str(dot)])
        assert proc.returncode == 0
        assert "3 complete subobjects" in proc.stdout
        assert dot.read_text().startswith("digraph")

    def test_complete_dot_alone_lists_the_system(self, loop_file, tmp_path):
        runs = []
        for extra in ([], ["--system"]):
            dot = tmp_path / f"system{len(extra)}.dot"
            code, out, _ = _run_in_process(["complete", loop_file, *extra, "--dot", str(dot)])
            assert code == 0
            runs.append((out, dot.read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0].startswith("3 complete subobjects")

    def test_relgraph_verification_failure_is_exit_3(self, rose_exit_file, monkeypatch):
        real = reports.relgraph_verify

        def failing(obj, field):
            phi = real(obj, field).phi
            return RelativeGraphReport(False, True, True, ("CK1 at v: forced",), (), phi)

        monkeypatch.setattr(reports, "relgraph_verify", failing)
        for extra in ([], ["--json"]):
            code, out, err = _run_in_process(["relgraph", rose_exit_file, *extra])
            assert code == 3
            assert err == "internal verification failure: relative graph verification failed\n"
            if extra:
                assert json.loads(out)["verification"]["failures"] == ["CK1 at v: forced"]
            else:
                assert out.startswith("relative graph vertices: ")
                assert out.endswith("relative graph verification FAILED; "
                                    "vertex count ok, edge count ok\n")

    def test_complete_closure(self, tmp_path):
        ambient = tmp_path / "fan.json"
        ambient.write_text(json.dumps(object_to_json(fan(3, s_on=True))))
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({
            "vertices": ["v", "u1"],
            "edges": [{"id": "e1", "src": "v", "rng": "u1"}],
            "S": [],
        }))
        proc = run_cli(["complete", str(ambient), "--sub", str(sub), "--json"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert [e["id"] for e in payload["edges"]] == ["e1", "e2", "e3"]
        assert payload["S"] == ["v"]

    def test_witness_cancellation(self, tmp_path):
        path = tmp_path / "rose.json"
        path.write_text(json.dumps({
            "vertices": ["v"],
            "edges": [
                {"id": "c1", "src": "v", "rng": "v"},
                {"id": "c2", "src": "v", "rng": "v"},
            ],
            "S": ["v"],
        }))
        proc = run_cli(["witness", str(path), "--kind", "cancellation", "--n", "3"])
        assert proc.returncode == 0 and "p_3" in proc.stdout

    @pytest.mark.parametrize("kind, last", [("noetherian", "g_500"), ("cancellation", "p_500")])
    def test_witness_long_exit_cycle_chain(self, kind, last):
        # the chain's special edge is an exit, so p_n stays one monomial and
        # the time grows linearly in n (p_n had 2n + 1 terms with the loop c1)
        rose = os.path.join(os.path.dirname(__file__), "golden", "inputs", "rose_with_exit.json")
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["witness", rose, "--kind", kind, "--n", "500", "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0 and last in json.loads(out.getvalue())["transcript"]
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_witness_artinian_missing_cycle_is_exit_2(self, chain_file):
        proc = run_cli(["witness", chain_file, "--kind", "artinian"])
        assert proc.returncode == 2

    def test_witness_artinian_with_exit_is_exit_2(self, rose_exit_file):
        # the loop is in S but has an exit: the object does not classify
        proc = run_cli(["witness", rose_exit_file, "--kind", "artinian"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert "has an exit" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_graph_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["v"], "edges": [{"id": "e", "src": "v", "rng": "w"}]}')
        proc = run_cli(["classify", str(bad)])
        assert proc.returncode == 2

    def test_repeated_key_is_exit_2(self, tmp_path):
        # json keeps the last value of a repeated key: the graph would be read on w
        graph = tmp_path / "graph.json"
        graph.write_text('{"vertices": ["v"], "vertices": ["w"], "edges": []}')
        sig = tmp_path / "sig.json"
        sig.write_text('{"field_blocks": [{"size": 1, "shifts": [0], "size": 2}]}')
        for argv, name, key in ((["classify", str(graph)], graph, "vertices"),
                                (["iso", str(sig), str(sig)], sig, "size")):
            proc = run_cli(argv)
            assert proc.returncode == 2 and proc.stdout == ""
            assert f"{name}: repeated key '{key}'" in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("data, message", [
        ({"vertices": ["v", "v"], "edges": [], "S": []}, "repeated vertex id 'v'"),
        ({"vertices": ["v"], "edges": [{"id": "c", "src": "v", "rng": "v"}], "S": ["v", "v"]},
         "repeated S entry 'v'"),
    ])
    def test_repeated_vertex_or_s_entry_is_exit_2(self, tmp_path, data, message):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(data))
        code, out, err = _run_in_process(["classify", str(graph)])
        assert (code, out) == (2, "") and message in err

    def test_expression_with_a_leading_minus_after_double_dash(self):
        # argparse reads a leading '-' as an option; '--' ends the options
        toeplitz = os.path.join(os.path.dirname(__file__), "golden", "inputs", "toeplitz.json")
        assert _run_in_process(["eval", "--graph", toeplitz, "--", "-c|c"]) == (0, "-1 * c|c\n", "")

    def test_s_vertex_must_be_regular_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["v"], "edges": [], "S": ["v"]}')
        proc = run_cli(["analyze", str(bad)])
        assert proc.returncode == 2

    def test_witness_nonpositive_length_is_exit_2(self, rose_exit_file):
        for n in ("0", "-1"):
            proc = run_cli(["witness", rose_exit_file, "--kind", "noetherian", "--n", n])
            assert proc.returncode == 2 and proc.stdout == ""
            assert "--n must be at least 1" in proc.stderr

    def test_iso_rejects_graph_files(self, loop_file):
        proc = run_cli(["iso", loop_file, loop_file, "--json"])
        assert proc.returncode == 2
        assert "not a signature" in proc.stderr and "Traceback" not in proc.stderr

    def test_iso_accepts_classify_json(self, loop_file, tmp_path):
        sig = tmp_path / "loop.sig.json"
        sig.write_text(run_cli(["classify", loop_file, "--json"]).stdout)
        proc = run_cli(["iso", str(sig), str(sig), "--json"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "yes"

    def test_graph_round_trip_canonical(self, tmp_path):
        obj = fan(2, s_on=True)
        data = object_to_json(obj)
        assert json.loads(json.dumps(data, sort_keys=True)) == data


# -- fuzzing the command line in process ------------------------------------------

_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text("vwa{} ", max_size=3)
    | st.floats(-2, 5, allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "src", "size", "v"]), inner, max_size=3),
    max_leaves=6,
)
_nasty = st.sampled_from([0, 5, 1.5, "2", None, True, {}, [], [["a"]], {"a": 1}]) | _junk


@st.composite
def _corrupted(draw, valid):
    """A valid JSON document with one place, the shallower the likelier,
    replaced by junk or deleted."""
    data = draw(valid)
    container = data
    while container:
        key = draw(st.sampled_from(sorted(container) if isinstance(container, dict)
                                   else range(len(container))))
        if container[key] and isinstance(container[key], (dict, list)) and draw(st.booleans()):
            container = container[key]
        elif isinstance(container, dict) and not draw(st.integers(0, 3)):
            del container[key]
            break
        else:
            container[key] = draw(_nasty)
            break
    return data


@st.composite
def _graph(draw):
    vertices = draw(st.lists(st.sampled_from("uvw"), min_size=1, max_size=3, unique=True))
    edges = [{"id": eid, "src": draw(st.sampled_from(vertices)),
              "rng": draw(st.sampled_from(vertices))}
             for eid in draw(st.lists(st.sampled_from("efgh"), max_size=4, unique=True))]
    sources = sorted({e["src"] for e in edges})
    s_set = draw(st.lists(st.sampled_from(sources), unique=True)) if sources else []
    return {"vertices": vertices, "edges": edges, "S": s_set}


@st.composite
def _signature(draw):
    def block(laurent):
        size = draw(st.integers(1, 3))
        shifts = draw(st.lists(st.integers(-2, 4), min_size=size, max_size=size))
        if laurent:
            return {"size": size, "period": draw(st.integers(1, 3)), "shifts": shifts}
        return {"size": size, "shifts": shifts}

    return {"field_blocks": [block(False) for _ in range(draw(st.integers(0, 2)))],
            "laurent_blocks": [block(True) for _ in range(draw(st.integers(0, 2)))]}


@st.composite
def _file_text(draw, kind):
    """Mostly a valid file of the kind with one place corrupted."""
    valid = _graph() if kind == "graph" else _signature()
    choice = draw(st.integers(0, 9))
    if choice == 9:
        return draw(st.sampled_from(["", "{", "not json"]))
    shape = (_corrupted(valid) if choice < 6 else valid if choice < 8
             else st.one_of(_graph(), _signature(), _junk))
    return json.dumps(draw(shape))


_COMMON_OPTIONS = [["--json"], ["--field", "gf:2"], ["--field", "gf:3"]]
_OPTIONS = {"witness": [["--n", "1"], ["--n", "2"]],
            "complete": [["--system"], ["--dot", "@dot"], ["--sub", "@b"]]}
_BAD_OPTIONS = [["--field", "gf:4"], ["--field", "x"], ["--kind", "other"], ["--n", "0"],
                ["--n", "two"], ["--system"], ["--graph", "@missing"]]
_expression = (st.sampled_from(["v", "u", "e", "e|e", "e.f", "v + 2 * u - v"])
               | st.text("uvwefgh|.+-*12/ ()", max_size=8))


@st.composite
def _invocation(draw):
    """A mostly well-formed argument vector and the contents of files @a and @b."""
    command = draw(st.sampled_from(
        ["analyze", "classify", "relgraph", "complete", "monoid", "witness", "iso", "eval"]))
    kind = "signature" if command == "iso" else "graph"
    args = {"iso": ["@a", "@b"], "eval": [draw(_expression), "--graph", "@a"]}.get(command, ["@a"])
    if command == "witness":
        args += ["--kind", draw(st.sampled_from(["noetherian", "artinian", "cancellation"]))]
    if draw(st.booleans()) and draw(st.booleans()):
        args = draw(st.lists(st.sampled_from(["@a", "@b", "@missing"]) | _expression, max_size=3))
    options = draw(st.lists(st.sampled_from(_COMMON_OPTIONS + _OPTIONS.get(command, [])),
                            max_size=2))
    if draw(st.booleans()) and draw(st.booleans()):
        options.append(draw(st.sampled_from(_BAD_OPTIONS)))
    argv = [command, *args, *(a for opt in options for a in opt)]
    return argv, draw(_file_text(kind)), draw(_file_text(kind))


def _exit_code(argv) -> int:
    """Run ``clpa`` in process; argparse's SystemExit gives its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _regression(argv, data):
    """An input that once ended in a traceback."""
    return example(case=(argv, json.dumps(data), "{}"))


_EDGE = {"id": "e", "src": "v", "rng": "w"}
_GRAPH = {"vertices": ["v", "w"], "edges": [_EDGE], "S": ["v"]}
# nesting past the interpreter's recursion limit; json.dumps cannot write it
_DEEP = "[" * 200_000 + "]" * 200_000


@_regression(["classify", "@a"], {**_GRAPH, "vertices": 5})
@_regression(["analyze", "@a"], {**_GRAPH, "edges": 5})
@_regression(["relgraph", "@a"], {**_GRAPH, "S": 5})
@_regression(["monoid", "@a"], {**_GRAPH, "S": [["a"]]})
@_regression(["complete", "@a", "--system"], {**_GRAPH, "edges": [{**_EDGE, "src": {}}]})
@_regression(["iso", "@a", "@a"], {"laurent_blocks": [{"size": 1, "period": 0, "shifts": [0]}]})
@_regression(["iso", "@a", "@a"], {"laurent_blocks": [{"size": 1, "period": None, "shifts": [0]}]})
@example(case=(["classify", "@a"], _DEEP, "{}"))
@example(case=(["iso", "@a", "@a"], _DEEP, "{}"))
@example(case=(["complete", "@a", "--sub", "@b"], json.dumps(_GRAPH), _DEEP))
@example(case=(["classify", "@a"], json.dumps({**_GRAPH, "vertices": ["v", "w", "v"]}), "{}"))
@example(case=(["analyze", "@a"], json.dumps({**_GRAPH, "S": ["v", "v"]}), "{}"))
@settings(max_examples=300, deadline=None)
@given(case=_invocation())
def test_cli_fuzz_exits_0_2_or_3(case):
    argv, text_a, text_b = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {f"@{name}": os.path.join(tmp, name) for name in ("a", "b", "missing", "dot")}
        for key, text in (("@a", text_a), ("@b", text_b)):
            with open(files[key], "w") as fh:
                fh.write(text)
        assert _exit_code([files.get(a, a) for a in argv]) in (0, 2, 3)


def _witness_run(path, kind, n):
    """Exit code and transcript of ``clpa witness --json``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["witness", path, "--kind", kind, "--n", str(n), "--json"])
    return code, json.loads(out.getvalue())["transcript"] if code == 0 else None


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_witness_certifies_the_cycle_that_analyze_and_monoid_certify(rng):
    obj = random_object(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w") as fh:
            json.dump(object_to_json(obj), fh)
        for kind, n, witness in (
                ("noetherian", 2, report(obj).witnesses.get("noetherian_chain")),
                ("cancellation", 3, atomic_cancellative_verdict(obj).witness)):
            want = (2, None) if witness is None else (0, witness.transcript())
            assert _witness_run(path, kind, n) == want, kind
