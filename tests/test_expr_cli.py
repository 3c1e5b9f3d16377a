"""Expression grammar and the command-line front end."""

import json
import subprocess
import sys

import pytest

from clpa.algebra import AlgebraContext
from clpa.errors import ParseError
from clpa.expr import parse_expression
from clpa.graphs import object_to_json

from conftest import chain, fan, loop


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
        assert got == fan_ctx.vertex("v").scale(fan_ctx.field.from_int(-1) / fan_ctx.field.from_int(2))

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
        with pytest.raises(ParseError) as err:
            parse_expression("v + ghost", fan_ctx)
        assert err.value.position == 4

    def test_malformed_path(self, fan_ctx):
        with pytest.raises(ParseError):
            parse_expression("e1.e2", fan_ctx)  # edges do not compose

    def test_zero_expressible(self, fan_ctx):
        assert parse_expression("v - v", fan_ctx).is_zero()


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
