"""Condition-lattice reports, chain witnesses, relative-graph verification."""

import random
from pathlib import Path as FilePath

import pytest

from clpa.errors import NoCycle, NotAnExit, NotNoExitObject
from clpa.gradedmat import GradedMatrix
from clpa.graphs import Path, load_object
from clpa.reports import (
    artinian_failure_witness,
    chain_witness,
    noetherian_chain_witness,
    relgraph_verify,
    report,
)
from clpa.scalars import PrimeField

from conftest import (
    cycle,
    cycle_with_exit,
    fan,
    loop,
    loop_with_exit,
    random_no_exit_object,
    random_object,
    rose,
    tree,
)

GOLDEN_INPUTS = FilePath(__file__).parent / "golden" / "inputs"


def _verdicts(rep) -> dict:
    """Condition code -> verdict, from the report's JSON conditions."""
    return {c["code"]: c["verdict"] for c in rep.to_json()["conditions"]}


class TestReportVerdicts:
    def test_loop_with_relation(self):
        rep = report(loop())
        # noetherian and graded-artinian lattices hold, non-graded artinian fails
        for code in ("5", "8l", "9l", "10r", "11l", "15", "16l", "17r", "6", "7"):
            assert _verdicts(rep)[code], code
        for code in ("5'", "6'", "7'l", "8'l", "8'r"):
            assert not _verdicts(rep)[code], code
        # sink-free with full relations: the Laurent-only family holds too
        assert _verdicts(rep)["5''"]

    def test_rose_all_families_fail(self):
        rep = report(rose())
        for code in ("5", "5'", "5''", "9l", "17l", "7"):
            assert not _verdicts(rep)[code], code

    def test_acyclic_tree_everything_holds(self):
        rep = report(tree())
        for code in ("5", "5'", "8l", "15", "6'", "8'r"):
            assert _verdicts(rep)[code], code
        assert not _verdicts(rep)["5''"]  # it has sinks

    def test_toeplitz_case(self):
        # loop with S empty: the relative graph acquires an exit
        rep = report(loop(False))
        assert not rep.relative_no_exit
        for code in ("5", "9l", "15", "7"):
            assert not _verdicts(rep)[code], code
        assert "noetherian_chain" in rep.witnesses

    def test_families_internally_consistent(self):
        rng = random.Random(19)
        objects = [loop(), loop(False), rose(), tree(), fan(2), cycle(3)]
        objects += [random_object(rng) for _ in range(20)]
        for obj in objects:
            rep = report(obj)
            for family, verdict in rep.family_verdicts().items():
                assert verdict is not None, f"{family} mixes verdicts"

    def test_strictness_note_when_cycles_present(self):
        rep = report(loop())
        assert any("strict" in note for note in rep.notes)
        assert "artinian_failure" in rep.witnesses

    def test_citation_entries_marked(self):
        rep = report(loop())
        cited = {c["code"] for c in rep.to_json()["conditions"] if c["citation_only"]}
        assert cited == {"12", "13", "14"}

    def test_field_reaches_witnesses(self):
        gf3 = PrimeField(3)
        for obj, name in ((rose(), "noetherian_chain"), (loop(), "artinian_failure")):
            assert report(obj, field=gf3).witnesses[name].chain[0].ctx.field == gf3

    def test_json_shape(self):
        data = report(loop()).to_json()
        assert {"object", "relative_graph", "families", "conditions", "notes",
                "witnesses"} <= set(data)
        assert all("code" in c and "verdict" in c for c in data["conditions"])
        assert data["families"]["noetherian"]["verdict"] is True


class TestNoetherianWitness:
    def test_rose_chain(self):
        obj = rose()
        witness = noetherian_chain_witness(obj, obj.graph.exit_cycle, 3)
        assert len(witness.chain) == 3
        for n in (1, 2, 3):
            assert f"checked g_{n} idempotent" in witness.statements
            assert f"checked g_{n+1} g_{n} = g_{n} != g_{n+1}" in witness.statements
            assert any(
                s.startswith(f"so g_{n+1} is not in A g_{n} and A g_{n} < A g_{n+1} strictly")
                for s in witness.statements
            )

    def test_requires_exit(self):
        obj = loop()
        (c,) = obj.graph.cycles
        with pytest.raises(NotAnExit):
            noetherian_chain_witness(obj, c, 2)

    def test_two_cycle_with_exit(self):
        obj = cycle_with_exit(2)
        witness = noetherian_chain_witness(obj, obj.graph.exit_cycle, 2)
        assert witness.cycle.source == "v1"


class TestArtinianWitness:
    def test_loop_powers_and_chain(self):
        obj = loop()
        (c,) = obj.graph.cycles
        witness = artinian_failure_witness(obj, c, 3)
        assert len(witness.powers) == 3 and len(witness.chain) == 3
        text = witness.transcript()
        assert "image of h_1 is t^1" in text
        for n in (1, 2, 3):
            assert (f"checked classification image of d_{n} = (v - c)^{n} is "
                    f"(1 - t)^{n} e") in text
            assert f"so d_{n} is not in A d_{n+1}, as 1 - t is not a unit" in text

    def test_two_cycle_images(self):
        obj = cycle(2)
        (c,) = obj.graph.cycles
        witness = artinian_failure_witness(obj, c, 2)
        assert "image of h_2 is t^2" in witness.transcript()

    def test_image_check_over_prime_field(self):
        obj = cycle(2)
        (c,) = obj.graph.cycles
        witness = artinian_failure_witness(obj, c, 4, field=PrimeField(2))
        assert "(1 - t)^4 e" in witness.transcript()
        assert witness.chain[0].ctx.field == PrimeField(2)

    def test_loop_with_exit_does_not_classify(self):
        # the loop lies in S but has an exit: graded artinian fails, so there
        # is no artinian-failure witness to give
        obj = loop_with_exit()
        c = obj.graph.exit_cycle
        assert not _verdicts(report(obj))["17l"]
        with pytest.raises(NotNoExitObject):
            artinian_failure_witness(obj, c, 2)
        with pytest.raises(NotNoExitObject):
            chain_witness(obj, "artinian")
        with pytest.raises(ValueError, match="unknown witness kind 'other'"):
            chain_witness(obj, "other")

    def test_requires_cycle_in_s(self):
        obj = loop(False)
        (c,) = obj.graph.cycles
        with pytest.raises(NoCycle):
            artinian_failure_witness(obj, c, 2)

    @pytest.mark.parametrize("path", [Path("v", ("c", "c")), Path("v")], ids=["twice", "trivial"])
    def test_path_that_is_not_a_cycle(self, path):
        with pytest.raises(NoCycle):
            artinian_failure_witness(loop(), path, 2)

    def test_acyclic_has_no_cycle(self):
        obj = fan(2)
        assert obj.graph.cycles == ()

    def test_chain_costs_linear_products(self, monkeypatch):
        # each c^k image is computed once, so n = 50 more links cost at most
        # 4 x 50 more target products, not a cubic number
        calls = [0]
        mul = GradedMatrix.__mul__

        def counted(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(GradedMatrix, "__mul__", counted)
        obj = load_object(str(GOLDEN_INPUTS / "cycle_with_tail.json"))
        counts = []
        for n in (50, 100):
            calls[0] = 0
            chain_witness(obj, "artinian", n)
            counts.append(calls[0])
        assert counts[1] - counts[0] <= 4 * 50, counts


class TestRelgraphVerify:
    def test_toeplitz(self):
        rep = relgraph_verify(loop(False))
        assert rep.ok
        ctx_element = rep.phi["v'"]
        # the primed sink maps to v minus the loop projection, an idempotent
        assert ctx_element * ctx_element == ctx_element

    def test_full_relations_identity(self):
        obj = fan(2, s_on=True)
        rep = relgraph_verify(obj)
        assert rep.ok
        ctx = next(iter(rep.phi.values())).ctx
        for v in obj.graph.vertices:
            assert rep.phi[v] == ctx.vertex(v)
        for e in obj.graph.edge_ids():
            assert rep.phi[e] == ctx.edge(e)

    def test_bifurcation_without_relations(self):
        rep = relgraph_verify(fan(2))
        assert rep.ok
        phi_prime = rep.phi["v'"]
        ctx = phi_prime.ctx
        e1 = ctx.graph.make_path(["e1"])
        e2 = ctx.graph.make_path(["e2"])
        expected = ctx.vertex("v") - ctx.monomial(e1, e1) - ctx.monomial(e2, e2)
        assert phi_prime == expected

    def test_twenty_random_objects(self):
        rng = random.Random(67)
        for _ in range(20):
            obj = random_object(rng)
            rep = relgraph_verify(obj)
            assert rep.ok, (obj, rep.failures, rep.degree_failures)

    def test_random_no_exit_objects(self):
        rng = random.Random(73)
        for _ in range(10):
            obj = random_no_exit_object(rng)
            assert relgraph_verify(obj).ok
