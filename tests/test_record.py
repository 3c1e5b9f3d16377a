"""Frozen value records: start-up cost and dataclass-equivalent semantics."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import clpa
from clpa._record import FrozenRecordError, Record
from clpa.algebra import AlgebraContext, Monomial, check_generator_map, relative_generator_images
from clpa.classify import blocks_of, build_generator_map, classify_system
from clpa.gradedmat import (DirectSum, GradedMatrix, GradedMatrixAlgebra, MatricialSignature,
                            decide_graded_iso)
from clpa.graphs import Path, cycle_facts, relative_graph
from clpa.monoid import (ChainWitness, MonoidElement, atomic_cancellative_verdict, equal,
                         presentation)
from clpa.reports import relgraph_verify, report
from clpa.scalars import QQ, LaurentPoly, PFElement, PrimeField

from conftest import EXIT_CORPUS, NO_EXIT_CORPUS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(clpa.__file__)))


def test_cli_import_skips_dataclasses_and_inspect():
    code = ("import sys, clpa.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_only_stdlib_and_clpa():
    code = ("import sys; before = set(sys.modules); import clpa, clpa.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] not in sys.stdlib_module_names | {'clpa'}))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_dataclass_in_source():
    pkg = os.path.join(SRC, "clpa")
    uses = re.compile(r"^\s*(@dataclass|from dataclasses |import dataclasses)", re.M)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                assert not uses.search(fh.read()), name


# -- one instance of every record class, built from the test corpus -------------


def _all_record_classes():
    out, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("clpa."):
                out.add(sub)
            todo.append(sub)
    return out


def _records_in(*roots):
    """Every record reachable from the roots through fields and containers."""
    found, seen, stack = {}, set(), list(roots)
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, Record):
            found.setdefault(type(v), v)
            stack.extend(getattr(v, f) for f in v._fields)
        elif isinstance(v, GradedMatrix):
            stack.append(v.terms)
        elif isinstance(v, dict):
            stack.extend(v.keys())
            stack.extend(v.values())
        elif isinstance(v, (tuple, list, frozenset)):
            stack.extend(v)
    return found


def _corpus_records():
    loop, rose = NO_EXIT_CORPUS["loop"](), EXIT_CORPUS["rose2"]()
    tail = NO_EXIT_CORPUS["cycle_with_tail"]()
    gf = PrimeField(3)
    gmap = build_generator_map(tail, field=gf)
    sig = clpa.classify(tail)
    pres = presentation(rose)
    _, _, images = relative_generator_images(tail)
    roots = [
        gmap, sig, classify_system(loop), blocks_of(tail), cycle_facts(rose.graph),
        relative_graph(rose),
        check_generator_map(tail, images), decide_graded_iso(sig, sig),
        report(loop), report(rose), relgraph_verify(tail), pres,
        equal(pres, pres.element(*pres.generators[:1]), pres.element(*pres.generators[:1])),
        atomic_cancellative_verdict(rose), atomic_cancellative_verdict(loop),
        DirectSum((GradedMatrixAlgebra("laurent", 1, (0,), 1),)).unit(0, 0, 0, 1).entry(0, 0),
    ]
    return _records_in(*roots)


CORPUS_RECORDS = _corpus_records()


def test_corpus_builds_every_record_class():
    missing = _all_record_classes() - set(CORPUS_RECORDS)
    assert not missing, sorted(c.__name__ for c in missing)


def _witness_cases():
    """One ChainWitness per witness kind, each case named after its witness."""
    loop, rose = NO_EXIT_CORPUS["loop"](), EXIT_CORPUS["rose2"]()
    return {
        "ArtinianFailureWitness": report(loop).witnesses["artinian_failure"],
        "CancellationWitness": atomic_cancellative_verdict(rose).witness,
        "NoetherianChainWitness": report(rose).witnesses["noetherian_chain"],
    }


RECORD_CASES = {cls.__name__: r for cls, r in CORPUS_RECORDS.items() if cls is not ChainWitness}
RECORD_CASES.update(_witness_cases())


@pytest.fixture(params=sorted(RECORD_CASES))
def record(request):
    return RECORD_CASES[request.param]


def _values(x):
    return tuple(getattr(x, f) for f in x._fields)


def test_hash_and_repr_match_dataclass(record):
    reference = dataclasses.make_dataclass(
        type(record).__qualname__, record._fields, frozen=True)(*_values(record))
    if "__repr__" not in vars(type(record)):     # PrimeField keeps its own
        assert repr(record) == repr(reference)
    try:
        expected = hash(_values(record))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(reference)


def test_frozen(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(FrozenRecordError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_by_class_and_fields(record):
    values = _values(record)
    cls = type(record)
    assert cls(**dict(zip(record._fields, values))) == record
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(record._fields)})
    assert twin(*values) != record
    assert record != values


def test_defaults_and_argument_errors():
    assert Path("v") == Path("v", ())
    assert Path(source="v", edges=("e",)) == Path("v", ("e",))
    assert GradedMatrixAlgebra("field", 2, (0, 1)).base == QQ
    assert GradedMatrixAlgebra("field", 2, shifts=(0, 1), base=QQ).period is None
    assert PrimeField(5).name == "GF(5)"
    with pytest.raises(TypeError):
        GradedMatrixAlgebra("field", 2)
    with pytest.raises(TypeError):
        GradedMatrixAlgebra("field", 2, (0, 1), size=2)
    with pytest.raises(TypeError):
        PrimeField(5, "GF(5)", "extra")
    with pytest.raises(TypeError):
        MonoidElement(count=())


def test_post_init_normalises():
    assert MonoidElement((("b", 1), ("a", 2), ("c", 0))).counts == (("a", 2), ("b", 1))
    with pytest.raises(ValueError):
        MonoidElement((("a", -1),))
    assert PFElement(7, 5) == PFElement(2, 5) and PFElement(-1, 5).value == 4
    poly = LaurentPoly(1, ((2, Fraction(3)), (0, Fraction(0))), QQ)
    assert poly.terms == ((2, Fraction(3)),)
    fan = NO_EXIT_CORPUS["fan2_leavitt"]()
    assert AlgebraContext(fan, QQ).special == (("v", "e1"),)
    assert AlgebraContext(fan, QQ, special=(("v", "e2"),)).special == (("v", "e2"),)
    for bad in ((("x", "y"),), (("v", "y"),), (("v", "e1"), ("v", "e2"))):
        with pytest.raises(ValueError):
            AlgebraContext(fan, QQ, special=bad)
    assert Monomial(Path("v"), Path("v")).star() == Monomial(Path("v"), Path("v"))


# -- cached structure: built once, invisible to the record semantics --------------


def _count_calls(monkeypatch, func) -> list:
    """Wrap ``func`` in every clpa module that binds it; returns its arguments."""
    calls = []

    def counted(arg):
        calls.append(arg)
        return func(arg)

    for name, module in list(sys.modules.items()):
        if name == "clpa" or name.startswith("clpa."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _semantics(x) -> tuple:
    twin = pickle.loads(pickle.dumps(x))
    return hash(x), repr(x), pickle.dumps(x), twin == x, copy.copy(x) == x, vars(twin).keys()


@pytest.mark.parametrize("name", ["rose2", "cycle_with_tail"])
def test_relative_graph_and_cycles_built_once(monkeypatch, name):
    builds = _count_calls(monkeypatch, clpa.graphs.relative_graph)
    walks = _count_calls(monkeypatch, clpa.graphs.cycle_facts)
    obj = {**NO_EXIT_CORPUS, **EXIT_CORPUS}[name]()
    before = _semantics(obj), _semantics(obj.graph)
    report(obj)
    atomic_cancellative_verdict(obj)
    relgraph_verify(obj)
    pres = presentation(obj)
    x = pres.element(*pres.generators[:1])
    assert equal(pres, x, x).verdict == "yes"
    assert len(builds) == 1 and builds[0] is obj
    obj.graph.exit_cycle  # fills the object's own graph too
    walked = {id(g) for g in walks}
    assert len(walks) == len(walked) and {id(obj.graph), id(obj.relative.graph)} <= walked
    # the caches are filled, yet every record operation (and the pickled twin,
    # which carries no cache) reads as before
    assert "relative" in vars(obj) and "_cycle_facts" in vars(obj.graph)
    assert (_semantics(obj), _semantics(obj.graph)) == before


def test_signature_blocks_built_once(monkeypatch):
    a = MatricialSignature(((2, (0, 3)),), ((1, 2, (0,)), (2, 3, (0, 1))))
    b = MatricialSignature(((2, (5, 2)),), ((2, 3, (4, 5)), (1, 1, (0,))))
    before = _semantics(a), _semantics(b)
    builds = []
    build = GradedMatrixAlgebra.__post_init__
    monkeypatch.setattr(GradedMatrixAlgebra, "__post_init__",
                        lambda alg: builds.append(alg) or build(alg))
    first = decide_graded_iso(a, b)
    assert len(builds) == 6
    assert decide_graded_iso(a, b) == first and first.verdict == "no"
    assert len(builds) == 6
    # the blocks are cached outside the fields: every record operation reads as before
    assert "algebras" in vars(a) and "algebras" in vars(b)
    assert (_semantics(a), _semantics(b)) == before


# -- Monomial: a flat tuple, not a record ---------------------------------------


class TestMonomial:
    def test_equal_when_built_two_ways(self):
        ctx = AlgebraContext(NO_EXIT_CORPUS["fan2_leavitt"](), QQ)
        (product, _), = (ctx.edge("e2") * ctx.ghost("e2")).terms
        built = Monomial(Path("v", ("e2",)), Path("v", ("e2",)))
        assert product == built and hash(product) == hash(built)
        assert product.star().star() == built

    def test_frozen(self):
        m = Monomial(Path("v", ("e",)), Path("w"))
        for name in ("left", "right", "degree", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        assert not hasattr(m, "__dict__")

    def test_repr_matches_dataclass(self):
        left, right = Path("v", ("e",)), Path("w")
        reference = dataclasses.make_dataclass(
            "Monomial", ["left", "right"], frozen=True)(left, right)
        assert repr(Monomial(left, right)) == repr(reference) == (
            "Monomial(left=Path(source='v', edges=('e',)), right=Path(source='w', edges=()))")

    def test_copy_and_pickle_round_trip(self):
        m = Monomial(Path("v", ("e", "f")), Path("u", ("g",)))
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and type(twin) is Monomial
            assert (twin.left, twin.right) == (m.left, m.right)

    def test_star_and_degree(self):
        p, q = Path("v", ("e", "f")), Path("u", ("g",))
        m = Monomial(p, q)
        assert m.star() == Monomial(q, p) and m.star().star() == m
        assert (m.degree, m.star().degree) == (1, -1)
        assert (m.left, m.right) == (p, q)
        assert (str(m), str(Monomial(p, Path("w")))) == ("e.f|g", "e.f")


_paths = st.builds(Path, st.sampled_from("uvw"),
                   st.lists(st.sampled_from("abc"), max_size=3).map(tuple))


@given(st.lists(st.builds(Monomial, _paths, _paths), max_size=12))
def test_monomial_order_is_the_nested_path_order(monomials):
    nested = sorted(monomials, key=lambda m: (m.left.sort_key(), m.right.sort_key()))
    assert sorted(monomials) == nested
