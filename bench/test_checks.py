"""Tests of the benchmark's own answer checks.

    python3 -m pytest bench/test_checks.py

One full pass of each workload on a seed must be accepted except for the
five named faults, and a corrupted answer of each kind must be rejected.
The iso criterion of ``oracle`` is cross-checked against the program's
brute-force GF(2) oracle.
"""

import itertools
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import clpa  # noqa: E402
import corpus as C  # noqa: E402
import oracle as O  # noqa: E402
import workloads as W  # noqa: E402
from run import ROOT, Raised, check_all  # noqa: E402
from clpa.scalars import PrimeField  # noqa: E402

NAMED_FAULTS = {
    "classify": {"iso/reflected-gf:2"},
    "analyze": {"analyze/tree4"},
    "cli": {"cli-iso/graph-files", "cli-analyze/gf4", "cli-witness/n0"},
}


def one_pass(ops):
    records = []
    for i, op in enumerate(ops):
        try:
            answer = op.extract(op.run())
        except Exception as exc:
            answer = Raised(f"{type(exc).__name__}: {exc}")
        records.append((i, 0.0, answer))
    return records


@pytest.fixture(scope="module")
def one_pass_of(tmp_path_factory):
    """workload -> (ops, records) of one pass on seed 7, made once."""
    cache = {}

    def get(workload):
        if workload not in cache:
            corpus = C.Corpus(str(tmp_path_factory.mktemp(workload)))
            ops = W.build(workload, clpa, 7, corpus, W.Children(ROOT))
            cache[workload] = ops, one_pass(ops)
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", sorted(NAMED_FAULTS))
def test_full_pass_fails_only_named_faults(one_pass_of, workload):
    ops, records = one_pass_of(workload)
    failed, correct, reasons = check_all(ops, records)
    assert correct, reasons
    assert {name for name, _, _ in reasons} == NAMED_FAULTS[workload]
    assert failed == len(NAMED_FAULTS[workload])
    assert all(op.fault for op in ops if op.name in NAMED_FAULTS[workload])


def _first(ops, records, prefix):
    return next((i, a) for i, _, a in records if ops[i].name.startswith(prefix))


def test_wrong_block_size_is_rejected(one_pass_of):
    ops, records = one_pass_of("classify")
    i, (sig, blocks) = _first(ops, records, "classify/comet23")
    kind, target, size, shifts, period = blocks[0]
    bad = (sig, ((kind, target, size + 1, shifts + (max(shifts) + 1,), period),) + blocks[1:])
    assert ops[i].check((sig, blocks)) is None
    assert ops[i].check(bad)[0] == "wrong"


def test_flipped_iso_verdict_is_rejected(one_pass_of):
    ops, records = one_pass_of("classify")
    i, answer = _first(ops, records, "iso/no-")
    assert answer[0] == "no" and ops[i].check(answer) is None
    assert ops[i].check(("yes", (), None))[0] == "wrong"


def test_flipped_monoid_verdict_is_rejected(one_pass_of):
    ops, records = one_pass_of("analyze")
    i, answer = _first(ops, records, "analyze/rose")
    atomic, rank, witness = answer[3]
    assert ops[i].check(answer) is None
    assert ops[i].check(answer[:3] + ((not atomic, rank, witness),) + answer[4:])[0] == "wrong"
    ops, records = one_pass_of("cli")
    i, (rc, out, dot) = _first(ops, records, "cli-monoid/rose3")
    assert ops[i].check((rc, out, dot)) is None
    flipped = out.replace('"atomic_cancellative": false', '"atomic_cancellative": true')
    assert flipped != out and ops[i].check((rc, flipped, dot))[0] == "wrong"


def test_wrong_exit_code_is_rejected(one_pass_of):
    ops, records = one_pass_of("cli")
    i, (rc, out, dot) = _first(ops, records, "cli-classify/comet11")
    assert rc == 0 and ops[i].check((rc, out, dot)) is None
    assert ops[i].check((3, out, dot))[0] == "fail"
    j, (rc, out, dot) = _first(ops, records, "cli-classify/malformed")
    assert rc == 2 and ops[j].check((rc, out, dot)) is None
    assert ops[j].check((0, out, dot))[0] == "fail"


def test_iso_criterion_matches_gf2_oracle():
    gf2 = PrimeField(2)
    for size in (1, 2, 3):
        vectors = list(itertools.product(range(3), repeat=size))
        for ga, gb in itertools.product(vectors, repeat=2):
            a = clpa.GradedMatrixAlgebra("field", size, ga, base=gf2)
            b = clpa.GradedMatrixAlgebra("field", size, gb, base=gf2)
            truth = O.iso_truth([C.block("field", size, ga)], [C.block("field", size, gb)])
            assert truth == clpa.brute_force_iso_oracle(a, b), (ga, gb)


def test_ninety_reflected_pairs():
    pairs = C.reflected_size3_pairs()
    assert len(pairs) == 90
    assert C.REFLECTED_PAIR[0][2] + C.REFLECTED_PAIR[1][2] in [a + b for a, b in pairs]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fan_subobject_count(n):
    plain = O.Plain(C.fan(n))
    assert len(O.complete_subobjects(plain)) == 3 ** n + 2 ** n
