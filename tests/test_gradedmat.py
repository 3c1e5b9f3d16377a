"""Shifted matrix algebras: components, involution, iso decision, oracle."""

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpa import gradedmat
from clpa.errors import (AlgebraMismatch, ClassificationBug, FieldMismatch, GraphFormatError,
                         OracleScaleExceeded)
from clpa.gradedmat import (
    BlockMatch,
    DirectSum,
    GradedMatrix,
    GradedMatrixAlgebra,
    MatricialSignature,
    _match_block,
    _verify_block_match,
    brute_force_iso_oracle,
    canonical_shifts,
    component_dim,
    decide_graded_iso,
    signature_from_json,
    signature_to_json,
)
from clpa.scalars import QQ, LaurentPoly, PrimeField

GF2 = PrimeField(2)


def M(kind, size, shifts, period=None, base=QQ):
    return GradedMatrixAlgebra(kind, size, tuple(shifts), period=period, base=base)


def one_block(alg):
    """The direct sum of the single block ``alg``, where its elements live."""
    return DirectSum((alg,), alg.base)


class TestComponentDim:
    def test_trivial_shifts_zero_component_is_everything(self):
        assert component_dim(M("field", 2, (0, 0)), 0) == 4

    def test_split_shifts_zero_component_is_diagonal(self):
        assert component_dim(M("field", 2, (0, 1)), 0) == 2

    def test_degree_one_count(self):
        assert component_dim(M("field", 2, (0, 1)), 1) == 1

    def test_field_dims_sum_to_size_squared(self):
        for shifts in itertools.product(range(3), repeat=3):
            a = M("field", 3, shifts)
            total = sum(component_dim(a, d) for d in range(-5, 6))
            assert total == 9

    def test_laurent_periodicity(self):
        a = M("laurent", 2, (0, 1), period=3)
        for d in range(-6, 7):
            assert component_dim(a, d) == component_dim(a, d + 3)

    def test_component_dim_matches_unit_projection(self):
        # independent recount: a unit t^k survives projection to exactly the
        # degree the component rule assigns it
        a = M("laurent", 2, (0, 2), period=2)
        s = one_block(a)
        for delta in range(-4, 5):
            count = 0
            for i in range(2):
                for j in range(2):
                    for k in range(-4, 5):
                        unit = s.unit(0, i, j, k)
                        if unit.degree_components().get(delta) is not None:
                            count += 1
            # each (i, j) pair contributes at most one exponent k per degree
            assert count == component_dim(a, delta)


class TestMatrixOps:
    def test_matrix_units_multiply(self):
        a = one_block(M("field", 2, (0, 1)))
        assert (a.unit(0, 0, 1) * a.unit(0, 1, 0) - a.unit(0, 0, 0)).is_zero()
        assert (a.unit(0, 0, 1) * a.unit(0, 0, 1)).is_zero()

    def test_star_transpose(self):
        a = one_block(M("field", 2, (0, 1)))
        assert (a.unit(0, 0, 1).star() - a.unit(0, 1, 0)).is_zero()

    def test_laurent_star_flips_exponent(self):
        a = one_block(M("laurent", 1, (0,), period=1))
        assert (a.unit(0, 0, 0, 1).star() - a.unit(0, 0, 0, -1)).is_zero()

    def test_identity_projects_to_degree_zero(self):
        a = one_block(M("field", 2, (0, 1)))
        identity = a.unit(0, 0, 0) + a.unit(0, 1, 1)
        assert identity.degree_components().get(0) == identity

    def test_unit_degrees(self):
        a = one_block(M("field", 2, (0, 1)))
        assert set(a.unit(0, 1, 0).degree_components()) == {1}
        b = one_block(M("laurent", 2, (0, 1), period=2))
        assert set(b.unit(0, 0, 1, 1).degree_components()) == {1}

    def test_mismatch_rejected(self):
        a, b = one_block(M("field", 2, (0, 1))), one_block(M("field", 2, (0, 0)))
        with pytest.raises(AlgebraMismatch):
            a.unit(0, 0, 0) * b.unit(0, 0, 0)

    def test_star_maps_components_to_negated(self):
        a = one_block(M("laurent", 2, (0, 1), period=2))
        x = a.unit(0, 0, 1, 1) + a.unit(0, 1, 1, -1)
        comps = x.degree_components()
        starred = x.star().degree_components()
        assert set(starred) == {-d for d in comps}
        for d, part in comps.items():
            assert (part.star() - starred[-d]).is_zero()

    def test_direct_sum_blockwise(self):
        s = DirectSum((M("field", 1, (0,)), M("laurent", 1, (0,), period=1)))
        x = s.unit(0, 0, 0) + s.unit(1, 0, 0, 1)
        y = x * x
        assert (y - s.unit(0, 0, 0) - s.unit(1, 0, 0, 2)).is_zero()
        assert str(y) == "[1] (+) [t^2]"

    def test_direct_sum_zero_blocks(self):
        s = DirectSum((M("field", 2, (0, 1)), M("laurent", 1, (0,), period=2)))
        x = s.unit(0, 0, 1)
        y = s.unit(1, 0, 0, -1)
        assert (x * y).is_zero() and (y * x).is_zero()
        assert x * x.star() == s.unit(0, 0, 0)
        assert s.size == 3
        for bad in ((2, 0, 0), (-1, 0, 0), (1, 1, 0), (0, 0, 0, 1)):
            with pytest.raises((IndexError, ValueError)):
                s.unit(*bad)

    def test_direct_sum_mismatch_rejected(self):
        s = DirectSum((M("field", 1, (0,)),))
        twice = DirectSum((M("field", 1, (0,)), M("field", 1, (0,))))
        with pytest.raises(AlgebraMismatch):
            s.unit(0, 0, 0) * twice.unit(0, 0, 0)
        with pytest.raises(FieldMismatch):
            DirectSum((M("field", 1, (0,), base=GF2),))


class TestConstructorChecks:
    GF5 = PrimeField(5)
    ALG = one_block(M("field", 2, (0, 1), base=GF5))

    def test_coefficient_outside_the_base_field_refused(self):
        with pytest.raises(FieldMismatch, match="coefficient 0.5 is not in GF"):
            GradedMatrix(self.ALG, {(0, 0, 0, 0): 0.5})

    def test_zero_coefficient_dropped(self):
        x = GradedMatrix(self.ALG, {(0, 0, 1, 0): self.GF5.zero})
        assert x.is_zero() and x == self.ALG.zero() and x.terms == {}

    def test_key_outside_the_block_refused(self):
        with pytest.raises(IndexError, match=r"unit \(5, 1\) outside a size-2 block"):
            GradedMatrix(self.ALG, {(0, 5, 1, 0): self.GF5.one})
        with pytest.raises(IndexError, match="block 1 outside a sum of 1"):
            GradedMatrix(self.ALG, {(1, 0, 0, 0): self.GF5.one})
        with pytest.raises(ValueError, match="no t in a field block"):
            GradedMatrix(self.ALG, {(0, 0, 0, 1): self.GF5.one})


class TestSignature:
    def test_canonical_translation(self):
        s1 = MatricialSignature(((2, (3, 4)),), ())
        s2 = MatricialSignature(((2, (0, 1)),), ())
        assert s1 == s2

    def test_canonical_laurent_circular(self):
        # {0,3} and {0,1} mod 4 are the same set up to circular translation
        assert canonical_shifts((0, 3), 4)[0] == canonical_shifts((0, 1), 4)[0]
        assert canonical_shifts((0, 3), 4)[0] == (0, 1)

    def test_block_sorting(self):
        s = MatricialSignature(((2, (0, 1)), (1, (0,))), ())
        assert s.field_blocks[0] == (1, (0,))

    def test_json_round_trip(self):
        s = MatricialSignature(((2, (0, 1)),), ((1, 1, (0,)),))
        assert signature_from_json(signature_to_json(s)) == s

    def test_bad_signature_rejected(self):
        with pytest.raises(GraphFormatError):
            MatricialSignature(((2, (0,)),), ())

    @pytest.mark.parametrize("key, block", [
        ("laurent_blocks", {"size": 1, "period": 0, "shifts": [0]}),
        ("laurent_blocks", {"size": 1, "period": -2, "shifts": [0]}),
        ("laurent_blocks", {"size": 1, "period": "2", "shifts": [0]}),
        ("laurent_blocks", {"size": 1, "period": 1.0, "shifts": [0]}),
        ("laurent_blocks", {"size": 1.5, "period": 1, "shifts": [0]}),
        ("field_blocks", {"size": 1.5, "shifts": [0]}),
        ("field_blocks", {"size": "2", "shifts": [0, 1]}),
        ("field_blocks", {"size": True, "shifts": [0]}),
        ("field_blocks", {"size": 2, "shifts": "01"}),
        ("field_blocks", {"size": 1, "shifts": [0.5]}),
        ("field_blocks", {"size": 0, "shifts": []}),
        ("field_blocks", {"size": 1, "shifts": [0], "period": 3}),
        ("laurent_blocks", {"size": 1, "period": 1, "shifts": [0], "shift": [0]}),
    ])
    def test_malformed_json_blocks_rejected(self, key, block):
        with pytest.raises(GraphFormatError):
            signature_from_json({key: [block]})

    @pytest.mark.parametrize("kind, size, shifts, period", [
        ("field", 2, (0.5, 1), None),
        ("field", 2, (True, 1), None),
        ("field", 2.0, (0, 1), None),
        ("field", 0, (), None),
        ("field", 2, (0,), None),
        ("laurent", 1, (0,), 0),
        ("laurent", 1, (0,), 2.0),
        ("laurent", 1, (0,), None),
        ("field", 1, (0,), 1),
    ])
    def test_malformed_block_descriptor_rejected(self, kind, size, shifts, period):
        with pytest.raises(ValueError):
            GradedMatrixAlgebra(kind, size, shifts, period=period)


class TestDecideGradedIso:
    def test_realization_counterexample(self):
        d = decide_graded_iso(M("field", 2, (0, 0)), M("field", 2, (0, 1)))
        assert d.verdict == "no"
        delta, da, db, _ = d.certificate
        assert (delta, da, db) == (0, 4, 2)

    def test_uniform_translation_yes(self):
        d = decide_graded_iso(M("field", 2, (0, 1)), M("field", 2, (3, 4)))
        assert d.verdict == "yes"
        assert d.matches[0].translation == 3

    def test_laurent_mod_period(self):
        d = decide_graded_iso(
            M("laurent", 1, (0,), period=1), M("laurent", 1, (7,), period=1)
        )
        assert d.verdict == "yes"

    def test_laurent_period_distinguishes(self):
        d = decide_graded_iso(
            M("laurent", 1, (0,), period=1), M("laurent", 1, (0,), period=2)
        )
        assert d.verdict == "no"

    def test_field_vs_laurent_never_iso(self):
        d = decide_graded_iso(M("field", 1, (0,)), M("laurent", 1, (0,), period=1))
        assert d.verdict == "no"

    def test_field_mismatch_error(self):
        with pytest.raises(FieldMismatch):
            decide_graded_iso(M("field", 1, (0,)), M("field", 1, (0,), base=GF2))

    def test_yes_implies_dims_agree(self):
        cases = [
            (M("field", 2, (0, 1)), M("field", 2, (5, 4))),
            (M("laurent", 2, (0, 1), period=2), M("laurent", 2, (1, 2), period=2)),
        ]
        for a, b in cases:
            d = decide_graded_iso(a, b)
            assert d.verdict == "yes"
            for delta in range(-6, 7):
                assert component_dim(a, delta) == component_dim(b, delta)

    def test_signature_multi_block(self):
        sig1 = MatricialSignature(((1, (0,)), (2, (0, 1))), ())
        sig2 = MatricialSignature(((2, (4, 5)), (1, (9,))), ())
        assert decide_graded_iso(sig1, sig2).verdict == "yes"
        sig3 = MatricialSignature(((1, (0,)), (2, (0, 0))), ())
        assert decide_graded_iso(sig1, sig3).verdict == "no"

    def test_scan_skips_paired_blocks(self):
        # the paired period-1 Laurent blocks would make every degree of the
        # 200 001-wide window a candidate; the unpaired field blocks name three
        a = MatricialSignature(((2, (0, 100_000)),), ((1, 1, (0,)),))
        b = MatricialSignature(((2, (0, 99_999)),), ((1, 1, (0,)),))
        start = time.perf_counter()
        d = decide_graded_iso(a, b)
        assert time.perf_counter() - start < 0.5
        assert d.verdict == "no"
        assert d.certificate == (99_999, 1, 2, 200_001)

    def test_scan_never_lists_the_window(self):
        # the unpaired period-1 Laurent block makes every degree of the
        # 2 000 002-wide window a candidate; the scan stops at the first
        a = MatricialSignature(((2, (0, 1_000_000)),), ((1, 1, (0,)),))
        b = MatricialSignature(((2, (0, 1_000_000)),), ((1, 2, (0,)),))
        start = time.perf_counter()
        d = decide_graded_iso(a, b)
        assert time.perf_counter() - start < 0.5
        assert d.certificate == (1, 1, 0, 2_000_002)

    def test_scan_order_matches_a_walk_of_the_window(self):
        found = Counter()
        for algs_a, algs_b, a, b in _seeded_scan_pairs(random.Random(26), 400):
            d = decide_graded_iso(a, b)
            found[d.verdict] += 1
            window, first = _first_distinguisher(algs_a, algs_b)
            if d.verdict == "no":
                assert d.certificate == first
            elif d.verdict == "unknown":
                assert first is None and f"|delta| <= {window} " in d.note
        assert found["no"] > 100 and found["unknown"] > 20

    def test_failed_pair_proof_is_a_bug(self, monkeypatch):
        a = M("field", 2, (0, 1))
        monkeypatch.setattr(gradedmat, "_match_block", lambda x, y: BlockMatch((0, 0), 0, (0, 0)))
        with pytest.raises(ClassificationBug):
            decide_graded_iso(a, a)


def _first_distinguisher(algs_a, algs_b):
    """(window, certificate): walks the whole window [-window, window] in the
    scan order (|delta|, delta < 0) for the first degree where the component
    dimensions of the two sides differ; the certificate is None if none does."""
    algs = [*algs_a, *algs_b]
    window = (2 * max(alg.spread() for alg in algs)
              + max((alg.period for alg in algs if alg.period), default=1))

    def dims(side):
        # a block's degree-delta dimension counts its (x, y) with x - y = delta,
        # modulo the period in a Laurent block
        counts = [(alg.period, Counter(x - y if alg.period is None else (x - y) % alg.period
                                       for x in alg.shifts for y in alg.shifts))
                  for alg in side]
        return lambda delta: sum(c[delta if n is None else delta % n] for n, c in counts)

    dim_a, dim_b = dims(algs_a), dims(algs_b)
    for delta in sorted(range(-window, window + 1), key=lambda d: (abs(d), d < 0)):
        if dim_a(delta) != dim_b(delta):
            return window, (delta, dim_a(delta), dim_b(delta), window)
    return window, None


def _seeded_scan_pairs(rng, count):
    """(algs_a, algs_b, a, b): single-block pairs and signature pairs with
    shifts in -40..60 and periods 1..30, each B block a small change of its A
    block (a moved shift, another period, or a reflected size-3 triple, whose
    component dimensions agree at every degree)."""
    def block():
        size = rng.choice((1, 2, 3, 3, 4))
        shifts = tuple(rng.randint(-40, 60) for _ in range(size))
        if rng.random() < 0.5:
            return M("field", size, shifts)
        return M("laurent", size, shifts, period=rng.randint(1, 30))

    def partner(alg):
        shifts = list(alg.shifts)
        if alg.size == 3 and rng.random() < 0.5:
            lo, mid, hi = sorted(shifts)
            shifts = [lo, lo + hi - mid, hi]
        else:
            shifts[rng.randrange(alg.size)] += rng.randint(-3, 3)
        period = alg.period if alg.kind == "field" or rng.random() < 0.7 else rng.randint(1, 30)
        return M(alg.kind, alg.size, shifts, period=period)

    def signature(algs):
        return MatricialSignature(
            tuple((x.size, x.shifts) for x in algs if x.kind == "field"),
            tuple((x.size, x.period, x.shifts) for x in algs if x.kind == "laurent"))

    for i in range(count):
        algs_a = [block() for _ in range(1 if i % 2 else rng.randint(1, 3))]
        algs_b = [partner(alg) for alg in algs_a]
        if i % 2:
            yield algs_a, algs_b, algs_a[0], algs_b[0]
        else:
            a, b = signature(algs_a), signature(algs_b)
            yield a.algebras, b.algebras, a, b


class TestOracle:
    def test_translation_pair(self):
        assert brute_force_iso_oracle(
            M("field", 2, (0, 1), base=GF2), M("field", 2, (1, 2), base=GF2)
        )

    def test_distinct_dims(self):
        assert not brute_force_iso_oracle(
            M("field", 2, (0, 0), base=GF2), M("field", 2, (0, 1), base=GF2)
        )

    def test_self_iso(self):
        a = M("field", 3, (0, 1, 2), base=GF2)
        assert brute_force_iso_oracle(a, a)

    def test_scale_guard(self):
        big = M("field", 4, (0, 0, 0, 0), base=GF2)
        with pytest.raises(OracleScaleExceeded):
            brute_force_iso_oracle(big, big)

    def test_wrong_base_rejected(self):
        a = M("field", 2, (0, 1))
        with pytest.raises(ValueError):
            brute_force_iso_oracle(a, a)

    def test_agreement_with_decision_procedure(self):
        # exhaustive sweep over sizes 1, 2 with shifts in {0, 1, 2}
        for n in (1, 2):
            for sa in itertools.product((0, 1, 2), repeat=n):
                for sb in itertools.product((0, 1, 2), repeat=n):
                    a, b = M("field", n, sa, base=GF2), M("field", n, sb, base=GF2)
                    decision = decide_graded_iso(a, b)
                    assert decision.verdict != "unknown"
                    assert (decision.verdict == "yes") == brute_force_iso_oracle(a, b)

    def test_size_three_sweep_against_the_oracle(self):
        # the "unknown" pairs are the reflected class, e.g. (0, 0, 1) against (0, 1, 1)
        verdicts = Counter()
        for sa in itertools.product((0, 1, 2), repeat=3):
            for sb in itertools.product((0, 1, 2), repeat=3):
                a, b = M("field", 3, sa, base=GF2), M("field", 3, sb, base=GF2)
                decision = decide_graded_iso(a, b)
                assert (decision.verdict == "yes") == brute_force_iso_oracle(a, b), (sa, sb)
                verdicts[decision.verdict] += 1
        assert verdicts == {"yes": 135, "no": 504, "unknown": 90}

    def test_invertible_matrices_are_listed_once_per_size(self):
        # |GL_n(F_2)| = (2^n - 1)(2^n - 2)...(2^n - 2^(n-1))
        assert [len(gradedmat._gl_gf2(n)) for n in (1, 2, 3)] == [1, 6, 168]
        assert gradedmat._gl_gf2(3) is gradedmat._gl_gf2(3)


# -- block matches: the injectivity proof against the unit products -------------


def _unit_products_oracle(a, b, match):
    """The unit-level map checked by all n^4 products of unit images, plus
    the star and degree identities."""
    n = a.size
    perm, c = match.permutation, match.tpowers
    sum_b = one_block(b)

    def image(i, j, k=0):
        return sum_b.unit(0, perm[i], perm[j], k + c[i] - c[j])

    exps = (0,) if a.kind == "field" else (-1, 0, 1)
    for i in range(n):
        for j in range(n):
            for k in exps:
                if a.unit_degree(i, j, k) != b.unit_degree(perm[i], perm[j], k + c[i] - c[j]):
                    return False
            if not (image(i, j).star() - image(j, i)).is_zero():
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    got = image(i, j) * image(k, l)
                    want = image(i, l) if j == k else sum_b.zero()
                    if not (got - want).is_zero():
                        return False
    return True


def _block_pairs():
    """Field pairs over GF(2) of size <= 3 with shifts in {0, 1, 2}, and
    Laurent pairs of size <= 3, period <= 3, shifts in {0, 1, 2}."""
    for n in (1, 2, 3):
        for sa in itertools.product((0, 1, 2), repeat=n):
            for sb in itertools.product((0, 1, 2), repeat=n):
                yield M("field", n, sa, base=GF2), M("field", n, sb, base=GF2)
                for period in (1, 2, 3):
                    yield (M("laurent", n, sa, period=period),
                           M("laurent", n, sb, period=period))


class TestBlockMatchProof:
    def test_proof_agrees_with_unit_products_on_every_match(self):
        matched = 0
        for a, b in _block_pairs():
            if a.key == b.key:
                m = _match_block(a, b)
                assert _verify_block_match(a, b, m) == _unit_products_oracle(a, b, m) is True
                matched += 1
        assert matched > 100

    def test_non_injective_permutation_rejected(self):
        a = b = M("field", 2, (0, 0))
        bad = BlockMatch((0, 0), 0, (0, 0))
        assert not _unit_products_oracle(a, b, bad)
        assert not _verify_block_match(a, b, bad)
        lb = M("laurent", 3, (0, 0, 1), period=2)
        bad = BlockMatch((1, 1, 2), 0, (0, 0, 0))
        assert not _unit_products_oracle(lb, lb, bad)
        assert not _verify_block_match(lb, lb, bad)

    def test_wrong_tpower_rejected(self):
        a = M("laurent", 2, (0, 1), period=2)
        b = M("laurent", 2, (1, 2), period=2)
        good = _match_block(a, b)
        assert _verify_block_match(a, b, good)
        for i in range(2):
            for delta in (-1, 1):
                tp = list(good.tpowers)
                tp[i] += delta
                bad = BlockMatch(good.permutation, good.translation, tuple(tp))
                assert not _unit_products_oracle(a, b, bad)
                assert not _verify_block_match(a, b, bad)

    def test_field_match_with_t_powers_rejected(self):
        a = M("field", 2, (0, 1))
        assert not _verify_block_match(a, a, BlockMatch((0, 1), 0, (1, 0)))

    def test_raised_t_powers_need_a_new_translation(self):
        # the unit products see only the differences c_i - c_j, but a
        # translation d with a_i + d = b_p(i) + c_i * period must hold at every i
        a = M("laurent", 2, (0, 1), period=2)
        b = M("laurent", 2, (1, 2), period=2)
        good = _match_block(a, b)
        raised = BlockMatch(good.permutation, good.translation,
                            tuple(c + 1 for c in good.tpowers))
        assert _verify_block_match(a, b, good)
        assert not _verify_block_match(a, b, raised)
        moved = BlockMatch(raised.permutation, good.translation + 2, raised.tpowers)
        assert _verify_block_match(a, b, moved)

    def test_every_accepted_match_passes_unit_products(self):
        # blocks of size <= 2: every permutation, every translation in -3..3,
        # and t-powers in {-1, 0, 1} (field blocks: none, and one stray t)
        accepted = 0
        for a, b in _block_pairs():
            if a.size > 2:
                continue
            tps = ([(0,) * a.size, (1,) + (0,) * (a.size - 1)] if a.kind == "field"
                   else itertools.product((-1, 0, 1), repeat=a.size))
            for perm, d, tp in itertools.product(itertools.permutations(range(a.size)),
                                                 range(-3, 4), tps):
                m = BlockMatch(perm, d, tuple(tp))
                if _verify_block_match(a, b, m):
                    assert _unit_products_oracle(a, b, m), (a, b, m)
                    accepted += 1
        assert accepted > 100

    def test_symmetric_laurent_residues_take_the_least_translation(self):
        # residues {1, 3} reach {0, 2} mod 4 by translation 1 and by 3
        a = M("laurent", 2, (1, 3), period=4)
        b = M("laurent", 2, (0, 2), period=4)
        m = _match_block(a, b)
        assert m.translation == 1
        assert _verify_block_match(a, b, m)

    def test_wrong_permutation_rejected(self):
        a = M("field", 3, (0, 1, 2))
        b = M("field", 3, (4, 5, 6))
        good = _match_block(a, b)
        for perm in itertools.permutations(range(3)):
            m = BlockMatch(perm, good.translation, good.tpowers)
            want = perm == good.permutation
            assert _unit_products_oracle(a, b, m) == want
            assert _verify_block_match(a, b, m) == want


@st.composite
def isomorphic_images(draw):
    """A raw block of size <= 3 and an image: its shifts permuted, translated
    and, in a Laurent block, moved by multiples of the period."""
    kind = draw(st.sampled_from(["field", "laurent"]))
    size = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
    period = draw(st.integers(1, 4)) if kind == "laurent" else None
    d = draw(st.integers(-10, 10))
    moved = [x + d + (draw(st.integers(-2, 2)) * period if period else 0) for x in shifts]
    image = draw(st.permutations(moved))
    return M(kind, size, shifts, period=period), M(kind, size, image, period=period)


@settings(max_examples=200, deadline=None)
@given(case=isomorphic_images())
def test_isomorphic_images_are_matched(case):
    a, b = case
    d = decide_graded_iso(a, b)
    assert d.verdict == "yes"
    assert all(_unit_products_oracle(a, b, m) for m in d.matches)


# -- sparse elements against a dense reference ----------------------------------


@st.composite
def unit_combinations(draw):
    """An algebra and two lists of (i, j, k, c): coefficient c on e_ij t^k."""
    kind = draw(st.sampled_from(["field", "laurent"]))
    base = draw(st.sampled_from([QQ, GF2, PrimeField(3), PrimeField(5)]))
    size = draw(st.integers(min_value=1, max_value=3))
    shifts = draw(st.lists(st.integers(-2, 3), min_size=size, max_size=size))
    period = draw(st.integers(1, 3)) if kind == "laurent" else None
    exps = st.integers(-2, 2) if kind == "laurent" else st.just(0)
    term = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), exps,
                     st.integers(-2, 2))
    return (M(kind, size, shifts, period=period, base=base),
            draw(st.lists(term, max_size=6)), draw(st.lists(term, max_size=6)))


def _sparse(alg, combo):
    s = one_block(alg)
    x = s.zero()
    for i, j, k, c in combo:
        x = x + s.unit(0, i, j, k).scale(alg.base.from_int(c))
    return x


def _dense(alg, combo):
    """The reference: an n x n matrix of LaurentPoly entries."""
    period = alg.period or 1
    rows = [[LaurentPoly.zero_poly(period, alg.base) for _ in range(alg.size)]
            for _ in range(alg.size)]
    for i, j, k, c in combo:
        a = alg.base.from_int(c) if isinstance(c, int) else c
        rows[i][j] = rows[i][j] + LaurentPoly(period, ((k, a),), alg.base)
    return rows


def _as_dense(x):
    """The dense form of a sparse element, after checking its invariants."""
    assert all(x.terms.values()), "a zero coefficient is stored"
    assert all(b == 0 for b, _, _, _ in x.terms), "a unit outside the one block"
    return _dense(x.algebra.summands[0], [(i, j, k, a) for (_, i, j, k), a in x.terms.items()])


def _dense_mul(a, b):
    n = len(a)
    out = [[a[0][0].zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                out[i][j] = out[i][j] + a[i][l] * b[l][j]
    return out


def _dense_components(alg, rows):
    period = alg.period or 0
    out = {}
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            for k, a in entry.terms:
                delta = k * period + alg.shifts[i] - alg.shifts[j]
                part = out.setdefault(delta, [[entry.zero() for _ in row] for _ in row])
                part[i][j] = part[i][j] + LaurentPoly(entry.period, ((k, a),), alg.base)
    return out


@settings(max_examples=150, deadline=None)
@given(case=unit_combinations())
def test_sparse_arithmetic_matches_dense_reference(case):
    alg, xs, ys = case
    x, y = _sparse(alg, xs), _sparse(alg, ys)
    dx, dy = _dense(alg, xs), _dense(alg, ys)
    assert _as_dense(x) == dx
    assert _as_dense(x * y) == _dense_mul(dx, dy)
    assert _as_dense(x + y) == [[a + b for a, b in zip(r, s)] for r, s in zip(dx, dy)]
    assert _as_dense(x - y) == [[a - b for a, b in zip(r, s)] for r, s in zip(dx, dy)]
    assert _as_dense(x.star()) == [[dx[j][i].star() for j in range(alg.size)]
                                   for i in range(alg.size)]
    comps = x.degree_components()
    want = _dense_components(alg, dx)
    assert list(comps) == sorted(want)
    for delta, part in comps.items():
        assert part.algebra == one_block(alg)
        assert _as_dense(part) == want[delta]
    assert x.is_zero() == all(e.is_zero() for row in dx for e in row)
    for i in range(alg.size):
        for j in range(alg.size):
            entry = x.entry(i, j)
            if alg.kind == "field":
                assert entry == dx[i][j].coeff(0)
            else:
                assert entry == dx[i][j]
