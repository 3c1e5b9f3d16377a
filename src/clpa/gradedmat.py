"""Shifted graded matrix *-algebras over K and over Laurent polynomial rings.

A shift vector (g_1, ..., g_n) grades the n x n matrices by declaring the
(i, j) entry of internal degree d to be homogeneous of degree d + g_i - g_j;
the involution is the entry-wise involution composed with transposition.
Over the base field entries are scalars (internal degree 0); over a Laurent
ring of period n the entry t^k has internal degree k*n.  An element of a
:class:`DirectSum` of such algebras (a single algebra is a sum of one) is
stored sparsely, as the coefficients of its matrix units e_ij t^k keyed by
(block, i, j, k).

Two blocks are graded isomorphic exactly when their shifts agree up to a
permutation and a uniform translation, modulo the period for a Laurent block
(re-basing the cycle induces one).  :func:`canonical_shifts` absorbs both into
one key, which the signature :class:`MatricialSignature` keeps per block and
:func:`decide_graded_iso` pairs blocks by.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cache, cached_property
from typing import Optional

from ._linalg import inverse
from ._record import Record
from ._sparse import SparseElement
from .errors import (AlgebraMismatch, ClassificationBug, FieldMismatch, GraphFormatError,
                     OracleScaleExceeded)
from .scalars import QQ, Field, LaurentPoly, PrimeField


class GradedMatrixAlgebra(Record):
    """M_n(K) or M_n(K[t^p, t^-p]) with an integer shift vector.

    A block descriptor: its elements live in ``DirectSum((alg,), alg.base)``.
    """

    kind: str                 # "field" | "laurent"
    size: int
    shifts: tuple
    period: Optional[int] = None
    base: Field = QQ

    def __post_init__(self):
        if self.kind not in ("field", "laurent"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "laurent" and self.period is None:
            raise ValueError("laurent kind needs a positive period")
        if self.kind == "field" and self.period is not None:
            raise ValueError("field kind carries no period")
        shifts = tuple(self.shifts)
        _check_block(self.size, shifts, () if self.period is None else (self.period,))
        object.__setattr__(self, "shifts", shifts)

    canonical = cached_property(lambda self: canonical_shifts(self.shifts, self.period or 0))
    # equal exactly for graded isomorphic blocks
    key = property(lambda self: (self.kind, self.size, self.period, self.canonical[0]))

    def unit_degree(self, i: int, j: int, tpow: int = 0) -> int:
        return tpow * (self.period or 0) + self.shifts[i] - self.shifts[j]

    def spread(self) -> int:
        return max(self.shifts) - min(self.shifts)

    def describe(self) -> str:
        shifts = ",".join(str(s) for s in self.shifts)
        if self.kind == "field":
            return f"M_{self.size}(K)({shifts})"
        return f"M_{self.size}(K[t^{self.period},t^-{self.period}])({shifts})"


class DirectSum(Record):
    """A finite direct sum of graded matrix algebras over one base field."""

    summands: tuple
    base: Field = QQ

    def __post_init__(self):
        for alg in self.summands:
            if alg.base != self.base:
                raise FieldMismatch(f"{alg.base!r} vs {self.base!r}")

    @property
    def size(self) -> int:
        """The size of the block-diagonal matrices the sum embeds into."""
        return sum(alg.size for alg in self.summands)

    def zero(self) -> "GradedMatrix":
        return _matrix(self, {})

    def unit(self, block: int, i: int, j: int, tpow: int = 0) -> "GradedMatrix":
        """The matrix unit e_ij t^tpow of summand ``block``; 0-indexed."""
        self._check_unit(block, i, j, tpow)
        return _matrix(self, {(block, i, j, tpow): self.base.one})

    def _check_unit(self, block: int, i: int, j: int, tpow: int = 0) -> None:
        if not 0 <= block < len(self.summands):
            raise IndexError(f"block {block} outside a sum of {len(self.summands)}")
        alg = self.summands[block]
        if not (0 <= i < alg.size and 0 <= j < alg.size):
            raise IndexError(f"unit ({i}, {j}) outside a size-{alg.size} block")
        if alg.kind == "field" and tpow != 0:
            raise ValueError("no t in a field block")


def component_dim(algebra: GradedMatrixAlgebra, delta: int) -> int:
    """Dimension (over K) of the degree-``delta`` component."""
    g, n = algebra.shifts, algebra.period
    if n is None:
        return sum(1 for x in g for y in g if x - y == delta)
    return sum(1 for x in g for y in g if (delta - x + y) % n == 0)


class GradedMatrix(SparseElement):
    """A finite sum of matrix units of a :class:`DirectSum`: ``terms`` maps
    (block, i, j, k) to the nonzero coefficient of e_ij t^k in that summand
    (k = 0 in field blocks).  The constructor refuses a coefficient outside
    the base field and a key that :meth:`DirectSum.unit` refuses, and drops
    zero coefficients; arithmetic builds its results through ``_matrix``.
    Sums, scaling, equality, hashing and the operand check are
    :class:`SparseElement`'s."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: DirectSum, terms: dict):
        base = algebra.base
        foreign = [a for a in terms.values() if not base.contains(a)]
        if foreign:
            raise FieldMismatch(f"coefficient {foreign[0]!r} is not in {base!r}")
        for u in terms:
            algebra._check_unit(*u)
        self.algebra = algebra
        self.terms = {u: a for u, a in terms.items() if a}

    _field = property(lambda self: self.algebra.base)
    _mismatch = AlgebraMismatch, "matrices live in different graded algebras"

    def _like(self, terms: dict) -> "GradedMatrix":
        return _matrix(self.algebra, terms)

    def entry(self, i: int, j: int, block: int = 0):
        """The (i, j) entry of a summand: a scalar, or a LaurentPoly in Laurent blocks."""
        alg = self.algebra.summands[block]
        if alg.kind == "field":
            return self.terms.get((block, i, j, 0), alg.base.zero)
        return LaurentPoly(alg.period, tuple(
            (k, a) for (b, r, c, k), a in self.terms.items() if (b, r, c) == (block, i, j)),
            alg.base)

    def __mul__(self, other):
        self._check(other)
        rows: dict = {}
        for (blk, j, l, k), b in other.terms.items():
            rows.setdefault((blk, j), []).append((l, k, b))
        out: dict = {}
        for (blk, i, j, k1), a in self.terms.items():
            for l, k2, b in rows.get((blk, j), ()):
                u = (blk, i, l, k1 + k2)
                c = out.get(u)
                out[u] = a * b if c is None else c + a * b
        return _matrix(self.algebra, {u: a for u, a in out.items() if a})

    def star(self) -> "GradedMatrix":
        """The *-transpose: transpose, with t^k -> t^-k (the field involution is the identity)."""
        return _matrix(self.algebra, {
            (blk, j, i, -k): a for (blk, i, j, k), a in self.terms.items()})

    def support(self) -> tuple:
        """(left, right): the (block, i) and the (block, j) over the units e_ij t^k.

        e_ij e_kl = delta_jk e_il within a block, and units of different
        blocks multiply to 0, so x y = 0 whenever the right support of x and
        the left support of y are disjoint.
        """
        terms = self.terms
        return {(b, i) for b, i, _, _ in terms}, {(b, j) for b, _, j, _ in terms}

    def degree_components(self) -> dict:
        summands = self.algebra.summands
        out: dict = {}
        for u, a in self.terms.items():
            out.setdefault(summands[u[0]].unit_degree(*u[1:]), {})[u] = a
        return {delta: _matrix(self.algebra, terms)
                for delta, terms in sorted(out.items())}

    def __str__(self):
        return " (+) ".join(
            "[" + "; ".join(", ".join(str(self.entry(i, j, b)) for j in range(alg.size))
                            for i in range(alg.size)) + "]"
            for b, alg in enumerate(self.algebra.summands))


# the algebra slot, under the name SparseElement reads
GradedMatrix._parent = GradedMatrix.algebra


def _matrix(algebra: DirectSum, terms: dict) -> GradedMatrix:
    """The matrix of valid units with nonzero coefficients, unchecked."""
    m = _new(GradedMatrix)
    m.algebra = algebra
    m.terms = terms
    return m


# builds a GradedMatrix past its checking constructor
_new = object.__new__


# -- the classification invariant ---------------------------------------------


def canonical_shifts(shifts, period: int = 0) -> tuple:
    """(key, bases): the smallest sorted translate of the shifts, modulo the
    period for a Laurent block (period 0 is a field block), and the values
    whose subtraction reaches it.

    A field block has one base, its minimum.  The smallest Laurent translate
    starts at 0, so its bases are residues of the shifts; several reach the
    key when the residues are symmetric.
    """
    if not period:
        low = min(shifts)
        return tuple(sorted(x - low for x in shifts)), (low,)
    residues = [x % period for x in shifts]
    translates = {y: tuple(sorted((x - y) % period for x in residues)) for y in set(residues)}
    key = min(translates.values())
    return key, tuple(sorted(y for y, t in translates.items() if t == key))


def _check_block(size, shifts, periods=()) -> None:
    """A block needs integer data, one shift per index, size and period >= 1.

    ``periods`` is empty for a field block and (period,) for a Laurent block.
    """
    data = (size, *periods, *shifts)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in data):
        raise GraphFormatError(f"block sizes, periods and shifts must be integers: {data}")
    if size < 1 or size != len(shifts) or any(n < 1 for n in periods):
        what = f"size {size}" if not periods else f"size {size} and period {periods[0]}"
        raise GraphFormatError(f"block of {what} vs shifts {tuple(shifts)}")


class MatricialSignature(Record):
    """Canonical block data: (size, shifts) and (size, period, shifts) lists."""

    field_blocks: tuple = ()
    laurent_blocks: tuple = ()

    def __post_init__(self):
        for k, sh in self.field_blocks:
            _check_block(k, sh)
        for m, n, sh in self.laurent_blocks:
            _check_block(m, sh, (n,))
        fb = tuple(sorted((k, canonical_shifts(sh)[0]) for k, sh in self.field_blocks))
        lb = tuple(sorted((m, n, canonical_shifts(sh, n)[0]) for m, n, sh in self.laurent_blocks))
        object.__setattr__(self, "field_blocks", fb)
        object.__setattr__(self, "laurent_blocks", lb)

    @cached_property
    def algebras(self) -> tuple:
        """The canonical blocks over QQ, field blocks first, built on first read."""
        return (*(GradedMatrixAlgebra("field", k, sh) for k, sh in self.field_blocks),
                *(GradedMatrixAlgebra("laurent", m, sh, period=n)
                  for m, n, sh in self.laurent_blocks))

    def describe(self) -> str:
        return " + ".join(a.describe() for a in self.algebras) or "0"


def signature_to_json(sig: MatricialSignature) -> dict:
    return {
        "field_blocks": [{"size": k, "shifts": list(sh)} for k, sh in sig.field_blocks],
        "laurent_blocks": [
            {"size": m, "period": n, "shifts": list(sh)}
            for m, n, sh in sig.laurent_blocks
        ],
    }


def signature_from_json(data) -> MatricialSignature:
    if not isinstance(data, dict):
        raise GraphFormatError("signature JSON must be an object")
    # "blocks" is the per-block detail that `clpa classify --json` adds
    unknown = sorted(set(data) - {"field_blocks", "laurent_blocks", "blocks"})
    if unknown:
        raise GraphFormatError(f"not a signature: unknown keys {unknown}")
    if "field_blocks" not in data and "laurent_blocks" not in data:
        raise GraphFormatError("not a signature: no field_blocks or laurent_blocks")
    try:
        fb = [(b["size"], tuple(b["shifts"])) for b in data.get("field_blocks", [])]
        lb = [(b["size"], b["period"], tuple(b["shifts"]))
              for b in data.get("laurent_blocks", [])]
    except (TypeError, KeyError) as exc:
        raise GraphFormatError(f"signature JSON missing field: {exc}") from exc
    for name, keys in (("field_blocks", {"size", "shifts"}),
                       ("laurent_blocks", {"size", "period", "shifts"})):
        for b in data.get(name, []):
            if len(b) != len(keys):
                raise GraphFormatError(f"{name} record {b!r} has unknown keys "
                                       f"{sorted(set(b) - keys)}")
    return MatricialSignature(tuple(fb), tuple(lb))


# -- graded isomorphism decision -----------------------------------------------


class BlockMatch(Record):
    """A checked unit-level map witnessing a block isomorphism."""

    permutation: tuple        # source index i -> target index permutation[i]
    translation: int
    tpowers: tuple            # diagonal t-exponent corrections (0 for field kind)


class IsoDecision(Record):
    verdict: str              # "yes" | "no" | "unknown"
    matches: tuple = ()       # BlockMatch per matched block pair, for "yes"
    certificate: Optional[tuple] = None   # (delta, dim_a, dim_b, window) for "no"
    note: str = ""


def _match_block(a: GradedMatrixAlgebra, b: GradedMatrixAlgebra) -> BlockMatch:
    """The unit-level map of two blocks with equal ``key``.

    The translation d is added to a's shifts to reach b's (modulo the period
    for Laurent blocks).  Equal keys make base_b - y one for every base y of
    a; the least is taken.  Indices pair in the order of their translated
    shifts, and the t-powers absorb multiples of the period (0 in a field).
    """
    n = a.period or 0
    wrap = (lambda x: x % n) if n else (lambda x: x)
    base_b = b.canonical[1][0]
    d = min(wrap(base_b - y) for y in a.canonical[1])
    order_a = sorted(range(a.size), key=lambda i: (wrap(a.shifts[i] + d), i))
    order_b = sorted(range(b.size), key=lambda j: (wrap(b.shifts[j]), j))
    perm, tpowers = [0] * a.size, [0] * a.size
    for i, j in zip(order_a, order_b):
        perm[i] = j
        tpowers[i] = (a.shifts[i] + d - b.shifts[j]) // (n or 1)
    return BlockMatch(tuple(perm), d, tuple(tpowers))


def _verify_block_match(a: GradedMatrixAlgebra, b: GradedMatrixAlgebra,
                        match: BlockMatch) -> bool:
    """Prove e_ij t^k -> e_{p(i)p(j)} t^(k + c_i - c_j) a graded *-isomorphism.

    As e_ij e_kl = delta_jk e_il, the map is multiplicative exactly when the
    permutation p is injective, and it is then a bijection of matrix units;
    it commutes with the involution by the definition of star.  It keeps the
    degree of every unit exactly when a_i - b_p(i) - c_i * period is the same
    for every i, so the n equations a_i + d = b_p(i) + c_i * period, with d
    the translation, prove it graded (a field block has period 0 and c = 0).
    """
    n = a.size
    perm, c = match.permutation, match.tpowers
    if (b.kind, b.size, b.period) != (a.kind, n, a.period) or sorted(perm) != list(range(n)):
        return False
    if a.kind == "field" and any(c):
        return False
    period = a.period or 0
    return all(a.shifts[i] + match.translation == b.shifts[perm[i]] + c[i] * period
               for i in range(n))


def decide_graded_iso(a, b) -> IsoDecision:
    """Decide graded *-isomorphism of shifted matrix algebras or signatures.

    Each block of ``a`` pairs with the first unpaired block of ``b`` with its
    canonical key, by a unit-level map proved by its shift equations.  Yes
    when no block is left unpaired.  No carries a degree at which the
    component dimensions differ, scanned over a finite window (recorded in
    the certificate) at the degrees of the unpaired blocks only, since paired
    blocks have equal dimensions.  Else Unknown.  Accepts single algebras,
    signatures, or a mix.
    """
    if isinstance(a, GradedMatrixAlgebra) and isinstance(b, GradedMatrixAlgebra) and a.base != b.base:
        raise FieldMismatch(f"{a.base!r} vs {b.base!r}")

    # raw algebras keep their raw shifts so the witness translation is theirs;
    # signatures keep their canonical blocks
    algs_a, algs_b = ((x,) if isinstance(x, GradedMatrixAlgebra) else x.algebras for x in (a, b))

    free: dict = {}               # key -> B's unpaired blocks with it, last first
    for alg in reversed(algs_b):
        free.setdefault(alg.key, []).append(alg)
    matches, unpaired = [], []
    for alg in algs_a:
        twins = free.get(alg.key)
        if not twins:
            unpaired.append(alg)
            continue
        twin = twins.pop()
        m = _match_block(alg, twin)
        if not _verify_block_match(alg, twin, m):
            raise ClassificationBug(f"{m} does not carry {alg.describe()} onto {twin.describe()}")
        matches.append(m)
    unpaired.extend(alg for twins in free.values() for alg in twins)
    if not unpaired:
        return IsoDecision("yes", tuple(matches))

    algs = algs_a + algs_b
    window = (2 * max(alg.spread() for alg in algs)
              + max((alg.period for alg in algs if alg.period), default=1))
    # component dimensions are symmetric in delta (swap x and y in the count),
    # so the scan runs up from 0 and the certificate is the least distinguisher;
    # a degree where every unpaired block's component is zero cannot distinguish.
    # Every run is ascending, so merging them never lists the window.
    runs = []
    for alg in unpaired:
        diffs = {x - y for x in alg.shifts for y in alg.shifts}
        if alg.kind == "field":
            runs.append(sorted(d for d in diffs if d >= 0))   # the window covers every spread
        else:
            n = alg.period
            runs += (range(r, window + 1, n) for r in {d % n for d in diffs})
    for delta, _ in itertools.groupby(heapq.merge(*runs)):
        da = sum(component_dim(alg, delta) for alg in algs_a)
        db = sum(component_dim(alg, delta) for alg in algs_b)
        if da != db:
            return IsoDecision("no", certificate=(delta, da, db, window))
    return IsoDecision("unknown", note=f"component dimensions agree on |delta| <= {window} "
                       "but no translation matching was found")


# -- brute-force oracle over GF(2) ----------------------------------------------


@cache
def _gl_gf2(n: int) -> tuple:
    """Every invertible n x n matrix U over GF(2), once, by its supports: the
    rows where each column of U is 1 and the columns where each row of U^-1 is 1."""
    gf2 = PrimeField(2)
    out = []
    for bits in itertools.product((gf2.zero, gf2.one), repeat=n * n):
        u = [bits[i * n:(i + 1) * n] for i in range(n)]
        u_inv = inverse(u, gf2)
        if u_inv is not None:
            out.append((tuple(tuple(r for r in range(n) if u[r][i]) for i in range(n)),
                        tuple(tuple(c for c in range(n) if u_inv[j][c]) for j in range(n))))
    return tuple(out)


def brute_force_iso_oracle(a: GradedMatrixAlgebra, b: GradedMatrixAlgebra) -> bool:
    """Exhaustive graded-isomorphism test for field blocks over GF(2), size <= 3.

    Every algebra isomorphism of full matrix algebras is a conjugation by some
    invertible U, and it is graded exactly when each unit image U e_ij U^-1,
    the outer product of column i of U and row j of U^-1, has a nonzero entry
    (r, c) only where b_r - b_c = a_i - a_j.
    """
    for alg in (a, b):
        if alg.kind != "field":
            raise ValueError("oracle only covers field-kind algebras")
        if not isinstance(alg.base, PrimeField) or alg.base.p != 2:
            raise ValueError("oracle only covers GF(2)")
        if alg.size > 3:
            raise OracleScaleExceeded(f"size {alg.size} exceeds the oracle bound 3")
    if a.size != b.size:
        return False
    n, sa, sb = a.size, a.shifts, b.shifts
    for cols, rows in _gl_gf2(n):
        if all(sb[r] - sb[c] == sa[i] - sa[j]
               for i in range(n) for j in range(n) for r in cols[i] for c in rows[j]):
            return True
    return False
