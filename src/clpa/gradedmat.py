"""Shifted graded matrix *-algebras over K and over Laurent polynomial rings.

A shift vector (g_1, ..., g_n) grades the n x n matrices by declaring the
(i, j) entry of internal degree d to be homogeneous of degree d + g_i - g_j;
the involution is the entry-wise involution composed with transposition.
Over the base field entries are scalars (internal degree 0); over a Laurent
ring of period n the entry t^k has internal degree k*n.  An element of such
an algebra, or of a finite direct sum of them, is stored sparsely, as the
coefficients of its matrix units e_ij t^k keyed by (block, i, j, k).

The classification invariant :class:`MatricialSignature` collects such blocks
in a canonical form: shifts are normalized (for Laurent blocks up to circular
translation modulo the period, which a change of the distinguished cycle
vertex induces) and blocks are sorted.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ._record import Record
from .errors import AlgebraMismatch, FieldMismatch, GraphFormatError, OracleScaleExceeded
from .scalars import QQ, Field, LaurentPoly, PrimeField, Scalar, field_of, involve


class GradedMatrixAlgebra(Record):
    """M_n(K) or M_n(K[t^p, t^-p]) with an integer shift vector."""

    kind: str                 # "field" | "laurent"
    size: int
    shifts: tuple
    period: Optional[int] = None
    base: Field = QQ

    def __post_init__(self):
        if self.kind not in ("field", "laurent"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if len(self.shifts) != self.size:
            raise ValueError("shift vector length must equal the size")
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        if self.kind == "laurent":
            if self.period is None or self.period < 1:
                raise ValueError("laurent kind needs a positive period")
        elif self.period is not None:
            raise ValueError("field kind carries no period")

    @property
    def summands(self) -> tuple:
        """The algebra as a direct sum of one block (block index 0)."""
        return (self,)

    # -- elements ------------------------------------------------------------

    def zero(self) -> "GradedMatrix":
        return GradedMatrix(self, {})

    def unit(self, i: int, j: int, tpow: int = 0, coeff: Optional[Scalar] = None) -> "GradedMatrix":
        """The matrix unit e_ij (times t^tpow for Laurent blocks); 0-indexed."""
        self._check_unit(i, j, tpow)
        u = GradedMatrix(self, {(0, i, j, tpow): self.base.one})
        return u if coeff is None else u.scale(coeff)

    def _check_unit(self, i: int, j: int, tpow: int) -> None:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"unit ({i}, {j}) outside a size-{self.size} block")
        if self.kind == "field" and tpow != 0:
            raise ValueError("no t in a field block")

    def identity(self) -> "GradedMatrix":
        return GradedMatrix(self, {(0, i, i, 0): self.base.one for i in range(self.size)})

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
        return GradedMatrix(self, {})

    def unit(self, block: int, i: int, j: int, tpow: int = 0) -> "GradedMatrix":
        """The matrix unit e_ij t^tpow of summand ``block``."""
        if not 0 <= block < len(self.summands):
            raise IndexError(f"block {block} outside a sum of {len(self.summands)}")
        self.summands[block]._check_unit(i, j, tpow)
        return GradedMatrix(self, {(block, i, j, tpow): self.base.one})


def component_dim(algebra: GradedMatrixAlgebra, delta: int) -> int:
    """Dimension (over K) of the degree-``delta`` component."""
    g = algebra.shifts
    if algebra.kind == "field":
        return sum(1 for i in range(algebra.size) for j in range(algebra.size)
                   if g[i] - g[j] == delta)
    n = algebra.period
    return sum(1 for i in range(algebra.size) for j in range(algebra.size)
               if (delta - g[i] + g[j]) % n == 0)


def _nonzero(terms: dict) -> dict:
    return {u: a for u, a in terms.items() if a}


class GradedMatrix:
    """A finite sum of matrix units of a :class:`GradedMatrixAlgebra` or a
    :class:`DirectSum`: ``terms`` maps (block, i, j, k) to the nonzero
    coefficient of e_ij t^k in that summand (k = 0 in field blocks; block 0
    in a single algebra)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _check(self, other: "GradedMatrix") -> None:
        if not isinstance(other, GradedMatrix):
            raise TypeError(f"expected GradedMatrix, got {type(other).__name__}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatch("matrices live in different graded algebras")

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def entry(self, i: int, j: int, block: int = 0):
        """The (i, j) entry of a summand: a scalar, or a LaurentPoly in Laurent blocks."""
        alg = self.algebra.summands[block]
        if alg.kind == "field":
            return self.terms.get((block, i, j, 0), alg.base.zero)
        return LaurentPoly(alg.period, tuple(
            (k, a) for (b, r, c, k), a in self.terms.items() if (b, r, c) == (block, i, j)),
            alg.base)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for u, b in other.terms.items():
            a = out.get(u)
            out[u] = b if a is None else a + b
        return GradedMatrix(self.algebra, _nonzero(out))

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for u, b in other.terms.items():
            a = out.get(u)
            out[u] = -b if a is None else a - b
        return GradedMatrix(self.algebra, _nonzero(out))

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
        return GradedMatrix(self.algebra, _nonzero(out))

    def scale(self, a: Scalar) -> "GradedMatrix":
        if field_of(a) != self.algebra.base:
            raise FieldMismatch(f"{field_of(a)!r} vs {self.algebra.base!r}")
        return GradedMatrix(self.algebra, _nonzero({u: a * c for u, c in self.terms.items()}))

    def star(self) -> "GradedMatrix":
        """The *-transpose: transpose with entry involution."""
        return GradedMatrix(self.algebra, {
            (blk, j, i, -k): involve(a) for (blk, i, j, k), a in self.terms.items()})

    def support(self) -> tuple:
        """(left, right): the (block, i) and the (block, j) over the units e_ij t^k.

        e_ij e_kl = delta_jk e_il within a block, and units of different
        blocks multiply to 0, so x y = 0 whenever the right support of x and
        the left support of y are disjoint.
        """
        terms = self.terms
        return {(b, i) for b, i, _, _ in terms}, {(b, j) for b, _, j, _ in terms}

    def is_zero(self) -> bool:
        return not self.terms

    def zero(self) -> "GradedMatrix":
        return GradedMatrix(self.algebra, {})

    def degree_components(self) -> dict:
        summands = self.algebra.summands
        out: dict = {}
        for u, a in self.terms.items():
            out.setdefault(summands[u[0]].unit_degree(*u[1:]), {})[u] = a
        return {delta: GradedMatrix(self.algebra, terms)
                for delta, terms in sorted(out.items())}

    def __str__(self):
        return " (+) ".join(
            "[" + "; ".join(", ".join(str(self.entry(i, j, b)) for j in range(alg.size))
                            for i in range(alg.size)) + "]"
            for b, alg in enumerate(self.algebra.summands))


def component_project(m: GradedMatrix, delta: int) -> GradedMatrix:
    """Keep only the units of homogeneous degree ``delta``."""
    return m.degree_components().get(delta, m.algebra.zero())


# -- the classification invariant ---------------------------------------------


def canonical_field_shifts(shifts) -> tuple:
    s = sorted(int(x) for x in shifts)
    return tuple(x - s[0] for x in s)


def canonical_laurent_shifts(shifts, period: int) -> tuple:
    """Lexicographically smallest circular translation of the shifts mod period.

    Uniform translation modulo the period is induced by re-basing the cycle,
    so the canonical form must absorb it; reducing the minimum to 0 alone
    does not.  The smallest translation starts at 0, so only translations
    that move some shift to 0 are tried.
    """
    reduced = [int(x) % period for x in shifts]
    return min(tuple(sorted((x - y) % period for x in reduced)) for y in set(reduced))


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
        fb = tuple(sorted((k, canonical_field_shifts(sh)) for k, sh in self.field_blocks))
        lb = tuple(sorted((m, n, canonical_laurent_shifts(sh, n))
                          for m, n, sh in self.laurent_blocks))
        object.__setattr__(self, "field_blocks", fb)
        object.__setattr__(self, "laurent_blocks", lb)

    def algebras(self, base: Field = QQ) -> tuple:
        out = [GradedMatrixAlgebra("field", k, sh, base=base)
               for k, sh in self.field_blocks]
        out.extend(GradedMatrixAlgebra("laurent", m, sh, period=n, base=base)
                   for m, n, sh in self.laurent_blocks)
        return tuple(out)

    def describe(self) -> str:
        parts = [GradedMatrixAlgebra("field", k, sh).describe()
                 for k, sh in self.field_blocks]
        parts.extend(
            GradedMatrixAlgebra("laurent", m, sh, period=n).describe()
            for m, n, sh in self.laurent_blocks)
        return " + ".join(parts) if parts else "0"


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


def _match_block(a: GradedMatrixAlgebra, b: GradedMatrixAlgebra) -> Optional[BlockMatch]:
    """Permutation + uniform translation matching of shifts, or None.

    The translation is the uniform amount added to the first algebra's shifts
    to reach the second's (modulo the period for Laurent blocks).
    """
    if a.kind != b.kind or a.size != b.size:
        return None
    if a.kind == "laurent" and a.period != b.period:
        return None
    order_a = sorted(range(a.size), key=lambda i: (a.shifts[i], i))
    order_b = sorted(range(b.size), key=lambda i: (b.shifts[i], i))
    if a.kind == "field":
        d = min(b.shifts) - a.shifts[order_a[0]]
        if any(b.shifts[j] != a.shifts[i] + d for i, j in zip(order_a, order_b)):
            return None
        perm = [0] * a.size
        for i, j in zip(order_a, order_b):
            perm[i] = j
        return BlockMatch(tuple(perm), d, (0,) * a.size)
    # a matching translation moves some shift of a onto the smallest residue of b
    n = a.period
    res_b = sorted((b.shifts[i] % n, i) for i in range(b.size))
    for d in sorted({(res_b[0][0] - x) % n for x in a.shifts}):
        res_a = sorted(((a.shifts[i] + d) % n, i) for i in range(a.size))
        if [r for r, _ in res_a] == [r for r, _ in res_b]:
            perm = [0] * a.size
            tpowers = [0] * a.size
            for (_, i), (_, j) in zip(res_a, res_b):
                perm[i] = j
                tpowers[i] = (a.shifts[i] + d - b.shifts[j]) // n
            return BlockMatch(tuple(perm), d, tuple(tpowers))
    return None


def _verify_block_match(a: GradedMatrixAlgebra, b: GradedMatrixAlgebra,
                        match: BlockMatch) -> bool:
    """Check the unit-level map e_ij t^k -> e_{p(i)p(j)} t^(k + c_i - c_j).

    As e_ij e_kl = delta_jk e_il, the map is multiplicative exactly when the
    permutation p is injective, and it is then a bijection of matrix units;
    so it checks that p permutes the indices, that the map commutes with the
    involution, and that it preserves the degree of every unit.
    """
    n = a.size
    perm, c = match.permutation, match.tpowers
    if b.size != n or sorted(perm) != list(range(n)):
        return False
    exps = (0,) if a.kind == "field" else (-1, 0, 1)
    for i in range(n):
        for j in range(n):
            for k in exps:
                if a.unit_degree(i, j, k) != b.unit_degree(
                    perm[i], perm[j], k + c[i] - c[j]
                ):
                    return False
            if b.unit(perm[i], perm[j], c[i] - c[j]).star() != b.unit(
                perm[j], perm[i], c[j] - c[i]
            ):
                return False
    return True


def _scan_window(spreads, periods) -> int:
    return 2 * max(spreads, default=0) + max(periods, default=1)


def decide_graded_iso(a, b) -> IsoDecision:
    """Decide graded *-isomorphism of shifted matrix algebras or signatures.

    Yes verdicts carry a machine-checked unit-level map; No verdicts carry a
    degree at which the component dimensions differ (scanned over a finite
    window, recorded in the certificate); everything else is Unknown.
    Accepts single algebras, signatures, or a mix.
    """
    base_a = a.base if isinstance(a, GradedMatrixAlgebra) else QQ
    base_b = b.base if isinstance(b, GradedMatrixAlgebra) else QQ
    if isinstance(a, GradedMatrixAlgebra) and isinstance(b, GradedMatrixAlgebra):
        if base_a != base_b:
            raise FieldMismatch(f"{base_a!r} vs {base_b!r}")

    # raw algebras keep their raw shifts so the witness translation is theirs;
    # signatures are canonical already
    algs_a = (a,) if isinstance(a, GradedMatrixAlgebra) else a.algebras(base_a)
    algs_b = (b,) if isinstance(b, GradedMatrixAlgebra) else b.algebras(base_a)

    # structural matching: pair up blocks related by permutation + translation
    if len(algs_a) == len(algs_b):
        remaining = list(range(len(algs_b)))
        matches = []
        for blk in algs_a:
            found = None
            for idx in remaining:
                m = _match_block(blk, algs_b[idx])
                if m is not None and _verify_block_match(blk, algs_b[idx], m):
                    found = (idx, m)
                    break
            if found is None:
                matches = None
                break
            remaining.remove(found[0])
            matches.append(found[1])
        if matches is not None:
            return IsoDecision("yes", tuple(matches))

    spreads = [alg.spread() for alg in algs_a + algs_b]
    periods = [alg.period for alg in algs_a + algs_b if alg.kind == "laurent"]
    window = _scan_window(spreads, periods)
    # scan outward from 0 so the certificate is the most central distinguisher;
    # a degree where every block's component is zero cannot distinguish
    degrees = set()
    for alg in algs_a + algs_b:
        diffs = {x - y for x in alg.shifts for y in alg.shifts}
        if alg.kind == "field":
            degrees |= diffs      # the window covers every spread
        else:
            n = alg.period
            for r in {d % n for d in diffs}:
                degrees.update(range(-window + (r + window) % n, window + 1, n))
    for delta in sorted(degrees, key=lambda d: (abs(d), d < 0)):
        da = sum(component_dim(alg, delta) for alg in algs_a)
        db = sum(component_dim(alg, delta) for alg in algs_b)
        if da != db:
            return IsoDecision("no", certificate=(delta, da, db, window))
    return IsoDecision(
        "unknown",
        note=f"component dimensions agree on |delta| <= {window} "
        "but no translation matching was found",
    )


# -- brute-force oracle over GF(2) ----------------------------------------------


def _gf2_mat_mul(x, y):
    n = len(x)
    return [[sum(x[i][k] & y[k][j] for k in range(n)) & 1 for j in range(n)]
            for i in range(n)]


def _gf2_inverse(m):
    n = len(m)
    a = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [(x ^ y) for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def brute_force_iso_oracle(a: GradedMatrixAlgebra, b: GradedMatrixAlgebra) -> bool:
    """Exhaustive graded-isomorphism test for field blocks over GF(2), size <= 3.

    Every algebra isomorphism of full matrix algebras is a conjugation, so it
    suffices to enumerate the invertible matrices U and check that conjugation
    maps each graded component into the matching component (checked on the
    matrix units, which span the components).
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
    n = a.size
    for bits in itertools.product((0, 1), repeat=n * n):
        u = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
        u_inv = _gf2_inverse(u)
        if u_inv is None:
            continue
        ok = True
        for i in range(n):
            for j in range(n):
                unit = [[1 if (r, c) == (i, j) else 0 for c in range(n)]
                        for r in range(n)]
                conj = _gf2_mat_mul(_gf2_mat_mul(u, unit), u_inv)
                want = a.shifts[i] - a.shifts[j]
                if any(
                    conj[r][c] and b.shifts[r] - b.shifts[c] != want
                    for r in range(n) for c in range(n)
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
