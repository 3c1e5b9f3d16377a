"""Shifted graded matrix *-algebras over K and over Laurent polynomial rings.

A shift vector (g_1, ..., g_n) grades the n x n matrices by declaring the
(i, j) entry of internal degree d to be homogeneous of degree d + g_i - g_j;
the involution is the entry-wise involution composed with transposition.
Over the base field entries are scalars (internal degree 0); over a Laurent
ring of period n the entry t^k has internal degree k*n.  An element is stored
sparsely, as the coefficients of its matrix units e_ij t^k.

The classification invariant :class:`MatricialSignature` collects such blocks
in a canonical form: shifts are normalized (for Laurent blocks up to circular
translation modulo the period, which a change of the distinguished cycle
vertex induces) and blocks are sorted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import AlgebraMismatch, FieldMismatch, GraphFormatError, OracleScaleExceeded
from .scalars import QQ, Field, LaurentPoly, PrimeField, Scalar, field_of, involve


@dataclass(frozen=True)
class GradedMatrixAlgebra:
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

    # -- elements ------------------------------------------------------------

    def zero(self) -> "GradedMatrix":
        return GradedMatrix(self, {})

    def unit(self, i: int, j: int, tpow: int = 0, coeff: Optional[Scalar] = None) -> "GradedMatrix":
        """The matrix unit e_ij (times t^tpow for Laurent blocks); 0-indexed."""
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"unit ({i}, {j}) outside a size-{self.size} block")
        if self.kind == "field" and tpow != 0:
            raise ValueError("no t in a field block")
        u = GradedMatrix(self, {(i, j, tpow): self.base.one})
        return u if coeff is None else u.scale(coeff)

    def identity(self) -> "GradedMatrix":
        return GradedMatrix(self, {(i, i, 0): self.base.one for i in range(self.size)})

    def unit_degree(self, i: int, j: int, tpow: int = 0) -> int:
        d = 0 if self.kind == "field" else tpow * self.period
        return d + self.shifts[i] - self.shifts[j]

    def spread(self) -> int:
        return max(self.shifts) - min(self.shifts)

    def describe(self) -> str:
        shifts = ",".join(str(s) for s in self.shifts)
        if self.kind == "field":
            return f"M_{self.size}(K)({shifts})"
        return f"M_{self.size}(K[t^{self.period},t^-{self.period}])({shifts})"


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
    """A finite sum of matrix units: ``terms`` maps (i, j, k) to the nonzero
    coefficient of e_ij t^k (k = 0 in field blocks)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedMatrixAlgebra, terms: dict):
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

    def entry(self, i: int, j: int):
        """The (i, j) entry: a scalar, or a LaurentPoly in Laurent blocks."""
        alg = self.algebra
        if alg.kind == "field":
            return self.terms.get((i, j, 0), alg.base.zero)
        return LaurentPoly(alg.period, tuple(
            (k, a) for (r, c, k), a in self.terms.items() if (r, c) == (i, j)), alg.base)

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
        for (j, l, k), b in other.terms.items():
            rows.setdefault(j, []).append((l, k, b))
        out: dict = {}
        for (i, j, k1), a in self.terms.items():
            for l, k2, b in rows.get(j, ()):
                u = (i, l, k1 + k2)
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
            (j, i, -k): involve(a) for (i, j, k), a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def zero(self) -> "GradedMatrix":
        return GradedMatrix(self.algebra, {})

    def degree_components(self) -> dict:
        g, n = self.algebra.shifts, self.algebra.period or 0
        out: dict = {}
        for (i, j, k), a in self.terms.items():
            out.setdefault(k * n + g[i] - g[j], {})[(i, j, k)] = a
        return {delta: GradedMatrix(self.algebra, terms)
                for delta, terms in sorted(out.items())}

    def __str__(self):
        size = range(self.algebra.size)
        return "[" + "; ".join(
            ", ".join(str(self.entry(i, j)) for j in size) for i in size) + "]"


def component_project(m: GradedMatrix, delta: int) -> GradedMatrix:
    """Keep only the units of homogeneous degree ``delta``."""
    return m.degree_components().get(delta, m.algebra.zero())


@dataclass(frozen=True)
class MatTuple:
    """An element of a finite direct sum of graded matrix algebras."""

    blocks: tuple

    def _check(self, other: "MatTuple") -> None:
        if not isinstance(other, MatTuple):
            raise TypeError(f"expected MatTuple, got {type(other).__name__}")
        if len(other.blocks) != len(self.blocks) or any(
            a.algebra is not b.algebra and a.algebra != b.algebra
            for a, b in zip(self.blocks, other.blocks)
        ):
            raise AlgebraMismatch("direct sums have different block structure")

    def __add__(self, other):
        self._check(other)
        return MatTuple(tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        self._check(other)
        return MatTuple(tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, other):
        self._check(other)
        return MatTuple(tuple(
            a * b if a.terms and b.terms else (b if a.terms else a)
            for a, b in zip(self.blocks, other.blocks)))

    def scale(self, a: Scalar) -> "MatTuple":
        return MatTuple(tuple(b.scale(a) for b in self.blocks))

    def star(self) -> "MatTuple":
        return MatTuple(tuple(b.star() for b in self.blocks))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def zero(self) -> "MatTuple":
        return MatTuple(tuple(b.zero() for b in self.blocks))

    def degree_components(self) -> dict:
        degrees = set()
        per_block = [b.degree_components() for b in self.blocks]
        for comp in per_block:
            degrees |= set(comp)
        return {
            d: MatTuple(tuple(
                comp.get(d, blk.zero()) for comp, blk in zip(per_block, self.blocks)))
            for d in sorted(degrees)
        }

    def __str__(self):
        return " (+) ".join(str(b) for b in self.blocks)


def direct_sum_unit(algebras, block: int, i: int, j: int, tpow: int = 0) -> MatTuple:
    blocks = [a.zero() for a in algebras]
    blocks[block] = algebras[block].unit(i, j, tpow)
    return MatTuple(tuple(blocks))


# -- the classification invariant ---------------------------------------------


def canonical_field_shifts(shifts) -> tuple:
    s = sorted(int(x) for x in shifts)
    return tuple(x - s[0] for x in s)


def canonical_laurent_shifts(shifts, period: int) -> tuple:
    """Lexicographically smallest circular translation of the shifts mod period.

    Uniform translation modulo the period is induced by re-basing the cycle,
    so the canonical form must absorb it; reducing the minimum to 0 alone
    does not.
    """
    reduced = [int(x) % period for x in shifts]
    return min(tuple(sorted((x + d) % period for x in reduced)) for d in range(period))


@dataclass(frozen=True)
class MatricialSignature:
    """Canonical block data: (size, shifts) and (size, period, shifts) lists."""

    field_blocks: tuple = ()
    laurent_blocks: tuple = ()

    def __post_init__(self):
        fb = tuple(sorted((int(k), canonical_field_shifts(sh))
                          for k, sh in self.field_blocks))
        lb = tuple(sorted((int(m), int(n), canonical_laurent_shifts(sh, int(n)))
                          for m, n, sh in self.laurent_blocks))
        for k, sh in fb:
            if k != len(sh) or k < 1:
                raise GraphFormatError(f"field block size {k} vs shifts {sh}")
        for m, n, sh in lb:
            if m != len(sh) or m < 1 or n < 1:
                raise GraphFormatError(f"laurent block ({m},{n}) vs shifts {sh}")
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


@dataclass(frozen=True)
class BlockMatch:
    """A checked unit-level map witnessing a block isomorphism."""

    permutation: tuple        # source index i -> target index permutation[i]
    translation: int
    tpowers: tuple            # diagonal t-exponent corrections (0 for field kind)


@dataclass(frozen=True)
class IsoDecision:
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
    n = a.period
    for d in range(n):
        res_a = sorted(((a.shifts[i] + d) % n, i) for i in range(a.size))
        res_b = sorted((b.shifts[i] % n, i) for i in range(b.size))
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
    """Check the unit-level map: multiplicative, *-compatible, degree preserving."""
    n = a.size
    perm, c = match.permutation, match.tpowers

    def image(i, j, k=0):
        return b.unit(perm[i], perm[j], k + c[i] - c[j])

    exps = (0,) if a.kind == "field" else (-1, 0, 1)
    for i in range(n):
        for j in range(n):
            for k in exps:
                if a.unit_degree(i, j, k) != b.unit_degree(
                    perm[i], perm[j], k + c[i] - c[j]
                ):
                    return False
            if not (image(i, j).star() - image(j, i)).is_zero():
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    got = image(i, j) * image(k, l)
                    want = image(i, l) if j == k else b.zero()
                    if not (got - want).is_zero():
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
    # scan outward from 0 so the certificate is the most central distinguisher
    for delta in sorted(range(-window, window + 1), key=lambda d: (abs(d), d < 0)):
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
