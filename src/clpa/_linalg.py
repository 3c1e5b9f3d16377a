"""Tiny exact linear algebra over the package's scalar fields.

Only what the rest of the package needs: the rank of a family of sparse
vectors (for linear-independence certificates), a basis of the solution
space of a homogeneous system (for relation-invariant weightings) and the
inverse of a square matrix (for the GF(2) conjugation oracle).  All three
run through :func:`_reduce`, the package's one row reduction: Gauss-Jordan
elimination over dense rows, updating only the pivot row's support, is
plenty at this scale, and floating point is not an option, so this stays
hand-rolled.
"""

from __future__ import annotations

from .scalars import Field


def rank_of_sparse(vectors, field: Field) -> int:
    """Rank of a list of dict-valued vectors (arbitrary hashable keys)."""
    keys = sorted({k for v in vectors for k in v})
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        row = [field.zero] * len(keys)
        for k, a in v.items():
            row[index[k]] = a
        rows.append(row)
    return len(_reduce(rows, field))


def _reduce(rows, field: Field) -> list:
    """Gauss-Jordan elimination of the rows in place; the pivot columns.

    Each pivot step touches only the pivot row's nonzero columns.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        # rows from rank on are zero left of col; relation rows are sparse
        support = [c for c in range(col, ncols) if top[c]]
        inv = field.div(field.one, top[col])
        for c in support:
            top[c] *= inv
        for r, row in enumerate(rows):
            factor = row[col]
            if r != rank and factor:
                for c in support:
                    row[c] -= factor * top[c]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def nullspace_basis(rows, ncols: int, field: Field):
    """Basis of {x : M x = 0} for a dense row-list M with ``ncols`` columns."""
    m = [list(r) for r in rows]
    pivots = _reduce(m, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


def inverse(rows, field: Field):
    """M^-1 for a square row-list M, or None if M is singular: Gauss-Jordan
    on [M | I], whose pivots are the first n columns exactly when M is invertible."""
    n = len(rows)
    m = [list(r) + [field.one if c == i else field.zero for c in range(n)]
         for i, r in enumerate(rows)]
    if _reduce(m, field) != list(range(n)):
        return None
    return [r[n:] for r in m]
