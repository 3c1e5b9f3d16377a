"""Tiny exact linear algebra over the package's scalar fields.

Only what the rest of the package needs: the rank of a family of sparse
vectors (for linear-independence certificates) and a basis of the solution
space of a homogeneous system (for relation-invariant weightings).  Gaussian
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
