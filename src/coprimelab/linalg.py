"""Dense exact linear algebra over a finite field.

Scalars are the integer codes of a ``FiniteField`` F, which every function
that does arithmetic takes. Codes are canonical, so 0 and 1 are F's zero and
one, ``any(v)`` tells a nonzero vector and ``==`` compares vectors and
matrices. Vectors are tuples, matrices are tuples of row tuples. Everything
is desk-scale (dimensions below ~30), so plain Gaussian elimination is used
throughout.
"""

from __future__ import annotations

from typing import Sequence


def rref(rows: Sequence[tuple], F) -> tuple:
    """Reduced row echelon form with zero rows dropped; canonical for a span."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = F.inv(mat[pivot_row][col])
        mat[pivot_row] = [F.mul(inv, c) for c in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [F.sub(a, F.mul(factor, b))
                          for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def nullspace(rows: Sequence[tuple], ncols: int, F) -> tuple:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    reduced = rref(rows, F)
    pivots = [next(i for i, c in enumerate(row) if c) for row in reduced]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = F.neg(row[fc])
        basis.append(tuple(v))
    return tuple(basis)


def mat_vec(rows, v, F):
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_from_columns(cols):
    if not cols:
        return ()
    return tuple(zip(*cols))


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_sub(A, B, F):
    return tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def intersect_spans(b1, b2, F) -> tuple:
    """Zassenhaus intersection of two row spans (vectors of equal length), as
    its rref, which is canonical."""
    if not b1 or not b2:
        return ()
    n = len(b1[0])
    rows = [tuple(v) + tuple(v) for v in b1]
    rows += [tuple(w) + (0,) * n for w in b2]
    return rref([row[n:] for row in rref(rows, F) if not any(row[:n])], F)
