"""Dense exact linear algebra over small fields, generic in the scalar type.

An ``ops`` object supplies zero/one constants and add/sub/mul/inv callables;
PrimeOps works on plain ints mod p, FieldOps on FieldElement values. Vectors
are tuples, matrices are tuples of row tuples. Everything is desk-scale
(dimensions below ~30), so plain Gaussian elimination is used throughout.
"""

from __future__ import annotations

from typing import Sequence


class PrimeOps:
    """F_p arithmetic on plain integers 0..p-1."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a == 0


class FieldOps:
    """GF(p^k) arithmetic on FieldElement values."""

    def __init__(self, field):
        self.field = field
        self.zero = field.zero
        self.one = field.one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero


def zero_vector(n, ops):
    return (ops.zero,) * n


def vec_is_zero(v, ops):
    return all(ops.is_zero(c) for c in v)


def rref(rows: Sequence[tuple], ops) -> tuple:
    """Reduced row echelon form with zero rows dropped; canonical for a span."""
    mat = [list(r) for r in rows if not vec_is_zero(r, ops)]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if not ops.is_zero(mat[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = ops.inv(mat[pivot_row][col])
        mat[pivot_row] = [ops.mul(inv, c) for c in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and not ops.is_zero(mat[r][col]):
                factor = mat[r][col]
                mat[r] = [ops.sub(a, ops.mul(factor, b))
                          for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if not vec_is_zero(r, ops))


def span_basis(vectors, ops) -> tuple:
    return rref(list(vectors), ops)


def in_span(v, basis, ops) -> bool:
    """Reduce v against an rref basis; True iff the remainder vanishes."""
    residue = list(v)
    for row in basis:
        lead = next(i for i, c in enumerate(row) if not ops.is_zero(c))
        if not ops.is_zero(residue[lead]):
            factor = residue[lead]
            residue = [ops.sub(a, ops.mul(factor, b)) for a, b in zip(residue, row)]
    return all(ops.is_zero(c) for c in residue)


def spans_equal(b1, b2, ops) -> bool:
    return rref(list(b1), ops) == rref(list(b2), ops)


def nullspace(rows: Sequence[tuple], ncols: int, ops) -> tuple:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    reduced = rref(rows, ops)
    pivots = []
    for row in reduced:
        pivots.append(next(i for i, c in enumerate(row) if not ops.is_zero(c)))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for row, pc in zip(reduced, pivots):
            v[pc] = ops.neg(row[fc])
        basis.append(tuple(v))
    return tuple(basis)


def mat_vec(rows, v, ops):
    out = []
    for row in rows:
        acc = ops.zero
        for a, b in zip(row, v):
            if not (ops.is_zero(a) or ops.is_zero(b)):
                acc = ops.add(acc, ops.mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_from_columns(cols, ops):
    if not cols:
        return ()
    n = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def identity_matrix(n, ops):
    return tuple(tuple(ops.one if i == j else ops.zero for j in range(n)) for i in range(n))


def mat_sub(A, B, ops):
    return tuple(tuple(ops.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A, B, ops):
    if not B:
        return ()
    ncols = len(B[0])
    out = []
    for row in A:
        new = []
        for j in range(ncols):
            acc = ops.zero
            for k, a in enumerate(row):
                if not ops.is_zero(a):
                    acc = ops.add(acc, ops.mul(a, B[k][j]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_equal(A, B, ops) -> bool:
    return all(all(ops.is_zero(ops.sub(a, b)) for a, b in zip(ra, rb))
               for ra, rb in zip(A, B))


def intersect_spans(b1, b2, ops) -> tuple:
    """Zassenhaus intersection of two row spans (vectors of equal length)."""
    if not b1 or not b2:
        return ()
    n = len(b1[0])
    rows = [tuple(v) + tuple(v) for v in b1]
    rows += [tuple(w) + zero_vector(n, ops) for w in b2]
    reduced = rref(rows, ops)
    out = []
    for row in reduced:
        if vec_is_zero(row[:n], ops) and not vec_is_zero(row[n:], ops):
            out.append(tuple(row[n:]))
    return rref(out, ops)
